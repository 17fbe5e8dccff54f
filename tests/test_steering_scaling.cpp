// Deterministic scaling guard for the savings model (Sec. 4): the
// steering walks behind one SavingsEstimator must cost the sum of the
// candidates' cones, not candidates × netlist size. The cells they
// visit are counted in isolate.steering_cells_visited; quadrupling the
// lanes of a parametric datapath (independent lanes, constant cones)
// must roughly quadruple the count. A walk that touched the whole
// netlist per call would scale it ~16×.
#include <gtest/gtest.h>

#include "designs/designs.hpp"
#include "isolation/savings.hpp"
#include "netlist/traversal.hpp"
#include "obs/metrics.hpp"

namespace opiso {
namespace {

std::uint64_t steering_cells_visited(const ParametricConfig& cfg) {
  const Netlist nl = make_parametric_datapath(cfg);
  ExprPool pool;
  NetVarMap vars;
  const ActivationAnalysis aa = derive_activation(nl, pool, vars);
  const std::vector<IsolationCandidate> cands =
      identify_candidates(nl, combinational_blocks(nl), aa, pool, CandidateConfig{});
  obs::Counter& counter = obs::metrics().counter("isolate.steering_cells_visited");
  const std::uint64_t before = counter.value();
  const SavingsEstimator est(nl, pool, vars, cands, MacroPowerModel{});
  EXPECT_EQ(est.num_candidates(), cands.size());
  return counter.value() - before;
}

TEST(SteeringScaling, CellsVisitedGrowLinearlyWithLanes) {
  const std::uint64_t small = steering_cells_visited({16, 4, 8, true});
  const std::uint64_t large = steering_cells_visited({64, 4, 8, true});
  ASSERT_GT(small, 0u);
  EXPECT_LE(static_cast<double>(large), 4.5 * static_cast<double>(small))
      << "small=" << small << " large=" << large;
}

}  // namespace
}  // namespace opiso
