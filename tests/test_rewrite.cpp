// Tests for equality-saturation datapath rewriting: rule soundness,
// budget degradation, verification gating, report determinism, and the
// differential fuzz contract (original vs optimized vs rewritten agree
// bitwise under both simulation engines).
#include <gtest/gtest.h>

#include <memory>
#include <sstream>

#include "designs/designs.hpp"
#include "frontend/rtl_parser.hpp"
#include "obs/json.hpp"
#include "opt/passes.hpp"
#include "opt/rewrite_rules.hpp"
#include "sim/parallel_sim.hpp"
#include "sim/sweep.hpp"
#include "test_util.hpp"
#include "verify/equiv.hpp"

namespace opiso {
namespace {

Netlist load_fir4() {
  return parse_rtl_file(std::string(OPISO_DESIGNS_RTL_DIR) + "/fir4.rtl");
}

std::size_t count_kind(const Netlist& nl, CellKind kind) {
  std::size_t n = 0;
  for (CellId id : nl.cell_ids()) {
    if (nl.cell(id).kind == kind) ++n;
  }
  return n;
}

std::uint64_t fired(const RewriteResult& r, const std::string& rule) {
  const auto it = r.rules_fired.find(rule);
  return it == r.rules_fired.end() ? 0 : it->second;
}

/// Lock-step comparison under the lane-parallel engine: every primary
/// output must agree in every lane on every cycle.
void expect_parallel_equivalent(const Netlist& a, const Netlist& b, std::uint64_t seed,
                                unsigned lanes, std::uint64_t cycles) {
  ParallelSimulator pa(a, lanes);
  ParallelSimulator pb(b, lanes);
  const auto stim = [seed](unsigned lane) {
    return std::make_unique<UniformStimulus>(sweep_lane_seed(seed, lane));
  };
  pa.set_stimulus(stim);
  pb.set_stimulus(stim);
  for (std::uint64_t cycle = 0; cycle < cycles; ++cycle) {
    pa.run(1);
    pb.run(1);
    for (std::size_t i = 0; i < a.primary_outputs().size(); ++i) {
      const NetId na = a.cell(a.primary_outputs()[i]).ins[0];
      const NetId nb = b.cell(b.primary_outputs()[i]).ins[0];
      for (unsigned l = 0; l < lanes; ++l) {
        ASSERT_EQ(pa.lane_value(na, l), pb.lane_value(nb, l))
            << "output " << a.net(na).name << " lane " << l << " cycle " << cycle;
      }
    }
  }
}

TEST(Rewrite, Fir4DecomposesConstantMultipliers) {
  const Netlist nl = load_fir4();
  const RewriteResult r = rewrite_datapath(nl);
  ASSERT_TRUE(r.rewritten) << r.fallback_reason;
  EXPECT_TRUE(r.verified);
  EXPECT_GT(fired(r, "mul-shift-add"), 0u);
  EXPECT_LT(r.cost_after, r.cost_before);
  // The coefficients 3, 7, 7, 3 are all 2^k ± 2^j: every multiplier is
  // cheaper as shifts and an add/sub at the profiled activity, so none
  // survive extraction.
  EXPECT_GT(count_kind(nl, CellKind::Mul), 0u);
  EXPECT_EQ(count_kind(r.netlist, CellKind::Mul), 0u);
  testutil::expect_observably_equivalent(nl, r.netlist, 0xF1A4, 2000);
  const EquivResult eq = check_isolation_equivalence(nl, r.netlist);
  EXPECT_TRUE(eq.equivalent) << eq.reason;
}

TEST(Rewrite, MuxFactoringSharesTheAdder) {
  Netlist nl;
  const NetId a = nl.add_input("a", 8);
  const NetId b = nl.add_input("b", 8);
  const NetId c = nl.add_input("c", 8);
  const NetId s = nl.add_input("s", 1);
  const NetId add1 = nl.add_binop(CellKind::Add, "add1", a, c);
  const NetId add2 = nl.add_binop(CellKind::Add, "add2", b, c);
  const NetId m = nl.add_mux2("m", s, add1, add2);
  nl.add_output("o", m);
  nl.validate();

  const RewriteResult r = rewrite_datapath(nl);
  ASSERT_TRUE(r.rewritten) << r.fallback_reason;
  EXPECT_TRUE(r.verified);
  EXPECT_GT(fired(r, "mux-factor"), 0u);
  EXPECT_EQ(count_kind(r.netlist, CellKind::Add), 1u);
  testutil::expect_observably_equivalent(nl, r.netlist, 0xFAC7, 2000);
}

TEST(Rewrite, AddAssociativityRespectsWidths) {
  // (p1:1 + p2:1):1 + p3:8 — regrouping to p1 + (p2 + p3) would lose
  // the 1-bit intermediate truncation; the width guard must block it
  // (or verification must catch it). Either way behavior is preserved.
  Netlist nl;
  const NetId p1 = nl.add_input("p1", 1);
  const NetId p2 = nl.add_input("p2", 1);
  const NetId p3 = nl.add_input("p3", 8);
  const NetId s1 = nl.add_binop(CellKind::Add, "s1", p1, p2);
  const NetId s2 = nl.add_binop(CellKind::Add, "s2", s1, p3);
  nl.add_output("o", s2);
  nl.validate();

  const RewriteResult r = rewrite_datapath(nl);
  testutil::expect_observably_equivalent(nl, r.netlist, 0xA55C, 2000);
}

TEST(Rewrite, NodeBudgetDegradesToInput) {
  const Netlist nl = make_design1(8);
  RewriteOptions opt;
  opt.max_nodes = 4;  // absurd: forces the PR-4 degradation path
  const RewriteResult r = rewrite_datapath(nl, opt);
  EXPECT_FALSE(r.rewritten);
  EXPECT_TRUE(r.budget_exhausted);
  EXPECT_FALSE(r.fallback_reason.empty());
  EXPECT_EQ(r.netlist.num_cells(), nl.num_cells());
  testutil::expect_observably_equivalent(nl, r.netlist, 0xB1D6, 500);
}

TEST(Rewrite, LatchDesignFallsBack) {
  Netlist nl;
  const NetId d = nl.add_input("d", 8);
  const NetId en = nl.add_input("en", 1);
  const NetId q = nl.add_latch("lat", d, en);
  nl.add_output("o", q);
  nl.validate();
  const RewriteResult r = rewrite_datapath(nl);
  EXPECT_FALSE(r.rewritten);
  EXPECT_NE(r.fallback_reason.find("latch"), std::string::npos);
}

TEST(Rewrite, VerifyGateCatchesUnsoundExtraction) {
  // With verification disabled the pass trusts its rules; with it on,
  // every rewritten result must have discharged equivalence
  // obligations. design2 exercises the FSM + MAC datapath.
  const Netlist nl = make_design2(8, 4);
  const RewriteResult r = rewrite_datapath(nl);
  if (r.rewritten) {
    EXPECT_TRUE(r.verified);
    EXPECT_GT(r.verify_obligations, 0u);
  }
  testutil::expect_observably_equivalent(nl, r.netlist, 0xD2D2, 2000);
}

TEST(Rewrite, ReportSectionIsDeterministic) {
  const auto render = [] {
    const RewriteResult r = rewrite_datapath(make_design2(8, 2));
    std::ostringstream os;
    rewrite_report_section(r).write(os, 1);
    return os.str();
  };
  const std::string a = render();
  const std::string b = render();
  EXPECT_FALSE(a.empty());
  EXPECT_EQ(a, b);
}

class RewriteFuzz : public ::testing::TestWithParam<int> {
 protected:
  std::uint64_t seed() const { return 0x9E3779B97F4A7C15ull + static_cast<std::uint64_t>(GetParam()); }
};

TEST_P(RewriteFuzz, OriginalOptimizedRewrittenAgree) {
  RandomDesignConfig cfg;
  cfg.levels = 5;
  cfg.cells_per_level = 4;
  const Netlist nl = make_random_datapath(seed(), cfg);
  const Netlist o = optimize(nl);
  const RewriteResult r = rewrite_datapath(nl);

  // Scalar engine, lock-step.
  testutil::expect_observably_equivalent(nl, o, seed(), 400);
  testutil::expect_observably_equivalent(nl, r.netlist, seed(), 400);
  // Lane-parallel engine, lock-step.
  expect_parallel_equivalent(nl, o, seed(), 8, 60);
  expect_parallel_equivalent(nl, r.netlist, seed(), 8, 60);

  // Formal check where tractable: a rewritten result was already proven
  // inside the pass; re-prove against the optimizer output too.
  if (r.rewritten) {
    EXPECT_TRUE(r.verified);
  }
  BddBudget budget;
  budget.max_nodes = 1u << 20;
  try {
    const EquivResult eq = check_isolation_equivalence(nl, o, budget);
    EXPECT_TRUE(eq.equivalent) << "optimize() changed behavior (seed " << seed()
                               << "): " << eq.reason;
  } catch (const ResourceError&) {
    // Wide random multipliers can blow the BDD budget; the lock-step
    // checks above still cover the behavior.
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, RewriteFuzz, ::testing::Range(0, 12));

}  // namespace
}  // namespace opiso
