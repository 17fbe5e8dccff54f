// Tests for multiplexing-function derivation (Sec. 4.1): fanin networks
// with g^k conditions and fanout-candidate discovery, plus a differential
// oracle holding the cone-local SteeringIndex walks to the whole-netlist
// reference walks bit for bit.
#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <string>

#include "boolfn/bdd.hpp"
#include "designs/designs.hpp"
#include "isolation/activation.hpp"
#include "isolation/candidates.hpp"
#include "isolation/muxfn.hpp"
#include "netlist/traversal.hpp"

namespace opiso {
namespace {

// ---------------------------------------------------------------------------
// Reference walks: the whole-netlist formulation of the steering
// traversals (a fresh topological sort and O(V) arrays per call, and a
// fanout sweep over every cell). The differential tests below hold the
// cone-local SteeringIndex walks to these bit for bit, including the
// ExprPool nodes and NetVarMap variables each call creates.

namespace reference {

bool is_structural_source(CellKind kind) {
  return kind == CellKind::Reg || kind == CellKind::PrimaryInput || kind == CellKind::Constant;
}

ExprRef edge_condition(const Netlist& nl, ExprPool& pool, NetVarMap& vars, const Cell& cell,
                       int port) {
  switch (cell.kind) {
    case CellKind::Mux2:
      if (port == 0) return ExprRef::invalid();
      if (port == 1) return pool.lnot(pool.var(vars.var_of(nl, cell.ins[0])));
      return pool.var(vars.var_of(nl, cell.ins[0]));
    case CellKind::Latch:
    case CellKind::IsoAnd:
    case CellKind::IsoOr:
    case CellKind::IsoLatch:
      if (port == 1) return ExprRef::invalid();
      return pool.var(vars.var_of(nl, cell.ins[1]));
    default:
      return pool.const1();
  }
}

FaninNetwork fanin_network(const Netlist& nl, ExprPool& pool, NetVarMap& vars, CellId cell,
                           int port, const CandidatePredicate& is_candidate) {
  FaninNetwork fn;
  const NetId pin_net = nl.cell(cell).ins.at(static_cast<size_t>(port));
  std::vector<ExprRef> cond(nl.num_nets(), ExprRef::invalid());
  cond[pin_net.value()] = pool.const1();
  const std::vector<CellId> order = topological_order(nl);
  std::vector<std::size_t> pos(nl.num_cells(), 0);
  for (std::size_t i = 0; i < order.size(); ++i) pos[order[i].value()] = i;

  std::vector<NetId> cone{pin_net};
  std::vector<bool> seen(nl.num_nets(), false);
  seen[pin_net.value()] = true;
  for (std::size_t i = 0; i < cone.size(); ++i) {
    const CellId drv = nl.net(cone[i]).driver;
    const Cell& d = nl.cell(drv);
    if (is_candidate(drv) || is_structural_source(d.kind)) continue;
    for (int p = 0; p < static_cast<int>(d.ins.size()); ++p) {
      if (!edge_condition(nl, pool, vars, d, p).valid()) continue;
      NetId in = d.ins[static_cast<size_t>(p)];
      if (!seen[in.value()]) {
        seen[in.value()] = true;
        cone.push_back(in);
      }
    }
  }
  std::sort(cone.begin(), cone.end(), [&](NetId a, NetId b) {
    return pos[nl.net(a).driver.value()] > pos[nl.net(b).driver.value()];
  });

  std::map<CellId, ExprRef> found;
  for (NetId n : cone) {
    if (!cond[n.value()].valid()) continue;
    const CellId drv = nl.net(n).driver;
    const Cell& d = nl.cell(drv);
    if (is_candidate(drv)) {
      auto [it, inserted] = found.emplace(drv, cond[n.value()]);
      if (!inserted) it->second = pool.lor(it->second, cond[n.value()]);
      continue;
    }
    if (is_structural_source(d.kind)) {
      if (d.kind != CellKind::Constant) fn.has_noncandidate_source = true;
      continue;
    }
    for (int p = 0; p < static_cast<int>(d.ins.size()); ++p) {
      ExprRef edge = edge_condition(nl, pool, vars, d, p);
      if (!edge.valid()) continue;
      NetId in = d.ins[static_cast<size_t>(p)];
      ExprRef path = pool.land(cond[n.value()], edge);
      cond[in.value()] = cond[in.value()].valid() ? pool.lor(cond[in.value()], path) : path;
    }
  }
  for (const auto& [cand, g] : found) fn.candidates.push_back(ConnectedCandidate{cand, g});
  return fn;
}

std::vector<FanoutConnection> fanout_candidates(const Netlist& nl, ExprPool& pool,
                                                NetVarMap& vars, CellId cell,
                                                const CandidatePredicate& is_candidate) {
  std::vector<FanoutConnection> result;
  const Cell& c = nl.cell(cell);
  std::vector<ExprRef> cond(nl.num_nets(), ExprRef::invalid());
  cond[c.out.value()] = pool.const1();
  for (CellId id : topological_order(nl)) {
    const Cell& y = nl.cell(id);
    if (is_structural_source(y.kind) || y.kind == CellKind::PrimaryOutput) continue;
    if (id == cell) continue;
    ExprRef out_cond = ExprRef::invalid();
    for (int p = 0; p < static_cast<int>(y.ins.size()); ++p) {
      const NetId in = y.ins[static_cast<size_t>(p)];
      if (!cond[in.value()].valid()) continue;
      if (is_candidate(id)) {
        result.push_back(FanoutConnection{id, p, cond[in.value()]});
        continue;
      }
      ExprRef edge = edge_condition(nl, pool, vars, y, p);
      if (!edge.valid()) continue;
      ExprRef path = pool.land(cond[in.value()], edge);
      out_cond = out_cond.valid() ? pool.lor(out_cond, path) : path;
    }
    if (out_cond.valid() && y.out.valid()) {
      cond[y.out.value()] =
          cond[y.out.value()].valid() ? pool.lor(cond[y.out.value()], out_cond) : out_cond;
    }
  }
  return result;
}

}  // namespace reference

struct Ctx {
  Netlist nl;
  ExprPool pool;
  NetVarMap vars;
  SteeringIndex index{nl};

  explicit Ctx(Netlist design) : nl(std::move(design)) {}
  CellId cell(const std::string& out_net) { return nl.net(nl.find_net(out_net)).driver; }
  ExprRef v(const std::string& net) { return pool.var(vars.var_of(nl, nl.find_net(net))); }
  bool equivalent(ExprRef a, ExprRef b) {
    BddManager m;
    return m.equal(m.from_expr(pool, a), m.from_expr(pool, b));
  }
  CandidatePredicate arith_pred() {
    return [this](CellId id) { return cell_kind_is_arith(nl.cell(id).kind); };
  }
};

TEST(MuxFn, Fig1FaninOfA0MatchesPaper) {
  Ctx c(make_fig1(8));
  // Input A (port 0) of a0 is fed by a1 through m0/m1: g = S1·!S0.
  const FaninNetwork fan =
      derive_fanin_network(c.index, c.pool, c.vars, c.cell("a0"), 0, c.arith_pred());
  ASSERT_EQ(fan.candidates.size(), 1u);
  EXPECT_EQ(fan.candidates[0].candidate, c.cell("a1"));
  EXPECT_TRUE(c.equivalent(fan.candidates[0].condition,
                           c.pool.land(c.v("S1"), c.pool.lnot(c.v("S0")))));
  // The same muxes can also steer C or E (primary inputs) to the pin.
  EXPECT_TRUE(fan.has_noncandidate_source);
}

TEST(MuxFn, Fig1FaninPortBHasNoCandidates) {
  Ctx c(make_fig1(8));
  const FaninNetwork fan =
      derive_fanin_network(c.index, c.pool, c.vars, c.cell("a0"), 1, c.arith_pred());
  EXPECT_TRUE(fan.candidates.empty());
  EXPECT_TRUE(fan.has_noncandidate_source);
}

TEST(MuxFn, Fig1FanoutOfA1ReachesA0) {
  Ctx c(make_fig1(8));
  const auto fanouts = derive_fanout_candidates(c.index, c.pool, c.vars, c.cell("a1"),
                                                c.arith_pred());
  ASSERT_EQ(fanouts.size(), 1u);
  EXPECT_EQ(fanouts[0].candidate, c.cell("a0"));
  EXPECT_EQ(fanouts[0].port, 0);
  EXPECT_TRUE(c.equivalent(fanouts[0].condition,
                           c.pool.land(c.v("S1"), c.pool.lnot(c.v("S0")))));
}

TEST(MuxFn, DirectConnectionHasConditionOne) {
  // c_i directly wired into c_j (Fig. 3 of the paper): g = 1.
  Netlist nl;
  NetId a = nl.add_input("a", 8);
  NetId b = nl.add_input("b", 8);
  NetId en = nl.add_input("en", 1);
  NetId s1 = nl.add_binop(CellKind::Add, "s1", a, b);
  NetId s2 = nl.add_binop(CellKind::Add, "s2", s1, b);
  NetId r = nl.add_reg("r", s2, en);
  nl.add_output("o", r);
  Ctx c(std::move(nl));
  const auto fanouts =
      derive_fanout_candidates(c.index, c.pool, c.vars, c.cell("s1"), c.arith_pred());
  ASSERT_EQ(fanouts.size(), 1u);
  EXPECT_TRUE(c.pool.is_const1(fanouts[0].condition));
  EXPECT_EQ(fanouts[0].port, 0);
}

TEST(MuxFn, ParallelPathsOrTheirConditions) {
  // s1 reaches the consumer through both mux legs -> g = !sel + sel = 1.
  Netlist nl;
  NetId a = nl.add_input("a", 8);
  NetId b = nl.add_input("b", 8);
  NetId sel = nl.add_input("sel", 1);
  NetId en = nl.add_input("en", 1);
  NetId s1 = nl.add_binop(CellKind::Add, "s1", a, b);
  NetId m = nl.add_mux2("m", sel, s1, s1);
  NetId s2 = nl.add_binop(CellKind::Add, "s2", m, b);
  NetId r = nl.add_reg("r", s2, en);
  nl.add_output("o", r);
  Ctx c(std::move(nl));
  const auto fanouts =
      derive_fanout_candidates(c.index, c.pool, c.vars, c.cell("s1"), c.arith_pred());
  ASSERT_EQ(fanouts.size(), 1u);
  EXPECT_TRUE(c.pool.is_const1(fanouts[0].condition));
}

TEST(MuxFn, StopsAtCandidatesInBetween) {
  // s1 -> s2 -> s3: fanout of s1 reports only s2 (paths terminate at the
  // first candidate; s3's exposure is s2's business).
  Netlist nl;
  NetId a = nl.add_input("a", 8);
  NetId b = nl.add_input("b", 8);
  NetId en = nl.add_input("en", 1);
  NetId s1 = nl.add_binop(CellKind::Add, "s1", a, b);
  NetId s2 = nl.add_binop(CellKind::Add, "s2", s1, b);
  NetId s3 = nl.add_binop(CellKind::Add, "s3", s2, b);
  NetId r = nl.add_reg("r", s3, en);
  nl.add_output("o", r);
  Ctx c(std::move(nl));
  const auto fanouts =
      derive_fanout_candidates(c.index, c.pool, c.vars, c.cell("s1"), c.arith_pred());
  ASSERT_EQ(fanouts.size(), 1u);
  EXPECT_EQ(fanouts[0].candidate, c.cell("s2"));
}

TEST(MuxFn, FanoutThroughRegistersIsCut) {
  // Sequential boundary: fanout candidates behind a register are not
  // reported (the f+_r = 1 cut).
  Netlist nl = make_design1(8);
  Ctx c(std::move(nl));
  const auto fanouts =
      derive_fanout_candidates(c.index, c.pool, c.vars, c.cell("mul1"), c.arith_pred());
  EXPECT_TRUE(fanouts.empty());
}

TEST(MuxFn, Design1Add2FeedsAdd3) {
  Ctx c(make_design1(8));
  const auto fanouts =
      derive_fanout_candidates(c.index, c.pool, c.vars, c.cell("add2"), c.arith_pred());
  ASSERT_EQ(fanouts.size(), 1u);
  EXPECT_EQ(fanouts[0].candidate, c.cell("add3"));
  EXPECT_TRUE(c.equivalent(fanouts[0].condition, c.pool.lnot(c.v("sel"))));
}

// ---------------------------------------------------------------------------
// Differential oracle: reference walks vs SteeringIndex walks.

/// One Boolean universe (pool + variable map) seeded the way
/// SavingsEstimator finds it: after activation derivation.
struct Universe {
  ExprPool pool;
  NetVarMap vars;
  ActivationAnalysis analysis;
  explicit Universe(const Netlist& nl) { analysis = derive_activation(nl, pool, vars); }
};

/// Run the reference and the indexed walks in lock step on two
/// identically seeded universes — every candidate, every input port,
/// then every fanout — and require identical results and identical
/// pool/variable growth after each call. Returns the number of
/// candidates checked.
std::size_t check_walks_identical(const Netlist& nl, const std::string& label) {
  SCOPED_TRACE(label);
  Universe ref(nl);
  Universe idx(nl);
  const std::vector<IsolationCandidate> cands = identify_candidates(
      nl, combinational_blocks(nl), ref.analysis, ref.pool, CandidateConfig{});
  // identify_candidates may intern expressions; mirror it on the other side.
  (void)identify_candidates(nl, combinational_blocks(nl), idx.analysis, idx.pool,
                            CandidateConfig{});
  std::vector<bool> is_cand(nl.num_cells(), false);
  for (const IsolationCandidate& c : cands) is_cand[c.cell.value()] = true;
  const CandidatePredicate pred = [&is_cand](CellId id) { return is_cand[id.value()]; };
  SteeringIndex index(nl);

  const auto same_growth = [&] {
    EXPECT_EQ(ref.pool.num_nodes(), idx.pool.num_nodes());
    EXPECT_EQ(ref.vars.num_vars(), idx.vars.num_vars());
  };
  same_growth();
  for (const IsolationCandidate& cand : cands) {
    const Cell& cell = nl.cell(cand.cell);
    SCOPED_TRACE(cell.name);
    for (int p = 0; p < static_cast<int>(cell.ins.size()); ++p) {
      const FaninNetwork a = reference::fanin_network(nl, ref.pool, ref.vars, cand.cell, p, pred);
      const FaninNetwork b = derive_fanin_network(index, idx.pool, idx.vars, cand.cell, p, pred);
      EXPECT_EQ(a.has_noncandidate_source, b.has_noncandidate_source) << "port " << p;
      EXPECT_EQ(a.candidates.size(), b.candidates.size()) << "port " << p;
      for (std::size_t k = 0; k < std::min(a.candidates.size(), b.candidates.size()); ++k) {
        EXPECT_EQ(a.candidates[k].candidate, b.candidates[k].candidate);
        EXPECT_EQ(a.candidates[k].condition, b.candidates[k].condition);
      }
      same_growth();
    }
    const std::vector<FanoutConnection> a =
        reference::fanout_candidates(nl, ref.pool, ref.vars, cand.cell, pred);
    const std::vector<FanoutConnection> b =
        derive_fanout_candidates(index, idx.pool, idx.vars, cand.cell, pred);
    EXPECT_EQ(a.size(), b.size());
    for (std::size_t k = 0; k < std::min(a.size(), b.size()); ++k) {
      EXPECT_EQ(a[k].candidate, b[k].candidate);
      EXPECT_EQ(a[k].port, b[k].port);
      EXPECT_EQ(a[k].condition, b[k].condition);
    }
    same_growth();
  }
  return cands.size();
}

TEST(MuxFnDifferential, PaperDesignsMatchReferenceWalks) {
  EXPECT_GT(check_walks_identical(make_fig1(8), "fig1"), 0u);
  EXPECT_GT(check_walks_identical(make_design1(8), "design1"), 0u);
  EXPECT_GT(check_walks_identical(make_design2(8), "design2"), 0u);
}

TEST(MuxFnDifferential, ParametricDatapathsMatchReferenceWalks) {
  for (unsigned lanes : {1u, 4u, 16u}) {
    const Netlist nl = make_parametric_datapath({lanes, 4, 8, true});
    EXPECT_GT(check_walks_identical(nl, "parametric lanes=" + std::to_string(lanes)), 0u);
  }
}

TEST(MuxFnDifferential, RandomDatapathsMatchReferenceWalks) {
  std::size_t checked = 0;
  for (std::uint64_t seed = 1; seed <= 24; ++seed) {
    for (bool latches : {false, true}) {
      RandomDesignConfig cfg;
      cfg.allow_latches = latches;
      const Netlist nl = make_random_datapath(seed, cfg);
      checked += check_walks_identical(
          nl, "random seed=" + std::to_string(seed) + (latches ? " latches" : ""));
    }
  }
  EXPECT_GT(checked, 0u);
}

TEST(MuxFnDifferential, IndexScratchIsResetBetweenWalks) {
  // Re-running a walk on the same index must not see state left behind
  // by earlier walks: the second call returns what the first did.
  Ctx c(make_fig1(8));
  const FaninNetwork first =
      derive_fanin_network(c.index, c.pool, c.vars, c.cell("a0"), 0, c.arith_pred());
  (void)derive_fanout_candidates(c.index, c.pool, c.vars, c.cell("a1"), c.arith_pred());
  const FaninNetwork again =
      derive_fanin_network(c.index, c.pool, c.vars, c.cell("a0"), 0, c.arith_pred());
  ASSERT_EQ(first.candidates.size(), again.candidates.size());
  EXPECT_EQ(first.candidates[0].condition, again.candidates[0].condition);
  EXPECT_EQ(first.has_noncandidate_source, again.has_noncandidate_source);
}

}  // namespace
}  // namespace opiso
