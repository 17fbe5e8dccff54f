// Tests for the strash + BDD formal equivalence checker: correct
// isolation proves equivalent in every style; deliberately broken
// "isolation" is caught by the exact pass and never proven by the
// cut-point pass.
#include <gtest/gtest.h>

#include "designs/designs.hpp"
#include "frontend/rtl_parser.hpp"
#include "isolation/activation.hpp"
#include "isolation/transform.hpp"
#include "verify/equiv.hpp"

namespace opiso {
namespace {

struct Ctx {
  Netlist nl;
  ExprPool pool;
  NetVarMap vars;
  ActivationAnalysis aa;

  explicit Ctx(Netlist design) : nl(std::move(design)) {
    aa = derive_activation(nl, pool, vars);
  }
  CellId cell(const std::string& out_net) { return nl.net(nl.find_net(out_net)).driver; }
};

TEST(Verify, IdenticalDesignsAreEquivalent) {
  const Netlist a = make_fig1(6);
  const EquivResult res = check_isolation_equivalence(a, a);
  EXPECT_TRUE(res.equivalent) << res.reason;
  EXPECT_GT(res.obligations_checked, 0u);
}

TEST(Verify, ProvesFig1IsolationSafe) {
  const Netlist original = make_fig1(6);
  for (IsolationStyle style : {IsolationStyle::And, IsolationStyle::Or}) {
    Ctx c(original);
    (void)isolate_module(c.nl, c.pool, c.vars, c.cell("a1"),
                         c.aa.activation_of(c.nl, c.cell("a1")), style);
    (void)isolate_module(c.nl, c.pool, c.vars, c.cell("a0"),
                         c.aa.activation_of(c.nl, c.cell("a0")), style);
    const EquivResult res = check_isolation_equivalence(original, c.nl);
    EXPECT_TRUE(res.equivalent)
        << isolation_style_name(style) << ": " << res.reason;
  }
}

TEST(Verify, ProvesDesign1IsolationSafe) {
  // Width 4 keeps the array-multiplier BDDs small.
  const Netlist original = make_design1(4);
  Ctx c(original);
  for (const char* name : {"mul1", "add1", "add2", "sub2", "add3", "mul2"}) {
    const CellId cell = c.cell(name);
    (void)isolate_module(c.nl, c.pool, c.vars, cell, c.aa.activation_of(c.nl, cell),
                         IsolationStyle::And);
  }
  const EquivResult res = check_isolation_equivalence(original, c.nl);
  EXPECT_TRUE(res.equivalent) << res.reason;
}

TEST(Verify, CatchesWrongActivationFunction) {
  // Isolate a1 with an UNDER-approximate activation signal (G1 alone
  // misses the S1·!S0·G0 path): a register can then load a blocked
  // value; the checker must refuse.
  const Netlist original = make_fig1(4);
  Ctx c(original);
  const ExprRef wrong = c.pool.var(c.vars.var_of(c.nl, c.nl.find_net("G1")));
  (void)isolate_module(c.nl, c.pool, c.vars, c.cell("a1"), wrong, IsolationStyle::And);
  const EquivResult res = check_isolation_equivalence(original, c.nl);
  EXPECT_FALSE(res.equivalent);
  EXPECT_NE(res.reason.find("load a different value"), std::string::npos) << res.reason;
}

TEST(Verify, AcceptsOverApproximateActivation) {
  // Guarding with a looser condition (constant 1 = never block) is
  // functionally safe, merely useless for power.
  const Netlist original = make_fig1(4);
  Ctx c(original);
  (void)isolate_module(c.nl, c.pool, c.vars, c.cell("a1"), c.pool.const1(),
                       IsolationStyle::And);
  const EquivResult res = check_isolation_equivalence(original, c.nl);
  EXPECT_TRUE(res.equivalent) << res.reason;
}

TEST(Verify, CatchesFunctionalEdit) {
  // A real functional change (adder became subtractor) must be caught
  // even though the interface is identical.
  Netlist a;
  {
    NetId x = a.add_input("x", 4);
    NetId y = a.add_input("y", 4);
    NetId en = a.add_input("en", 1);
    NetId s = a.add_binop(CellKind::Add, "s", x, y);
    NetId r = a.add_reg("r", s, en);
    a.add_output("o", r);
  }
  Netlist b;
  {
    NetId x = b.add_input("x", 4);
    NetId y = b.add_input("y", 4);
    NetId en = b.add_input("en", 1);
    NetId s = b.add_binop(CellKind::Sub, "s", x, y);
    NetId r = b.add_reg("r", s, en);
    b.add_output("o", r);
  }
  const EquivResult res = check_isolation_equivalence(a, b);
  EXPECT_FALSE(res.equivalent);
}

TEST(Verify, CatchesEnableTampering) {
  Netlist a;
  NetId x = a.add_input("x", 4);
  NetId en = a.add_input("en", 1);
  NetId en2 = a.add_input("en2", 1);
  NetId r = a.add_reg("r", x, en);
  a.add_output("o", r);

  Netlist b;
  NetId xb = b.add_input("x", 4);
  NetId enb = b.add_input("en", 1);
  NetId en2b = b.add_input("en2", 1);
  NetId gated = b.add_binop(CellKind::And, "gated", enb, en2b);
  NetId rb = b.add_reg("r", xb, gated);
  b.add_output("o", rb);
  (void)en2;
  const EquivResult res = check_isolation_equivalence(a, b);
  EXPECT_FALSE(res.equivalent);
  EXPECT_NE(res.reason.find("enable"), std::string::npos) << res.reason;
}

TEST(Verify, ProvesLatchIsolation) {
  // The LAT style is proven by the cut-point pass alone: every latch
  // bank is transparent while its activation holds.
  {
    const Netlist original = make_fig1(6);
    Ctx c(original);
    for (const char* name : {"a1", "a0"}) {
      (void)isolate_module(c.nl, c.pool, c.vars, c.cell(name),
                           c.aa.activation_of(c.nl, c.cell(name)), IsolationStyle::Latch);
    }
    const EquivResult res = check_isolation_equivalence(original, c.nl);
    EXPECT_EQ(res.verdict, EquivResult::Verdict::Equivalent) << res.reason;
    EXPECT_TRUE(res.fallback_reason.empty()) << res.fallback_reason;
  }
  {
    const Netlist original = make_design1(8);
    Ctx c(original);
    for (const char* name : {"mul1", "add1", "add2", "sub2", "add3", "mul2"}) {
      const CellId cell = c.cell(name);
      (void)isolate_module(c.nl, c.pool, c.vars, cell, c.aa.activation_of(c.nl, cell),
                           IsolationStyle::Latch);
    }
    const EquivResult res = check_isolation_equivalence(original, c.nl);
    EXPECT_EQ(res.verdict, EquivResult::Verdict::Equivalent) << res.reason;
    EXPECT_TRUE(res.equivalent);
    EXPECT_EQ(res.obligations_checked, 144u);
  }
}

TEST(Verify, PlainLatchDesignIsUnknown) {
  // A plain latch has no cut model and no exact model: the checker must
  // say so rather than claim a refutation (or a proof).
  Netlist a;
  NetId x = a.add_input("x", 4);
  NetId en = a.add_input("en", 1);
  NetId l = a.add_latch("l", x, en);
  NetId r = a.add_reg("r", l, en);
  a.add_output("o", r);
  const EquivResult res = check_isolation_equivalence(a, a);
  EXPECT_EQ(res.verdict, EquivResult::Verdict::Unknown);
  EXPECT_FALSE(res.equivalent);
  EXPECT_NE(res.reason.find("latch"), std::string::npos) << res.reason;
}

// ------------------------------------------------------------ VerifyCut

/// Isolate every arithmetic module whose activation is not constant 1,
/// chained modules included — the most cut points a design can carry.
Netlist isolate_all(const Netlist& original, IsolationStyle style) {
  Ctx c(original);
  for (CellId id : c.nl.cell_ids()) {
    if (!cell_kind_is_arith(c.nl.cell(id).kind)) continue;
    const ExprRef f = c.aa.activation_of(c.nl, id);
    if (c.pool.is_const1(f) || !isolation_is_legal(c.nl, c.pool, c.vars, id, f)) continue;
    (void)isolate_module(c.nl, c.pool, c.vars, id, f, style);
  }
  return c.nl;
}

/// The cut-point pass must decide exactly what the exact pass decides.
/// Returns the number of cut points the cut pass used.
std::size_t expect_cut_agrees_with_exact(const Netlist& original, const Netlist& transformed,
                                         const std::string& label) {
  SCOPED_TRACE(label);
  const BddBudget unlimited{};
  const EquivResult exact =
      run_equivalence_pass(original, transformed, unlimited, EquivPass::Exact);
  const EquivResult cut =
      run_equivalence_pass(original, transformed, unlimited, EquivPass::CutPoints);
  EXPECT_NE(exact.verdict, EquivResult::Verdict::Unknown) << exact.reason;
  EXPECT_EQ(cut.verdict, exact.verdict) << "cut: " << cut.reason << " / exact: " << exact.reason;
  EXPECT_EQ(cut.obligations_checked, exact.obligations_checked);
  return cut.cut_points;
}

TEST(VerifyCut, AgreesWithExact) {
  const Netlist fir4 = parse_rtl_file(std::string(OPISO_DESIGNS_RTL_DIR) + "/fir4.rtl");
  const struct {
    const char* name;
    Netlist design;
  } kDesigns[] = {
      {"fig1", make_fig1(8)},
      {"design1/w4", make_design1(4)},
      {"design1/w8", make_design1(8)},
      {"design2/w4", make_design2(4, 2)},
      {"fir4", fir4},
  };
  for (const auto& d : kDesigns) {
    for (IsolationStyle style : {IsolationStyle::And, IsolationStyle::Or}) {
      const std::size_t cuts = expect_cut_agrees_with_exact(
          d.design, isolate_all(d.design, style),
          std::string(d.name) + "/" + std::string(isolation_style_name(style)));
      EXPECT_GT(cuts, 0u) << d.name;
    }
  }
  RandomDesignConfig cfg;
  cfg.max_width = 5;
  cfg.levels = 4;
  cfg.cells_per_level = 4;
  std::size_t random_cuts = 0;
  for (std::uint64_t seed = 1; seed <= 24; ++seed) {
    const Netlist original = make_random_datapath(seed * 7919, cfg);
    for (IsolationStyle style : {IsolationStyle::And, IsolationStyle::Or}) {
      random_cuts += expect_cut_agrees_with_exact(original, isolate_all(original, style),
                                                  "random seed " + std::to_string(seed));
    }
  }
  EXPECT_GT(random_cuts, 24u);
}

TEST(VerifyCut, NegatedActivationIsNeverProven) {
  // Mutate one isolated module's banks to the complement of their
  // activation signal: the module is then blocked exactly when it is
  // observed. AND/OR: the exact pass refutes it. LAT: no exact model,
  // so the answer may be Unknown — but never Equivalent.
  struct Case {
    Netlist design;
    std::vector<const char*> modules;
    const char* mutated;
  };
  const Case kCases[] = {
      {make_fig1(4), {"a1", "a0"}, "a1"},
      {make_design1(4), {"mul1", "add1", "add2", "sub2", "add3", "mul2"}, "add3"},
  };
  for (const Case& k : kCases) {
    for (IsolationStyle style :
         {IsolationStyle::And, IsolationStyle::Or, IsolationStyle::Latch}) {
      SCOPED_TRACE(std::string(k.mutated) + "/" + std::string(isolation_style_name(style)));
      Ctx c(k.design);
      IsolationRecord mutated;
      for (const char* name : k.modules) {
        const IsolationRecord rec = isolate_module(
            c.nl, c.pool, c.vars, c.cell(name), c.aa.activation_of(c.nl, c.cell(name)), style);
        if (std::string(name) == k.mutated) mutated = rec;
      }
      const NetId negated =
          c.nl.add_unop(CellKind::Not, c.nl.fresh_net_name("as_negated"), mutated.as_net);
      for (CellId bank : mutated.bank_cells) c.nl.reconnect_input(bank, 1, negated);

      const EquivResult res = check_isolation_equivalence(k.design, c.nl);
      EXPECT_NE(res.verdict, EquivResult::Verdict::Equivalent);
      EXPECT_FALSE(res.equivalent);
      const EquivResult cut =
          run_equivalence_pass(k.design, c.nl, BddBudget{}, EquivPass::CutPoints);
      EXPECT_EQ(cut.verdict, EquivResult::Verdict::Unknown);
      if (style != IsolationStyle::Latch) {
        EXPECT_EQ(res.verdict, EquivResult::Verdict::NotEquivalent) << res.reason;
        EXPECT_FALSE(res.fallback_reason.empty());
        const EquivResult exact =
            run_equivalence_pass(k.design, c.nl, BddBudget{}, EquivPass::Exact);
        EXPECT_EQ(exact.verdict, EquivResult::Verdict::NotEquivalent);
      }
    }
  }
}

TEST(VerifyCut, MiswiredBankIsNeverProven) {
  // Rewire one bank of fig1's a1 to read C instead of A (its cut lemma
  // AS ∧ (operand ⊕ bank D) = 0 fails), or to block on G0 instead of
  // a1's activation (a1 is then no isolated module: its banks disagree
  // on AS). Neither may be proven; the exact pass refutes both in AND/OR.
  const Netlist original = make_fig1(4);
  for (int pin : {0, 1}) {
    for (IsolationStyle style :
         {IsolationStyle::And, IsolationStyle::Or, IsolationStyle::Latch}) {
      SCOPED_TRACE(std::string(isolation_style_name(style)) + " pin " + std::to_string(pin));
      Ctx c(original);
      const IsolationRecord rec = isolate_module(
          c.nl, c.pool, c.vars, c.cell("a1"), c.aa.activation_of(c.nl, c.cell("a1")), style);
      c.nl.reconnect_input(rec.bank_cells.at(0), pin, c.nl.find_net(pin == 0 ? "C" : "G0"));
      const EquivResult cut =
          run_equivalence_pass(original, c.nl, BddBudget{}, EquivPass::CutPoints);
      EXPECT_EQ(cut.verdict, EquivResult::Verdict::Unknown);
      if (pin == 0) {
        EXPECT_NE(cut.reason.find("operand 0 of isolated 'a1'"), std::string::npos)
            << cut.reason;
      }
      const EquivResult res = check_isolation_equivalence(original, c.nl);
      EXPECT_EQ(res.verdict, style == IsolationStyle::Latch
                                 ? EquivResult::Verdict::Unknown
                                 : EquivResult::Verdict::NotEquivalent)
          << res.reason;
    }
  }
}

TEST(VerifyCut, ExactPassRefusesLatchBanks) {
  const Netlist original = make_fig1(4);
  const EquivResult res = run_equivalence_pass(
      original, isolate_all(original, IsolationStyle::Latch), BddBudget{}, EquivPass::Exact);
  EXPECT_EQ(res.verdict, EquivResult::Verdict::Unknown);
}

}  // namespace
}  // namespace opiso
