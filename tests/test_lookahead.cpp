// Tests for the register-lookahead extension (Sec. 3's structural
// look-ahead alternative to the f+_r = 1 cut).
#include <gtest/gtest.h>

#include "boolfn/bdd.hpp"
#include "designs/designs.hpp"
#include "isolation/activation.hpp"
#include "isolation/algorithm.hpp"
#include "test_util.hpp"

namespace opiso {
namespace {

/// Pipeline where the paper's cut is blind: the adder feeds an
/// always-enabled register r0 whose value is consumed only when a
/// *registered* select (sel_q, loaded from the PI `sel_d` every cycle)
/// steers it into the output register. Because sel_q's next value is
/// predictable (it is registered), lookahead derives a non-trivial
/// activation function; the plain cut yields the useless f = 1.
Netlist make_lookahead_design(unsigned width) {
  Netlist nl("lookahead");
  const NetId a = nl.add_input("a", width);
  const NetId b = nl.add_input("b", width);
  const NetId alt = nl.add_input("alt", width);
  const NetId sel_d = nl.add_input("sel_d", 1);
  const NetId one = nl.add_const("one", 1, 1);

  const NetId sum = nl.add_binop(CellKind::Add, "sum", a, b);
  const NetId prod = nl.add_binop(CellKind::Mul, "prod", a, b);
  const NetId r0 = nl.add_reg("r0", sum, one);        // reloads every cycle
  const NetId rp = nl.add_reg("rp", prod, one);       // reloads every cycle
  const NetId sel_q = nl.add_reg("sel_q", sel_d, one);
  const NetId ralt = nl.add_reg("ralt", alt, one);

  const NetId m = nl.add_mux2("m", sel_q, ralt, r0);  // sel_q = 1 uses r0
  const NetId m2 = nl.add_mux2("m2", sel_q, rp, ralt);  // sel_q = 0 uses rp
  const NetId sum2 = nl.add_binop(CellKind::Add, "sum2", m, m2);
  const NetId r_out = nl.add_reg("r_out", sum2, one);
  nl.add_output("out", r_out);
  nl.validate();
  return nl;
}

TEST(Lookahead, PredictsRegisteredSignals) {
  Netlist nl = make_lookahead_design(6);
  ExprPool pool;
  NetVarMap vars;
  // sel_q(t+1) = one ? sel_d : sel_q = sel_d (current value).
  const ExprRef p = predict_next_value(nl, pool, vars, nl.find_net("sel_q"));
  ASSERT_TRUE(p.valid());
  BddManager m;
  EXPECT_TRUE(m.equal(m.from_expr(pool, p),
                      m.from_expr(pool, pool.var(vars.var_of(nl, nl.find_net("sel_d"))))));
}

TEST(Lookahead, PrimaryInputsAreUnpredictable) {
  Netlist nl = make_lookahead_design(6);
  ExprPool pool;
  NetVarMap vars;
  EXPECT_FALSE(predict_next_value(nl, pool, vars, nl.find_net("sel_d")).valid());
}

TEST(Lookahead, PredictsThroughControlLogic) {
  Netlist nl;
  NetId d0 = nl.add_input("d0", 1);
  NetId d1 = nl.add_input("d1", 1);
  NetId one = nl.add_const("one", 1, 1);
  NetId q0 = nl.add_reg("q0", d0, one);
  NetId q1 = nl.add_reg("q1", d1, one);
  NetId g = nl.add_binop(CellKind::And, "g", q0, q1);
  nl.add_output("o", g);
  ExprPool pool;
  NetVarMap vars;
  const ExprRef p = predict_next_value(nl, pool, vars, g);
  ASSERT_TRUE(p.valid());
  // g(t+1) = d0(t) & d1(t).
  BddManager m;
  const ExprRef expect = pool.land(pool.var(vars.var_of(nl, d0)), pool.var(vars.var_of(nl, d1)));
  EXPECT_TRUE(m.equal(m.from_expr(pool, p), m.from_expr(pool, expect)));
}

TEST(Lookahead, PredictsOneBitComparators) {
  // A register enabled by a 1-bit Eq of two registered nets: the enable
  // predicts through Eq's Boolean function, en(t+1) = !(d0(t) ^ d1(t)).
  Netlist nl;
  const NetId d0 = nl.add_input("d0", 1);
  const NetId d1 = nl.add_input("d1", 1);
  const NetId x = nl.add_input("x", 4);
  const NetId one = nl.add_const("one", 1, 1);
  const NetId q0 = nl.add_reg("q0", d0, one);
  const NetId q1 = nl.add_reg("q1", d1, one);
  const NetId en = nl.add_binop(CellKind::Eq, "en", q0, q1);
  const NetId r = nl.add_reg("r", x, en);
  nl.add_output("o", r);
  nl.validate();

  ExprPool pool;
  NetVarMap vars;
  const ExprRef p = predict_next_value(nl, pool, vars, en);
  ASSERT_TRUE(p.valid());
  const ExprRef v0 = pool.var(vars.var_of(nl, d0));
  const ExprRef v1 = pool.var(vars.var_of(nl, d1));
  BddManager m;
  EXPECT_TRUE(m.equal(m.from_expr(pool, p), m.from_expr(pool, pool.lnot(pool.lxor(v0, v1)))));
}

TEST(Lookahead, DerivesNonTrivialActivationWhereCutIsBlind) {
  Netlist nl = make_lookahead_design(6);
  const CellId adder = nl.net(nl.find_net("sum")).driver;
  {
    ExprPool pool;
    NetVarMap vars;
    const ActivationAnalysis plain = derive_activation(nl, pool, vars);
    EXPECT_TRUE(pool.is_const1(plain.activation_of(nl, adder)));
  }
  {
    ExprPool pool;
    NetVarMap vars;
    ActivationOptions opt;
    opt.register_lookahead = true;
    const ActivationAnalysis look = derive_activation(nl, pool, vars, opt);
    const ExprRef f = look.activation_of(nl, adder);
    EXPECT_FALSE(pool.is_const1(f));
    // r0 reloads every cycle, so f+_r0 = obs_r0(t+1) = sel_q(t+1) = sel_d.
    BddManager m;
    EXPECT_TRUE(m.equal(m.from_expr(pool, f),
                        m.from_expr(pool, pool.var(vars.var_of(nl, nl.find_net("sel_d"))))));
  }
}

TEST(Lookahead, UnreloadedRegistersStayConservative) {
  // When the register is *not* reloaded every cycle the loaded value can
  // outlive t+1, so f+ gains the ¬EN(t+1) escape and must not be 0 even
  // if next-cycle observability is 0.
  Netlist nl;
  NetId a = nl.add_input("a", 4);
  NetId b = nl.add_input("b", 4);
  NetId en_d = nl.add_input("en_d", 1);
  NetId one = nl.add_const("one", 1, 1);
  NetId en_q = nl.add_reg("en_q", en_d, one);
  NetId sum = nl.add_binop(CellKind::Add, "sum", a, b);
  NetId r0 = nl.add_reg("r0", sum, en_q);  // enable is registered
  NetId zero4 = nl.add_const("z4", 0, 4);
  NetId m = nl.add_mux2("m", en_q, zero4, r0);
  NetId r1 = nl.add_reg("r1", m, one);
  nl.add_output("o", r1);

  ExprPool pool;
  NetVarMap vars;
  ActivationOptions opt;
  opt.register_lookahead = true;
  const ActivationAnalysis aa = derive_activation(nl, pool, vars, opt);
  const ExprRef f = aa.activation_of(nl, nl.net(sum).driver);
  // f = en_q & (obs(t+1) | !en_q(t+1)) = en_q & (en_d | !en_d) ... both
  // terms reference en_d; whatever the factoring, f must not reduce the
  // observed-load case en_q to anything smaller.
  BddManager mgr;
  const BddRef f_bdd = mgr.from_expr(pool, f);
  const BddRef en_bdd = mgr.from_expr(pool, pool.var(vars.var_of(nl, en_q)));
  EXPECT_TRUE(mgr.equal(f_bdd, en_bdd));
}

TEST(Lookahead, IsolationRemainsObservablyEquivalent) {
  const Netlist original = make_lookahead_design(6);
  IsolationOptions opt;
  opt.activation.register_lookahead = true;
  opt.sim_cycles = 3000;
  const IsolationResult res = run_operand_isolation(
      original, [] {
        auto comp = std::make_unique<CompositeStimulus>(std::make_unique<UniformStimulus>(91));
        comp->route("sel_d", std::make_unique<ControlledBitStimulus>(0.2, 0.2, 92));
        return comp;
      }, opt);
  EXPECT_FALSE(res.records.empty());
  testutil::expect_observably_equivalent(original, res.netlist, 0x1AB5, 3000);
}

TEST(Lookahead, UnlocksSavingsTheCutCannotReach) {
  const Netlist design = make_lookahead_design(8);
  const StimulusFactory stimuli = [] {
    auto comp = std::make_unique<CompositeStimulus>(std::make_unique<UniformStimulus>(95));
    // r0's value is consumed rarely.
    comp->route("sel_d", std::make_unique<ControlledBitStimulus>(0.1, 0.1, 96));
    return comp;
  };
  IsolationOptions plain;
  plain.sim_cycles = 4096;
  const IsolationResult base = run_operand_isolation(design, stimuli, plain);

  IsolationOptions look = plain;
  look.activation.register_lookahead = true;
  const IsolationResult ext = run_operand_isolation(design, stimuli, look);

  EXPECT_GT(ext.records.size(), base.records.size());
  EXPECT_GT(ext.power_reduction_pct(), base.power_reduction_pct());
}

}  // namespace
}  // namespace opiso
