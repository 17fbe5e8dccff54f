#include "designs/designs.hpp"

namespace opiso {

// design2: FSM-sequenced MAC datapath — the control-dominated case of
// Sec. 1 where "arithmetic operations are used only in a few states".
// A start-gated 3-bit state counter decodes eight phases; each lane's
// multiplier and accumulator adder contribute only in phases 1–2 and
// the output subtractor only in phase 6, so every arithmetic module
// idles for multi-cycle stretches (the regime where combinational
// isolation styles pay off, Sec. 5.2). The activation statistics are
// produced inside the design and cannot be controlled from the
// testbench (paper Sec. 6).
Netlist make_design2(unsigned width, unsigned lanes) {
  OPISO_REQUIRE(lanes >= 1, "design2 needs at least one lane");
  Netlist nl("design2");
  const NetId start = nl.add_input("start", 1);
  const NetId one = nl.add_const("const1", 1, 1);

  // --- 3-bit state counter st2:st1:st0 cycling 0..7 while start is
  // high: st0' = st0^start, st1' = st1^(st0·start), st2' = st2^(st1·st0·start).
  // The feedback loops are built by creating the registers on
  // placeholder D nets and patching them once the next-state logic
  // exists (registers legally break the cycles).
  const NetId dummy0 = nl.add_const("dummy0", 0, 1);
  const NetId st0 = nl.add_reg("st0", dummy0, one);
  const NetId st1 = nl.add_reg("st1", dummy0, one);
  const NetId st2 = nl.add_reg("st2", dummy0, one);
  const NetId adv0 = nl.add_binop(CellKind::And, "adv0", st0, start);
  const NetId adv1 = nl.add_binop(CellKind::And, "adv1", st1, adv0);
  const NetId nx0 = nl.add_binop(CellKind::Xor, "nx0", st0, start);
  const NetId nx1 = nl.add_binop(CellKind::Xor, "nx1", st1, adv0);
  const NetId nx2 = nl.add_binop(CellKind::Xor, "nx2", st2, adv1);
  nl.reconnect_input(nl.net(st0).driver, 0, nx0);
  nl.reconnect_input(nl.net(st1).driver, 0, nx1);
  nl.reconnect_input(nl.net(st2).driver, 0, nx2);

  // Phase decode (1-bit control nets the activation functions will tap):
  //   ph1 (001) and ph2 (010) accumulate; ph_wr = phase 6 (110) writes
  //   the corrected result out.
  const NetId n_st0 = nl.add_unop(CellKind::Not, "n_st0", st0);
  const NetId n_st1 = nl.add_unop(CellKind::Not, "n_st1", st1);
  const NetId n_st2 = nl.add_unop(CellKind::Not, "n_st2", st2);
  const NetId lo01 = nl.add_binop(CellKind::And, "lo01", n_st1, st0);   // x01
  const NetId lo10 = nl.add_binop(CellKind::And, "lo10", st1, n_st0);   // x10
  const NetId ph1 = nl.add_binop(CellKind::And, "ph1", n_st2, lo01);    // 001
  const NetId ph2 = nl.add_binop(CellKind::And, "ph2", n_st2, lo10);    // 010
  const NetId ph_wr = nl.add_binop(CellKind::And, "ph_wr", st2, lo10);  // 110
  const NetId en_acc = nl.add_binop(CellKind::Or, "en_acc", ph1, ph2);

  for (unsigned lane = 0; lane < lanes; ++lane) {
    const std::string L = 'l' + std::to_string(lane) + "_";
    const NetId a_in = nl.add_input(L + "a", width);
    const NetId b_in = nl.add_input(L + "b", width);

    // MAC: acc' = acc + a*b, accumulating during phases 1-2 only. The
    // acc register is created with a placeholder D and patched after
    // the adder exists (the register breaks the combinational cycle).
    const NetId mul = nl.add_binop(CellKind::Mul, L + "mul", a_in, b_in);  // 2w
    const NetId acc_dummy = nl.add_const(L + "acc_d0", 0, 2 * width);
    const NetId acc = nl.add_reg(L + "acc", acc_dummy, en_acc);
    const NetId sum = nl.add_binop(CellKind::Add, L + "sum", acc, mul);  // 2w
    nl.reconnect_input(nl.net(acc).driver, 0, sum);

    // Output stage: in the write-back phase a corrected value (acc - b)
    // is captured, otherwise the raw accumulator passes through.
    const NetId sub = nl.add_binop(CellKind::Sub, L + "sub", acc, b_in);  // 2w
    const NetId omux = nl.add_mux2(L + "omux", ph_wr, acc, sub);
    const NetId oreg = nl.add_reg(L + "oreg", omux, ph_wr);
    nl.add_output(L + "out", oreg);
  }
  nl.validate();
  return nl;
}

}  // namespace opiso
