#include "designs/designs.hpp"

namespace opiso {

// Parametric pipeline: `lanes` independent data lanes, each `stages`
// deep. Every stage of a lane computes mul/add/sub variants behind a
// mux steered by stage-local select inputs and captures into an enabled
// register, so every stage contributes isolation candidates with
// non-trivial activation functions. With cross_links, the adder chain
// inside a stage creates candidate→candidate edges (secondary savings).
Netlist make_parametric_datapath(const ParametricConfig& cfg) {
  OPISO_REQUIRE(cfg.lanes >= 1 && cfg.stages >= 1, "parametric: lanes/stages must be >= 1");
  OPISO_REQUIRE(cfg.width >= 2 && cfg.width <= 16, "parametric: width must be in [2,16]");
  Netlist nl("parametric_" + std::to_string(cfg.lanes) + "x" + std::to_string(cfg.stages));

  for (unsigned lane = 0; lane < cfg.lanes; ++lane) {
    const std::string L = 'l' + std::to_string(lane) + "_";
    NetId data_a = nl.add_input(L + "a", cfg.width);
    NetId data_b = nl.add_input(L + "b", cfg.width);

    for (unsigned stage = 0; stage < cfg.stages; ++stage) {
      const std::string S = L + "s" + std::to_string(stage) + "_";
      const NetId sel = nl.add_input(S + "sel", 1);
      const NetId en = nl.add_input(S + "en", 1);

      // Equal-width operands keep every stage's interface uniform.
      const NetId sum = nl.add_binop(CellKind::Add, S + "sum", data_a, data_b);
      const NetId dif = nl.add_binop(CellKind::Sub, S + "dif", data_a, data_b);
      NetId steered = nl.add_mux2(S + "mux", sel, sum, dif);
      if (cfg.cross_links) {
        // Chained adder: observability of `sum`/`dif` now also flows
        // through this candidate.
        steered = nl.add_binop(CellKind::Add, S + "acc", steered, data_b);
      }
      const NetId reg_a = nl.add_reg(S + "ra", steered, en);
      const NetId reg_b = nl.add_reg(S + "rb", data_a, en);
      data_a = reg_a;
      data_b = reg_b;
    }
    nl.add_output(L + "out", data_a);
  }
  nl.validate();
  return nl;
}

}  // namespace opiso
