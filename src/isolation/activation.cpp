#include "isolation/activation.hpp"

#include <algorithm>

#include "boolfn/strash.hpp"
#include "netlist/traversal.hpp"
#include "obs/trace.hpp"

namespace opiso {

namespace {

bool is_comb_for_obs(CellKind kind) {
  switch (kind) {
    case CellKind::PrimaryInput:
    case CellKind::PrimaryOutput:
    case CellKind::Constant:
    case CellKind::Reg:
      return false;
    default:
      return true;
  }
}

}  // namespace

ExprRef predict_next_value(const Netlist& nl, ExprPool& pool, NetVarMap& vars, NetId net) {
  OPISO_REQUIRE(nl.net(net).width == 1, "predict_next_value: only 1-bit control nets");
  const Cell& drv = nl.cell(nl.net(net).driver);
  if (drv.kind == CellKind::Reg) {
    // Q(t+1) = EN(t) ? D(t) : Q(t); all three are current-cycle nets,
    // each a Boolean variable or folded to its constant driver.
    auto cur = [&](NetId n) -> ExprRef {
      const Cell& d = nl.cell(nl.net(n).driver);
      if (d.kind == CellKind::Constant) return (d.param & 1) ? pool.const1() : pool.const0();
      return pool.var(vars.var_of(nl, n));
    };
    return pool.ite(cur(drv.ins[1]), cur(drv.ins[0]), cur(net));
  }
  // A 1-bit cell with a Boolean function predicts through it (probed
  // with constant fanins, which fold). Primary inputs, latches and
  // datapath cells are unpredictable.
  const bool narrow = std::all_of(drv.ins.begin(), drv.ins.end(),
                                  [&](NetId in) { return nl.net(in).width == 1; });
  if (!narrow || !cell_function(pool, drv.kind, drv.param, [&](int) { return pool.const0(); })) {
    return ExprRef::invalid();
  }
  std::vector<ExprRef> ins;
  ins.reserve(drv.ins.size());
  for (NetId in : drv.ins) ins.push_back(predict_next_value(nl, pool, vars, in));
  if (!std::all_of(ins.begin(), ins.end(), [](ExprRef e) { return e.valid(); })) {
    return ExprRef::invalid();
  }
  return *cell_function(pool, drv.kind, drv.param,
                        [&](int p) { return ins[static_cast<std::size_t>(p)]; });
}

ActivationAnalysis derive_activation(const Netlist& nl, ExprPool& pool, NetVarMap& vars,
                                     const ActivationOptions& options) {
  OPISO_SPAN("activation.derive");
  ActivationAnalysis aa;
  aa.obs.assign(nl.num_nets(), pool.const0());

  auto add_obs = [&](NetId net, ExprRef cond) {
    aa.obs[net.value()] = pool.lor(aa.obs[net.value()], cond);
  };
  auto ctrl = [&](NetId net) { return pool.var(vars.var_of(nl, net)); };

  // With lookahead, f+_r needs the register's *own* observability —
  // derived with the plain f+_r = 1 cut first (one level of lookahead).
  std::vector<ExprRef> base_obs;
  if (options.register_lookahead) {
    base_obs = derive_activation(nl, pool, vars, ActivationOptions{}).obs;
  }

  // f+_r for a register: next-cycle observability of its output, OR the
  // possibility that the loaded value outlives cycle t+1 (not reloaded).
  auto f_plus = [&](const Cell& reg) -> ExprRef {
    if (!options.register_lookahead) return pool.const1();
    // Substitute every control variable v of obs_r with its predicted
    // next-cycle value; any unpredictable variable forces f+ = 1.
    ExprRef obs_next = base_obs[reg.out.value()];
    for (BoolVar v : pool.support(obs_next)) {
      const ExprRef predicted = predict_next_value(nl, pool, vars, vars.net_of(v));
      if (!predicted.valid()) return pool.const1();
      obs_next = pool.substitute(obs_next, v, predicted);
    }
    ExprRef en_next;
    const Cell& en_drv = nl.cell(nl.net(reg.ins[1]).driver);
    if (en_drv.kind == CellKind::Constant) {
      en_next = (en_drv.param & 1) ? pool.const1() : pool.const0();
    } else {
      en_next = predict_next_value(nl, pool, vars, reg.ins[1]);
      if (!en_next.valid()) return pool.const1();
    }
    return pool.lor(obs_next, pool.lnot(en_next));
  };

  // Seed from the sinks of every combinational block.
  for (CellId id : nl.cell_ids()) {
    const Cell& c = nl.cell(id);
    if (c.kind == CellKind::PrimaryOutput) {
      add_obs(c.ins[0], pool.const1());
    } else if (c.kind == CellKind::Reg) {
      // D is observed iff the register loads (G) and the loaded value is
      // used later — f+_r, constant 1 under the paper's default cut.
      NetId d = c.ins[0];
      NetId en = c.ins[1];
      const bool en_const = nl.cell(nl.net(en).driver).kind == CellKind::Constant;
      const ExprRef en_expr =
          en_const ? ((nl.cell(nl.net(en).driver).param & 1) ? pool.const1() : pool.const0())
                   : ctrl(en);
      add_obs(d, pool.land(en_expr, f_plus(c)));
      // The enable itself steers state and is always considered used.
      add_obs(en, pool.const1());
    }
  }

  // Propagate backward in reverse topological order: when cell c is
  // visited, every consumer of c.out has already contributed to obs(out).
  const std::vector<CellId> order = topological_order(nl);
  for (auto it = order.rbegin(); it != order.rend(); ++it) {
    const Cell& c = nl.cell(*it);
    if (!is_comb_for_obs(c.kind)) continue;
    const ExprRef out_obs = aa.obs[c.out.value()];
    switch (c.kind) {
      case CellKind::Mux2: {
        NetId s = c.ins[0];
        NetId a = c.ins[1];
        NetId b = c.ins[2];
        add_obs(s, out_obs);
        add_obs(a, pool.land(pool.lnot(ctrl(s)), out_obs));
        add_obs(b, pool.land(ctrl(s), out_obs));
        break;
      }
      case CellKind::And:
      case CellKind::Nand:
      case CellKind::Or:
      case CellKind::Nor: {
        // Side-input (controlling-value) refinement for pure control
        // logic; conservative propagation for word-level gates.
        const bool all_1bit =
            c.width == 1 && nl.net(c.ins[0]).width == 1 && nl.net(c.ins[1]).width == 1;
        if (all_1bit) {
          const bool and_like = (c.kind == CellKind::And || c.kind == CellKind::Nand);
          ExprRef s0 = ctrl(c.ins[0]);
          ExprRef s1 = ctrl(c.ins[1]);
          // AND/NAND: controlling value 0, so the side input must be 1
          // for a change to pass. OR/NOR: controlling value 1.
          add_obs(c.ins[0], pool.land(and_like ? s1 : pool.lnot(s1), out_obs));
          add_obs(c.ins[1], pool.land(and_like ? s0 : pool.lnot(s0), out_obs));
        } else {
          add_obs(c.ins[0], out_obs);
          add_obs(c.ins[1], out_obs);
        }
        break;
      }
      case CellKind::Latch: {
        add_obs(c.ins[0], pool.land(ctrl(c.ins[1]), out_obs));
        add_obs(c.ins[1], out_obs);
        break;
      }
      case CellKind::IsoAnd:
      case CellKind::IsoOr:
      case CellKind::IsoLatch: {
        add_obs(c.ins[0], pool.land(ctrl(c.ins[1]), out_obs));
        add_obs(c.ins[1], pool.const1());  // keep existing activation logic alive
        break;
      }
      default:
        // Arithmetic modules, comparators, shifts, XORs, buffers:
        // every input change can be observable whenever the output is.
        for (NetId in : c.ins) add_obs(in, out_obs);
        break;
    }
  }
  return aa;
}

std::string activation_to_string(const Netlist& nl, const ExprPool& pool, const NetVarMap& vars,
                                 ExprRef f) {
  return pool.to_string(f, [&](BoolVar v) { return nl.net(vars.net_of(v)).name; });
}

}  // namespace opiso
