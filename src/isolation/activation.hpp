#pragma once
// Activation-function derivation — Sec. 3 of the paper.
//
// For every net we compute an *observability function* over existing
// 1-bit control signals: the condition under which a change at that net
// is observed at a register input or primary output in the current
// cycle. A module's activation function f is the observability of its
// output net; f = 0 identifies a redundant computation.
//
// Derivation is a single backward breadth-first pass per combinational
// block (O(|V|+|E|), as the paper states):
//   * primary-output pins contribute 1 (always observed),
//   * register D pins contribute the register's enable signal G —
//     the paper's f+_r = 1 cut that confines analysis to combinational
//     blocks and avoids FSM look-ahead across sequential elements,
//   * a 2:1 multiplexor propagates ¬S·obs(out) to A and S·obs(out) to B,
//   * 1-bit generic gates are treated as degenerated multiplexors: a
//     change at one input of an AND is observable iff the other input is
//     at its non-controlling value (side-input refinement); word-level
//     gates propagate obs(out) conservatively,
//   * transparent latches propagate EN·obs(out) to D,
//   * isolation cells propagate AS·obs(out) to D (an already-inserted
//     bank blocks observability exactly when AS = 0),
//   * everything else (arith modules, comparators, shifts) propagates
//     obs(out) to every input.
//
// Control variables are allocated in a NetVarMap shared with the
// simulator's Expr probes, so every derived function can be both
// evaluated per cycle (measured probabilities) and synthesized to gates.

#include <vector>

#include "boolfn/expr.hpp"
#include "netlist/netlist.hpp"
#include "sim/activity.hpp"

namespace opiso {

struct ActivationAnalysis {
  /// Observability function per net (indexed by NetId value).
  std::vector<ExprRef> obs;

  /// Activation function of a cell = observability of its output net.
  [[nodiscard]] ExprRef activation_of(const Netlist& nl, CellId cell) const {
    return obs[nl.cell(cell).out.value()];
  }
};

struct ActivationOptions {
  /// Sec. 3 discusses pre-computing next-cycle control values by "a
  /// structural analysis of the fanin" before settling on the f+_r = 1
  /// cut. With lookahead enabled we implement that alternative: for a
  /// register r, f+_r = obs_r(t+1) ∨ ¬EN_r(t+1), where next-cycle
  /// values of control signals are predicted structurally (a registered
  /// signal's next value is EN ? D : Q over *current* nets; values
  /// behind primary inputs are unpredictable and force the conservative
  /// f+_r = 1). The disjunct ¬EN_r(t+1) keeps the cut sound: a value
  /// whose lifetime extends past t+1 might still be observed later.
  bool register_lookahead = false;
};

/// Derive observability functions for all nets. `pool` and `vars` must
/// outlive the uses of the returned expressions.
[[nodiscard]] ActivationAnalysis derive_activation(const Netlist& nl, ExprPool& pool,
                                                   NetVarMap& vars,
                                                   const ActivationOptions& options = {});

/// Structurally predict the value a 1-bit net will carry in the *next*
/// cycle as a function of current-cycle nets. Returns an invalid
/// ExprRef when the value is unpredictable (depends on a primary input,
/// a latch or a cell without a 1-bit cell_function() through
/// combinational logic).
[[nodiscard]] ExprRef predict_next_value(const Netlist& nl, ExprPool& pool, NetVarMap& vars,
                                         NetId net);

/// Render an activation function with net names as variable names.
[[nodiscard]] std::string activation_to_string(const Netlist& nl, const ExprPool& pool,
                                               const NetVarMap& vars, ExprRef f);

}  // namespace opiso
