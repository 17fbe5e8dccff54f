#pragma once
// Formal equivalence checking of the isolation transform.
//
// The paper notes that latch insertion complicates verification
// (Sec. 5.2); this module *proves* the transform safe instead of only
// simulating it. Both designs are lowered to gates and strashed into
// one structurally hashed AND/XOR graph over a shared variable set
// (primary-input bits and register output bits, matched by name — the
// transform never renames either). The graph, its lazily built BDDs and
// the cell-kind semantics come from boolfn/strash.hpp, the grounding
// engine lint's soundness and dead-logic proofs use too.
//
// Obligations (induction over cycles, equal reset states):
//   * every register pair loads under identical enables,
//   * whenever the enable holds, both load identical values,
//   * registers that do not load hold equal previous values,
//   * all primary outputs are identical functions of (PIs, state).
// Together these imply cycle-by-cycle equality of all observed outputs.
// An obligation whose two sides hash to the same graph node is
// discharged structurally; only the rest get BDDs, built lazily over
// their cones in interleaved bit order (bit 0 of every word, then bit 1,
// ...), which keeps adder outputs linear in the width.
//
// Cut points at isolation banks. A module M of the transformed design B
// is *isolated* when every data pin of M is driven by an IsoAnd / IsoOr
// / IsoLatch bank on one activation net AS, the banks are absent from
// the original design A, and A has the same module (same output net
// name, kind, parameter and widths). For each such M, in B's
// topological order, the checker
//   * replaces M's output in A by a fresh vector v,
//   * replaces M's output in B by ite(AS, v, w) with a second fresh w,
//   * discharges the lemma AS ∧ (operand_A ⊕ bankD_B) = 0 per pin.
// Soundness: fix any PI/state values and choose v = M's real output in
// A and w = M's real output in B, for every cut. Every net of A then
// carries its real value. Walk B's cuts in topological order: AS and
// bankD_B lie upstream of M, so they already carry their real values,
// and the lemma says AS ⇒ operand_A = bankD_B. Every bank style is
// transparent while AS = 1, so B's M then computes M(bankD_B) =
// M(operand_A) = v; while AS = 0, B's output is w by choice. Hence
// every real behaviour of A and B is an instance of the cut model, and
// obligations (and lemmas) proven for all v, w hold for the real
// designs. No latch semantics are needed, which is what makes the LAT
// style provable; an IsoLatch bank outside any cut is a free variable
// per design, which is sound for the same reason.
//
// The cut model over-approximates, so a failed cut pass proves nothing.
// The checker then reruns the same engine with no cuts: the exact
// monolithic proof, and the only path that answers NotEquivalent, with
// a counterexample drawn from the failing obligation's BDD. The
// exact pass needs latch-free designs, so a latch-bearing pair whose cut
// pass fails — and any design with a plain (non-isolation) Latch — is
// answered Unknown, with the reason.

#include <string>
#include <vector>

#include "boolfn/bdd.hpp"
#include "netlist/netlist.hpp"

namespace opiso {

struct EquivResult {
  enum class Verdict { Equivalent, NotEquivalent, Unknown };
  Verdict verdict = Verdict::Unknown;
  bool equivalent = false;  ///< verdict == Verdict::Equivalent
  /// First failing obligation (NotEquivalent), or why the checker could
  /// not decide (Unknown).
  std::string reason;
  /// NotEquivalent only: a primary-input / register-bit assignment under
  /// which the failing obligation fails, as "a.0=1, r.3=0" over lowered
  /// bit names (render_counterexample, boolfn/strash.hpp). Unnamed bits
  /// are free. Empty for every other verdict.
  std::string counterexample;
  std::size_t obligations_checked = 0;
  std::size_t bdd_nodes = 0;  ///< manager size of the deciding pass
  std::size_t cut_points = 0; ///< isolated modules cut in the deciding pass
  /// Why the cut-point pass did not decide, when the exact pass had to
  /// (empty when the first pass decided).
  std::string fallback_reason;
};

/// Prove that `transformed` is observationally equivalent to `original`
/// (same PO streams for every input stream from the all-zero state).
/// Widths must keep bit-level BDDs of the parts that differ tractable
/// (array multipliers beyond ~8x8 explode by nature; cut points keep
/// isolated ones out of the proof).
[[nodiscard]] EquivResult check_isolation_equivalence(const Netlist& original,
                                                      const Netlist& transformed);

/// Budgeted variant: the internal BddManager is built with `budget`, so
/// a blow-up of the exact pass throws ResourceError (resource.bdd-nodes)
/// instead of running away — callers degrade the same way the
/// activation-function derivation does (catch and fall back to the
/// conservative answer). A blow-up of the cut pass only triggers the
/// exact pass.
[[nodiscard]] EquivResult check_isolation_equivalence(const Netlist& original,
                                                      const Netlist& transformed,
                                                      const BddBudget& budget);

/// The two passes check_isolation_equivalence() chains, one at a time,
/// for differential tests. CutPoints answers Equivalent or Unknown, never
/// NotEquivalent; Exact answers Unknown for latch-bearing designs. Both
/// throw ResourceError when `budget` is exhausted.
enum class EquivPass { CutPoints, Exact };
[[nodiscard]] EquivResult run_equivalence_pass(const Netlist& original,
                                               const Netlist& transformed,
                                               const BddBudget& budget, EquivPass pass);

}  // namespace opiso
