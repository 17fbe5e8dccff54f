#pragma once
// Isolation-candidate identification — Sec. 4 / Algorithm 1 lines 2–11.
//
// Candidates are the "complex arithmetic operators for which operand
// isolation is expected to have a significant impact": by default
// adders, subtractors and multipliers of at least a minimum width.
// Candidates whose activation function is constant 1 (always observed)
// are excluded — isolating them can never save power. Candidates with a
// constant-0 activation are dead code and reported as such.

#include <vector>

#include "boolfn/expr.hpp"
#include "isolation/activation.hpp"
#include "netlist/netlist.hpp"
#include "netlist/traversal.hpp"

namespace opiso {

struct CandidateConfig {
  std::vector<CellKind> kinds = default_kinds();
  unsigned min_width = 2;

  [[nodiscard]] bool kind_matches(CellKind kind) const;
  /// Add, Sub and Mul. Out of line: GCC 12 reports the inlined copy of
  /// a braced default as -Wmaybe-uninitialized in every includer.
  [[nodiscard]] static std::vector<CellKind> default_kinds();
};

struct IsolationCandidate {
  CellId cell;
  int block = -1;            ///< combinational block index
  ExprRef activation;        ///< f_ci over NetVarMap control variables
  bool already_isolated = false;  ///< the paper's decision variable z
  NetId as_net;              ///< AS net if already isolated
};

/// Identify candidates on the current netlist using a completed
/// activation analysis. Includes already-isolated modules (marked with
/// z = 1) so the savings model can account for them.
[[nodiscard]] std::vector<IsolationCandidate> identify_candidates(
    const Netlist& nl, const std::vector<CombBlock>& blocks, const ActivationAnalysis& analysis,
    const ExprPool& pool, const CandidateConfig& config);

/// True if the module's data inputs are already fed through isolation
/// cells (inserted by a previous iteration).
[[nodiscard]] bool cell_is_isolated(const Netlist& nl, CellId cell);

/// AS net controlling an isolated module's banks (invalid if none).
[[nodiscard]] NetId isolated_as_net(const Netlist& nl, CellId cell);

}  // namespace opiso
