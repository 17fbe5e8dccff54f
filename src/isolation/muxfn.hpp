#pragma once
// Multiplexing functions g^k_{i,A} — Sec. 4.1.
//
// The fanin logic network L_A(c_i) feeding input A of an isolation
// candidate connects different *fanin candidates* to A depending on the
// configuration of its multiplexors. For each fanin candidate c_k,
// g^k_{i,A}(x) evaluates to 1 iff L_A(c_i) is configured such that c_k's
// output reaches A (e.g. g^{a0}_{a1,A} = S1·!S0 in Fig. 1). The same
// traversal, run forward, yields the fanout candidates C+ of a module
// and their connection conditions — the inputs to the secondary-savings
// model (Sec. 4.3).
//
// Traversal rules mirror the observability rules: mux select polarity
// multiplies the path condition; transparent latches and isolation cells
// multiply their enable; other combinational cells pass the condition
// through unchanged. Conditions of parallel paths OR together.

#include <cstdint>
#include <functional>
#include <vector>

#include "boolfn/expr.hpp"
#include "netlist/netlist.hpp"
#include "sim/activity.hpp"

namespace opiso {

/// One candidate reachable through a combinational steering network,
/// together with the condition under which it is connected.
struct ConnectedCandidate {
  CellId candidate;
  ExprRef condition;
};

/// Fanin analysis of one candidate input pin.
struct FaninNetwork {
  std::vector<ConnectedCandidate> candidates;  ///< C^-_A with g^k_{i,A}
  /// True if a register, primary input or constant can also reach the
  /// pin — toggles then arrive even when every fanin candidate is idle.
  bool has_noncandidate_source = false;
};

/// One fanout candidate reached from a module's output.
struct FanoutConnection {
  CellId candidate;  ///< the fanout candidate c_j
  int port;          ///< which input of c_j the path reaches
  ExprRef condition; ///< connection condition g
};

/// Predicate: is this cell an isolation candidate? (Supplied by the
/// candidate identification so the traversal stops at the right cells.)
using CandidatePredicate = std::function<bool(CellId)>;

/// Shared state of the steering walks over one netlist snapshot: the
/// topological position of every cell, computed once, and per-net /
/// per-cell scratch arrays the walks reuse. Each walk resets only the
/// entries it touched, so a derive_* call costs the size of its cone,
/// not of the netlist. The netlist must outlive the index and must not
/// change while it is in use.
class SteeringIndex {
 public:
  explicit SteeringIndex(const Netlist& nl);

  /// Cells examined by all walks so far: the drivers of each fanin
  /// cone's nets plus the cells each fanout frontier reached. Grows with
  /// the cones walked, never with the netlist size alone.
  [[nodiscard]] std::size_t cells_visited() const { return cells_visited_; }

 private:
  friend FaninNetwork derive_fanin_network(SteeringIndex&, ExprPool&, NetVarMap&, CellId, int,
                                           const CandidatePredicate&);
  friend std::vector<FanoutConnection> derive_fanout_candidates(SteeringIndex&, ExprPool&,
                                                                NetVarMap&, CellId,
                                                                const CandidatePredicate&);

  const Netlist& nl_;
  std::vector<std::uint32_t> pos_;  ///< cell -> topological position
  std::vector<ExprRef> cond_;       ///< net -> path condition (invalid = unreached)
  std::vector<char> net_seen_;      ///< net -> collected into the fanin cone
  std::vector<char> cell_queued_;   ///< cell -> on the fanout frontier
  std::size_t cells_visited_ = 0;
};

/// Derive the fanin network of input pin `port` of `cell`.
[[nodiscard]] FaninNetwork derive_fanin_network(SteeringIndex& index, ExprPool& pool,
                                                NetVarMap& vars, CellId cell, int port,
                                                const CandidatePredicate& is_candidate);

/// Derive the fanout candidates C+ of `cell` with connection conditions
/// and, per fanout candidate, the input port of that candidate reached.
[[nodiscard]] std::vector<FanoutConnection> derive_fanout_candidates(
    SteeringIndex& index, ExprPool& pool, NetVarMap& vars, CellId cell,
    const CandidatePredicate& is_candidate);

}  // namespace opiso
