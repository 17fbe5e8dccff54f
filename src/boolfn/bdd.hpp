#pragma once
// Reduced Ordered Binary Decision Diagrams.
//
// BDDs give the canonical view of the structurally derived activation
// functions: tautology detection (f ≡ 1 ⇒ the module is never redundant
// and must not be isolated), constant-0 detection, equivalence checks in
// tests, and don't-care-free simplification (bdd_to_expr re-synthesizes
// a compact factored form via Shannon decomposition). Probabilities used
// by the savings model are *measured* in simulation, but the
// independence-based probability here is useful for sanity checks and
// as the stimulus-design tool for the activation-statistics sweep.
//
// Classic implementation: node arena with a unique table, ITE with a
// computed cache, variable order = ascending BoolVar index. Both tables
// are flat open-addressing arrays: a node-per-entry hash map made the
// equivalence checker's large managers spend about a fifth of a proof
// freeing entries.

#include <cstdint>
#include <functional>
#include <vector>

#include "boolfn/expr.hpp"
#include "support/strong_id.hpp"
#include "util/error.hpp"

namespace opiso {

struct BddTag;
using BddRef = StrongId<BddTag>;

/// Resource budget for a BddManager. Zero means unlimited. Exceeding a
/// budget throws ResourceError (codes resource.bdd-nodes /
/// resource.ite-cache); the manager stays consistent, so callers can
/// catch and degrade to the structural expression path (the classic
/// answer to BDD blow-up on activation-function derivation).
struct BddBudget {
  std::size_t max_nodes = 0;      ///< unique-table node cap (incl. terminals)
  std::size_t max_ite_cache = 0;  ///< computed-cache entry cap
};

class BddManager {
 public:
  explicit BddManager(BddBudget budget = {});
  /// Flushes the accumulated work counters into the global metrics
  /// registry (obs) — per-manager stats stay cheap plain members so the
  /// unique-table/ITE hot paths never touch shared state.
  ~BddManager();

  /// Work counters of this manager (unique-table and ITE-cache hit
  /// rates are the classic health indicators of a BDD workload).
  struct Stats {
    std::uint64_t unique_hits = 0;    ///< make_node found an existing node
    std::uint64_t unique_misses = 0;  ///< make_node allocated a new node
    std::uint64_t ite_calls = 0;      ///< non-terminal ITE invocations
    std::uint64_t ite_cache_hits = 0;
  };
  [[nodiscard]] const Stats& stats() const { return stats_; }
  [[nodiscard]] const BddBudget& budget() const { return budget_; }

  [[nodiscard]] BddRef zero() const { return zero_; }
  [[nodiscard]] BddRef one() const { return one_; }
  [[nodiscard]] BddRef var(BoolVar v);
  [[nodiscard]] BddRef nvar(BoolVar v);

  [[nodiscard]] BddRef bnot(BddRef f);
  [[nodiscard]] BddRef band(BddRef f, BddRef g);
  [[nodiscard]] BddRef bor(BddRef f, BddRef g);
  [[nodiscard]] BddRef bxor(BddRef f, BddRef g);
  [[nodiscard]] BddRef ite(BddRef f, BddRef g, BddRef h);

  /// Cofactor with respect to v = value.
  [[nodiscard]] BddRef restrict_var(BddRef f, BoolVar v, bool value);

  /// Coudert–Madre restrict: returns g with g∧care = f∧care, using the
  /// don't-care space ¬care to (heuristically) shrink the BDD. Used for
  /// reachability-don't-care minimization of activation logic.
  [[nodiscard]] BddRef restrict_to_care(BddRef f, BddRef care);

  [[nodiscard]] bool is_zero(BddRef f) const { return f == zero_; }
  [[nodiscard]] bool is_one(BddRef f) const { return f == one_; }
  /// Canonical, so equivalence is pointer equality.
  [[nodiscard]] bool equal(BddRef f, BddRef g) const { return f == g; }
  [[nodiscard]] bool implies(BddRef f, BddRef g);

  [[nodiscard]] bool eval(BddRef f, const std::function<bool(BoolVar)>& value) const;

  /// Pr[f = 1] assuming independent variables with Pr[v = 1] = p(v).
  [[nodiscard]] double probability(BddRef f, const std::function<double(BoolVar)>& p);

  [[nodiscard]] std::vector<BoolVar> support(BddRef f) const;
  [[nodiscard]] std::size_t num_nodes() const { return nodes_.size(); }

  /// Build a BDD from an expression.
  [[nodiscard]] BddRef from_expr(const ExprPool& pool, ExprRef e);

  /// Re-synthesize an expression (factored form via Shannon expansion
  /// with memoization). Result is logically equivalent to f.
  [[nodiscard]] ExprRef to_expr(ExprPool& pool, BddRef f);

  /// Canonical simplification: BDD round trip, keeping whichever of the
  /// original and the re-synthesized factored form has fewer literals.
  /// This is the "optimized version" of the activation logic Sec. 3
  /// alludes to — structural derivation can accumulate redundant terms
  /// that the canonical form collapses.
  [[nodiscard]] ExprRef simplify_expr(ExprPool& pool, ExprRef e);

 private:
  struct Node {
    BoolVar var;
    BddRef low;   ///< cofactor var = 0
    BddRef high;  ///< cofactor var = 1
  };

  BddRef make_node(BoolVar var, BddRef low, BddRef high);
  [[nodiscard]] BoolVar top_var(BddRef f, BddRef g, BddRef h) const;
  [[nodiscard]] BddRef cofactor(BddRef f, BoolVar v, bool value) const;

  static constexpr BoolVar kTermVar = 0xFFFFFFFFu;

  /// Grow-only open-addressing map from three 32-bit words to a BddRef:
  /// one flat slot array with linear probing, so lookups touch one cache
  /// line and tearing a large manager down is a single free. Serves as
  /// the unique table (var, low, high) and the ITE cache (f, g, h); in
  /// both, the first word of a real key is never kFree.
  class TripleTable {
   public:
    /// The value stored under (a, b, c), or BddRef::invalid().
    [[nodiscard]] BddRef find(std::uint32_t a, std::uint32_t b, std::uint32_t c) const;
    /// Store (a, b, c) -> v; the key must be absent.
    void insert(std::uint32_t a, std::uint32_t b, std::uint32_t c, BddRef v);
    [[nodiscard]] std::size_t size() const { return size_; }

   private:
    static constexpr std::uint32_t kFree = 0xFFFFFFFFu;
    struct Slot {
      std::uint32_t a = kFree, b = 0, c = 0, v = 0;
    };
    [[nodiscard]] std::size_t home(std::uint32_t a, std::uint32_t b, std::uint32_t c) const;

    std::vector<Slot> slots_;
    std::size_t size_ = 0;
  };

  Stats stats_;
  BddBudget budget_;
  std::vector<Node> nodes_;
  TripleTable unique_;
  TripleTable ite_cache_;
  BddRef zero_;
  BddRef one_;
};

}  // namespace opiso
