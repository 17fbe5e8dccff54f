#pragma once
// The one Boolean grounding engine, shared by lint's soundness and
// dead-logic proofs and the isolation equivalence checker (verify/).
// A question is first reduced to one literal of a structurally hashed
// AND/XOR graph with complemented edges (Strash): equal cones hash to
// one node, so x ∧ ¬x or x ⊕ x folds to constant 0 with no BDD work.
// Only the literals that stay open get BDDs, built on demand per
// literal (LazyBdd) in a variable order the caller chooses.
// cell_function() is the one map from cell kinds to Boolean functions,
// shared by strash literals and ExprPool expressions.

#include <cstdint>
#include <functional>
#include <optional>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "boolfn/bdd.hpp"
#include "boolfn/expr.hpp"
#include "netlist/netlist.hpp"

namespace opiso {

/// Maps 1-bit nets to Boolean variables (shared by activation derivation,
/// probes, activation-logic synthesis and net grounding). Variables are
/// allocated on first use; the mapping is stable for the lifetime of the
/// object.
class NetVarMap {
 public:
  /// Variable for a (1-bit) net; allocates on first use.
  BoolVar var_of(const Netlist& nl, NetId net);
  /// Net of an allocated variable.
  [[nodiscard]] NetId net_of(BoolVar v) const;
  [[nodiscard]] std::size_t num_vars() const { return nets_.size(); }

 private:
  static constexpr BoolVar kNoVar = 0xFFFFFFFFu;
  std::vector<NetId> nets_;          ///< var -> net
  std::vector<BoolVar> var_by_net_;  ///< net.value() -> var (kNoVar = none)
};

/// Node index * 2 + complement bit. Node 0 is the constant 0.
using Lit = std::uint32_t;
inline constexpr Lit kLitZero = 0;
inline constexpr Lit kLitOne = 1;
inline constexpr Lit kNoLit = 0xFFFFFFFFu;  ///< no literal (yet)

/// Structurally hashed AND/XOR graph with complemented edges. Nodes are
/// created after their fanins, so node order is a topological order.
class Strash {
 public:
  enum class Op : std::uint8_t { Const, Var, And, Xor };
  struct Node {
    Op op;
    Lit a;  ///< first fanin; the variable's index for Op::Var
    Lit b;
  };

  Strash() { nodes_.push_back({Op::Const, 0, 0}); }

  /// The variable called `name`, created on first use.
  Lit var(const std::string& name);

  Lit land(Lit a, Lit b) {
    if (a > b) std::swap(a, b);
    if (a == kLitZero || (a ^ 1) == b) return kLitZero;
    if (a == kLitOne) return b;
    if (a == b) return a;
    return hashed(Op::And, a, b);
  }
  Lit lor(Lit a, Lit b) { return land(a ^ 1, b ^ 1) ^ 1; }
  static Lit lnot(Lit a) { return a ^ 1; }
  static Lit const0() { return kLitZero; }
  static Lit const1() { return kLitOne; }
  Lit lxor(Lit a, Lit b) {
    const Lit neg = (a ^ b) & 1;
    a &= ~Lit{1};
    b &= ~Lit{1};
    if (a > b) std::swap(a, b);
    if (a == b) return neg;
    if (a == kLitZero) return b ^ neg;
    return hashed(Op::Xor, a, b) ^ neg;
  }
  /// s ? t : e
  Lit ite(Lit s, Lit t, Lit e) {
    if (t == e) return t;
    return lor(land(s, t), land(s ^ 1, e));
  }

  [[nodiscard]] const std::vector<Node>& nodes() const { return nodes_; }
  /// Variable names, by variable index.
  [[nodiscard]] const std::vector<std::string>& vars() const { return vars_; }

 private:
  Lit node(Op op, Lit a, Lit b) {
    nodes_.push_back({op, a, b});
    return static_cast<Lit>((nodes_.size() - 1) * 2);
  }
  Lit hashed(Op op, Lit a, Lit b);

  std::vector<Node> nodes_;
  std::vector<std::string> vars_;
  std::unordered_map<std::string, Lit> vars_by_name_;
  std::unordered_map<std::uint64_t, Lit> table_;
};

/// The Boolean function of a combinational cell whose nets are all 1
/// bit wide: the gates, Mux2 and Constant, plus Eq/Lt/Add/Sub/IsoAnd/
/// IsoOr read at width 1 (1-bit modular add/sub are XOR). `alg` is any
/// Boolean algebra with const0/const1/lnot/land/lor/lxor/ite (Strash
/// literals, ExprPool expressions); `in(p)` yields input port p's value
/// in it. Every other kind (boundary, state, Mul, shifts) has no
/// function: nullopt, and `in` is not called. With constant fanins the
/// result folds without adding a node.
template <class Alg, class In>
[[nodiscard]] auto cell_function(Alg& alg, CellKind kind, std::uint64_t param, In&& in)
    -> std::optional<decltype(alg.const0())> {
  switch (kind) {
    case CellKind::Constant: return (param & 1) != 0 ? alg.const1() : alg.const0();
    case CellKind::Buf: return in(0);
    case CellKind::Not: return alg.lnot(in(0));
    case CellKind::And:
    case CellKind::IsoAnd: return alg.land(in(0), in(1));
    case CellKind::Or: return alg.lor(in(0), in(1));
    case CellKind::IsoOr: return alg.lor(in(0), alg.lnot(in(1)));
    case CellKind::Xor:
    case CellKind::Add:
    case CellKind::Sub: return alg.lxor(in(0), in(1));
    case CellKind::Nand: return alg.lnot(alg.land(in(0), in(1)));
    case CellKind::Nor: return alg.lnot(alg.lor(in(0), in(1)));
    case CellKind::Xnor:
    case CellKind::Eq: return alg.lnot(alg.lxor(in(0), in(1)));
    case CellKind::Lt: return alg.land(alg.lnot(in(0)), in(1));
    case CellKind::Mux2: return alg.ite(in(0), in(2), in(1));
    default: return std::nullopt;
  }
}

/// BDDs of strash literals, built on demand and memoized per literal.
/// `level[i]` is the BDD variable of strash variable i; it must cover
/// every variable of `s`, which must not grow afterwards. The package has
/// no complement edges, so a complemented And literal is built by De
/// Morgan from its fanins' opposite literals (the OR gates of lowered
/// adders and muxes then cost no negation); an Xor copies its second
/// fanin once through bnot, unless both fanins are equal.
class LazyBdd {
 public:
  LazyBdd(const Strash& s, std::vector<BoolVar> level, const BddBudget& budget);

  /// Throws ResourceError when the budget runs out.
  BddRef of(Lit root);
  [[nodiscard]] BddManager& mgr() { return mgr_; }

 private:
  const Strash& s_;
  BddManager mgr_;
  std::vector<BddRef> memo_;
  std::vector<BoolVar> level_;
};

/// One satisfying assignment of f over its support, rendered as
/// "sel=0, en1=1" with `name` naming each BDD variable: in ascending
/// variable order, each variable is 1 unless that makes f unsatisfiable.
/// Variables outside the support are free. At most `max_vars` are
/// printed (then ", ..."); "any assignment" when f is constant 1.
[[nodiscard]] std::string render_counterexample(BddManager& mgr, BddRef f,
                                                const std::function<std::string(BoolVar)>& name,
                                                std::size_t max_vars = 6);

/// Grounds the 1-bit nets of a word-level netlist, and expressions over
/// their NetVarMap variables, to strash literals. A net whose driver has
/// a cell_function() and only 1-bit nets is expanded through it; every
/// other net is a leaf with its NetVarMap variable: primary inputs,
/// register, latch and isolation-latch outputs, and nets of wide cells.
/// Leaves are allocated depth-first from each queried root, last fanin
/// first. BDDs are ordered, and counterexamples named, by NetVarMap
/// index; ground every query before asking is_zero or counterexample.
class NetStrash {
 public:
  NetStrash(const Netlist& nl, const ExprPool& pool, NetVarMap& vars, const BddBudget& budget);

  [[nodiscard]] Strash& strash() { return s_; }
  Lit of_net(NetId net);
  /// Var v grounds to of_net(vars.net_of(v)).
  Lit of_expr(ExprRef e);

  /// True iff `lit` is constant 0: by strash alone when it folded to a
  /// constant, else by its BDD. Throws ResourceError past the budget.
  bool is_zero(Lit lit);
  /// One assignment satisfying `lit`, named by net.
  std::string counterexample(Lit lit);

 private:
  [[nodiscard]] bool expandable(const Cell& c);
  LazyBdd& bdd();

  const Netlist& nl_;
  const ExprPool& pool_;
  NetVarMap& vars_;
  BddBudget budget_;
  Strash s_;
  std::vector<BoolVar> level_;  ///< strash variable -> NetVarMap variable
  std::vector<Lit> net_lit_;    ///< per net; kNoLit until grounded
  std::vector<Lit> expr_lit_;   ///< per expression node; kNoLit until grounded
  std::optional<LazyBdd> bdd_;
};

}  // namespace opiso
