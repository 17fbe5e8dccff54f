#include "boolfn/expr.hpp"

#include <algorithm>
#include <unordered_set>

namespace opiso {

ExprPool::ExprPool() {
  const0_ = intern(ExprOp::Const0, 0, ExprRef::invalid(), ExprRef::invalid());
  const1_ = intern(ExprOp::Const1, 0, ExprRef::invalid(), ExprRef::invalid());
}

ExprRef ExprPool::intern(ExprOp op, BoolVar var, ExprRef a, ExprRef b) {
  Key key{op, var, a.valid() ? a.value() : ExprRef::kInvalid,
          b.valid() ? b.value() : ExprRef::kInvalid};
  if (auto it = unique_.find(key); it != unique_.end()) return it->second;
  ExprRef ref{static_cast<std::uint32_t>(nodes_.size())};
  nodes_.push_back(ExprNode{op, var, a, b});
  unique_.emplace(key, ref);
  return ref;
}

const ExprNode& ExprPool::node(ExprRef r) const {
  OPISO_REQUIRE(r.valid() && r.value() < nodes_.size(), "invalid ExprRef");
  return nodes_[r.value()];
}

ExprRef ExprPool::var(BoolVar v) { return intern(ExprOp::Var, v, ExprRef::invalid(), ExprRef::invalid()); }

ExprRef ExprPool::lnot(ExprRef a) {
  if (a == const0_) return const1_;
  if (a == const1_) return const0_;
  const ExprNode& n = node(a);
  if (n.op == ExprOp::Not) return n.a;  // double negation
  return intern(ExprOp::Not, 0, a, ExprRef::invalid());
}

ExprRef ExprPool::land(ExprRef a, ExprRef b) {
  if (a == const0_ || b == const0_) return const0_;
  if (a == const1_) return b;
  if (b == const1_) return a;
  if (a == b) return a;
  if (lnot(a) == b) return const0_;
  // Canonical operand order keeps the DAG maximally shared.
  if (b < a) std::swap(a, b);
  return intern(ExprOp::And, 0, a, b);
}

ExprRef ExprPool::lor(ExprRef a, ExprRef b) {
  if (a == const1_ || b == const1_) return const1_;
  if (a == const0_) return b;
  if (b == const0_) return a;
  if (a == b) return a;
  if (lnot(a) == b) return const1_;
  if (b < a) std::swap(a, b);
  return intern(ExprOp::Or, 0, a, b);
}

ExprRef ExprPool::ite(ExprRef a, ExprRef b, ExprRef c) {
  return lor(land(a, b), land(lnot(a), c));
}

bool ExprPool::eval(ExprRef r, const std::function<bool(BoolVar)>& value) const {
  const ExprNode& n = node(r);
  switch (n.op) {
    case ExprOp::Const0:
      return false;
    case ExprOp::Const1:
      return true;
    case ExprOp::Var:
      return value(n.var);
    case ExprOp::Not:
      return !eval(n.a, value);
    case ExprOp::And:
      return eval(n.a, value) && eval(n.b, value);
    case ExprOp::Or:
      return eval(n.a, value) || eval(n.b, value);
  }
  throw Error("ExprPool::eval: corrupt node");
}

std::vector<BoolVar> ExprPool::support(ExprRef r) const {
  std::unordered_set<std::uint32_t> seen;
  std::vector<BoolVar> vars;
  std::vector<ExprRef> stack{r};
  while (!stack.empty()) {
    ExprRef cur = stack.back();
    stack.pop_back();
    if (!seen.insert(cur.value()).second) continue;
    const ExprNode& n = node(cur);
    if (n.op == ExprOp::Var) vars.push_back(n.var);
    if (n.a.valid()) stack.push_back(n.a);
    if (n.b.valid()) stack.push_back(n.b);
  }
  std::sort(vars.begin(), vars.end());
  vars.erase(std::unique(vars.begin(), vars.end()), vars.end());
  return vars;
}

std::size_t ExprPool::literal_count(ExprRef r) const {
  std::unordered_set<std::uint32_t> seen;
  std::size_t lits = 0;
  std::vector<ExprRef> stack{r};
  while (!stack.empty()) {
    ExprRef cur = stack.back();
    stack.pop_back();
    if (!seen.insert(cur.value()).second) continue;
    const ExprNode& n = node(cur);
    if (n.op == ExprOp::Var) ++lits;
    // A negated variable is one literal, not a gate plus a literal.
    if (n.op == ExprOp::Not && node(n.a).op == ExprOp::Var) {
      ++lits;
      continue;
    }
    if (n.a.valid()) stack.push_back(n.a);
    if (n.b.valid()) stack.push_back(n.b);
  }
  return lits;
}

std::size_t ExprPool::gate_count(ExprRef r) const {
  std::unordered_set<std::uint32_t> seen;
  std::size_t gates = 0;
  std::vector<ExprRef> stack{r};
  while (!stack.empty()) {
    ExprRef cur = stack.back();
    stack.pop_back();
    if (!seen.insert(cur.value()).second) continue;
    const ExprNode& n = node(cur);
    if (n.op == ExprOp::And || n.op == ExprOp::Or || n.op == ExprOp::Not) ++gates;
    if (n.a.valid()) stack.push_back(n.a);
    if (n.b.valid()) stack.push_back(n.b);
  }
  return gates;
}

ExprRef ExprPool::substitute(ExprRef r, BoolVar v, ExprRef e) {
  std::unordered_map<std::uint32_t, ExprRef> memo;
  std::function<ExprRef(ExprRef)> go = [&](ExprRef cur) -> ExprRef {
    if (auto it = memo.find(cur.value()); it != memo.end()) return it->second;
    const ExprNode n = node(cur);  // copy: nodes_ may reallocate below
    ExprRef result;
    switch (n.op) {
      case ExprOp::Const0:
      case ExprOp::Const1:
        result = cur;
        break;
      case ExprOp::Var:
        result = (n.var == v) ? e : cur;
        break;
      case ExprOp::Not:
        result = lnot(go(n.a));
        break;
      case ExprOp::And:
        result = land(go(n.a), go(n.b));
        break;
      case ExprOp::Or:
        result = lor(go(n.a), go(n.b));
        break;
    }
    memo.emplace(cur.value(), result);
    return result;
  };
  return go(r);
}

std::string ExprPool::to_string(ExprRef r,
                                const std::function<std::string(BoolVar)>& name) const {
  const ExprNode& n = node(r);
  switch (n.op) {
    case ExprOp::Const0:
      return "0";
    case ExprOp::Const1:
      return "1";
    case ExprOp::Var:
      return name(n.var);
    case ExprOp::Not: {
      const ExprNode& inner = node(n.a);
      if (inner.op == ExprOp::Var) return '!' + name(inner.var);
      return "!(" + to_string(n.a, name) + ")";
    }
    case ExprOp::And: {
      auto wrap = [&](ExprRef x) {
        return node(x).op == ExprOp::Or ? '(' + to_string(x, name) + ")" : to_string(x, name);
      };
      return wrap(n.a) + " & " + wrap(n.b);
    }
    case ExprOp::Or:
      return to_string(n.a, name) + " | " + to_string(n.b, name);
  }
  throw Error("ExprPool::to_string: corrupt node");
}

std::string ExprPool::to_string(ExprRef r) const {
  return to_string(r, [](BoolVar v) { return 'v' + std::to_string(v); });
}

}  // namespace opiso
