#include "boolfn/strash.hpp"

#include <algorithm>

namespace opiso {

BoolVar NetVarMap::var_of(const Netlist& nl, NetId net) {
  OPISO_REQUIRE(nl.net(net).width == 1, "NetVarMap: only 1-bit nets can be Boolean variables");
  if (var_by_net_.size() < nl.num_nets()) var_by_net_.resize(nl.num_nets(), kNoVar);
  BoolVar& slot = var_by_net_[net.value()];
  if (slot == kNoVar) {
    slot = static_cast<BoolVar>(nets_.size());
    nets_.push_back(net);
  }
  return slot;
}

NetId NetVarMap::net_of(BoolVar v) const {
  OPISO_REQUIRE(v < nets_.size(), "NetVarMap: unknown variable");
  return nets_[v];
}

// ------------------------------------------------------------- Strash

Lit Strash::var(const std::string& name) {
  auto [it, inserted] = vars_by_name_.emplace(name, kLitZero);
  if (inserted) {
    it->second = node(Op::Var, static_cast<Lit>(vars_.size()), 0);
    vars_.push_back(name);
  }
  return it->second;
}

Lit Strash::hashed(Op op, Lit a, Lit b) {
  const std::uint64_t key = (std::uint64_t{op == Op::Xor} << 63) | (std::uint64_t{a} << 32) | b;
  auto [it, inserted] = table_.emplace(key, kLitZero);
  if (inserted) it->second = node(op, a, b);
  return it->second;
}

// ------------------------------------------------------------ LazyBdd

LazyBdd::LazyBdd(const Strash& s, std::vector<BoolVar> level, const BddBudget& budget)
    : s_(s), mgr_(budget), memo_(2 * s.nodes().size(), BddRef::invalid()),
      level_(std::move(level)) {
  OPISO_REQUIRE(level_.size() >= s.vars().size(), "LazyBdd: variable order misses variables");
}

BddRef LazyBdd::of(Lit root) {
  OPISO_REQUIRE(root < memo_.size(), "LazyBdd: literal is newer than the BDD table");
  std::vector<Lit> stack{root};
  while (!stack.empty()) {
    const Lit l = stack.back();
    if (memo_[l].valid()) {
      stack.pop_back();
      continue;
    }
    const Strash::Node& nd = s_.nodes()[l >> 1];
    const bool neg = l & 1;
    if (nd.op == Strash::Op::Const) {
      memo_[l] = neg ? mgr_.one() : mgr_.zero();
    } else if (nd.op == Strash::Op::Var) {
      memo_[l] = neg ? mgr_.nvar(level_[nd.a]) : mgr_.var(level_[nd.a]);
    } else {
      // And: a∧b, or ¬a∨¬b when negated. Xor: ite(a, ¬b, b), or
      // ite(a, b, ¬b) when negated, with ¬b copied from b's BDD.
      const bool is_and = nd.op == Strash::Op::And;
      const Lit x = nd.a ^ (is_and && neg);
      const Lit y = nd.b ^ (is_and && neg);
      bool ready = true;
      for (Lit need : {x, y}) {
        if (!memo_[need].valid()) {
          stack.push_back(need);
          ready = false;
        }
      }
      if (!ready) continue;
      const BddRef f = memo_[x], g = memo_[y];
      if (is_and) {
        memo_[l] = neg ? mgr_.bor(f, g) : mgr_.band(f, g);
      } else if (f == g) {
        memo_[l] = neg ? mgr_.one() : mgr_.zero();
      } else {
        BddRef& not_g = memo_[y ^ 1];
        if (!not_g.valid()) not_g = mgr_.bnot(g);
        memo_[l] = neg ? mgr_.ite(f, g, not_g) : mgr_.ite(f, not_g, g);
      }
    }
    stack.pop_back();
  }
  return memo_[root];
}

// ----------------------------------------------------- counterexample

std::string render_counterexample(BddManager& mgr, BddRef f,
                                  const std::function<std::string(BoolVar)>& name,
                                  std::size_t max_vars) {
  std::string s;
  BddRef cur = f;
  std::size_t printed = 0;
  for (BoolVar v : mgr.support(f)) {
    const BddRef hi = mgr.restrict_var(cur, v, true);
    const bool val = !mgr.is_zero(hi);
    cur = val ? hi : mgr.restrict_var(cur, v, false);
    if (printed++ >= max_vars) {
      s += ", ...";
      break;
    }
    if (!s.empty()) s += ", ";
    s += name(v) + "=" + (val ? "1" : "0");
  }
  return s.empty() ? "any assignment" : s;
}

// ---------------------------------------------------------- NetStrash

NetStrash::NetStrash(const Netlist& nl, const ExprPool& pool, NetVarMap& vars,
                     const BddBudget& budget)
    : nl_(nl), pool_(pool), vars_(vars), budget_(budget), net_lit_(nl.num_nets(), kNoLit) {}

bool NetStrash::expandable(const Cell& c) {
  if (!c.out.valid() || nl_.net(c.out).width != 1) return false;
  if (!std::all_of(c.ins.begin(), c.ins.end(), [&](NetId in) { return nl_.net(in).width == 1; })) {
    return false;
  }
  // Constant fanins fold, so this probe adds no node.
  return cell_function(s_, c.kind, c.param, [](int) { return kLitZero; }).has_value();
}

Lit NetStrash::of_net(NetId net) {
  std::vector<std::uint32_t> stack{net.value()};
  while (!stack.empty()) {
    const std::uint32_t n = stack.back();
    if (net_lit_[n] != kNoLit) {
      stack.pop_back();
      continue;
    }
    const Cell& drv = nl_.cell(nl_.net(NetId{n}).driver);
    if (!expandable(drv)) {
      if (drv.kind == CellKind::Constant) {  // a wide constant: its bit 0
        net_lit_[n] = (drv.param & 1) != 0 ? kLitOne : kLitZero;
      } else {
        level_.push_back(vars_.var_of(nl_, NetId{n}));
        net_lit_[n] = s_.var(nl_.net(NetId{n}).name);
      }
      stack.pop_back();
      continue;
    }
    bool ready = true;
    for (NetId in : drv.ins) {
      if (net_lit_[in.value()] == kNoLit) {
        stack.push_back(in.value());
        ready = false;
      }
    }
    if (!ready) continue;
    net_lit_[n] = *cell_function(s_, drv.kind, drv.param, [&](int p) {
      return net_lit_[drv.ins[static_cast<std::size_t>(p)].value()];
    });
    stack.pop_back();
  }
  return net_lit_[net.value()];
}

Lit NetStrash::of_expr(ExprRef e) {
  if (expr_lit_.size() < pool_.num_nodes()) expr_lit_.resize(pool_.num_nodes(), kNoLit);
  std::vector<ExprRef> stack{e};
  while (!stack.empty()) {
    const ExprRef r = stack.back();
    if (expr_lit_[r.value()] != kNoLit) {
      stack.pop_back();
      continue;
    }
    const ExprNode& node = pool_.node(r);
    Lit f = kNoLit;
    switch (node.op) {
      case ExprOp::Const0: f = kLitZero; break;
      case ExprOp::Const1: f = kLitOne; break;
      case ExprOp::Var: f = of_net(vars_.net_of(node.var)); break;
      case ExprOp::Not: {
        const Lit a = expr_lit_[node.a.value()];
        if (a == kNoLit) {
          stack.push_back(node.a);
          continue;
        }
        f = a ^ 1;
        break;
      }
      case ExprOp::And:
      case ExprOp::Or: {
        const Lit a = expr_lit_[node.a.value()];
        const Lit b = expr_lit_[node.b.value()];
        if (a == kNoLit || b == kNoLit) {
          if (a == kNoLit) stack.push_back(node.a);
          if (b == kNoLit) stack.push_back(node.b);
          continue;
        }
        f = node.op == ExprOp::And ? s_.land(a, b) : s_.lor(a, b);
        break;
      }
    }
    expr_lit_[r.value()] = f;
    stack.pop_back();
  }
  return expr_lit_[e.value()];
}

LazyBdd& NetStrash::bdd() {
  if (!bdd_) bdd_.emplace(s_, level_, budget_);
  return *bdd_;
}

bool NetStrash::is_zero(Lit lit) {
  if (lit == kLitZero || lit == kLitOne) return lit == kLitZero;
  return bdd().mgr().is_zero(bdd().of(lit));
}

std::string NetStrash::counterexample(Lit lit) {
  return render_counterexample(bdd().mgr(), bdd().of(lit),
                               [this](BoolVar v) { return nl_.net(vars_.net_of(v)).name; });
}

}  // namespace opiso
