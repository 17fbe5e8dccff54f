#include "boolfn/bdd.hpp"

#include <algorithm>
#include <unordered_map>
#include <unordered_set>

#include "obs/metrics.hpp"

namespace opiso {

BddManager::BddManager(BddBudget budget) : budget_(budget) {
  // Terminals occupy slots 0 (zero) and 1 (one) with a sentinel var so
  // that every internal node's var compares smaller.
  nodes_.push_back(Node{kTermVar, BddRef::invalid(), BddRef::invalid()});
  nodes_.push_back(Node{kTermVar, BddRef::invalid(), BddRef::invalid()});
  zero_ = BddRef{0};
  one_ = BddRef{1};
}

BddManager::~BddManager() {
  obs::MetricsRegistry& m = obs::metrics();
  m.counter("bdd.managers").add(1);
  m.counter("bdd.nodes_allocated").add(nodes_.size() - 2);  // minus terminals
  m.counter("bdd.unique_hits").add(stats_.unique_hits);
  m.counter("bdd.unique_misses").add(stats_.unique_misses);
  m.counter("bdd.ite_calls").add(stats_.ite_calls);
  m.counter("bdd.ite_cache_hits").add(stats_.ite_cache_hits);
  m.gauge("bdd.last_unique_table_size").set(static_cast<double>(nodes_.size()));
}

std::size_t BddManager::TripleTable::home(std::uint32_t a, std::uint32_t b,
                                          std::uint32_t c) const {
  std::uint64_t h = (std::uint64_t{a} << 32 | b) * 0x9E3779B97F4A7C15ull;
  h = (h ^ (h >> 29) ^ c) * 0xBF58476D1CE4E5B9ull;
  return static_cast<std::size_t>(h ^ (h >> 32)) & (slots_.size() - 1);
}

BddRef BddManager::TripleTable::find(std::uint32_t a, std::uint32_t b, std::uint32_t c) const {
  if (slots_.empty()) return BddRef::invalid();
  for (std::size_t i = home(a, b, c);; i = (i + 1) & (slots_.size() - 1)) {
    const Slot& s = slots_[i];
    if (s.a == kFree) return BddRef::invalid();
    if (s.a == a && s.b == b && s.c == c) return BddRef{s.v};
  }
}

void BddManager::TripleTable::insert(std::uint32_t a, std::uint32_t b, std::uint32_t c,
                                     BddRef v) {
  OPISO_ASSERT(a != kFree, "TripleTable: the free marker is not a key");
  if (2 * (size_ + 1) > slots_.size()) {  // keep the load factor at most 1/2
    std::vector<Slot> old(std::max<std::size_t>(64, 2 * slots_.size()));
    old.swap(slots_);
    size_ = 0;
    for (const Slot& s : old) {
      if (s.a != kFree) insert(s.a, s.b, s.c, BddRef{s.v});
    }
  }
  std::size_t i = home(a, b, c);
  while (slots_[i].a != kFree) i = (i + 1) & (slots_.size() - 1);
  slots_[i] = Slot{a, b, c, v.value()};
  ++size_;
}

BddRef BddManager::make_node(BoolVar var, BddRef low, BddRef high) {
  if (low == high) return low;  // reduction rule
  if (const BddRef hit = unique_.find(var, low.value(), high.value()); hit.valid()) {
    ++stats_.unique_hits;
    return hit;
  }
  if (budget_.max_nodes != 0 && nodes_.size() >= budget_.max_nodes) {
    obs::metrics().counter("bdd.budget_exceeded").add(1);
    throw ResourceError(ErrCode::ResourceBddNodes,
                        "BDD node budget of " + std::to_string(budget_.max_nodes) +
                            " nodes exceeded");
  }
  ++stats_.unique_misses;
  BddRef ref{static_cast<std::uint32_t>(nodes_.size())};
  nodes_.push_back(Node{var, low, high});
  unique_.insert(var, low.value(), high.value(), ref);
  return ref;
}

BddRef BddManager::var(BoolVar v) { return make_node(v, zero_, one_); }
BddRef BddManager::nvar(BoolVar v) { return make_node(v, one_, zero_); }

BoolVar BddManager::top_var(BddRef f, BddRef g, BddRef h) const {
  BoolVar top = kTermVar;
  for (BddRef r : {f, g, h}) {
    if (r.valid() && nodes_[r.value()].var < top) top = nodes_[r.value()].var;
  }
  return top;
}

BddRef BddManager::cofactor(BddRef f, BoolVar v, bool value) const {
  const Node& n = nodes_[f.value()];
  if (n.var != v) return f;  // f does not depend on v at the top
  return value ? n.high : n.low;
}

BddRef BddManager::ite(BddRef f, BddRef g, BddRef h) {
  // Terminal cases.
  if (is_one(f)) return g;
  if (is_zero(f)) return h;
  if (g == h) return g;
  if (is_one(g) && is_zero(h)) return f;

  ++stats_.ite_calls;
  if (const BddRef hit = ite_cache_.find(f.value(), g.value(), h.value()); hit.valid()) {
    ++stats_.ite_cache_hits;
    return hit;
  }

  const BoolVar v = top_var(f, g, h);
  BddRef lo = ite(cofactor(f, v, false), cofactor(g, v, false), cofactor(h, v, false));
  BddRef hi = ite(cofactor(f, v, true), cofactor(g, v, true), cofactor(h, v, true));
  BddRef result = make_node(v, lo, hi);
  if (budget_.max_ite_cache != 0 && ite_cache_.size() >= budget_.max_ite_cache) {
    obs::metrics().counter("bdd.budget_exceeded").add(1);
    throw ResourceError(ErrCode::ResourceIteCache,
                        "BDD ITE cache budget of " + std::to_string(budget_.max_ite_cache) +
                            " entries exceeded");
  }
  ite_cache_.insert(f.value(), g.value(), h.value(), result);
  return result;
}

BddRef BddManager::bnot(BddRef f) { return ite(f, zero_, one_); }
BddRef BddManager::band(BddRef f, BddRef g) { return ite(f, g, zero_); }
BddRef BddManager::bor(BddRef f, BddRef g) { return ite(f, one_, g); }
BddRef BddManager::bxor(BddRef f, BddRef g) { return ite(f, bnot(g), g); }

BddRef BddManager::restrict_var(BddRef f, BoolVar v, bool value) {
  if (is_zero(f) || is_one(f)) return f;
  const Node n = nodes_[f.value()];
  if (n.var > v || n.var == kTermVar) return f;
  if (n.var == v) return value ? n.high : n.low;
  BddRef lo = restrict_var(n.low, v, value);
  BddRef hi = restrict_var(n.high, v, value);
  return make_node(n.var, lo, hi);
}

bool BddManager::implies(BddRef f, BddRef g) { return is_one(ite(f, g, one_)); }

BddRef BddManager::restrict_to_care(BddRef f, BddRef care) {
  if (is_zero(care)) return zero();  // fully don't-care: any function
  if (is_one(care) || is_zero(f) || is_one(f)) return f;
  const BoolVar v = top_var(f, care, care);
  const BddRef c0 = cofactor(care, v, false);
  const BddRef c1 = cofactor(care, v, true);
  // Sibling substitution: if one branch of the care set is empty, the
  // function can collapse onto the other branch.
  if (is_zero(c0)) return restrict_to_care(cofactor(f, v, true), c1);
  if (is_zero(c1)) return restrict_to_care(cofactor(f, v, false), c0);
  if (nodes_[f.value()].var != v) {
    // f does not depend on v at the top: merge the care branches.
    return restrict_to_care(f, bor(c0, c1));
  }
  return make_node(v, restrict_to_care(cofactor(f, v, false), c0),
                   restrict_to_care(cofactor(f, v, true), c1));
}

bool BddManager::eval(BddRef f, const std::function<bool(BoolVar)>& value) const {
  while (!is_zero(f) && !is_one(f)) {
    const Node& n = nodes_[f.value()];
    f = value(n.var) ? n.high : n.low;
  }
  return is_one(f);
}

double BddManager::probability(BddRef f, const std::function<double(BoolVar)>& p) {
  std::unordered_map<std::uint32_t, double> memo;
  std::function<double(BddRef)> go = [&](BddRef r) -> double {
    if (is_zero(r)) return 0.0;
    if (is_one(r)) return 1.0;
    if (auto it = memo.find(r.value()); it != memo.end()) return it->second;
    const Node& n = nodes_[r.value()];
    const double pv = p(n.var);
    const double result = pv * go(n.high) + (1.0 - pv) * go(n.low);
    memo.emplace(r.value(), result);
    return result;
  };
  return go(f);
}

std::vector<BoolVar> BddManager::support(BddRef f) const {
  std::unordered_set<std::uint32_t> seen;
  std::vector<BoolVar> vars;
  std::vector<BddRef> stack{f};
  while (!stack.empty()) {
    BddRef cur = stack.back();
    stack.pop_back();
    if (is_zero(cur) || is_one(cur)) continue;
    if (!seen.insert(cur.value()).second) continue;
    const Node& n = nodes_[cur.value()];
    vars.push_back(n.var);
    stack.push_back(n.low);
    stack.push_back(n.high);
  }
  std::sort(vars.begin(), vars.end());
  vars.erase(std::unique(vars.begin(), vars.end()), vars.end());
  return vars;
}

BddRef BddManager::from_expr(const ExprPool& pool, ExprRef e) {
  std::unordered_map<std::uint32_t, BddRef> memo;
  std::function<BddRef(ExprRef)> go = [&](ExprRef r) -> BddRef {
    if (auto it = memo.find(r.value()); it != memo.end()) return it->second;
    const ExprNode& n = pool.node(r);
    BddRef result;
    switch (n.op) {
      case ExprOp::Const0:
        result = zero_;
        break;
      case ExprOp::Const1:
        result = one_;
        break;
      case ExprOp::Var:
        result = var(n.var);
        break;
      case ExprOp::Not:
        result = bnot(go(n.a));
        break;
      case ExprOp::And:
        result = band(go(n.a), go(n.b));
        break;
      case ExprOp::Or:
        result = bor(go(n.a), go(n.b));
        break;
    }
    memo.emplace(r.value(), result);
    return result;
  };
  return go(e);
}

ExprRef BddManager::to_expr(ExprPool& pool, BddRef f) {
  std::unordered_map<std::uint32_t, ExprRef> memo;
  std::function<ExprRef(BddRef)> go = [&](BddRef r) -> ExprRef {
    if (is_zero(r)) return pool.const0();
    if (is_one(r)) return pool.const1();
    if (auto it = memo.find(r.value()); it != memo.end()) return it->second;
    const Node n = nodes_[r.value()];
    ExprRef v = pool.var(n.var);
    ExprRef lo = go(n.low);
    ExprRef hi = go(n.high);
    // Shannon expansion with the common special cases folded so simple
    // functions come back in their natural factored form.
    ExprRef result;
    if (pool.is_const0(lo)) {
      result = pool.land(v, hi);
    } else if (pool.is_const1(lo)) {
      result = pool.lor(pool.lnot(v), pool.land(v, hi));
      if (pool.is_const1(hi)) result = pool.const1();
      if (pool.is_const0(hi)) result = pool.lnot(v);
    } else if (pool.is_const0(hi)) {
      result = pool.land(pool.lnot(v), lo);
    } else if (pool.is_const1(hi)) {
      result = pool.lor(v, lo);
    } else {
      result = pool.lor(pool.land(v, hi), pool.land(pool.lnot(v), lo));
    }
    memo.emplace(r.value(), result);
    return result;
  };
  return go(f);
}

ExprRef BddManager::simplify_expr(ExprPool& pool, ExprRef e) {
  const ExprRef resynth = to_expr(pool, from_expr(pool, e));
  return pool.literal_count(resynth) < pool.literal_count(e) ? resynth : e;
}

}  // namespace opiso
