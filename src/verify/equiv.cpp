#include "verify/equiv.hpp"

#include <algorithm>
#include <numeric>
#include <unordered_map>
#include <unordered_set>

#include "boolfn/strash.hpp"
#include "lower/gate_level.hpp"
#include "netlist/traversal.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"

namespace opiso {

namespace {

/// Bit index of a lowered "<word>.<i>" name; 0 without a numeric suffix.
unsigned bit_index(const std::string& name) {
  const auto dot = name.rfind('.');
  if (dot == std::string::npos || dot + 1 == name.size()) return 0;
  unsigned v = 0;
  for (std::size_t i = dot + 1; i < name.size(); ++i) {
    if (name[i] < '0' || name[i] > '9') return 0;
    v = v * 10 + static_cast<unsigned>(name[i] - '0');
  }
  return v;
}

// --------------------------------------------------------- cut points

/// One isolated module: its output is cut in both designs.
struct Cut {
  std::string name;            ///< the module's output net name
  NetId out_a, out_b;          ///< output word net in A / B
  NetId as;                    ///< B's activation net, shared by the banks
  std::vector<NetId> operand_a;  ///< A's operand per pin
  std::vector<NetId> bank_d;     ///< B's bank data input per pin
};

/// The lowered output bits of `m` are gates of its own expansion: not
/// sources, constants or aliases of its operand bits (as shifts and
/// buffers lower to wiring), so overriding them changes no other net.
bool owns_lowered_output(const GateLevelResult& low, const Cell& m) {
  std::unordered_set<std::uint32_t> seen;
  for (NetId p : m.ins) {
    for (NetId bit : low.bits_of(p)) seen.insert(bit.value());
  }
  for (NetId bit : low.bits_of(m.out)) {
    switch (low.netlist.cell(low.netlist.net(bit).driver).kind) {
      case CellKind::PrimaryInput:
      case CellKind::Reg:
      case CellKind::Latch:
      case CellKind::Constant:
        return false;
      default:
        break;
    }
    if (!seen.insert(bit.value()).second) return false;
  }
  return true;
}

/// Isolated modules of `b` relative to `a`, in b's topological order.
std::vector<Cut> find_cuts(const Netlist& a, const Netlist& b, const GateLevelResult& ga,
                           const GateLevelResult& gb) {
  std::vector<Cut> cuts;
  for (CellId id : topological_order(b)) {
    const Cell& m = b.cell(id);
    if (!m.out.valid() || m.ins.empty() || cell_kind_is_isolation(m.kind) ||
        cell_kind_is_latch(m.kind) || m.kind == CellKind::Reg) {
      continue;
    }
    Cut cut;
    bool isolated = true;
    for (NetId pin : m.ins) {
      const Cell& bank = b.cell(b.net(pin).driver);
      if (!cell_kind_is_isolation(bank.kind) || a.find_net(b.net(bank.out).name).valid() ||
          (cut.as.valid() && cut.as != bank.ins[1]) ||
          b.net(bank.ins[0]).width != b.net(pin).width) {
        isolated = false;
        break;
      }
      cut.as = bank.ins[1];
      cut.bank_d.push_back(bank.ins[0]);
    }
    if (!isolated) continue;
    cut.name = b.net(m.out).name;
    cut.out_b = m.out;
    cut.out_a = a.find_net(cut.name);
    if (!cut.out_a.valid()) continue;
    const Cell& ma = a.cell(a.net(cut.out_a).driver);
    if (ma.kind != m.kind || ma.param != m.param || ma.width != m.width ||
        ma.ins.size() != m.ins.size()) {
      continue;
    }
    for (std::size_t p = 0; p < m.ins.size() && isolated; ++p) {
      isolated = a.net(ma.ins[p]).width == b.net(m.ins[p]).width;
    }
    if (!isolated || !owns_lowered_output(ga, ma) || !owns_lowered_output(gb, m)) continue;
    cut.operand_a = ma.ins;
    cuts.push_back(std::move(cut));
  }
  return cuts;
}

// ------------------------------------------------------------- engine

/// Latches of either design: a plain latch has no model in any pass;
/// isolation latch banks have none in the exact pass.
struct Latches {
  bool plain = false;
  bool any = false;
};
Latches find_latches(const Netlist& a, const Netlist& b) {
  Latches l;
  for (const Netlist* nl : {&a, &b}) {
    for (CellId id : nl->cell_ids()) {
      const CellKind k = nl->cell(id).kind;
      l.plain |= k == CellKind::Latch;
      l.any |= cell_kind_is_latch(k);
    }
  }
  return l;
}
constexpr const char* kPlainLatch =
    "design has a plain latch: only isolation latch banks have a cut model";

EquivResult unknown(std::string reason) {
  EquivResult res;
  res.verdict = EquivResult::Verdict::Unknown;
  res.reason = std::move(reason);
  return res;
}

/// A net override of the cut model: `v` in A, ite(as, v, w) in B.
struct Override {
  Lit v = kLitZero;
  Lit w = kLitZero;
  NetId as;  ///< lowered activation bit (B only)
};

/// Both designs lowered once, shared by the cut and exact passes.
class Engine {
 public:
  Engine(const Netlist& a, const Netlist& b) : a_(a), b_(b) {
    OPISO_SPAN("verify.lower");
    ga_ = lower_to_gates(a);
    gb_ = lower_to_gates(b);
  }

  [[nodiscard]] std::vector<Cut> cuts() const {
    OPISO_SPAN("verify.strash");
    return find_cuts(a_, b_, ga_, gb_);
  }

  /// One proof attempt with `cuts` in place (empty: the exact proof).
  /// Answers Equivalent or NotEquivalent under that model; throws
  /// ResourceError when the BDD budget runs out.
  EquivResult pass(const std::vector<Cut>& cuts, const BddBudget& budget) const;

 private:
  std::vector<Lit> sweep(const GateLevelResult& g, const char* side, Strash& s,
                         const std::unordered_map<std::uint32_t, Override>& overrides) const;

  const Netlist& a_;
  const Netlist& b_;
  GateLevelResult ga_;
  GateLevelResult gb_;
};

/// Literal of every net of one lowered design, cuts applied.
std::vector<Lit> Engine::sweep(const GateLevelResult& g, const char* side, Strash& s,
                               const std::unordered_map<std::uint32_t, Override>& overrides) const {
  const Netlist& nl = g.netlist;
  std::vector<Lit> lit(nl.num_nets(), kLitZero);
  for (CellId id : topological_order(nl)) {
    const Cell& c = nl.cell(id);
    if (!c.out.valid()) continue;
    const std::string& name = nl.net(c.out).name;
    Lit f = kLitZero;
    if (c.kind == CellKind::PrimaryInput || c.kind == CellKind::Reg) {
      f = s.var(name);
    } else if (c.kind == CellKind::Latch) {
      // An isolation latch bit outside every cut: free, per design.
      f = s.var(std::string(side) + "@" + name);
    } else {
      f = cell_literal(s, c.kind, c.param, [&](int p) {
        return lit[c.ins[static_cast<std::size_t>(p)].value()];
      });
      if (f == kNoLit) {
        throw NetlistError("equiv: unexpected cell kind '" + std::string(cell_kind_name(c.kind)) +
                           "' in lowered netlist");
      }
    }
    if (auto it = overrides.find(c.out.value()); it != overrides.end()) {
      const Override& o = it->second;
      f = o.as.valid() ? s.mux(lit[o.as.value()], o.v, o.w) : o.v;
    }
    lit[c.out.value()] = f;
  }
  return lit;
}

EquivResult Engine::pass(const std::vector<Cut>& cuts, const BddBudget& budget) const {
  /// Holds iff `lit` is constant 0. Uncounted entries are the cut
  /// lemmas and structural mismatches (the latter with lit = 1).
  struct Obligation {
    Lit lit;
    std::string reason;
    bool counted;
  };
  std::vector<Obligation> obligations;
  Strash s;
  {
    OPISO_SPAN("verify.strash");
    std::unordered_map<std::uint32_t, Override> over_a, over_b;
    for (const Cut& cut : cuts) {
      const std::vector<NetId>& bits_a = ga_.bits_of(cut.out_a);
      const std::vector<NetId>& bits_b = gb_.bits_of(cut.out_b);
      const NetId as = gb_.bits_of(cut.as).at(0);
      for (std::size_t i = 0; i < bits_b.size(); ++i) {
        const std::string bit = cut.name + "." + std::to_string(i);
        const Lit v = s.var("v@" + bit);
        const Lit w = s.var("w@" + bit);
        over_a[bits_a[i].value()] = {v, w, NetId::invalid()};
        over_b[bits_b[i].value()] = {v, w, as};
      }
    }
    const std::vector<Lit> fa = sweep(ga_, "A", s, over_a);
    const std::vector<Lit> fb = sweep(gb_, "B", s, over_b);

    // --- cut lemmas -------------------------------------------------------
    for (const Cut& cut : cuts) {
      const Lit as = fb[gb_.bits_of(cut.as).at(0).value()];
      for (std::size_t p = 0; p < cut.operand_a.size(); ++p) {
        const std::vector<NetId>& op = ga_.bits_of(cut.operand_a[p]);
        const std::vector<NetId>& d = gb_.bits_of(cut.bank_d[p]);
        for (std::size_t i = 0; i < op.size(); ++i) {  // widths match (find_cuts)
          obligations.push_back({s.land(as, s.lxor(fa[op[i].value()], fb[d[i].value()])),
                                 "operand " + std::to_string(p) + " of isolated '" + cut.name +
                                     "' differs while its activation holds",
                                 false});
        }
      }
    }

    // --- register obligations, matched by bit-net name -----------------
    const Netlist& na = ga_.netlist;
    const Netlist& nb = gb_.netlist;
    std::unordered_map<std::string, CellId> regs_b;
    for (CellId id : nb.cell_ids()) {
      const Cell& c = nb.cell(id);
      if (c.kind == CellKind::Reg) regs_b.emplace(nb.net(c.out).name, id);
    }
    std::size_t matched = 0;
    for (CellId id : na.cell_ids()) {
      const Cell& ca = na.cell(id);
      if (ca.kind != CellKind::Reg) continue;
      const std::string& name = na.net(ca.out).name;
      auto it = regs_b.find(name);
      if (it == regs_b.end()) {
        obligations.push_back(
            {kLitOne, "register bit '" + name + "' missing from transformed design", false});
        break;
      }
      ++matched;
      const Cell& cb = nb.cell(it->second);
      const Lit en_a = fa[ca.ins[1].value()];
      obligations.push_back({s.lxor(en_a, fb[cb.ins[1].value()]),
                             "enable functions differ for register bit '" + name + "'", true});
      obligations.push_back(
          {s.land(en_a, s.lxor(fa[ca.ins[0].value()], fb[cb.ins[0].value()])),
           "register bit '" + name + "' can load a different value while enabled", true});
    }
    if (matched != regs_b.size()) {
      obligations.push_back({kLitOne, "transformed design has extra registers", false});
    }

    // --- primary outputs, by position -----------------------------------
    if (na.primary_outputs().size() != nb.primary_outputs().size()) {
      obligations.push_back({kLitOne, "primary output counts differ", false});
    } else {
      for (std::size_t i = 0; i < na.primary_outputs().size(); ++i) {
        const NetId oa = na.cell(na.primary_outputs()[i]).ins[0];
        const NetId ob = nb.cell(nb.primary_outputs()[i]).ins[0];
        obligations.push_back({s.lxor(fa[oa.value()], fb[ob.value()]),
                               "primary output bit " + std::to_string(i) + " ('" +
                                   na.net(oa).name + "') differs",
                               true});
      }
    }
  }

  // --- discharge in order: strash first, BDDs for what stays open -------
  OPISO_SPAN("verify.bdd");
  EquivResult res;
  res.cut_points = cuts.size();
  // One interleaved order over every variable of both designs and the
  // cuts: by bit index, then by name.
  const std::vector<std::string>& vars = s.vars();
  std::vector<unsigned> bit(vars.size());
  std::transform(vars.begin(), vars.end(), bit.begin(), bit_index);
  std::vector<std::uint32_t> order(vars.size());
  std::iota(order.begin(), order.end(), 0u);
  std::sort(order.begin(), order.end(), [&](std::uint32_t x, std::uint32_t y) {
    return bit[x] != bit[y] ? bit[x] < bit[y] : vars[x] < vars[y];
  });
  std::vector<BoolVar> level(vars.size());
  for (std::size_t i = 0; i < order.size(); ++i) level[order[i]] = static_cast<BoolVar>(i);
  LazyBdd bdd(s, std::move(level), budget);
  std::uint64_t by_strash = 0, by_bdd = 0;
  const auto flush = [&] {
    obs::metrics().counter("verify.strash_discharged").add(by_strash);
    obs::metrics().counter("verify.bdd_discharged").add(by_bdd);
    res.bdd_nodes = bdd.mgr().num_nodes();
  };
  for (const Obligation& ob : obligations) {
    if (ob.counted) ++res.obligations_checked;
    if (ob.lit == kLitZero) {
      ++by_strash;
      continue;
    }
    if (ob.lit != kLitOne && bdd.mgr().is_zero(bdd.of(ob.lit))) {
      ++by_bdd;
      continue;
    }
    flush();
    res.verdict = EquivResult::Verdict::NotEquivalent;
    res.reason = ob.reason;
    // Only the exact pass answers NotEquivalent: an assignment to cut
    // variables would prove nothing.
    if (cuts.empty()) {
      res.counterexample = render_counterexample(
          bdd.mgr(), bdd.of(ob.lit), [&](BoolVar v) { return vars[order[v]]; }, SIZE_MAX);
    }
    return res;
  }
  flush();
  res.verdict = EquivResult::Verdict::Equivalent;
  res.equivalent = true;
  return res;
}

}  // namespace

EquivResult check_isolation_equivalence(const Netlist& original, const Netlist& transformed) {
  return check_isolation_equivalence(original, transformed, BddBudget{});
}

EquivResult check_isolation_equivalence(const Netlist& original, const Netlist& transformed,
                                        const BddBudget& budget) {
  const Latches latches = find_latches(original, transformed);
  if (latches.plain) return unknown(kPlainLatch);
  const Engine engine(original, transformed);
  const std::vector<Cut> cuts = engine.cuts();
  if (cuts.empty() && !latches.any) return engine.pass(cuts, budget);

  std::string why;
  try {
    EquivResult res = engine.pass(cuts, budget);
    if (res.equivalent) return res;
    why = res.reason;
  } catch (const ResourceError& e) {
    why = std::string("BDD budget exhausted: ") + e.what();
  }
  obs::metrics().counter("verify.cut_fallbacks").add(1);
  if (latches.any) {
    EquivResult res = unknown("cut-point pass failed (" + why +
                              ") and latch banks have no exact model");
    res.fallback_reason = why;
    return res;
  }
  EquivResult res = engine.pass({}, budget);
  res.fallback_reason = "cut-point pass: " + why;
  return res;
}

EquivResult run_equivalence_pass(const Netlist& original, const Netlist& transformed,
                                 const BddBudget& budget, EquivPass pass) {
  const Latches latches = find_latches(original, transformed);
  if (latches.plain) return unknown(kPlainLatch);
  if (pass == EquivPass::Exact && latches.any) {
    return unknown("the exact pass needs latch-free designs");
  }
  const Engine engine(original, transformed);
  EquivResult res = engine.pass(pass == EquivPass::Exact ? std::vector<Cut>{} : engine.cuts(),
                                budget);
  if (pass == EquivPass::CutPoints && !res.equivalent) {
    res.verdict = EquivResult::Verdict::Unknown;
    res.reason = "cut-point pass failed: " + res.reason;
  }
  return res;
}

}  // namespace opiso
