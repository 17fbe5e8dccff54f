// opiso_perfbench: the opiso benchmark, four workloads against the public API.
//
//   opiso_perfbench --workload paper_flow|wide_datapath|equiv_proof|lane_sweep
//                   [--seed N] [--seconds S] [--trace 0|1]
//
// Run from the repository root (the RTL designs are read from
// designs_rtl/); perfbench/run.py builds this program and runs it there.
//
// One run = set up the workload several times (setup_s is the median),
// one untimed warm-up pass, timed passes for --seconds, then an
// untimed output check. A pass is the workload's fixed list of items
// (one flow, one proof or one sweep task each), run one at a time in a
// closed loop. With --trace 1 the timed passes alternate untraced and
// traced; the traced ones are folded per item into the per-layer
// ledger.
//
// Human-readable lines go to stdout first; the last stdout line is one
// JSON object {"correct", "attempted", "failed", "metrics"}. See
// README.md in this directory for the metric definitions and the map
// from each per-layer metric to the end-to-end metric it should move.

#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <functional>
#include <iostream>
#include <map>
#include <memory>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "designs/designs.hpp"
#include "frontend/rtl_parser.hpp"
#include "isolation/algorithm.hpp"
#include "lint/lint.hpp"
#include "obs/metrics.hpp"
#include "obs/profiler.hpp"
#include "obs/trace.hpp"
#include "opt/rewrite_rules.hpp"
#include "sim/simulator.hpp"
#include "sim/stimulus.hpp"
#include "sim/sweep.hpp"
#include "util/error.hpp"
#include "verify/equiv.hpp"

namespace opiso::perfbench {
namespace {

using Clock = std::chrono::steady_clock;

/// Default stimulus seed. Claims made while tuning a change must also
/// hold on the held-out seed (kHeldOutSeed), which no change may be
/// tuned on.
constexpr std::uint64_t kDefaultSeed = 1;
constexpr std::uint64_t kHeldOutSeed = 2;

/// Where the RTL designs are read from, relative to the repository root.
const char* const kDesignsDir = "designs_rtl";
/// Lock-step cycles per checked pair in the output check.
constexpr std::uint64_t kCheckCycles = 2048;
/// The verify budget: the tool's default bdd_node_budget.
const std::size_t kProofBudget = IsolationOptions{}.bdd_node_budget;

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

std::string hexfloat(double v) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%a", v);
  return buf;
}

std::uint64_t splitmix64(std::uint64_t x) {
  x += 0x9E3779B97F4A7C15ull;
  x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ull;
  x = (x ^ (x >> 27)) * 0x94D049BB133111EBull;
  return x ^ (x >> 31);
}

std::uint64_t fnv1a(std::uint64_t h, const std::string& s) {
  for (unsigned char c : s) {
    h ^= c;
    h *= 0x100000001B3ull;
  }
  return h;
}

// ------------------------------------------------------------------ items

/// Raw verdict of a proof item, before the output check classifies it.
enum class Verdict { None, Equivalent, NotEquivalent, Undecided };

struct ItemInfo {
  std::string label;  ///< "design1/AND s0", "fir4 rewrite", "p64 seed 2", ...
  std::string group;  ///< design the item works on (size-exponent grouping)
  std::size_t cells = 0;
};

struct ItemOutcome {
  bool threw = false;
  std::string result;  ///< every deterministic result, for the digest
  Verdict verdict = Verdict::None;
  std::size_t bdd_nodes = 0;
  std::size_t obligations = 0;
  std::uint64_t lane_cycles = 0;
};

/// Deterministic quality figures of a workload (the same on every pass).
struct Quality {
  std::vector<double> power_reduction_pct;  ///< one per isolation flow
  std::vector<double> area_increase_pct;
};

class Workload {
 public:
  virtual ~Workload() = default;
  [[nodiscard]] const std::vector<ItemInfo>& items() const { return items_; }
  /// One timed item. Throws on failure; the run counts it.
  virtual ItemOutcome run(std::size_t i) = 0;
  /// Untimed output check of the outputs the last pass produced: one
  /// flag per item, false when that item's output is wrong.
  virtual std::vector<bool> check(std::uint64_t seed) = 0;
  [[nodiscard]] virtual Quality quality() const = 0;

 protected:
  std::vector<ItemInfo> items_;
};

IsolationOptions isolate_defaults(IsolationStyle style, std::uint64_t cycles) {
  // The `opiso isolate` defaults: scalar engine, incremental replay,
  // confidence collection on.
  IsolationOptions opt;
  opt.style = style;
  opt.sim_cycles = cycles;
  opt.incremental = true;
  opt.sim_engine = SimEngineKind::Scalar;
  opt.confidence.enabled = true;
  return opt;
}

StimulusFactory uniform_stimuli(std::uint64_t seed) {
  return [seed] { return std::make_unique<UniformStimulus>(seed); };
}

std::string flow_result(const IsolationResult& r) {
  std::ostringstream os;
  os << "power " << hexfloat(r.power_before_mw) << " " << hexfloat(r.power_after_mw) << " area "
     << hexfloat(r.area_before_um2) << " " << hexfloat(r.area_after_um2) << " slack "
     << hexfloat(r.slack_before_ns) << " " << hexfloat(r.slack_after_ns) << " modules "
     << r.records.size() << " iterations " << r.iterations.size();
  return os.str();
}

/// Simulate both designs on the same seeded stimulus and compare every
/// primary output every cycle.
bool lockstep_equal(const Netlist& a, const Netlist& b, std::uint64_t seed) {
  if (a.primary_outputs().size() != b.primary_outputs().size()) return false;
  Simulator sim_a(a);
  Simulator sim_b(b);
  UniformStimulus stim_a(seed);
  UniformStimulus stim_b(seed);
  for (std::uint64_t cycle = 0; cycle < kCheckCycles; ++cycle) {
    sim_a.run(stim_a, 1);
    sim_b.run(stim_b, 1);
    for (std::size_t i = 0; i < a.primary_outputs().size(); ++i) {
      const NetId na = a.cell(a.primary_outputs()[i]).ins[0];
      const NetId nb = b.cell(b.primary_outputs()[i]).ins[0];
      if (sim_a.net_value(na) != sim_b.net_value(nb)) return false;
    }
  }
  return true;
}

struct NamedDesign {
  std::string name;
  Netlist netlist;
};

Netlist parse_design(const std::string& path) {
  OPISO_SPAN("frontend.parse");
  return parse_rtl_file(path);
}

/// fig1, design1 and fir4 from the RTL files plus the built-in design2.
std::vector<NamedDesign> paper_designs(const std::string& dir) {
  std::vector<NamedDesign> out;
  out.push_back({"fig1", parse_design(dir + "/fig1.rtl")});
  out.push_back({"design1", parse_design(dir + "/design1.rtl")});
  out.push_back({"design2", make_design2()});
  out.push_back({"fir4", parse_design(dir + "/fir4.rtl")});
  return out;
}

const IsolationStyle kStyles[] = {IsolationStyle::And, IsolationStyle::Or, IsolationStyle::Latch};

std::string style_tag(IsolationStyle s) { return std::string(isolation_style_name(s)); }

// ------------------------------------------- paper_flow, wide_datapath

/// Stimulus seed k of a run: k = 0 is the run's own seed, the others
/// are derived from it.
std::uint64_t stimulus_seed(std::uint64_t seed, unsigned k) {
  return k == 0 ? seed : splitmix64(seed * 0x100000001B3ull + k);
}

/// Algorithm-1 flows, one item each, optionally preceded by lint as in
/// the paper_flow workload.
class IsolationFlows : public Workload {
 public:
  IsolationFlows(std::vector<NamedDesign> designs, bool lint)
      : designs_(std::move(designs)), lint_(lint) {}

  void add(std::size_t design, IsolationStyle style, std::uint64_t cycles, std::uint64_t seed,
           unsigned k) {
    const NamedDesign& d = designs_[design];
    items_.push_back({d.name + "/" + style_tag(style) + " s" + std::to_string(k), d.name,
                      d.netlist.num_cells()});
    flows_.push_back({design, isolate_defaults(style, cycles), uniform_stimuli(seed)});
    last_.emplace_back();
  }

  ItemOutcome run(std::size_t i) override {
    const Flow& f = flows_[i];
    const Netlist& design = designs_[f.design].netlist;
    ItemOutcome out;
    if (lint_) {
      std::size_t lint_errors = 0;
      {
        OPISO_SPAN("lint.run");
        lint_errors = lint::run_lint(design).count(Severity::Error);
      }
      out.result = "lint_errors " + std::to_string(lint_errors) + " ";
      out.threw = lint_errors > 0;  // the flow stops at a lint error
    }
    last_[i] = run_operand_isolation(design, f.stimuli, f.options);
    out.result += flow_result(last_[i]);
    return out;
  }

  std::vector<bool> check(std::uint64_t seed) override {
    std::vector<bool> ok;
    for (std::size_t i = 0; i < flows_.size(); ++i) {
      ok.push_back(lockstep_equal(designs_[flows_[i].design].netlist, last_[i].netlist, seed));
    }
    return ok;
  }

  [[nodiscard]] Quality quality() const override {
    Quality q;
    for (const IsolationResult& r : last_) {
      q.power_reduction_pct.push_back(r.power_reduction_pct());
      q.area_increase_pct.push_back(r.area_increase_pct());
    }
    return q;
  }

 private:
  struct Flow {
    std::size_t design;
    IsolationOptions options;
    StimulusFactory stimuli;
  };
  std::vector<NamedDesign> designs_;
  bool lint_;
  std::vector<Flow> flows_;
  std::vector<IsolationResult> last_;
};

/// The paper's Table 1/2 experiment as `opiso isolate` runs it: lint,
/// then Algorithm 1 at 8192 cycles per round, for four designs in the
/// three styles, each under three stimulus seeds.
std::unique_ptr<Workload> make_paper_flow(const std::string& dir, std::uint64_t seed) {
  auto w = std::make_unique<IsolationFlows>(paper_designs(dir), true);
  for (std::size_t d = 0; d < 4; ++d) {
    for (IsolationStyle s : kStyles) {
      for (unsigned k = 0; k < 3; ++k) w->add(d, s, 8192, stimulus_seed(seed, k), k);
    }
  }
  return w;
}

/// Algorithm 1 on two generated datapaths 4x apart in size (560 and
/// 2240 cells), AND style, 512 cycles per round. The small design runs
/// under three stimulus seeds, the large one under one, so the median
/// item falls among the small flows instead of on the small/large
/// boundary, and the large flow still sets most of the pass time.
std::unique_ptr<Workload> make_wide_datapath(std::uint64_t seed) {
  std::vector<NamedDesign> designs;
  for (unsigned lanes : {16u, 64u}) {
    designs.push_back({"p" + std::to_string(lanes), make_parametric_datapath({lanes, 4, 8, true})});
  }
  auto w = std::make_unique<IsolationFlows>(std::move(designs), false);
  for (unsigned k = 0; k < 3; ++k) w->add(0, IsolationStyle::And, 512, stimulus_seed(seed, k), k);
  w->add(1, IsolationStyle::And, 512, seed, 0);
  return w;
}

// ---------------------------------------------------------- equiv_proof

ItemOutcome prove(const Netlist& original, const Netlist& transformed) {
  ItemOutcome out;
  try {
    OPISO_SPAN("verify.proof");
    const EquivResult r =
        check_isolation_equivalence(original, transformed, BddBudget{kProofBudget, 0});
    out.verdict = r.equivalent ? Verdict::Equivalent : Verdict::NotEquivalent;
    out.bdd_nodes = r.bdd_nodes;
    out.obligations = r.obligations_checked;
    out.result = std::string(r.equivalent ? "equivalent" : "not-equivalent") + " obligations " +
                 std::to_string(r.obligations_checked) + " nodes " +
                 std::to_string(r.bdd_nodes) + " " + r.reason;
  } catch (const ResourceError& e) {
    out.verdict = Verdict::Undecided;
    out.result = std::string("undecided ") + e.code_name();
  }
  return out;
}

/// The equivalence checker on the twelve paper_flow outputs (made in
/// setup), plus the fir4 datapath rewrite and a standalone proof of
/// fir4 against its rewrite.
class EquivProof : public Workload {
 public:
  EquivProof(const std::string& dir, std::uint64_t seed) : designs_(paper_designs(dir)) {
    const StimulusFactory stimuli = uniform_stimuli(seed);
    for (const NamedDesign& d : designs_) {
      for (IsolationStyle s : kStyles) {
        IsolationResult r = run_operand_isolation(d.netlist, stimuli, isolate_defaults(s, 8192));
        quality_.power_reduction_pct.push_back(r.power_reduction_pct());
        quality_.area_increase_pct.push_back(r.area_increase_pct());
        items_.push_back({d.name + "/" + style_tag(s) + " proof", d.name, d.netlist.num_cells()});
        pairs_.push_back({&d.netlist, std::move(r.netlist)});
      }
    }
    for (const NamedDesign& d : designs_) {
      if (d.name == "fir4") fir4_ = &d.netlist;
    }
    items_.push_back({"fir4 rewrite", "fir4", fir4_->num_cells()});
    items_.push_back({"fir4 rewrite proof", "fir4", fir4_->num_cells()});
    rewritten_ = *fir4_;
  }

  ItemOutcome run(std::size_t i) override {
    if (i < pairs_.size()) return prove(*pairs_[i].original, pairs_[i].isolated);
    if (i == pairs_.size()) {
      RewriteResult rw;
      {
        OPISO_SPAN("opt.rewrite");
        rw = rewrite_datapath(*fir4_);
      }
      rewritten_ = rw.netlist;
      ItemOutcome out;
      out.result = "rewritten " + std::to_string(rw.rewritten) + " verified " +
                   std::to_string(rw.verified) + " cells " + std::to_string(rw.cells_before) +
                   " " + std::to_string(rw.cells_after) + " obligations " +
                   std::to_string(rw.verify_obligations) + " " + rw.fallback_reason;
      // An emitted rewrite must carry its proof.
      out.threw = rw.rewritten && !rw.verified;
      return out;
    }
    return prove(*fir4_, rewritten_);
  }

  std::vector<bool> check(std::uint64_t seed) override {
    std::vector<bool> ok;
    for (const Pair& p : pairs_) ok.push_back(lockstep_equal(*p.original, p.isolated, seed));
    const bool rewrite_ok = lockstep_equal(*fir4_, rewritten_, seed);
    ok.push_back(rewrite_ok);
    ok.push_back(rewrite_ok);
    return ok;
  }

  [[nodiscard]] Quality quality() const override { return quality_; }

 private:
  struct Pair {
    const Netlist* original;
    Netlist isolated;
  };
  std::vector<NamedDesign> designs_;
  std::vector<Pair> pairs_;
  const Netlist* fir4_ = nullptr;
  Netlist rewritten_;
  Quality quality_;
};

// ----------------------------------------------------------- lane_sweep

/// `opiso sweep`'s default engine: one task at a time through a
/// one-worker SweepRunner, the lane engine at full plane width.
class LaneSweep : public Workload {
 public:
  static constexpr unsigned kSeedsPerDesign = 3;

  LaneSweep(const std::string& dir, std::uint64_t seed) : runner_(1) {
    designs_ = paper_designs(dir);
    designs_.push_back({"p64", make_parametric_datapath({64, 4, 8, true})});
    for (const NamedDesign& d : designs_) {
      // Fewer cycles per lane on the 2240-cell design (~50x the plane
      // state of the paper designs) keep its tasks within a few times
      // the others' cost.
      const std::uint64_t cycles = d.netlist.num_cells() > 1000 ? 64 : 1024;
      for (unsigned k = 0; k < kSeedsPerDesign; ++k) {
        SweepTask t;
        t.design = d.name;
        t.make_design = [nl = &d.netlist] { return *nl; };
        t.seed = stimulus_seed(seed, k);
        t.cycles = cycles;
        t.lanes = ParallelSimulator::kMaxLanes;
        t.engine = SimEngineKind::Parallel;
        tasks_.push_back(std::move(t));
        items_.push_back({d.name + " seed " + std::to_string(k), d.name, d.netlist.num_cells()});
      }
    }
    last_.resize(tasks_.size());
  }

  ItemOutcome run(std::size_t i) override {
    last_[i] = runner_.run({tasks_[i]}).front();
    const SweepResult& r = last_[i];
    ItemOutcome out;
    out.lane_cycles = r.lane_cycles;
    out.result = "lane_cycles " + std::to_string(r.lane_cycles) + " toggles " +
                 std::to_string(r.toggles) + " power " + hexfloat(r.power_mw);
    return out;
  }

  /// The scalar engine (one Simulator per lane) must reproduce the
  /// first task of every design — its lane-cycles, toggles and power —
  /// bit for bit. The other seeds of a design are only held to the
  /// determinism check.
  std::vector<bool> check(std::uint64_t) override {
    std::vector<bool> ok(tasks_.size(), true);
    for (std::size_t i = 0; i < tasks_.size(); i += kSeedsPerDesign) {
      SweepTask t = tasks_[i];
      t.engine = SimEngineKind::Scalar;
      const SweepResult s = run_sweep_task(t);
      const SweepResult& p = last_[i];
      ok[i] = s.lane_cycles == p.lane_cycles && s.toggles == p.toggles && s.power_mw == p.power_mw;
    }
    return ok;
  }

  [[nodiscard]] Quality quality() const override { return {}; }

 private:
  std::vector<NamedDesign> designs_;
  std::vector<SweepTask> tasks_;
  SweepRunner runner_;
  std::vector<SweepResult> last_;
};

std::unique_ptr<Workload> make_workload(const std::string& name, const std::string& dir,
                                        std::uint64_t seed) {
  if (name == "paper_flow") return make_paper_flow(dir, seed);
  if (name == "wide_datapath") return make_wide_datapath(seed);
  if (name == "equiv_proof") return std::make_unique<EquivProof>(dir, seed);
  if (name == "lane_sweep") return std::make_unique<LaneSweep>(dir, seed);
  return nullptr;
}

// --------------------------------------------------------------- ledger

/// Per-span-name sums over the traced items.
struct SpanSums {
  double total_ms = 0.0;
  double self_ms = 0.0;
};

struct Ledger {
  std::map<std::string, SpanSums> spans;  ///< over every traced item
  /// Per design group: item count, cells and span sums (for exponents).
  struct Group {
    std::size_t items = 0;
    std::size_t cells = 0;
    std::map<std::string, SpanSums> spans;
  };
  std::map<std::string, Group> groups;
  double container_self_ms = 0.0;  ///< self time of spans that have children
  double traced_ms = 0.0;          ///< total of the benchmark's item spans
  std::map<std::string, double> counters;  ///< registry counter deltas
  std::size_t passes = 0;                  ///< traced passes folded
};

/// Registry counters the per-layer metrics read.
const char* const kCounters[] = {"sim.incremental.replays",  "sim.incremental.full_runs",
                                 "isolate.iterations",       "isolate.candidates_evaluated",
                                 "isolate.candidates_isolated", "sim.cycles",
                                 "sim.parallel.lane_cycles"};

void walk(const obs::ProfileNode& node, std::map<std::string, SpanSums>& sums,
          double& container_self_ms) {
  for (const auto& [name, child] : node.children) {
    SpanSums& s = sums[name];
    s.total_ms += static_cast<double>(child->total_ns) / 1e6;
    s.self_ms += static_cast<double>(child->self_ns) / 1e6;
    if (!child->children.empty()) container_self_ms += static_cast<double>(child->self_ns) / 1e6;
    walk(*child, sums, container_self_ms);
  }
}

/// Fold one item's events. Spans a pool worker recorded (tid other
/// than the main thread) are re-parented under the main-thread
/// `sweep.run` span that waited for them, so the tree charges the
/// worker's time to the sweep instead of showing it as a second root.
void fold_item(std::vector<obs::TraceEvent> events, int main_tid, const ItemInfo& item,
               Ledger& ledger) {
  std::vector<const obs::TraceEvent*> waits;
  for (const obs::TraceEvent& e : events) {
    if (e.tid == main_tid && e.name == "sweep.run") waits.push_back(&e);
  }
  for (obs::TraceEvent& e : events) {
    if (e.tid == main_tid) continue;
    for (const obs::TraceEvent* w : waits) {
      if (e.start_ns >= w->start_ns && e.start_ns + e.dur_ns <= w->start_ns + w->dur_ns) {
        e.depth += w->depth + 1;
        e.tid = main_tid;
        break;
      }
    }
  }
  const obs::ProfileNode root = obs::build_profile_tree(events);
  std::map<std::string, SpanSums> sums;
  double container = 0.0;
  walk(root, sums, container);
  for (const auto& [name, s] : sums) {
    ledger.spans[name].total_ms += s.total_ms;
    ledger.spans[name].self_ms += s.self_ms;
  }
  ledger.container_self_ms += container;
  ledger.traced_ms += static_cast<double>(root.total_ns) / 1e6;
  Ledger::Group& g = ledger.groups[item.group];
  ++g.items;
  g.cells = item.cells;
  for (const auto& [name, s] : sums) {
    g.spans[name].total_ms += s.total_ms;
    g.spans[name].self_ms += s.self_ms;
  }
}

struct Exponent {
  double slope = 0.0;
  std::size_t cells_small = 0;
  std::size_t cells_large = 0;
};

/// Log-log least-squares slope of a span's mean per-item time against
/// design cells, over the designs where the span ran, with the smallest
/// and largest cell count used; all zero when fewer than two sizes ran
/// the span.
Exponent size_exponent(const Ledger& ledger, const std::string& span, bool self) {
  std::map<std::size_t, std::pair<double, std::size_t>> by_cells;  // cells -> (ms, items)
  for (const auto& [name, g] : ledger.groups) {
    const auto it = g.spans.find(span);
    if (it == g.spans.end()) continue;
    auto& slot = by_cells[g.cells];
    slot.first += self ? it->second.self_ms : it->second.total_ms;
    slot.second += g.items;
  }
  Exponent e;
  std::vector<std::pair<double, double>> pts;  // (log cells, log mean ms)
  for (const auto& [cells, v] : by_cells) {
    const double mean = v.first / static_cast<double>(v.second);
    if (mean <= 0.0) continue;
    pts.emplace_back(std::log(static_cast<double>(cells)), std::log(mean));
    if (e.cells_small == 0) e.cells_small = cells;
    e.cells_large = cells;
  }
  if (pts.size() < 2) return {};
  double mx = 0, my = 0;
  for (const auto& [x, y] : pts) {
    mx += x;
    my += y;
  }
  mx /= static_cast<double>(pts.size());
  my /= static_cast<double>(pts.size());
  double sxy = 0, sxx = 0;
  for (const auto& [x, y] : pts) {
    sxy += (x - mx) * (y - my);
    sxx += (x - mx) * (x - mx);
  }
  e.slope = sxy / sxx;
  return e;
}

// ---------------------------------------------------------------- stats

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

/// Nearest-rank percentile (p in (0, 1]).
double percentile(std::vector<double> v, double p) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const auto rank = static_cast<std::size_t>(std::ceil(p * static_cast<double>(v.size())));
  return v[std::clamp<std::size_t>(rank, 1, v.size()) - 1];
}

double mean(const std::vector<double>& v) {
  if (v.empty()) return 0.0;
  double s = 0.0;
  for (double x : v) s += x;
  return s / static_cast<double>(v.size());
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB on Linux
}

// ---------------------------------------------------------------- runner

struct Args {
  std::string workload;
  std::uint64_t seed = kDefaultSeed;
  double seconds = 10.0;
  bool trace = false;
};

[[noreturn]] void usage(const std::string& why) {
  std::cerr << "opiso_perfbench: " << why << "\n"
            << "usage: opiso_perfbench --workload paper_flow|wide_datapath|equiv_proof|"
               "lane_sweep [--seed N] [--seconds S] [--trace 0|1]\n"
            << "  --seed defaults to " << kDefaultSeed << "; seed " << kHeldOutSeed
            << " is held out for checking claims\n";
  std::exit(2);
}

Args parse_args(int argc, char** argv) {
  Args a;
  for (int i = 1; i < argc; ++i) {
    const std::string k = argv[i];
    if (i + 1 >= argc) usage("missing value for " + k);
    const std::string v = argv[++i];
    try {
      if (k == "--workload") {
        a.workload = v;
      } else if (k == "--seed") {
        a.seed = std::stoull(v);
      } else if (k == "--seconds") {
        a.seconds = std::stod(v);
      } else if (k == "--trace") {
        a.trace = std::stoi(v) != 0;
      } else {
        usage("unknown flag " + k);
      }
    } catch (const std::logic_error&) {
      usage("bad value for " + k + ": " + v);
    }
  }
  if (a.workload.empty()) usage("--workload is required");
  if (!(a.seconds > 0.0)) usage("--seconds must be positive");
  return a;
}

/// Times workload set-up. The first set-up builds the workload the run
/// measures; further set-ups run between the timed passes (and are
/// thrown away), so the median samples the same stretch of host time as
/// the passes do rather than one burst at start-up.
class SetupClock {
 public:
  SetupClock(const Args& args, Ledger* ledger) : args_(args), ledger_(ledger) {}

  std::unique_ptr<Workload> build() {
    obs::Tracer& tracer = obs::Tracer::instance();
    if (ledger_ != nullptr) {
      tracer.clear();
      tracer.set_enabled(true);
    }
    const auto t0 = Clock::now();
    std::unique_ptr<Workload> w;
    {
      OPISO_SPAN("bench.setup");
      w = make_workload(args_.workload, kDesignsDir, args_.seed);
    }
    times_.push_back(seconds_since(t0));
    if (ledger_ != nullptr) {
      tracer.set_enabled(false);
      fold_item(tracer.events(), obs::Tracer::current_thread_index(), {"setup", "setup", 0},
                *ledger_);
      tracer.clear();
    }
    if (!w) usage("unknown workload '" + args_.workload + "'");
    return w;
  }

  /// One set-up, then more until 20 ms are spent or 10 are done.
  void between_passes() {
    const auto t0 = Clock::now();
    std::size_t n = 0;
    do {
      build();
      ++n;
    } while (n < 10 && seconds_since(t0) < 0.02);
  }

  [[nodiscard]] double median_s() const { return median(times_); }
  [[nodiscard]] std::size_t reps() const { return times_.size(); }

 private:
  const Args& args_;
  Ledger* ledger_;
  std::vector<double> times_;
};

/// Everything the timed passes observed.
struct PassLog {
  explicit PassLog(std::size_t items)
      : threw(items, 0), verdict(items, Verdict::None), bdd_nodes(items, 0),
        obligations(items, 0) {}
  // Untraced passes only: the end-to-end figures.
  std::vector<double> item_ms;
  std::vector<double> pass_s;  ///< sum of the pass's item times
  std::vector<std::uint64_t> pass_lane_cycles;
  std::vector<double> traced_pass_s;  ///< traced passes (trace runs)
  std::size_t passes = 0;             ///< every timed pass
  /// Per item index: passes in which it threw, and its last outcome.
  std::vector<std::size_t> threw;
  std::vector<Verdict> verdict;
  std::vector<std::size_t> bdd_nodes, obligations;
};

class PassRunner {
 public:
  explicit PassRunner(Workload& w) : w_(w) {}

  /// Run one pass. `log` (null for the warm-up) receives the outcomes
  /// and timings; a non-null `ledger` traces the pass and receives its
  /// folded spans and counter deltas.
  void pass(PassLog* log, Ledger* ledger) {
    obs::Tracer& tracer = obs::Tracer::instance();
    const int main_tid = obs::Tracer::current_thread_index();
    std::map<std::string, double> counters_before;
    if (ledger != nullptr) {
      for (const char* c : kCounters) {
        counters_before[c] = static_cast<double>(obs::metrics().counter(c).value());
      }
    }
    std::vector<std::string> results;
    double pass_s = 0.0;
    std::uint64_t lane_cycles = 0;
    for (std::size_t i = 0; i < w_.items().size(); ++i) {
      ItemOutcome out;
      if (ledger != nullptr) {
        tracer.clear();
        tracer.set_enabled(true);
      }
      const auto t0 = Clock::now();
      try {
        OPISO_SPAN("bench.item");
        out = w_.run(i);
      } catch (const std::exception& e) {
        out.threw = true;
        out.result = std::string("threw: ") + e.what();
      }
      const double s = seconds_since(t0);
      if (ledger != nullptr) {
        tracer.set_enabled(false);
        fold_item(tracer.events(), main_tid, w_.items()[i], *ledger);
        tracer.clear();
      }
      pass_s += s;
      lane_cycles += out.lane_cycles;
      results.push_back(out.result);
      if (log != nullptr) {
        if (ledger == nullptr) log->item_ms.push_back(s * 1e3);
        if (out.threw) ++log->threw[i];
        log->verdict[i] = out.verdict;
        log->bdd_nodes[i] = out.bdd_nodes;
        log->obligations[i] = out.obligations;
      }
    }
    if (ledger != nullptr) {
      for (const char* c : kCounters) {
        ledger->counters[c] +=
            static_cast<double>(obs::metrics().counter(c).value()) - counters_before[c];
      }
      ++ledger->passes;
    }
    if (log != nullptr) {
      if (ledger != nullptr) {
        log->traced_pass_s.push_back(pass_s);
      } else {
        log->pass_s.push_back(pass_s);
        log->pass_lane_cycles.push_back(lane_cycles);
      }
      ++log->passes;
    }
    if (reference_.empty()) {
      reference_ = results;
    } else if (results != reference_) {
      deterministic_ = false;
    }
  }

  /// Timed passes until `seconds` elapse, with set-up samples taken
  /// between them. With a ledger, passes alternate untraced and traced
  /// (at least one of each), so both sample the same stretch of time.
  void timed(double seconds, PassLog& log, Ledger* ledger, SetupClock& setups) {
    const auto t0 = Clock::now();
    for (std::size_t k = 0;; ++k) {
      const bool traced = ledger != nullptr && k % 2 == 1;
      pass(&log, traced ? ledger : nullptr);
      setups.between_passes();
      if (seconds_since(t0) >= seconds && (ledger == nullptr || traced)) break;
    }
  }

  [[nodiscard]] bool deterministic() const { return deterministic_; }
  [[nodiscard]] const std::vector<std::string>& reference() const { return reference_; }

 private:
  Workload& w_;
  std::vector<std::string> reference_;
  bool deterministic_ = true;
};

std::string fmt(double v) {
  std::ostringstream os;
  os.precision(17);
  os << v;
  return os.str();
}

struct Metric {
  std::string name;
  double value;
  std::string unit;
  std::string note = {};  ///< printed beside the value, not in the JSON
};

void emit_json(bool correct, std::size_t attempted, std::size_t failed,
               const std::vector<Metric>& metrics) {
  std::cout << "{\"correct\": " << (correct ? "true" : "false") << ", \"attempted\": " << attempted
            << ", \"failed\": " << failed << ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    const Metric& m = metrics[i];
    std::cout << (i ? ", " : "") << "\"" << m.name << "\": {\"value\": " << fmt(m.value)
              << ", \"unit\": \"" << m.unit << "\"}";
  }
  std::cout << "}}" << std::endl;
}

void print_line(const std::string& name, const std::string& value, const std::string& unit,
                const std::string& note = "") {
  std::printf("  %-40s %18s %-10s %s\n", name.c_str(), value.c_str(), unit.c_str(), note.c_str());
}

int run(const Args& args) {
  Ledger setup_ledger;
  SetupClock setups(args, args.trace ? &setup_ledger : nullptr);
  const std::unique_ptr<Workload> workload = setups.build();
  Workload& w = *workload;
  const std::size_t n_items = w.items().size();

  PassRunner runner(w);
  runner.pass(nullptr, nullptr);  // warm-up: caches, allocator, lazy set-up
  setups.between_passes();

  PassLog log(n_items);
  Ledger ledger;
  runner.timed(args.seconds, log, args.trace ? &ledger : nullptr, setups);

  // Output check (untimed): classify every timed item instance.
  const auto t_check = Clock::now();
  const std::vector<bool> ok = w.check(args.seed ^ 0x5EEDC0DEull);
  const double check_s = seconds_since(t_check);
  bool sound = runner.deterministic();
  std::size_t attempted = log.passes * n_items;
  std::size_t failed = 0, proofs = 0, proven = 0, undecided = 0, wrong = 0;
  std::size_t bdd_nodes = 0, obligations = 0;
  const auto item_failed = [&](std::size_t i) {
    return log.threw[i] > 0 || !ok[i] || log.verdict[i] == Verdict::NotEquivalent;
  };
  for (std::size_t i = 0; i < n_items; ++i) {
    const Verdict v = log.verdict[i];
    // A wrong output or verdict fails the item in every pass (the
    // determinism check holds every pass to the same result).
    failed += (!ok[i] || v == Verdict::NotEquivalent) ? log.passes : log.threw[i];
    if (!ok[i]) sound = false;
    if (v != Verdict::None) {
      ++proofs;
      if (v == Verdict::Equivalent) ++proven;
      if (v == Verdict::Undecided) ++undecided;
      if (v == Verdict::NotEquivalent) ++wrong;
      bdd_nodes += log.bdd_nodes[i];
      obligations += log.obligations[i];
    }
  }

  const Quality q = w.quality();
  const double wall_s = median(log.pass_s);
  std::vector<double> lcps;
  for (std::size_t p = 0; p < log.pass_s.size(); ++p) {
    lcps.push_back(static_cast<double>(log.pass_lane_cycles[p]) / log.pass_s[p]);
  }
  std::uint64_t digest = 0xCBF29CE484222325ull;
  for (std::size_t i = 0; i < n_items; ++i) {
    digest = fnv1a(digest, w.items()[i].label + ": " + runner.reference()[i] + "\n");
  }

  std::printf("workload %s seed %llu: %zu timed passes x %zu items = %zu items, trace %s\n",
              args.workload.c_str(), static_cast<unsigned long long>(args.seed), log.passes,
              n_items, attempted, args.trace ? "on" : "off");
  const std::size_t n = log.item_ms.size();
  const std::string na = "n/a";
  const double setup_s = setups.median_s();
  print_line("setup_s", fmt(setup_s), "s", "median of " + std::to_string(setups.reps()) + " set-ups");
  print_line("wall_s", fmt(wall_s), "s",
             "median pass; quartiles " + fmt(percentile(log.pass_s, 0.25)) + " " +
                 fmt(percentile(log.pass_s, 0.75)));
  print_line("item_ms_p50", fmt(percentile(log.item_ms, 0.5)), "ms",
             "n=" + std::to_string(n));
  if (n >= 100) {
    print_line("item_ms_p90", fmt(percentile(log.item_ms, 0.9)), "ms", "n=" + std::to_string(n));
  } else {
    print_line("item_ms_p90", na, "ms", "n=" + std::to_string(n) + " < 100 items");
  }
  const bool sweeps = args.workload == "lane_sweep";
  print_line("lane_cycles_per_s", sweeps ? fmt(median(lcps)) : na, "1/s",
             sweeps ? "median pass" : "workload runs no lane sweep");
  const bool flows = !q.power_reduction_pct.empty();
  print_line("power_reduction_pct", flows ? fmt(mean(q.power_reduction_pct)) : na, "%",
             flows ? "mean of " + std::to_string(q.power_reduction_pct.size()) + " flows"
                   : "workload runs no isolation flow");
  print_line("area_increase_pct", flows ? fmt(mean(q.area_increase_pct)) : na, "%",
             flows ? "mean of " + std::to_string(q.area_increase_pct.size()) + " flows"
                   : "workload runs no isolation flow");
  print_line("proven_frac", proofs ? fmt(static_cast<double>(proven) / proofs) : na, "frac",
             proofs ? std::to_string(proven) + "/" + std::to_string(proofs) +
                          " proofs per pass; " + std::to_string(undecided) + " undecided, " +
                          std::to_string(wrong) + " wrong"
                    : "workload runs no proof");
  print_line("failed_frac", fmt(static_cast<double>(failed) / static_cast<double>(attempted)),
             "frac", std::to_string(failed) + "/" + std::to_string(attempted));
  print_line("peak_rss_mb", fmt(peak_rss_mb()), "MB");
  std::printf("  output check %.3f s\n", check_s);
  for (std::size_t i = 0; i < n_items; ++i) {
    std::vector<double> ms;
    for (std::size_t k = i; k < log.item_ms.size(); k += n_items) ms.push_back(log.item_ms[k]);
    std::printf("  item %-24s %6zu cells %12.3f ms median  %s%s\n", w.items()[i].label.c_str(),
                w.items()[i].cells, median(ms),
                item_failed(i) ? "FAILED: "
                            : (log.verdict[i] == Verdict::Undecided ? "undecided: " : "ok: "),
                runner.reference()[i].c_str());
  }
  std::printf("result_digest %016llx\n", static_cast<unsigned long long>(digest));

  std::vector<Metric> metrics;
  if (!args.trace) {
    metrics = {{"setup_s", setup_s, "s"},
               {"wall_s", wall_s, "s"},
               {"item_ms_p50", percentile(log.item_ms, 0.5), "ms"},
               {"peak_rss_mb", peak_rss_mb(), "MB"}};
  } else {
    const double passes = static_cast<double>(ledger.passes);
    const auto span_total = [&](const char* name) {
      const auto it = ledger.spans.find(name);
      return it == ledger.spans.end() ? 0.0 : it->second.total_ms / passes;
    };
    const auto span_self = [&](const char* name) {
      const auto it = ledger.spans.find(name);
      return it == ledger.spans.end() ? 0.0 : it->second.self_ms / passes;
    };
    const auto per_pass = [&](const char* counter) { return ledger.counters[counter] / passes; };
    const double evaluated = per_pass("isolate.candidates_evaluated");
    const double isolated = per_pass("isolate.candidates_isolated");
    const auto parse_it = setup_ledger.spans.find("frontend.parse");
    const double parse_ms = parse_it == setup_ledger.spans.end()
                                ? 0.0
                                : parse_it->second.total_ms / static_cast<double>(setups.reps());
    metrics = {
        {"sim.run_ms", span_total("sim.run"), "ms/pass"},
        {"sim.replay_ms", span_total("sim.incremental.replay"), "ms/pass"},
        {"sim.replay_rounds", per_pass("sim.incremental.replays"), "count/pass"},
        {"sim.full_rounds", per_pass("sim.incremental.full_runs"), "count/pass"},
        {"isolation.iteration_self_ms", span_self("isolate.iteration"), "ms/pass"},
        {"isolation.final_measure_self_ms", span_self("isolate.final_measure"), "ms/pass"},
        {"isolation.evaluate_ms", span_total("isolate.evaluate"), "ms/pass"},
        {"isolation.commit_ms", span_total("isolate.commit"), "ms/pass"},
        {"isolation.iterations", per_pass("isolate.iterations"), "count/pass"},
        {"isolation.candidates_evaluated", evaluated, "count/pass"},
        {"isolation.modules_isolated", isolated, "count/pass"},
        {"isolation.accept_ratio", evaluated > 0 ? isolated / evaluated : 0.0, "frac"},
        {"verify.proof_ms", span_total("verify.proof"), "ms/pass"},
        {"verify.bdd_nodes", static_cast<double>(bdd_nodes), "count/pass"},
        {"verify.obligations", static_cast<double>(obligations), "count/pass"},
        {"verify.proven", static_cast<double>(proven), "count/pass"},
        {"verify.undecided", static_cast<double>(undecided), "count/pass"},
        {"verify.wrong", static_cast<double>(wrong), "count/pass"},
        {"opt.rewrite_ms", span_total("opt.rewrite"), "ms/pass"},
        {"sim.parallel_run_ms", span_total("sim.parallel.run"), "ms/pass"},
        {"sweep.task_ms", span_total("sweep.task"), "ms/pass"},
        {"sim.lane_cycles", per_pass("sim.cycles") + per_pass("sim.parallel.lane_cycles"),
         "count/pass"},
        {"frontend.parse_ms", parse_ms, "ms/setup"},
        {"lint.run_ms", span_total("lint.run"), "ms/pass"},
        {"activation.derive_ms", span_total("activation.derive"), "ms/pass"},
        {"candidates.identify_ms", span_total("candidates.identify"), "ms/pass"},
        {"timing.sta_ms", span_total("sta.run"), "ms/pass"},
        {"power.estimate_ms", span_total("power.estimate"), "ms/pass"},
    };
    const std::pair<const char*, std::pair<const char*, bool>> fits[] = {
        {"activation.size_exponent", {"activation.derive", false}},
        {"candidates.size_exponent", {"candidates.identify", false}},
        {"timing.size_exponent", {"sta.run", false}},
        {"isolation.iteration_self.size_exponent", {"isolate.iteration", true}},
        {"isolation.evaluate.size_exponent", {"isolate.evaluate", false}},
        {"sim.replay.size_exponent", {"sim.incremental.replay", false}},
        {"sim.run.size_exponent", {"sim.run", false}},
    };
    std::size_t small = 0, large = 0;
    for (const auto& [metric, span] : fits) {
      const Exponent e = size_exponent(ledger, span.first, span.second);
      metrics.push_back({metric, e.slope, "1",
                         e.cells_large > 0 ? "between " + std::to_string(e.cells_small) + " and " +
                                                 std::to_string(e.cells_large) + " cells"
                                           : "fewer than two sizes ran the span"});
      if (e.cells_large > 0) {
        small = e.cells_small;
        large = e.cells_large;
      }
    }
    metrics.push_back({"size_exponent.cells_small", static_cast<double>(small), "count"});
    metrics.push_back({"size_exponent.cells_large", static_cast<double>(large), "count"});
    const double traced_s = median(log.traced_pass_s);
    metrics.push_back({"bench.unattributed_pct",
                       ledger.traced_ms > 0 ? 100.0 * ledger.container_self_ms / ledger.traced_ms
                                            : 0.0,
                       "%"});
    metrics.push_back({"bench.trace_overhead_pct",
                       wall_s > 0 ? 100.0 * (traced_s / wall_s - 1.0) : 0.0, "%"});
    for (const Metric& m : metrics) print_line(m.name, fmt(m.value), m.unit, m.note);
  }
  emit_json(sound, attempted, failed, metrics);
  return 0;
}

}  // namespace
}  // namespace opiso::perfbench

int main(int argc, char** argv) {
  const opiso::perfbench::Args args = opiso::perfbench::parse_args(argc, argv);
  try {
    return opiso::perfbench::run(args);
  } catch (const std::exception& e) {
    std::cerr << "opiso_perfbench: " << e.what() << "\n";
    return 1;
  }
}
