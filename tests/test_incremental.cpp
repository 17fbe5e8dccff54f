// Differential tests for dirty-cone incremental re-simulation: after
// any sequence of isolation transforms, IncrementalSession::measure must
// produce statistics BITWISE IDENTICAL to a fresh full run of the
// configured engine — same counters, same probes, same batch-means
// windows.
// The full engine is the oracle, on every bundled design and both
// engines, including a fixed-seed fuzz loop that toggles random banks
// between rounds.
#include <gtest/gtest.h>

#include <memory>
#include <random>
#include <vector>

#include "designs/designs.hpp"
#include "frontend/rtl_parser.hpp"
#include "isolation/activation.hpp"
#include "isolation/algorithm.hpp"
#include "isolation/candidates.hpp"
#include "isolation/transform.hpp"
#include "netlist/traversal.hpp"
#include "obs/confidence.hpp"
#include "sim/incremental.hpp"
#include "sim/parallel_sim.hpp"
#include "sim/simulator.hpp"
#include "sim/sweep.hpp"

namespace opiso {
namespace {

IncrementalConfig make_cfg(SimEngineKind engine, std::uint64_t cycles = 512,
                           std::uint64_t warmup = 32, unsigned lanes = 64) {
  IncrementalConfig cfg;
  cfg.engine = engine;
  cfg.lanes = lanes;
  cfg.warmup_cycles = warmup;
  cfg.sim_cycles = cycles;
  return cfg;
}

IncrementalSession::StimulusFactory scalar_factory(std::uint64_t seed) {
  return [seed] { return std::make_unique<UniformStimulus>(seed); };
}

IncrementalSession::LaneStimulusFactory lane_factory(std::uint64_t seed) {
  return [seed](unsigned lane) {
    return std::make_unique<UniformStimulus>(sweep_lane_seed(seed, lane));
  };
}

/// Probe expressions over a few 1-bit nets of the current netlist, so
/// the probe counters (which the replay must re-evaluate every round)
/// are always exercised.
std::vector<ExprRef> make_probes(const Netlist& nl, ExprPool& pool, NetVarMap& vars) {
  std::vector<BoolVar> bits;
  for (NetId id : nl.net_ids()) {
    if (nl.net(id).width == 1) bits.push_back(vars.var_of(nl, id));
    if (bits.size() >= 3) break;
  }
  std::vector<ExprRef> probes;
  if (bits.empty()) return probes;
  probes.push_back(pool.var(bits[0]));
  probes.push_back(pool.lnot(pool.var(bits[0])));
  if (bits.size() >= 2) probes.push_back(pool.land(pool.var(bits[0]), pool.var(bits[1])));
  if (bits.size() >= 3) {
    probes.push_back(pool.lor(pool.var(bits[1]), pool.lnot(pool.var(bits[2]))));
  }
  return probes;
}

/// The oracle: a fresh full engine run with the exact warmup/cycle
/// split the session uses (the measure_activity discipline).
ActivityStats full_reference(const Netlist& nl, const IncrementalConfig& cfg,
                             std::uint64_t seed, const ExprPool* pool, const NetVarMap* vars,
                             const std::vector<ExprRef>& probes) {
  if (cfg.engine == SimEngineKind::Parallel) {
    ParallelSimulator sim(nl, cfg.lanes, pool, vars);
    if (cfg.batch_frames != 0) sim.enable_batch_stats(cfg.batch_frames);
    for (ExprRef p : probes) (void)sim.add_probe(p);
    sim.set_stimulus([seed](unsigned lane) {
      return std::make_unique<UniformStimulus>(sweep_lane_seed(seed, lane));
    });
    const std::uint64_t lanes = sim.lanes();
    if (cfg.warmup_cycles > 0) sim.warmup((cfg.warmup_cycles + lanes - 1) / lanes);
    sim.run(std::max<std::uint64_t>(1, cfg.sim_cycles / lanes));
    return sim.stats();
  }
  Simulator sim(nl, pool, vars);
  if (cfg.batch_frames != 0) sim.enable_batch_stats(cfg.batch_frames);
  for (ExprRef p : probes) (void)sim.add_probe(p);
  UniformStimulus stim(seed);
  if (cfg.warmup_cycles > 0) sim.warmup(stim, cfg.warmup_cycles);
  sim.run(stim, cfg.sim_cycles);
  return sim.stats();
}

/// Every window cell of a batch-means accumulator, the partial last
/// window included, in (window, series) order.
std::vector<std::uint64_t> batch_cells(const obs::BatchAccumulator& acc) {
  std::vector<std::uint64_t> cells;
  if (!acc.enabled()) return cells;
  const std::uint64_t windows = (acc.num_frames() + acc.batch_frames() - 1) / acc.batch_frames();
  for (std::uint64_t w = 0; w < windows; ++w) {
    for (std::size_t s = 0; s < acc.num_series(); ++s) cells.push_back(acc.cell(w, s));
  }
  return cells;
}

void expect_batches_equal(const obs::BatchAccumulator& got, const obs::BatchAccumulator& want) {
  EXPECT_EQ(got.batch_frames(), want.batch_frames());
  EXPECT_EQ(got.num_series(), want.num_series());
  EXPECT_EQ(got.num_frames(), want.num_frames());
  EXPECT_EQ(batch_cells(got), batch_cells(want));
}

void expect_stats_equal(const ActivityStats& got, const ActivityStats& want) {
  EXPECT_EQ(got.cycles, want.cycles);
  EXPECT_EQ(got.toggles, want.toggles);
  EXPECT_EQ(got.ones, want.ones);
  EXPECT_EQ(got.probe_true, want.probe_true);
  EXPECT_EQ(got.probe_toggles, want.probe_toggles);
  expect_batches_equal(got.net_batches, want.net_batches);
  expect_batches_equal(got.probe_batches, want.probe_batches);
}

/// Isolate the first not-yet-isolated legal candidate; returns false if
/// the design has none left. `rng`, when set, picks a random one.
bool isolate_one(Netlist& nl, IsolationStyle style, std::mt19937_64* rng = nullptr) {
  ExprPool pool;
  NetVarMap vars;
  const ActivationAnalysis analysis = derive_activation(nl, pool, vars, {});
  const std::vector<CombBlock> blocks = combinational_blocks(nl);
  std::vector<IsolationCandidate> cands =
      identify_candidates(nl, blocks, analysis, pool, CandidateConfig{});
  std::vector<IsolationCandidate> eligible;
  for (const IsolationCandidate& c : cands) {
    if (c.already_isolated) continue;
    if (!isolation_is_legal(nl, pool, vars, c.cell, c.activation)) continue;
    eligible.push_back(c);
  }
  if (eligible.empty()) return false;
  std::size_t pick = 0;
  if (rng != nullptr) pick = (*rng)() % eligible.size();
  isolate_module(nl, pool, vars, eligible[pick].cell, eligible[pick].activation, style);
  nl.validate();
  return true;
}

Netlist make_named_design(const std::string& name) {
  if (name == "fig1") return make_fig1();
  if (name == "design1") return make_design1();
  if (name == "design2") return make_design2();
  if (name == "parametric") return make_parametric_datapath({});
  return parse_rtl_file(std::string(OPISO_DESIGNS_RTL_DIR "/") + name);
}

const char* kDesigns[] = {"fig1", "design1", "design2", "parametric",
                          "fig1.rtl", "design1.rtl", "fir4.rtl"};

/// The core differential harness: baseline round, then rounds of
/// committed banks, each replayed round compared against the oracle —
/// counters, probes, and the batch-means windows the replay splices.
void run_differential(const std::string& design, SimEngineKind engine) {
  SCOPED_TRACE(testing::Message() << "design=" << design << " engine="
                                  << (engine == SimEngineKind::Parallel ? "parallel" : "scalar"));
  Netlist nl = make_named_design(design);
  IncrementalConfig cfg = make_cfg(engine);
  cfg.batch_frames = 16;
  IncrementalSession session(scalar_factory(1), lane_factory(1), cfg);

  const IsolationStyle styles[] = {IsolationStyle::And, IsolationStyle::Or,
                                   IsolationStyle::Latch};
  for (int round = 0; round < 4; ++round) {
    ExprPool pool;
    NetVarMap vars;
    const std::vector<ExprRef> probes = make_probes(nl, pool, vars);
    const ActivityStats got = session.measure(nl, &pool, &vars, [&probes](ProbeHost& sim) {
      for (ExprRef p : probes) (void)sim.add_probe(p);
    });
    const ActivityStats want = full_reference(nl, cfg, 1, &pool, &vars, probes);
    SCOPED_TRACE(testing::Message() << "round=" << round);
    ASSERT_TRUE(want.net_batches.enabled());
    expect_stats_equal(got, want);
    if (!isolate_one(nl, styles[round % 3])) break;
  }
  EXPECT_EQ(session.full_runs(), 1u);  // only round 0 ran the engine in full
  EXPECT_GE(session.replays(), 1u);
}

TEST(Incremental, MatchesFullScalarOnAllDesigns) {
  for (const char* d : kDesigns) run_differential(d, SimEngineKind::Scalar);
}

TEST(Incremental, MatchesFullParallelOnAllDesigns) {
  for (const char* d : kDesigns) run_differential(d, SimEngineKind::Parallel);
}

TEST(Incremental, OddLaneCountAndCycleSplit) {
  // Lane counts that do not divide the plane width and cycle counts
  // that do not divide the lanes stress the macro-cycle bookkeeping.
  Netlist nl = make_design2();
  IncrementalConfig cfg = make_cfg(SimEngineKind::Parallel, 500, 37, 23);
  IncrementalSession session(scalar_factory(3), lane_factory(3), cfg);
  for (int round = 0; round < 3; ++round) {
    const ActivityStats got = session.measure(nl, nullptr, nullptr);
    const ActivityStats want = full_reference(nl, cfg, 3, nullptr, nullptr, {});
    SCOPED_TRACE(testing::Message() << "round=" << round);
    expect_stats_equal(got, want);
    if (!isolate_one(nl, IsolationStyle::Or)) break;
  }
}

// Fixed-seed fuzz loop: random designs, random bank toggles between
// rounds, both engines — incremental must match full every time.
TEST(Incremental, FuzzRandomBankToggles) {
  std::mt19937_64 rng(0xC0FFEEu);
  const char* designs[] = {"fig1", "design1", "design2", "fir4.rtl"};
  for (int trial = 0; trial < 6; ++trial) {
    const std::string design = designs[trial % 4];
    const SimEngineKind engine =
        (rng() & 1) != 0 ? SimEngineKind::Parallel : SimEngineKind::Scalar;
    SCOPED_TRACE(testing::Message() << "trial=" << trial << " design=" << design);
    Netlist nl = make_named_design(design);
    const std::uint64_t seed = 1 + (rng() % 1000);
    const IncrementalConfig cfg = make_cfg(engine, 256, 16);
    IncrementalSession session(scalar_factory(seed), lane_factory(seed), cfg);
    const IsolationStyle styles[] = {IsolationStyle::And, IsolationStyle::Or,
                                     IsolationStyle::Latch};
    for (int round = 0; round < 4; ++round) {
      ExprPool pool;
      NetVarMap vars;
      const std::vector<ExprRef> probes = make_probes(nl, pool, vars);
      const ActivityStats got = session.measure(nl, &pool, &vars, [&probes](ProbeHost& sim) {
        for (ExprRef p : probes) (void)sim.add_probe(p);
      });
      const ActivityStats want = full_reference(nl, cfg, seed, &pool, &vars, probes);
      SCOPED_TRACE(testing::Message() << "round=" << round);
      expect_stats_equal(got, want);
      if (!isolate_one(nl, styles[rng() % 3], &rng)) break;
    }
  }
}

TEST(Incremental, TapeBudgetFallsBackToFull) {
  Netlist nl = make_design1();
  IncrementalConfig cfg = make_cfg(SimEngineKind::Scalar, 256);
  cfg.tape_budget_bytes = 1;  // nothing fits: every round must run in full
  IncrementalSession session(scalar_factory(1), lane_factory(1), cfg);
  for (int round = 0; round < 3; ++round) {
    const ActivityStats got = session.measure(nl, nullptr, nullptr);
    const ActivityStats want = full_reference(nl, cfg, 1, nullptr, nullptr, {});
    expect_stats_equal(got, want);
    if (!isolate_one(nl, IsolationStyle::And)) break;
  }
  EXPECT_FALSE(session.incremental_available());
  EXPECT_EQ(session.replays(), 0u);
  EXPECT_EQ(session.tape_bytes(), 0u);
}

TEST(Incremental, RebasesOnNonAppendEvolution) {
  // A structurally unrelated netlist cannot be expressed as an
  // append-only evolution: the session must rebase (fresh full run on
  // the new design) and still return oracle-identical statistics.
  const IncrementalConfig cfg = make_cfg(SimEngineKind::Scalar, 256);
  IncrementalSession session(scalar_factory(1), lane_factory(1), cfg);
  Netlist a = make_design1();
  expect_stats_equal(session.measure(a, nullptr, nullptr),
                     full_reference(a, cfg, 1, nullptr, nullptr, {}));
  Netlist b = make_fig1();
  expect_stats_equal(session.measure(b, nullptr, nullptr),
                     full_reference(b, cfg, 1, nullptr, nullptr, {}));
  EXPECT_EQ(session.full_runs(), 2u);
  // The rebase re-captured: an evolution of fig1 now replays.
  ASSERT_TRUE(isolate_one(b, IsolationStyle::And));
  expect_stats_equal(session.measure(b, nullptr, nullptr),
                     full_reference(b, cfg, 1, nullptr, nullptr, {}));
  EXPECT_EQ(session.replays(), 1u);
}

TEST(Incremental, VerifyStimulusAcceptsRoundInvariantFactory) {
  Netlist nl = make_design2();
  IncrementalConfig cfg = make_cfg(SimEngineKind::Scalar, 256);
  cfg.verify_stimulus = true;
  IncrementalSession session(scalar_factory(5), lane_factory(5), cfg);
  for (int round = 0; round < 2; ++round) {
    const ActivityStats got = session.measure(nl, nullptr, nullptr);
    expect_stats_equal(got, full_reference(nl, cfg, 5, nullptr, nullptr, {}));
    if (!isolate_one(nl, IsolationStyle::And)) break;
  }
  EXPECT_TRUE(session.incremental_available());
  EXPECT_GE(session.replays(), 1u);
}

TEST(Incremental, VerifyStimulusDetectsNonInvariantFactory) {
  // A factory that yields a different stream every call violates the
  // session contract; verify_stimulus must catch it before the replay
  // and fall back to a (correct) full measurement permanently.
  Netlist nl = make_design1();
  IncrementalConfig cfg = make_cfg(SimEngineKind::Scalar, 256);
  cfg.verify_stimulus = true;
  std::uint64_t next_seed = 1;
  IncrementalSession session(
      [&next_seed] { return std::make_unique<UniformStimulus>(next_seed++); }, nullptr, cfg);
  (void)session.measure(nl, nullptr, nullptr);
  ASSERT_TRUE(isolate_one(nl, IsolationStyle::And));
  const ActivityStats got = session.measure(nl, nullptr, nullptr);
  EXPECT_FALSE(session.incremental_available());
  // The fallback round itself is a plain full run under seed 3 (the
  // check consumed seed 2 to detect the mismatch).
  expect_stats_equal(got, full_reference(nl, cfg, 3, nullptr, nullptr, {}));
}

// End-to-end: Algorithm 1 with the incremental session enabled must
// reproduce the non-incremental run exactly — records, iterations and
// power numbers — on both engines.
TEST(Incremental, IsolationLoopBitIdentical) {
  for (const char* d : {"fig1", "design1", "design2"}) {
    for (SimEngineKind engine : {SimEngineKind::Scalar, SimEngineKind::Parallel}) {
      SCOPED_TRACE(testing::Message() << "design=" << d << " engine="
                                      << static_cast<int>(engine));
      IsolationOptions opt;
      opt.sim_cycles = 1024;
      opt.sim_engine = engine;
      opt.lane_stimuli = lane_factory(1);
      opt.incremental = true;
      const IsolationResult inc = run_operand_isolation(
          make_named_design(d), scalar_factory(1), opt);
      opt.incremental = false;
      const IsolationResult full = run_operand_isolation(
          make_named_design(d), scalar_factory(1), opt);

      EXPECT_EQ(inc.records.size(), full.records.size());
      EXPECT_EQ(inc.iterations.size(), full.iterations.size());
      EXPECT_EQ(inc.power_before_mw, full.power_before_mw);
      EXPECT_EQ(inc.power_after_mw, full.power_after_mw);
      EXPECT_EQ(inc.area_after_um2, full.area_after_um2);
      for (std::size_t i = 0; i < std::min(inc.records.size(), full.records.size()); ++i) {
        EXPECT_EQ(inc.records[i].candidate, full.records[i].candidate);
        EXPECT_EQ(inc.records[i].style, full.records[i].style);
      }
      for (std::size_t i = 0; i < std::min(inc.iterations.size(), full.iterations.size());
           ++i) {
        EXPECT_EQ(inc.iterations[i].total_power_mw, full.iterations[i].total_power_mw);
        EXPECT_EQ(inc.iterations[i].num_isolated, full.iterations[i].num_isolated);
      }
    }
  }
}

}  // namespace
}  // namespace opiso
