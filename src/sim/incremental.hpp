#pragma once
// Dirty-cone incremental re-simulation.
//
// The isolation loop (Algorithm 1) re-simulates the whole design after
// every committed bank, yet one iteration changes only a handful of
// cells: the rewired candidate, the inserted bank cells and the
// synthesized activation logic. Every cell outside the *dirty cone* —
// the forward closure of those changes over net fanouts, through
// registers — provably replays the previous simulation cycle for
// cycle, because its inputs see bit-identical values under the same
// stimulus.
//
// An IncrementalSession exploits that: the first measurement round runs
// the configured engine in full while recording a frame tape (the
// settled per-net values — scalar — or the settled plane words —
// lane-parallel — of every cycle, warmup included, via the engines'
// FrameSink hook). Each later round diffs the evolved netlist against
// the baseline (changed_cells), closes the diff into a dirty cone
// (dirty_cone), and runs the same engine in replay mode over that cone
// (Simulator / ParallelSimulator constructed with a replay cone): per
// cycle the engine memcpys the tape frame into the stable prefix of its
// value/plane array instead of drawing stimulus, then settles, counts
// and clocks only the cone — so cone values, probes and batch windows
// are bit-identical to a full re-run by construction. The session then
// splices the baseline run's counters back in for every net outside the
// cone (assemble).
//
// Contract: the stimulus factories must be deterministic and
// round-invariant — every call must yield the same value sequence (the
// CLI's seeded factories do). Otherwise a full re-simulation would not
// reproduce the tape either; verify_stimulus spot-checks the contract
// on the scalar engine by re-drawing the stimulus before a replay and
// comparing it against the tape's primary-input slots.
//
// Fallbacks are silent and safe: a tape exceeding tape_budget_bytes, a
// netlist evolution changed_cells cannot express, or a verify mismatch
// all disable the session's incremental path, and every round simply
// runs the full engine (counted in sim.incremental.* metrics).

#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <vector>

#include "boolfn/expr.hpp"
#include "netlist/netlist.hpp"
#include "sim/activity.hpp"
#include "sim/engine.hpp"
#include "sim/stimulus.hpp"

namespace opiso {

struct IncrementalConfig {
  SimEngineKind engine = SimEngineKind::Scalar;
  /// Lanes of the parallel engine (ignored by the scalar engine).
  unsigned lanes = 64;
  /// Total warmup / measured lane-cycles; the parallel engine splits
  /// them across its lanes exactly as the isolation loop does.
  std::uint64_t warmup_cycles = 32;
  std::uint64_t sim_cycles = 4096;
  /// Frame-tape memory ceiling. A run whose tape would exceed it is not
  /// captured and the session measures in full every round.
  std::size_t tape_budget_bytes = std::size_t{256} << 20;
  /// Before each scalar replay, re-draw the stimulus and compare it
  /// against the tape's primary inputs (detects non-round-invariant
  /// factories).
  bool verify_stimulus = false;
  /// Collect batch-means moments (obs/confidence.hpp) in every round:
  /// replays recompute dirty-net and probe cells and splice the carried
  /// clean-net cells, so the confidence section stays bitwise identical
  /// to full re-simulation. 0 disables.
  std::uint32_t batch_frames = 0;
};

class IncrementalSession {
 public:
  using StimulusFactory = std::function<std::unique_ptr<Stimulus>()>;
  using LaneStimulusFactory = std::function<std::unique_ptr<Stimulus>(unsigned lane)>;
  using ProbeRegistrar = std::function<void(ProbeHost&)>;

  /// `stimuli` drives the scalar engine, `lane_stimuli` the parallel
  /// one; only the factory matching cfg.engine is required.
  IncrementalSession(StimulusFactory stimuli, LaneStimulusFactory lane_stimuli,
                     IncrementalConfig cfg);

  /// One measurement round over `nl`, which must be the baseline
  /// netlist or an append-only evolution of it (the isolation
  /// transform's guarantee). `register_on` registers this round's
  /// probes (ExprRefs in `pool` over `vars`) on the round's engine.
  /// Returns statistics bit-identical to a full engine run with the
  /// same configuration.
  ActivityStats measure(const Netlist& nl, const ExprPool* pool, const NetVarMap* vars,
                        const ProbeRegistrar& register_on = nullptr);

  // -- introspection (tests, reports, docs) --------------------------------
  /// True once a baseline tape is in place and replays are possible.
  [[nodiscard]] bool incremental_available() const { return have_baseline_ && !disabled_; }
  [[nodiscard]] std::uint64_t full_runs() const { return full_runs_; }
  [[nodiscard]] std::uint64_t replays() const { return replays_; }
  /// Cone size of the most recent replay (cells).
  [[nodiscard]] std::size_t last_cone_cells() const { return last_cone_cells_; }
  [[nodiscard]] std::size_t tape_bytes() const { return tape_.size() * sizeof(std::uint64_t); }

 private:
  ActivityStats full_measure(const Netlist& nl, const ExprPool* pool, const NetVarMap* vars,
                             const ProbeRegistrar& register_on);
  /// The engine setup both kinds of round share: a full run (drawing
  /// stimulus, recording into `capture` when set) or, with `cone`, a
  /// replay of the tape over that cone.
  ActivityStats simulate(const Netlist& nl, const ExprPool* pool, const NetVarMap* vars,
                         const ProbeRegistrar& register_on, const std::vector<CellId>* cone,
                         FrameSink* capture);
  /// verify_stimulus: does a fresh scalar stimulus reproduce the tape's
  /// primary-input slots?
  [[nodiscard]] bool stimulus_matches_tape() const;
  /// Carry baseline counters into `replayed` for every net outside the
  /// cone (the replay counted only the cone's nets).
  ActivityStats assemble(const std::vector<NetId>& dirty_nets, ActivityStats&& replayed) const;

  StimulusFactory stimuli_;
  LaneStimulusFactory lane_stimuli_;
  IncrementalConfig cfg_;

  // Frame counts of one measurement round (macro-cycles for the
  // parallel engine), fixed by cfg_ — mirrors the isolation loop's
  // warmup/cycles split so full and incremental rounds line up.
  std::uint64_t warmup_frames_ = 0;
  std::uint64_t measured_frames_ = 0;

  bool have_baseline_ = false;
  bool disabled_ = false;  ///< permanent fallback (budget / verify failure)
  std::optional<Netlist> base_;        ///< baseline netlist (tape's shape)
  ActivityStats base_stats_;           ///< baseline per-net counters
  std::vector<std::uint64_t> tape_;    ///< frames_ x frame_words_
  std::size_t frame_words_ = 0;

  std::uint64_t full_runs_ = 0;
  std::uint64_t replays_ = 0;
  std::size_t last_cone_cells_ = 0;
};

}  // namespace opiso
