#include "sim/incremental.hpp"

#include <algorithm>

#include "netlist/traversal.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "sim/parallel_sim.hpp"
#include "sim/simulator.hpp"
#include "util/error.hpp"

namespace opiso {

namespace {

/// Captures every settled frame verbatim into one flat array.
class TapeSink final : public FrameSink {
 public:
  explicit TapeSink(std::vector<std::uint64_t>* tape) : tape_(tape) {}
  void on_frame(std::uint64_t, const std::uint64_t* data, std::size_t n) override {
    tape_->insert(tape_->end(), data, data + n);
  }

 private:
  std::vector<std::uint64_t>* tape_;
};

}  // namespace

IncrementalSession::IncrementalSession(StimulusFactory stimuli, LaneStimulusFactory lane_stimuli,
                                       IncrementalConfig cfg)
    : stimuli_(std::move(stimuli)), lane_stimuli_(std::move(lane_stimuli)), cfg_(cfg) {
  if (cfg_.engine == SimEngineKind::Parallel) {
    OPISO_REQUIRE(lane_stimuli_ != nullptr, "IncrementalSession: parallel engine needs lane_stimuli");
    const std::uint64_t lanes = cfg_.lanes;
    warmup_frames_ = cfg_.warmup_cycles > 0 ? (cfg_.warmup_cycles + lanes - 1) / lanes : 0;
    measured_frames_ = std::max<std::uint64_t>(1, cfg_.sim_cycles / lanes);
  } else {
    OPISO_REQUIRE(stimuli_ != nullptr, "IncrementalSession: scalar engine needs a stimulus factory");
    warmup_frames_ = cfg_.warmup_cycles;
    measured_frames_ = cfg_.sim_cycles;
  }
}

ActivityStats IncrementalSession::measure(const Netlist& nl, const ExprPool* pool,
                                          const NetVarMap* vars,
                                          const ProbeRegistrar& register_on) {
  OPISO_SPAN("sim.incremental.measure");
  if (!have_baseline_ || disabled_) return full_measure(nl, pool, vars, register_on);
  std::vector<CellId> seeds;
  try {
    seeds = changed_cells(*base_, nl);
  } catch (const NetlistError&) {
    // Not an append-only evolution of the captured baseline: re-base on
    // a fresh full run instead of giving up for good.
    obs::metrics().counter("sim.incremental.rebases").add(1);
    have_baseline_ = false;
    return full_measure(nl, pool, vars, register_on);
  }
  if (!stimulus_matches_tape()) {
    // The factory is not round-invariant: the tape cannot stand in for
    // a re-simulation. Permanently fall back to full runs.
    disabled_ = true;
    obs::metrics().counter("sim.incremental.verify_failures").add(1);
    return full_measure(nl, pool, vars, register_on);
  }
  const std::vector<CellId> cone = dirty_cone(nl, seeds);
  last_cone_cells_ = cone.size();
  ++replays_;
  obs::MetricsRegistry& m = obs::metrics();
  m.counter("sim.incremental.replays").add(1);
  m.gauge("sim.incremental.cone_cells").set(static_cast<double>(cone.size()));
  m.gauge("sim.incremental.cone_fraction")
      .set(static_cast<double>(cone.size()) / static_cast<double>(std::max<std::size_t>(1, nl.num_cells())));
  OPISO_SPAN("sim.incremental.replay");
  return assemble(cone_nets(nl, cone), simulate(nl, pool, vars, register_on, &cone, nullptr));
}

ActivityStats IncrementalSession::full_measure(const Netlist& nl, const ExprPool* pool,
                                               const NetVarMap* vars,
                                               const ProbeRegistrar& register_on) {
  OPISO_SPAN("sim.incremental.full");
  ++full_runs_;
  obs::metrics().counter("sim.incremental.full_runs").add(1);
  const std::uint64_t frames = warmup_frames_ + measured_frames_;

  // Capture a fresh baseline tape whenever it fits the budget — the
  // most recent full run becomes the baseline, keeping later cones as
  // small as the netlist evolution allows.
  bool capture = !disabled_;
  std::size_t fw = 0;
  if (cfg_.engine == SimEngineKind::Parallel) {
    std::size_t planes = 0;
    for (NetId id : nl.net_ids()) planes += nl.net(id).width;
    fw = planes * kPlaneWords;
  } else {
    fw = nl.num_nets();
  }
  if (capture && frames * fw * sizeof(std::uint64_t) > cfg_.tape_budget_bytes) {
    capture = false;
    disabled_ = true;  // the tape only grows with the netlist
    obs::metrics().counter("sim.incremental.tape_budget_skips").add(1);
  }
  if (capture) {
    tape_.clear();
    tape_.reserve(frames * fw);
  }
  TapeSink tape_sink(&tape_);
  ActivityStats stats =
      simulate(nl, pool, vars, register_on, nullptr, capture ? &tape_sink : nullptr);
  if (capture) {
    base_.emplace(nl);
    base_stats_ = stats;
    frame_words_ = fw;
    have_baseline_ = true;
    obs::metrics().gauge("sim.incremental.tape_bytes")
        .set(static_cast<double>(tape_.size() * sizeof(std::uint64_t)));
  }
  return stats;
}

ActivityStats IncrementalSession::simulate(const Netlist& nl, const ExprPool* pool,
                                           const NetVarMap* vars,
                                           const ProbeRegistrar& register_on,
                                           const std::vector<CellId>* cone, FrameSink* capture) {
  // Warmup frames run first and their statistics are dropped, exactly
  // as the engines' warmup() does; `advance` steps either engine mode.
  const auto round = [&](auto& sim, const auto& advance) {
    if (cfg_.batch_frames != 0) sim.enable_batch_stats(cfg_.batch_frames);
    if (register_on) register_on(sim);
    if (capture != nullptr) sim.set_frame_sink(capture);
    if (warmup_frames_ > 0) {
      advance(warmup_frames_);
      sim.reset_stats();
    }
    advance(measured_frames_);
    return std::move(sim).stats();
  };
  const std::uint64_t* tape = tape_.data();
  if (cfg_.engine == SimEngineKind::Parallel) {
    ParallelSimulator sim(nl, cfg_.lanes, pool, vars, cone);
    if (cone == nullptr) sim.set_stimulus(lane_stimuli_);
    return round(sim, [&](std::uint64_t frames) {
      if (cone != nullptr) {
        sim.replay(tape, frame_words_, frames);
      } else {
        sim.run(frames);
      }
    });
  }
  Simulator sim(nl, pool, vars, cone);
  const std::unique_ptr<Stimulus> stim = cone == nullptr ? stimuli_() : nullptr;
  return round(sim, [&](std::uint64_t frames) {
    if (cone != nullptr) {
      sim.replay(tape, frame_words_, frames);
    } else {
      sim.run(*stim, frames);
    }
  });
}

bool IncrementalSession::stimulus_matches_tape() const {
  if (!cfg_.verify_stimulus || cfg_.engine != SimEngineKind::Scalar) return true;
  const Netlist& nl = *base_;
  const std::unique_ptr<Stimulus> stim = stimuli_();
  const std::uint64_t frames = warmup_frames_ + measured_frames_;
  for (std::uint64_t f = 0; f < frames; ++f) {
    for (CellId pi : nl.primary_inputs()) {
      const NetId out = nl.cell(pi).out;
      const unsigned width = nl.net(out).width;
      const std::uint64_t mask = width_mask(width);
      if ((stim->next(nl, pi, f) & mask) != tape_[f * frame_words_ + out.value()]) return false;
    }
  }
  return true;
}

ActivityStats IncrementalSession::assemble(const std::vector<NetId>& dirty_nets,
                                           ActivityStats&& replayed) const {
  // Nets outside the cone replay the baseline bit for bit, so their
  // counters are the baseline's counters; the loop bound is the
  // baseline's net count because every appended net is dirty.
  std::vector<bool> dirty(base_->num_nets(), false);
  for (NetId n : dirty_nets) {
    if (n.value() < dirty.size()) dirty[n.value()] = true;
  }
  for (std::size_t n = 0; n < dirty.size(); ++n) {
    if (dirty[n]) continue;
    replayed.toggles[n] = base_stats_.toggles[n];
    replayed.ones[n] = base_stats_.ones[n];
    // Batch-means cells partition exactly like the counters above:
    // clean nets carry the baseline's per-window cells, dirty nets keep
    // the replayed ones (probe cells were fully recomputed already).
    replayed.net_batches.copy_series(base_stats_.net_batches, n);
  }
  return std::move(replayed);
}

}  // namespace opiso
