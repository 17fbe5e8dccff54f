#pragma once
// Switching-activity statistics gathered during simulation.
//
// Tr (toggle rate) of a net is the average number of bit toggles per
// clock cycle observed over the simulation — exactly the quantity the
// paper's macro power models consume (Sec. 4.1). For 1-bit control nets
// we additionally track the static probability Pr[net = 1].
//
// Expr probes evaluate arbitrary Boolean functions of net values each
// cycle and report Pr[expr] over the run. The savings model needs joint
// probabilities of dependent signals (Pr(!f_i & f_j & g), Sec. 4.2/4.3);
// measuring product expressions in-simulation sidesteps any independence
// assumption, as the paper requires ("the probabilities cannot further
// be simplified").

#include <cstdint>
#include <vector>

#include "boolfn/expr.hpp"
#include "boolfn/strash.hpp"  // NetVarMap
#include "netlist/netlist.hpp"
#include "obs/confidence.hpp"
#include "obs/coverage.hpp"

namespace opiso {

struct ActivityStats {
  std::uint64_t cycles = 0;
  std::vector<std::uint64_t> toggles;    ///< per net: total bit toggles
  std::vector<std::uint64_t> ones;       ///< per net: cycles with bit0 == 1
  /// Per net, per bit position: toggle counts (empty unless the
  /// simulator was asked to collect bit-level statistics). Feeds the
  /// dual-bit-type macro models: LSBs of datapath words behave as white
  /// noise while MSBs track the (slowly varying) sign/magnitude region.
  std::vector<std::vector<std::uint64_t>> bit_toggles;
  std::vector<std::uint64_t> probe_true; ///< per probe: cycles where expr held
  std::vector<std::uint64_t> probe_toggles; ///< per probe: value changes between cycles
  /// Batch-means moments behind the confidence layer (obs/confidence
  /// .hpp): exact per-window integer event counts for nets (bit
  /// toggles) and probes (lanes where the expression held). Disabled
  /// unless the engine was asked to collect them; counted only over
  /// measured frames (reset clears the warmup accumulation), and
  /// carried through merge/incremental splicing so confidence
  /// intervals stay bitwise identical across engines and partitions.
  obs::BatchAccumulator net_batches;
  obs::BatchAccumulator probe_batches;

  /// Average bit toggles per cycle over the whole word (the paper's Tr).
  [[nodiscard]] double toggle_rate(NetId net) const;
  /// Static probability of a 1-bit net.
  [[nodiscard]] double prob_one(NetId net) const;
  /// Pr[probe expression] over the run.
  [[nodiscard]] double probe_probability(std::size_t probe) const;
  /// Toggle rate of the probe expression's value (per cycle).
  [[nodiscard]] double probe_toggle_rate(std::size_t probe) const;
  /// Toggle rate of one bit of a net (requires bit-level collection).
  [[nodiscard]] double bit_toggle_rate(NetId net, unsigned bit) const;
  [[nodiscard]] bool has_bit_stats() const { return !bit_toggles.empty(); }

  /// Element-wise accumulation of another run's statistics over the
  /// same netlist (and probe set, if any). Rates computed afterwards
  /// are averages over the combined cycle count — this is both the
  /// ordered reduction of the sweep runner and the oracle operation
  /// that makes N scalar runs comparable to one N-lane parallel run.
  /// An empty *this adopts the other side's shape.
  void merge(const ActivityStats& other);

  void reset();
};

/// Per-candidate activation-signal exercise counts for the coverage
/// section (filled by the isolation layer from its probe indices).
struct CandidateExercise {
  std::string cell;
  std::size_t probe = 0;  ///< activation probe (Pr[f_i]) index
};

/// Adapters from simulation statistics to the layer-agnostic obs
/// section builders. `net_power_weights_mw` is the macro model's exact
/// per-net dP/dTr vector (power/estimator.hpp); empty disables the
/// design-power interval.
[[nodiscard]] obs::JsonValue build_confidence_section(
    const Netlist& nl, const ActivityStats& stats, const obs::ConfidenceConfig& config,
    const std::vector<double>& net_power_weights_mw);
[[nodiscard]] obs::JsonValue build_coverage_section(
    const Netlist& nl, const ActivityStats& stats,
    const std::vector<CandidateExercise>& candidates);

}  // namespace opiso
