#pragma once
// Stimulus-coverage observability: did the random stimulus actually
// exercise the design?
//
// Two coverage notions matter for the isolation flow. *Net toggle
// coverage*: a net that never toggled contributes nothing to any power
// estimate — its toggle rate is exactly 0 with no statistical backing,
// and a macro model term fed from it is untested. *Activation
// exercise*: Algorithm 1 accepts or rejects each candidate from
// Pr[f_i] measured on its activation probe; a probe that was never (or
// always) true over the run means the idle/active regime the savings
// model reasons about was simply not visited by the stimulus. Both are
// exact integer counts, so the section is bitwise identical across
// engines/threads/-march builds whenever the underlying counters are.
//
// Inputs are layer-agnostic plain vectors (obs sits below the netlist
// layer); sim provides the Netlist/ActivityStats adapter.

#include <cstdint>
#include <string>
#include <vector>

#include "obs/json.hpp"

namespace opiso::obs {

struct CoverageInput {
  std::uint64_t cycles = 0;  ///< total measured lane-cycles
  /// Index-aligned per-net data (names may be shorter than toggles;
  /// missing names render as the index).
  std::vector<std::string> net_names;
  std::vector<std::uint64_t> net_toggles;

  /// Per-candidate activation-signal exercise counts.
  struct Candidate {
    std::string cell;
    std::uint64_t active_cycles = 0;      ///< cycles with f_i = 1
    std::uint64_t activation_toggles = 0; ///< f_i value changes
  };
  std::vector<Candidate> candidates;
};

/// Fraction of nets with at least one observed toggle, in percent.
[[nodiscard]] double toggle_coverage_pct(const std::vector<std::uint64_t>& net_toggles);

/// `opiso.coverage/v1` report section: toggle coverage, the
/// never-toggled net list, and per-candidate activation exercise.
[[nodiscard]] JsonValue build_coverage_section(const CoverageInput& input);

}  // namespace opiso::obs
