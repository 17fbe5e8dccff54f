#include "obs/coverage.hpp"

// Compiled with -ffp-contract=off like all library code (see
// src/CMakeLists.txt): the few derived percentages here must match
// bitwise across builds too.

namespace opiso::obs {

double toggle_coverage_pct(const std::vector<std::uint64_t>& net_toggles) {
  if (net_toggles.empty()) return 100.0;
  std::size_t toggled = 0;
  for (std::uint64_t t : net_toggles) {
    if (t != 0) ++toggled;
  }
  return 100.0 * static_cast<double>(toggled) / static_cast<double>(net_toggles.size());
}

JsonValue build_coverage_section(const CoverageInput& input) {
  JsonValue section = JsonValue::object();
  section["schema"] = "opiso.coverage/v1";
  section["cycles"] = input.cycles;

  std::size_t toggled = 0;
  JsonValue never = JsonValue::array();
  for (std::size_t n = 0; n < input.net_toggles.size(); ++n) {
    if (input.net_toggles[n] != 0) {
      ++toggled;
      continue;
    }
    never.push_back(n < input.net_names.size() ? JsonValue(input.net_names[n])
                                               : JsonValue(std::to_string(n)));
  }
  section["nets_total"] = input.net_toggles.size();
  section["nets_toggled"] = toggled;
  section["toggle_coverage_pct"] = toggle_coverage_pct(input.net_toggles);
  section["never_toggled"] = std::move(never);

  JsonValue cands = JsonValue::array();
  for (const CoverageInput::Candidate& c : input.candidates) {
    JsonValue row = JsonValue::object();
    row["cell"] = c.cell;
    row["active_cycles"] = c.active_cycles;
    row["idle_cycles"] = input.cycles >= c.active_cycles ? input.cycles - c.active_cycles : 0;
    row["activation_toggles"] = c.activation_toggles;
    row["pr_active"] = input.cycles > 0 ? static_cast<double>(c.active_cycles) /
                                              static_cast<double>(input.cycles)
                                        : 0.0;
    // Exercised means the stimulus visited both regimes the savings
    // model needs: at least one active and one idle cycle.
    row["exercised"] = c.active_cycles > 0 && c.active_cycles < input.cycles;
    cands.push_back(std::move(row));
  }
  section["candidates"] = std::move(cands);
  return section;
}

}  // namespace opiso::obs
