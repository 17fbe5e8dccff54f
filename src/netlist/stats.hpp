#pragma once
// Netlist statistics and DOT export — debugging/report utilities.

#include <array>
#include <iosfwd>
#include <string>

#include "netlist/netlist.hpp"

namespace opiso {

struct NetlistStats {
  std::array<std::size_t, kNumCellKinds> cells_by_kind{};
  std::size_t num_cells = 0;
  std::size_t num_nets = 0;
  std::size_t num_arith_modules = 0;   ///< isolation-candidate population
  std::size_t num_registers = 0;
  std::size_t num_isolation_cells = 0;
  std::size_t total_data_bits = 0;     ///< sum of net widths
};

[[nodiscard]] NetlistStats compute_stats(const Netlist& nl);

/// Human-readable one-per-line summary.
[[nodiscard]] std::string stats_to_string(const NetlistStats& s);

/// GraphViz dot rendering; arithmetic modules are boxed, registers are
/// double-boxed, isolation cells are shaded.
void write_dot(std::ostream& os, const Netlist& nl);

}  // namespace opiso
