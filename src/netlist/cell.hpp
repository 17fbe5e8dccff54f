#pragma once
// Cell kinds of the word-level RTL netlist.
//
// The netlist models RT structures as the paper does (Sec. 3): arithmetic
// modules, multiplexors, generic logic gates and registers, plus the
// isolation circuitry the algorithm inserts (IsoAnd / IsoOr / IsoLatch)
// as first-class cells so that power, area and timing overheads fall out
// of the ordinary estimators.

#include <cstdint>
#include <string_view>

#include "util/error.hpp"

namespace opiso {

enum class CellKind : std::uint8_t {
  // Boundary
  PrimaryInput,   // no inputs; output = external stimulus
  PrimaryOutput,  // one input; no output net
  Constant,       // no inputs; output = param value

  // Arithmetic datapath modules (default operand-isolation candidates)
  Add,  // A + B (mod 2^w)
  Sub,  // A - B (mod 2^w)
  Mul,  // A * B (mod 2^w)

  // Comparators (1-bit result)
  Eq,  // A == B
  Lt,  // A < B (unsigned)

  // Shifters (shift amount in param)
  Shl,  // A << param
  Shr,  // A >> param (logical)

  // Generic logic gates (bitwise over the word, 1-bit for control logic)
  Not,
  Buf,
  And,
  Or,
  Xor,
  Nand,
  Nor,
  Xnor,

  // Steering / storage
  Mux2,   // ins: S(1), A(w), B(w); out = S ? B : A
  Reg,    // ins: D(w), EN(1); edge-triggered, Q <= EN ? D : Q
  Latch,  // ins: D(w), EN(1); level-sensitive, transparent while EN = 1

  // Operand-isolation circuitry (inserted by the algorithm)
  IsoAnd,    // ins: D(w), AS(1); out = AS ? D : 0
  IsoOr,     // ins: D(w), AS(1); out = AS ? D : ~0
  IsoLatch,  // ins: D(w), AS(1); transparent while AS = 1, holds otherwise
};

inline constexpr int kNumCellKinds = static_cast<int>(CellKind::IsoLatch) + 1;

/// Short mnemonic used in the .rtn text format and DOT labels.
[[nodiscard]] std::string_view cell_kind_name(CellKind kind);

/// Parse a mnemonic back to a kind; throws ParseError on unknown names.
[[nodiscard]] CellKind cell_kind_from_name(std::string_view name);

/// Number of input pins the kind requires (-1 for PrimaryOutput-style
/// fixed single input is still reported exactly; every kind is fixed).
[[nodiscard]] int cell_kind_num_inputs(CellKind kind);

/// True for cells that have an output net.
[[nodiscard]] constexpr bool cell_kind_has_output(CellKind kind) {
  return kind != CellKind::PrimaryOutput;
}

/// True for two-input arithmetic datapath modules — the default set of
/// operand-isolation candidates ("complex arithmetic operators", Sec. 4).
[[nodiscard]] constexpr bool cell_kind_is_arith(CellKind kind) {
  switch (kind) {
    case CellKind::Add:
    case CellKind::Sub:
    case CellKind::Mul:
      return true;
    default:
      return false;
  }
}

/// True for edge-triggered state (sequential boundary of comb. blocks).
[[nodiscard]] constexpr bool cell_kind_is_register(CellKind kind) { return kind == CellKind::Reg; }

/// True for level-sensitive state. Latches sit inside combinational
/// blocks for traversal purposes but hold state during simulation.
[[nodiscard]] constexpr bool cell_kind_is_latch(CellKind kind) {
  return kind == CellKind::Latch || kind == CellKind::IsoLatch;
}

/// True for the isolation circuitry inserted by the optimizer.
[[nodiscard]] constexpr bool cell_kind_is_isolation(CellKind kind) {
  return kind == CellKind::IsoAnd || kind == CellKind::IsoOr || kind == CellKind::IsoLatch;
}

/// True for simple gates/buffers (used by the gate-level power model).
[[nodiscard]] constexpr bool cell_kind_is_gate(CellKind kind) {
  switch (kind) {
    case CellKind::Not:
    case CellKind::Buf:
    case CellKind::And:
    case CellKind::Or:
    case CellKind::Xor:
    case CellKind::Nand:
    case CellKind::Nor:
    case CellKind::Xnor:
      return true;
    default:
      return false;
  }
}

/// Conventional port names per kind, used by the text format and error
/// messages: e.g. Mux2 -> {"S","A","B"}, Reg -> {"D","EN"}.
[[nodiscard]] std::string_view cell_port_name(CellKind kind, int port);

/// Bit mask of the low `width` bits (all ones from 64 up).
[[nodiscard]] constexpr std::uint64_t width_mask(unsigned width) {
  return width >= 64 ? ~std::uint64_t{0} : ((std::uint64_t{1} << width) - 1);
}

/// Word-level semantics of one combinational operator — the single
/// definition the scalar simulator, the constant folder and the rewriter
/// all evaluate with. `in(p)` yields input port p's word, already masked
/// to its net's width; `param` is the shift amount for Shl/Shr. The
/// result is unmasked (callers mask to the output width). Boundary,
/// constant and state-holding kinds have no pure word function: the
/// simulator handles them itself, and here they throw.
template <class In>
[[nodiscard]] inline std::uint64_t eval_comb_cell(CellKind kind, std::uint64_t param, In&& in) {
  switch (kind) {
    case CellKind::Add: return in(0) + in(1);
    case CellKind::Sub: return in(0) - in(1);
    case CellKind::Mul: return in(0) * in(1);
    case CellKind::Eq: return in(0) == in(1) ? 1 : 0;
    case CellKind::Lt: return in(0) < in(1) ? 1 : 0;
    case CellKind::Shl: return param >= 64 ? 0 : in(0) << param;
    case CellKind::Shr: return param >= 64 ? 0 : in(0) >> param;
    case CellKind::Not: return ~in(0);
    case CellKind::Buf: return in(0);
    case CellKind::And: return in(0) & in(1);
    case CellKind::Or: return in(0) | in(1);
    case CellKind::Xor: return in(0) ^ in(1);
    case CellKind::Nand: return ~(in(0) & in(1));
    case CellKind::Nor: return ~(in(0) | in(1));
    case CellKind::Xnor: return ~(in(0) ^ in(1));
    case CellKind::Mux2: return (in(0) & 1) ? in(2) : in(1);
    case CellKind::IsoAnd: return (in(1) & 1) ? in(0) : 0;
    case CellKind::IsoOr: return (in(1) & 1) ? in(0) : ~std::uint64_t{0};
    default: throw Error("eval_comb_cell: not a combinational operator");
  }
}

}  // namespace opiso
