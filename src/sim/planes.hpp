#pragma once
// Plane-block geometry of the bit-parallel engine.
//
// The lane-parallel simulator stores one *block* of kPlaneWords = 4
// 64-bit words per net bit, so one pass over the netlist advances 256
// stimulus lanes at once (one AVX2 ymm per plane — or two SSE xmm, or
// four scalar words on any ISA). Every plane kernel is written as a
// fixed-trip loop over kPlaneWords, which the compiler unrolls and,
// when -march permits, vectorizes; there are no intrinsics, so every
// -march build runs the same 256 lanes and produces bit-identical
// statistics.

#include <array>
#include <cstdint>

namespace opiso {

inline constexpr unsigned kPlaneWords = 4;

/// One block: bit b of kPlaneWords*64 lanes. Word k holds lanes
/// [64k, 64k+64); lane l lives in word l/64, bit l%64.
using PlaneBlock = std::array<std::uint64_t, kPlaneWords>;

/// All-zero block plane accessors return for bits past a net's width.
inline constexpr PlaneBlock kZeroPlaneBlock{};

}  // namespace opiso
