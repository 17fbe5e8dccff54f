#include "lower/gate_level.hpp"

#include "netlist/traversal.hpp"

namespace opiso {

namespace {

/// Gate factory with fresh-name bookkeeping and constant sharing.
struct GateBuilder {
  Netlist& g;
  int counter = 0;
  NetId const0;
  NetId const1;

  NetId zero() {
    if (!const0.valid()) const0 = g.add_const("c0", 0, 1);
    return const0;
  }
  NetId one() {
    if (!const1.valid()) const1 = g.add_const("c1", 1, 1);
    return const1;
  }
  std::string name() { return 'g' + std::to_string(counter++); }

  NetId bin(CellKind kind, NetId a, NetId b) { return g.add_binop(kind, name(), a, b); }
  NetId un(CellKind kind, NetId a) { return g.add_unop(kind, name(), a); }

  /// Full adder; returns {sum, carry_out}.
  std::pair<NetId, NetId> full_adder(NetId a, NetId b, NetId cin) {
    const NetId axb = bin(CellKind::Xor, a, b);
    const NetId sum = bin(CellKind::Xor, axb, cin);
    const NetId and1 = bin(CellKind::And, a, b);
    const NetId and2 = bin(CellKind::And, cin, axb);
    const NetId cout = bin(CellKind::Or, and1, and2);
    return {sum, cout};
  }

  /// Ripple add of equal-length bit vectors; returns sums and carry out.
  std::pair<std::vector<NetId>, NetId> ripple_add(const std::vector<NetId>& a,
                                                  const std::vector<NetId>& b, NetId cin) {
    OPISO_ASSERT(a.size() == b.size(), "ripple_add: operand lengths differ");
    std::vector<NetId> sums;
    NetId carry = cin;
    for (std::size_t i = 0; i < a.size(); ++i) {
      auto [s, c] = full_adder(a[i], b[i], carry);
      sums.push_back(s);
      carry = c;
    }
    return {sums, carry};
  }
};

/// Pad (zero-extend) or truncate a bit vector to `width`.
std::vector<NetId> fit(GateBuilder& gb, std::vector<NetId> bits, unsigned width) {
  while (bits.size() < width) bits.push_back(gb.zero());
  bits.resize(width);
  return bits;
}

}  // namespace

const std::vector<NetId>& GateLevelResult::bits_of(NetId word_net) const {
  auto it = bits.find(word_net.value());
  OPISO_REQUIRE(it != bits.end(), "bits_of: net was not lowered");
  return it->second;
}

GateLevelResult lower_to_gates(const Netlist& nl) {
  nl.validate();
  GateLevelResult res;
  res.netlist.set_name(nl.name() + "_gates");
  GateBuilder gb{res.netlist, 0, {}, {}};

  auto bits_of = [&](NetId old_net) -> std::vector<NetId>& {
    auto it = res.bits.find(old_net.value());
    OPISO_ASSERT(it != res.bits.end(), "lowering visited a net before its driver");
    return it->second;
  };
  auto set_bits = [&](NetId old_net, std::vector<NetId> bits) {
    res.bits.emplace(old_net.value(), std::move(bits));
  };

  // Registers and latches first (their outputs are sources for the
  // combinational cells); D/EN pins are patched at the end.
  struct SeqPatch {
    std::vector<CellId> bit_cells;  ///< LSB first
    NetId old_d;
    NetId old_en;
  };
  std::vector<SeqPatch> patches;

  // Primary inputs in original order keeps BitStimulusAdapter aligned.
  for (CellId pi : nl.primary_inputs()) {
    const Cell& c = nl.cell(pi);
    std::vector<NetId> bits;
    for (unsigned i = 0; i < c.width; ++i) {
      bits.push_back(res.netlist.add_input(nl.net(c.out).name + "." + std::to_string(i), 1));
    }
    set_bits(c.out, std::move(bits));
  }
  for (CellId id : nl.cell_ids()) {
    const Cell& c = nl.cell(id);
    if (c.kind != CellKind::Reg && c.kind != CellKind::Latch && c.kind != CellKind::IsoLatch) {
      continue;
    }
    SeqPatch patch;
    patch.old_d = c.ins[0];
    patch.old_en = c.ins[1];
    std::vector<NetId> bits;
    for (unsigned i = 0; i < c.width; ++i) {
      const std::string bit_name = nl.net(c.out).name + "." + std::to_string(i);
      const NetId q = res.netlist.add_net(bit_name, 1);
      // D self-loops on Q and EN borrows Q until the patch pass; both
      // are 1-bit so the placeholder is always legal.
      const CellKind kind = c.kind == CellKind::Reg ? CellKind::Reg : CellKind::Latch;
      patch.bit_cells.push_back(
          res.netlist.add_cell(kind, res.netlist.fresh_cell_name("b:" + bit_name), {q, q}, q));
      bits.push_back(q);
    }
    set_bits(c.out, bits);
    patches.push_back(std::move(patch));
  }

  for (CellId id : topological_order(nl)) {
    const Cell& c = nl.cell(id);
    switch (c.kind) {
      case CellKind::PrimaryInput:
      case CellKind::Reg:
      case CellKind::Latch:
      case CellKind::IsoLatch:
        break;  // handled above
      case CellKind::PrimaryOutput:
        break;  // handled after the loop (order preservation)
      case CellKind::Constant: {
        std::vector<NetId> bits;
        for (unsigned i = 0; i < c.width; ++i) {
          bits.push_back((c.param >> i) & 1 ? gb.one() : gb.zero());
        }
        set_bits(c.out, std::move(bits));
        break;
      }
      case CellKind::Not:
      case CellKind::Buf: {
        const auto in = fit(gb, bits_of(c.ins[0]), c.width);
        std::vector<NetId> bits;
        for (unsigned i = 0; i < c.width; ++i) {
          bits.push_back(c.kind == CellKind::Not ? gb.un(CellKind::Not, in[i]) : in[i]);
        }
        set_bits(c.out, std::move(bits));
        break;
      }
      case CellKind::And:
      case CellKind::Or:
      case CellKind::Xor:
      case CellKind::Nand:
      case CellKind::Nor:
      case CellKind::Xnor: {
        const auto a = fit(gb, bits_of(c.ins[0]), c.width);
        const auto b = fit(gb, bits_of(c.ins[1]), c.width);
        std::vector<NetId> bits;
        for (unsigned i = 0; i < c.width; ++i) bits.push_back(gb.bin(c.kind, a[i], b[i]));
        set_bits(c.out, std::move(bits));
        break;
      }
      case CellKind::Mux2: {
        const NetId sel = bits_of(c.ins[0]).at(0);
        const auto a = fit(gb, bits_of(c.ins[1]), c.width);
        const auto b = fit(gb, bits_of(c.ins[2]), c.width);
        std::vector<NetId> bits;
        for (unsigned i = 0; i < c.width; ++i) {
          bits.push_back(res.netlist.add_mux2(gb.name(), sel, a[i], b[i]));
        }
        set_bits(c.out, std::move(bits));
        break;
      }
      case CellKind::Add: {
        const auto a = fit(gb, bits_of(c.ins[0]), c.width);
        const auto b = fit(gb, bits_of(c.ins[1]), c.width);
        set_bits(c.out, gb.ripple_add(a, b, gb.zero()).first);
        break;
      }
      case CellKind::Sub: {
        // a - b = a + ~b + 1.
        const auto a = fit(gb, bits_of(c.ins[0]), c.width);
        auto b = fit(gb, bits_of(c.ins[1]), c.width);
        for (NetId& bit : b) bit = gb.un(CellKind::Not, bit);
        set_bits(c.out, gb.ripple_add(a, b, gb.one()).first);
        break;
      }
      case CellKind::Mul: {
        // Array multiplier: accumulate shifted partial-product rows.
        const auto& a = bits_of(c.ins[0]);
        const auto& b = bits_of(c.ins[1]);
        std::vector<NetId> acc(c.width, gb.zero());
        for (std::size_t j = 0; j < b.size() && j < c.width; ++j) {
          std::vector<NetId> row(c.width, gb.zero());
          for (std::size_t i = 0; i < a.size() && i + j < c.width; ++i) {
            row[i + j] = gb.bin(CellKind::And, a[i], b[j]);
          }
          acc = gb.ripple_add(acc, row, gb.zero()).first;
        }
        set_bits(c.out, std::move(acc));
        break;
      }
      case CellKind::Eq: {
        const unsigned w = std::max(nl.net(c.ins[0]).width, nl.net(c.ins[1]).width);
        const auto a = fit(gb, bits_of(c.ins[0]), w);
        const auto b = fit(gb, bits_of(c.ins[1]), w);
        NetId all = gb.bin(CellKind::Xnor, a[0], b[0]);
        for (unsigned i = 1; i < w; ++i) {
          all = gb.bin(CellKind::And, all, gb.bin(CellKind::Xnor, a[i], b[i]));
        }
        set_bits(c.out, {all});
        break;
      }
      case CellKind::Lt: {
        // a < b  iff  (a + ~b + 1) produces no carry out.
        const unsigned w = std::max(nl.net(c.ins[0]).width, nl.net(c.ins[1]).width);
        const auto a = fit(gb, bits_of(c.ins[0]), w);
        auto b = fit(gb, bits_of(c.ins[1]), w);
        for (NetId& bit : b) bit = gb.un(CellKind::Not, bit);
        const NetId carry = gb.ripple_add(a, b, gb.one()).second;
        set_bits(c.out, {gb.un(CellKind::Not, carry)});
        break;
      }
      case CellKind::Shl:
      case CellKind::Shr: {
        const auto in = fit(gb, bits_of(c.ins[0]), c.width);
        std::vector<NetId> bits(c.width, gb.zero());
        for (unsigned i = 0; i < c.width; ++i) {
          const std::int64_t src = c.kind == CellKind::Shl
                                       ? static_cast<std::int64_t>(i) - static_cast<std::int64_t>(c.param)
                                       : static_cast<std::int64_t>(i) + static_cast<std::int64_t>(c.param);
          if (src >= 0 && src < static_cast<std::int64_t>(c.width)) {
            bits[i] = in[static_cast<std::size_t>(src)];
          }
        }
        set_bits(c.out, std::move(bits));
        break;
      }
      case CellKind::IsoAnd: {
        const auto d = bits_of(c.ins[0]);
        const NetId as = bits_of(c.ins[1]).at(0);
        std::vector<NetId> bits;
        for (unsigned i = 0; i < c.width; ++i) bits.push_back(gb.bin(CellKind::And, d[i], as));
        set_bits(c.out, std::move(bits));
        break;
      }
      case CellKind::IsoOr: {
        const auto d = bits_of(c.ins[0]);
        const NetId as = bits_of(c.ins[1]).at(0);
        const NetId nas = gb.un(CellKind::Not, as);
        std::vector<NetId> bits;
        for (unsigned i = 0; i < c.width; ++i) bits.push_back(gb.bin(CellKind::Or, d[i], nas));
        set_bits(c.out, std::move(bits));
        break;
      }
    }
  }

  // Patch sequential bit cells: D per bit, shared 1-bit EN.
  for (const SeqPatch& p : patches) {
    const auto d = fit(gb, bits_of(p.old_d), static_cast<unsigned>(p.bit_cells.size()));
    const NetId en = bits_of(p.old_en).at(0);
    for (std::size_t i = 0; i < p.bit_cells.size(); ++i) {
      res.netlist.reconnect_input(p.bit_cells[i], 0, d[i]);
      res.netlist.reconnect_input(p.bit_cells[i], 1, en);
    }
  }

  // Primary outputs in original order. Bit names derive from the PO
  // cell name (unique by construction), not the source net: two word
  // outputs may share one driver net (CSE does this), and net-derived
  // names would then collide.
  for (CellId po : nl.primary_outputs()) {
    const Cell& c = nl.cell(po);
    const auto& bits = bits_of(c.ins[0]);
    std::string base = c.name;
    if (base.rfind("po:", 0) == 0) base = base.substr(3);
    for (std::size_t i = 0; i < bits.size(); ++i) {
      res.netlist.add_output(base + ".po" + std::to_string(i), bits[i]);
    }
  }

  res.netlist.validate();
  return res;
}

BitStimulusAdapter::BitStimulusAdapter(const Netlist& word_design, Stimulus& inner)
    : word_design_(word_design), inner_(inner) {}

std::uint64_t BitStimulusAdapter::next(const Netlist& nl, CellId pi, std::uint64_t cycle) {
  if (cycle != cached_cycle_) {
    cached_cycle_ = cycle;
    cached_values_.clear();
    for (CellId word_pi : word_design_.primary_inputs()) {
      const Cell& c = word_design_.cell(word_pi);
      cached_values_[word_design_.net(c.out).name] = inner_.next(word_design_, word_pi, cycle);
    }
  }
  const std::string& bit_name = nl.net(nl.cell(pi).out).name;
  const auto dot = bit_name.rfind('.');
  OPISO_REQUIRE(dot != std::string::npos, "BitStimulusAdapter: input is not a lowered bit");
  const std::string word = bit_name.substr(0, dot);
  const unsigned bit = static_cast<unsigned>(std::stoul(bit_name.substr(dot + 1)));
  auto it = cached_values_.find(word);
  OPISO_REQUIRE(it != cached_values_.end(), "BitStimulusAdapter: unknown word input " + word);
  return (it->second >> bit) & 1;
}

}  // namespace opiso
