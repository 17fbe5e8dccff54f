// Tests for topological ordering, combinational-block partitioning and
// cone computations.
#include <gtest/gtest.h>

#include <algorithm>

#include "designs/designs.hpp"
#include "netlist/traversal.hpp"

namespace opiso {
namespace {

/// Position map helper.
std::vector<std::size_t> positions(const Netlist& nl, const std::vector<CellId>& order) {
  std::vector<std::size_t> pos(nl.num_cells());
  for (std::size_t i = 0; i < order.size(); ++i) pos[order[i].value()] = i;
  return pos;
}

TEST(Traversal, TopoOrderCoversAllCells) {
  const Netlist nl = make_design1(8);
  const auto order = topological_order(nl);
  EXPECT_EQ(order.size(), nl.num_cells());
}

TEST(Traversal, TopoOrderRespectsCombDependencies) {
  const Netlist nl = make_design1(8);
  const auto order = topological_order(nl);
  const auto pos = positions(nl, order);
  for (CellId id : nl.cell_ids()) {
    const Cell& c = nl.cell(id);
    if (c.kind == CellKind::Reg || c.kind == CellKind::PrimaryInput ||
        c.kind == CellKind::Constant) {
      continue;
    }
    for (NetId in : c.ins) {
      const CellId drv = nl.net(in).driver;
      const Cell& d = nl.cell(drv);
      if (d.kind == CellKind::Reg || d.kind == CellKind::PrimaryInput ||
          d.kind == CellKind::Constant) {
        continue;
      }
      EXPECT_LT(pos[drv.value()], pos[id.value()])
          << "cell " << c.name << " ordered before its driver " << d.name;
    }
  }
}

TEST(Traversal, DetectsCombinationalCycle) {
  Netlist nl;
  NetId a = nl.add_input("a", 1);
  // x = a & y ; y = x | a  — a combinational loop.
  NetId x = nl.add_net("x", 1);
  NetId y = nl.add_net("y", 1);
  nl.add_cell(CellKind::And, "gx", {a, y}, x);
  nl.add_cell(CellKind::Or, "gy", {x, a}, y);
  EXPECT_THROW(topological_order(nl), NetlistError);
  EXPECT_THROW(nl.validate(), NetlistError);
}

TEST(Traversal, RegistersBreakCycles) {
  // Accumulator feedback through a register must be legal.
  Netlist nl;
  NetId one = nl.add_const("one", 1, 1);
  NetId d0 = nl.add_const("d0", 0, 8);
  NetId acc = nl.add_reg("acc", d0, one);
  NetId in = nl.add_input("in", 8);
  NetId sum = nl.add_binop(CellKind::Add, "sum", acc, in);
  nl.reconnect_input(nl.net(acc).driver, 0, sum);
  nl.add_output("o", acc);
  EXPECT_NO_THROW(nl.validate());
}

TEST(Traversal, Design1HasFourCombBlocks) {
  // Stage 1 contributes two independent blocks (mul1 cone, add1 cone);
  // stage 2 splits into the add2/sub2/add3 network and the mul2/mux_c
  // network — registers connect them sequentially, not combinationally.
  const Netlist nl = make_design1(8);
  const auto blocks = combinational_blocks(nl);
  EXPECT_EQ(blocks.size(), 4u);
}

TEST(Traversal, BlockCellsAreDisjointAndComplete) {
  const Netlist nl = make_design2(8, 2);
  const auto blocks = combinational_blocks(nl);
  std::vector<int> seen(nl.num_cells(), 0);
  for (const CombBlock& b : blocks) {
    for (CellId id : b.cells) ++seen[id.value()];
  }
  std::size_t comb_cells = 0;
  for (CellId id : nl.cell_ids()) {
    const CellKind k = nl.cell(id).kind;
    const bool comb = k != CellKind::Reg && k != CellKind::PrimaryInput &&
                      k != CellKind::PrimaryOutput && k != CellKind::Constant;
    if (comb) {
      ++comb_cells;
      EXPECT_EQ(seen[id.value()], 1) << nl.cell(id).name;
    } else {
      EXPECT_EQ(seen[id.value()], 0) << nl.cell(id).name;
    }
  }
  std::size_t in_blocks = 0;
  for (const CombBlock& b : blocks) in_blocks += b.cells.size();
  EXPECT_EQ(in_blocks, comb_cells);
}

TEST(Traversal, FanoutConeStopsAtRegisters) {
  const Netlist nl = make_design1(8);
  const CellId mul1 = nl.net(nl.find_net("mul1")).driver;
  const auto cone = combinational_fanout_cone(nl, mul1);
  // mul1 feeds reg_p directly: cone is just the multiplier itself.
  EXPECT_EQ(cone.size(), 1u);
  EXPECT_EQ(cone[0], mul1);
}

TEST(Traversal, FaninConeCollectsSteeringNetwork) {
  const Netlist nl = make_design1(8);
  const CellId add3 = nl.net(nl.find_net("add3")).driver;
  const auto cone = combinational_fanin_cone(nl, add3);
  // add3 <- mux_a <- {add2, sub2}: four comb cells incl. itself.
  EXPECT_EQ(cone.size(), 4u);
}

TEST(Traversal, NetInCombinationalFanout) {
  const Netlist nl = make_design1(8);
  const CellId add2 = nl.net(nl.find_net("add2")).driver;
  EXPECT_TRUE(net_in_combinational_fanout(nl, add2, nl.find_net("add3")));
  EXPECT_TRUE(net_in_combinational_fanout(nl, add2, nl.find_net("add2")));
  EXPECT_FALSE(net_in_combinational_fanout(nl, add2, nl.find_net("sub2")));
  EXPECT_FALSE(net_in_combinational_fanout(nl, add2, nl.find_net("reg_p")));
}

TEST(Traversal, NetInCombinationalFanoutAgreesWithFanoutCone) {
  // The early-exit search must answer exactly "is the net's driver the
  // cell itself or in its full combinational fanout cone".
  for (std::uint64_t seed = 1; seed <= 8; ++seed) {
    for (bool latches : {false, true}) {
      RandomDesignConfig cfg;
      cfg.allow_latches = latches;
      const Netlist nl = make_random_datapath(seed, cfg);
      for (std::uint32_t c = 0; c < nl.num_cells(); ++c) {
        const std::vector<CellId> cone = combinational_fanout_cone(nl, CellId{c});
        for (NetId net : nl.net_ids()) {
          const CellId drv = nl.net(net).driver;
          const bool expected = std::find(cone.begin(), cone.end(), drv) != cone.end();
          EXPECT_EQ(net_in_combinational_fanout(nl, CellId{c}, net), expected)
              << "seed " << seed << " cell " << nl.cell(CellId{c}).name << " net "
              << nl.net(net).name;
        }
      }
    }
  }
}

TEST(Traversal, ChangedCellsEmptyOnIdenticalNetlists) {
  const Netlist a = make_design1(8);
  const Netlist b = make_design1(8);
  EXPECT_TRUE(changed_cells(a, b).empty());
}

TEST(Traversal, ChangedCellsFindsAppendedAndRewiredCells) {
  const Netlist base = make_design1(8);
  Netlist cur = base;
  // Append a cell and rewire an existing consumer onto its output — the
  // isolation transform's evolution pattern in miniature.
  const NetId src = cur.find_net("add2");
  const NetId buf_out = cur.add_net("cc_buf", cur.net(src).width);
  const CellId buf = cur.add_cell(CellKind::Buf, "cc_buf_cell", {src}, buf_out);
  const CellId mux_a = cur.net(cur.find_net("mux_a")).driver;  // reads add2 on pin 1
  int pin = -1;
  for (std::size_t i = 0; i < cur.cell(mux_a).ins.size(); ++i) {
    if (cur.cell(mux_a).ins[i] == src) pin = static_cast<int>(i);
  }
  ASSERT_GE(pin, 0);
  cur.reconnect_input(mux_a, pin, buf_out);
  const std::vector<CellId> changed = changed_cells(base, cur);
  ASSERT_EQ(changed.size(), 2u);
  EXPECT_TRUE(std::is_sorted(changed.begin(), changed.end(),
                             [](CellId a, CellId b) { return a.value() < b.value(); }));
  EXPECT_EQ(changed[0], mux_a);  // rewired input
  EXPECT_EQ(changed[1], buf);    // appended cell
}

TEST(Traversal, ChangedCellsRejectsNonAppendEvolution) {
  const Netlist design1 = make_design1(8);
  const Netlist fig1 = make_fig1(8);
  // fig1 has fewer cells than design1: not an append-only evolution.
  EXPECT_THROW((void)changed_cells(design1, fig1), NetlistError);
}

TEST(Traversal, DirtyConeClosesOverFanoutThroughRegisters) {
  const Netlist nl = make_design1(8);
  const CellId mul1 = nl.net(nl.find_net("mul1")).driver;
  const std::vector<CellId> cone = dirty_cone(nl, {mul1});
  const auto in_cone = [&cone](CellId id) {
    return std::find(cone.begin(), cone.end(), id) != cone.end();
  };
  EXPECT_TRUE(in_cone(mul1));  // seeds are included
  // Unlike the combinational fanout cone (which is just {mul1}: it
  // feeds reg_p directly), the dirty cone crosses the register — a
  // changed cell perturbs the register's state sequence, so every
  // reader of reg_p replays differently too.
  EXPECT_EQ(combinational_fanout_cone(nl, mul1).size(), 1u);
  EXPECT_TRUE(in_cone(nl.net(nl.find_net("reg_p")).driver));
  EXPECT_TRUE(in_cone(nl.net(nl.find_net("add2")).driver));
  EXPECT_TRUE(in_cone(nl.net(nl.find_net("sub2")).driver));
  // Cells fed only by the untouched reg_q branch never enter the cone.
  EXPECT_FALSE(in_cone(nl.net(nl.find_net("add1")).driver));
  EXPECT_FALSE(in_cone(nl.net(nl.find_net("mul2")).driver));
  EXPECT_TRUE(std::is_sorted(cone.begin(), cone.end(),
                             [](CellId a, CellId b) { return a.value() < b.value(); }));
}

}  // namespace
}  // namespace opiso
