// Unit tests for the netlist data model: construction rules, width
// inference, fanout bookkeeping, surgery, validation and statistics.
#include <gtest/gtest.h>

#include <sstream>

#include "netlist/netlist.hpp"
#include "netlist/stats.hpp"
#include "netlist/traversal.hpp"

namespace opiso {
namespace {

TEST(Netlist, AddNetBasics) {
  Netlist nl("t");
  NetId a = nl.add_net("a", 8);
  EXPECT_TRUE(a.valid());
  EXPECT_EQ(nl.net(a).name, "a");
  EXPECT_EQ(nl.net(a).width, 8u);
  EXPECT_EQ(nl.find_net("a"), a);
  EXPECT_FALSE(nl.find_net("missing").valid());
}

TEST(Netlist, RejectsDuplicateNetNames) {
  Netlist nl;
  nl.add_net("a", 4);
  EXPECT_THROW(nl.add_net("a", 4), Error);
}

TEST(Netlist, RejectsBadWidths) {
  Netlist nl;
  EXPECT_THROW(nl.add_net("w0", 0), Error);
  EXPECT_THROW(nl.add_net("w65", 65), Error);
  EXPECT_NO_THROW(nl.add_net("w64", 64));
}

TEST(Netlist, InputOutputRoundTrip) {
  Netlist nl;
  NetId in = nl.add_input("in", 8);
  CellId po = nl.add_output("out", in);
  EXPECT_EQ(nl.primary_inputs().size(), 1u);
  EXPECT_EQ(nl.primary_outputs().size(), 1u);
  EXPECT_EQ(nl.cell(po).ins[0], in);
  nl.validate();
}

TEST(Netlist, AddWidthInference) {
  Netlist nl;
  NetId a = nl.add_input("a", 8);
  NetId b = nl.add_input("b", 4);
  NetId sum = nl.add_binop(CellKind::Add, "sum", a, b);
  EXPECT_EQ(nl.net(sum).width, 8u);  // max of operand widths
  NetId prod = nl.add_binop(CellKind::Mul, "prod", a, b);
  EXPECT_EQ(nl.net(prod).width, 12u);  // sum of operand widths
  NetId eq = nl.add_binop(CellKind::Eq, "eq", a, b);
  EXPECT_EQ(nl.net(eq).width, 1u);
}

TEST(Netlist, MulWidthCapsAt64) {
  Netlist nl;
  NetId a = nl.add_input("a", 40);
  NetId b = nl.add_input("b", 40);
  NetId p = nl.add_binop(CellKind::Mul, "p", a, b);
  EXPECT_EQ(nl.net(p).width, 64u);
}

TEST(Netlist, MuxRequires1BitSelect) {
  Netlist nl;
  NetId a = nl.add_input("a", 8);
  NetId b = nl.add_input("b", 8);
  NetId s_wide = nl.add_input("s_wide", 2);
  EXPECT_THROW(nl.add_mux2("m", s_wide, a, b), Error);
  NetId s = nl.add_input("s", 1);
  EXPECT_NO_THROW(nl.add_mux2("m2", s, a, b));
}

TEST(Netlist, RegRequires1BitEnable) {
  Netlist nl;
  NetId d = nl.add_input("d", 8);
  NetId en_wide = nl.add_input("en_wide", 8);
  EXPECT_THROW(nl.add_reg("r", d, en_wide), Error);
}

TEST(Netlist, SingleDriverEnforced) {
  Netlist nl;
  NetId a = nl.add_input("a", 4);
  NetId b = nl.add_input("b", 4);
  NetId out = nl.add_net("out", 4);
  nl.add_cell(CellKind::Add, "add1", {a, b}, out);
  EXPECT_THROW(nl.add_cell(CellKind::Sub, "sub1", {a, b}, out), Error);
}

TEST(Netlist, PinCountEnforced) {
  Netlist nl;
  NetId a = nl.add_input("a", 4);
  NetId out = nl.add_net("out", 4);
  EXPECT_THROW(nl.add_cell(CellKind::Add, "add1", {a}, out), Error);
}

TEST(Netlist, FanoutListsTrackConsumers) {
  Netlist nl;
  NetId a = nl.add_input("a", 4);
  NetId b = nl.add_input("b", 4);
  nl.add_binop(CellKind::Add, "s1", a, b);
  nl.add_binop(CellKind::Sub, "s2", a, b);
  EXPECT_EQ(nl.net(a).fanouts.size(), 2u);
  EXPECT_EQ(nl.net(b).fanouts.size(), 2u);
}

TEST(Netlist, ReconnectInputMovesFanout) {
  Netlist nl;
  NetId a = nl.add_input("a", 4);
  NetId b = nl.add_input("b", 4);
  NetId c = nl.add_input("c", 4);
  NetId sum = nl.add_binop(CellKind::Add, "sum", a, b);
  CellId adder = nl.net(sum).driver;
  nl.reconnect_input(adder, 0, c);
  EXPECT_EQ(nl.cell(adder).ins[0], c);
  EXPECT_TRUE(nl.net(a).fanouts.empty());
  EXPECT_EQ(nl.net(c).fanouts.size(), 1u);
  nl.validate();
}

TEST(Netlist, ReconnectRejectsWidthMismatch) {
  Netlist nl;
  NetId a = nl.add_input("a", 4);
  NetId b = nl.add_input("b", 4);
  NetId c = nl.add_input("c", 8);
  NetId sum = nl.add_binop(CellKind::Add, "sum", a, b);
  EXPECT_THROW(nl.reconnect_input(nl.net(sum).driver, 0, c), Error);
}

TEST(Netlist, ConstValueMustFitWidth) {
  Netlist nl;
  EXPECT_THROW(nl.add_const("c", 4, 2), Error);
  EXPECT_NO_THROW(nl.add_const("c3", 3, 2));
}

TEST(Netlist, FreshNamesNeverCollide) {
  Netlist nl;
  nl.add_net("x", 1);
  std::string f1 = nl.fresh_net_name("x");
  EXPECT_NE(f1, "x");
  nl.add_net(f1, 1);
  std::string f2 = nl.fresh_net_name("x");
  EXPECT_NE(f2, f1);
  EXPECT_NE(f2, "x");
}

TEST(Netlist, IsolationCellConstruction) {
  Netlist nl;
  NetId d = nl.add_input("d", 8);
  NetId as = nl.add_input("as", 1);
  NetId blocked = nl.add_iso(CellKind::IsoAnd, "blk", d, as);
  EXPECT_EQ(nl.net(blocked).width, 8u);
  EXPECT_THROW(nl.add_iso(CellKind::Add, "bad", d, as), Error);
}

TEST(Netlist, CellKindNamesRoundTrip) {
  for (int k = 0; k < kNumCellKinds; ++k) {
    const CellKind kind = static_cast<CellKind>(k);
    EXPECT_EQ(cell_kind_from_name(cell_kind_name(kind)), kind);
  }
  EXPECT_THROW((void)cell_kind_from_name("bogus"), ParseError);
}

TEST(Netlist, StatsCountKinds) {
  Netlist nl;
  NetId a = nl.add_input("a", 8);
  NetId b = nl.add_input("b", 8);
  NetId en = nl.add_input("en", 1);
  NetId sum = nl.add_binop(CellKind::Add, "sum", a, b);
  NetId r = nl.add_reg("r", sum, en);
  nl.add_output("o", r);
  const NetlistStats s = compute_stats(nl);
  EXPECT_EQ(s.num_arith_modules, 1u);
  EXPECT_EQ(s.num_registers, 1u);
  EXPECT_EQ(s.num_isolation_cells, 0u);
  EXPECT_EQ(s.cells_by_kind[static_cast<size_t>(CellKind::PrimaryInput)], 3u);
}

TEST(Netlist, DotExportMentionsCells) {
  Netlist nl("dot");
  NetId a = nl.add_input("a", 4);
  NetId b = nl.add_input("b", 4);
  NetId s = nl.add_binop(CellKind::Add, "s", a, b);
  nl.add_output("o", s);
  std::ostringstream os;
  write_dot(os, nl);
  const std::string dot = os.str();
  EXPECT_NE(dot.find("digraph"), std::string::npos);
  EXPECT_NE(dot.find("add"), std::string::npos);
}

}  // namespace
}  // namespace opiso
