#include "isolation/muxfn.hpp"

#include <algorithm>
#include <functional>
#include <map>
#include <queue>
#include <utility>

#include "netlist/traversal.hpp"

namespace opiso {

namespace {

bool is_structural_source(CellKind kind) {
  return kind == CellKind::Reg || kind == CellKind::PrimaryInput || kind == CellKind::Constant;
}

/// Condition multiplied onto a path that enters `cell` at `port` and
/// leaves through its output. Returns invalid ExprRef for pins whose
/// induced toggling the model neglects (mux selects, latch enables —
/// footnote 1 of the paper).
ExprRef edge_condition(const Netlist& nl, ExprPool& pool, NetVarMap& vars, const Cell& cell,
                       int port) {
  switch (cell.kind) {
    case CellKind::Mux2:
      if (port == 0) return ExprRef::invalid();  // select-induced toggles neglected
      if (port == 1) return pool.lnot(pool.var(vars.var_of(nl, cell.ins[0])));
      return pool.var(vars.var_of(nl, cell.ins[0]));
    case CellKind::Latch:
    case CellKind::IsoAnd:
    case CellKind::IsoOr:
    case CellKind::IsoLatch:
      if (port == 1) return ExprRef::invalid();  // enable-induced toggles neglected
      return pool.var(vars.var_of(nl, cell.ins[1]));
    default:
      return pool.const1();
  }
}

}  // namespace

SteeringIndex::SteeringIndex(const Netlist& nl)
    : nl_(nl),
      pos_(nl.num_cells(), 0),
      cond_(nl.num_nets(), ExprRef::invalid()),
      net_seen_(nl.num_nets(), 0),
      cell_queued_(nl.num_cells(), 0) {
  const std::vector<CellId> order = topological_order(nl);
  for (std::size_t i = 0; i < order.size(); ++i) {
    pos_[order[i].value()] = static_cast<std::uint32_t>(i);
  }
}

FaninNetwork derive_fanin_network(SteeringIndex& index, ExprPool& pool, NetVarMap& vars,
                                  CellId cell, int port,
                                  const CandidatePredicate& is_candidate) {
  const Netlist& nl = index.nl_;
  std::vector<ExprRef>& cond = index.cond_;
  std::vector<char>& seen = index.net_seen_;
  FaninNetwork fn;
  const NetId pin_net = nl.cell(cell).ins.at(static_cast<size_t>(port));

  // cond[n] = condition under which a toggle on net n propagates to the
  // pin through the steering network (invalid = unreached).
  cond[pin_net.value()] = pool.const1();

  // Collect the cone of nets that can reach the pin (stop at candidates
  // and structural sources), then process drivers in reverse topo order.
  // Every net cond is set on lies in the cone, so the cone is also the
  // list of scratch entries to reset.
  std::vector<NetId> cone{pin_net};
  seen[pin_net.value()] = 1;
  for (std::size_t i = 0; i < cone.size(); ++i) {
    const CellId drv = nl.net(cone[i]).driver;
    const Cell& d = nl.cell(drv);
    if (is_candidate(drv) || is_structural_source(d.kind)) continue;
    for (int p = 0; p < static_cast<int>(d.ins.size()); ++p) {
      if (!edge_condition(nl, pool, vars, d, p).valid()) continue;
      NetId in = d.ins[static_cast<size_t>(p)];
      if (!seen[in.value()]) {
        seen[in.value()] = 1;
        cone.push_back(in);
      }
    }
  }
  index.cells_visited_ += cone.size();
  // Distinct nets have distinct drivers, so the order is total.
  std::sort(cone.begin(), cone.end(), [&](NetId a, NetId b) {
    return index.pos_[nl.net(a).driver.value()] > index.pos_[nl.net(b).driver.value()];
  });

  std::map<CellId, ExprRef> found;
  for (NetId n : cone) {
    if (!cond[n.value()].valid()) continue;  // unreachable under any condition
    const CellId drv = nl.net(n).driver;
    const Cell& d = nl.cell(drv);
    if (is_candidate(drv)) {
      auto [it, inserted] = found.emplace(drv, cond[n.value()]);
      if (!inserted) it->second = pool.lor(it->second, cond[n.value()]);
      continue;
    }
    if (is_structural_source(d.kind)) {
      if (d.kind != CellKind::Constant) fn.has_noncandidate_source = true;
      continue;
    }
    for (int p = 0; p < static_cast<int>(d.ins.size()); ++p) {
      ExprRef edge = edge_condition(nl, pool, vars, d, p);
      if (!edge.valid()) continue;
      NetId in = d.ins[static_cast<size_t>(p)];
      ExprRef path = pool.land(cond[n.value()], edge);
      cond[in.value()] = cond[in.value()].valid() ? pool.lor(cond[in.value()], path) : path;
    }
  }
  for (NetId n : cone) {
    cond[n.value()] = ExprRef::invalid();
    seen[n.value()] = 0;
  }
  for (const auto& [cand, g] : found) fn.candidates.push_back(ConnectedCandidate{cand, g});
  return fn;
}

std::vector<FanoutConnection> derive_fanout_candidates(SteeringIndex& index, ExprPool& pool,
                                                       NetVarMap& vars, CellId cell,
                                                       const CandidatePredicate& is_candidate) {
  const Netlist& nl = index.nl_;
  std::vector<ExprRef>& cond = index.cond_;
  std::vector<char>& queued = index.cell_queued_;
  std::vector<FanoutConnection> result;
  const Cell& c = nl.cell(cell);
  OPISO_REQUIRE(c.out.valid(), "derive_fanout_candidates: cell has no output");

  // Forward frontier from c.out, popped in topological order: a cell is
  // only popped once every net it reads has its final condition, and
  // the cells popped are exactly those a full topological sweep would
  // act on (readers of a reached net), in the same order — so the pool
  // and variable map see the same calls either way.
  using Entry = std::pair<std::uint32_t, CellId>;  // (topological position, cell)
  std::priority_queue<Entry, std::vector<Entry>, std::greater<>> frontier;
  std::vector<NetId> reached_nets;
  std::vector<CellId> queued_cells;
  const auto reach = [&](NetId net, ExprRef condition) {
    cond[net.value()] = condition;
    reached_nets.push_back(net);
    for (const Pin& pin : nl.net(net).fanouts) {
      const CellKind kind = nl.cell(pin.cell).kind;
      if (is_structural_source(kind) || kind == CellKind::PrimaryOutput) continue;
      if (pin.cell == cell || queued[pin.cell.value()]) continue;
      queued[pin.cell.value()] = 1;
      queued_cells.push_back(pin.cell);
      frontier.emplace(index.pos_[pin.cell.value()], pin.cell);
    }
  };
  reach(c.out, pool.const1());

  while (!frontier.empty()) {
    const CellId id = frontier.top().second;
    frontier.pop();
    const Cell& y = nl.cell(id);
    // Gather conditions arriving at y's inputs; candidates terminate
    // paths, everything else composes into y's output condition.
    ExprRef out_cond = ExprRef::invalid();
    for (int p = 0; p < static_cast<int>(y.ins.size()); ++p) {
      const NetId in = y.ins[static_cast<size_t>(p)];
      if (!cond[in.value()].valid()) continue;
      if (is_candidate(id)) {
        result.push_back(FanoutConnection{id, p, cond[in.value()]});
        continue;
      }
      ExprRef edge = edge_condition(nl, pool, vars, y, p);
      if (!edge.valid()) continue;
      ExprRef path = pool.land(cond[in.value()], edge);
      out_cond = out_cond.valid() ? pool.lor(out_cond, path) : path;
    }
    // y is y.out's only driver and is popped once, so the net is unset.
    if (out_cond.valid() && y.out.valid()) reach(y.out, out_cond);
  }
  index.cells_visited_ += queued_cells.size();
  for (NetId n : reached_nets) cond[n.value()] = ExprRef::invalid();
  for (CellId id : queued_cells) queued[id.value()] = 0;
  return result;
}

}  // namespace opiso
