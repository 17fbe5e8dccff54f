#include "isolation/candidates.hpp"

#include <algorithm>

#include "obs/trace.hpp"

namespace opiso {

std::vector<CellKind> CandidateConfig::default_kinds() {
  return {CellKind::Add, CellKind::Sub, CellKind::Mul};
}

bool CandidateConfig::kind_matches(CellKind kind) const {
  return std::find(kinds.begin(), kinds.end(), kind) != kinds.end();
}

std::vector<IsolationCandidate> identify_candidates(const Netlist& nl,
                                                    const std::vector<CombBlock>& blocks,
                                                    const ActivationAnalysis& analysis,
                                                    const ExprPool& pool,
                                                    const CandidateConfig& config) {
  OPISO_SPAN("candidates.identify");
  const std::vector<int> block_of = block_index_of_cells(nl, blocks);
  std::vector<IsolationCandidate> result;
  for (CellId id : nl.cell_ids()) {
    const Cell& c = nl.cell(id);
    if (!config.kind_matches(c.kind) || c.width < config.min_width) continue;
    const ExprRef f = analysis.activation_of(nl, id);
    if (pool.is_const1(f)) continue;  // never redundant; nothing to gain
    IsolationCandidate cand;
    cand.cell = id;
    cand.block = block_of[id.value()];
    cand.activation = f;
    cand.already_isolated = cell_is_isolated(nl, id);
    if (cand.already_isolated) cand.as_net = isolated_as_net(nl, id);
    result.push_back(cand);
  }
  return result;
}

bool cell_is_isolated(const Netlist& nl, CellId cell) {
  for (NetId in : nl.cell(cell).ins) {
    if (cell_kind_is_isolation(nl.cell(nl.net(in).driver).kind)) return true;
  }
  return false;
}

NetId isolated_as_net(const Netlist& nl, CellId cell) {
  for (NetId in : nl.cell(cell).ins) {
    const Cell& drv = nl.cell(nl.net(in).driver);
    if (cell_kind_is_isolation(drv.kind)) return drv.ins[1];
  }
  return NetId::invalid();
}

}  // namespace opiso
