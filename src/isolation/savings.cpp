#include "isolation/savings.hpp"

#include <algorithm>

#include "obs/metrics.hpp"

namespace opiso {

SavingsEstimator::SavingsEstimator(const Netlist& nl, ExprPool& pool, NetVarMap& vars,
                                   const std::vector<IsolationCandidate>& candidates,
                                   const MacroPowerModel& power)
    : nl_(nl),
      pool_(pool),
      vars_(vars),
      cands_(candidates),
      power_(power),
      cand_index_(nl.num_cells(), kNotCandidate) {
  for (std::size_t i = 0; i < cands_.size(); ++i) cand_index_[cands_[i].cell.value()] = i;
  const CandidatePredicate pred = [this](CellId id) {
    return cand_index_[id.value()] != kNotCandidate;
  };
  SteeringIndex steering(nl_);

  models_.resize(cands_.size());
  for (std::size_t i = 0; i < cands_.size(); ++i) {
    CandidateModel& m = models_[i];
    const Cell& cell = nl_.cell(cands_[i].cell);

    // --- fanin steering events per input port (refined primary model)
    m.port_events.resize(cell.ins.size());
    for (int p = 0; p < static_cast<int>(cell.ins.size()); ++p) {
      auto& events = m.port_events[static_cast<size_t>(p)];
      const FaninNetwork fan =
          derive_fanin_network(steering, pool_, vars_, cands_[i].cell, p, pred);
      ExprRef any_candidate = pool_.const0();
      for (const ConnectedCandidate& cc : fan.candidates) {
        const std::size_t k = index_of(cc.candidate);
        const ExprRef fk = cands_[k].activation;
        events.push_back(PortEvent{pool_.land(cc.condition, fk), 1.0, k, true});
        events.push_back(PortEvent{pool_.land(cc.condition, pool_.lnot(fk)), 1.0, k, false});
        any_candidate = pool_.lor(any_candidate, cc.condition);
      }
      // Background event: the pin is not steered from any candidate.
      events.push_back(PortEvent{pool_.lnot(any_candidate), 1.0, kBackground, false});
    }

    // --- event-pair probes for two-input modules
    if (cell.ins.size() == 2) {
      const ExprRef not_f = pool_.lnot(cands_[i].activation);
      for (std::size_t a = 0; a < m.port_events[0].size(); ++a) {
        for (std::size_t b = 0; b < m.port_events[1].size(); ++b) {
          PairProbe pp;
          pp.a_event = a;
          pp.b_event = b;
          pp.probe = 0;  // assigned in register_probes
          m.pair_probes.push_back(pp);
          (void)not_f;
        }
      }
    }

    // --- fanout terms (secondary model)
    for (const FanoutConnection& fc :
         derive_fanout_candidates(steering, pool_, vars_, cands_[i].cell, pred)) {
      FanoutTerm term;
      term.j = index_of(fc.candidate);
      term.port = fc.port;
      term.g = fc.condition;
      m.fanouts.push_back(term);
    }

    m.activation_support = pool_.support(cands_[i].activation);
  }
  obs::metrics()
      .counter("isolate.steering_cells_visited")
      .add(static_cast<std::uint64_t>(steering.cells_visited()));
}

std::size_t SavingsEstimator::index_of(CellId cell) const {
  const std::size_t i =
      cell.value() < cand_index_.size() ? cand_index_[cell.value()] : kNotCandidate;
  if (i == kNotCandidate) throw Error("SavingsEstimator: cell is not a candidate");
  return i;
}

void SavingsEstimator::register_probes(ProbeHost& sim) {
  OPISO_REQUIRE(!probes_registered_, "register_probes: already registered");
  for (std::size_t i = 0; i < models_.size(); ++i) {
    CandidateModel& m = models_[i];
    const ExprRef f = cands_[i].activation;
    const ExprRef not_f = pool_.lnot(f);
    m.probe_f = sim.add_probe(f);
    for (PairProbe& pp : m.pair_probes) {
      const ExprRef ca = m.port_events[0][pp.a_event].condition;
      const ExprRef cb = m.port_events[1][pp.b_event].condition;
      pp.probe = sim.add_probe(pool_.land(not_f, pool_.land(ca, cb)));
    }
    for (FanoutTerm& ft : m.fanouts) {
      const ExprRef fj = cands_[ft.j].activation;
      ft.probe_active = sim.add_probe(pool_.land(not_f, pool_.land(fj, ft.g)));
      ft.probe_idle = sim.add_probe(pool_.land(not_f, pool_.land(pool_.lnot(fj), ft.g)));
    }
  }
  probes_registered_ = true;
}

double SavingsEstimator::pr_active(std::size_t i, const ActivityStats& stats) const {
  return stats.probe_probability(models_[i].probe_f);
}

double SavingsEstimator::pr_redundant(std::size_t i, const ActivityStats& stats) const {
  return 1.0 - pr_active(i, stats);
}

double SavingsEstimator::activation_toggle_rate(std::size_t i,
                                                const ActivityStats& stats) const {
  return stats.probe_toggle_rate(models_[i].probe_f);
}

double SavingsEstimator::actual_toggle_rate(double measured, double pr_active) {
  // Eq. 2. Guard against division by ~0: a module that is never active
  // has no meaningful active-cycle toggle rate.
  if (pr_active <= 1e-9) return 0.0;
  return measured / pr_active;
}

SavingsEstimator::SourceRate SavingsEstimator::source_rate(const PortEvent& ev,
                                                           const ActivityStats& stats,
                                                           NetId pin_net) const {
  if (ev.source == kBackground) return {stats.toggle_rate(pin_net), false};
  const IsolationCandidate& src = cands_[ev.source];
  const double measured = stats.toggle_rate(nl_.cell(src.cell).out);
  if (!src.already_isolated) return {measured, false};
  if (!ev.source_active) return {0.0, false};  // banks blocked during !f
  return {actual_toggle_rate(measured, stats.probe_probability(models_[ev.source].probe_f)),
          true};
}

std::string SavingsEstimator::source_name(const PortEvent& ev) const {
  if (ev.source == kBackground) return "(background)";
  std::string name = nl_.cell(cands_[ev.source].cell).name;
  name += ev.source_active ? " [active]" : " [idle]";
  return name;
}

double SavingsEstimator::primary_savings_mw(std::size_t i, const ActivityStats& stats,
                                            PrimaryModel model,
                                            std::vector<SavingsTerm>* terms) const {
  OPISO_REQUIRE(probes_registered_, "primary_savings_mw: probes not registered");
  const Cell& cell = nl_.cell(cands_[i].cell);
  const CandidateModel& m = models_[i];

  if (model == PrimaryModel::Simple || cell.ins.size() != 2 || m.pair_probes.empty()) {
    // Eq. (1): evenly distributed toggle rates.
    std::vector<double> rates;
    rates.reserve(cell.ins.size());
    for (NetId in : cell.ins) rates.push_back(stats.toggle_rate(in));
    const double saved =
        pr_redundant(i, stats) * power_.module_power_mw(cell.kind, cell.width, rates);
    if (terms) {
      SavingsTerm t;
      t.kind = "primary.simple";
      t.mw = saved;
      t.probability = pr_redundant(i, stats);
      t.rate_a = rates.empty() ? 0.0 : rates[0];
      t.rate_b = rates.size() > 1 ? rates[1] : 0.0;
      terms->push_back(std::move(t));
    }
    return saved;
  }

  // Eq. (3) generalized: sum over steering-event pairs.
  double saved = 0.0;
  for (const PairProbe& pp : m.pair_probes) {
    const double pr = stats.probe_probability(pp.probe);
    if (pr <= 0.0) continue;
    const PortEvent& ea = m.port_events[0][pp.a_event];
    const PortEvent& eb = m.port_events[1][pp.b_event];
    const SourceRate ra = source_rate(ea, stats, cell.ins[0]);
    const SourceRate rb = source_rate(eb, stats, cell.ins[1]);
    const double term_mw = pr * power_.module_power_mw(cell.kind, cell.width, ra.rate, rb.rate);
    saved += term_mw;
    if (terms) {
      SavingsTerm t;
      t.kind = "primary.pair";
      t.mw = term_mw;
      t.probability = pr;
      t.rate_a = ra.rate;
      t.rate_b = rb.rate;
      t.source_a = source_name(ea);
      t.source_b = source_name(eb);
      t.rescaled_a = ra.rescaled;
      t.rescaled_b = rb.rescaled;
      terms->push_back(std::move(t));
    }
  }
  return saved;
}

double SavingsEstimator::secondary_savings_mw(std::size_t i, const ActivityStats& stats,
                                              std::vector<SavingsTerm>* terms) const {
  OPISO_REQUIRE(probes_registered_, "secondary_savings_mw: probes not registered");
  const CandidateModel& m = models_[i];
  double saved = 0.0;
  for (const FanoutTerm& ft : m.fanouts) {
    const IsolationCandidate& cj = cands_[ft.j];
    const Cell& cell_j = nl_.cell(cj.cell);
    std::vector<double> rates;
    rates.reserve(cell_j.ins.size());
    for (NetId in : cell_j.ins) rates.push_back(stats.toggle_rate(in));

    auto delta_with_port_rate = [&](double port_rate) {
      std::vector<double> with = rates;
      with[static_cast<size_t>(ft.port)] = port_rate;
      std::vector<double> without = rates;
      without[static_cast<size_t>(ft.port)] = 0.0;
      return power_.module_power_mw(cell_j.kind, cell_j.width, with) -
             power_.module_power_mw(cell_j.kind, cell_j.width, without);
    };
    auto record = [&](const char* kind, double pr, double rate, bool rescaled, double mw) {
      if (!terms) return;
      SavingsTerm t;
      t.kind = kind;
      t.mw = mw;
      t.probability = pr;
      t.rate_a = rate;
      t.rescaled_a = rescaled;
      t.fanout = cell_j.name;
      t.fanout_port = ft.port;
      t.z_j = cj.already_isolated;
      terms->push_back(std::move(t));
    };

    const double measured = rates[static_cast<size_t>(ft.port)];
    // Term 1 (Eq. 5): c_i idle, c_j active, path connected. If c_j is
    // already isolated its pin rate concentrates in active cycles (Eq. 2).
    const double tr_active =
        cj.already_isolated
            ? actual_toggle_rate(measured, stats.probe_probability(models_[ft.j].probe_f))
            : measured;
    const double pr_act = stats.probe_probability(ft.probe_active);
    const double active_mw = pr_act * delta_with_port_rate(tr_active);
    saved += active_mw;
    record("secondary.active", pr_act, tr_active, cj.already_isolated, active_mw);
    // Term 2: c_i idle, c_j idle — only if c_j is not isolated (z_j = 0),
    // otherwise its banks already block the pin.
    if (!cj.already_isolated) {
      const double pr_idle = stats.probe_probability(ft.probe_idle);
      const double idle_mw = pr_idle * delta_with_port_rate(measured);
      saved += idle_mw;
      record("secondary.idle", pr_idle, measured, false, idle_mw);
    }
  }
  return saved;
}

double SavingsEstimator::overhead_mw(std::size_t i, const ActivityStats& stats,
                                     IsolationStyle style,
                                     std::vector<SavingsTerm>* terms) const {
  OPISO_REQUIRE(probes_registered_, "overhead_mw: probes not registered");
  const Cell& cell = nl_.cell(cands_[i].cell);
  const CellKind bank_kind = isolation_cell_kind(style);
  const double tr_as = activation_toggle_rate(i, stats);

  double overhead = 0.0;
  // Prospective isolation banks, one per input pin.
  for (NetId in : cell.ins) {
    const double bank_mw =
        power_.module_power_mw(bank_kind, nl_.net(in).width, stats.toggle_rate(in), tr_as);
    overhead += bank_mw;
    if (terms) {
      SavingsTerm t;
      t.kind = "overhead.bank";
      t.mw = bank_mw;
      t.rate_a = stats.toggle_rate(in);
      t.rate_b = tr_as;
      t.source_a = nl_.net(in).name;
      terms->push_back(std::move(t));
    }
  }
  // Gate-based banks force the module inputs to 0 (ones) on every
  // falling AS edge and release them on every rising edge: with random
  // operands, each AS toggle flips ~half the input word. This induced
  // module-internal switching is why "AND(OR)-based isolation will
  // result in power savings only if the module is idle for several
  // consecutive clock cycles" (Sec. 5.2) — latch banks hold instead.
  if (style != IsolationStyle::Latch) {
    for (int p = 0; p < static_cast<int>(cell.ins.size()); ++p) {
      const double induced_rate =
          tr_as * 0.5 * static_cast<double>(nl_.net(cell.ins[static_cast<size_t>(p)]).width);
      const double induced_mw = power_.energy_per_toggle_pj(cell.kind, cell.width, p) *
                                induced_rate * power_.clock_freq_mhz * 1e-3;
      overhead += induced_mw;
      if (terms) {
        SavingsTerm t;
        t.kind = "overhead.induced";
        t.mw = induced_mw;
        t.rate_a = induced_rate;
        t.rate_b = tr_as;
        t.source_a = nl_.net(cell.ins[static_cast<size_t>(p)]).name;
        terms->push_back(std::move(t));
      }
    }
  }
  // Activation logic: factored-form gates switching at roughly the
  // average rate of the control signals they combine.
  const ExprRef f = cands_[i].activation;
  const std::vector<BoolVar>& sup = models_[i].activation_support;
  double avg_rate = tr_as;
  if (!sup.empty()) {
    double sum = 0.0;
    for (BoolVar v : sup) sum += stats.toggle_rate(vars_.net_of(v));
    avg_rate = 0.5 * (tr_as + sum / static_cast<double>(sup.size()));
  }
  const double gates = static_cast<double>(pool_.gate_count(f));
  const double logic_mw = power_.module_power_mw(CellKind::And, 1, avg_rate * gates, 0.0);
  overhead += logic_mw;
  if (terms) {
    SavingsTerm t;
    t.kind = "overhead.logic";
    t.mw = logic_mw;
    t.rate_a = avg_rate * gates;
    t.rate_b = tr_as;
    terms->push_back(std::move(t));
  }
  return overhead;
}

}  // namespace opiso
