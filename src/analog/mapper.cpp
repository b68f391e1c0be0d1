#include "analog/mapper.hpp"

#include <cmath>
#include <map>
#include <stdexcept>
#include <string>

namespace aflow::analog {

namespace {

class CircuitBuilder {
 public:
  CircuitBuilder(const graph::FlowNetwork& g, const SubstrateConfig& config,
                 QuantizationMode mode, const ResistancePerturbation& perturb)
      : g_(g), config_(config), perturb_(perturb),
        r_(config.lrs_resistance) {
    out_.quantizer = Quantizer(config.vdd, config.voltage_levels,
                               g.max_capacity(), mode);
    out_.base_resistance = r_;
    out_.vflow_value = config.vflow;
  }

  MaxFlowCircuit build() {
    auto& nl = out_.netlist;
    out_.edge_node.assign(g_.num_edges(), -1);
    out_.edge_neg_node.assign(g_.num_edges(), -1);
    out_.vertex_node.assign(g_.num_vertices(), -1);

    // Objective drive (Fig. 3).
    out_.vflow_node = nl.new_node("vflow");
    out_.vflow_source =
        nl.add_vsource(out_.vflow_node, circuit::kGround, config_.vflow);

    // Edge nodes + capacity clamps (Fig. 1).
    for (int e = 0; e < g_.num_edges(); ++e) {
      const auto& edge = g_.edge(e);
      const bool usable = edge.from != g_.sink() && edge.to != g_.source();
      if (!usable) {
        out_.dropped_edges.push_back(e);
        continue;
      }
      const circuit::NodeId x = nl.new_node("x" + std::to_string(e));
      out_.edge_node[e] = x;
      add_capacity_clamp(x, edge.capacity);
    }

    // Conservation circuits (Fig. 2) and objective links.
    const graph::Incidence inc(g_);
    for (int v = 0; v < g_.num_vertices(); ++v) {
      if (v == g_.source() || v == g_.sink()) continue;
      int connections = 0;
      for (int a : inc.arcs(v)) connections += out_.edge_node[a >> 1] >= 0;
      if (connections == 0) continue;
      const circuit::NodeId n = nl.new_node("n" + std::to_string(v));
      out_.vertex_node[v] = n;
      add_negative_resistor(n, r_ / connections,
                            {ResistorRole::kColumnNegRes, -1, v});
    }

    for (int e = 0; e < g_.num_edges(); ++e) {
      const circuit::NodeId x = out_.edge_node[e];
      if (x < 0) continue;
      const auto& edge = g_.edge(e);

      // Tail side: objective link from the source, conservation link else.
      if (edge.from == g_.source()) {
        add_resistor(out_.vflow_node, x, r_, {ResistorRole::kObjectiveLink, e, -1});
        out_.source_edges.push_back(e);
        out_.num_source_edges++;
      } else {
        add_resistor(x, out_.vertex_node[edge.from], r_,
                     {ResistorRole::kTailLink, e, edge.from});
      }

      // Head side: negation widget into the head column (skip the sink,
      // whose column carries no conservation constraint — footnote 3).
      if (edge.to != g_.sink()) {
        const circuit::NodeId xm = nl.new_node("x" + std::to_string(e) + "m");
        const circuit::NodeId p = nl.new_node("p" + std::to_string(e));
        out_.edge_neg_node[e] = xm;
        add_resistor(x, p, r_, {ResistorRole::kNegationInput, e, edge.to});
        add_resistor(xm, p, r_, {ResistorRole::kNegationMirror, e, edge.to});
        add_negative_resistor(p, r_ / 2.0, {ResistorRole::kWidgetNegRes, e, edge.to});
        add_resistor(xm, out_.vertex_node[edge.to], r_,
                     {ResistorRole::kHeadLink, e, edge.to});
      }
    }

    // Parasitic capacitance (Sec. 5.1: 20 fF per net). By default only the
    // crossbar-visible nets (Vflow row, edge nodes, column nodes) are
    // loaded; widget-internal nodes are micron-scale and their dynamics
    // belong to the negative-resistor model (see SubstrateConfig).
    // The Vflow node is pinned by its source; a parasitic there only adds
    // an inrush-current artefact to the Iflow readout, so it is skipped.
    if (config_.parasitic_capacitance > 0.0) {
      if (config_.parasitics_on_internal_nodes) {
        const int nodes_before_caps = nl.num_nodes();
        for (circuit::NodeId node = 1; node < nodes_before_caps; ++node) {
          if (node == out_.vflow_node) continue;
          nl.add_capacitor(node, circuit::kGround, config_.parasitic_capacitance);
        }
      } else {
        auto add_cap = [&](circuit::NodeId node) {
          if (node >= 0)
            nl.add_capacitor(node, circuit::kGround,
                             config_.parasitic_capacitance);
        };
        for (circuit::NodeId node : out_.edge_node) add_cap(node);
        for (circuit::NodeId node : out_.vertex_node) add_cap(node);
      }
    }

    return std::move(out_);
  }

 private:
  double perturbed(double nominal, const ResistorSite& site) const {
    return perturb_ ? perturb_(nominal, site) : nominal;
  }

  void add_resistor(circuit::NodeId a, circuit::NodeId b, double nominal,
                    const ResistorSite& site) {
    out_.netlist.add_resistor(a, b, perturbed(nominal, site));
  }

  void add_negative_resistor(circuit::NodeId node, double magnitude,
                             const ResistorSite& site) {
    auto& nl = out_.netlist;
    // Stability margin (see SubstrateConfig): bias the magnitude above the
    // marginal design point.
    magnitude *= 1.0 + config_.stability_margin;
    switch (config_.fidelity) {
      case NegResFidelity::kIdeal:
        nl.add_negative_resistor(node, circuit::kGround,
                                 perturbed(magnitude, site), 0.0);
        break;
      case NegResFidelity::kLag: {
        const double mag = perturbed(magnitude, site);
        if (config_.lag_uses_series_element) {
          nl.add_negative_resistor(node, circuit::kGround, mag,
                                   config_.lag_tau());
        } else {
          // First-order equivalent of the lagged NIC input admittance:
          //   Y(s) = -G / (1 + s tau) ~ -G + s (G tau),
          // i.e. an ideal negative conductance plus a shunt capacitor G*tau.
          // The full one-pole lag element is a saddle whenever the network
          // conductance seen by the element is below G (the classic NIC
          // stability constraint); this equivalent keeps the exact DC
          // solution while retaining GBW-proportional dynamics.
          nl.add_negative_resistor(node, circuit::kGround, mag, 0.0);
          nl.add_capacitor(node, circuit::kGround, config_.lag_tau() / mag);
        }
        break;
      }
      case NegResFidelity::kOpAmpNic: {
        // Explicit Fig. 9a converter; its three resistors are separate
        // fabrication sites.
        const circuit::NodeId vminus = nl.new_node();
        const circuit::NodeId vout = nl.new_node();
        ResistorSite s0 = site;
        s0.role = ResistorRole::kNicFeedback;
        nl.add_resistor(vout, vminus, perturbed(config_.nic_r0, s0));
        s0.role = ResistorRole::kNicGround;
        nl.add_resistor(vminus, circuit::kGround, perturbed(config_.nic_r0, s0));
        s0.role = ResistorRole::kNicTarget;
        nl.add_resistor(vout, node, perturbed(magnitude, s0));
        nl.add_opamp(node, vminus, vout, config_.opamp_params());
        if (config_.nic_anti_latch) {
          // Anti-latch clamps (see SubstrateConfig): bound the NIC output
          // swing to break the positive-feedback latch while staying
          // outside normal operation (|Vout| ~ 2|Vterminal| <= ~2 Vdd).
          const double level =
              std::min(config_.anti_latch_margin * config_.vdd,
                       0.45 * config_.opamp_params().v_rail);
          if (level > 0.0) {
            nl.add_diode(vout, level_rail(level), config_.diode);
            nl.add_diode(level_rail(-level), vout, config_.diode);
          }
        }
        break;
      }
    }
  }

  /// Fig. 1: two diodes and a (shared) level source clamp x into
  /// [0, Q(c)]. With a nonzero diode turn-on voltage and compensation on,
  /// source values are shifted by Von (footnote 2).
  void add_capacity_clamp(circuit::NodeId x, double capacity) {
    auto& nl = out_.netlist;
    const double von =
        config_.compensate_diode_von ? config_.diode.v_on : 0.0;

    // Lower clamp (V >= 0): diode from a -Von rail (ground when Von = 0).
    nl.add_diode(lower_rail(von), x, config_.diode);

    // Upper clamp (V <= Q(c)): diode into the level source shifted by -Von.
    const double level = out_.quantizer.to_voltage(capacity);
    nl.add_diode(x, level_rail(level - von), config_.diode);
  }

  circuit::NodeId lower_rail(double von) {
    if (von == 0.0) return circuit::kGround;
    return level_rail(von);
  }

  /// One shared voltage source per distinct level (Sec. 4.1: "one voltage
  /// source will be used for multiple edges") — or, with
  /// dedicated_level_sources, one source per clamp so the netlist shape is
  /// independent of the programmed levels (reconfiguration batches).
  circuit::NodeId level_rail(double volts) {
    if (config_.dedicated_level_sources) {
      // No dedupe, and a 0 V level still gets a real source: the pattern
      // must not change when a reprogrammed capacity quantizes to zero.
      const circuit::NodeId node =
          out_.netlist.new_node("lvl" + std::to_string(num_dedicated_rails_++));
      out_.netlist.add_vsource(node, circuit::kGround, volts);
      return node;
    }
    if (volts == 0.0) return circuit::kGround;
    const long long key = std::llround(volts * 1e9); // dedupe to 1 nV
    const auto it = level_nodes_.find(key);
    if (it != level_nodes_.end()) return it->second;
    const circuit::NodeId node =
        out_.netlist.new_node("lvl" + std::to_string(level_nodes_.size()));
    out_.netlist.add_vsource(node, circuit::kGround, volts);
    level_nodes_.emplace(key, node);
    return node;
  }

  const graph::FlowNetwork& g_;
  const SubstrateConfig& config_;
  const ResistancePerturbation& perturb_;
  double r_;
  MaxFlowCircuit out_;
  std::map<long long, circuit::NodeId> level_nodes_;
  int num_dedicated_rails_ = 0;
};

} // namespace

double MaxFlowCircuit::flow_value_volts(std::span<const double> x,
                                        const circuit::MnaAssembler& mna) const {
  double sum = 0.0;
  for (int e : source_edges) sum += mna.node_voltage(edge_node[e], x);
  return sum;
}

std::vector<double> MaxFlowCircuit::edge_flows(
    std::span<const double> x, const circuit::MnaAssembler& mna) const {
  std::vector<double> flows(edge_node.size(), 0.0);
  for (size_t e = 0; e < edge_node.size(); ++e) {
    if (edge_node[e] < 0) continue;
    flows[e] = quantizer.to_flow(mna.node_voltage(edge_node[e], x));
  }
  return flows;
}

double MaxFlowCircuit::max_conservation_violation_volts(
    std::span<const double> x, const circuit::MnaAssembler& mna,
    const graph::FlowNetwork& net) const {
  double worst = 0.0;
  const graph::Incidence inc(net);
  for (int v = 0; v < net.num_vertices(); ++v) {
    if (v == net.source() || v == net.sink()) continue;
    if (vertex_node[v] < 0) continue;
    // Inflow first, then outflow: odd arcs are v's in-edges, even arcs its
    // out-edges, each in edge order.
    double balance = 0.0;
    bool any = false;
    for (const int parity : {1, 0}) {
      for (int a : inc.arcs(v)) {
        const int e = a >> 1;
        if ((a & 1) != parity || edge_node[e] < 0) continue;
        const double volts = mna.node_voltage(edge_node[e], x);
        balance += parity ? volts : -volts;
        any = true;
      }
    }
    if (any) worst = std::max(worst, std::abs(balance));
  }
  return worst;
}

MapperCounts count_devices(const circuit::Netlist& net) {
  MapperCounts c;
  c.nodes = net.num_nodes();
  c.resistors = static_cast<int>(net.resistors().size());
  c.negative_resistors = static_cast<int>(net.negative_resistors().size());
  c.diodes = static_cast<int>(net.diodes().size());
  c.opamps = static_cast<int>(net.opamps().size());
  c.vsources = static_cast<int>(net.vsources().size());
  c.capacitors = static_cast<int>(net.capacitors().size());
  return c;
}

MaxFlowCircuit build_maxflow_circuit(const graph::FlowNetwork& net,
                                     const SubstrateConfig& config,
                                     QuantizationMode mode,
                                     const ResistancePerturbation& perturb) {
  net.validate();
  if (net.num_edges() == 0)
    throw std::invalid_argument("build_maxflow_circuit: graph has no edges");
  return CircuitBuilder(net, config, mode, perturb).build();
}

} // namespace aflow::analog
