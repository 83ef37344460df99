#include "experiment/sim_transport.hpp"

#include <utility>

#include "common/assert.hpp"
#include "common/profile.hpp"

namespace realtor::experiment {

namespace {
/// fan_out() group argument addressing the whole flat overlay.
constexpr federation::GroupId kFlatOverlay = ~federation::GroupId{0};
}  // namespace

SimTransport::SimTransport(sim::Engine& engine, const net::Topology& topology,
                           const net::CostModel& cost_model,
                           net::MessageLedger& ledger, SimTime delay,
                           Deliver deliver)
    : engine_(engine),
      topology_(topology),
      cost_model_(cost_model),
      ledger_(ledger),
      delay_(delay),
      deliver_(std::move(deliver)),
      paths_(cost_model.paths()) {
  REALTOR_ASSERT(delay_ >= 0.0);
  REALTOR_ASSERT(static_cast<bool>(deliver_));
}

std::uint32_t SimTransport::hop_distance(NodeId from, NodeId to) const {
  return clamp_hops(paths_.hops(from, to));
}

net::MessageKind SimTransport::kind_of(const proto::Message& msg) {
  if (std::holds_alternative<proto::HelpMsg>(msg)) {
    return net::MessageKind::kHelp;
  }
  if (std::holds_alternative<proto::PledgeMsg>(msg)) {
    return net::MessageKind::kPledge;
  }
  if (std::holds_alternative<proto::GossipMsg>(msg)) {
    return net::MessageKind::kGossip;
  }
  return net::MessageKind::kPushAdvert;
}

void SimTransport::deliver_later(NodeId dest, NodeId origin, Payload payload,
                                 std::uint32_t hops) {
  // Delivery is a separate event even at delay 0 so that receivers run
  // after the sender's current handler completes (FIFO at equal times).
  // With a positive per-hop delay, propagation is hop-accurate: a flood
  // reaches near neighbors before far ones, a unicast takes its path
  // length in legs.
  engine_.schedule_in(delay_ * static_cast<double>(hops),
                      [this, dest, origin, payload = std::move(payload)] {
                        if (topology_.alive(dest)) {
                          deliver_(dest, origin, *payload);
                        }
                      });
}

void SimTransport::deliver_later(NodeId dest, NodeId origin,
                                 proto::Message msg, std::uint32_t hops) {
  engine_.schedule_in(delay_ * static_cast<double>(hops),
                      [this, dest, origin, msg = std::move(msg)] {
                        if (topology_.alive(dest)) {
                          deliver_(dest, origin, msg);
                        }
                      });
}

void SimTransport::fan_out(NodeId origin, federation::GroupId group,
                           Payload payload, bool hop_accurate) {
  obs::ProfileScope scope("transport/fan_out");
  // Hop-accurate propagation (positive delay, flood semantics) needs a
  // distinct firing time per destination and therefore one event per
  // destination; all other fan-outs fire at a single uniform time and can
  // walk the destinations inside one batched event. Batched and
  // per-destination schedules are observably equivalent (header comment);
  // batching turns N-1 heap pushes into one.
  const bool flat = group == kFlatOverlay;
  if (batched() && !hop_accurate) {
    engine_.schedule_in(delay_, [this, origin, group, payload =
                                     std::move(payload)] {
      if (group == kFlatOverlay) {
        const NodeId n = topology_.num_nodes();
        for (NodeId dest = 0; dest < n; ++dest) {
          if (dest == origin || !topology_.alive(dest)) continue;
          deliver_(dest, origin, *payload);
        }
      } else {
        for (const NodeId dest : groups_->members(group)) {
          if (dest == origin || !topology_.alive(dest)) continue;
          deliver_(dest, origin, *payload);
        }
      }
    });
    return;
  }

  // One staleness resolution per flood, not per destination: the row
  // pointer stays valid for the whole loop because nothing below touches
  // the path cache.
  const std::uint32_t* row = hop_accurate ? paths_.row(origin) : nullptr;
  const auto leg = [&](NodeId dest) {
    return row != nullptr ? clamp_hops(row[dest]) : 1u;
  };
  if (flat) {
    const NodeId n = topology_.num_nodes();
    for (NodeId dest = 0; dest < n; ++dest) {
      if (dest == origin || !topology_.alive(dest)) continue;
      deliver_later(dest, origin, payload, leg(dest));
    }
  } else {
    for (const NodeId dest : groups_->members(group)) {
      if (dest == origin || !topology_.alive(dest)) continue;
      deliver_later(dest, origin, payload, leg(dest));
    }
  }
}

void SimTransport::flood(NodeId origin, const proto::Message& msg) {
  if (groups_ != nullptr) {
    // Federated overlay: the flood stays inside the origin's neighbor
    // group and costs only that group's links.
    const federation::GroupId group = groups_->group_of(origin);
    ledger_.record(kind_of(msg), static_cast<double>(
        groups_->intra_group_alive_links(group, topology_)));
    fan_out(origin, group, wrap(msg), delay_ > 0.0);
    return;
  }
  ledger_.record(kind_of(msg), cost_model_.flood_cost());
  fan_out(origin, kFlatOverlay, wrap(msg), delay_ > 0.0);
}

void SimTransport::escalate(NodeId origin, federation::GroupId target_group,
                            const proto::Message& msg) {
  REALTOR_ASSERT_MSG(groups_ != nullptr, "escalate() needs a group map");
  const NodeId gateway = groups_->gateway(target_group, topology_);
  if (gateway == kInvalidNode) return;  // whole group is down
  // Transit to the remote gateway (2 unicast legs: origin -> own gateway
  // -> remote gateway) plus the remote group's internal flood.
  const double transit = 2.0 * cost_model_.unicast_cost(origin, gateway);
  const double remote_flood = static_cast<double>(
      groups_->intra_group_alive_links(target_group, topology_));
  ledger_.record(kind_of(msg), transit + remote_flood);
  // Escalated floods are charged a flat transit and delivered after one
  // uniform leg (matching the original per-destination schedule).
  fan_out(origin, target_group, wrap(msg), /*hop_accurate=*/false);
}

void SimTransport::unicast(NodeId from, NodeId to, const proto::Message& msg) {
  obs::ProfileScope scope("transport/unicast");
  ledger_.record(kind_of(msg), cost_model_.unicast_cost(from, to));
  // Record-and-drop: a unicast between alive endpoints in different
  // partitions of the alive subgraph is charged (the sender pays for the
  // attempt) but the message dies at the partition edge instead of
  // teleporting across it.
  if (topology_.alive(from) && topology_.alive(to) &&
      !paths_.reachable(from, to)) {
    ++dropped_unreachable_;
    if (tracer_ != nullptr && tracer_->active()) {
      obs::TraceEvent event(engine_.now(), from,
                            obs::EventKind::kUnreachableDrop);
      event.with("to", to).with("msg", net::to_string(kind_of(msg)));
      // HELP and PLEDGE carry the discovery-episode id; attribute the
      // drop so the scorecard can charge it to the right episode.
      if (const auto* help = std::get_if<proto::HelpMsg>(&msg)) {
        event.with("episode", help->episode).with("cause", help->cause);
      } else if (const auto* pledge = std::get_if<proto::PledgeMsg>(&msg)) {
        event.with("episode", pledge->episode).with("cause", pledge->cause);
      }
      tracer_->emit(event);
    }
    return;
  }
  deliver_later(to, from, proto::Message(msg),
                delay_ > 0.0 ? hop_distance(from, to) : 1);
}

}  // namespace realtor::experiment
