#include "experiment/cli_config.hpp"

#include <charconv>
#include <cmath>
#include <cstdio>
#include <sstream>
#include <stdexcept>
#include <string_view>
#include <type_traits>

#include "proto/factory.hpp"

namespace realtor::experiment {

TopologyKind parse_topology_kind(const std::string& name) {
  if (name == "torus") return TopologyKind::kTorus;
  if (name == "ring") return TopologyKind::kRing;
  if (name == "star") return TopologyKind::kStar;
  if (name == "complete") return TopologyKind::kComplete;
  if (name == "random") return TopologyKind::kRandom;
  return TopologyKind::kMesh;
}

void apply_topology_flags(const Flags& flags, ScenarioConfig& config) {
  config.topology.kind =
      parse_topology_kind(flags.get_string("topology", "mesh"));
  config.topology.width =
      static_cast<NodeId>(flags.get_int("width", config.topology.width));
  config.topology.height =
      static_cast<NodeId>(flags.get_int("height", config.topology.height));
  config.topology.nodes =
      static_cast<NodeId>(flags.get_int("nodes", config.topology.nodes));
  config.topology.links = static_cast<std::size_t>(
      flags.get_int("links", static_cast<std::int64_t>(config.topology.links)));
  config.topology.seed = static_cast<std::uint64_t>(flags.get_int(
      "topo-seed", static_cast<std::int64_t>(config.topology.seed)));
  if (config.topology.kind != TopologyKind::kMesh) {
    config.fixed_unicast_cost.reset();  // 4 is only right for the 5x5 mesh
  }
  config.approx_path_stats = flags.get_bool("approx-paths", false);
}

namespace {

/// One attack field: the whole text is a finite non-negative number (an
/// integer when T is).
template <typename T>
bool parse_attack_field(std::string_view text, T& out) {
  const char* end = text.data() + text.size();
  const auto [ptr, ec] = std::from_chars(text.data(), end, out);
  if (ec != std::errc() || ptr != end) return false;
  if constexpr (std::is_floating_point_v<T>) {
    return std::isfinite(out) && out >= 0.0;
  }
  return true;
}

bool parse_attack_wave(std::string_view entry, AttackWave& wave) {
  std::string_view fields[4];
  for (std::size_t i = 0; i < 4; ++i) {
    const std::size_t colon = entry.find(':');
    if ((colon == std::string_view::npos) != (i == 3)) return false;
    fields[i] = entry.substr(0, colon);
    entry.remove_prefix(i == 3 ? entry.size() : colon + 1);
  }
  return parse_attack_field(fields[0], wave.time) &&
         parse_attack_field(fields[1], wave.count) &&
         parse_attack_field(fields[2], wave.grace) &&
         parse_attack_field(fields[3], wave.outage);
}

}  // namespace

std::vector<AttackWave> parse_attack_waves(const std::string& spec) {
  std::vector<AttackWave> waves;
  std::istringstream stream(spec);
  std::string entry;
  while (std::getline(stream, entry, ',')) {
    AttackWave wave;
    if (!parse_attack_wave(entry, wave)) {
      throw std::invalid_argument(
          "attack entry " + std::to_string(waves.size()) + " '" + entry +
          "': expected time:count:grace:outage (non-negative numbers, "
          "integer count)");
    }
    waves.push_back(wave);
  }
  return waves;
}

ScenarioConfig scenario_from_flags(const Flags& flags) {
  ScenarioConfig config;

  // Workload.
  config.lambda = flags.get_double("lambda", config.lambda);
  config.duration = flags.get_double("duration", 600.0);
  config.warmup = flags.get_double("warmup", 0.0);
  config.seed = static_cast<std::uint64_t>(flags.get_int("seed", 42));
  config.queue_capacity = flags.get_double("queue", config.queue_capacity);
  config.mean_task_size =
      flags.get_double("task-size", config.mean_task_size);

  // Topology.
  apply_topology_flags(flags, config);

  // Protocol.
  if (const auto kind =
          proto::parse_protocol(flags.get_string("protocol", "realtor"))) {
    config.protocol_kind = *kind;
  }
  proto::ProtocolConfig& p = config.protocol;
  p.help_threshold = flags.get_double("help-threshold", p.help_threshold);
  p.pledge_threshold =
      flags.get_double("pledge-threshold", p.pledge_threshold);
  p.alpha = flags.get_double("alpha", p.alpha);
  p.beta = flags.get_double("beta", p.beta);
  p.help_upper_limit = flags.get_double("upper-limit", p.help_upper_limit);
  p.help_timeout = flags.get_double("help-timeout", p.help_timeout);
  p.push_interval = flags.get_double("push-interval", p.push_interval);
  p.soft_state_ttl = flags.get_double("ttl", p.soft_state_ttl);
  p.max_communities = static_cast<std::uint32_t>(
      flags.get_int("max-communities", p.max_communities));
  p.gossip_interval = flags.get_double("gossip-interval", p.gossip_interval);
  p.gossip_fanout = static_cast<std::uint32_t>(
      flags.get_int("gossip-fanout", p.gossip_fanout));
  if (flags.get_string("reward", "migration") == "pledge") {
    p.reward_policy = proto::HelpRewardPolicy::kOnFirstUsefulPledge;
  }

  // Migration policy.
  config.migration.max_tries =
      static_cast<std::uint32_t>(flags.get_int("tries", 1));

  // Accounting.
  if (flags.get_string("cost", "paper") == "exact") {
    config.cost_mode = net::CostMode::kExactHops;
    config.fixed_unicast_cost.reset();
  }
  if (flags.get_string("flood", "links") == "spanning") {
    config.flood_mode = net::FloodMode::kSpanningTree;
  }
  if (flags.has("unicast")) {
    config.fixed_unicast_cost = flags.get_double("unicast", 4.0);
  }

  // Attacks.
  if (flags.has("attack")) {
    config.attacks = parse_attack_waves(flags.get_string("attack", ""));
  }

  // Extensions.
  if (flags.get_bool("multires", false)) {
    config.multi_resource.enabled = true;
    config.multi_resource.mean_bandwidth_share = flags.get_double(
        "bw-mean", config.multi_resource.mean_bandwidth_share);
    config.multi_resource.secure_task_fraction = flags.get_double(
        "secure-fraction", config.multi_resource.secure_task_fraction);
  }
  const std::string federate = flags.get_string("federate", "");
  if (!federate.empty()) {
    config.federation.enabled = true;
    unsigned w = 0, h = 0;
    if (std::sscanf(federate.c_str(), "%ux%u", &w, &h) == 2) {
      config.federation.block_width = static_cast<NodeId>(w);
      config.federation.block_height = static_cast<NodeId>(h);
    } else {
      config.federation.group_size = static_cast<NodeId>(
          flags.get_int("group-size", config.federation.group_size));
    }
    config.federation.escalation_window = flags.get_double(
        "escalation-window", config.federation.escalation_window);
  }
  if (flags.has("elusive")) {
    config.elusiveness.enabled = true;
    config.elusiveness.period = flags.get_double("elusive", 20.0);
  }

  // Output probes.
  config.timeline_interval = flags.get_double("timeline", 0.0);
  config.sample_interval = flags.get_double("sample-interval", 0.0);
  config.engine_sample_every = static_cast<std::uint64_t>(
      flags.get_int("engine-sample", 0));
  config.live_cadence = flags.get_double("live-cadence", 0.0);
  return config;
}

}  // namespace realtor::experiment
