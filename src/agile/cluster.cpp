#include "agile/cluster.hpp"

#include <algorithm>
#include <thread>

#include "common/assert.hpp"
#include "sim/arrivals.hpp"

namespace realtor::agile {

double ClusterMetrics::admission_probability() const {
  if (arrivals_processed == 0) return 0.0;
  return static_cast<double>(admitted_total()) /
         static_cast<double>(arrivals_processed);
}

double ClusterMetrics::migration_rate() const {
  if (admitted_total() == 0) return 0.0;
  return static_cast<double>(admitted_migrated) /
         static_cast<double>(admitted_total());
}

double ClusterMetrics::mean_migration_latency() const {
  if (migration_latency_samples == 0) return 0.0;
  return static_cast<double>(migration_latency_us) * 1e-6 /
         static_cast<double>(migration_latency_samples);
}

Cluster::Cluster(const ClusterConfig& config)
    : config_(config),
      clock_(config.time_compression),
      network_(config.num_hosts, config.loss_probability, config.seed,
               clock_.to_wall(config.network_delay)),
      topology_(net::make_complete(config.num_hosts)) {
  REALTOR_ASSERT(config_.num_hosts > 0);
  hosts_.reserve(config_.num_hosts);
  const auto resolver = [this](NodeId id) -> HostRuntime* {
    return id < hosts_.size() ? hosts_[id].get() : nullptr;
  };
  router_.sinks.assign(config_.num_hosts, nullptr);
  if (config_.live) {
    obs::live::LiveConfig live = *config_.live;
    live.node_count = config_.num_hosts;
    live_ = std::make_unique<obs::live::LivePlane>(std::move(live));
    router_.live = live_.get();
  }
  if (config_.trace_sink_factory || live_) tracer_.set_sink(&router_);
  for (NodeId id = 0; id < config_.num_hosts; ++id) {
    HostConfig host_config;
    host_config.id = id;
    host_config.queue_capacity = config_.queue_capacity;
    host_config.protocol = config_.protocol;
    host_config.discovery = config_.discovery;
    host_config.max_tries = config_.max_tries;
    host_config.network_delay = config_.network_delay;
    host_config.speculative_migration = config_.speculative_migration;
    proto::ProtocolEnv shared;
    shared.topology = &topology_;
    shared.seed = config_.seed;
    shared.episodes = &episodes_;
    if (config_.trace_sink_factory) {
      router_.sinks[id] = config_.trace_sink_factory(id);
    }
    if (router_.sinks[id] != nullptr || live_) shared.tracer = &tracer_;
    hosts_.push_back(std::make_unique<HostRuntime>(
        host_config, clock_, network_, naming_, std::move(shared), resolver));
  }
}

void Cluster::HostSinkRouter::on_event(const obs::TraceEvent& event) {
  if (event.node < sinks.size() && sinks[event.node] != nullptr) {
    sinks[event.node]->on_event(event);
  }
  if (live != nullptr) {
    std::lock_guard<std::mutex> lock(live_mutex_);
    live->on_event(event);
  }
}

void Cluster::HostSinkRouter::flush() {
  for (obs::TraceSink* sink : sinks) {
    if (sink != nullptr) sink->flush();
  }
}

Cluster::~Cluster() {
  for (auto& host : hosts_) {
    host->stop();
  }
}

ClusterMetrics Cluster::run() {
  REALTOR_ASSERT_MSG(!ran_, "Cluster::run() is one-shot");
  ran_ = true;

  // Pre-generate the workload so the driver only sleeps and injects. A
  // generous count is truncated at model_duration.
  const std::size_t estimate = static_cast<std::size_t>(
      config_.lambda * config_.model_duration * 1.5 + 64.0);
  auto trace = sim::generate_poisson_trace(
      config_.seed, config_.lambda, config_.mean_task_size,
      config_.num_hosts, estimate);
  while (!trace.empty() && trace.back().time > config_.model_duration) {
    trace.pop_back();
  }

  // Driver timeline, executed between arrival injections: attack kills
  // and restores, and the live plane's tick boundaries.
  enum class Step { kKill, kRestore, kTick };
  struct TimelineEvent {
    SimTime time;
    NodeId victim;
    Step step;
  };
  const SimTime end = config_.model_duration + config_.drain;
  std::vector<TimelineEvent> events;
  for (const ClusterConfig::Attack& attack : config_.attacks) {
    REALTOR_ASSERT(attack.victim < config_.num_hosts);
    events.push_back({attack.time, attack.victim, Step::kKill});
    if (attack.outage > 0.0) {
      events.push_back(
          {attack.time + attack.outage, attack.victim, Step::kRestore});
    }
  }
  if (live_ && config_.live_cadence > 0.0) {
    for (std::uint64_t k = 1;
         static_cast<double>(k) * config_.live_cadence < end; ++k) {
      events.push_back({static_cast<double>(k) * config_.live_cadence,
                        kInvalidNode, Step::kTick});
    }
  }
  // Stable: a kill or restore lands before the tick at the same instant.
  std::stable_sort(events.begin(), events.end(),
                   [](const TimelineEvent& a, const TimelineEvent& b) {
                     return a.time < b.time;
                   });
  std::size_t next_event = 0;
  std::uint64_t killed = 0;
  std::uint64_t restored = 0;
  const auto apply_events_until = [&](SimTime t) {
    while (next_event < events.size() && events[next_event].time <= t) {
      const TimelineEvent& event = events[next_event++];
      std::this_thread::sleep_until(clock_.wall_at(event.time));
      switch (event.step) {
        case Step::kKill:
          // Traced after the join, so the victim's reactor has made its
          // last write to the victim's sink.
          hosts_[event.victim]->stop();
          tracer_.emit(obs::TraceEvent(clock_.now(), event.victim,
                                       obs::EventKind::kNodeKilled));
          if (config_.on_attack) {
            config_.on_attack(static_cast<std::size_t>(killed), event.time);
          }
          ++killed;
          break;
        case Step::kRestore:
          // Traced before the respawn, for the same reason. restart()
          // rebuilds the host's protocol, so the restore is cold.
          tracer_.emit(obs::TraceEvent(clock_.now(), event.victim,
                                       obs::EventKind::kNodeRestored)
                           .with("cold", true));
          hosts_[event.victim]->restart();
          ++restored;
          break;
        case Step::kTick:
          tracer_.emit(obs::TraceEvent(event.time, kInvalidNode,
                                       obs::EventKind::kLiveTick));
          break;
      }
    }
  };

  // Each host's engine starts at the clock's reading, so re-base the clock
  // first: setup since construction (trace rings, the workload) must not
  // put the engines ahead of model time.
  clock_.reset_epoch();
  for (auto& host : hosts_) {
    host->start();
  }
  // Reactors are up; re-base model time so thread spawn latency does not
  // consume the experiment timeline. The engines' clamp absorbs this one
  // small step back.
  clock_.reset_epoch();

  for (const sim::Arrival& arrival : trace) {
    apply_events_until(arrival.time);
    std::this_thread::sleep_until(clock_.wall_at(arrival.time));
    TaskArrival task;
    task.id = arrival.id;
    task.size_seconds = arrival.size_seconds;
    task.injected_at = arrival.time;
    network_.deliver_reliable(arrival.node, arrival.node, Payload{task});
  }
  apply_events_until(end);
  std::this_thread::sleep_until(clock_.wall_at(end));

  for (auto& host : hosts_) {
    host->stop();
  }
  // Every reactor has joined, so the final snapshot counts every decision
  // the metrics below count.
  if (live_) {
    tracer_.emit(obs::TraceEvent(end, kInvalidNode, obs::EventKind::kLiveTick)
                     .with("final", true));
    live_->flush();
  }
  ClusterMetrics metrics = aggregate(trace.size());
  metrics.hosts_killed = killed;
  metrics.hosts_restored = restored;
  return metrics;
}

ClusterMetrics Cluster::aggregate(std::uint64_t generated) const {
  ClusterMetrics m;
  m.generated = generated;
  for (const auto& host : hosts_) {
    const HostStats& s = host->stats();
    m.arrivals_processed += s.arrivals.load();
    m.admitted_local += s.admitted_local.load();
    m.admitted_migrated += s.admitted_migrated.load();
    m.rejected += s.rejected.load();
    m.transfers += s.transfers_in.load();
    m.completions += s.completions.load();
    m.deadline_misses += s.deadline_misses.load();
    m.helps += s.helps_sent.load();
    m.pledges += s.pledges_sent.load();
    m.negotiations += s.negotiation_calls.load();
    m.speculative_accepted += s.speculative_accepted.load();
    m.speculative_rejected += s.speculative_rejected.load();
    m.migration_latency_us += s.migration_latency_us.load();
    m.migration_latency_samples += s.migration_latency_samples.load();
  }
  m.naming_updates = naming_.updates();
  m.datagrams_sent = network_.sent();
  m.datagrams_dropped = network_.dropped();
  return m;
}

}  // namespace realtor::agile
