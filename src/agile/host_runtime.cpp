#include "agile/host_runtime.hpp"

#include <algorithm>
#include <utility>

#include "agile/component.hpp"
#include "common/assert.hpp"
#include "common/profile.hpp"

namespace realtor::agile {
namespace {
// Reactor wake-up cap: stay responsive to shutdown and late datagrams even
// with no pending engine event.
constexpr std::chrono::milliseconds kMaxWait{20};
}  // namespace

HostRuntime::HostRuntime(const HostConfig& config, const Clock& clock,
                         DatagramNetwork& network, NamingService& naming,
                         proto::ProtocolEnv shared, PeerResolver peers)
    : config_(config),
      clock_(clock),
      network_(network),
      naming_(naming),
      env_(std::move(shared)),
      peers_(std::move(peers)) {
  REALTOR_ASSERT(config_.queue_capacity > 0.0);
  REALTOR_ASSERT(config_.max_tries >= 1);
  REALTOR_ASSERT(env_.topology != nullptr &&
                 env_.topology->num_nodes() > config_.id);
  REALTOR_ASSERT(static_cast<bool>(peers_));
}

HostRuntime::~HostRuntime() { stop(); }

void HostRuntime::start(std::latch* gate) {
  if (running_.exchange(true)) return;
  // A new incarnation: a restarted engine starts at the current model time
  // so periodic protocols do not replay the ticks of an outage. Built here,
  // before the reactor spawns, it is reactor-confined from then on.
  protocol_.reset();
  engine_ = std::make_unique<sim::Engine>();
  if (gate == nullptr) engine_->run_until(clock_.now());
  speculations_.clear();
  proto::ProtocolEnv env = env_;
  env.engine = engine_.get();
  env.transport = this;
  env.local_occupancy = [this] { return occupancy(); };
  protocol_ = proto::make_protocol(config_.discovery, config_.id,
                                   config_.protocol, std::move(env));
  protocol_->start();
  thread_ = std::thread([this, gate] {
    if (gate != nullptr) gate->wait();
    reactor();
  });
}

void HostRuntime::stop() {
  if (!running_.exchange(false)) return;
  network_.inbox(config_.id).close();
  if (thread_.joinable()) {
    thread_.join();
  }
  stats_.speculative_unresolved.fetch_add(speculations_.size(),
                                          std::memory_order_relaxed);
}

void HostRuntime::restart() {
  REALTOR_ASSERT_MSG(!running_.load(), "restart() requires a stopped host");
  {
    std::lock_guard<std::mutex> lock(admit_mutex_);
    finish_time_ = 0.0;
    cus_.reset();
  }
  network_.inbox(config_.id).reopen();
  start();  // rebuilds the engine and the protocol cold
}

std::optional<HostRuntime::Reservation> HostRuntime::request_admission(
    double size_seconds) {
  REALTOR_ASSERT(size_seconds > 0.0);
  if (!running_.load(std::memory_order_relaxed)) {
    return std::nullopt;  // a killed host refuses the negotiation
  }
  const SimTime now = clock_.now();
  std::lock_guard<std::mutex> lock(admit_mutex_);
  const double backlog = std::max(0.0, finish_time_ - now);
  if (backlog + size_seconds > config_.queue_capacity + 1e-9) {
    return std::nullopt;
  }
  finish_time_ = std::max(now, finish_time_) + size_seconds;
  Reservation reservation;
  reservation.completion_time = finish_time_;
  reservation.deadline = cus_.assign_deadline(now, size_seconds);
  return reservation;
}

double HostRuntime::occupancy() const {
  const SimTime now = clock_.now();
  std::lock_guard<std::mutex> lock(admit_mutex_);
  return std::max(0.0, finish_time_ - now) / config_.queue_capacity;
}

void HostRuntime::reactor() {
  Inbox& inbox = network_.inbox(config_.id);
  while (true) {
    auto wake = std::chrono::steady_clock::now() + kMaxWait;
    const SimTime next = engine_->next_event_time();
    if (next != kNeverTime) wake = std::min(wake, clock_.wall_at(next));
    auto datagram = inbox.pop_until(wake);
    // Fire due timers and bring the engine up to the clock.
    engine_->run_until(clock_.now());
    if (datagram) {
      handle(*datagram);
    } else if (inbox.closed() ||
               !running_.load(std::memory_order_relaxed)) {
      break;
    }
  }
}

void HostRuntime::flood(NodeId origin, const proto::Message& msg) {
  count_sent(msg);
  network_.multicast(origin, Payload{msg});
}

void HostRuntime::unicast(NodeId from, NodeId to, const proto::Message& msg) {
  count_sent(msg);
  network_.send(from, to, Payload{msg});
}

void HostRuntime::count_sent(const proto::Message& msg) {
  // HELPs have their own stat; pledges, adverts and gossip digests share
  // the availability channel's.
  auto& stat = std::holds_alternative<proto::HelpMsg>(msg)
                   ? stats_.helps_sent
                   : stats_.pledges_sent;
  stat.fetch_add(1, std::memory_order_relaxed);
}

void HostRuntime::schedule_completion(TaskId task,
                                      const Reservation& booked) {
  engine_->schedule_at(std::max(booked.completion_time, engine_->now()),
                       [this, task, booked] { complete(task, booked); });
}

void HostRuntime::complete(TaskId task, const Reservation& booked) {
  stats_.completions.fetch_add(1, std::memory_order_relaxed);
  // Deadlines are met in *model* time: CUS at U=1 makes the deadline
  // coincide with the booked completion instant, so reactor wake-up
  // jitter must not be charged as a miss.
  const bool missed = booked.completion_time > booked.deadline + 1e-9;
  if (missed) {
    stats_.deadline_misses.fetch_add(1, std::memory_order_relaxed);
    if (tracing()) {
      trace(trace_event(obs::EventKind::kDeadlineMiss)
                .with("task", task)
                .with("lateness", booked.completion_time - booked.deadline));
    }
  }
  naming_.unregister(task);
  if (tracing()) {
    trace(trace_event(obs::EventKind::kTaskCompleted)
              .with("task", task)
              .with("missed", missed));
  }
  protocol_->on_status_change(occupancy());
}

void HostRuntime::trace_decision(obs::EventKind kind, TaskId task,
                                 std::uint64_t episode) const {
  if (!tracing()) return;
  obs::TraceEvent event = trace_event(kind);
  event.with("task", task);
  if (kind != obs::EventKind::kTaskAdmitLocal) event.with("episode", episode);
  trace(event);
}

void HostRuntime::handle(const Datagram& datagram) {
  obs::ProfileScope scope("agile/handle");
  if (const auto* arrival = std::get_if<TaskArrival>(&datagram.payload)) {
    handle_arrival(*arrival);
  } else if (const auto* transfer =
                 std::get_if<TaskTransfer>(&datagram.payload)) {
    handle_transfer(*transfer);
  } else if (const auto* spec =
                 std::get_if<SpeculativeTransfer>(&datagram.payload)) {
    handle_speculative(datagram.from, *spec);
  } else if (const auto* result =
                 std::get_if<SpeculativeResult>(&datagram.payload)) {
    handle_speculative_result(*result);
  } else if (const auto* msg =
                 std::get_if<proto::Message>(&datagram.payload)) {
    protocol_->on_message(datagram.from, *msg);
  }
}

void HostRuntime::handle_arrival(const TaskArrival& arrival) {
  stats_.arrivals.fetch_add(1, std::memory_order_relaxed);
  const double occupancy_with_task =
      occupancy() + arrival.size_seconds / config_.queue_capacity;

  if (const auto reservation = request_admission(arrival.size_seconds)) {
    stats_.admitted_local.fetch_add(1, std::memory_order_relaxed);
    trace_decision(obs::EventKind::kTaskAdmitLocal, arrival.id);
    naming_.register_component(arrival.id, config_.id);
    schedule_completion(arrival.id, *reservation);
    protocol_->on_status_change(occupancy());
  } else {
    switch (try_migrate(arrival)) {
      case MigrateStatus::kMigrated:
        stats_.admitted_migrated.fetch_add(1, std::memory_order_relaxed);
        trace_decision(obs::EventKind::kTaskAdmitMigrated, arrival.id,
                       protocol_->current_episode());
        break;
      case MigrateStatus::kRejected:
        stats_.rejected.fetch_add(1, std::memory_order_relaxed);
        trace_decision(obs::EventKind::kTaskRejected, arrival.id,
                       protocol_->current_episode());
        break;
      case MigrateStatus::kInFlight:
        break;  // resolved by the SpeculativeResult
    }
  }

  // As in the simulation, the protocol's trigger runs after the decision:
  // a pull scheme's candidates were gathered by earlier solicitations.
  protocol_->on_task_arrival(occupancy_with_task);
}

HostRuntime::MigrateStatus HostRuntime::try_migrate(
    const TaskArrival& arrival) {
  const SimTime now = clock_.now();
  const auto candidates = protocol_->migration_candidates();
  const double fraction = arrival.size_seconds / config_.queue_capacity;

  if (config_.speculative_migration) {
    // §3 speculative migration: fire the component state at the best
    // candidate together with the admission request; the reply resolves
    // the outcome asynchronously. One try, like the paper's experiments.
    for (const NodeId target : candidates) {
      if (target == config_.id) continue;
      stats_.negotiation_calls.fetch_add(1, std::memory_order_relaxed);
      naming_.register_component(arrival.id, config_.id);
      speculations_.emplace(
          arrival.id,
          Speculation{target, fraction, protocol_->current_episode()});
      SpeculativeTransfer spec;
      spec.id = arrival.id;
      spec.size_seconds = arrival.size_seconds;
      spec.decision_time = now;
      network_.deliver_reliable(config_.id, target, Payload{spec});
      return MigrateStatus::kInFlight;
    }
    return MigrateStatus::kRejected;
  }

  const auto wire_delay = clock_.to_wall(config_.network_delay);
  std::uint32_t tries = 0;
  for (const NodeId target : candidates) {
    if (tries >= config_.max_tries) break;
    if (target == config_.id) continue;
    ++tries;
    stats_.negotiation_calls.fetch_add(1, std::memory_order_relaxed);
    HostRuntime* peer = peers_(target);
    // Sequential negotiation: request leg, remote admission test, reply
    // leg — the reactor blocks exactly like a synchronous TCP exchange.
    if (config_.network_delay > 0.0) std::this_thread::sleep_for(wire_delay);
    const auto reservation =
        peer ? peer->request_admission(arrival.size_seconds) : std::nullopt;
    if (config_.network_delay > 0.0) std::this_thread::sleep_for(wire_delay);
    if (!reservation) {
      protocol_->on_migration_result(target, fraction, /*success=*/false);
      continue;
    }
    protocol_->on_migration_result(target, fraction, /*success=*/true);
    // The migration subsystem moves the (timer) component state and the
    // naming service learns the new location (§3 steps 7-9).
    naming_.register_component(arrival.id, config_.id);
    naming_.update_location(arrival.id, target);
    MigratableComponent component(arrival.id, arrival.size_seconds);
    const auto packed = component.pack();
    const auto unpacked = MigratableComponent::unpack(packed);
    REALTOR_ASSERT_MSG(unpacked.has_value(), "state serialization broke");
    TaskTransfer transfer;
    transfer.id = unpacked->id();
    transfer.size_seconds = unpacked->remaining_seconds();
    transfer.completion_time = reservation->completion_time;
    transfer.deadline = reservation->deadline;
    transfer.decision_time = now;
    network_.deliver_reliable(config_.id, target, Payload{transfer});
    return MigrateStatus::kMigrated;
  }
  return MigrateStatus::kRejected;
}

void HostRuntime::record_migration_latency(SimTime decision_time) {
  const double latency = clock_.now() - decision_time;
  if (latency < 0.0) return;  // clock skew guard; model time is monotone
  stats_.migration_latency_us.fetch_add(
      static_cast<std::uint64_t>(latency * 1e6), std::memory_order_relaxed);
  stats_.migration_latency_samples.fetch_add(1, std::memory_order_relaxed);
}

void HostRuntime::handle_transfer(const TaskTransfer& transfer) {
  stats_.transfers_in.fetch_add(1, std::memory_order_relaxed);
  schedule_completion(transfer.id,
                      Reservation{transfer.completion_time, transfer.deadline});
  record_migration_latency(transfer.decision_time);
  protocol_->on_status_change(occupancy());
}

void HostRuntime::handle_speculative(NodeId from,
                                     const SpeculativeTransfer& transfer) {
  SpeculativeResult result;
  result.id = transfer.id;
  if (const auto reservation = request_admission(transfer.size_seconds)) {
    result.accepted = true;
    stats_.transfers_in.fetch_add(1, std::memory_order_relaxed);
    schedule_completion(transfer.id, *reservation);
    naming_.update_location(transfer.id, config_.id);
    record_migration_latency(transfer.decision_time);
    protocol_->on_status_change(occupancy());
  }
  network_.deliver_reliable(config_.id, from, Payload{result});
}

void HostRuntime::handle_speculative_result(const SpeculativeResult& result) {
  const auto it = speculations_.find(result.id);
  if (it == speculations_.end()) return;  // duplicate/stray
  const Speculation spec = it->second;
  speculations_.erase(it);
  if (result.accepted) {
    stats_.admitted_migrated.fetch_add(1, std::memory_order_relaxed);
    trace_decision(obs::EventKind::kTaskAdmitMigrated, result.id,
                   spec.episode);
    stats_.speculative_accepted.fetch_add(1, std::memory_order_relaxed);
    protocol_->on_migration_result(spec.target, spec.fraction,
                                   /*success=*/true);
  } else {
    stats_.rejected.fetch_add(1, std::memory_order_relaxed);
    trace_decision(obs::EventKind::kTaskRejected, result.id, spec.episode);
    stats_.speculative_rejected.fetch_add(1, std::memory_order_relaxed);
    protocol_->on_migration_result(spec.target, spec.fraction,
                                   /*success=*/false);
    naming_.unregister(result.id);  // the component perished with the miss
  }
}

}  // namespace realtor::agile
