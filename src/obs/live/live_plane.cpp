#include "obs/live/live_plane.hpp"

#include <cstdio>
#include <cstdlib>
#include <cstring>

#if defined(__unix__) || defined(__APPLE__)
#include <unistd.h>
#endif

#include "common/format.hpp"

namespace realtor::obs::live {

namespace {

/// Ring buckets per time window.
constexpr std::size_t kBuckets = 6;
/// Default count window (decisions) for admission signals.
constexpr std::size_t kDecisionWindow = 50;
/// Per-bucket quantile reservoir for the episode-latency window.
constexpr std::size_t kLatencyReservoir = 256;
/// Open episodes older than this many windows are dropped from the open
/// count at the next tick.
constexpr double kEpisodeTimeoutWindows = 10.0;

const TraceField* find_field(const TraceEvent& event, const char* key) {
  for (std::uint32_t i = 0; i < event.field_count; ++i) {
    if (std::strcmp(event.fields[i].key, key) == 0) return &event.fields[i];
  }
  return nullptr;
}

std::uint64_t field_u64(const TraceEvent& event, const char* key) {
  const TraceField* field = find_field(event, key);
  return (field != nullptr && field->type == TraceField::Type::kUint)
             ? field->u
             : 0;
}

bool field_bool(const TraceEvent& event, const char* key) {
  const TraceField* field = find_field(event, key);
  return field != nullptr && field->type == TraceField::Type::kBool &&
         field->b;
}

bool signal_episode_quantile(RuleSignal signal) {
  return signal == RuleSignal::kEpisodeP50 ||
         signal == RuleSignal::kEpisodeP90 ||
         signal == RuleSignal::kEpisodeP99;
}

double signal_quantile(RuleSignal signal) {
  switch (signal) {
    case RuleSignal::kEpisodeP50:
      return 0.50;
    case RuleSignal::kEpisodeP90:
      return 0.90;
    default:
      return 0.99;
  }
}

void append_u64(std::string& out, std::uint64_t value) {
  char buffer[24];
  const int written =
      std::snprintf(buffer, sizeof(buffer), "%llu",
                    static_cast<unsigned long long>(value));
  out.append(buffer, static_cast<std::size_t>(written));
}

/// Prometheus label values escape backslash, quote and newline.
void append_label_escaped(std::string& out, const std::string& value) {
  for (const char c : value) {
    if (c == '\\' || c == '"') {
      out += '\\';
      out += c;
    } else if (c == '\n') {
      out += "\\n";
    } else {
      out += c;
    }
  }
}

}  // namespace

LivePlane::LivePlane(LiveConfig config, TraceSink* downstream)
    : config_(std::move(config)),
      downstream_(downstream),
      decisions_(kDecisionWindow),
      helps_(config_.window, kBuckets),
      messages_(config_.window, kBuckets),
      rejections_(config_.window, kBuckets),
      episode_latency_(config_.window, kBuckets, kLatencyReservoir),
      alive_(static_cast<std::int64_t>(config_.node_count)) {
  const std::vector<std::string> specs =
      config_.rules.empty() ? default_alert_rules() : config_.rules;
  for (const std::string& spec : specs) {
    RuleState state;
    std::string parse_error;
    if (!parse_alert_rule(spec, state.rule, &parse_error)) {
      fail(parse_error);
      continue;
    }
    if (signal_count_windowed(state.rule.signal)) {
      const std::size_t n = state.rule.window > 0.0
                                ? static_cast<std::size_t>(state.rule.window)
                                : kDecisionWindow;
      state.tail.emplace(n);
    } else if (signal_rated(state.rule.signal)) {
      const double span =
          state.rule.window > 0.0 ? state.rule.window : config_.window;
      state.sliding.emplace(span, kBuckets);
    } else if (signal_episode_quantile(state.rule.signal)) {
      const double span =
          state.rule.window > 0.0 ? state.rule.window : config_.window;
      state.sliding.emplace(span, kBuckets, kLatencyReservoir);
    }
    rules_.push_back(std::move(state));
  }

  if (!config_.out.empty()) {
    has_output_ = true;
    if (config_.out == "-") {
      to_stdout_ = true;
      config_.write_through = true;
    } else if (config_.out.rfind("fd:", 0) == 0) {
      char* end = nullptr;
      const long fd = std::strtol(config_.out.c_str() + 3, &end, 10);
      if (end == nullptr || *end != '\0' || fd < 0) {
        fail("--live-metrics: bad file descriptor '" + config_.out + "'");
        has_output_ = false;
      } else {
        fd_ = static_cast<int>(fd);
        config_.write_through = true;
      }
    }
  }
}

LivePlane::~LivePlane() = default;

void LivePlane::fail(const std::string& message) {
  ok_ = false;
  if (!error_.empty()) error_ += "; ";
  error_ += message;
}

void LivePlane::set_owned_downstream(std::unique_ptr<TraceSink> downstream) {
  owned_downstream_ = std::move(downstream);
  downstream_ = owned_downstream_.get();
}

bool LivePlane::alert_firing(const std::string& name) const {
  for (const RuleState& state : rules_) {
    if (state.rule.name == name) return state.firing;
  }
  return false;
}

std::vector<AlertRule> LivePlane::rules() const {
  std::vector<AlertRule> out;
  out.reserve(rules_.size());
  for (const RuleState& state : rules_) out.push_back(state.rule);
  return out;
}

void LivePlane::emit_downstream(const TraceEvent& event) {
  if (downstream_ != nullptr) downstream_->on_event(event);
}

void LivePlane::on_event(const TraceEvent& event) {
  // Forward first so self-emitted alert events land after the tick that
  // produced them, in both live and prefix-replay ingestion.
  emit_downstream(event);
  ingest(event);
}

void LivePlane::ingest(const TraceEvent& event) {
  ++events_seen_;
  if (event.kind < EventKind::kCount) {
    ++kind_totals_[static_cast<std::size_t>(event.kind)];
  }
  const SimTime now = event.time;
  switch (event.kind) {
    case EventKind::kTaskAdmitLocal:
    case EventKind::kTaskAdmitMigrated:
      on_decision(now, true, field_u64(event, "episode"));
      break;
    case EventKind::kTaskRejected:
      ++rejections_total_;
      rejections_.count(now);
      feed_rated(RuleSignal::kRejectionRate, now);
      on_message(now, RuleSignal::kRejectionRate);
      on_decision(now, false, field_u64(event, "episode"));
      break;
    case EventKind::kHelpSent: {
      ++helps_total_;
      helps_.count(now);
      feed_rated(RuleSignal::kHelpRate, now);
      on_message(now, RuleSignal::kMessageRate);
      const std::uint64_t episode = field_u64(event, "episode");
      if (episode != 0) open_.emplace(episode, now);
      break;
    }
    case EventKind::kPledgeSent:
    case EventKind::kAdvertSent:
    case EventKind::kGossipRound:
    case EventKind::kSolicit:
    case EventKind::kEscalation:
      on_message(now, RuleSignal::kMessageRate);
      break;
    case EventKind::kNodeKilled:
      --alive_;
      break;
    case EventKind::kNodeRestored:
      ++alive_;
      break;
    case EventKind::kLiveTick:
      tick(now, field_bool(event, "final"));
      break;
    default:
      break;
  }
}

void LivePlane::feed_rated(RuleSignal signal, SimTime now) {
  for (RuleState& state : rules_) {
    if (state.rule.signal == signal && state.sliding.has_value()) {
      state.sliding->count(now);
    }
  }
}

void LivePlane::on_message(SimTime now, RuleSignal rated_signal) {
  // Rejections count toward their own rate only; every protocol message
  // kind also feeds the aggregate message economy.
  if (rated_signal == RuleSignal::kMessageRate) {
    ++messages_total_;
    messages_.count(now);
    feed_rated(RuleSignal::kMessageRate, now);
  }
}

void LivePlane::on_decision(SimTime now, bool admitted,
                            std::uint64_t episode) {
  ++decisions_total_;
  const double outcome = admitted ? 1.0 : 0.0;
  decisions_.observe(outcome);
  for (RuleState& state : rules_) {
    if (state.tail.has_value()) state.tail->observe(outcome);
  }
  if (episode != 0) {
    const auto it = open_.find(episode);
    if (it != open_.end()) {
      const double latency = now - it->second;
      open_.erase(it);
      episode_latency_.observe(now, latency);
      for (RuleState& state : rules_) {
        if (state.sliding.has_value() &&
            signal_episode_quantile(state.rule.signal)) {
          state.sliding->observe(now, latency);
        }
      }
    }
  }
}

double LivePlane::evaluate(RuleState& state, SimTime now,
                           double* effective_bound) {
  const AlertRule& rule = state.rule;
  *effective_bound = rule.bound;
  switch (rule.signal) {
    case RuleSignal::kAdmissionProbability: {
      const WindowSnapshot snap = state.tail->snapshot();
      return snap.count > 0 ? snap.mean() : 1.0;
    }
    case RuleSignal::kAdmissionBurn: {
      const WindowSnapshot snap = state.tail->snapshot();
      const double admission = snap.count > 0 ? snap.mean() : 1.0;
      return (1.0 - admission) / (1.0 - rule.param);
    }
    case RuleSignal::kHelpRate:
    case RuleSignal::kMessageRate:
    case RuleSignal::kRejectionRate: {
      state.sliding->advance(now);
      if (rule.relative) {
        const std::uint64_t total =
            rule.signal == RuleSignal::kHelpRate      ? helps_total_
            : rule.signal == RuleSignal::kMessageRate ? messages_total_
                                                      : rejections_total_;
        const double baseline =
            now > 0.0 ? static_cast<double>(total) / now : 0.0;
        *effective_bound = rule.bound * baseline;
      }
      return state.sliding->rate(now);
    }
    case RuleSignal::kEpisodeP50:
    case RuleSignal::kEpisodeP90:
    case RuleSignal::kEpisodeP99:
      state.sliding->advance(now);
      return state.sliding->quantile(signal_quantile(rule.signal));
    case RuleSignal::kNodesAlive:
      return static_cast<double>(alive_);
    case RuleSignal::kOpenEpisodes:
      return static_cast<double>(open_.size());
  }
  return 0.0;
}

void LivePlane::tick(SimTime now, bool final_tick) {
  // Drop abandoned episodes (opened, never decided — e.g. the organizer
  // died) so open_episodes measures live distress, not history.
  const double timeout = kEpisodeTimeoutWindows * config_.window;
  while (!open_.empty() && open_.begin()->second < now - timeout) {
    open_.erase(open_.begin());
  }

  // Rotate the default windows even through quiet stretches.
  helps_.advance(now);
  messages_.advance(now);
  rejections_.advance(now);
  episode_latency_.advance(now);

  for (RuleState& state : rules_) {
    double effective_bound = 0.0;
    const double value = evaluate(state, now, &effective_bound);
    state.last_value = value;
    const bool holds = compare(state.rule.op, value, effective_bound);
    if (holds == state.firing) continue;
    state.firing = holds;
    if (holds) ++alerts_fired_;
    TraceEvent alert(now, kInvalidNode,
                     holds ? EventKind::kAlertFiring
                           : EventKind::kAlertCleared);
    alert.with("rule", state.rule.name.c_str())
        .with("signal", to_string(state.rule.signal))
        .with("value", value)
        .with("bound", effective_bound);
    emit_downstream(alert);
    if (alert_listener_) alert_listener_(state.rule, holds, now, value);
  }

  ++snapshots_;
  write_snapshot(now, final_tick);
}

void LivePlane::render_snapshot(std::string& out, SimTime now,
                                bool final_tick) {
  out += "# realtor_live snapshot ";
  append_u64(out, snapshots_);
  out += " t=";
  append_double_shortest(out, now);
  if (final_tick) out += " final";
  out += '\n';

  out += "realtor_live_time ";
  append_double_shortest(out, now);
  out += '\n';
  out += "realtor_live_nodes_alive ";
  append_double_shortest(out, static_cast<double>(alive_));
  out += '\n';
  out += "realtor_live_nodes_total ";
  append_u64(out, config_.node_count);
  out += '\n';
  out += "realtor_live_open_episodes ";
  append_u64(out, open_.size());
  out += '\n';
  out += "realtor_live_decisions_total ";
  append_u64(out, decisions_total_);
  out += '\n';

  const WindowSnapshot admissions = decisions_.snapshot();
  out += "realtor_live_admission_probability ";
  append_double_shortest(out,
                         admissions.count > 0 ? admissions.mean() : 1.0);
  out += '\n';
  out += "realtor_live_help_rate ";
  append_double_shortest(out, helps_.rate(now));
  out += '\n';
  out += "realtor_live_message_rate ";
  append_double_shortest(out, messages_.rate(now));
  out += '\n';
  out += "realtor_live_rejection_rate ";
  append_double_shortest(out, rejections_.rate(now));
  out += '\n';
  out += "realtor_live_episode_latency_p50 ";
  append_double_shortest(out, episode_latency_.quantile(0.50));
  out += '\n';
  out += "realtor_live_episode_latency_p99 ";
  append_double_shortest(out, episode_latency_.quantile(0.99));
  out += '\n';

  for (std::size_t kind = 0; kind < kind_totals_.size(); ++kind) {
    if (kind_totals_[kind] == 0) continue;
    out += "realtor_live_events_total{kind=\"";
    out += to_string(static_cast<EventKind>(kind));
    out += "\"} ";
    append_u64(out, kind_totals_[kind]);
    out += '\n';
  }

  out += "realtor_live_alerts_fired_total ";
  append_u64(out, alerts_fired_);
  out += '\n';
  for (const RuleState& state : rules_) {
    out += "realtor_live_alert{rule=\"";
    append_label_escaped(out, state.rule.name);
    out += "\"} ";
    out += state.firing ? '1' : '0';
    out += '\n';
    out += "realtor_live_alert_value{rule=\"";
    append_label_escaped(out, state.rule.name);
    out += "\"} ";
    append_double_shortest(out, state.last_value);
    out += '\n';
  }
  out += '\n';
}

void LivePlane::write_snapshot(SimTime now, bool final_tick) {
  if (!has_output_) {
    // No exposition target: still maintain the in-memory history so
    // embedders (tests, directly or through agile::Cluster::live()) can
    // read exposition().
    render_snapshot(text_, now, final_tick);
    return;
  }
  if (!config_.write_through) {
    render_snapshot(text_, now, final_tick);
    return;
  }
  std::string snapshot;
  render_snapshot(snapshot, now, final_tick);
  if (to_stdout_) {
    std::fwrite(snapshot.data(), 1, snapshot.size(), stdout);
    std::fflush(stdout);
    return;
  }
  if (fd_ >= 0) {
#if defined(__unix__) || defined(__APPLE__)
    std::size_t off = 0;
    while (off < snapshot.size()) {
      const ::ssize_t n =
          ::write(fd_, snapshot.data() + off, snapshot.size() - off);
      if (n <= 0) {
        if (ok_) fail("--live-metrics: write to fd failed");
        return;
      }
      off += static_cast<std::size_t>(n);
    }
#else
    if (ok_) fail("--live-metrics: fd targets need a POSIX platform");
#endif
    return;
  }
  // File target: rewrite in place so the file always holds the latest
  // complete scrape.
  std::ofstream file(config_.out, std::ios::trunc);
  if (!file) {
    if (ok_) fail("--live-metrics: cannot open '" + config_.out + "'");
    return;
  }
  file.write(snapshot.data(),
             static_cast<std::streamsize>(snapshot.size()));
}

void LivePlane::flush() {
  if (has_output_ && !config_.write_through) {
    std::ofstream file(config_.out, std::ios::trunc);
    if (!file) {
      if (ok_) fail("--live-metrics: cannot open '" + config_.out + "'");
    } else {
      file.write(text_.data(), static_cast<std::streamsize>(text_.size()));
    }
  }
  if (downstream_ != nullptr) downstream_->flush();
}

}  // namespace realtor::obs::live
