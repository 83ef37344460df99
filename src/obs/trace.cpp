#include "obs/trace.hpp"

#include "common/assert.hpp"

namespace realtor::obs {

const char* to_string(EventKind kind) {
  switch (kind) {
    case EventKind::kHelpSent:
      return "help_sent";
    case EventKind::kHelpReceived:
      return "help_received";
    case EventKind::kPledgeSent:
      return "pledge_sent";
    case EventKind::kPledgeReceived:
      return "pledge_received";
    case EventKind::kAdvertSent:
      return "advert_sent";
    case EventKind::kGossipRound:
      return "gossip_round";
    case EventKind::kHelpInterval:
      return "help_interval";
    case EventKind::kThresholdCrossing:
      return "threshold_crossing";
    case EventKind::kCommunityJoin:
      return "community_join";
    case EventKind::kCommunityExpire:
      return "community_expire";
    case EventKind::kSolicit:
      return "solicit";
    case EventKind::kTaskArrival:
      return "task_arrival";
    case EventKind::kTaskAdmitLocal:
      return "task_admit_local";
    case EventKind::kTaskAdmitMigrated:
      return "task_admit_migrated";
    case EventKind::kTaskRejected:
      return "task_rejected";
    case EventKind::kTaskCompleted:
      return "task_completed";
    case EventKind::kMigrationAttempt:
      return "migration_attempt";
    case EventKind::kMigrationAbort:
      return "migration_abort";
    case EventKind::kMigrationSuccess:
      return "migration_success";
    case EventKind::kNodeKilled:
      return "node_killed";
    case EventKind::kNodeRestored:
      return "node_restored";
    case EventKind::kEvacuation:
      return "evacuation";
    case EventKind::kEscalation:
      return "escalation";
    case EventKind::kDeadlineMiss:
      return "deadline_miss";
    case EventKind::kUnreachableDrop:
      return "unreachable_drop";
    case EventKind::kEngineStep:
      return "engine_step";
    case EventKind::kNodeSample:
      return "node_sample";
    case EventKind::kSystemSample:
      return "system_sample";
    case EventKind::kLiveTick:
      return "live_tick";
    case EventKind::kAlertFiring:
      return "alert_firing";
    case EventKind::kAlertCleared:
      return "alert_cleared";
    case EventKind::kCount:
      break;
  }
  return "?";
}

bool parse_event_kind(std::string_view name, EventKind& out) {
  for (std::size_t i = 0; i < static_cast<std::size_t>(EventKind::kCount);
       ++i) {
    const auto kind = static_cast<EventKind>(i);
    if (name == to_string(kind)) {
      out = kind;
      return true;
    }
  }
  return false;
}

void TraceEvent::payload_too_large() {
  detail::assertion_failure("field_count < kMaxTraceFields", __FILE__,
                            __LINE__, "trace event payload too large");
}

std::size_t MemorySink::count(EventKind kind) const {
  std::size_t n = 0;
  for (const TraceEvent& event : events_) {
    if (event.kind == kind) ++n;
  }
  return n;
}

std::vector<TraceEvent> MemorySink::events_of(NodeId node) const {
  std::vector<TraceEvent> out;
  for (const TraceEvent& event : events_) {
    if (event.node == node) out.push_back(event);
  }
  return out;
}

}  // namespace realtor::obs
