#include "obs/span.hpp"

#include <map>

namespace realtor::obs {

std::vector<SpanEvent> normalize_events(const EventStore& store) {
  // The payload keys a SpanEvent lifts, resolved to interned ids once.
  // Keys the trace never used resolve to kNoStrId, which no stored field
  // carries.
  const StrId episode = store.find_id("episode");
  const StrId origin = store.find_id("origin");
  const StrId organizer = store.find_id("organizer");
  const StrId pledger = store.find_id("pledger");
  const StrId target = store.find_id("target");
  const StrId availability = store.find_id("availability");
  const StrId interval = store.find_id("interval");
  const StrId urgency = store.find_id("urgency");
  const StrId answered = store.find_id("answered");
  const StrId id = store.find_id("id");
  const StrId cause = store.find_id("cause");
  const StrId backoff = store.find_id("backoff");
  const StrId cold = store.find_id("cold");

  std::vector<SpanEvent> out;
  out.reserve(store.size());
  const std::vector<StoredField>& fields = store.fields();
  for (const EventRec& rec : store.records()) {
    const EventKind kind = store.kind_of(rec.kind);
    if (kind == EventKind::kCount) continue;  // unknown kind: skip
    SpanEvent span;
    span.time = rec.time;
    span.node = rec.node;
    span.kind = kind;
    const StoredField* field = fields.data() + rec.field_begin;
    const StoredField* end = field + rec.field_count;
    for (; field != end; ++field) {
      const double number = field->number;  // 0.0 for non-number types
      if (field->key == episode) {
        span.episode = static_cast<std::uint64_t>(number);
      } else if (field->key == origin || field->key == organizer ||
                 field->key == pledger || field->key == target) {
        span.peer = static_cast<NodeId>(number);
      } else if (field->key == availability) {
        span.availability = number;
      } else if (field->key == interval) {
        span.interval = number;
      } else if (field->key == urgency) {
        span.urgency = number;
      } else if (field->key == answered &&
                 field->type == FieldType::kBool) {
        span.answered = field->boolean;
      } else if (field->key == id) {
        span.lineage = static_cast<std::uint64_t>(number);
      } else if (field->key == cause) {
        span.cause = static_cast<std::uint64_t>(number);
      } else if (field->key == backoff) {
        span.backoff = number;
      } else if (field->key == cold && field->type == FieldType::kBool) {
        span.cold = field->boolean;
      }
    }
    out.push_back(span);
  }
  return out;
}

std::vector<Episode> build_episodes(const std::vector<SpanEvent>& events) {
  std::map<std::uint64_t, Episode> by_id;
  for (const SpanEvent& event : events) {
    if (event.episode == 0) continue;
    Episode& episode = by_id[event.episode];
    episode.id = event.episode;
    switch (event.kind) {
      case EventKind::kHelpSent:
        // First help_sent wins: an id is allocated exactly once, so a
        // second sighting can only be a malformed trace — keep the first.
        if (!episode.started) {
          episode.started = true;
          episode.origin = event.node;
          episode.start_time = event.time;
          episode.urgency = event.urgency;
        }
        break;
      case EventKind::kHelpReceived:
        ++episode.helps_received;
        break;
      case EventKind::kPledgeSent:
        ++episode.pledges_sent;
        break;
      case EventKind::kPledgeReceived:
        ++episode.pledges_received;
        if (episode.first_pledge_time < 0.0) {
          episode.first_pledge_time = event.time;
        }
        break;
      case EventKind::kMigrationAttempt:
        ++episode.migration_attempts;
        if (episode.first_attempt_time < 0.0) {
          episode.first_attempt_time = event.time;
        }
        break;
      case EventKind::kTaskAdmitMigrated:
        // Duplicates migration_success for counting, but carries the
        // admission-decision timestamp the stage breakdown needs.
        if (episode.first_admission_time < 0.0) {
          episode.first_admission_time = event.time;
        }
        break;
      case EventKind::kDeadlineMiss:
        ++episode.deadline_misses;
        break;
      case EventKind::kUnreachableDrop:
        ++episode.unreachable_drops;
        break;
      case EventKind::kMigrationAbort:
        ++episode.migration_aborts;
        break;
      case EventKind::kMigrationSuccess:
        ++episode.migrations;
        if (episode.first_migration_time < 0.0) {
          episode.first_migration_time = event.time;
          episode.first_migration_target = event.peer;
        }
        break;
      case EventKind::kTaskRejected:
        ++episode.rejections;
        break;
      default:
        break;
    }
  }
  std::vector<Episode> out;
  out.reserve(by_id.size());
  for (auto& [id, episode] : by_id) {
    out.push_back(episode);
  }
  return out;
}

EpisodeSummary summarize_episodes(const std::vector<Episode>& episodes) {
  EpisodeSummary summary;
  for (const Episode& episode : episodes) {
    ++summary.episodes;
    if (!episode.started) continue;  // latencies need the opening HELP
    if (episode.has_pledge()) {
      ++summary.with_pledge;
      summary.time_to_first_pledge.observe(episode.time_to_first_pledge());
    }
    if (episode.has_migration()) {
      ++summary.with_migration;
      summary.time_to_migration.observe(episode.time_to_migration());
    }
  }
  return summary;
}

}  // namespace realtor::obs
