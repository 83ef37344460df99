#include "obs/scorecard.hpp"

#include <algorithm>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <limits>

#include "common/format.hpp"
#include "obs/event_store.hpp"

namespace realtor::obs {
namespace {

void append_uint(std::string& out, std::uint64_t value) {
  char buf[24];
  const auto res = std::to_chars(buf, buf + sizeof(buf), value);
  out.append(buf, res.ptr);
}

void append_double(std::string& out, double value) {
  if (!std::isfinite(value)) {  // defensive: stages are finite by design
    out += "null";
    return;
  }
  char buf[32];
  const auto res = std::to_chars(buf, buf + sizeof(buf), value);
  out.append(buf, res.ptr);
}

void append_latency(std::string& out, const char* name,
                    const Histogram& histogram) {
  out += '"';
  out += name;
  out += "\":{\"n\":";
  const auto& stats = histogram.stats();
  append_uint(out, stats.count());
  if (stats.count() > 0) {
    out += ",\"mean\":";
    append_double(out, stats.mean());
    out += ",\"p50\":";
    append_double(out, histogram.p50());
    out += ",\"p90\":";
    append_double(out, histogram.p90());
    out += ",\"p99\":";
    append_double(out, histogram.p99());
    out += ",\"max\":";
    append_double(out, stats.max());
  }
  out += '}';
}

bool is_victim(const std::vector<NodeId>& victims, NodeId node) {
  return std::binary_search(victims.begin(), victims.end(), node);
}

}  // namespace

Scorecard build_scorecard(const EventStore& store) {
  Scorecard card;
  card.records = store.size();

  const std::vector<SpanEvent> spans = normalize_events(store);
  const std::vector<Episode> episodes = build_episodes(spans);
  card.episodes = episodes.size();
  for (const Episode& episode : episodes) {
    if (episode.started && episode.has_pledge()) {
      card.help_to_pledge.observe(episode.time_to_first_pledge());
    }
    if (episode.has_pledge() && episode.has_admission()) {
      card.pledge_to_admission.observe(episode.first_admission_time -
                                       episode.first_pledge_time);
    }
    if (episode.has_admission() && episode.has_migration()) {
      card.admission_to_migration.observe(episode.first_migration_time -
                                          episode.first_admission_time);
    }
    if (episode.started && episode.has_migration()) {
      card.help_to_migration.observe(episode.time_to_migration());
    }
    if (episode.deadline_misses > 0 || episode.unreachable_drops > 0) {
      card.episode_attribution.push_back({episode.id,
                                          episode.deadline_misses,
                                          episode.unreachable_drops});
    }
  }

  for (const SpanEvent& span : spans) {
    if (span.kind == EventKind::kDeadlineMiss) ++card.deadline_misses;
    if (span.kind == EventKind::kUnreachableDrop) ++card.unreachable_drops;
  }

  // Attack waves: node_killed records sharing one timestamp (the injector
  // kills a wave's victims at its single kill instant). The store keeps
  // the payloads ("lost", evacuation "resident"/"saved") that SpanEvent
  // deliberately drops; find_id yields kNoStrId for names the trace never
  // used, which no record carries.
  const StrId node_killed_id = store.find_id("node_killed");
  const StrId evacuation_id = store.find_id("evacuation");
  const StrId lost_id = store.find_id("lost");
  const StrId resident_id = store.find_id("resident");
  const StrId saved_id = store.find_id("saved");

  struct Kill {
    SimTime time;
    NodeId node;
    std::uint64_t lost;
  };
  std::vector<Kill> kills;
  for (const EventRec& rec : store.records()) {
    if (rec.kind == node_killed_id) {
      kills.push_back({rec.time, rec.node,
                       static_cast<std::uint64_t>(
                           EventView(store, rec).number(lost_id))});
    }
  }

  std::size_t i = 0;
  while (i < kills.size()) {
    AttackReport wave;
    wave.index = card.attacks.size();
    wave.kill_time = kills[i].time;
    while (i < kills.size() && kills[i].time == wave.kill_time) {
      wave.victims.push_back(kills[i].node);
      wave.lost += kills[i].lost;
      ++i;
    }
    std::sort(wave.victims.begin(), wave.victims.end());
    card.attacks.push_back(std::move(wave));
  }

  for (std::size_t w = 0; w < card.attacks.size(); ++w) {
    AttackReport& wave = card.attacks[w];
    const SimTime prev_kill =
        w > 0 ? card.attacks[w - 1].kill_time : -1.0;

    // The warning: the wave's emergency solicitations fire at wave.time,
    // before the grace period runs out and the kill lands.
    wave.warn_time = wave.kill_time;
    for (const SpanEvent& span : spans) {
      if (span.time > wave.kill_time) break;
      if (span.time <= prev_kill) continue;
      if (span.kind == EventKind::kSolicit &&
          is_victim(wave.victims, span.node)) {
        wave.warn_time = std::min(wave.warn_time, span.time);
      }
    }
  }

  for (std::size_t w = 0; w < card.attacks.size(); ++w) {
    AttackReport& wave = card.attacks[w];
    const SimTime window_end = w + 1 < card.attacks.size()
                                   ? card.attacks[w + 1].warn_time
                                   : std::numeric_limits<double>::infinity();
    const SimTime prev_kill =
        w > 0 ? card.attacks[w - 1].kill_time : -1.0;

    for (const EventRec& rec : store.records()) {
      if (rec.time >= window_end) break;
      if (rec.kind == evacuation_id && rec.time > prev_kill &&
          is_victim(wave.victims, rec.node)) {
        const EventView view(store, rec);
        wave.evac_resident +=
            static_cast<std::uint64_t>(view.number(resident_id));
        wave.evac_saved += static_cast<std::uint64_t>(view.number(saved_id));
      }
    }

    SimTime last_migration = -1.0;
    for (const SpanEvent& span : spans) {
      if (span.time >= window_end) break;
      if (span.time < wave.warn_time) continue;
      if (span.kind == EventKind::kDeadlineMiss) ++wave.deadline_misses;
      if (span.kind == EventKind::kUnreachableDrop) ++wave.unreachable_drops;
      if (span.kind == EventKind::kMigrationSuccess &&
          is_victim(wave.victims, span.node)) {
        ++wave.migrations;
        last_migration = span.time;
      }
    }
    if (last_migration >= 0.0) {
      wave.mttr = last_migration - wave.warn_time;
    }
    wave.recovered = wave.lost == 0;

    for (const Episode& episode : episodes) {
      if (!episode.started) continue;
      if (!is_victim(wave.victims, episode.origin)) continue;
      if (episode.start_time < wave.warn_time ||
          episode.start_time >= window_end) {
        continue;
      }
      ++wave.episodes;
      wave.pledges += episode.pledges_received;
    }
  }

  return card;
}

std::string render_scorecard_json(const Scorecard& card) {
  std::string out;
  out.reserve(1024);
  out += "{\"records\":";
  append_uint(out, card.records);
  out += ",\"episodes\":";
  append_uint(out, card.episodes);
  out += ",\"deadline_misses\":";
  append_uint(out, card.deadline_misses);
  out += ",\"unreachable_drops\":";
  append_uint(out, card.unreachable_drops);

  out += ",\"stages\":{";
  append_latency(out, "help_to_pledge", card.help_to_pledge);
  out += ',';
  append_latency(out, "pledge_to_admission", card.pledge_to_admission);
  out += ',';
  append_latency(out, "admission_to_migration", card.admission_to_migration);
  out += ',';
  append_latency(out, "help_to_migration", card.help_to_migration);
  out += '}';

  out += ",\"attacks\":[";
  for (std::size_t i = 0; i < card.attacks.size(); ++i) {
    const AttackReport& wave = card.attacks[i];
    if (i > 0) out += ',';
    out += "{\"index\":";
    append_uint(out, wave.index);
    out += ",\"warn\":";
    append_double(out, wave.warn_time);
    out += ",\"kill\":";
    append_double(out, wave.kill_time);
    out += ",\"victims\":[";
    for (std::size_t v = 0; v < wave.victims.size(); ++v) {
      if (v > 0) out += ',';
      append_uint(out, wave.victims[v]);
    }
    out += "],\"lost\":";
    append_uint(out, wave.lost);
    out += ",\"evac_resident\":";
    append_uint(out, wave.evac_resident);
    out += ",\"evac_saved\":";
    append_uint(out, wave.evac_saved);
    out += ",\"episodes\":";
    append_uint(out, wave.episodes);
    out += ",\"pledges\":";
    append_uint(out, wave.pledges);
    out += ",\"migrations\":";
    append_uint(out, wave.migrations);
    out += ",\"deadline_misses\":";
    append_uint(out, wave.deadline_misses);
    out += ",\"unreachable_drops\":";
    append_uint(out, wave.unreachable_drops);
    out += ",\"mttr\":";
    if (wave.has_mttr()) {
      append_double(out, wave.mttr);
    } else {
      out += "null";
    }
    out += ",\"recovered\":";
    out += wave.recovered ? "true" : "false";
    out += '}';
  }
  out += ']';

  out += ",\"episode_attribution\":[";
  for (std::size_t i = 0; i < card.episode_attribution.size(); ++i) {
    const EpisodeAttribution& row = card.episode_attribution[i];
    if (i > 0) out += ',';
    out += "{\"episode\":";
    append_uint(out, row.episode);
    out += ",\"deadline_misses\":";
    append_uint(out, row.deadline_misses);
    out += ",\"unreachable_drops\":";
    append_uint(out, row.unreachable_drops);
    out += '}';
  }
  out += "]}";
  return out;
}

namespace {

void append_latency_text(std::string& out, const char* label,
                         const Histogram& histogram) {
  char buf[160];
  const auto& stats = histogram.stats();
  if (stats.count() == 0) {
    std::snprintf(buf, sizeof buf, "  %-24s (no samples)\n", label);
  } else {
    // Doubles are pre-formatted locale-independently; the %-8s widths
    // reproduce the historical %-8.3f padding byte for byte.
    char mean[32], p50[32], p90[32], p99[32], max[32];
    format_double(mean, sizeof mean, "%.3f", stats.mean());
    format_double(p50, sizeof p50, "%.3f", histogram.p50());
    format_double(p90, sizeof p90, "%.3f", histogram.p90());
    format_double(p99, sizeof p99, "%.3f", histogram.p99());
    format_double(max, sizeof max, "%.3f", stats.max());
    std::snprintf(buf, sizeof buf,
                  "  %-24s n=%-6llu mean=%-8s p50=%-8s p90=%-8s "
                  "p99=%-8s max=%s\n",
                  label, static_cast<unsigned long long>(stats.count()),
                  mean, p50, p90, p99, max);
  }
  out += buf;
}

}  // namespace

std::string render_scorecard_text(const Scorecard& card) {
  std::string out;
  char buf[256];
  std::snprintf(buf, sizeof buf,
                "%llu records, %llu episodes, %llu deadline misses, "
                "%llu unreachable drops\n\nstage latencies:\n",
                static_cast<unsigned long long>(card.records),
                static_cast<unsigned long long>(card.episodes),
                static_cast<unsigned long long>(card.deadline_misses),
                static_cast<unsigned long long>(card.unreachable_drops));
  out += buf;
  append_latency_text(out, "help_to_pledge", card.help_to_pledge);
  append_latency_text(out, "pledge_to_admission", card.pledge_to_admission);
  append_latency_text(out, "admission_to_migration",
                      card.admission_to_migration);
  append_latency_text(out, "help_to_migration", card.help_to_migration);

  if (card.attacks.empty()) {
    out += "\nno attack waves in this trace\n";
    return out;
  }
  out += "\nattack waves:\n";
  for (const AttackReport& wave : card.attacks) {
    char warn[32], kill[32];
    format_double(warn, sizeof warn, "%.3f", wave.warn_time);
    format_double(kill, sizeof kill, "%.3f", wave.kill_time);
    std::snprintf(buf, sizeof buf,
                  "  wave %llu: warn=%s kill=%s victims=%llu lost=%llu "
                  "evac=%llu/%llu episodes=%llu pledges=%llu "
                  "migrations=%llu misses=%llu drops=%llu ",
                  static_cast<unsigned long long>(wave.index),
                  warn, kill,
                  static_cast<unsigned long long>(wave.victims.size()),
                  static_cast<unsigned long long>(wave.lost),
                  static_cast<unsigned long long>(wave.evac_saved),
                  static_cast<unsigned long long>(wave.evac_resident),
                  static_cast<unsigned long long>(wave.episodes),
                  static_cast<unsigned long long>(wave.pledges),
                  static_cast<unsigned long long>(wave.migrations),
                  static_cast<unsigned long long>(wave.deadline_misses),
                  static_cast<unsigned long long>(wave.unreachable_drops));
    out += buf;
    if (wave.has_mttr()) {
      out += "mttr=";
      out += format_double("%.3f", wave.mttr);
      out += ' ';
    } else {
      out += "mttr=- ";
    }
    out += wave.recovered ? "[recovered]\n" : "[work lost]\n";
  }
  return out;
}

}  // namespace realtor::obs
