// Reader for flight-recorder dumps (see flight_recorder.hpp for the
// format). Decodes the packed rings straight into an EventStore — the
// same event model a JSONL load produces — so every consumer of JSONL
// traces (realtor_trace modes, the span builder, the invariant checker,
// the scorecard) runs unchanged on binary dumps.
//
// Semantics match a JSONL round trip field for field: uints come back as
// JSON numbers, non-finite doubles come back as the quoted strings the
// sink would have written ("nan"/"inf"/"-inf"), node 0xFFFFFFFF reads as
// the omitted-node sentinel kInvalidNode.
#pragma once

#include <string>
#include <vector>

#include "obs/event_store.hpp"
#include "obs/flight_recorder.hpp"

namespace realtor::obs {

/// True when the file starts with the flight-recorder magic — how
/// realtor_trace auto-detects binary dumps next to JSONL traces.
bool is_flight_file(const std::string& path);

/// Ring headers of a loaded dump, and whether the file ended mid-ring.
struct FlightStoreInfo {
  std::vector<FlightRingInfo> rings;
  bool truncated = false;

  std::uint64_t total_recorded() const;
  std::uint64_t total_dropped() const;
};

/// Loads a dump: packed records become EventRecs and StoredFields
/// straight away — no per-record strings, no JSON text round trip.
/// Multi-ring dumps (agile: one ring per host) are merged by a stable time
/// sort: ties keep ring-major order, and single-ring simulation dumps stay
/// in emission order.
///
/// False with a reason in `error` only when nothing is recoverable:
/// unreadable file, bad magic, a header (name table / ring count / first
/// ring header) cut short, or trailing bytes after the last ring. Damage
/// past the headers — a ring truncated mid-record, records with unknown
/// kinds, field types or name ids — never fails the load: intact records
/// are salvaged and the loss is accounted in `stats` like malformed JSONL
/// lines: `lines` counts the records the intact ring headers claimed,
/// `events` the decoded ones, `malformed` = lines - events,
/// `first_malformed_line` the 1-based ordinal of the first lost record in
/// ring-major order, `first_error` the reason. `info.truncated` is set
/// when the file ended inside a ring or a later ring header.
bool load_flight_file(const std::string& path, EventStore& out,
                      FlightStoreInfo& info, TraceLoadStats& stats,
                      std::string* error = nullptr);

}  // namespace realtor::obs
