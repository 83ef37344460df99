// Workload trace persistence: save a generated arrival stream to CSV and
// replay it later — byte-identical workloads across machines, protocol
// configurations, and the two runtimes (discrete-event and threaded).
//
// Format: header line `id,time,size_seconds,node,bandwidth,min_security`
// followed by one row per arrival, times in seconds with full double
// precision.
#pragma once

#include <iosfwd>
#include <string>
#include <vector>

#include "sim/arrivals.hpp"

namespace realtor::trace {

/// Arrival extended with the multi-resource demand fields so traces are
/// self-contained.
struct TraceRecord {
  sim::Arrival arrival;
  double bandwidth_share = 0.0;
  std::uint8_t min_security = 0;
};

/// Outcome of a load attempt: the records, or an error description.
struct LoadResult {
  std::vector<TraceRecord> records;
  bool ok = false;
  std::string error;  // empty on success
};

void save_csv(std::ostream& os, const std::vector<TraceRecord>& records);

/// Returns false on I/O failure.
bool save_csv_file(const std::string& path,
                   const std::vector<TraceRecord>& records);

/// Parses a trace; rejects malformed rows, unsorted timestamps, and
/// negative sizes with a line-numbered error.
LoadResult load_csv(std::istream& is);
LoadResult load_csv_file(const std::string& path);

/// Convenience: wraps plain arrivals as trace records.
std::vector<TraceRecord> from_arrivals(const std::vector<sim::Arrival>& a);

}  // namespace realtor::trace
