#include "trace/workload_csv.hpp"

#include <charconv>
#include <cstdio>
#include <fstream>
#include <ostream>
#include <sstream>

#include "common/format.hpp"

namespace realtor::trace {
namespace {

constexpr const char* kHeader = "id,time,size_seconds,node,bandwidth,min_security";

bool parse_double(const std::string& field, double& out) {
  const char* begin = field.data();
  const char* end = begin + field.size();
  const auto [ptr, ec] = std::from_chars(begin, end, out);
  return ec == std::errc{} && ptr == end;
}

bool parse_u64(const std::string& field, std::uint64_t& out) {
  const char* begin = field.data();
  const char* end = begin + field.size();
  const auto [ptr, ec] = std::from_chars(begin, end, out);
  return ec == std::errc{} && ptr == end;
}

LoadResult fail(std::size_t line, const std::string& what) {
  LoadResult result;
  result.ok = false;
  result.error = "line " + std::to_string(line) + ": " + what;
  return result;
}

}  // namespace

void save_csv(std::ostream& os, const std::vector<TraceRecord>& records) {
  os << kHeader << '\n';
  char buffer[192];
  for (const TraceRecord& r : records) {
    // %.17g round-trips doubles exactly. format_double keeps the radix a
    // '.' whatever LC_NUMERIC says — load_csv parses with from_chars,
    // which only accepts '.'.
    char time[40], size[40], bandwidth[40];
    format_double(time, sizeof time, "%.17g", r.arrival.time);
    format_double(size, sizeof size, "%.17g", r.arrival.size_seconds);
    format_double(bandwidth, sizeof bandwidth, "%.17g", r.bandwidth_share);
    std::snprintf(buffer, sizeof(buffer), "%llu,%s,%s,%u,%s,%u\n",
                  static_cast<unsigned long long>(r.arrival.id),
                  time, size, r.arrival.node, bandwidth,
                  static_cast<unsigned>(r.min_security));
    os << buffer;
  }
}

bool save_csv_file(const std::string& path,
                   const std::vector<TraceRecord>& records) {
  std::ofstream file(path);
  if (!file) return false;
  save_csv(file, records);
  return static_cast<bool>(file);
}

LoadResult load_csv(std::istream& is) {
  LoadResult result;
  std::string line;
  std::size_t line_number = 0;

  if (!std::getline(is, line)) {
    return fail(1, "empty input");
  }
  ++line_number;
  if (line != kHeader) {
    return fail(1, "unexpected header '" + line + "'");
  }

  SimTime previous_time = -1.0;
  while (std::getline(is, line)) {
    ++line_number;
    if (line.empty()) continue;
    std::istringstream row(line);
    std::string fields[6];
    for (int i = 0; i < 6; ++i) {
      if (!std::getline(row, fields[i], ',')) {
        return fail(line_number, "expected 6 fields");
      }
    }
    std::string excess;
    if (std::getline(row, excess, ',')) {
      return fail(line_number, "too many fields");
    }

    TraceRecord record;
    std::uint64_t id = 0, node = 0, security = 0;
    if (!parse_u64(fields[0], id)) return fail(line_number, "bad id");
    if (!parse_double(fields[1], record.arrival.time)) {
      return fail(line_number, "bad time");
    }
    if (!parse_double(fields[2], record.arrival.size_seconds)) {
      return fail(line_number, "bad size");
    }
    if (!parse_u64(fields[3], node)) return fail(line_number, "bad node");
    if (!parse_double(fields[4], record.bandwidth_share)) {
      return fail(line_number, "bad bandwidth");
    }
    if (!parse_u64(fields[5], security) || security > 255) {
      return fail(line_number, "bad security level");
    }
    if (record.arrival.size_seconds <= 0.0) {
      return fail(line_number, "non-positive size");
    }
    if (record.arrival.time < previous_time) {
      return fail(line_number, "timestamps not sorted");
    }
    previous_time = record.arrival.time;
    record.arrival.id = id;
    record.arrival.node = static_cast<NodeId>(node);
    record.min_security = static_cast<std::uint8_t>(security);
    result.records.push_back(record);
  }
  result.ok = true;
  return result;
}

LoadResult load_csv_file(const std::string& path) {
  std::ifstream file(path);
  if (!file) {
    LoadResult result;
    result.error = "cannot open '" + path + "'";
    return result;
  }
  return load_csv(file);
}

std::vector<TraceRecord> from_arrivals(const std::vector<sim::Arrival>& a) {
  std::vector<TraceRecord> out;
  out.reserve(a.size());
  for (const sim::Arrival& arrival : a) {
    TraceRecord record;
    record.arrival = arrival;
    out.push_back(record);
  }
  return out;
}

}  // namespace realtor::trace
