#include "obs/flight_reader.hpp"

#include <array>
#include <bit>
#include <cmath>
#include <cstdio>
#include <cstring>

namespace realtor::obs {
namespace {

struct ByteCursor {
  const char* data;
  std::size_t size;
  std::size_t pos = 0;

  template <typename T>
  bool read(T& out) {
    static_assert(std::is_trivially_copyable_v<T>);
    if (pos + sizeof(T) > size) return false;
    std::memcpy(&out, data + pos, sizeof(T));
    pos += sizeof(T);
    return true;
  }
};

bool fail(std::string* error, const char* what) {
  if (error != nullptr) *error = what;
  return false;
}

/// Validates a packed record against the name table without touching the
/// store; nullptr when intact, else the rejection reason.
const char* record_defect(const FlightRecord& record,
                          std::size_t name_count) {
  if (record.kind >= static_cast<std::uint8_t>(EventKind::kCount)) {
    return "unknown event kind";
  }
  if (record.field_count > kMaxTraceFields) return "too many fields";
  for (std::uint8_t i = 0; i < record.field_count; ++i) {
    const FlightField& field = record.fields[i];
    if (field.key >= name_count) return "key id out of range";
    switch (static_cast<TraceField::Type>(field.type)) {
      case TraceField::Type::kUint:
      case TraceField::Type::kDouble:
      case TraceField::Type::kBool:
      case TraceField::Type::kNone:
        break;
      case TraceField::Type::kString:
        if (field.bits >= name_count) return "name id out of range";
        break;
      default:
        return "unknown field type";
    }
  }
  return nullptr;
}

}  // namespace

bool is_flight_file(const std::string& path) {
  std::FILE* file = std::fopen(path.c_str(), "rb");
  if (file == nullptr) return false;
  char magic[sizeof(kFlightMagic)];
  const std::size_t got = std::fread(magic, 1, sizeof(magic), file);
  std::fclose(file);
  return got == sizeof(magic) &&
         std::memcmp(magic, kFlightMagic, sizeof(magic)) == 0;
}

std::uint64_t FlightStoreInfo::total_recorded() const {
  std::uint64_t total = 0;
  for (const FlightRingInfo& ring : rings) total += ring.recorded;
  return total;
}

std::uint64_t FlightStoreInfo::total_dropped() const {
  std::uint64_t total = 0;
  for (const FlightRingInfo& ring : rings) total += ring.dropped;
  return total;
}

bool load_flight_file(const std::string& path, EventStore& out,
                      FlightStoreInfo& info, TraceLoadStats& stats,
                      std::string* error) {
  out = EventStore{};
  info = FlightStoreInfo{};
  stats = TraceLoadStats{};
  MappedBuffer buffer;
  if (!buffer.open(path, error)) return false;
  ByteCursor cursor{buffer.data(), buffer.size()};

  char magic[sizeof(kFlightMagic)];
  if (!cursor.read(magic) ||
      std::memcmp(magic, kFlightMagic, sizeof(magic)) != 0) {
    return fail(error, "not a flight-recorder dump (bad magic)");
  }

  // Name table: interned straight from the mapping — one arena copy per
  // distinct name for the whole dump.
  std::uint32_t name_count = 0;
  if (!cursor.read(name_count)) return fail(error, "truncated name table");
  std::vector<StrId> name_ids;
  name_ids.reserve(name_count);
  for (std::uint32_t i = 0; i < name_count; ++i) {
    std::uint16_t len = 0;
    if (!cursor.read(len) || cursor.pos + len > cursor.size) {
      return fail(error, "truncated name table");
    }
    name_ids.push_back(
        out.intern(std::string_view(cursor.data + cursor.pos, len)));
    cursor.pos += len;
  }

  // Kind names are interned lazily — dumps usually carry a handful of the
  // 27 kinds.
  std::array<StrId, static_cast<std::size_t>(EventKind::kCount)> kind_ids;
  kind_ids.fill(kNoStrId);

  const auto note_malformed = [&](const char* reason) {
    ++stats.malformed;
    if (stats.first_malformed_line == 0) {
      stats.first_malformed_line = stats.lines;
      stats.first_error = reason;
    }
  };

  std::uint32_t ring_count = 0;
  if (!cursor.read(ring_count)) return fail(error, "truncated ring count");
  for (std::uint32_t r = 0; r < ring_count; ++r) {
    FlightRingInfo ring;
    if (!cursor.read(ring)) {
      // A dump with zero intact ring headers carries no information —
      // fail. Past the first ring, salvage what earlier rings yielded.
      if (r == 0) return fail(error, "truncated ring header");
      info.truncated = true;
      break;
    }
    std::uint64_t consumed = 0;
    bool cut = false;
    for (std::uint64_t i = 0; i < ring.stored; ++i) {
      FlightRecord record;
      if (!cursor.read(record)) {
        cut = true;
        break;
      }
      ++consumed;
      ++stats.lines;
      const char* defect = record_defect(record, name_ids.size());
      if (defect != nullptr) {
        // Fixed-width records keep the cursor aligned on the next one.
        note_malformed(defect);
        continue;
      }
      const auto kind_index = static_cast<std::size_t>(record.kind);
      if (kind_ids[kind_index] == kNoStrId) {
        kind_ids[kind_index] =
            out.intern(to_string(static_cast<EventKind>(record.kind)));
      }
      out.begin_event(record.time, static_cast<NodeId>(record.node),
                      kind_ids[kind_index]);
      ++stats.events;
      for (std::uint8_t f = 0; f < record.field_count; ++f) {
        const FlightField& field = record.fields[f];
        const StrId key = name_ids[field.key];
        switch (static_cast<TraceField::Type>(field.type)) {
          case TraceField::Type::kUint:
            out.add_number(key, static_cast<double>(field.bits));
            break;
          case TraceField::Type::kDouble: {
            const double d = std::bit_cast<double>(field.bits);
            if (std::isfinite(d)) {
              out.add_number(key, d);
            } else {
              // Match the JSONL sink's quoted non-finite doubles (static
              // storage — no arena copy needed).
              out.add_string(key, std::isnan(d)  ? std::string_view("nan")
                                  : d > 0 ? std::string_view("inf")
                                          : std::string_view("-inf"));
            }
            break;
          }
          case TraceField::Type::kString:
            out.add_string(
                key, out.name(name_ids[static_cast<std::size_t>(field.bits)]));
            break;
          case TraceField::Type::kBool:
            out.add_bool(key, field.bits != 0);
            break;
          case TraceField::Type::kNone:
          default:
            out.add_null(key);
            break;
        }
      }
    }
    info.rings.push_back(ring);
    if (cut) {
      // Mid-ring truncation: the remainder of the ring's claimed records
      // is unrecoverable — account every one of them.
      info.truncated = true;
      for (std::uint64_t lost = consumed; lost < ring.stored; ++lost) {
        ++stats.lines;
        note_malformed("truncated record");
      }
      break;
    }
  }
  if (!info.truncated && cursor.pos != cursor.size) {
    return fail(error, "trailing bytes");
  }

  out.stable_sort_by_time();
  return true;
}

}  // namespace realtor::obs
