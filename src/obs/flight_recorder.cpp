#include "obs/flight_recorder.hpp"

#include <bit>
#include <cstddef>
#include <cstdio>
#include <new>

#include "common/assert.hpp"

namespace realtor::obs {

std::uint16_t NameTable::Session::intern(const char* text) {
  const auto it = table_.ids_.find(text);
  if (it != table_.ids_.end()) return it->second;
  REALTOR_ASSERT_MSG(table_.names_.size() < 0xFFFF,
                     "flight name table overflow");
  const auto id = static_cast<std::uint16_t>(table_.names_.size());
  table_.names_.emplace_back(text != nullptr ? text : "");
  table_.ids_.emplace(text, id);
  return id;
}

std::vector<std::string> NameTable::snapshot() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return names_;
}

// The slots are raw storage from operator new, not a vector<TraceEvent>:
// value-initialising every slot would write (and so commit) capacity ×
// 216 bytes up front, although a run may fill only a fraction of the
// ring. Untouched, a large allocation (a fresh mapping) is committed page
// by page as records land; a small one reuses the heap like any other. A
// private mmap per ring would commit lazily at every size, but measured
// 17% more peak RSS where back-to-back runs each make a 65,536-slot ring:
// the heap the last run's dump freed no longer holds the next ring.
FlightRing::FlightRing(std::uint64_t source, std::size_t capacity,
                       NameTable& names, bool thread_safe)
    : source_(source),
      names_(names),
      capacity_(capacity == 0 ? 1 : capacity),
      slots_(static_cast<TraceEvent*>(
          ::operator new(capacity_ * sizeof(TraceEvent)))),
      thread_safe_(thread_safe) {}

FlightRing::~FlightRing() { ::operator delete(slots_); }

namespace {

// The entire hot path: copy the event header plus only the fields it
// carries into the slot. Two compile-time sizes so the copies inline to
// straight wide moves — a runtime-length memcpy would cost a libc
// dispatch per event. ≤3 fields (96 bytes) covers the lifecycle and
// sampler sites; the message plane's episode/id/cause lineage makes six
// fields the most common count in an attack run (72% of records in a
// 40×40 one), and those copy the full 216 bytes. A ≤6-field tier (168
// bytes) was measured and did not lower the recorder's overhead, so it
// is not here. Bytes past the copy keep a previous occupant's data;
// snapshot() never reads past field_count.
inline void copy_event(const TraceEvent& event, TraceEvent& slot) {
  constexpr std::size_t kSmall =
      offsetof(TraceEvent, fields) + 3 * sizeof(TraceField);
  if (event.field_count <= 3) {
    std::memcpy(static_cast<void*>(&slot), &event, kSmall);
  } else {
    std::memcpy(static_cast<void*>(&slot), &event, sizeof(TraceEvent));
  }
}

}  // namespace

void FlightRing::on_event(const TraceEvent& event) {
  // cursor_ == head_ mod capacity, maintained by wrapping instead of the
  // u64 division a `head % size` would cost on every event.
  if (thread_safe_) {
    std::lock_guard<std::mutex> lock(mutex_);
    copy_event(event, slots_[cursor_]);
    if (++cursor_ == capacity_) cursor_ = 0;
    head_.store(head_.load(std::memory_order_relaxed) + 1,
                std::memory_order_relaxed);
    return;
  }
  copy_event(event, slots_[cursor_]);
  if (++cursor_ == capacity_) cursor_ = 0;
  head_.store(head_.load(std::memory_order_relaxed) + 1,
              std::memory_order_relaxed);
}

namespace {

void pack(const TraceEvent& event, NameTable::Session& names,
          FlightRecord& out) {
  out.time = event.time;
  out.node = event.node;
  out.kind = static_cast<std::uint8_t>(event.kind);
  out.field_count = static_cast<std::uint8_t>(event.field_count);
  for (std::uint32_t i = 0; i < event.field_count; ++i) {
    const TraceField& field = event.fields[i];
    FlightField& packed = out.fields[i];
    packed.key = names.intern(field.key);
    packed.type = static_cast<std::uint8_t>(field.type);
    switch (field.type) {
      case TraceField::Type::kUint:
        packed.bits = field.u;
        // Lift the episode id into the header for cheap episode scans;
        // the payload keeps the field so round trips stay exact.
        if (field.key != nullptr && field.key[0] == 'e' &&
            std::strcmp(field.key, "episode") == 0) {
          out.episode = field.u;
        }
        break;
      case TraceField::Type::kDouble:
        packed.bits = std::bit_cast<std::uint64_t>(field.d);
        break;
      case TraceField::Type::kString:
        packed.bits = names.intern(field.s != nullptr ? field.s : "");
        break;
      case TraceField::Type::kBool:
        packed.bits = field.b ? 1 : 0;
        break;
      case TraceField::Type::kNone:
        packed.bits = 0;
        break;
    }
  }
}

}  // namespace

FlightRingInfo FlightRing::snapshot(std::vector<FlightRecord>& out) const {
  std::unique_lock<std::mutex> lock(mutex_, std::defer_lock);
  if (thread_safe_) lock.lock();
  FlightRingInfo info;
  info.source = source_;
  info.recorded = head_.load(std::memory_order_relaxed);
  const std::uint64_t capacity = capacity_;
  info.stored = info.recorded < capacity ? info.recorded : capacity;
  info.dropped = info.recorded - info.stored;
  // Value-initialized records: unused field slots and padding come out
  // zero, so dumps of identical runs stay byte-identical and never leak a
  // previous slot occupant's bytes.
  out.assign(info.stored, FlightRecord{});
  // One name-table lock for the whole ring; packing in ring order keeps
  // the first-encounter id order, and with it the dump's bytes, fixed.
  NameTable::Session names(names_);
  std::uint64_t slot = info.dropped % capacity;
  for (FlightRecord& record : out) {
    pack(slots_[slot], names, record);
    if (++slot == capacity) slot = 0;
  }
  return info;
}

FlightRing& FlightRecorder::ring(std::uint64_t source, bool thread_safe) {
  for (const auto& ring : rings_) {
    if (ring->source() == source) return *ring;
  }
  rings_.push_back(std::make_unique<FlightRing>(source, capacity_, names_,
                                                thread_safe));
  return *rings_.back();
}

std::uint64_t FlightRecorder::total_recorded() const {
  std::uint64_t total = 0;
  for (const auto& ring : rings_) total += ring->recorded();
  return total;
}

std::uint64_t FlightRecorder::total_dropped() const {
  std::uint64_t total = 0;
  for (const auto& ring : rings_) total += ring->dropped();
  return total;
}

namespace {

template <typename T>
void write_pod(std::string& out, const T& value) {
  static_assert(std::is_trivially_copyable_v<T>);
  const char* bytes = reinterpret_cast<const char*>(&value);
  out.append(bytes, sizeof(T));
}

bool write_bytes(std::FILE* file, const void* data, std::size_t size) {
  return std::fwrite(data, 1, size, file) == size;
}

}  // namespace

bool FlightRecorder::dump(const std::string& path, std::string* error) const {
  // Snapshot every ring BEFORE building the header: packing is what
  // interns keys, so the name table is only complete afterwards.
  std::vector<FlightRingInfo> infos(rings_.size());
  std::vector<std::vector<FlightRecord>> records(rings_.size());
  for (std::size_t i = 0; i < rings_.size(); ++i) {
    infos[i] = rings_[i]->snapshot(records[i]);
  }

  std::string header(kFlightMagic, sizeof(kFlightMagic));
  const std::vector<std::string> names = names_.snapshot();
  write_pod(header, static_cast<std::uint32_t>(names.size()));
  for (const std::string& name : names) {
    REALTOR_ASSERT_MSG(name.size() <= 0xFFFF, "flight name too long");
    write_pod(header, static_cast<std::uint16_t>(name.size()));
    header.append(name);
  }
  write_pod(header, static_cast<std::uint32_t>(rings_.size()));

  std::FILE* file = std::fopen(path.c_str(), "wb");
  if (file == nullptr) {
    if (error != nullptr) *error = "cannot write " + path;
    return false;
  }
  // The packed records go to the file straight from the snapshot vectors:
  // no second in-memory copy of the dump.
  bool ok = write_bytes(file, header.data(), header.size());
  for (std::size_t i = 0; ok && i < rings_.size(); ++i) {
    ok = write_bytes(file, &infos[i], sizeof(FlightRingInfo)) &&
         write_bytes(file, records[i].data(),
                     records[i].size() * sizeof(FlightRecord));
  }
  ok = std::fclose(file) == 0 && ok;
  if (!ok && error != nullptr) *error = "short write to " + path;
  return ok;
}

FlightDumpSink::FlightDumpSink(std::string path, std::size_t capacity)
    : path_(std::move(path)), recorder_(capacity) {
  recorder_.ring(0);  // create up front: on_event must not mutate rings_
}

void FlightDumpSink::flush() {
  dumped_ = true;
  recorder_.dump(path_);
}

FlightDumpSink::~FlightDumpSink() {
  if (!dumped_) recorder_.dump(path_);
}

}  // namespace realtor::obs
