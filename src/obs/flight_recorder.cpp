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

// The slots are raw storage from operator new, not a vector<Slot>:
// value-initialising every slot would write (and so commit) capacity ×
// 80 bytes up front, although a run may fill only a fraction of the
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
      slots_(static_cast<Slot*>(::operator new(capacity_ * sizeof(Slot)))),
      thread_safe_(thread_safe),
      layouts_(1) {
  layouts_[0].count = kMaxTraceFields + 1;
}

FlightRing::~FlightRing() { ::operator delete(slots_); }

namespace {

/// The eight bytes of a field's value, whichever member with() wrote.
inline std::uint64_t value_bits(const TraceField& field) {
  static_assert(sizeof(field.u) == 8 && sizeof(field.s) <= 8);
  std::uint64_t bits;
  std::memcpy(&bits, &field.u, sizeof bits);
  return bits;
}

}  // namespace

// The entire hot path. The value bits are copied while the event's keys
// and types are compared against the layout its kind had last time; only
// a site the ring has not seen under this kind looks further.
inline void FlightRing::store(const TraceEvent& event) {
  Slot& slot = slots_[cursor_];
  const std::uint32_t count = event.field_count;
  std::uint16_t& cached = last_layout_[static_cast<std::uint8_t>(event.kind)];
  const Layout& layout = layouts_[cached];
  std::uintptr_t diff = layout.count ^ count;
  for (std::uint32_t i = 0; i < count; ++i) {
    const TraceField& field = event.fields[i];
    diff |= (reinterpret_cast<std::uintptr_t>(layout.keys[i]) ^
             reinterpret_cast<std::uintptr_t>(field.key)) |
            static_cast<std::uintptr_t>(static_cast<std::uint8_t>(
                layout.types[i]) ^ static_cast<std::uint8_t>(field.type));
    slot.bits[i] = value_bits(field);
  }
  if (diff != 0) [[unlikely]] cached = intern_layout(event);
  slot.time = event.time;
  slot.node = event.node;
  slot.layout = cached;
  slot.kind = event.kind;
  // cursor_ == head_ mod capacity, maintained by wrapping instead of the
  // u64 division a `head % size` would cost on every event.
  if (++cursor_ == capacity_) cursor_ = 0;
  head_.store(head_.load(std::memory_order_relaxed) + 1,
              std::memory_order_relaxed);
}

std::uint16_t FlightRing::intern_layout(const TraceEvent& event) {
  Layout wanted;
  wanted.count = event.field_count;
  for (std::uint32_t i = 0; i < event.field_count; ++i) {
    wanted.keys[i] = event.fields[i].key;
    wanted.types[i] = event.fields[i].type;
  }
  for (std::size_t id = 1; id < layouts_.size(); ++id) {
    const Layout& layout = layouts_[id];
    if (layout.count == wanted.count && layout.keys == wanted.keys &&
        layout.types == wanted.types) {
      return static_cast<std::uint16_t>(id);
    }
  }
  REALTOR_ASSERT_MSG(layouts_.size() <= 0xFFFF,
                     "flight layout table overflow");
  layouts_.push_back(wanted);
  return static_cast<std::uint16_t>(layouts_.size() - 1);
}

void FlightRing::on_event(const TraceEvent& event) {
  if (thread_safe_) {
    std::lock_guard<std::mutex> lock(mutex_);
    store(event);
    return;
  }
  store(event);
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
  TraceEvent event;
  std::uint64_t index = info.dropped % capacity;
  for (FlightRecord& record : out) {
    const Slot& slot = slots_[index];
    const Layout& layout = layouts_[slot.layout];
    event.time = slot.time;
    event.node = slot.node;
    event.kind = slot.kind;
    event.field_count = layout.count;
    for (std::uint32_t i = 0; i < layout.count; ++i) {
      TraceField& field = event.fields[i];
      field.key = layout.keys[i];
      field.type = layout.types[i];
      std::memcpy(&field.u, &slot.bits[i], sizeof field.u);
    }
    pack(event, names, record);
    if (++index == capacity) index = 0;
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
