#include "obs/flight_recorder.hpp"

#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <array>
#include <bit>
#include <cstddef>
#include <cstdio>
#include <cstring>
#include <memory>
#include <new>
#include <span>

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

/// Records per write: 512 × 152 B = 76 KiB, a buffer that stays in L2.
constexpr std::size_t kChunkRecords = 512;

/// String-value ids for one dump: a direct-mapped cache keyed by pointer
/// in front of the name table. NameTable interns by pointer, so a hit is
/// exact, and a miss only repeats a lookup that returns an existing id or
/// interns the name exactly when packing record by record would.
class StringIds {
 public:
  explicit StringIds(NameTable::Session& names) : names_(names) {}

  std::uint16_t operator()(const char* text) {
    if (text == nullptr) text = "";
    const std::uint64_t bits = reinterpret_cast<std::uintptr_t>(text);
    Entry& entry = cache_[(bits * 0x9E3779B97F4A7C15ULL) >> 56];
    if (entry.text != text) entry = {text, names_.intern(text)};
    return entry.id;
  }

 private:
  struct Entry {
    const char* text = nullptr;  // never a cached value: see operator()
    std::uint16_t id = 0;
  };
  NameTable::Session& names_;
  std::array<Entry, 256> cache_{};
};

template <typename T>
void write_pod(std::string& out, const T& value) {
  static_assert(std::is_trivially_copyable_v<T>);
  const char* bytes = reinterpret_cast<const char*>(&value);
  out.append(bytes, sizeof(T));
}

bool write_bytes(std::FILE* file, const void* data, std::size_t size) {
  return std::fwrite(data, 1, size, file) == size;
}

/// Index of the lowest set bit of a nonzero field mask.
unsigned lowest_bit(unsigned mask) {
  return static_cast<unsigned>(std::countr_zero(mask));
}

}  // namespace

/// One dump of a set of rings: what each ring holds at the moment the
/// dump reaches it, and per layout the plan pass 1 builds for pass 2.
class FlightDump {
 public:
  using Slot = FlightRing::Slot;
  using Layout = FlightRing::Layout;

  /// Captures each ring's counters and live slot range; a thread-safe
  /// ring's slots and layouts are copied under its mutex.
  explicit FlightDump(const std::vector<std::unique_ptr<FlightRing>>& rings) {
    views_.reserve(rings.size());
    for (const auto& ring : rings) views_.push_back(capture(*ring));
  }

  /// Pass 1: interns every name the dump needs, in the order a pack of
  /// each record in turn would meet them.
  void plan(StringIds& strings, NameTable::Session& names) {
    for (View& view : views_) {
      view.plans.assign(view.layouts.size(), Plan{});
      for (const std::span<const Slot> part : view.slots) {
        for (const Slot& slot : part) {
          Plan& plan = view.plans[slot.layout];
          if (!plan.ready) {
            make_plan(view.layouts[slot.layout], slot, plan, strings, names);
            continue;
          }
          for (unsigned m = plan.strings; m != 0; m &= m - 1) {
            strings(string_at(slot, lowest_bit(m)));
          }
        }
      }
    }
  }

  /// Pass 2: each ring's info, then its records packed and written
  /// kChunkRecords at a time.
  bool write(std::FILE* file, StringIds& strings) const {
    std::vector<FlightRecord> chunk(kChunkRecords);
    for (const View& view : views_) {
      if (!write_bytes(file, &view.info, sizeof(FlightRingInfo))) {
        return false;
      }
      for (const std::span<const Slot> part : view.slots) {
        for (std::size_t begin = 0; begin < part.size();
             begin += kChunkRecords) {
          const std::size_t count =
              std::min(kChunkRecords, part.size() - begin);
          for (std::size_t i = 0; i < count; ++i) {
            pack(view, part[begin + i], strings, chunk[i]);
          }
          if (!write_bytes(file, chunk.data(),
                           count * sizeof(FlightRecord))) {
            return false;
          }
        }
      }
    }
    return true;
  }

 private:
  /// How one layout packs: its record's fields with key ids and types
  /// set and value bits zero, which fields take which value conversion,
  /// and its episode field, if any.
  struct Plan {
    bool ready = false;
    std::uint8_t count = 0;
    int episode = -1;      // index of the last kUint "episode" field
    unsigned raw = 0;      // bit i: field i keeps its bits (uint, double)
    unsigned strings = 0;  // bit i: field i is a string
    unsigned bools = 0;    // bit i: field i is a bool
    std::array<FlightField, kMaxTraceFields> fields{};
  };
  struct View {
    FlightRingInfo info;
    /// The stored slots oldest → newest: the wrap splits them in two.
    std::array<std::span<const Slot>, 2> slots;
    std::span<const Layout> layouts;
    std::unique_ptr<Slot[]> slot_copy;  // thread-safe rings only
    std::vector<Layout> layout_copy;    // thread-safe rings only
    std::vector<Plan> plans;            // by layout id
  };

  static View capture(const FlightRing& ring) {
    std::unique_lock<std::mutex> lock(ring.mutex_, std::defer_lock);
    if (ring.thread_safe_) lock.lock();
    View view;
    view.info.source = ring.source_;
    view.info.recorded = ring.head_.load(std::memory_order_relaxed);
    const std::uint64_t capacity = ring.capacity_;
    view.info.stored = std::min(view.info.recorded, capacity);
    view.info.dropped = view.info.recorded - view.info.stored;
    const std::size_t oldest = view.info.dropped % capacity;
    const std::size_t first = std::min<std::size_t>(view.info.stored,
                                                    ring.capacity_ - oldest);
    view.slots = {std::span<const Slot>(ring.slots_ + oldest, first),
                  std::span<const Slot>(ring.slots_,
                                        view.info.stored - first)};
    view.layouts = ring.layouts_;
    if (ring.thread_safe_) {
      // Writers keep writing once the lock drops: both passes must see
      // this one copy.
      view.slot_copy = std::make_unique_for_overwrite<Slot[]>(
          view.info.stored);
      Slot* copy = view.slot_copy.get();
      std::copy(view.slots[0].begin(), view.slots[0].end(), copy);
      std::copy(view.slots[1].begin(), view.slots[1].end(), copy + first);
      view.slots = {std::span<const Slot>(copy, view.info.stored), {}};
      view.layout_copy = ring.layouts_;
      view.layouts = view.layout_copy;
    }
    return view;
  }

  static const char* string_at(const Slot& slot, std::uint32_t i) {
    const char* text;
    std::memcpy(&text, &slot.bits[i], sizeof text);
    return text;
  }

  /// The first record of a layout in this dump: its keys and string
  /// values interleaved in field order, as packing it would intern them.
  static void make_plan(const Layout& layout, const Slot& slot, Plan& plan,
                        StringIds& strings, NameTable::Session& names) {
    plan.count = static_cast<std::uint8_t>(layout.count);
    for (std::uint32_t i = 0; i < layout.count; ++i) {
      const char* key = layout.keys[i];
      plan.fields[i].key = names.intern(key);
      plan.fields[i].type = static_cast<std::uint8_t>(layout.types[i]);
      switch (layout.types[i]) {
        case TraceField::Type::kString:
          plan.strings |= 1u << i;
          strings(string_at(slot, i));
          break;
        case TraceField::Type::kBool:
          plan.bools |= 1u << i;
          break;
        case TraceField::Type::kUint:
          plan.raw |= 1u << i;
          // Lift the episode id into the header for cheap episode scans;
          // the payload keeps the field so round trips stay exact.
          if (key != nullptr && key[0] == 'e' &&
              std::strcmp(key, "episode") == 0) {
            plan.episode = static_cast<int>(i);
          }
          break;
        case TraceField::Type::kDouble:
          plan.raw |= 1u << i;
          break;
        case TraceField::Type::kNone:
          break;
      }
    }
    plan.ready = true;
  }

  /// The canonical record: unused fields and padding zero (the plan's
  /// template), so dumps of identical runs are byte-identical and never
  /// leak a previous record. Uints and doubles keep their bits, strings
  /// become name ids, bools 0 or 1, and kNone values 0.
  static void pack(const View& view, const Slot& slot, StringIds& strings,
                   FlightRecord& out) {
    const Plan& plan = view.plans[slot.layout];
    out.time = slot.time;
    out.episode = plan.episode >= 0 ? slot.bits[plan.episode] : 0;
    out.node = slot.node;
    out.kind = static_cast<std::uint8_t>(slot.kind);
    out.field_count = plan.count;
    out.pad = 0;
    out.fields = plan.fields;
    for (unsigned m = plan.raw; m != 0; m &= m - 1) {
      const unsigned i = lowest_bit(m);
      out.fields[i].bits = slot.bits[i];
    }
    for (unsigned m = plan.strings; m != 0; m &= m - 1) {
      const unsigned i = lowest_bit(m);
      out.fields[i].bits = strings(string_at(slot, i));
    }
    for (unsigned m = plan.bools; m != 0; m &= m - 1) {
      const unsigned i = lowest_bit(m);
      bool value;  // the byte TraceField::b occupies
      std::memcpy(&value, &slot.bits[i], sizeof value);
      out.fields[i].bits = value ? 1 : 0;
    }
  }

  std::vector<View> views_;
};

bool FlightRecorder::dump(const std::string& path, std::string* error) const {
  FlightDump dump(rings_);
  NameTable::Session names(names_);
  StringIds strings(names);
  // Plan every ring BEFORE building the header: planning is what interns
  // names, so the name table is only complete afterwards.
  dump.plan(strings, names);

  std::string header(kFlightMagic, sizeof(kFlightMagic));
  write_pod(header, static_cast<std::uint32_t>(names.names().size()));
  for (const std::string& name : names.names()) {
    REALTOR_ASSERT_MSG(name.size() <= 0xFFFF, "flight name too long");
    write_pod(header, static_cast<std::uint16_t>(name.size()));
    header.append(name);
  }
  write_pod(header, static_cast<std::uint32_t>(rings_.size()));

  // Replace a regular file rather than truncate it (see the header);
  // anything else, and any unlink failure, goes to fopen as it is.
  struct stat status;
  if (::lstat(path.c_str(), &status) == 0 && S_ISREG(status.st_mode)) {
    ::unlink(path.c_str());
  }
  std::FILE* file = std::fopen(path.c_str(), "wb");
  if (file == nullptr) {
    if (error != nullptr) *error = "cannot write " + path;
    return false;
  }
  bool ok = write_bytes(file, header.data(), header.size()) &&
            dump.write(file, strings);
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
