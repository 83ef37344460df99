// Always-on binary flight recorder.
//
// JSONL tracing makes every run inspectable but costs a string format and
// a stream write per event — far too much to leave enabled at the 10k-node
// scale. The flight recorder is the cheap alternative that can stay on:
// each source (one per simulation, one per agile host) stores raw trace
// events into a bounded ring that overwrites its oldest entries, and
// memory stays capped at capacity × 80 bytes. A slot is a 16-byte header
// {f64 time, u32 node, u16 layout id, u8 kind, pad} plus each field's
// 8-byte value bits; the field count, key pointers and value types — the
// event's layout, which the emission site fixes — are interned once per
// ring, and a per-kind cache of the last layout seen makes the lookup a
// compare of the keys and types the event carries. A six-field record,
// the message plane's common shape, writes 64 bytes. The slots are
// uninitialised storage, so making a ring touches none of them: a large
// ring's pages are committed as records land, and a run that records
// fewer events than the capacity never pays for the rest. When something
// interesting happens (an attack wave, end of run) the rings are packed
// into canonical fixed-width records and streamed to a compact binary
// file that flight_reader.hpp converts back into the exact event model
// the JSONL pipeline produces — realtor_trace, the span builder and the
// invariant checker run unchanged on dumps.
//
// A dump costs what it writes. Pass 1 walks each ring once and builds a
// plan per layout the first time it meets one: the interned key ids and
// the index of the episode field, interning keys and string values in
// field order, so names get the ids a record-by-record pack would give
// them; later records of a layout intern only their string values,
// through a small pointer-keyed cache. Pass 2 packs records from the
// plans into a fixed 512-record buffer and writes it, chunk by chunk, so
// no ring-sized copy of the dump is ever made. A thread-safe ring's live
// slots and layout table are copied under its mutex first, and both
// passes run on the copy: writers never wait on packing or file I/O. The
// dump replaces a regular file at its path instead of truncating it (see
// FlightRecorder::dump).
//
// No strings and no hashing on the hot path: payload keys and string
// values are const char* pointers to static storage (the TraceField
// contract), so layouts hold the key pointers and slots the string
// pointers as-is, and interning them into the dump's shared name table
// (16-bit ids, written once into the header) waits for dump time.
//
// Dump format (native-endian, fixed width):
//   FileHeader   magic "RLTRFLT1", name table, ring count
//   per ring     source id, recorded / dropped / stored counters,
//                `stored` Records oldest → newest
//   Record       {f64 time, u64 episode, u32 node, u8 kind,
//                 u8 field_count, u16 pad, 8 × Field} — 152 bytes
//   Field        {u64 bits, u16 key id, u8 type, 5 pad bytes} — 16 bytes
//
// The episode header slot duplicates the "episode" payload field (when the
// event carries one) so scans can filter by episode without touching the
// payload; the reader reconstructs events from the payload alone, keeping
// binary → JSONL round trips field-for-field identical.
#pragma once

#include <array>
#include <atomic>
#include <cstdint>
#include <cstring>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>
#include <vector>

#include "obs/trace.hpp"

namespace realtor::obs {

inline constexpr char kFlightMagic[8] = {'R', 'L', 'T', 'R',
                                         'F', 'L', 'T', '1'};
inline constexpr std::size_t kDefaultFlightCapacity = 65536;

/// Interns const char* → dense u16 id, first-encounter order. Two pointers
/// with equal content get distinct ids (only content matters to the
/// reader, which maps ids back to the stored bytes). Interning goes
/// through a Session, which holds the table's mutex for a whole batch:
/// a dump opens one for all its rings, so packing takes one lock per dump
/// rather than one per field, and never runs on the event hot path.
class NameTable {
 public:
  class Session {
   public:
    explicit Session(NameTable& table) : table_(table), lock_(table.mutex_) {}
    std::uint16_t intern(const char* text);
    /// The interned strings, id order.
    const std::vector<std::string>& names() const { return table_.names_; }

   private:
    NameTable& table_;
    std::lock_guard<std::mutex> lock_;
  };

 private:
  std::mutex mutex_;
  std::unordered_map<const char*, std::uint16_t> ids_;
  std::vector<std::string> names_;
};

/// One packed payload entry: the value's raw bits plus the interned key.
/// u64 alignment pads the tail; the padding is zero-initialized so dumps
/// of one run are byte-identical.
struct FlightField {
  std::uint64_t bits = 0;
  std::uint16_t key = 0;
  std::uint8_t type = 0;  // TraceField::Type
  std::array<std::uint8_t, 5> pad{};
};
static_assert(sizeof(FlightField) == 16);

/// One packed trace record. kInvalidNode is stored as 0xFFFFFFFF.
struct FlightRecord {
  double time = 0.0;
  std::uint64_t episode = 0;
  std::uint32_t node = 0;
  std::uint8_t kind = 0;
  std::uint8_t field_count = 0;
  std::uint16_t pad = 0;
  std::array<FlightField, kMaxTraceFields> fields{};
};
static_assert(sizeof(FlightRecord) == 24 + 16 * kMaxTraceFields);

/// Per-ring counters as serialized into a dump.
struct FlightRingInfo {
  std::uint64_t source = 0;
  std::uint64_t recorded = 0;  // total on_event() calls
  std::uint64_t dropped = 0;   // overwritten by wrap-around
  std::uint64_t stored = 0;    // records present in the dump
};

/// Fixed-capacity overwrite-oldest ring behind the TraceSink interface.
/// The hot path is "record now, understand later": on_event() writes the
/// event's header, layout id and value bits (pointers to static strings
/// stay pointers) into the next slot and bumps a counter. The slot array
/// is allocated, never constructed: a slot is first written by the event
/// that lands in it, and a dump reads only slots that hold a record.
/// Interning names, episode lifting and canonical FlightRecord packing
/// all happen in FlightRecorder::dump(), which runs once per attack or
/// exit rather than once per event.
/// Single-writer by default (the deterministic simulation); pass
/// thread_safe=true when the writer and the dumper are different threads
/// (agile: reactor threads write, the cluster thread dumps). A thread-safe
/// ring interns layouts under the mutex its writers already hold, and a
/// dump copies its live slots under that mutex.
class FlightRing final : public TraceSink {
 public:
  /// Bytes one slot takes: 16-byte header plus kMaxTraceFields value bits.
  static constexpr std::size_t kSlotBytes = 16 + 8 * kMaxTraceFields;

  FlightRing(std::uint64_t source, std::size_t capacity, NameTable& names,
             bool thread_safe = false);
  ~FlightRing() override;
  FlightRing(const FlightRing&) = delete;
  FlightRing& operator=(const FlightRing&) = delete;

  void on_event(const TraceEvent& event) override;

  std::uint64_t source() const { return source_; }
  std::size_t capacity() const { return capacity_; }
  std::uint64_t recorded() const {
    return head_.load(std::memory_order_relaxed);
  }
  std::uint64_t dropped() const {
    const std::uint64_t head = recorded();
    return head > capacity_ ? head - capacity_ : 0;
  }

 private:
  friend class FlightDump;

  /// What an emission site fixes: field count, key pointers, value types.
  /// Entries past `count` stay zero, so a compare may read all of them.
  struct Layout {
    std::uint32_t count = 0;
    std::array<const char*, kMaxTraceFields> keys{};
    std::array<TraceField::Type, kMaxTraceFields> types{};
  };
  struct Slot {
    double time;
    NodeId node;
    std::uint16_t layout;
    EventKind kind;
    std::uint64_t bits[kMaxTraceFields];  // entries [0, layout count) set
  };
  static_assert(sizeof(Slot) == kSlotBytes);

  void store(const TraceEvent& event);
  /// Id of `event`'s layout, interned on first sight.
  std::uint16_t intern_layout(const TraceEvent& event);

  std::uint64_t source_;
  NameTable& names_;
  std::size_t capacity_;
  Slot* slots_;  // uninitialised; a slot is written before it is read
  std::atomic<std::uint64_t> head_{0};
  std::size_t cursor_ = 0;  // head_ mod capacity, wrap-maintained
  bool thread_safe_;
  mutable std::mutex mutex_;  // used only when thread_safe_
  /// Interned layouts; entry 0 is a sentinel no event matches (its count
  /// is out of range), so an empty cache entry needs no check of its own.
  std::vector<Layout> layouts_;
  /// Per event kind, the layout id its last event had.
  std::array<std::uint16_t, 256> last_layout_{};
};

/// A set of rings sharing one name table, dumpable as one file.
class FlightRecorder {
 public:
  explicit FlightRecorder(std::size_t capacity_per_ring =
                              kDefaultFlightCapacity)
      : capacity_(capacity_per_ring == 0 ? 1 : capacity_per_ring) {}

  /// Creates (first call) or returns the ring for `source`. Rings live as
  /// long as the recorder; creation is not thread-safe — make every ring
  /// before the writers start.
  FlightRing& ring(std::uint64_t source, bool thread_safe = false);

  std::size_t capacity_per_ring() const { return capacity_; }
  std::size_t ring_count() const { return rings_.size(); }
  std::uint64_t total_recorded() const;
  std::uint64_t total_dropped() const;

  /// Writes every ring's current content to `path`. Safe to call
  /// mid-flight (attack dumps) and again later (exit dump). Every ring is
  /// planned first (that completes the name table), then the small header
  /// is written from a buffer and each ring's info and records are packed
  /// and written in fixed-size chunks. A regular file already at `path`
  /// is unlinked and a new one created in its place: rewriting a file by
  /// truncation makes ext4 (auto_da_alloc) start writeback at close, and
  /// a 10 MB rewrite took a median 9.2 ms that way against 2.7 ms for a
  /// fresh file. A hard link to the old dump therefore keeps the old
  /// bytes. Other paths are opened as they are: a symlink's target is
  /// written through and never replaced, and devices and FIFOs are written
  /// to. Returns false with "cannot write <path>" when the file cannot be
  /// opened, "short write to <path>" when a write or the close fails.
  bool dump(const std::string& path, std::string* error = nullptr) const;

 private:
  std::size_t capacity_;
  mutable NameTable names_;  // dump() interns; ids never change once given
  std::vector<std::unique_ptr<FlightRing>> rings_;
};

/// Owning single-ring recorder that dumps to a fixed path on flush() (and
/// on destruction when never flushed) — the per-run sink shape sweeps
/// need: experiment::run_one flushes after the run and destroys the sink.
class FlightDumpSink final : public TraceSink {
 public:
  FlightDumpSink(std::string path, std::size_t capacity);

  void on_event(const TraceEvent& event) override {
    recorder_.ring(0).on_event(event);
  }
  void flush() override;
  ~FlightDumpSink() override;

  const FlightRecorder& recorder() const { return recorder_; }

 private:
  std::string path_;
  FlightRecorder recorder_;
  bool dumped_ = false;
};

}  // namespace realtor::obs
