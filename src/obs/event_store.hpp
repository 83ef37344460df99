// Zero-copy, data-oriented trace event store — the one in-memory trace
// representation behind realtor_trace, the analyzers and the bench gates.
//
// A record is a kind, a time, a node and an ordered list of (key, value)
// payload fields. Modelled naively — a std::string kind plus a vector of
// (std::string, value) pairs per record — a multi-hundred-MB 10k-node
// trace costs several heap allocations per record and ingest is
// dominated by malloc and memcpy, not parsing. The EventStore flattens
// the model instead:
//
//   - the input file is mmap'd (read-stream fallback) and string values
//     without escapes are string_views straight into the mapping;
//   - kinds, payload keys and escaped/decoded strings live once in a
//     chunked arena with stable addresses; kinds and keys are interned to
//     dense uint32 ids (first-appearance order), so a record is a 24-byte
//     EventRec plus a contiguous run of 32-byte StoredFields — no
//     per-record allocations at all;
//   - parsing shards the mapping on newline boundaries and runs the
//     shards through common/parallel.hpp::parallel_for, then merges them
//     in shard order with an id remap that preserves first-appearance
//     interning, so serial and parallel loads produce identical stores;
//   - flight-recorder dumps decode directly into the store
//     (obs/flight_reader.hpp), skipping the JSON text representation
//     entirely.
//
// The JSONL grammar is a small flat-object subset: every line JsonlSink
// writes is one object whose values are numbers, strings, booleans or
// null. Malformed lines are skipped and counted, never guessed at; each
// carries a positioned error ("<reason> at offset <byte>"), which the
// event-store tests pin string for string.
#pragma once

#include <cstdint>
#include <cstring>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "common/types.hpp"
#include "obs/trace.hpp"

namespace realtor::obs {

/// Dense id of an interned string (kind names, payload keys).
using StrId = std::uint32_t;
inline constexpr StrId kNoStrId = 0xFFFFFFFFu;

/// Chunked bump allocator with stable addresses: growing never moves
/// previously stored bytes, so string_views into it stay valid for the
/// arena's lifetime — including after the arena is adopted into another
/// one (shard merge).
class TextArena {
 public:
  TextArena() = default;
  TextArena(TextArena&&) = default;
  TextArena& operator=(TextArena&&) = default;
  TextArena(const TextArena&) = delete;
  TextArena& operator=(const TextArena&) = delete;

  /// Copies `text` in and NUL-terminates it (printf-friendly); the
  /// returned view excludes the NUL.
  std::string_view store(std::string_view text);

  /// Reserves `n` writable bytes (plus a NUL slot). Pair with trim() when
  /// the final length is smaller — e.g. decoding an escaped string whose
  /// exact length is unknown up front.
  char* alloc(std::size_t n);
  /// Gives back the tail of the last alloc(): keeps [base, base+used),
  /// NUL-terminates, and rewinds the bump pointer.
  void trim(char* base, std::size_t used);

  /// Moves every chunk of `other` into this arena (addresses unchanged).
  void adopt(TextArena&& other);

 private:
  static constexpr std::size_t kChunkSize = 64 * 1024;

  std::vector<std::unique_ptr<char[]>> chunks_;
  char* cursor_ = nullptr;
  char* chunk_end_ = nullptr;
};

/// string -> dense StrId interner (open-addressed FNV-1a). Ids are handed
/// out in first-appearance order; each interned name caches its
/// parse_event_kind() result so consumers never re-parse kind strings.
class InternTable {
 public:
  /// Returns the id of `text`, interning on first sight. When `copy` is
  /// true the bytes are stored (NUL-terminated) in `arena`; when false
  /// `text` must already point at storage that outlives the table (an
  /// adopted shard arena). Inline because the ingest hot loop calls this
  /// three times per line (kind plus ~two payload keys) and almost every
  /// call is a hit; first sightings take the out-of-line miss path.
  StrId intern(std::string_view text, TextArena& arena, bool copy = true) {
    if (!slots_.empty()) {
      const std::size_t mask = slots_.size() - 1;
      std::size_t i = hash(text) & mask;
      while (slots_[i] != 0) {
        const StrId id = slots_[i] - 1;
        if (names_[id] == text) return id;
        i = (i + 1) & mask;
      }
    }
    return intern_miss(text, arena, copy);
  }
  /// Id of `text` if interned, else kNoStrId. Never allocates.
  StrId find(std::string_view text) const;

  std::string_view name(StrId id) const { return names_[id]; }
  /// Interned names are NUL-terminated whenever they were stored with
  /// copy=true (every name the loaders produce).
  const char* name_cstr(StrId id) const { return names_[id].data(); }
  EventKind kind(StrId id) const { return kinds_[id]; }
  std::size_t size() const { return names_.size(); }

 private:
  StrId intern_miss(std::string_view text, TextArena& arena, bool copy);
  void rehash(std::size_t slot_count);

  /// Word-at-a-time FNV variant. Ids never depend on hash values (only
  /// probe placement does), so the mixing is free to change. The length
  /// seeds the state, so zero-padded tails of different lengths cannot
  /// collide trivially.
  static std::uint64_t hash(std::string_view text) {
    std::uint64_t h =
        1469598103934665603ull ^ (text.size() * 1099511628211ull);
    const char* p = text.data();
    std::size_t n = text.size();
    while (n >= 8) {
      std::uint64_t word;
      std::memcpy(&word, p, 8);
      h = (h ^ word) * 1099511628211ull;
      h ^= h >> 29;
      p += 8;
      n -= 8;
    }
    if (n > 0) {
      std::uint64_t word = 0;
      std::memcpy(&word, p, n);
      h = (h ^ word) * 1099511628211ull;
      h ^= h >> 29;
    }
    return h;
  }

  std::vector<std::string_view> names_;
  std::vector<EventKind> kinds_;
  std::vector<std::uint32_t> slots_;  // id + 1; 0 = empty
};

/// JSON type of one payload value. One byte, values fixed: fingerprints
/// hash StoredField::type as raw bytes.
enum class FieldType : std::uint8_t { kNull = 0, kNumber, kString, kBool };

/// One payload entry. `text` points into the arena or the mapped file;
/// `number` is 0.0 for non-number types (the contract span normalization
/// relies on).
struct StoredField {
  StrId key = 0;
  FieldType type = FieldType::kNull;
  bool boolean = false;
  double number = 0.0;
  std::string_view text;
};

/// One record header: fields live at [field_begin, field_begin +
/// field_count) in the store's field array.
struct EventRec {
  double time = 0.0;
  NodeId node = kInvalidNode;
  StrId kind = 0;
  std::uint32_t field_begin = 0;
  std::uint32_t field_count = 0;
};

class EventStore;

/// Accessor over one record.
class EventView {
 public:
  EventView(const EventStore& store, const EventRec& rec)
      : store_(&store), rec_(&rec) {}

  double time() const { return rec_->time; }
  NodeId node() const { return rec_->node; }
  StrId kind_id() const { return rec_->kind; }
  std::string_view kind() const;
  const char* kind_cstr() const;
  EventKind kind_enum() const;

  std::size_t field_count() const { return rec_->field_count; }
  const StoredField* fields_begin() const;
  const StoredField* fields_end() const;

  /// First field whose key matches; nullptr when absent.
  const StoredField* find(std::string_view key) const;
  const StoredField* find(StrId key) const;
  /// Numeric field access; `fallback` when missing or non-numeric.
  double number(std::string_view key, double fallback = 0.0) const;
  double number(StrId key, double fallback = 0.0) const;

 private:
  const EventStore* store_;
  const EventRec* rec_;
};

/// Memory-mapped (or read) file contents backing zero-copy string_views.
class MappedBuffer {
 public:
  MappedBuffer() = default;
  ~MappedBuffer();
  MappedBuffer(MappedBuffer&& other) noexcept;
  MappedBuffer& operator=(MappedBuffer&& other) noexcept;
  MappedBuffer(const MappedBuffer&) = delete;
  MappedBuffer& operator=(const MappedBuffer&) = delete;

  /// Maps `path` read-only; falls back to reading the whole file when
  /// mmap is unavailable. On failure stores "cannot open <path>" in
  /// `error`.
  bool open(const std::string& path, std::string* error);
  /// Takes ownership of in-memory bytes (tests, generated traces).
  void adopt(std::string text);

  const char* data() const;
  std::size_t size() const;
  bool mapped() const { return map_ != nullptr; }

 private:
  void reset();

  std::string owned_;
  char* map_ = nullptr;
  std::size_t map_size_ = 0;
};

/// What tolerant loading saw: non-empty lines (flight records) that
/// failed to parse are skipped but counted, never silently dropped —
/// realtor_trace reports the count and --check fails when it is nonzero.
struct TraceLoadStats {
  std::size_t lines = 0;      // non-empty lines seen
  std::size_t events = 0;     // lines parsed into events
  std::size_t malformed = 0;  // lines skipped (lines - events)
  std::size_t first_malformed_line = 0;  // 1-based over all lines; 0 = none
  std::string first_error;
};

/// JSONL ingest adds the throughput inputs for `realtor_trace --stats`.
struct IngestStats : TraceLoadStats {
  std::uint64_t bytes = 0;  // input size
  bool mapped = false;      // mmap path (vs read fallback / in-memory)
  unsigned shards = 1;      // parallel parse shards actually used
};

/// The flat store: one EventRec array, one StoredField array, one intern
/// table, one arena, and (for file loads) the mapped input they point
/// into. Move-only; views and ids stay valid for the store's lifetime.
class EventStore {
 public:
  EventStore() = default;
  EventStore(EventStore&&) = default;
  EventStore& operator=(EventStore&&) = default;
  EventStore(const EventStore&) = delete;
  EventStore& operator=(const EventStore&) = delete;

  std::size_t size() const { return events_.size(); }
  bool empty() const { return events_.empty(); }
  EventView operator[](std::size_t i) const {
    return EventView(*this, events_[i]);
  }
  const std::vector<EventRec>& records() const { return events_; }
  const std::vector<StoredField>& fields() const { return fields_; }

  /// Interner access: id of `text` when interned, else kNoStrId.
  StrId find_id(std::string_view text) const { return interner_.find(text); }
  std::string_view name(StrId id) const { return interner_.name(id); }
  const char* name_cstr(StrId id) const { return interner_.name_cstr(id); }
  EventKind kind_of(StrId id) const { return interner_.kind(id); }

  // --- builder API (flight decode) ---------------------------------------
  StrId intern(std::string_view text) {
    return interner_.intern(text, arena_);
  }
  /// Starts a record; add_* calls attach fields until the next
  /// begin_event. Records are stored in call order.
  void begin_event(double time, NodeId node, StrId kind);
  void add_number(StrId key, double value);
  /// `text` must outlive the store: an interned name, mapped buffer
  /// contents, or static storage.
  void add_string(StrId key, std::string_view text);
  void add_bool(StrId key, bool value);
  void add_null(StrId key);
  /// Capacity for `events` more records and `fields` more payload fields.
  void reserve(std::size_t events, std::size_t fields);
  /// Stable-sorts records by time (flight decode: rings merge by time);
  /// a store already in time order is left untouched.
  void stable_sort_by_time();

 private:
  friend class EventView;
  friend struct StoreIngest;  // the loaders' backdoor (event_store.cpp,
                              // flight_reader.cpp)

  std::vector<EventRec> events_;
  std::vector<StoredField> fields_;
  InternTable interner_;
  TextArena arena_;
  MappedBuffer backing_;
};

inline std::string_view EventView::kind() const {
  return store_->interner_.name(rec_->kind);
}
inline const char* EventView::kind_cstr() const {
  return store_->interner_.name_cstr(rec_->kind);
}
inline EventKind EventView::kind_enum() const {
  return store_->interner_.kind(rec_->kind);
}
inline const StoredField* EventView::fields_begin() const {
  return store_->fields_.data() + rec_->field_begin;
}
inline const StoredField* EventView::fields_end() const {
  return fields_begin() + rec_->field_count;
}

/// Loads a JSONL trace into `out` with tolerant (count-and-skip)
/// malformed-line semantics, parsing with up to `jobs` threads
/// (0 = resolve_jobs). Returns false only when the path cannot be read.
/// Serial and parallel loads produce identical stores and identical
/// malformed accounting.
bool load_trace_store(const std::string& path, EventStore& out,
                      IngestStats& stats, std::string* error = nullptr,
                      unsigned jobs = 1);

/// Same, over in-memory bytes (takes ownership — zero-copy views point
/// into the adopted buffer). For tests and generated traces.
bool load_trace_buffer(std::string text, EventStore& out, IngestStats& stats,
                       std::string* error = nullptr, unsigned jobs = 1);

}  // namespace realtor::obs
