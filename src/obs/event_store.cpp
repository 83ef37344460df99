#include "obs/event_store.hpp"

#include <algorithm>
#include <charconv>
#include <cstring>
#include <fstream>
#include <utility>

#include "common/parallel.hpp"

#if defined(__unix__) || defined(__APPLE__)
#define REALTOR_HAS_MMAP 1
#include <fcntl.h>
#include <sys/mman.h>
#include <sys/stat.h>
#include <unistd.h>
#else
#define REALTOR_HAS_MMAP 0
#endif

namespace realtor::obs {

// --- TextArena ----------------------------------------------------------

char* TextArena::alloc(std::size_t n) {
  if (cursor_ == nullptr ||
      static_cast<std::size_t>(chunk_end_ - cursor_) < n + 1) {
    const std::size_t chunk = n + 1 > kChunkSize ? n + 1 : kChunkSize;
    chunks_.push_back(std::make_unique<char[]>(chunk));
    cursor_ = chunks_.back().get();
    chunk_end_ = cursor_ + chunk;
  }
  char* out = cursor_;
  cursor_ += n + 1;
  bytes_used_ += n + 1;
  return out;
}

void TextArena::trim(char* base, std::size_t used) {
  base[used] = '\0';
  bytes_used_ -= static_cast<std::size_t>(cursor_ - (base + used + 1));
  cursor_ = base + used + 1;
}

std::string_view TextArena::store(std::string_view text) {
  char* dst = alloc(text.size());
  if (!text.empty()) std::memcpy(dst, text.data(), text.size());
  dst[text.size()] = '\0';
  return {dst, text.size()};
}

void TextArena::adopt(TextArena&& other) {
  for (auto& chunk : other.chunks_) chunks_.push_back(std::move(chunk));
  bytes_used_ += other.bytes_used_;
  other.chunks_.clear();
  other.cursor_ = nullptr;
  other.chunk_end_ = nullptr;
  other.bytes_used_ = 0;
  // cursor_/chunk_end_ keep pointing into our own current chunk: adopted
  // chunks are full (or trimmed) and are never bump-allocated from again.
}

// --- InternTable --------------------------------------------------------

void InternTable::rehash(std::size_t slot_count) {
  slots_.assign(slot_count, 0);
  const std::size_t mask = slot_count - 1;
  for (StrId id = 0; id < names_.size(); ++id) {
    std::size_t i = hash(names_[id]) & mask;
    while (slots_[i] != 0) i = (i + 1) & mask;
    slots_[i] = id + 1;
  }
}

/// First sighting of a name (or an empty table): the inline hit path in
/// the header already probed and missed, so re-probe after making room
/// and insert. Misses are rare — a trace has a handful of distinct kind
/// and key names — so this stays out of line.
StrId InternTable::intern_miss(std::string_view text, TextArena& arena,
                               bool copy) {
  if (slots_.empty()) rehash(64);
  std::size_t mask = slots_.size() - 1;
  std::size_t i = hash(text) & mask;
  while (slots_[i] != 0) {
    const StrId id = slots_[i] - 1;
    if (names_[id] == text) return id;
    i = (i + 1) & mask;
  }
  const StrId id = static_cast<StrId>(names_.size());
  names_.push_back(copy ? arena.store(text) : text);
  EventKind kind = EventKind::kCount;
  parse_event_kind(names_.back(), kind);
  kinds_.push_back(kind);
  slots_[i] = id + 1;
  if ((names_.size() + 1) * 4 > slots_.size() * 3) {
    rehash(slots_.size() * 2);
  }
  return id;
}

StrId InternTable::find(std::string_view text) const {
  if (slots_.empty()) return kNoStrId;
  const std::size_t mask = slots_.size() - 1;
  std::size_t i = hash(text) & mask;
  while (slots_[i] != 0) {
    const StrId id = slots_[i] - 1;
    if (names_[id] == text) return id;
    i = (i + 1) & mask;
  }
  return kNoStrId;
}

// --- MappedBuffer -------------------------------------------------------

MappedBuffer::~MappedBuffer() { reset(); }

MappedBuffer::MappedBuffer(MappedBuffer&& other) noexcept
    : owned_(std::move(other.owned_)),
      map_(other.map_),
      map_size_(other.map_size_) {
  other.map_ = nullptr;
  other.map_size_ = 0;
}

MappedBuffer& MappedBuffer::operator=(MappedBuffer&& other) noexcept {
  if (this != &other) {
    reset();
    owned_ = std::move(other.owned_);
    map_ = other.map_;
    map_size_ = other.map_size_;
    other.map_ = nullptr;
    other.map_size_ = 0;
  }
  return *this;
}

void MappedBuffer::reset() {
#if REALTOR_HAS_MMAP
  if (map_ != nullptr) ::munmap(map_, map_size_);
#endif
  map_ = nullptr;
  map_size_ = 0;
  owned_.clear();
  owned_.shrink_to_fit();
}

const char* MappedBuffer::data() const {
  return map_ != nullptr ? map_ : owned_.data();
}

std::size_t MappedBuffer::size() const {
  return map_ != nullptr ? map_size_ : owned_.size();
}

void MappedBuffer::adopt(std::string text) {
  reset();
  owned_ = std::move(text);
}

namespace {

bool read_stream_fallback(const std::string& path, std::string& out,
                          std::string* error) {
  std::ifstream in(path, std::ios::binary);
  if (!in.is_open()) {
    if (error != nullptr) *error = "cannot open " + path;
    return false;
  }
  in.seekg(0, std::ios::end);
  const std::streamoff end = in.tellg();
  if (end > 0) {
    in.seekg(0, std::ios::beg);
    out.resize(static_cast<std::size_t>(end));
    in.read(out.data(), end);
    out.resize(static_cast<std::size_t>(in.gcount()));
  } else {
    // Unsized stream: read in chunks until EOF.
    char chunk[1 << 16];
    out.clear();
    while (in.read(chunk, sizeof chunk) || in.gcount() > 0) {
      out.append(chunk, static_cast<std::size_t>(in.gcount()));
    }
  }
  return true;
}

}  // namespace

bool MappedBuffer::open(const std::string& path, std::string* error) {
  reset();
#if REALTOR_HAS_MMAP
  const int fd = ::open(path.c_str(), O_RDONLY);
  if (fd < 0) {
    if (error != nullptr) *error = "cannot open " + path;
    return false;
  }
  struct stat st {};
  if (::fstat(fd, &st) != 0 || !S_ISREG(st.st_mode) || st.st_size == 0) {
    ::close(fd);
    // Not a plain non-empty file: take the stream path, which handles
    // empty files and odd path types the way std::ifstream does.
    return read_stream_fallback(path, owned_, error);
  }
  const auto len = static_cast<std::size_t>(st.st_size);
  void* mem = ::mmap(nullptr, len, PROT_READ, MAP_PRIVATE, fd, 0);
  ::close(fd);
  if (mem == MAP_FAILED) {
    return read_stream_fallback(path, owned_, error);
  }
#ifdef MADV_SEQUENTIAL
  ::madvise(mem, len, MADV_SEQUENTIAL);
#endif
  map_ = static_cast<char*>(mem);
  map_size_ = len;
  return true;
#else
  return read_stream_fallback(path, owned_, error);
#endif
}

// --- EventView ----------------------------------------------------------

const StoredField* EventView::find(StrId key) const {
  if (key == kNoStrId) return nullptr;
  for (const StoredField* f = fields_begin(); f != fields_end(); ++f) {
    if (f->key == key) return f;
  }
  return nullptr;
}

const StoredField* EventView::find(std::string_view key) const {
  return find(store_->interner_.find(key));
}

double EventView::number(StrId key, double fallback) const {
  const StoredField* field = find(key);
  if (field == nullptr || field->type != FieldType::kNumber) {
    return fallback;
  }
  return field->number;
}

double EventView::number(std::string_view key, double fallback) const {
  return number(store_->interner_.find(key), fallback);
}

// --- EventStore builder -------------------------------------------------

void EventStore::begin_event(double time, NodeId node, StrId kind) {
  events_.push_back(
      {time, node, kind, static_cast<std::uint32_t>(fields_.size()), 0});
}

void EventStore::add_number(StrId key, double value) {
  fields_.push_back({key, FieldType::kNumber, false, value, {}});
  ++events_.back().field_count;
}

void EventStore::add_string(StrId key, std::string_view text) {
  fields_.push_back({key, FieldType::kString, false, 0.0, text});
  ++events_.back().field_count;
}

void EventStore::add_bool(StrId key, bool value) {
  fields_.push_back({key, FieldType::kBool, value, 0.0, {}});
  ++events_.back().field_count;
}

void EventStore::add_null(StrId key) {
  fields_.push_back({key, FieldType::kNull, false, 0.0, {}});
  ++events_.back().field_count;
}

void EventStore::stable_sort_by_time() {
  std::stable_sort(events_.begin(), events_.end(),
                   [](const EventRec& a, const EventRec& b) {
                     return a.time < b.time;
                   });
}

// --- loader -------------------------------------------------------------

/// Loader backdoor into EventStore internals; local to the obs library.
struct StoreIngest {
  static std::vector<EventRec>& events(EventStore& s) { return s.events_; }
  static std::vector<StoredField>& fields(EventStore& s) {
    return s.fields_;
  }
  static InternTable& interner(EventStore& s) { return s.interner_; }
  static TextArena& arena(EventStore& s) { return s.arena_; }
  static MappedBuffer& backing(EventStore& s) { return s.backing_; }
};

namespace {

/// One parse destination: either the global store (serial path) or a
/// per-shard scratch store (parallel path).
struct Sink {
  std::vector<EventRec>& events;
  std::vector<StoredField>& fields;
  InternTable& interner;
  TextArena& arena;
};

// Every rejected line reports "<reason> at offset <byte>" from this
// cursor; the event-store tests pin the strings and offsets.
struct Cursor {
  std::string_view text;
  std::size_t pos = 0;

  bool done() const { return pos >= text.size(); }
  char peek() const { return text[pos]; }
  void skip_ws() {
    while (!done() && (peek() == ' ' || peek() == '\t')) ++pos;
  }
  bool consume(char c) {
    skip_ws();
    if (done() || peek() != c) return false;
    ++pos;
    return true;
  }
};

bool fail(const Cursor& cursor, std::string* error, const char* what) {
  if (error != nullptr) {
    *error = std::string(what) + " at offset " + std::to_string(cursor.pos);
  }
  return false;
}

/// Escape decode, deliberately out of line: escaped strings are rare
/// (and bounded by the line), and keeping this loop out of
/// parse_string_sv lets the escape-free scan inline into the per-line
/// parse loop. `cursor.pos` must sit on the first content byte.
bool parse_string_escaped(Cursor& cursor, TextArena& arena,
                          std::string_view& out, std::string* error) {
  const std::size_t content = cursor.pos;
  char* base = arena.alloc(cursor.text.size() - content);
  std::size_t used = 0;
  const auto bail = [&](const char* what) {
    arena.trim(base, 0);
    return fail(cursor, error, what);
  };
  while (!cursor.done()) {
    const char c = cursor.text[cursor.pos++];
    if (c == '"') {
      arena.trim(base, used);
      out = {base, used};
      return true;
    }
    if (c != '\\') {
      base[used++] = c;
      continue;
    }
    if (cursor.done()) break;
    const char esc = cursor.text[cursor.pos++];
    switch (esc) {
      case '"':
        base[used++] = '"';
        break;
      case '\\':
        base[used++] = '\\';
        break;
      case '/':
        base[used++] = '/';
        break;
      case 'n':
        base[used++] = '\n';
        break;
      case 'r':
        base[used++] = '\r';
        break;
      case 't':
        base[used++] = '\t';
        break;
      case 'b':
        base[used++] = '\b';
        break;
      case 'f':
        base[used++] = '\f';
        break;
      case 'u': {
        if (cursor.pos + 4 > cursor.text.size()) {
          return bail("truncated \\u escape");
        }
        unsigned code = 0;
        const char* first = cursor.text.data() + cursor.pos;
        const auto res = std::from_chars(first, first + 4, code, 16);
        if (res.ptr != first + 4) {
          return bail("bad \\u escape");
        }
        cursor.pos += 4;
        if (code < 0x80) {
          base[used++] = static_cast<char>(code);
        } else {  // non-ASCII escapes: keep a readable placeholder
          base[used++] = '?';
        }
        break;
      }
      default:
        return bail("unknown escape");
    }
  }
  return bail("unterminated string");
}

/// Parses a JSON string. Escape-free strings come back as views into the
/// line (zero-copy); strings with escapes decode into the arena via
/// parse_string_escaped. Small on purpose so it inlines into the
/// per-line loop: keys and kind names dominate the call mix.
inline bool parse_string_sv(Cursor& cursor, TextArena& arena,
                            std::string_view& out, std::string* error) {
  if (!cursor.consume('"')) return fail(cursor, error, "expected '\"'");
  const std::size_t content = cursor.pos;
  // Hybrid scan for the close quote: a short manual loop covers keys and
  // kind names (almost always < 16 bytes, where memchr's call overhead
  // loses), then memchr takes over for long payload strings. A backslash
  // anywhere before the quote demotes the line to the decode path.
  const char* base = cursor.text.data();
  const std::size_t size = cursor.text.size();
  std::size_t pos = content;
  const std::size_t short_end = std::min(size, content + 16);
  bool escaped = false;
  while (pos < short_end) {
    const char c = base[pos];
    if (c == '"') break;
    if (c == '\\') {
      escaped = true;
      break;
    }
    ++pos;
  }
  if (!escaped && pos == short_end && pos < size) {
    const auto* quote =
        static_cast<const char*>(std::memchr(base + pos, '"', size - pos));
    const std::size_t stop =
        quote != nullptr ? static_cast<std::size_t>(quote - base) : size;
    escaped = std::memchr(base + pos, '\\', stop - pos) != nullptr;
    pos = stop;
  }
  if (!escaped) {
    if (pos < size) {  // base[pos] == '"'
      out = cursor.text.substr(content, pos - content);
      cursor.pos = pos + 1;
      return true;
    }
    // No closing quote and no escape: consume to the end and report an
    // unterminated string there, as the escape decode loop would.
    cursor.pos = size;
    return fail(cursor, error, "unterminated string");
  }
  return parse_string_escaped(cursor, arena, out, error);
}

struct ParsedValue {
  FieldType type = FieldType::kNull;
  double number = 0.0;
  bool boolean = false;
  std::string_view text;
};

constexpr double kPow10[] = {1e0,  1e1,  1e2,  1e3,  1e4,  1e5,  1e6,
                             1e7,  1e8,  1e9,  1e10, 1e11, 1e12, 1e13,
                             1e14, 1e15, 1e16, 1e17, 1e18, 1e19};

/// Clinger's exact case, shared by parse_value_sv and the header fast
/// path in parse_line_sv: a plain decimal with few enough digits that
/// double(mantissa) and the power of ten are both exact, so one IEEE
/// divide yields the correctly rounded value — by construction
/// bit-identical to what from_chars returns. Returns false with `pos`
/// untouched for anything outside that range (exponents, >19 digits,
/// mantissa >= 2^53, a bare or trailing '.', no digits at all); the
/// caller falls back to from_chars, which also keeps the error behavior
/// identical.
inline bool scan_exact_decimal(const char* data, std::size_t size,
                               std::size_t& pos, double& out) {
  const char* const first = data + pos;
  const char* const last = data + size;
  const char* p = first;
  const bool negative = p < last && *p == '-';
  if (negative) ++p;
  std::uint64_t mantissa = 0;
  int digits = 0;
  int frac_digits = 0;
  while (p < last && *p >= '0' && *p <= '9') {
    mantissa = mantissa * 10 + static_cast<std::uint64_t>(*p - '0');
    ++digits;
    ++p;
  }
  if (p < last && *p == '.' && p + 1 < last && p[1] >= '0' && p[1] <= '9') {
    ++p;
    while (p < last && *p >= '0' && *p <= '9') {
      mantissa = mantissa * 10 + static_cast<std::uint64_t>(*p - '0');
      ++digits;
      ++frac_digits;
      ++p;
    }
  }
  const bool ambiguous_tail =
      p < last && (*p == '.' || *p == 'e' || *p == 'E');
  if (digits == 0 || digits > 19 || ambiguous_tail ||
      mantissa >= (1ULL << 53)) {
    return false;
  }
  double value = static_cast<double>(mantissa);
  if (frac_digits > 0) value /= kPow10[frac_digits];
  out = negative ? -value : value;
  pos += static_cast<std::size_t>(p - first);
  return true;
}

bool parse_value_sv(Cursor& cursor, TextArena& arena, ParsedValue& out,
                    std::string* error) {
  cursor.skip_ws();
  if (cursor.done()) return fail(cursor, error, "expected value");
  const char c = cursor.peek();
  if (c == '"') {
    out.type = FieldType::kString;
    return parse_string_sv(cursor, arena, out.text, error);
  }
  // Values starting with a digit or '-' can never be true/false/null, so
  // numbers (by far the most common case) skip the literal compares.
  if (c != '-' && (c < '0' || c > '9')) {
    if (cursor.text.substr(cursor.pos, 4) == "true") {
      out.type = FieldType::kBool;
      out.boolean = true;
      cursor.pos += 4;
      return true;
    }
    if (cursor.text.substr(cursor.pos, 5) == "false") {
      out.type = FieldType::kBool;
      out.boolean = false;
      cursor.pos += 5;
      return true;
    }
    if (cursor.text.substr(cursor.pos, 4) == "null") {
      out.type = FieldType::kNull;
      cursor.pos += 4;
      return true;
    }
  }
  // Exact fast path first; from_chars handles the long tail.
  if (scan_exact_decimal(cursor.text.data(), cursor.text.size(), cursor.pos,
                         out.number)) {
    out.type = FieldType::kNumber;
    return true;
  }

  const char* first = cursor.text.data() + cursor.pos;
  const char* last = cursor.text.data() + cursor.text.size();
  double number = 0.0;
  const auto res = std::from_chars(first, last, number);
  if (res.ec != std::errc{} || res.ptr == first) {
    return fail(cursor, error, "expected number");
  }
  out.type = FieldType::kNumber;
  out.number = number;
  cursor.pos += static_cast<std::size_t>(res.ptr - first);
  return true;
}

/// One line into the sink. On failure any partially appended fields are
/// rolled back (arena scraps from escaped strings are left behind —
/// malformed lines are rare and bounded by the line length).
bool parse_line_sv(std::string_view line, Sink& sink, std::string* error) {
  Cursor cursor{line};
  const std::size_t field_begin = sink.fields.size();
  double time = 0.0;
  NodeId node = kInvalidNode;
  std::string_view kind_text;
  bool saw_time = false;
  bool saw_kind = false;
  const auto bail = [&] {
    sink.fields.resize(field_begin);
    return false;
  };
  // Header fast path: the trace sink always opens a record with
  // {"t":<num>,"node":<num>,"kind":"<name>" in that order and without
  // whitespace, so three literal compares replace the generic key
  // scan/dispatch for the three hottest fields. Any deviation —
  // whitespace, reordered keys, numbers outside the exact-decimal
  // range, an escaped or unterminated kind — restarts the generic
  // parser from the first byte (nothing has been committed and no state
  // mutated), so rejected lines get the generic parser's error strings
  // and offsets.
  bool header_done = false;
  {
    const char* d = line.data();
    const std::size_t n = line.size();
    std::size_t p = 5;
    double t = 0.0;
    double node_num = 0.0;
    if (n > 5 && std::memcmp(d, "{\"t\":", 5) == 0 &&
        scan_exact_decimal(d, n, p, t) && n - p > 8 &&
        std::memcmp(d + p, ",\"node\":", 8) == 0 &&
        (p += 8, scan_exact_decimal(d, n, p, node_num)) && n - p > 9 &&
        std::memcmp(d + p, ",\"kind\":\"", 9) == 0) {
      p += 9;
      const std::size_t kind_start = p;
      while (p < n && d[p] != '"' && d[p] != '\\') ++p;
      if (p < n && d[p] == '"') {
        time = t;
        node = static_cast<NodeId>(node_num);
        kind_text = {d + kind_start, p - kind_start};
        saw_time = true;
        saw_kind = true;
        cursor.pos = p + 1;
        header_done = true;
      }
    }
  }

  bool members;
  if (header_done) {
    members = cursor.consume(',');
    if (!members && !cursor.consume('}')) {
      fail(cursor, error, "expected ',' or '}'");
      return bail();
    }
  } else {
    if (!cursor.consume('{')) {
      fail(cursor, error, "expected '{'");
      return bail();
    }
    members = !cursor.consume('}');
  }
  if (members) {
    while (true) {
      std::string_view key;
      if (!parse_string_sv(cursor, sink.arena, key, error)) return bail();
      if (!cursor.consume(':')) {
        fail(cursor, error, "expected ':'");
        return bail();
      }
      ParsedValue value;
      if (!parse_value_sv(cursor, sink.arena, value, error)) return bail();
      if (key == "t" && value.type == FieldType::kNumber) {
        time = value.number;
        saw_time = true;
      } else if (key == "node" && value.type == FieldType::kNumber) {
        node = static_cast<NodeId>(value.number);
      } else if (key == "kind" && value.type == FieldType::kString) {
        kind_text = value.text;
        saw_kind = true;
      } else {
        const StrId key_id = sink.interner.intern(key, sink.arena);
        sink.fields.push_back(
            {key_id, value.type, value.boolean, value.number, value.text});
      }
      if (cursor.consume(',')) continue;
      if (cursor.consume('}')) break;
      fail(cursor, error, "expected ',' or '}'");
      return bail();
    }
  }
  cursor.skip_ws();
  if (!cursor.done()) {
    fail(cursor, error, "trailing garbage");
    return bail();
  }
  if (!saw_time) {
    fail(cursor, error, "record has no \"t\"");
    return bail();
  }
  if (!saw_kind) {
    fail(cursor, error, "record has no \"kind\"");
    return bail();
  }
  const StrId kind_id = sink.interner.intern(kind_text, sink.arena);
  sink.events.push_back({time, node, kind_id,
                         static_cast<std::uint32_t>(field_begin),
                         static_cast<std::uint32_t>(sink.fields.size() -
                                                    field_begin)});
  return true;
}

/// Per-shard parse state and counters.
struct Shard {
  std::size_t begin = 0;
  std::size_t end = 0;
  std::vector<EventRec> events;
  std::vector<StoredField> fields;
  InternTable interner;
  TextArena arena;
  std::size_t total_lines = 0;  // all lines, blank included
  std::size_t nonempty = 0;
  std::size_t malformed = 0;
  std::size_t first_malformed_rel = 0;  // 1-based inside the shard
  std::string first_error;
};

/// Parses [begin, end) of the buffer line by line into `sink`, updating
/// the shard's counters: blank lines advance the line number but are
/// skipped, the first malformed line keeps its error string.
void parse_range(const char* data, Shard& shard, Sink& sink) {
  std::size_t pos = shard.begin;
  const std::size_t end = shard.end;
  // Only the first malformed line's error is kept, so one string outside
  // the loop suffices; parse_line_sv writes it solely on failure.
  std::string line_error;
  while (pos < end) {
    const auto* nl = static_cast<const char*>(
        std::memchr(data + pos, '\n', end - pos));
    const std::size_t line_end =
        nl != nullptr ? static_cast<std::size_t>(nl - data) : end;
    ++shard.total_lines;
    if (line_end > pos) {
      ++shard.nonempty;
      std::string* error_out =
          shard.malformed == 0 ? &line_error : nullptr;
      if (!parse_line_sv({data + pos, line_end - pos}, sink, error_out)) {
        ++shard.malformed;
        if (shard.first_malformed_rel == 0) {
          shard.first_malformed_rel = shard.total_lines;
          shard.first_error = std::move(line_error);
        }
      }
    }
    pos = line_end + 1;
  }
}

/// Splits [0, size) on newline boundaries into at most `want` shards.
std::vector<std::pair<std::size_t, std::size_t>> shard_ranges(
    const char* data, std::size_t size, unsigned want) {
  std::vector<std::pair<std::size_t, std::size_t>> ranges;
  const std::size_t target = size / want;
  std::size_t start = 0;
  for (unsigned s = 0; s < want; ++s) {
    std::size_t stop = s + 1 == want ? size : (s + 1) * target;
    if (stop < start) stop = start;
    if (s + 1 != want && stop < size) {
      const auto* nl = static_cast<const char*>(
          std::memchr(data + stop, '\n', size - stop));
      stop = nl != nullptr ? static_cast<std::size_t>(nl - data) + 1 : size;
    }
    ranges.emplace_back(start, stop);
    start = stop;
  }
  return ranges;
}

/// Minimum bytes per shard: below this the spawn cost dominates.
constexpr std::size_t kMinShardBytes = 64 * 1024;

bool load_from_backing(EventStore& out, IngestStats& stats,
                       unsigned jobs) {
  const char* data = StoreIngest::backing(out).data();
  const std::size_t size = StoreIngest::backing(out).size();
  stats.bytes = size;
  stats.mapped = StoreIngest::backing(out).mapped();

  const unsigned workers = resolve_jobs(jobs);
  const std::size_t by_bytes = size / kMinShardBytes;
  unsigned shard_count =
      static_cast<unsigned>(std::min<std::size_t>(workers, by_bytes));
  if (shard_count < 1) shard_count = 1;
  stats.shards = shard_count;

  // Amortize vector growth up front: sink-written traces run ~80 bytes
  // per record with ~2.5 payload fields each, so sizing from the byte
  // count removes nearly every reallocation from the parse hot loop.
  const auto reserve_for = [](Sink& sink, std::size_t bytes) {
    sink.events.reserve(sink.events.size() + bytes / 80 + 16);
    sink.fields.reserve(sink.fields.size() + bytes / 40 + 16);
  };

  if (shard_count == 1) {
    Sink sink{StoreIngest::events(out), StoreIngest::fields(out),
              StoreIngest::interner(out), StoreIngest::arena(out)};
    reserve_for(sink, size);
    Shard shard;
    shard.begin = 0;
    shard.end = size;
    parse_range(data, shard, sink);
    stats.lines = shard.nonempty;
    stats.events = sink.events.size();
    stats.malformed = shard.malformed;
    stats.first_malformed_line = shard.first_malformed_rel;
    stats.first_error = std::move(shard.first_error);
    return true;
  }

  const auto ranges = shard_ranges(data, size, shard_count);
  std::vector<Shard> shards(ranges.size());
  for (std::size_t s = 0; s < ranges.size(); ++s) {
    shards[s].begin = ranges[s].first;
    shards[s].end = ranges[s].second;
  }
  parallel_for(shards.size(), workers, [&](std::size_t s) {
    Shard& shard = shards[s];
    Sink sink{shard.events, shard.fields, shard.interner, shard.arena};
    reserve_for(sink, shard.end - shard.begin);
    parse_range(data, shard, sink);
  });

  // Deterministic merge: walking the shards in order and interning each
  // shard's names first-appearance-first reproduces exactly the id
  // assignment a serial parse would have made, so serial and parallel
  // loads build identical stores.
  InternTable& interner = StoreIngest::interner(out);
  TextArena& arena = StoreIngest::arena(out);
  std::vector<std::vector<StrId>> remap(shards.size());
  std::size_t total_events = 0;
  std::size_t total_fields = 0;
  for (std::size_t s = 0; s < shards.size(); ++s) {
    const Shard& shard = shards[s];
    remap[s].resize(shard.interner.size());
    for (StrId id = 0; id < shard.interner.size(); ++id) {
      // copy=false: the name bytes live in the shard arena, which is
      // adopted below — no recopy needed.
      remap[s][id] = interner.intern(shard.interner.name(id), arena,
                                     /*copy=*/false);
    }
    total_events += shard.events.size();
    total_fields += shard.fields.size();
  }

  std::vector<std::size_t> event_off(shards.size());
  std::vector<std::size_t> field_off(shards.size());
  std::size_t event_cursor = 0;
  std::size_t field_cursor = 0;
  for (std::size_t s = 0; s < shards.size(); ++s) {
    event_off[s] = event_cursor;
    field_off[s] = field_cursor;
    event_cursor += shards[s].events.size();
    field_cursor += shards[s].fields.size();
  }

  std::vector<EventRec>& events = StoreIngest::events(out);
  std::vector<StoredField>& fields = StoreIngest::fields(out);
  events.resize(total_events);
  fields.resize(total_fields);
  parallel_for(shards.size(), workers, [&](std::size_t s) {
    const Shard& shard = shards[s];
    const std::vector<StrId>& ids = remap[s];
    for (std::size_t i = 0; i < shard.events.size(); ++i) {
      EventRec rec = shard.events[i];
      rec.kind = ids[rec.kind];
      rec.field_begin += static_cast<std::uint32_t>(field_off[s]);
      events[event_off[s] + i] = rec;
    }
    for (std::size_t i = 0; i < shard.fields.size(); ++i) {
      StoredField field = shard.fields[i];
      field.key = ids[field.key];
      fields[field_off[s] + i] = field;
    }
  });

  std::size_t lines_before = 0;
  for (Shard& shard : shards) {
    stats.lines += shard.nonempty;
    stats.events += shard.events.size();
    stats.malformed += shard.malformed;
    if (stats.first_malformed_line == 0 && shard.first_malformed_rel != 0) {
      stats.first_malformed_line = lines_before + shard.first_malformed_rel;
      stats.first_error = std::move(shard.first_error);
    }
    lines_before += shard.total_lines;
    arena.adopt(std::move(shard.arena));
  }
  return true;
}

}  // namespace

bool load_trace_store(const std::string& path, EventStore& out,
                      IngestStats& stats, std::string* error,
                      unsigned jobs) {
  out = EventStore{};
  stats = IngestStats{};
  if (!StoreIngest::backing(out).open(path, error)) return false;
  return load_from_backing(out, stats, jobs);
}

bool load_trace_buffer(std::string text, EventStore& out, IngestStats& stats,
                       std::string* error, unsigned jobs) {
  (void)error;
  out = EventStore{};
  stats = IngestStats{};
  StoreIngest::backing(out).adopt(std::move(text));
  return load_from_backing(out, stats, jobs);
}

}  // namespace realtor::obs
