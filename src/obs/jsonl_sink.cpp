#include "obs/jsonl_sink.hpp"

#include <array>
#include <charconv>
#include <cmath>
#include <cstring>

#include "common/assert.hpp"

namespace realtor::obs {
namespace {

// Room one number needs: std::to_chars's shortest double is at most 24
// characters ("-2.2250738585072014e-308"), a u64 20, a quoted "-inf" 6.
constexpr std::size_t kNumberMax = 32;

/// Bounded line buffer: pieces are written raw into a stack array and
/// moved into the output string once it fills and at the end of the
/// line, so a typical record costs one append instead of one per piece.
class LineWriter {
 public:
  explicit LineWriter(std::string& out) : out_(out) {}

  /// At least `n` (<= kCapacity) writable bytes at the returned cursor;
  /// hand the cursor past what was written back through advance().
  char* room(std::size_t n) {
    if (static_cast<std::size_t>(buf_.end() - cursor_) < n) spill();
    return cursor_;
  }
  void advance(char* to) { cursor_ = to; }

  void put(char c) {
    *room(1) = c;
    ++cursor_;
  }
  /// A string literal, without its terminator.
  template <std::size_t kSize>
  void put(const char (&literal)[kSize]) {
    put(literal, kSize - 1);
  }
  void put(const char* text, std::size_t size) {
    if (size > kCapacity) {
      spill();
      out_.append(text, size);
      return;
    }
    std::memcpy(room(size), text, size);
    cursor_ += size;
  }

  /// Writes the first `size` bytes of a fixed-width block. Copying the
  /// whole block is a few fixed-size moves; a copy of the exact length
  /// compiles to a variable-length one, which costs several times more
  /// for the short fragments a record is made of.
  template <std::size_t kWidth>
  void put_block(const char (&block)[kWidth], std::size_t size) {
    char* cursor = room(kWidth);
    std::memcpy(cursor, block, kWidth);
    cursor_ = cursor + size;
  }

  /// Moves what is buffered into the output string.
  void spill() {
    out_.append(buf_.data(), static_cast<std::size_t>(cursor_ - buf_.data()));
    cursor_ = buf_.data();
  }

 private:
  static constexpr std::size_t kCapacity = 512;
  std::string& out_;
  std::array<char, kCapacity> buf_;
  char* cursor_ = buf_.data();
};

/// Writes NUL-terminated `text` JSON-escaped (quotes, backslashes,
/// control characters), byte by byte into the line buffer.
void put_escaped(LineWriter& line, const char* text) {
  static constexpr char kHex[] = "0123456789abcdef";
  constexpr std::size_t kLongestEscape = 6;  // \u00XX
  for (; *text != '\0'; ++text) {
    char* cursor = line.room(kLongestEscape);
    const char c = *text;
    const auto byte = static_cast<unsigned char>(c);
    if (byte >= 0x20 && c != '"' && c != '\\') {
      *cursor++ = c;
    } else {
      *cursor++ = '\\';
      switch (c) {
        case '"':
        case '\\':
          *cursor++ = c;
          break;
        case '\n':
          *cursor++ = 'n';
          break;
        case '\r':
          *cursor++ = 'r';
          break;
        case '\t':
          *cursor++ = 't';
          break;
        default:
          *cursor++ = 'u';
          *cursor++ = '0';
          *cursor++ = '0';
          *cursor++ = kHex[byte >> 4];
          *cursor++ = kHex[byte & 0xF];
      }
    }
    line.advance(cursor);
  }
}

void put_uint(LineWriter& line, std::uint64_t value) {
  char* cursor = line.room(kNumberMax);
  line.advance(std::to_chars(cursor, cursor + kNumberMax, value).ptr);
}

void put_double(LineWriter& line, double value) {
  char* cursor = line.room(kNumberMax);
  // Integer-valued doubles below 1e5 in magnitude: std::to_chars's
  // shortest form is the plain integer, because fixed notation is never
  // longer than scientific there (ties go to fixed) — but -0.0 keeps its
  // sign, so it takes the general path.
  if (value > -1e5 && value < 1e5) {
    const auto whole = static_cast<std::int32_t>(value);
    if (static_cast<double>(whole) == value &&
        (whole != 0 || !std::signbit(value))) {
      line.advance(std::to_chars(cursor, cursor + kNumberMax, whole).ptr);
      return;
    }
  }
  if (!std::isfinite(value)) {
    // JSON has no inf/nan: quote them.
    const char* text = std::isnan(value) ? "\"nan\""
                       : value > 0       ? "\"inf\""
                                         : "\"-inf\"";
    line.put(text, std::strlen(text));
    return;
  }
  line.advance(std::to_chars(cursor, cursor + kNumberMax, value).ptr);
}

/// `,"kind":"<name>"` for every kind, rendered once.
struct KindFragment {
  char text[40] = {};
  std::size_t size = 0;
};

const KindFragment& kind_fragment(EventKind kind) {
  static constexpr std::size_t kKinds =
      static_cast<std::size_t>(EventKind::kCount) + 1;
  static const std::array<KindFragment, kKinds> fragments = [] {
    std::array<KindFragment, kKinds> out;
    for (std::size_t i = 0; i < kKinds; ++i) {
      std::string text = ",\"kind\":\"";
      text += to_string(static_cast<EventKind>(i));
      text += '"';
      REALTOR_ASSERT_MSG(text.size() <= sizeof(out[i].text),
                         "event kind name too long");
      std::memcpy(out[i].text, text.data(), text.size());
      out[i].size = text.size();
    }
    return out;
  }();
  const auto index = static_cast<std::size_t>(kind);
  return fragments[index < kKinds ? index : kKinds - 1];
}

/// Direct-mapped per-thread cache of escaped `,"key":` fragments. Keys
/// are pointers to static strings, so the pointer picks the entry; a hit
/// also compares the key's bytes with the cached copy, because the same
/// address can hold a different string after the first one is freed.
struct KeyFragment {
  static constexpr std::size_t kMaxKey = 31;
  static constexpr std::size_t kMaxText = 64;

  const char* key = nullptr;
  std::uint8_t key_size = 0;
  std::uint8_t text_size = 0;
  char raw[kMaxKey];
  char text[kMaxText];

  bool holds(const char* candidate) const {
    if (candidate != key) return false;
    // raw has no NUL byte, so a shorter candidate mismatches at its
    // terminator and the loop never reads past it.
    for (std::size_t i = 0; i < key_size; ++i) {
      if (candidate[i] != raw[i]) return false;
    }
    return candidate[key_size] == '\0';
  }
};

thread_local std::array<KeyFragment, 64> tls_key_fragments;

void put_key(LineWriter& line, const char* key) {
  if (key == nullptr) key = "";
  const auto hash = reinterpret_cast<std::uintptr_t>(key) *
                    std::uint64_t{0x9E3779B97F4A7C15};
  KeyFragment& entry =
      tls_key_fragments[hash >> 58];  // top 6 bits: 64 entries
  if (entry.holds(key)) {
    line.put_block(entry.text, entry.text_size);
    return;
  }
  std::string text = ",\"";
  {
    LineWriter escaped(text);
    put_escaped(escaped, key);
    escaped.spill();
  }
  text += "\":";
  const std::size_t key_size = std::strlen(key);
  if (key_size <= KeyFragment::kMaxKey &&
      text.size() <= KeyFragment::kMaxText) {
    entry.key = key;
    entry.key_size = static_cast<std::uint8_t>(key_size);
    entry.text_size = static_cast<std::uint8_t>(text.size());
    std::memcpy(entry.raw, key, key_size);
    std::memcpy(entry.text, text.data(), text.size());
  }
  line.put(text.data(), text.size());
}

}  // namespace

void append_jsonl(std::string& out, const TraceEvent& event) {
  LineWriter line(out);
  line.put("{\"t\":");
  put_double(line, event.time);
  if (event.node != kInvalidNode) {
    line.put(",\"node\":");
    put_uint(line, event.node);
  }
  const KindFragment& kind = kind_fragment(event.kind);
  line.put_block(kind.text, kind.size);
  for (std::uint32_t i = 0; i < event.field_count; ++i) {
    const TraceField& field = event.fields[i];
    put_key(line, field.key);
    switch (field.type) {
      case TraceField::Type::kUint:
        put_uint(line, field.u);
        break;
      case TraceField::Type::kDouble:
        put_double(line, field.d);
        break;
      case TraceField::Type::kString:
        line.put('"');
        put_escaped(line, field.s != nullptr ? field.s : "");
        line.put('"');
        break;
      case TraceField::Type::kBool:
        if (field.b) {
          line.put("true");
        } else {
          line.put("false");
        }
        break;
      case TraceField::Type::kNone:
        line.put("null");
        break;
    }
  }
  line.put('}');
  line.spill();
}

std::string format_jsonl(const TraceEvent& event) {
  std::string line;
  append_jsonl(line, event);
  return line;
}

JsonlSink::JsonlSink(std::ostream& out, std::size_t flush_every)
    : out_(&out), flush_every_(flush_every) {}

JsonlSink::JsonlSink(const std::string& path, std::size_t flush_every)
    : file_(path), flush_every_(flush_every) {
  if (file_.is_open()) out_ = &file_;
}

JsonlSink::~JsonlSink() {
  if (out_ != nullptr) flush();
}

void JsonlSink::drain_locked() {
  if (!buffer_.empty()) {
    out_->write(buffer_.data(),
                static_cast<std::streamsize>(buffer_.size()));
    buffer_.clear();
  }
  pending_ = 0;
  out_->flush();
}

void JsonlSink::on_event(const TraceEvent& event) {
  std::lock_guard<std::mutex> lock(mutex_);
  ++lines_;
  append_jsonl(buffer_, event);
  buffer_ += '\n';
  if (flush_every_ == 0) {
    // Write-through: the line reaches the stream now; the stream itself
    // is not flushed.
    out_->write(buffer_.data(), static_cast<std::streamsize>(buffer_.size()));
    buffer_.clear();
    return;
  }
  if (++pending_ >= flush_every_) drain_locked();
}

void JsonlSink::flush() {
  std::lock_guard<std::mutex> lock(mutex_);
  drain_locked();
}

}  // namespace realtor::obs
