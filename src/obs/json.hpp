// Minimal deterministic JSON writer.
//
// The observability layer exports two machine-readable artifacts — the
// metrics registry dump and the Chrome trace_event stream — and both are
// covered by byte-identity determinism tests. Hence this writer: no
// locale-sensitive formatting, no hash-ordered containers, doubles printed
// as "%.17g" (round-trippable and bit-stable for the bit-identical values
// a same-seed simulation produces).
//
// Numbers are formatted with std::to_chars. For a double, general format
// at precision 17 is specified as printf's "%.17g" in the C locale
// ([charconv.to.chars]), so the bytes are the ones snprintf would write,
// NaN and infinity included; integers print as plain decimal.
//
// Output collects in a fixed chunk that leaves through one
// std::ostream::write when it fills and whenever the outermost value
// closes. A caller may therefore read an ostringstream, or write to the
// stream itself, as soon as a top-level value is complete; bytes of a
// document left unclosed never reach the stream.
#pragma once

#include <charconv>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <ostream>
#include <string>
#include <string_view>
#include <vector>

namespace nfv::obs {

class JsonWriter {
 public:
  explicit JsonWriter(std::ostream& out) : out_(out) {}

  JsonWriter(const JsonWriter&) = delete;
  JsonWriter& operator=(const JsonWriter&) = delete;

  void begin_object() { open('{'); }
  void end_object() { close('}'); }
  void begin_array() { open('['); }
  void end_array() { close(']'); }

  void key(std::string_view k) {
    separate();
    escape(k, [this](std::string_view run) { put(run); });
    put(':');
    pending_value_ = true;
  }
  /// key() for a name already quoted and escaped by quote().
  void quoted_key(std::string_view quoted) {
    separate();
    put(quoted);
    put(':');
    pending_value_ = true;
  }

  void value(std::string_view s) {
    separate();
    escape(s, [this](std::string_view run) { put(run); });
    completed();
  }
  void value(const char* s) { value(std::string_view(s)); }
  void value(bool b) { raw(b ? "true" : "false"); }
  void value(std::uint64_t v) { number(v); }
  void value(std::int64_t v) { number(v); }
  void value(std::uint32_t v) { value(static_cast<std::uint64_t>(v)); }
  void value(std::int32_t v) { value(static_cast<std::int64_t>(v)); }
  void value(double v) { number(v, std::chars_format::general, 17); }

  template <typename T>
  void field(std::string_view k, T v) {
    key(k);
    value(v);
  }

  /// Splice pre-serialized JSON in value position: a report spliced into
  /// a bench document, or a string token from quote().
  void raw(std::string_view json) {
    separate();
    put(json);
    completed();
  }

  /// `s` as a JSON string token, quotes included, escaped exactly as
  /// value() writes it: for strings written many times, escape once.
  [[nodiscard]] static std::string quote(std::string_view s) {
    std::string out;
    out.reserve(s.size() + 2);
    escape(s, [&out](std::string_view run) { out.append(run); });
    return out;
  }

 private:
  static constexpr std::size_t kChunk = 4096;

  void open(char c) {
    separate();
    put(c);
    stack_.push_back(false);
  }
  void close(char c) {
    stack_.pop_back();
    put(c);
    completed();
  }

  /// A value just ended; at top level that is a whole document, so hand
  /// the chunk to the stream before the caller can look at it.
  void completed() {
    if (stack_.empty()) flush();
  }

  /// Emit the separating comma for the second and later items of the
  /// innermost container; a value immediately after key() never separates.
  void separate() {
    if (pending_value_) {
      pending_value_ = false;
      return;
    }
    if (!stack_.empty()) {
      if (stack_.back()) put(',');
      stack_.back() = true;
    }
  }

  template <typename... Format>
  void number(auto v, Format... format) {
    separate();
    char buf[32];  // "%.17g" of a double needs at most 24 bytes
    const auto end = std::to_chars(buf, buf + sizeof(buf), v, format...).ptr;
    put(std::string_view(buf, static_cast<std::size_t>(end - buf)));
    completed();
  }

  /// Write `s` quoted, handing `append` each unescaped run in one piece.
  template <typename Append>
  static void escape(std::string_view s, Append&& append) {
    append("\"");
    std::size_t run = 0;
    for (std::size_t i = 0; i < s.size(); ++i) {
      const auto c = static_cast<unsigned char>(s[i]);
      if (c >= 0x20 && c != '"' && c != '\\') continue;
      append(s.substr(run, i - run));
      run = i + 1;
      switch (c) {
        case '"':
          append("\\\"");
          break;
        case '\\':
          append("\\\\");
          break;
        case '\n':
          append("\\n");
          break;
        case '\r':
          append("\\r");
          break;
        case '\t':
          append("\\t");
          break;
        default: {
          static constexpr char kHex[] = "0123456789abcdef";
          const char u[] = {'\\', 'u', '0', '0', kHex[c >> 4], kHex[c & 0xf]};
          append(std::string_view(u, sizeof(u)));
        }
      }
    }
    append(s.substr(run));
    append("\"");
  }

  void put(char c) {
    if (len_ == kChunk) flush();
    buf_[len_++] = c;
  }
  void put(std::string_view s) {
    if (s.size() > kChunk - len_) {
      flush();
      if (s.size() > kChunk) {
        out_.write(s.data(), static_cast<std::streamsize>(s.size()));
        return;
      }
    }
    std::memcpy(buf_ + len_, s.data(), s.size());
    len_ += s.size();
  }
  void flush() {
    out_.write(buf_, static_cast<std::streamsize>(len_));
    len_ = 0;
  }

  std::ostream& out_;
  std::vector<bool> stack_;  // per open container: "has at least one item"
  bool pending_value_ = false;
  std::size_t len_ = 0;
  char buf_[kChunk];
};

}  // namespace nfv::obs
