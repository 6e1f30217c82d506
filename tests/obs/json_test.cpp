// JsonWriter's output contract: numbers print exactly as the snprintf-based
// writer printed them, strings escape exactly as before, and a document is
// in the stream as soon as its outermost value closes.

#include "obs/json.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <limits>
#include <sstream>
#include <string>

#include "common/rng.hpp"

namespace nfv::obs {
namespace {

std::string printf_g17(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

/// The writer's former string encoder, kept as the reference.
std::string reference_quote(std::string_view s) {
  std::ostringstream out;
  out << '"';
  for (const char c : s) {
    switch (c) {
      case '"':
        out << "\\\"";
        break;
      case '\\':
        out << "\\\\";
        break;
      case '\n':
        out << "\\n";
        break;
      case '\r':
        out << "\\r";
        break;
      case '\t':
        out << "\\t";
        break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          out << buf;
        } else {
          out << c;
        }
    }
  }
  out << '"';
  return out.str();
}

template <typename T>
std::string written(T v) {
  std::ostringstream out;
  JsonWriter json(out);
  json.value(v);
  return out.str();
}

TEST(JsonWriter, DoublesPrintAsPrintfG17) {
  const double table[] = {
      0.0,
      -0.0,
      std::numeric_limits<double>::denorm_min(),
      -std::numeric_limits<double>::denorm_min(),
      2.2250738585072009e-308,  // largest denormal
      std::numeric_limits<double>::min(),
      std::numeric_limits<double>::max(),
      std::numeric_limits<double>::lowest(),
      1e-300,
      1e21,
      1e22,
      9007199254740993.0,  // 2^53 + 1 (rounds to 2^53)
      9007199254740992.0,
      0.1,
      1.0 / 3.0,
      1e-5,
      123456.789,
      std::numeric_limits<double>::infinity(),
      -std::numeric_limits<double>::infinity(),
      std::numeric_limits<double>::quiet_NaN(),
      -std::numeric_limits<double>::quiet_NaN(),
  };
  for (const double v : table) {
    EXPECT_EQ(written(v), printf_g17(v)) << "bits of " << printf_g17(v);
  }
  Rng rng(20171);
  for (int i = 0; i < 10'000; ++i) {
    const std::uint64_t bits = rng.next_u64();
    double v = 0.0;
    std::memcpy(&v, &bits, sizeof(v));
    ASSERT_EQ(written(v), printf_g17(v)) << "bit pattern " << bits;
  }
}

TEST(JsonWriter, IntegerExtremes) {
  EXPECT_EQ(written(std::numeric_limits<std::int64_t>::min()),
            "-9223372036854775808");
  EXPECT_EQ(written(std::numeric_limits<std::int64_t>::max()),
            "9223372036854775807");
  EXPECT_EQ(written(std::numeric_limits<std::uint64_t>::max()),
            "18446744073709551615");
  EXPECT_EQ(written(std::numeric_limits<std::int32_t>::min()), "-2147483648");
  EXPECT_EQ(written(std::numeric_limits<std::uint32_t>::max()), "4294967295");
  EXPECT_EQ(written(std::uint64_t{0}), "0");
  EXPECT_EQ(written(true), "true");
  EXPECT_EQ(written(false), "false");
}

TEST(JsonWriter, StringsEscapeAsBefore) {
  // Every byte value alone, between plain characters, and at both ends.
  for (int b = 0; b < 256; ++b) {
    const char c = static_cast<char>(b);
    for (const std::string& s :
         {std::string(1, c), "ab" + std::string(1, c) + "cd",
          std::string(3, c)}) {
      EXPECT_EQ(written(std::string_view(s)), reference_quote(s)) << "byte " << b;
      EXPECT_EQ(JsonWriter::quote(s), reference_quote(s)) << "byte " << b;
    }
  }
  // Multi-byte UTF-8 passes through; a long mixed string escapes in place.
  const std::string mixed =
      "caf\xc3\xa9 \xe2\x82\xac \"q\" back\\slash\n\ttab\x01\x1f\x7f end";
  EXPECT_EQ(written(std::string_view(mixed)), reference_quote(mixed));
  std::ostringstream out;
  JsonWriter json(out);
  json.begin_object();
  json.key(mixed);
  json.value(1);
  json.quoted_key(JsonWriter::quote("k"));
  json.raw(JsonWriter::quote(mixed));
  json.end_object();
  EXPECT_EQ(out.str(), "{" + reference_quote(mixed) + ":1,\"k\":" +
                           reference_quote(mixed) + "}");
}

TEST(JsonWriter, StreamWritesBetweenTopLevelValuesStayInOrder) {
  std::ostringstream out;
  JsonWriter json(out);
  json.begin_object();
  json.field("a", 1);
  json.end_object();
  out << '\n';
  json.begin_array();
  json.value(2.5);
  json.value("s");
  json.end_array();
  out << "|";
  json.value(std::int64_t{-3});
  out << "|";
  json.raw("{\"spliced\":true}");
  out << "\n";
  EXPECT_EQ(out.str(), "{\"a\":1}\n[2.5,\"s\"]|-3|{\"spliced\":true}\n");
}

TEST(JsonWriter, DocumentIsInTheStreamWhenOutermostValueCloses) {
  // Larger than the writer's chunk, so it also crosses several flushes.
  std::ostringstream out;
  std::string expected = "{\"rows\":[";
  JsonWriter json(out);
  json.begin_object();
  json.key("rows");
  json.begin_array();
  for (int i = 0; i < 5000; ++i) {
    json.begin_object();
    json.field("i", i);
    json.field("name", "row");
    json.end_object();
    expected += (i > 0 ? "," : "");
    expected += "{\"i\":" + std::to_string(i) + ",\"name\":\"row\"}";
  }
  json.end_array();
  EXPECT_LT(out.str().size(), expected.size() + 2);  // still open: partial
  json.end_object();
  expected += "]}";
  EXPECT_EQ(out.str(), expected);  // read with the writer still alive
}

}  // namespace
}  // namespace nfv::obs
