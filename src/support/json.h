// The one JSON codec: a strict reader for every on-disk format Gist reads
// back (profiles, campaign journals, corpus indexes, BENCH_*.json), and the
// one string escaper every hand-written exporter uses. Exports are written by
// hand, next to their readers, so their bytes stay under each format's own
// control; this file only guarantees that what comes back in is well-formed.

#ifndef GIST_SRC_SUPPORT_JSON_H_
#define GIST_SRC_SUPPORT_JSON_H_

#include <cstddef>
#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "src/support/result.h"

namespace gist {

// Deepest array/object nesting ParseJson accepts. Gist's own exports nest at
// most four levels; the cap keeps hostile input from exhausting the stack.
inline constexpr size_t kJsonMaxDepth = 64;

struct JsonValue {
  enum Kind : uint8_t { kNull, kBool, kNumber, kString, kArray, kObject };
  Kind kind = kNull;
  bool boolean = false;
  // kString: the decoded value. kNumber: the literal exactly as written, so
  // integer reads are exact.
  std::string text;
  std::vector<JsonValue> items;                           // kArray
  std::vector<std::pair<std::string, JsonValue>> fields;  // kObject, in source order

  // The first field named `key`; a null value when absent or when this is
  // not an object, so lookups chain: root["totals"]["retired"].AsU64().
  const JsonValue& operator[](std::string_view key) const;
  // A plain non-negative integer literal that fits uint64_t; nullopt for a
  // sign, fraction, exponent, overflow, or a value that is not a number.
  std::optional<uint64_t> AsU64() const;
  // Any number, converted exactly as strtod converts its literal.
  std::optional<double> AsDouble() const;
  // The decoded string; nullptr when this is not a string.
  const std::string* AsString() const;
};

// Parses one RFC 8259 document: the full grammar, no trailing bytes, nesting
// up to kJsonMaxDepth. `\u` escapes must be four hex digits and surrogates
// must pair; they decode to UTF-8. Other string bytes pass through as they
// are, so what JsonEscape writes reads back unchanged. Errors name the byte
// offset where parsing stopped.
Result<JsonValue> ParseJson(std::string_view text);

// Escapes `text` for the inside of a JSON string literal: `"` `\` newline and
// tab get their short escapes, other bytes below 0x20 become \u00xx, and
// everything else (UTF-8 included) is copied as is.
std::string JsonEscape(std::string_view text);

// Flat {"key": number, ...} files (BENCH_corpus.json, BENCH_interp.json).
// Read returns an empty map when the file is missing or is not such an
// object. Write sorts keys one per line; integral values print as integers
// so counters round-trip exactly, the rest as %.6g.
std::map<std::string, double> ReadFlatJson(const std::string& path);
bool WriteFlatJson(const std::string& path, const std::map<std::string, double>& values);

}  // namespace gist

#endif  // GIST_SRC_SUPPORT_JSON_H_
