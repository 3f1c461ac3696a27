// Small string helpers shared across modules.

#ifndef GIST_SRC_SUPPORT_STR_H_
#define GIST_SRC_SUPPORT_STR_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

namespace gist {

// Splits `text` on `separator`, dropping empty pieces.
std::vector<std::string_view> SplitNonEmpty(std::string_view text, char separator);

// Removes leading and trailing ASCII whitespace.
std::string_view StripWhitespace(std::string_view text);

bool StartsWith(std::string_view text, std::string_view prefix);

// Strict decimal parsing for command-line numbers: `text` must be a
// non-empty run of ASCII digits whose value is at most `max`. A sign,
// whitespace, trailing bytes or overflow all fail, leaving `*out` unchanged.
bool ParseUint(std::string_view text, uint64_t* out, uint64_t max = UINT64_MAX);
// Signed twin: an optional leading '-', then ParseUint's digit rules, with
// the value inside int64_t.
bool ParseInt(std::string_view text, int64_t* out);

// Formats like printf into a std::string.
std::string StrFormat(const char* format, ...) __attribute__((format(printf, 1, 2)));

// FNV-1a over bytes; used for stack-trace hashing and failure matching.
uint64_t HashBytes(const void* data, size_t size);
uint64_t HashCombine(uint64_t seed, uint64_t value);

// Left/right pads `text` with spaces to `width` columns (no truncation).
std::string PadRight(std::string_view text, size_t width);
std::string PadLeft(std::string_view text, size_t width);

}  // namespace gist

#endif  // GIST_SRC_SUPPORT_STR_H_
