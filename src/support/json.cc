#include "src/support/json.h"

#include <charconv>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>

#include "src/support/str.h"

namespace gist {
namespace {

void AppendUtf8(uint32_t code, std::string* out) {
  if (code < 0x80) {
    out->push_back(static_cast<char>(code));
    return;
  }
  static constexpr uint8_t kLead[] = {0, 0xc0, 0xe0, 0xf0};
  const int tail = code < 0x800 ? 1 : code < 0x10000 ? 2 : 3;  // continuation bytes
  out->push_back(static_cast<char>(kLead[tail] | (code >> (6 * tail))));
  for (int shift = 6 * (tail - 1); shift >= 0; shift -= 6) {
    out->push_back(static_cast<char>(0x80 | ((code >> shift) & 0x3f)));
  }
}

// The byte a one-letter escape stands for; 0 for a letter that is not one.
char ShortEscape(char letter) {
  static constexpr char kPairs[][2] = {{'"', '"'}, {'\\', '\\'}, {'/', '/'}, {'b', '\b'},
                                       {'f', '\f'}, {'n', '\n'},  {'r', '\r'}, {'t', '\t'}};
  for (const auto& [from, to] : kPairs) {
    if (letter == from) {
      return to;
    }
  }
  return 0;
}

// Recursive descent over the RFC 8259 grammar. Each step returns false once
// it has recorded the first error; `depth` counts the open containers.
class Parser {
 public:
  explicit Parser(std::string_view text) : text_(text) {}

  Result<JsonValue> Document() {
    JsonValue root;
    if (Value(&root, 0)) {
      SkipSpace();
      if (pos_ == text_.size()) {
        return root;
      }
      Fail("trailing bytes");
    }
    return Error(error_);
  }

 private:
  bool Fail(std::string_view what) {
    if (pos_ >= text_.size()) {
      what = "unexpected end of input";
    }
    error_ = StrFormat("json: %.*s at byte %zu", static_cast<int>(what.size()), what.data(),
                       pos_);
    return false;
  }

  // Advances past the next byte when it is one of `set`.
  bool Accept(std::string_view set) {
    if (pos_ < text_.size() && set.find(text_[pos_]) != std::string_view::npos) {
      ++pos_;
      return true;
    }
    return false;
  }

  void SkipSpace() {
    while (Accept(" \t\n\r")) {
    }
  }

  bool Consume(char c) {
    SkipSpace();
    return Accept(std::string_view(&c, 1));
  }

  bool Expect(char c) { return Consume(c) || Fail(StrFormat("expected '%c'", c)); }

  bool Literal(std::string_view word) {
    if (text_.substr(pos_, word.size()) != word) {
      return false;
    }
    pos_ += word.size();
    return true;
  }

  bool Value(JsonValue* out, size_t depth) {
    SkipSpace();
    const char c = pos_ < text_.size() ? text_[pos_] : '\0';
    if (c == '{' || c == '[') {
      return depth < kJsonMaxDepth ? Container(out, depth + 1) : Fail("nesting too deep");
    }
    if (c == '"') {
      out->kind = JsonValue::kString;
      return String(&out->text);
    }
    if (c == '-' || (c >= '0' && c <= '9')) {
      out->kind = JsonValue::kNumber;
      return Number(&out->text);
    }
    out->boolean = Literal("true");
    if (out->boolean || Literal("false")) {
      out->kind = JsonValue::kBool;
      return true;
    }
    return Literal("null") || Fail("unexpected character");
  }

  // An object or array; called at its opening bracket.
  bool Container(JsonValue* out, size_t depth) {
    const bool object = text_[pos_++] == '{';
    const char close = object ? '}' : ']';
    out->kind = object ? JsonValue::kObject : JsonValue::kArray;
    if (Consume(close)) {
      return true;
    }
    do {
      std::string key;
      JsonValue value;
      if ((object && (!String(&key) || !Expect(':'))) || !Value(&value, depth)) {
        return false;
      }
      if (object) {
        out->fields.emplace_back(std::move(key), std::move(value));
      } else {
        out->items.push_back(std::move(value));
      }
    } while (Consume(','));
    return Expect(close);
  }

  // -?(0|[1-9][0-9]*)(\.[0-9]+)?([eE][+-]?[0-9]+)?, kept as written.
  bool Number(std::string* out) {
    const size_t start = pos_;
    auto digits = [&] {
      const size_t first = pos_;
      while (Accept("0123456789")) {
      }
      return pos_ > first;
    };
    Accept("-");
    bool ok = Accept("0") || digits();
    if (ok && Accept(".")) {
      ok = digits();
    }
    if (ok && Accept("eE")) {
      Accept("+-");
      ok = digits();
    }
    if (!ok) {
      return Fail("malformed number");
    }
    out->assign(text_.substr(start, pos_ - start));
    return true;
  }

  bool Hex4(uint32_t* out) {
    const char* begin = text_.data() + pos_;
    if (text_.size() - pos_ < 4 || std::from_chars(begin, begin + 4, *out, 16).ptr != begin + 4) {
      return false;
    }
    pos_ += 4;
    return true;
  }

  // The code point after "\u", joining a surrogate pair.
  bool CodePoint(uint32_t* code) {
    if (!Hex4(code) || (*code >= 0xdc00 && *code <= 0xdfff)) {
      return Fail("bad \\u escape");
    }
    if (*code < 0xd800 || *code > 0xdbff) {
      return true;
    }
    uint32_t low = 0;
    if (!Literal("\\u") || !Hex4(&low) || low < 0xdc00 || low > 0xdfff) {
      return Fail("unpaired surrogate in \\u escape");
    }
    *code = 0x10000 + ((*code - 0xd800) << 10) + (low - 0xdc00);
    return true;
  }

  bool String(std::string* out) {
    if (!Consume('"')) {
      return Fail("expected a string");
    }
    while (pos_ < text_.size()) {
      const char c = text_[pos_];
      if (static_cast<unsigned char>(c) < 0x20) {
        return Fail("control character in string");
      }
      ++pos_;
      if (c == '"') {
        return true;
      }
      if (c != '\\') {
        out->push_back(c);
        continue;
      }
      uint32_t code = 0;
      if (Accept("u")) {
        if (!CodePoint(&code)) {
          return false;
        }
        AppendUtf8(code, out);
      } else if (pos_ < text_.size() && ShortEscape(text_[pos_]) != 0) {
        out->push_back(ShortEscape(text_[pos_++]));
      } else {
        return Fail("bad escape");
      }
    }
    return Fail("unexpected end of input");
  }

  std::string_view text_;
  size_t pos_ = 0;
  std::string error_;
};

}  // namespace

const JsonValue& JsonValue::operator[](std::string_view key) const {
  static const JsonValue kMissing;
  for (const auto& [name, value] : fields) {
    if (name == key) {
      return value;
    }
  }
  return kMissing;
}

std::optional<uint64_t> JsonValue::AsU64() const {
  // from_chars takes no sign for unsigned types and stops at '.' or 'e'.
  uint64_t value = 0;
  const char* end = text.data() + text.size();
  const auto [stop, status] = std::from_chars(text.data(), end, value);
  if (kind != kNumber || status != std::errc() || stop != end) {
    return std::nullopt;
  }
  return value;
}

std::optional<double> JsonValue::AsDouble() const {
  if (kind != kNumber) {
    return std::nullopt;
  }
  return std::strtod(text.c_str(), nullptr);
}

const std::string* JsonValue::AsString() const { return kind == kString ? &text : nullptr; }

Result<JsonValue> ParseJson(std::string_view text) { return Parser(text).Document(); }

std::string JsonEscape(std::string_view text) {
  static constexpr char kHex[] = "0123456789abcdef";
  std::string out;
  out.reserve(text.size());
  for (const char c : text) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (c == '\n') {
      out += "\\n";
    } else if (c == '\t') {
      out += "\\t";
    } else if (static_cast<unsigned char>(c) < 0x20) {
      out += "\\u00";
      out += kHex[c >> 4];
      out += kHex[c & 0xf];
    } else {
      out += c;
    }
  }
  return out;
}

std::map<std::string, double> ReadFlatJson(const std::string& path) {
  std::ifstream file(path, std::ios::binary);
  if (!file) {
    return {};
  }
  std::ostringstream bytes;
  bytes << file.rdbuf();
  const Result<JsonValue> root = ParseJson(bytes.str());
  if (!root.ok() || root->kind != JsonValue::kObject) {
    return {};
  }
  std::map<std::string, double> values;
  for (const auto& [key, value] : root->fields) {
    const std::optional<double> number = value.AsDouble();
    if (!number) {
      return {};
    }
    values[key] = *number;
  }
  return values;
}

bool WriteFlatJson(const std::string& path, const std::map<std::string, double>& values) {
  std::FILE* file = std::fopen(path.c_str(), "wb");
  if (file == nullptr) {
    return false;
  }
  std::fprintf(file, "{\n");
  size_t index = 0;
  for (const auto& [key, value] : values) {
    const char* separator = ++index < values.size() ? "," : "";
    const std::string name = JsonEscape(key);
    // Counters must round-trip exactly (the CI gate diffs them for
    // equality); %.6g would mangle anything above six significant digits.
    if (value == std::floor(value) && std::abs(value) < 9.0e15) {
      std::fprintf(file, "  \"%s\": %lld%s\n", name.c_str(), static_cast<long long>(value),
                   separator);
    } else {
      std::fprintf(file, "  \"%s\": %.6g%s\n", name.c_str(), value, separator);
    }
  }
  std::fprintf(file, "}\n");
  std::fclose(file);
  return true;
}

}  // namespace gist
