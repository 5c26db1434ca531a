#include "src/obs/json_lint.h"

#include <algorithm>
#include <cmath>
#include <cstdlib>

#include "src/obs/metrics.h"
#include "src/obs/run_report.h"
#include "src/util/str_util.h"

namespace depsurf {
namespace obs {

namespace {

class Parser {
 public:
  explicit Parser(std::string_view text) : text_(text) {}

  Result<JsonValue> Parse() {
    DEPSURF_ASSIGN_OR_RETURN(value, ParseValue());
    SkipWhitespace();
    if (pos_ != text_.size()) {
      return Fail("trailing characters after document");
    }
    return value;
  }

 private:
  Error Fail(const std::string& what) {
    return Error(ErrorCode::kMalformedData,
                 StrFormat("JSON: %s at offset %zu", what.c_str(), pos_));
  }

  void SkipWhitespace() {
    while (pos_ < text_.size() && (text_[pos_] == ' ' || text_[pos_] == '\t' ||
                                   text_[pos_] == '\n' || text_[pos_] == '\r')) {
      ++pos_;
    }
  }

  bool Consume(char c) {
    SkipWhitespace();
    if (pos_ < text_.size() && text_[pos_] == c) {
      ++pos_;
      return true;
    }
    return false;
  }

  Result<JsonValue> ParseValue() {
    SkipWhitespace();
    if (pos_ >= text_.size()) {
      return Fail("unexpected end of input");
    }
    char c = text_[pos_];
    if (c == '{' || c == '[') {
      if (++depth_ > kMaxJsonDepth) {
        return Fail(StrFormat("nested deeper than %zu", kMaxJsonDepth));
      }
      Result<JsonValue> out = c == '{' ? ParseObject() : ParseArray();
      --depth_;
      return out;
    }
    if (c == '"') {
      return ParseString();
    }
    if (c == 't' || c == 'f') {
      return ParseKeyword(c == 't' ? "true" : "false", JsonValue::Kind::kBool, c == 't');
    }
    if (c == 'n') {
      return ParseKeyword("null", JsonValue::Kind::kNull, false);
    }
    return ParseNumber();
  }

  Result<JsonValue> ParseKeyword(std::string_view keyword, JsonValue::Kind kind, bool value) {
    if (text_.substr(pos_, keyword.size()) != keyword) {
      return Fail("bad keyword");
    }
    pos_ += keyword.size();
    JsonValue out;
    out.kind = kind;
    out.boolean = value;
    return out;
  }

  Result<JsonValue> ParseNumber() {
    size_t start = pos_;
    if (pos_ < text_.size() && text_[pos_] == '-') {
      ++pos_;
    }
    while (pos_ < text_.size() &&
           ((text_[pos_] >= '0' && text_[pos_] <= '9') || text_[pos_] == '.' ||
            text_[pos_] == 'e' || text_[pos_] == 'E' || text_[pos_] == '+' ||
            text_[pos_] == '-')) {
      ++pos_;
    }
    if (pos_ == start) {
      return Fail("expected a value");
    }
    std::string digits(text_.substr(start, pos_ - start));
    char* end = nullptr;
    double value = strtod(digits.c_str(), &end);
    if (end != digits.c_str() + digits.size()) {
      return Fail("malformed number");
    }
    JsonValue out;
    out.kind = JsonValue::Kind::kNumber;
    out.number = value;
    return out;
  }

  Result<JsonValue> ParseString() {
    ++pos_;  // opening quote
    JsonValue out;
    out.kind = JsonValue::Kind::kString;
    while (pos_ < text_.size() && text_[pos_] != '"') {
      char c = text_[pos_++];
      if (c != '\\') {
        out.string += c;
        continue;
      }
      if (pos_ >= text_.size()) {
        return Fail("truncated escape");
      }
      char esc = text_[pos_++];
      switch (esc) {
        case '"':
        case '\\':
        case '/':
          out.string += esc;
          break;
        case 'n':
          out.string += '\n';
          break;
        case 't':
          out.string += '\t';
          break;
        case 'r':
          out.string += '\r';
          break;
        case 'b':
          out.string += '\b';
          break;
        case 'f':
          out.string += '\f';
          break;
        case 'u': {
          if (pos_ + 4 > text_.size()) {
            return Fail("truncated \\u escape");
          }
          unsigned code = 0;
          for (int i = 0; i < 4; ++i) {
            char h = text_[pos_++];
            code <<= 4;
            if (h >= '0' && h <= '9') {
              code |= static_cast<unsigned>(h - '0');
            } else if (h >= 'a' && h <= 'f') {
              code |= static_cast<unsigned>(h - 'a' + 10);
            } else if (h >= 'A' && h <= 'F') {
              code |= static_cast<unsigned>(h - 'A' + 10);
            } else {
              return Fail("bad \\u escape");
            }
          }
          // Control-plane strings are ASCII; wider code points round-trip
          // as '?' which is fine for validation purposes.
          out.string += code < 0x80 ? static_cast<char>(code) : '?';
          break;
        }
        default:
          return Fail("unknown escape");
      }
    }
    if (pos_ >= text_.size()) {
      return Fail("unterminated string");
    }
    ++pos_;  // closing quote
    return out;
  }

  Result<JsonValue> ParseArray() {
    ++pos_;  // '['
    JsonValue out;
    out.kind = JsonValue::Kind::kArray;
    SkipWhitespace();
    if (Consume(']')) {
      return out;
    }
    while (true) {
      DEPSURF_ASSIGN_OR_RETURN(element, ParseValue());
      out.array.push_back(std::move(element));
      if (Consume(',')) {
        continue;
      }
      if (Consume(']')) {
        return out;
      }
      return Fail("expected ',' or ']'");
    }
  }

  Result<JsonValue> ParseObject() {
    ++pos_;  // '{'
    JsonValue out;
    out.kind = JsonValue::Kind::kObject;
    SkipWhitespace();
    if (Consume('}')) {
      return out;
    }
    while (true) {
      SkipWhitespace();
      if (pos_ >= text_.size() || text_[pos_] != '"') {
        return Fail("expected object key");
      }
      DEPSURF_ASSIGN_OR_RETURN(key, ParseString());
      if (!Consume(':')) {
        return Fail("expected ':'");
      }
      DEPSURF_ASSIGN_OR_RETURN(value, ParseValue());
      out.object.emplace_back(std::move(key.string), std::move(value));
      if (Consume(',')) {
        continue;
      }
      if (Consume('}')) {
        return out;
      }
      return Fail("expected ',' or '}'");
    }
  }

  std::string_view text_;
  size_t pos_ = 0;
  size_t depth_ = 0;  // open objects and arrays around pos_
};

size_t CountSpanNodesFrom(const JsonValue& span) {
  size_t n = 1;
  const JsonValue* children = span.Find("children");
  if (children != nullptr && children->kind == JsonValue::Kind::kArray) {
    for (const JsonValue& child : children->array) {
      n += CountSpanNodesFrom(child);
    }
  }
  return n;
}

void CollectSpanNamesFrom(const JsonValue& span, std::set<std::string>& out) {
  const JsonValue* name = span.Find("name");
  if (name != nullptr && name->kind == JsonValue::Kind::kString) {
    out.insert(name->string);
  }
  const JsonValue* children = span.Find("children");
  if (children != nullptr && children->kind == JsonValue::Kind::kArray) {
    for (const JsonValue& child : children->array) {
      CollectSpanNamesFrom(child, out);
    }
  }
}

}  // namespace

// Mirror of CompareSpanNodesMasked (span.h) over parsed span objects: name,
// then attrs with timing values ignored, then children recursively. Both
// orderings must agree so a masked-serialized report and a canonicalized
// unmasked report of the same run sort their roots identically.
int CompareReportSpans(const JsonValue& a, const JsonValue& b) {
  const JsonValue* a_name = a.Find("name");
  const JsonValue* b_name = b.Find("name");
  std::string_view an = a_name != nullptr ? std::string_view(a_name->string) : std::string_view();
  std::string_view bn = b_name != nullptr ? std::string_view(b_name->string) : std::string_view();
  if (int c = an.compare(bn); c != 0) {
    return c;
  }
  const JsonValue* a_attrs = a.Find("attrs");
  const JsonValue* b_attrs = b.Find("attrs");
  size_t a_n = a_attrs != nullptr ? a_attrs->object.size() : 0;
  size_t b_n = b_attrs != nullptr ? b_attrs->object.size() : 0;
  for (size_t i = 0; i < std::min(a_n, b_n); ++i) {
    const auto& [ak, av] = a_attrs->object[i];
    const auto& [bk, bv] = b_attrs->object[i];
    if (int c = ak.compare(bk); c != 0) {
      return c;
    }
    if (!IsTimingMetricName(ak)) {
      if (int c = av.string.compare(bv.string); c != 0) {
        return c;
      }
    }
  }
  if (a_n != b_n) {
    return a_n < b_n ? -1 : 1;
  }
  const JsonValue* a_kids = a.Find("children");
  const JsonValue* b_kids = b.Find("children");
  size_t a_k = a_kids != nullptr ? a_kids->array.size() : 0;
  size_t b_k = b_kids != nullptr ? b_kids->array.size() : 0;
  for (size_t i = 0; i < std::min(a_k, b_k); ++i) {
    if (int c = CompareReportSpans(a_kids->array[i], b_kids->array[i]); c != 0) {
      return c;
    }
  }
  if (a_k != b_k) {
    return a_k < b_k ? -1 : 1;
  }
  return 0;
}

namespace {

std::string CanonicalNumber(double v) {
  if (std::floor(v) == v && std::fabs(v) < 9.0e15) {
    return StrFormat("%lld", (long long)v);
  }
  return StrFormat("%.17g", v);
}

// Zeroes a value in place of a timing field: numbers become 0, strings "0",
// arrays empty, objects keep their keys with every member zeroed.
void AppendMaskedValue(std::string& out, const JsonValue& value) {
  switch (value.kind) {
    case JsonValue::Kind::kNumber:
      out += "0";
      break;
    case JsonValue::Kind::kString:
      out += "\"0\"";
      break;
    case JsonValue::Kind::kArray:
      out += "[]";
      break;
    case JsonValue::Kind::kObject: {
      out += "{";
      for (size_t i = 0; i < value.object.size(); ++i) {
        if (i != 0) {
          out += ",";
        }
        out += "\"" + JsonEscape(value.object[i].first) + "\":";
        AppendMaskedValue(out, value.object[i].second);
      }
      out += "}";
      break;
    }
    case JsonValue::Kind::kBool:
      out += value.boolean ? "true" : "false";
      break;
    case JsonValue::Kind::kNull:
      out += "null";
      break;
  }
}

void AppendCanonical(std::string& out, const JsonValue& value) {
  switch (value.kind) {
    case JsonValue::Kind::kNull:
      out += "null";
      break;
    case JsonValue::Kind::kBool:
      out += value.boolean ? "true" : "false";
      break;
    case JsonValue::Kind::kNumber:
      out += CanonicalNumber(value.number);
      break;
    case JsonValue::Kind::kString:
      out += "\"" + JsonEscape(value.string) + "\"";
      break;
    case JsonValue::Kind::kArray:
      out += "[";
      for (size_t i = 0; i < value.array.size(); ++i) {
        if (i != 0) {
          out += ",";
        }
        AppendCanonical(out, value.array[i]);
      }
      out += "]";
      break;
    case JsonValue::Kind::kObject:
      out += "{";
      for (size_t i = 0; i < value.object.size(); ++i) {
        if (i != 0) {
          out += ",";
        }
        const auto& [key, member] = value.object[i];
        out += "\"" + JsonEscape(key) + "\":";
        // Beyond timing-suffixed keys: span alloc fields depend on the
        // allocator and on whether the hooks were compiled in; a profile's
        // serial-share percentage, critical_path steps, and executor
        // section are all timing-derived (the executor window also varies
        // with --jobs), so they mask wholesale.
        // top_movers (profile_diff.v1) is selected and ordered by timing
        // deltas, so like critical_path it masks wholesale.
        if (key == "dur_ns" || key == "alloc_count" || key == "alloc_bytes" ||
            key == "serial_share_pct" || key == "critical_path" || key == "executor" ||
            key == "top_movers" || IsTimingMetricName(key)) {
          AppendMaskedValue(out, member);
        } else {
          AppendCanonical(out, member);
        }
      }
      out += "}";
      break;
  }
}

}  // namespace

const JsonValue* JsonValue::Find(std::string_view key) const {
  if (kind != Kind::kObject) {
    return nullptr;
  }
  for (const auto& [k, v] : object) {
    if (k == key) {
      return &v;
    }
  }
  return nullptr;
}

Result<JsonValue> ParseJson(std::string_view text) { return Parser(text).Parse(); }

Status ForEachJsonLine(std::string_view text,
                       const std::function<Status(const JsonValue&)>& each) {
  size_t line_no = 0;
  size_t pos = 0;
  while (pos <= text.size()) {
    size_t end = text.find('\n', pos);
    if (end == std::string_view::npos) {
      end = text.size();
    }
    ++line_no;
    std::string_view line = text.substr(pos, end - pos);
    pos = end + 1;
    if (line.find_first_not_of(" \t\r") == std::string_view::npos) {
      continue;
    }
    auto parsed = ParseJson(line);
    Status status = parsed.ok() ? each(*parsed) : Status(parsed.TakeError());
    if (!status.ok()) {
      return Status(ErrorCode::kMalformedData,
                    StrFormat("line %zu: %s", line_no, status.error().message().c_str()));
    }
  }
  return Status::Ok();
}

std::vector<std::string> RunReportLintNotes(const JsonValue& report) {
  // Gauges renamed across schema revisions: old documents still lint clean,
  // but readers should know which name current builds emit.
  static constexpr struct {
    const char* name;
    const char* replacement;
    const char* why;
  } kDeprecatedGauges[] = {
      {"study.build_dataset.cpu_ms", "study.build_dataset.cpu_total_ms",
       "process CPU is summed across worker threads"},
  };
  std::vector<std::string> notes;
  const JsonValue* gauges = report.Find("gauges");
  if (gauges == nullptr || gauges->kind != JsonValue::Kind::kObject) {
    return notes;
  }
  for (const auto& gauge : kDeprecatedGauges) {
    if (gauges->Find(gauge.name) != nullptr) {
      notes.push_back(StrFormat("deprecated gauge %s: %s; current builds emit %s",
                                gauge.name, gauge.why, gauge.replacement));
    }
  }
  return notes;
}

std::set<std::string> CollectSpanNames(const JsonValue& report) {
  std::set<std::string> names;
  const JsonValue* spans = report.Find("spans");
  if (spans != nullptr && spans->kind == JsonValue::Kind::kArray) {
    for (const JsonValue& span : spans->array) {
      CollectSpanNamesFrom(span, names);
    }
  }
  return names;
}

size_t CountReportSpanNodes(const JsonValue& report) {
  size_t n = 0;
  const JsonValue* spans = report.Find("spans");
  if (spans != nullptr && spans->kind == JsonValue::Kind::kArray) {
    for (const JsonValue& span : spans->array) {
      n += CountSpanNodesFrom(span);
    }
  }
  return n;
}

std::string CanonicalMaskedJson(const JsonValue& value) {
  const JsonValue* schema = value.Find("schema");
  if (schema != nullptr && schema->kind == JsonValue::Kind::kString &&
      (schema->string == kRunReportSchema || schema->string == kRunReportAggSchema)) {
    JsonValue sorted = value;
    for (auto& [key, member] : sorted.object) {
      if (key == "spans" && member.kind == JsonValue::Kind::kArray) {
        std::sort(member.array.begin(), member.array.end(),
                  [](const JsonValue& a, const JsonValue& b) {
                    return CompareReportSpans(a, b) < 0;
                  });
      }
    }
    std::string out;
    AppendCanonical(out, sorted);
    out += "\n";
    return out;
  }
  std::string out;
  AppendCanonical(out, value);
  out += "\n";
  return out;
}

}  // namespace obs
}  // namespace depsurf
