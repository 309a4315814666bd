// Minimal parser for the JSONL rows this repo itself emits (JsonObject
// serialization): flat objects whose values are numbers, strings, booleans,
// null, arrays of numbers/nulls, and one level of nested object ("params").
//
// This is NOT a general JSON parser — it exists so `--resume` can read the
// result and trace rows of a previous run back into memory without an
// external dependency. Field order is preserved, because TraceRow
// reconstruction and metric-sample ordering both depend on encounter order.
// Numbers round-trip exactly: JsonObject prints %.17g and strtod parses it
// back to the identical double, which is what makes a resumed run's report
// byte-identical to an uninterrupted one.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

namespace cebinae::exp {

struct JsonField {
  enum class Kind { kNumber, kString, kBool, kNull, kArray, kObject };
  Kind kind = Kind::kNull;
  double num = 0.0;              // kNumber; NaN for kNull
  bool is_uint = false;          // kNumber whose token was a bare integer...
  std::uint64_t uint = 0;        // ...kept exactly (doubles drop bits > 2^53)
  bool b = false;                // kBool
  std::string str;               // kString (unescaped) / kObject (raw text)
  std::vector<double> arr;       // kArray; null elements parse as NaN
};

class ParsedRow {
 public:
  std::vector<std::pair<std::string, JsonField>> fields;

  [[nodiscard]] const JsonField* find(std::string_view name) const;
  // Typed accessors with fallbacks for absent/mistyped fields; num() reads
  // null as NaN, the value JsonObject serialized as null.
  [[nodiscard]] double num(std::string_view name, double dflt = 0.0) const;
  [[nodiscard]] std::uint64_t u64(std::string_view name, std::uint64_t dflt = 0) const;
  [[nodiscard]] std::string str(std::string_view name) const;
  [[nodiscard]] const std::vector<double>* arr(std::string_view name) const;
};

// Parse one JSONL line. Returns nullopt for anything malformed or truncated.
[[nodiscard]] std::optional<ParsedRow> parse_row(std::string_view line);

}  // namespace cebinae::exp
