// JsonObject: one JSONL row — a job's result row, or an object nested in
// one, such as the sweep-point `params` echo or a tick of its `trace` list.
//
// It is the one shape a row has: a job builds it with set(), the writers
// serialize it with str(), `--resume` parses it back from disk with
// parse(), and reporters read it by name (num, u64, text, arr, obj, list) — the
// same calls whether the row was just produced or read back, which is what
// makes a resumed report equal an uninterrupted one.
//
// Fields keep insertion order and the type they were set with, so a row
// prints back byte for byte: doubles as %.17g (which round-trips exactly),
// non-negative integers exactly (64-bit seeds do not fit a double), strings
// with JSON escapes. A negative integer token reads back as a double. JSON
// has no infinity: set() stores a non-finite double as NaN, which is
// written as null and read back as NaN, so a row reads the same before and
// after a round trip.
#pragma once

#include <cassert>
#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <utility>
#include <variant>
#include <vector>

namespace cebinae::exp {

class JsonObject {
 public:
  using Value = std::variant<double, std::uint64_t, std::string, std::vector<double>,
                             std::shared_ptr<const JsonObject>,
                             std::shared_ptr<const std::vector<JsonObject>>>;
  using Field = std::pair<std::string, Value>;

  JsonObject& set(std::string_view key, double v);
  JsonObject& set(std::string_view key, std::uint64_t v);
  // Every integer a row holds (a count, an index, a trial) is >= 0.
  JsonObject& set(std::string_view key, int v) {
    assert(v >= 0);
    return set(key, static_cast<std::uint64_t>(v));
  }
  // No row holds a bool; deleted so that a bool does not become an integer.
  JsonObject& set(std::string_view key, bool v) = delete;
  JsonObject& set(std::string_view key, std::string_view v);
  JsonObject& set(std::string_view key, const char* v) { return set(key, std::string_view(v)); }
  JsonObject& set(std::string_view key, std::vector<double> v);
  // Nest an object (e.g. the sweep-point parameter echo).
  JsonObject& set(std::string_view key, const JsonObject& v);
  // Nest a list of objects (e.g. a traced job's time series).
  JsonObject& set(std::string_view key, std::vector<JsonObject> v);
  // Append every field of `other`, in its order.
  JsonObject& append(const JsonObject& other);

  [[nodiscard]] bool empty() const { return fields_.empty(); }
  [[nodiscard]] const std::vector<Field>& fields() const { return fields_; }
  [[nodiscard]] std::string str() const;

  // Lookups by name (the first field of that name). Numbers read the same
  // whichever numeric type holds them.
  [[nodiscard]] const Value* find(std::string_view key) const;
  // NaN when absent or not a number (null reads as NaN, as it was written).
  [[nodiscard]] double num(std::string_view key) const;
  // `dflt` when absent or not a number in [0, 2^64).
  [[nodiscard]] std::uint64_t u64(std::string_view key, std::uint64_t dflt = 0) const;
  // Empty when absent or not a string / an array.
  [[nodiscard]] std::string_view text(std::string_view key) const;
  [[nodiscard]] const std::vector<double>& arr(std::string_view key) const;
  // Null when absent or not an object.
  [[nodiscard]] const JsonObject* obj(std::string_view key) const;
  // Empty when absent or not a list of objects.
  [[nodiscard]] const std::vector<JsonObject>& list(std::string_view key) const;

  // A numeric value as a double; nothing for strings, arrays, objects and
  // lists.
  [[nodiscard]] static std::optional<double> number(const Value& v);
  // One value as str() writes it.
  [[nodiscard]] static std::string str(const Value& v);

  // How a line parsed. A line that ends before its row does is kTruncated:
  // every prefix of a row is, which is all a killed writer can leave. A
  // byte the grammar does not allow (or any byte after the closing brace)
  // makes it kMalformed.
  enum class Parse { kOk, kTruncated, kMalformed };
  // Parse one line; on kOk it replaces `out`, and out.str() == line for
  // every line str() wrote.
  [[nodiscard]] static Parse parse(std::string_view line, JsonObject& out);

 private:
  std::vector<Field> fields_;
};

// One numeric field of each row (NaN where a row lacks it): a time series
// from a job's trace list.
[[nodiscard]] std::vector<double> series_of(const std::vector<JsonObject>& rows,
                                            std::string_view key);

}  // namespace cebinae::exp
