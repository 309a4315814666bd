// Structured results: one JSON object per line (JSONL), streamed to a file.
//
// JsonObject is a tiny insertion-ordered builder — enough JSON for flat
// result rows (scalars, strings, and arrays of numbers), with no external
// dependency. Doubles are printed with %.17g so a row round-trips
// bit-identically; that is what lets determinism tests diff JSONL output
// from runs with different thread counts.
//
// JsonlWriter serializes whole rows under a mutex, so worker threads can
// write results as they complete without interleaving partial lines.
//
// Durability contract: file-backed writers write each row with a single
// write(2) and fsync after it, so a crashed or SIGKILLed process leaves at
// most one torn FINAL line and every earlier row is on disk. `--resume`
// (exp::load_resume_prefix) relies on exactly that shape: it keeps the
// committed rows and cuts the torn line off before appending.
#pragma once

#include <cstdint>
#include <mutex>
#include <ostream>
#include <string>
#include <string_view>
#include <vector>

namespace cebinae::exp {

class JsonObject {
 public:
  JsonObject& set(std::string_view key, double v);
  JsonObject& set(std::string_view key, std::uint64_t v);
  JsonObject& set(std::string_view key, std::int64_t v);
  JsonObject& set(std::string_view key, int v) { return set(key, static_cast<std::int64_t>(v)); }
  JsonObject& set(std::string_view key, bool v);
  JsonObject& set(std::string_view key, std::string_view v);
  JsonObject& set(std::string_view key, const char* v) { return set(key, std::string_view(v)); }
  JsonObject& set(std::string_view key, const std::vector<double>& v);

  // Nest a pre-built object (e.g. the sweep-point parameter echo).
  JsonObject& set(std::string_view key, const JsonObject& v);

  [[nodiscard]] bool empty() const { return body_.empty(); }
  [[nodiscard]] std::string str() const { return "{" + body_ + "}"; }

 private:
  void key(std::string_view k);

  std::string body_;  // comma-joined "key":value pairs, insertion order
};

// Escape `s` as a JSON string literal (including the quotes).
[[nodiscard]] std::string json_escape(std::string_view s);

// Format a double exactly (%.17g, with non-finite values as null).
[[nodiscard]] std::string json_number(double v);

class JsonlWriter {
 public:
  // Empty path disables the writer (write() becomes a no-op); "-" streams to
  // stdout. A file keeps its first `keep_bytes` bytes (a resumed run's
  // committed rows) and the rest is truncated; rows are appended after them.
  // Throws std::runtime_error if the file cannot be opened.
  explicit JsonlWriter(std::string path, std::uint64_t keep_bytes = 0);
  ~JsonlWriter();

  JsonlWriter(const JsonlWriter&) = delete;
  JsonlWriter& operator=(const JsonlWriter&) = delete;

  [[nodiscard]] bool enabled() const { return out_ != nullptr || fd_ >= 0; }
  [[nodiscard]] const std::string& path() const { return path_; }
  [[nodiscard]] std::size_t rows_written() const;

  void write(const JsonObject& row);

 private:

  std::string path_;
  mutable std::mutex mu_;
  std::ostream* out_ = nullptr;  // stdout ("-"); files go through fd_
  int fd_ = -1;                  // owned POSIX fd for file paths
  std::size_t rows_ = 0;
};

}  // namespace cebinae::exp
