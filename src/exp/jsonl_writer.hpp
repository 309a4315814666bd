// Structured results: one JSON object per line (JSONL), streamed to a file.
// The rows are exp::JsonObject (json_row.hpp); doubles print as %.17g, so
// determinism tests can diff JSONL output from runs with different thread
// counts.
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

#include "exp/json_row.hpp"

namespace cebinae::exp {

class JsonlWriter {
 public:
  // Empty path disables the writer (write() becomes a no-op); "-" streams to
  // stdout. A file keeps its first `keep_bytes` bytes (a resumed run's
  // committed rows) and the rest is truncated; rows are appended after them.
  // Throws std::runtime_error if the file cannot be opened; write() throws
  // if a row cannot be written (to a file or to stdout).
  explicit JsonlWriter(std::string path, std::uint64_t keep_bytes = 0);
  ~JsonlWriter();

  JsonlWriter(const JsonlWriter&) = delete;
  JsonlWriter& operator=(const JsonlWriter&) = delete;

  [[nodiscard]] bool enabled() const { return out_ != nullptr || fd_ >= 0; }

  void write(const JsonObject& row);

 private:
  std::string path_;
  std::mutex mu_;
  std::ostream* out_ = nullptr;  // stdout ("-"); files go through fd_
  int fd_ = -1;                  // owned POSIX fd for file paths
};

}  // namespace cebinae::exp
