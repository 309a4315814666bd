#include "exp/jsonl_writer.hpp"

#include <fcntl.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>
#include <iostream>
#include <stdexcept>

namespace cebinae::exp {

JsonlWriter::JsonlWriter(std::string path, std::uint64_t keep_bytes) : path_(std::move(path)) {
  if (path_.empty()) return;
  if (path_ == "-") {
    out_ = &std::cout;
    return;
  }
  const int flags = O_WRONLY | O_CREAT | O_APPEND | O_CLOEXEC | (keep_bytes == 0 ? O_TRUNC : 0);
  fd_ = ::open(path_.c_str(), flags, 0644);
  if (fd_ < 0 || (keep_bytes > 0 && ::ftruncate(fd_, static_cast<off_t>(keep_bytes)) != 0)) {
    const std::string why = std::strerror(errno);
    if (fd_ >= 0) ::close(fd_);
    throw std::runtime_error("JsonlWriter: cannot open " + path_ + ": " + why);
  }
}

JsonlWriter::~JsonlWriter() {
  if (out_) out_->flush();
  if (fd_ >= 0) ::close(fd_);
}

void JsonlWriter::write(const JsonObject& row) {
  if (!enabled()) return;
  const std::string line = row.str();
  std::lock_guard<std::mutex> lock(mu_);
  if (out_ != nullptr) {
    *out_ << line << '\n';
    out_->flush();
    if (!*out_) throw std::runtime_error("JsonlWriter: write to stdout failed");
  } else {
    // One write(2) per row, then fsync: a crash truncates at most the final
    // line, and every acknowledged row survives the process. `--resume`
    // treats a row on disk as a committed job, so the row must be durable
    // before the next one is written.
    std::string buf;
    buf.reserve(line.size() + 1);
    buf.append(line);
    buf.push_back('\n');
    std::size_t off = 0;
    while (off < buf.size()) {
      const ssize_t n = ::write(fd_, buf.data() + off, buf.size() - off);
      if (n < 0) {
        if (errno == EINTR) continue;
        throw std::runtime_error("JsonlWriter: write to " + path_ + " failed: " +
                                 std::strerror(errno));
      }
      off += static_cast<std::size_t>(n);
    }
    // EINVAL/EROFS: the target cannot be synced (/dev/null, a pipe), so
    // there is nothing to make durable. Any other error may have lost the row.
    if (::fsync(fd_) != 0 && errno != EINVAL && errno != EROFS) {
      throw std::runtime_error("JsonlWriter: fsync of " + path_ + " failed: " +
                               std::strerror(errno));
    }
  }
}

}  // namespace cebinae::exp
