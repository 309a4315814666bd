// Minimal leveled logger for the simulator.
//
// Logging is off by default (benches and tests stay quiet); examples enable
// it to narrate what the network is doing.
//
// Thread-safety contract (relied on by the src/exp experiment harness):
// the simulator itself is single-threaded, but the harness runs one
// independent Scenario per worker thread. Everything a Scenario touches is
// owned by its Network (scheduler, RNG, nodes) or is per-thread: the packet
// slab (net/packet_slab.hpp) is one per thread, looked up at use time, so a
// Network must be built, run and destroyed on one thread. The ONLY
// process-global mutable state in the simulator is this logger's level. The
// level is therefore an atomic (set_level/level may race benignly with
// readers), and log() serializes whole lines under an internal mutex so
// concurrent scenarios cannot interleave output. Running one Scenario per
// thread is safe; sharing a Scenario/Network across threads, or handing one
// to another thread, is not.
#pragma once

#include <atomic>
#include <iostream>
#include <sstream>
#include <string_view>

namespace cebinae {

enum class LogLevel { kDebug = 0, kInfo = 1, kWarn = 2, kError = 3, kOff = 4 };

class Logger {
 public:
  static LogLevel level() { return g_level.load(std::memory_order_relaxed); }
  static void set_level(LogLevel level) { g_level.store(level, std::memory_order_relaxed); }
  static void log(LogLevel level, std::string_view component, std::string_view message);

  static bool enabled(LogLevel lvl) { return lvl >= level(); }

 private:
  static std::atomic<LogLevel> g_level;
};

}  // namespace cebinae

// Compile-time log floor: levels below CEBINAE_MIN_LOG_LEVEL are discarded by
// `if constexpr`, so the stream expression is never materialized and the call
// site compiles to nothing. The default (0 = kDebug) keeps every level; build
// with -DCEBINAE_MIN_LOG_LEVEL=2 (see the CMake cache variable of the same
// name) to strip debug/info sites from hot-path builds entirely. Levels at or
// above the floor still pay exactly one relaxed atomic load and a predicted
// branch when disabled at runtime — [[unlikely]] keeps the formatting code off
// the fall-through path.
#ifndef CEBINAE_MIN_LOG_LEVEL
#define CEBINAE_MIN_LOG_LEVEL 0
#endif

#define CEBINAE_LOG(lvl, component, expr)                                  \
  do {                                                                     \
    if constexpr (static_cast<int>(lvl) >= CEBINAE_MIN_LOG_LEVEL) {        \
      if (::cebinae::Logger::enabled(lvl)) [[unlikely]] {                  \
        std::ostringstream cebinae_log_oss_;                               \
        cebinae_log_oss_ << expr;                                          \
        ::cebinae::Logger::log(lvl, component, cebinae_log_oss_.str());    \
      }                                                                    \
    }                                                                      \
  } while (0)

#define CEBINAE_DEBUG(component, expr) CEBINAE_LOG(::cebinae::LogLevel::kDebug, component, expr)
#define CEBINAE_INFO(component, expr) CEBINAE_LOG(::cebinae::LogLevel::kInfo, component, expr)
#define CEBINAE_WARN(component, expr) CEBINAE_LOG(::cebinae::LogLevel::kWarn, component, expr)
