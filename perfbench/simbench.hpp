// Shared pieces of the simbench program: the workload table, the
// deterministic outcome each run is checked against, and a one-line JSON
// writer for its output.
#pragma once

#include <cinttypes>
#include <cstdint>
#include <cstdio>
#include <string>
#include <string_view>
#include <vector>

#include "runner/scenario.hpp"

namespace perfbench {

struct CcaGroup {
  cebinae::CcaType cca;
  int count;
};

// One table2 row under one queue discipline, configured the way the table2
// experiment configures it: ScenarioConfig defaults plus the row's link,
// buffer and CCA mix.
struct Workload {
  std::string_view name;
  std::uint64_t bps;
  double rtt_ms;
  std::uint64_t buf_mtu;
  std::vector<CcaGroup> groups;
  cebinae::QdiscKind qdisc;
  cebinae::Time duration;  // simulated time of one run
};

inline const std::vector<Workload>& workloads() {
  using cebinae::CcaType;
  using cebinae::QdiscKind;
  using cebinae::Seconds;
  // table2 rows r16 (fig08(a)), r10 and r12; see README.md for why each.
  // r16 runs the first 6 s of its 12-s job: already SACK-bound, and short
  // enough for several repetitions per benchmark run.
  static const std::vector<Workload> kAll = {
      {"bbr_sack_fifo", 1'000'000'000, 100, 8350,
       {{CcaType::kNewReno, 128}, {CcaType::kBbr, 2}}, QdiscKind::kFifo, Seconds(6)},
      {"reno_cubic_cebinae", 1'000'000'000, 5, 420,
       {{CcaType::kNewReno, 32}, {CcaType::kCubic, 8}}, QdiscKind::kCebinae, Seconds(12)},
      {"vegas1k_fq", 1'000'000'000, 10, 850,
       {{CcaType::kVegas, 1024}, {CcaType::kCubic, 2}}, QdiscKind::kFqCoDel, Seconds(8)},
  };
  return kAll;
}

inline const Workload* find_workload(std::string_view name) {
  for (const Workload& w : workloads()) {
    if (w.name == name) return &w;
  }
  return nullptr;
}

inline cebinae::ScenarioConfig make_config(const Workload& w, std::uint64_t seed,
                                           cebinae::Time duration) {
  cebinae::ScenarioConfig cfg;
  cfg.bottleneck_bps = w.bps;
  cfg.buffer_bytes = w.buf_mtu * cebinae::kMtuBytes;
  cfg.qdisc = w.qdisc;
  cfg.duration = duration;
  cfg.seed = seed;
  for (const CcaGroup& g : w.groups) {
    for (int i = 0; i < g.count; ++i) {
      cebinae::FlowSpec f;
      f.cca = g.cca;
      f.rtt = cebinae::MillisecondsF(w.rtt_ms);
      cfg.flows.push_back(f);
    }
  }
  return cfg;
}

// Flat JSON object builder; keys are emitted in insertion order.
class JsonLine {
 public:
  JsonLine& num(std::string_view key, double v) {
    char buf[32];
    std::snprintf(buf, sizeof buf, "%.17g", v);
    return raw(key, buf);
  }
  JsonLine& num(std::string_view key, std::uint64_t v) {
    char buf[32];
    std::snprintf(buf, sizeof buf, "%" PRIu64, v);
    return raw(key, buf);
  }
  JsonLine& str(std::string_view key, std::string_view v) {
    std::string quoted = "\"";
    for (char c : v) {
      if (c == '"' || c == '\\') quoted += '\\';
      quoted += c;
    }
    return raw(key, quoted + "\"");
  }
  JsonLine& list(std::string_view key, const std::vector<double>& vs) {
    std::string s = "[";
    for (std::size_t i = 0; i < vs.size(); ++i) {
      char buf[32];
      std::snprintf(buf, sizeof buf, "%s%.17g", i ? "," : "", vs[i]);
      s += buf;
    }
    return raw(key, s + "]");
  }
  JsonLine& raw(std::string_view key, std::string_view json) {
    body_ += body_.empty() ? "{\"" : ",\"";
    body_ += key;
    body_ += "\":";
    body_ += json;
    return *this;
  }
  [[nodiscard]] std::string done() const { return body_.empty() ? "{}" : body_ + "}"; }

 private:
  std::string body_;
};

// What a run must reproduce exactly, for a given workload, seed and
// duration. Per-flow delivered bytes enter as a digest plus their total.
struct Outcome {
  std::uint64_t events = 0;
  std::uint64_t flows = 0;
  std::uint64_t delivered_bytes = 0;
  std::uint64_t delivered_fnv1a = 0xcbf29ce484222325ull;
  std::uint64_t enqueued = 0;  // bottleneck qdisc admissions
  std::uint64_t dropped = 0;   // bottleneck qdisc drops
  double jfi = 0.0;

  void add_flow(std::uint64_t bytes) {
    ++flows;
    delivered_bytes += bytes;
    for (int i = 0; i < 8; ++i) {
      delivered_fnv1a ^= (bytes >> (8 * i)) & 0xff;
      delivered_fnv1a *= 0x100000001b3ull;
    }
  }

  [[nodiscard]] std::string json() const {
    char digest[17];
    std::snprintf(digest, sizeof digest, "%016" PRIx64, delivered_fnv1a);
    char jfi_text[32];
    std::snprintf(jfi_text, sizeof jfi_text, "%.17g", jfi);
    return JsonLine()
        .num("events", events)
        .num("flows", flows)
        .num("delivered_bytes", delivered_bytes)
        .str("delivered_fnv1a", digest)
        .num("enqueued", enqueued)
        .num("dropped", dropped)
        .str("jfi", jfi_text)
        .done();
  }
};

// The traced run (traced.cpp): rebuilds `cfg` from the public layer APIs,
// times each layer boundary, and prints one JSON line.
int run_traced(const cebinae::ScenarioConfig& cfg);

}  // namespace perfbench
