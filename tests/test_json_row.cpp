// exp::JsonObject, the one row type: building and serializing rows, the
// parser (exact round trips, and truncated lines told apart from malformed
// ones), lookups by name, and the rows a real ExperimentRunner batch
// writes — each parses back to its own bytes, trace list included, and reads
// the same as the row it was written from — and every committed golden row,
// which parses back to its own bytes too.
#include "exp/json_row.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <limits>
#include <string>
#include <vector>

#include "exp/experiment.hpp"
#include "exp/registry.hpp"
#include "exp/report.hpp"

namespace cebinae::exp {
namespace {

using Parse = JsonObject::Parse;

constexpr double kInf = std::numeric_limits<double>::infinity();

// A row holds no bool: set("x", true) does not compile rather than store an
// int64.
template <typename V>
concept Settable = requires(JsonObject o, V v) { o.set("x", v); };
static_assert(Settable<int> && Settable<double> && !Settable<bool>);

JsonObject parsed(const std::string& line) {
  JsonObject row;
  EXPECT_EQ(JsonObject::parse(line, row), Parse::kOk) << line;
  return row;
}

bool same_number(double a, double b) { return a == b || (std::isnan(a) && std::isnan(b)); }

bool same_array(const std::vector<double>& a, const std::vector<double>& b) {
  if (a.size() != b.size()) return false;
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (!same_number(a[i], b[i])) return false;
  }
  return true;
}

// Every field of `fresh` reads the same from `back`, by every lookup.
void expect_same_reads(const JsonObject& fresh, const JsonObject& back) {
  ASSERT_EQ(fresh.fields().size(), back.fields().size());
  for (std::size_t i = 0; i < fresh.fields().size(); ++i) {
    const std::string& name = fresh.fields()[i].first;
    SCOPED_TRACE(name);
    EXPECT_EQ(back.fields()[i].first, name);
    EXPECT_TRUE(same_number(fresh.num(name), back.num(name)));
    EXPECT_EQ(fresh.u64(name, 7), back.u64(name, 7));
    EXPECT_EQ(fresh.text(name), back.text(name));
    EXPECT_TRUE(same_array(fresh.arr(name), back.arr(name)));
    ASSERT_EQ(fresh.obj(name) == nullptr, back.obj(name) == nullptr);
    if (fresh.obj(name) != nullptr) expect_same_reads(*fresh.obj(name), *back.obj(name));
    ASSERT_EQ(fresh.list(name).size(), back.list(name).size());
    for (std::size_t k = 0; k < fresh.list(name).size(); ++k) {
      expect_same_reads(fresh.list(name)[k], back.list(name)[k]);
    }
  }
}

// ---- building and serializing ----------------------------------------------

TEST(TraceRow, AccessorsAndAbsenceSentinels) {
  JsonObject row;
  row.set("t_s", 3.5).set("jfi", 0.75).set("tput_Bps", std::vector<double>{100.0, 200.0});
  EXPECT_DOUBLE_EQ(row.num("t_s"), 3.5);
  EXPECT_DOUBLE_EQ(row.num("jfi"), 0.75);
  EXPECT_TRUE(std::isnan(row.num("absent")));
  EXPECT_TRUE(std::isnan(row.num("tput_Bps")));  // an array is not a number
  EXPECT_EQ(row.arr("tput_Bps").size(), 2u);
  EXPECT_TRUE(row.arr("absent").empty());
  EXPECT_EQ(row.find("absent"), nullptr);
  EXPECT_EQ(row.text("jfi"), "");
  EXPECT_EQ(row.obj("jfi"), nullptr);
  EXPECT_TRUE(row.list("tput_Bps").empty());  // an array of numbers is not a list
  EXPECT_TRUE(row.list("absent").empty());
  EXPECT_EQ(row.u64("absent", 9), 9u);
}

TEST(TraceRow, SerializesExactlyInInsertionOrder) {
  JsonObject row;
  row.set("t_s", 2.0).set("jfi", 0.5).set("drops", 3.0);
  row.set("tput_Bps", std::vector<double>{1.0, 0.25});
  // %.17g-exact numbers in set() order — the byte-stable schema the
  // determinism tests diff.
  EXPECT_EQ(row.str(), R"({"t_s":2,"jfi":0.5,"drops":3,"tput_Bps":[1,0.25]})");
  JsonObject context;
  context.set("label", "x").set("job_index", std::uint64_t{4});
  EXPECT_EQ(context.append(row).str(),
            R"({"label":"x","job_index":4,"t_s":2,"jfi":0.5,"drops":3,"tput_Bps":[1,0.25]})");
  // A list of objects nests each element as it serializes alone.
  JsonObject tick;
  tick.set("t_s", 3.0);
  JsonObject job;
  job.set("jfi", 1.0).set("trace", std::vector<JsonObject>{row, tick});
  EXPECT_EQ(job.str(),
            R"({"jfi":1,"trace":[{"t_s":2,"jfi":0.5,"drops":3,"tput_Bps":[1,0.25]},{"t_s":3}]})");
  ASSERT_EQ(job.list("trace").size(), 2u);
  EXPECT_DOUBLE_EQ(job.list("trace")[1].num("t_s"), 3.0);
  EXPECT_TRUE(std::isnan(job.num("trace")));  // a list is not a number
}

TEST(TraceRow, SeriesOfExtractsOneScalarPerRow) {
  std::vector<JsonObject> rows;
  for (int i = 1; i <= 3; ++i) {
    JsonObject row;
    row.set("t_s", static_cast<double>(i)).set("jfi", 1.0 / i);
    row.set("tput_Bps", std::vector<double>{10.0 * i, 20.0 * i});
    rows.push_back(std::move(row));
  }
  const std::vector<double> jfi = series_of(rows, "jfi");
  ASSERT_EQ(jfi.size(), 3u);
  EXPECT_DOUBLE_EQ(jfi[0], 1.0);
  EXPECT_DOUBLE_EQ(jfi[1], 0.5);
  // Arrays and absent names read as NaN.
  EXPECT_TRUE(std::isnan(series_of(rows, "tput_Bps")[0]));
  EXPECT_TRUE(std::isnan(series_of(rows, "absent")[2]));
}

// ---- parser ------------------------------------------------------------------

TEST(RowParse, ParsesTheShapesJsonObjectEmits) {
  JsonObject params;
  params.set("qdisc", "Cebinae").set("trial", 2).set("rtt_ms", 0.5);
  JsonObject o;
  o.set("label", "qdisc=Cebinae trial=2");
  o.set("params", params);
  o.set("jfi", 0.98765432109876543);
  o.set("count", std::uint64_t{18446744073709551615ull});  // 2^64 - 1
  o.set("delta", -42.0);  // a negative integer token reads back as a double
  o.set("bad", std::nan(""));  // serialized as null
  o.set("goodput_Bps", std::vector<double>{1.5, 2.5e9, 0.0, kInf});
  o.set("empty", std::vector<double>{});
  o.set("trace", std::vector<JsonObject>{params, JsonObject().set("t_s", 1.5)});

  const std::string line = o.str();
  const JsonObject row = parsed(line);
  EXPECT_EQ(row.str(), line);
  EXPECT_EQ(row.text("label"), "qdisc=Cebinae trial=2");
  EXPECT_DOUBLE_EQ(row.num("jfi"), 0.98765432109876543);
  EXPECT_EQ(row.u64("count"), 18446744073709551615ull);
  EXPECT_TRUE(std::holds_alternative<double>(*row.find("delta")));
  EXPECT_EQ(row.num("delta"), -42.0);
  EXPECT_TRUE(std::isnan(row.num("bad")));
  ASSERT_EQ(row.arr("goodput_Bps").size(), 4u);
  EXPECT_EQ(row.arr("goodput_Bps")[1], 2.5e9);
  EXPECT_TRUE(std::isnan(row.arr("goodput_Bps")[3]));  // inf was written as null
  EXPECT_TRUE(row.arr("empty").empty());
  // The nested params echo parses as an object of its own.
  const JsonObject* p = row.obj("params");
  ASSERT_NE(p, nullptr);
  EXPECT_EQ(p->text("qdisc"), "Cebinae");
  EXPECT_EQ(p->u64("trial"), 2u);
  EXPECT_EQ(p->str(), params.str());
  // So does each element of a list of objects.
  ASSERT_EQ(row.list("trace").size(), 2u);
  EXPECT_EQ(row.list("trace")[0].str(), params.str());
  EXPECT_DOUBLE_EQ(row.list("trace")[1].num("t_s"), 1.5);
  expect_same_reads(o, row);
}

TEST(RowParse, ExactDoubleRoundTrip) {
  // The byte-identity contract: %.17g out, parse in, %.17g out again must
  // reproduce the identical bytes and the identical double.
  for (double v : {1.0 / 3.0, 0.1 + 0.2, 6.62607015e-34, 123456789.123456789, -0.0, -2.5,
                   5e-324, 1.7976931348623157e308, 9007199254740993.0, 1e17, 12.0}) {
    JsonObject o;
    o.set("v", v);
    const JsonObject row = parsed(o.str());
    EXPECT_EQ(row.str(), o.str());
    EXPECT_EQ(row.num("v"), v);
    EXPECT_EQ(std::signbit(row.num("v")), std::signbit(v));
  }
}

TEST(RowParse, RejectsMalformedAndTruncated) {
  JsonObject row;
  // Lines that end inside a row: what a killed writer leaves.
  for (const char* line :
       {"", "{", R"({"a":1)", R"({"a":[1,2)", R"({"a":"unterminated)", R"({"a":1,"b":)",
        R"({"a":nul)", R"({"a":1e)", R"({"a":-)", R"({"s":"\)", R"({"s":"\u00)",
        // A cut just after a nested '}' leaves a line that ends in '}'.
        R"({"a":1,"params":{"x":2})", R"({"label":"open{string)",
        R"({"trace":[{"t_s":1},)", R"({"trace":[{"t_s":1}])"}) {
    EXPECT_EQ(JsonObject::parse(line, row), Parse::kTruncated) << line;
  }
  // Lines that no prefix of a row can be.
  for (const char* line :
       {"not json", R"("a":1})", R"({"a":1}garbage)", R"({"a":1}})", R"({"a":x)",
        R"({"a":1,})", R"({"a":[1,]})", R"({"a":1 "b":2})", R"({"s":"\q"})", R"({"a":trux})",
        R"({"a":1.2.3})", R"({"s":"\u00zz"})", "{\"a\":1}\n",
        // A row holds no bool, so a bool literal cannot start a value.
        R"({"a":true})", R"({"a":false})", R"({"a":tr)",
        // A list holds numbers or objects, never both.
        R"({"a":[{"a":1},2]})", R"({"a":[1,{"a":1}]})", R"({"a":[{"a":1},null]})",
        R"({"a":[{"a":1},]})", R"({"a":[{"a":1}{"b":2}]})"}) {
    EXPECT_EQ(JsonObject::parse(line, row), Parse::kMalformed) << line;
  }
  EXPECT_TRUE(row.empty()) << "a failed parse leaves the row as it was";
  EXPECT_EQ(JsonObject::parse("{}", row), Parse::kOk);
  // Braces and brackets inside strings are text.
  EXPECT_EQ(JsonObject::parse(R"({"label":"weird{]label","n":1})", row), Parse::kOk);
  EXPECT_EQ(row.text("label"), "weird{]label");
}

TEST(RowParse, EscapedStringsRoundTrip) {
  const std::string text = "line1\nline2\t\"quoted\" back\\slash\r\x01\x1f end";
  JsonObject o;
  o.set("msg", text);
  o.set(text, 1.0);  // keys are escaped the same way
  EXPECT_NE(o.str().find(R"(\"quoted\")"), std::string::npos);
  EXPECT_NE(o.str().find(R"(\u0001)"), std::string::npos);
  const JsonObject row = parsed(o.str());
  EXPECT_EQ(row.text("msg"), text);
  EXPECT_EQ(row.num(text), 1.0);
  EXPECT_EQ(row.str(), o.str());
}

TEST(RowParse, EveryPrefixOfARowIsTruncated) {
  JsonObject params;
  params.set("qdisc", "FQ").set("trial", 1);
  JsonObject o;
  o.set("label", "a \"b\"\n").set("params", params).set("seed", ~std::uint64_t{0});
  o.set("x", -1.25e-7).set("ok", 1).set("none", std::nan(""));
  o.set("arr", std::vector<double>{1, std::nan(""), -3.5e300});
  JsonObject row;
  for (const std::string& line :
       {o.str(), std::string(R"({"trace":[{"t_s":1,"a":[1,2]},{"t_s":2}]})"),
        std::string(R"({"a":[],"trace":[{"p":{"q":[]}},{}],"z":"]}"})")}) {
    for (std::size_t n = 0; n < line.size(); ++n) {
      EXPECT_EQ(JsonObject::parse(line.substr(0, n), row), Parse::kTruncated)
          << line.substr(0, n);
    }
    ASSERT_EQ(JsonObject::parse(line, row), Parse::kOk) << line;
    EXPECT_EQ(row.str(), line);
  }
}

// ---- the rows a batch writes -------------------------------------------------

// A plain Scenario job, a traced Cebinae job and a custom job with
// non-finite metrics, run once per test process; the lines are what the
// runner wrote to its results file.
struct Batch {
  std::vector<ExperimentJob> jobs;
  std::vector<JsonObject> rows;
  std::vector<std::string> result_lines;
};

std::vector<std::string> lines_of(const std::string& path) {
  std::vector<std::string> lines;
  std::ifstream in(path);
  for (std::string line; std::getline(in, line);) lines.push_back(line);
  return lines;
}

const Batch& batch() {
  static const Batch b = [] {
    Batch out;
    ScenarioConfig base;
    base.bottleneck_bps = 10'000'000;
    base.buffer_bytes = 32ull * kMtuBytes;
    base.duration = Milliseconds(300);
    base.flows = flows_of(CcaType::kNewReno, 2, Milliseconds(10));
    out.jobs.resize(3);
    out.jobs[0].config = base;
    out.jobs[0].label = "plain";
    out.jobs[0].params.set("qdisc", "FIFO");
    out.jobs[1].config = base;
    out.jobs[1].config.qdisc = QdiscKind::kCebinae;
    out.jobs[1].label = "traced";
    out.jobs[1].trace_period = Milliseconds(100);
    out.jobs[2].label = "custom";
    out.jobs[2].custom = [] {
      return std::vector<std::pair<std::string, double>>{
          {"occupancy", 0.125}, {"rotations", 17.0}, {"undefined", std::nan("")},
          {"overflow", -kInf}, {"drop_pct", 2.5}};
    };
    // Test processes may run at once: each writes files of its own.
    const std::string stem = ::testing::TempDir() + "cebinae_json_row_" +
                             ::testing::UnitTest::GetInstance()->current_test_info()->name();
    const std::string results = stem + ".jsonl";
    {
      JsonlWriter writer(results);
      ExperimentRunner::Options opts;
      opts.jobs = 2;
      opts.writer = &writer;
      out.rows = ExperimentRunner(opts).run(out.jobs);
    }
    out.result_lines = lines_of(results);
    std::remove(results.c_str());
    return out;
  }();
  return b;
}

TEST(Reconstruct, ScenarioRecordRoundTrips) {
  const Batch& b = batch();
  ASSERT_EQ(b.result_lines.size(), b.rows.size());
  for (std::size_t i = 0; i < b.rows.size(); ++i) {
    SCOPED_TRACE("job " + std::to_string(i));
    const std::string& line = b.result_lines[i];
    EXPECT_EQ(line, b.rows[i].str());
    const JsonObject back = parsed(line);
    EXPECT_EQ(back.str(), line);
    expect_same_reads(b.rows[i], back);
  }
  const JsonObject& plain = b.rows[0];
  EXPECT_EQ(plain.obj("params")->text("qdisc"), "FIFO");
  EXPECT_EQ(plain.u64("seed"), derive_seed(1, 0));
  EXPECT_EQ(plain.arr("goodput_Bps").size(), 2u);
  EXPECT_EQ(b.rows[1].text("qdisc"), "Cebinae");
  EXPECT_TRUE(std::isnan(b.rows[2].num("undefined")));
  EXPECT_TRUE(std::isnan(parsed(b.result_lines[2]).num("overflow")));
}

TEST(Reconstruct, ReadBackRowsSummariseLikeFreshOnes) {
  // The report reads a resumed row the way it reads a fresh one: every
  // numeric field, and the Mbps readers, summarise to the same values.
  const Batch& b = batch();
  ASSERT_EQ(b.result_lines.size(), b.rows.size());
  std::vector<JsonObject> back(b.rows.size());
  for (std::size_t i = 0; i < back.size(); ++i) back[i] = parsed(b.result_lines[i]);
  const std::vector<ResultRow> fresh_rows = aggregate_rows(b.jobs, b.rows);
  const std::vector<ResultRow> back_rows = aggregate_rows(b.jobs, back);
  ASSERT_EQ(fresh_rows.size(), back_rows.size());
  for (std::size_t r = 0; r < fresh_rows.size(); ++r) {
    SCOPED_TRACE(fresh_rows[r].label);
    const ResultRow& fresh = fresh_rows[r];
    const ResultRow& read = back_rows[r];
    for (const auto& [name, value] : fresh.trials[0]->fields()) {
      if (!JsonObject::number(value)) continue;
      EXPECT_TRUE(same_number(over(fresh, name).mean, over(read, name).mean)) << name;
    }
    for (const PerTrial& value : {PerTrial(goodput_mbps), PerTrial(throughput_mbps)}) {
      EXPECT_TRUE(same_number(over(fresh, value).mean, over(read, value).mean));
    }
    EXPECT_TRUE(same_array(mean_array(fresh.trials, "goodput_Bps"),
                           mean_array(read.trials, "goodput_Bps")));
  }
  EXPECT_DOUBLE_EQ(over(back_rows[2], "rotations").mean, 17.0);
  EXPECT_TRUE(std::isnan(over(back_rows[2], "overflow").mean));
  // A custom row has no link throughput.
  EXPECT_TRUE(std::isnan(throughput_mbps(back[2])));
}

TEST(Reconstruct, TraceRowRoundTripsScalarsArraysAndNaN) {
  const Batch& b = batch();
  const std::vector<JsonObject>& trace = b.rows[1].list("trace");
  ASSERT_EQ(trace.size(), 3u);
  EXPECT_EQ(b.rows[0].find("trace"), nullptr) << "only a traced job has a trace";
  EXPECT_EQ(b.rows[2].find("trace"), nullptr);
  // The trace is the row's last field before its wall clock.
  const std::vector<JsonObject::Field>& fields = b.rows[1].fields();
  ASSERT_GE(fields.size(), 2u);
  EXPECT_EQ(fields[fields.size() - 2].first, "trace");
  EXPECT_EQ(fields.back().first, "wall_s");
  const JsonObject row_back = parsed(b.result_lines[1]);
  const std::vector<JsonObject>& back = row_back.list("trace");
  ASSERT_EQ(back.size(), trace.size());
  for (std::size_t k = 0; k < trace.size(); ++k) {
    SCOPED_TRACE("tick " + std::to_string(k));
    expect_same_reads(trace[k], back[k]);
    EXPECT_EQ(back[k].str(), trace[k].str());
    EXPECT_EQ(back[k].fields()[0].first, "t_s") << "no job context is repeated";
    EXPECT_EQ(back[k].find("label"), nullptr);
  }
  // A scalar that is not finite reads as NaN, fresh and parsed alike.
  JsonObject tick = trace[0];
  tick.set("stalled", std::nan(""));
  const JsonObject tick_back = parsed(tick.str());
  EXPECT_TRUE(std::isnan(tick_back.num("stalled")));
  expect_same_reads(tick, tick_back);
}

// ---- the committed goldens ---------------------------------------------------

// Every row golden_smoke pins (tests/golden/<experiment>/*.jsonl) parses and
// serializes back to its own bytes: table2's 1,026-flow arrays, fig10's trace
// lists, fig13's custom rows and every nested params echo.
TEST(RowParse, EveryGoldenRowRoundTrips) {
  namespace fs = std::filesystem;
  std::size_t files = 0;
  std::size_t rows = 0;
  for (const fs::directory_entry& dir : fs::directory_iterator(CEBINAE_GOLDEN_DIR)) {
    for (const fs::directory_entry& file : fs::directory_iterator(dir.path())) {
      if (file.path().extension() != ".jsonl") continue;
      ++files;
      for (const std::string& line : lines_of(file.path().string())) {
        ++rows;
        JsonObject row;
        ASSERT_EQ(JsonObject::parse(line, row), Parse::kOk) << file.path() << ": " << line;
        EXPECT_EQ(row.str(), line) << file.path();
      }
    }
  }
  EXPECT_GT(files, 0u);
  EXPECT_GT(rows, files);
}

}  // namespace
}  // namespace cebinae::exp
