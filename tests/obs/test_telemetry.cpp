// Production-telemetry suite: flight recorder semantics and dump schema,
// structured-log JSON-lines sink, Prometheus exposition, the snapshot
// file writer, crash-bundle death tests, the disabled-path overhead
// guard, and the end-to-end trace-ID contract (one ID follows a
// compress_batch() request from the API span through the stream lanes
// into logs, metrics exemplars and chrome-trace flow events).
#include <gtest/gtest.h>

#include <fcntl.h>
#include <unistd.h>

#include <chrono>
#include <cmath>
#include <csignal>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <memory>
#include <set>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "szp/engine/engine.hpp"
#include "support/mini_json.hpp"
#include "szp/obs/chrome_trace.hpp"
#include "szp/obs/log.hpp"
#include "szp/obs/metrics.hpp"
#include "szp/obs/telemetry/crash_handler.hpp"
#include "szp/obs/telemetry/exposition.hpp"
#include "szp/obs/telemetry/flight_recorder.hpp"
#include "szp/obs/telemetry/server.hpp"
#include "szp/obs/telemetry/telemetry.hpp"
#include "szp/obs/trace_id.hpp"
#include "szp/obs/tracer.hpp"

namespace {

using namespace szp;
using testsupport::JsonParser;
using testsupport::JsonValue;

std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

std::string fresh_dir(const char* tag) {
  const std::string dir = "/tmp/szp_telemetry_test_" + std::string(tag) +
                          "." + std::to_string(::getpid());
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  return dir;
}

JsonValue parse_json(const std::string& text) {
  JsonValue v;
  EXPECT_NO_THROW(v = JsonParser(text).parse()) << text.substr(0, 400);
  return v;
}

/// RAII: flight recorder on for the test body, off + cleared after.
struct RecorderOn {
  RecorderOn() {
    obs::fr::set_enabled(true);
    obs::fr::clear();
  }
  ~RecorderOn() {
    obs::fr::set_enabled(false);
    obs::fr::clear();
  }
};

// -------------------------------------------------- flight recorder ----

TEST(FlightRecorder, DisabledByDefaultAndRecordsNothing) {
  ASSERT_FALSE(obs::fr::recording_enabled());
  const std::uint64_t before = obs::fr::event_count();
  obs::fr::record(obs::fr::Kind::kKernel, "noop");
  { const obs::Span s(obs::kRequest, "test", "noop"); }
  EXPECT_EQ(obs::fr::event_count(), before);
}

TEST(FlightRecorder, DumpSchemaParsesAndCarriesEvents) {
  const RecorderOn on;
  const obs::TraceIdScope trace(obs::next_trace_id());
  obs::set_thread_name("telemetry-test");
  obs::fr::record(obs::fr::Kind::kKernel, "fr_test_kernel", 42, 7);
  {
    const obs::Span s(obs::kRequest, "test", "fr_test_span");
    obs::fr::record(obs::fr::Kind::kFault, "fr_test_fault", 3);
  }

  std::ostringstream os;
  obs::fr::write_json(os);
  const JsonValue doc = parse_json(os.str());
  ASSERT_EQ(doc.kind, JsonValue::Kind::kObject);
  const JsonValue* schema = doc.find("schema");
  ASSERT_NE(schema, nullptr);
  EXPECT_EQ(schema->str, "szp.flight_recorder.v1");
  const JsonValue* threads = doc.find("threads");
  ASSERT_NE(threads, nullptr);
  ASSERT_EQ(threads->kind, JsonValue::Kind::kArray);

  // Find this thread's ring by name and check the event record shape.
  bool found_kernel = false;
  bool found_span_pair = false;
  for (const JsonValue& t : threads->arr) {
    const JsonValue* name = t.find("name");
    ASSERT_NE(name, nullptr);
    if (name->str != "telemetry-test") continue;
    const JsonValue* events = t.find("events");
    ASSERT_NE(events, nullptr);
    int begins = 0;
    int ends = 0;
    for (const JsonValue& e : events->arr) {
      const JsonValue* kind = e.find("kind");
      ASSERT_NE(kind, nullptr);
      ASSERT_NE(e.find("ts_ns"), nullptr);
      ASSERT_NE(e.find("trace_id"), nullptr);
      if (kind->str == "kernel" && e.find("name")->str == "fr_test_kernel") {
        found_kernel = true;
        EXPECT_EQ(e.find("a")->num, 42);
        EXPECT_EQ(e.find("b")->num, 7);
        EXPECT_EQ(static_cast<std::uint64_t>(e.find("trace_id")->num),
                  trace.id());
      }
      if (kind->str == "span_begin" && e.find("name")->str == "fr_test_span") {
        ++begins;
      }
      if (kind->str == "span_end" && e.find("name")->str == "fr_test_span") {
        ++ends;
      }
    }
    found_span_pair = begins == 1 && ends == 1;
  }
  EXPECT_TRUE(found_kernel);
  EXPECT_TRUE(found_span_pair);
}

TEST(FlightRecorder, FdDumpMatchesOstreamDump) {
  const RecorderOn on;
  obs::fr::record(obs::fr::Kind::kStreamOp, "fd_dump_probe", 1, 2);

  const std::string path = fresh_dir("fddump") + "/dump.json";
  const int fd = ::open(path.c_str(), O_CREAT | O_WRONLY | O_TRUNC, 0644);
  ASSERT_GE(fd, 0);
  EXPECT_TRUE(obs::fr::dump_to_fd(fd));
  ::close(fd);

  std::ostringstream os;
  obs::fr::write_json(os);
  // Byte-identical apart from live-thread timing is too strict (another
  // ring can gain events between the two dumps); the schema contract is
  // that both parse and both carry the probe event.
  const std::string fd_text = read_file(path);
  EXPECT_NE(fd_text.find("\"fd_dump_probe\""), std::string::npos);
  parse_json(fd_text);
  parse_json(os.str());
}

TEST(FlightRecorder, WrapAroundCountsDroppedEvents) {
  const RecorderOn on;
  // A dedicated thread owns a fresh (or at least freshly cleared) ring,
  // so the drop count is exact.
  std::thread([] {
    obs::set_thread_name("wraptest");
    for (std::size_t i = 0; i < obs::kRecordingCapacity + 10; ++i) {
      obs::fr::record(obs::fr::Kind::kLog, "wrap_probe", i);
    }
  }).join();

  std::ostringstream os;
  obs::fr::write_json(os);
  const JsonValue doc = parse_json(os.str());
  bool found = false;
  for (const JsonValue& t : doc.find("threads")->arr) {
    if (t.find("name")->str != "wraptest") continue;
    found = true;
    EXPECT_EQ(t.find("dropped")->num, 10);
    EXPECT_EQ(t.find("events")->arr.size(), obs::kRecordingCapacity);
    // Oldest events were overwritten: the first retained one is #10.
    EXPECT_EQ(t.find("events")->arr.front().find("a")->num, 10);
    EXPECT_FALSE(t.find("alive")->b);
  }
  EXPECT_TRUE(found);
  EXPECT_GE(obs::fr::dropped_events(), 10u);
}

TEST(FlightRecorder, ShortLivedThreadsReuseOneLane) {
  // Recorder on, tracer off: a thread's lane is free again once it
  // exits, so a stream of short-lived threads, each joined before the
  // next starts, needs at most one lane beyond those already listed.
  const RecorderOn on;
  ASSERT_FALSE(obs::tracing_enabled());
  const auto lanes_listed = [] {
    std::ostringstream os;
    obs::fr::write_json(os);
    return parse_json(os.str()).find("threads")->arr.size();
  };
  const std::size_t before = lanes_listed();
  for (int t = 0; t < 256; ++t) {
    std::thread([t] {
      obs::fr::record(obs::fr::Kind::kLog, "churn",
                      static_cast<std::uint64_t>(t));
    }).join();
  }
  EXPECT_LE(lanes_listed(), before + 1);
}

TEST(FlightRecorder, DeepSpanNestingIsBoundedButBalanced) {
  const RecorderOn on;
  constexpr std::size_t kDepth = obs::kMaxSpanDepth + 4;
  std::thread([] {
    obs::set_thread_name("deepspans");
    std::vector<std::unique_ptr<obs::Span>> spans;
    for (std::size_t i = 0; i < kDepth; ++i) {
      spans.push_back(
          std::make_unique<obs::Span>(obs::kRequest, "test", "deep"));
    }
    // Mid-flight the dump shows at most kMaxSpanDepth names.
    std::ostringstream os;
    obs::fr::write_json(os);
    const JsonValue doc = JsonParser(os.str()).parse();
    for (const JsonValue& t : doc.find("threads")->arr) {
      if (t.find("name")->str != "deepspans") continue;
      EXPECT_EQ(t.find("active_spans")->arr.size(), obs::kMaxSpanDepth);
    }
    spans.clear();  // unwind; depth must return to zero
    std::ostringstream os2;
    obs::fr::write_json(os2);
    const JsonValue doc2 = JsonParser(os2.str()).parse();
    for (const JsonValue& t : doc2.find("threads")->arr) {
      if (t.find("name")->str != "deepspans") continue;
      EXPECT_TRUE(t.find("active_spans")->arr.empty());
    }
  }).join();
}

// --------------------------------------------------- structured logs ----

TEST(StructuredLog, JsonSinkEmitsParseableRecordsWithTraceIds) {
  const std::string path = fresh_dir("log") + "/log.jsonl";
  auto& logger = obs::Logger::instance();
  ASSERT_TRUE(logger.set_json_sink(path));
  logger.set_stderr_sink(false);
  const obs::LogLevel prev = logger.level();
  logger.set_level(obs::LogLevel::kDebug);

  const obs::TraceIdScope trace(obs::next_trace_id());
  SZP_LOG_INFO("testcomp", "hello %d \"quoted\"", 42);
  SZP_LOG_DEBUG("testcomp", "debug line");
  logger.flush();
  logger.set_level(prev);
  logger.set_stderr_sink(true);
  logger.set_json_sink("");

  std::ifstream in(path);
  std::string line;
  int matched = 0;
  while (std::getline(in, line)) {
    if (line.empty()) continue;
    const JsonValue rec = parse_json(line);  // every line is strict JSON
    ASSERT_NE(rec.find("ts_ns"), nullptr);
    ASSERT_NE(rec.find("level"), nullptr);
    ASSERT_NE(rec.find("component"), nullptr);
    ASSERT_NE(rec.find("msg"), nullptr);
    if (rec.find("component")->str != "testcomp") continue;
    EXPECT_EQ(static_cast<std::uint64_t>(rec.find("trace_id")->num),
              trace.id());
    if (rec.find("msg")->str == "hello 42 \"quoted\"") {
      EXPECT_EQ(rec.find("level")->str, "info");
      ++matched;
    }
    if (rec.find("msg")->str == "debug line") {
      EXPECT_EQ(rec.find("level")->str, "debug");
      ++matched;
    }
  }
  EXPECT_EQ(matched, 2);
}

TEST(StructuredLog, BelowLevelRecordsAreDroppedByTheMacro) {
  auto& logger = obs::Logger::instance();
  const obs::LogLevel prev = logger.level();
  logger.set_level(obs::LogLevel::kError);
  const std::uint64_t before = logger.records();
  SZP_LOG_INFO("testcomp", "should not be emitted");
  SZP_LOG_WARN("testcomp", "nor this");
  EXPECT_EQ(logger.records(), before);
  logger.set_level(prev);
}

TEST(StructuredLog, RateLimitSuppressesAndReportsTheCount) {
  const std::string path = fresh_dir("ratelimit") + "/log.jsonl";
  auto& logger = obs::Logger::instance();
  ASSERT_TRUE(logger.set_json_sink(path));
  logger.set_stderr_sink(false);
  logger.set_rate_limit(5);
  const std::uint64_t suppressed_before = logger.suppressed();
  for (int i = 0; i < 50; ++i) SZP_LOG_ERROR("floodcomp", "flood %d", i);
  logger.flush();
  logger.set_rate_limit(200);
  logger.set_stderr_sink(true);
  logger.set_json_sink("");

  EXPECT_GT(logger.suppressed(), suppressed_before);
  // No more than the bucket's worth of floodcomp lines landed on disk.
  std::ifstream in(path);
  std::string line;
  int flood_lines = 0;
  while (std::getline(in, line)) {
    if (line.find("floodcomp") != std::string::npos) ++flood_lines;
  }
  EXPECT_GT(flood_lines, 0);
  // One extra bucket refill can land if a wall-second boundary crosses
  // the loop, so allow two buckets' worth.
  EXPECT_LE(flood_lines, 10);
}

TEST(StructuredLog, WarnAndErrorRecordsLandInTheFlightRecorder) {
  const RecorderOn on;
  auto& logger = obs::Logger::instance();
  logger.set_stderr_sink(false);
  SZP_LOG_WARN("warncomp", "a warning");
  SZP_LOG_ERROR("errcomp", "an error");
  logger.set_stderr_sink(true);

  std::ostringstream os;
  obs::fr::write_json(os);
  const std::string dump = os.str();
  EXPECT_NE(dump.find("\"warncomp\""), std::string::npos);
  EXPECT_NE(dump.find("\"errcomp\""), std::string::npos);
}

// ------------------------------------------------ metrics exposition ----

TEST(Exposition, BuiltinsRenderAsPrometheusText) {
  auto& b = obs::telemetry::builtins();
  b.requests.fetch_add(1, std::memory_order_relaxed);
  b.last_trace_id.store(987654, std::memory_order_relaxed);
  const std::string text = obs::telemetry::prometheus_text();

  for (const char* metric :
       {"szp_uptime_seconds", "szp_requests_total", "szp_errors_total",
        "szp_bytes_in_total", "szp_bytes_out_total", "szp_queue_depth",
        "szp_pool_in_use", "szp_log_records_total",
        "szp_recorder_events_total"}) {
    EXPECT_NE(text.find(std::string("# TYPE ") + metric),
              std::string::npos)
        << metric;
    EXPECT_NE(text.find(std::string("\n") + metric + " "), std::string::npos)
        << metric;
  }
  // The exemplar joins the scrape to the most recent request's trace.
  EXPECT_NE(text.find("# {trace_id=\"987654\"} 1"), std::string::npos);

  // Format sanity: every non-comment line is `name[{labels}] value`.
  std::istringstream is(text);
  std::string line;
  while (std::getline(is, line)) {
    if (line.empty() || line[0] == '#') continue;
    const std::size_t sp = line.rfind(' ');
    ASSERT_NE(sp, std::string::npos) << line;
    // Exemplar suffixes were handled above; a plain sample's last token
    // must parse as a number.
    if (line.find(" # ") != std::string::npos) continue;
    EXPECT_NO_THROW((void)std::stod(line.substr(sp + 1))) << line;
  }
}

TEST(Exposition, RegistryInstrumentsAppearWhenMetricsAreOn) {
  obs::Registry::instance().set_enabled(true);
  auto& c = obs::Registry::instance().counter("telemetry.test.counter");
  c.add(3);
  const std::string text = obs::telemetry::prometheus_text();
  obs::Registry::instance().set_enabled(false);
  EXPECT_NE(text.find("telemetry_test_counter_total"), std::string::npos);
}

// ------------------------------------------------- telemetry server ----

TEST(TelemetryServer, SnapshotFile) {
  const std::string dir = fresh_dir("server");
  const std::string snap = dir + "/metrics.prom";
  auto& srv = obs::telemetry::TelemetryServer::instance();
  obs::telemetry::TelemetryServer::Options opts;
  opts.snapshot_path = snap;
  opts.snapshot_period_ms = 50;
  srv.start(opts);
  ASSERT_TRUE(srv.running());

  // stop() writes one final snapshot even if the period never elapsed.
  srv.stop();
  EXPECT_FALSE(srv.running());
  const std::string snapshot = read_file(snap);
  EXPECT_NE(snapshot.find("szp_requests_total"), std::string::npos);
  EXPECT_NE(snapshot.find("szp_uptime_seconds"), std::string::npos);
}

// --------------------------------------------------- always-on builtins ----

TEST(Builtins, EngineRequestsBumpCountersWithTelemetryOff) {
  ASSERT_FALSE(obs::fr::recording_enabled());
  auto& b = obs::telemetry::builtins();
  const std::uint64_t requests = b.requests.load(std::memory_order_relaxed);
  const std::uint64_t bytes_in = b.bytes_in.load(std::memory_order_relaxed);

  engine::Engine eng;  // serial backend
  std::vector<float> data(4096);
  for (std::size_t i = 0; i < data.size(); ++i) {
    data[i] = std::sin(static_cast<double>(i) * 0.01f);
  }
  const auto cmp = eng.compress(data);
  (void)eng.decompress(cmp.bytes);

  EXPECT_EQ(b.requests.load(std::memory_order_relaxed), requests + 2);
  EXPECT_EQ(b.bytes_in.load(std::memory_order_relaxed),
            bytes_in + data.size() * sizeof(float));
  EXPECT_GT(b.bytes_out.load(std::memory_order_relaxed), 0u);
  EXPECT_NE(b.last_trace_id.load(std::memory_order_relaxed), 0u);
}

// ------------------------------------------- end-to-end trace ID ----

// The PR's acceptance contract: one trace ID minted at (or adopted by) a
// compress_batch() call is observable in (a) the flight recorder on
// more than one thread (API span on the caller, ops on stream lanes),
// (b) the JSON log sink, (c) the exposition exemplar, and (d) chrome
// trace flow events connecting the request across lanes.
TEST(TraceIdEndToEnd, OneIdFollowsACompressBatchRequestEverywhere) {
  const RecorderOn on;
  obs::Tracer::instance().clear();
  obs::Tracer::instance().set_enabled(true);
  const std::string log_path = fresh_dir("e2e") + "/log.jsonl";
  auto& logger = obs::Logger::instance();
  ASSERT_TRUE(logger.set_json_sink(log_path));
  logger.set_stderr_sink(false);
  const obs::LogLevel prev = logger.level();
  logger.set_level(obs::LogLevel::kDebug);

  engine::EngineConfig cfg;
  cfg.backend = engine::BackendKind::kDevice;
  cfg.devices = 1;
  cfg.streams = 2;
  cfg.params.mode = core::ErrorMode::kRel;
  cfg.params.error_bound = 1e-3;
  engine::Engine eng(cfg);

  std::vector<float> a(32 * 1024);
  std::vector<float> b(32 * 1024);
  for (std::size_t i = 0; i < a.size(); ++i) {
    a[i] = std::sin(static_cast<double>(i) * 0.001) * 10.0f;
    b[i] = std::cos(static_cast<double>(i) * 0.002) * 5.0f;
  }
  const std::vector<std::span<const float>> fields = {a, b};

  // The caller establishes the request ID; the engine must adopt it
  // (ensure_trace_id), not mint a fresh one.
  std::uint64_t id = 0;
  {
    const obs::TraceIdScope request(obs::next_trace_id());
    id = request.id();
    const auto out = eng.compress_batch(fields, 20.0);
    ASSERT_EQ(out.size(), 2u);
  }
  logger.flush();
  logger.set_level(prev);
  logger.set_stderr_sink(true);
  logger.set_json_sink("");
  obs::Tracer::instance().set_enabled(false);
  ASSERT_NE(id, 0u);

  // (a) Flight recorder: the ID appears on >= 2 threads, covering both
  // the API span and at least one stream-lane op.
  std::ostringstream fr_os;
  obs::fr::write_json(fr_os);
  const JsonValue fr_doc = parse_json(fr_os.str());
  std::set<double> tids_with_id;
  std::set<std::string> kinds_with_id;
  for (const JsonValue& t : fr_doc.find("threads")->arr) {
    for (const JsonValue& e : t.find("events")->arr) {
      if (static_cast<std::uint64_t>(e.find("trace_id")->num) != id) continue;
      tids_with_id.insert(t.find("tid")->num);
      kinds_with_id.insert(e.find("kind")->str);
    }
  }
  EXPECT_GE(tids_with_id.size(), 2u) << "trace ID not visible on stream lanes";
  EXPECT_TRUE(kinds_with_id.count("span_begin") == 1);
  EXPECT_TRUE(kinds_with_id.count("kernel") == 1 ||
              kinds_with_id.count("stream_op") == 1 ||
              kinds_with_id.count("memcpy") == 1)
      << "no device-side event carries the request's trace ID";

  // (b) The engine's debug log record carries the same ID.
  std::ifstream log_in(log_path);
  std::string line;
  bool logged = false;
  while (std::getline(log_in, line)) {
    if (line.empty()) continue;
    const JsonValue rec = parse_json(line);
    if (rec.find("component")->str == "engine" &&
        static_cast<std::uint64_t>(rec.find("trace_id")->num) == id) {
      logged = true;
    }
  }
  EXPECT_TRUE(logged);

  // (c) The exposition exemplar points at this request.
  EXPECT_EQ(obs::telemetry::builtins().last_trace_id.load(
                std::memory_order_relaxed),
            id);
  const std::string prom = obs::telemetry::prometheus_text();
  EXPECT_NE(prom.find("trace_id=\"" + std::to_string(id) + "\""),
            std::string::npos);

  // (d) Chrome trace: flow events with this ID connect >= 2 steps.
  std::ostringstream ct_os;
  obs::write_chrome_trace(ct_os);
  obs::Tracer::instance().clear();
  const JsonValue trace_doc = parse_json(ct_os.str());
  int flow_steps = 0;
  bool flow_start = false;
  bool flow_finish = false;
  for (const JsonValue& e : trace_doc.find("traceEvents")->arr) {
    const JsonValue* cat = e.find("cat");
    if (cat == nullptr || cat->str != "flow") continue;
    const JsonValue* fid = e.find("id");
    ASSERT_NE(fid, nullptr);
    if (static_cast<std::uint64_t>(fid->num) != id) continue;
    ++flow_steps;
    const std::string ph = e.find("ph")->str;
    flow_start = flow_start || ph == "s";
    flow_finish = flow_finish || ph == "f";
  }
  EXPECT_GE(flow_steps, 2);
  EXPECT_TRUE(flow_start);
  EXPECT_TRUE(flow_finish);
}

// ------------------------------------------------ crash-bundle tests ----

/// Death-test dirs must NOT embed the pid: under the threadsafe style
/// the child re-executes the test body, so a pid-suffixed path would
/// diverge between parent and child. Names are unique per test case and
/// this binary is not in the devcheck re-run list, so there is no
/// concurrent user.
std::string crash_dir(const char* tag) {
  const std::string dir = std::string("/tmp/szp_telemetry_crash_") + tag;
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  return dir;
}

/// Scan `dir` for the (single) bundle the crashed child wrote. The
/// child's pid differs from ours, so match the filename prefix.
std::string find_bundle(const std::string& dir) {
  for (const auto& entry : std::filesystem::directory_iterator(dir)) {
    const std::string name = entry.path().filename().string();
    if (name.rfind("szp_crash_", 0) == 0) return entry.path().string();
  }
  return {};
}

/// Everything the crashing child does before dying: install the handler,
/// arm the recorder, leave a recognizable event trail and an open span.
void arm_crash_scenario(const std::string& dir) {
  obs::crash::Options opts;
  opts.dir = dir;
  if (!obs::crash::install(opts)) std::_Exit(97);
  obs::fr::set_enabled(true);
  obs::set_thread_name("crash-victim");
  obs::fr::record(obs::fr::Kind::kKernel, "pre_crash_kernel", 11);
}

/// Shared assertions over a parsed bundle: schema, manifest, recorder
/// payload with the events leading up to the fault and the still-open
/// span.
void check_bundle(const std::string& path, const std::string& reason) {
  ASSERT_FALSE(path.empty()) << "no crash bundle written";
  const JsonValue doc = parse_json(read_file(path));
  ASSERT_EQ(doc.kind, JsonValue::Kind::kObject);
  EXPECT_EQ(doc.find("schema")->str, "szp.crash_bundle.v1");
  EXPECT_EQ(doc.find("reason")->str, reason);
  ASSERT_NE(doc.find("version"), nullptr);
  ASSERT_NE(doc.find("build"), nullptr);
  ASSERT_NE(doc.find("uptime_ns"), nullptr);
  ASSERT_NE(doc.find("env"), nullptr);
  ASSERT_NE(doc.find("env")->find("SZP_TELEMETRY"), nullptr);
  const JsonValue* builtins = doc.find("builtins");
  ASSERT_NE(builtins, nullptr);
  ASSERT_NE(builtins->find("requests"), nullptr);
  ASSERT_NE(builtins->find("errors"), nullptr);

  const JsonValue* rec = doc.find("recorder");
  ASSERT_NE(rec, nullptr);
  EXPECT_EQ(rec->find("schema")->str, "szp.flight_recorder.v1");
  bool found_event = false;
  bool found_span = false;
  for (const JsonValue& t : rec->find("threads")->arr) {
    if (t.find("name")->str != "crash-victim") continue;
    for (const JsonValue& e : t.find("events")->arr) {
      if (e.find("name")->str == "pre_crash_kernel") found_event = true;
    }
    for (const JsonValue& s : t.find("active_spans")->arr) {
      if (s.str == "doomed_request") found_span = true;
    }
  }
  EXPECT_TRUE(found_event) << "events leading up to the fault are missing";
  EXPECT_TRUE(found_span) << "active span stack is missing";
}

TEST(CrashBundleDeathTest, SegvWritesSchemaValidBundle) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  const std::string dir = crash_dir("segv");
  EXPECT_EXIT(
      {
        arm_crash_scenario(dir);
        const obs::Span doomed(obs::kRequest, "test", "doomed_request");
        std::raise(SIGSEGV);
      },
      ::testing::KilledBySignal(SIGSEGV), "");
  check_bundle(find_bundle(dir), "signal:11");
}

TEST(CrashBundleDeathTest, AbortWritesSchemaValidBundle) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  const std::string dir = crash_dir("abort");
  EXPECT_EXIT(
      {
        arm_crash_scenario(dir);
        const obs::Span doomed(obs::kRequest, "test", "doomed_request");
        std::abort();
      },
      ::testing::KilledBySignal(SIGABRT), "");
  check_bundle(find_bundle(dir), "signal:6");
}

TEST(CrashBundleDeathTest, UnhandledExceptionWritesBundle) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  const std::string dir = crash_dir("terminate");
  EXPECT_EXIT(
      {
        arm_crash_scenario(dir);
        const obs::Span doomed(obs::kRequest, "test", "doomed_request");
        const auto boom = []() noexcept {
          throw std::runtime_error("unhandled");
        };
        boom();
      },
      ::testing::KilledBySignal(SIGABRT), "");
  check_bundle(find_bundle(dir), "unhandled_exception");
}

TEST(CrashBundle, ManualBundleIncludesMetricsSection) {
  const RecorderOn on;
  obs::set_thread_name("crash-victim");
  obs::fr::record(obs::fr::Kind::kKernel, "pre_crash_kernel", 11);
  const std::string dir = fresh_dir("manual");
  // install() so the env manifest is captured; no crash follows.
  obs::crash::Options opts;
  opts.dir = dir;
  ASSERT_TRUE(obs::crash::install(opts));
  const std::string path = dir + "/manual_bundle.json";
  {
    const obs::Span doomed(obs::kRequest, "test", "doomed_request");
    ASSERT_TRUE(obs::crash::write_bundle_file(path, "recovery_suite"));
  }
  const JsonValue doc = parse_json(read_file(path));
  EXPECT_EQ(doc.find("schema")->str, "szp.crash_bundle.v1");
  EXPECT_EQ(doc.find("reason")->str, "recovery_suite");
  ASSERT_NE(doc.find("metrics"), nullptr);  // manual path adds the registry
  ASSERT_NE(doc.find("recorder"), nullptr);
}

// ---------------------------------------------- disabled-path guard ----

// Mirror of tests/obs/test_overhead.cpp for the new instrumentation:
// with the recorder off and the level above the site, each site is one
// relaxed load and a branch. 100 ns/site is ~100x that cost; a stray
// clock read or lock would blow past it.
TEST(TelemetryOverhead, DisabledRecorderSitesAreBranchCheap) {
  ASSERT_FALSE(obs::fr::recording_enabled());
  using Clock = std::chrono::steady_clock;
  constexpr int kIters = 2'000'000;
  const auto t0 = Clock::now();
  for (int i = 0; i < kIters; ++i) {
    obs::fr::record(obs::fr::Kind::kKernel, "bench",
                    static_cast<std::uint64_t>(i));
    const obs::Span s(obs::kRequest, "test", "bench");
  }
  const auto dt = Clock::now() - t0;
  const double ns =
      static_cast<double>(
          std::chrono::duration_cast<std::chrono::nanoseconds>(dt).count()) /
      kIters;
  RecordProperty("ns_per_site_pair", std::to_string(ns));
  EXPECT_LT(ns, 2 * 100.0);  // two sites per iteration
}

TEST(TelemetryOverhead, BelowLevelLogSitesAreBranchCheap) {
  auto& logger = obs::Logger::instance();
  const obs::LogLevel prev = logger.level();
  logger.set_level(obs::LogLevel::kError);
  using Clock = std::chrono::steady_clock;
  constexpr int kIters = 2'000'000;
  const auto t0 = Clock::now();
  for (int i = 0; i < kIters; ++i) {
    SZP_LOG_DEBUG("bench", "never formatted %d", i);
  }
  const auto dt = Clock::now() - t0;
  const double ns =
      static_cast<double>(
          std::chrono::duration_cast<std::chrono::nanoseconds>(dt).count()) /
      kIters;
  logger.set_level(prev);
  RecordProperty("ns_per_site", std::to_string(ns));
  EXPECT_LT(ns, 100.0);
}

}  // namespace
