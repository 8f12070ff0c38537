// Schema test for the Chrome trace exporter: run the real device codec
// with tracing on, export, parse the JSON with a minimal validating
// parser, and check the events the acceptance contract requires — 'X'
// spans for every cuSZp stage (QP/FE/GS/BB), kernel 'B'/'E' pairs,
// memcpy spans and chained-scan lookback events.
#include <gtest/gtest.h>

#include <cctype>
#include <cmath>
#include <map>
#include <span>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "szp/core/compressor.hpp"
#include "szp/gpusim/buffer.hpp"
#include "szp/obs/chrome_trace.hpp"
#include "szp/obs/lane.hpp"
#include "szp/obs/tracer.hpp"
#include "support/mini_json.hpp"

namespace {

using namespace szp;
using testsupport::JsonParser;
using testsupport::JsonValue;

// ------------------------------------------------------------ fixture ----

class ChromeTraceTest : public ::testing::Test {
 protected:
  void SetUp() override {
    obs::Tracer::instance().clear();
    obs::Tracer::instance().set_enabled(true);
  }
  void TearDown() override {
    obs::Tracer::instance().set_enabled(false);
    obs::Tracer::instance().clear();
  }

  /// Run a real compress+decompress through the device path.
  static void run_pipeline() {
    std::vector<float> data(64 * 1024);
    for (size_t i = 0; i < data.size(); ++i) {
      data[i] = std::sin(static_cast<double>(i) * 0.001) * 10.0;
    }
    core::Params params;
    params.mode = core::ErrorMode::kRel;
    params.error_bound = 1e-3;
    Compressor c(params);
    gpusim::Device dev;
    auto d_in = gpusim::to_device<float>(dev, std::span<const float>(data));
    gpusim::DeviceBuffer<byte_t> d_cmp(
        dev, core::max_compressed_bytes(data.size(), params.block_len));
    gpusim::DeviceBuffer<float> d_out(dev, data.size());
    const auto comp =
        c.compress_on_device(dev, d_in, data.size(), 20.0, d_cmp);
    (void)c.decompress_on_device(dev, d_cmp, d_out, comp.bytes);
    (void)gpusim::to_host(dev, d_out);
  }
};

TEST_F(ChromeTraceTest, ExportParsesAndSatisfiesSchema) {
  run_pipeline();

  std::ostringstream os;
  obs::write_chrome_trace(os);
  const std::string text = os.str();
  JsonValue doc;
  ASSERT_NO_THROW(doc = JsonParser(text).parse()) << text.substr(0, 400);

  ASSERT_EQ(doc.kind, JsonValue::Kind::kObject);
  const JsonValue* unit = doc.find("displayTimeUnit");
  ASSERT_NE(unit, nullptr);
  EXPECT_EQ(unit->str, "ms");
  const JsonValue* events = doc.find("traceEvents");
  ASSERT_NE(events, nullptr);
  ASSERT_EQ(events->kind, JsonValue::Kind::kArray);
  ASSERT_GT(events->arr.size(), 0u);

  // Count events per (cat, name, ph); validate required fields as we go.
  std::map<std::string, size_t> seen;
  double last_ts = -1;
  for (const auto& e : events->arr) {
    ASSERT_EQ(e.kind, JsonValue::Kind::kObject);
    const JsonValue* ph = e.find("ph");
    ASSERT_NE(ph, nullptr);
    const JsonValue* name = e.find("name");
    ASSERT_NE(name, nullptr);
    ASSERT_NE(e.find("pid"), nullptr);
    ASSERT_NE(e.find("tid"), nullptr);
    if (ph->str == "M") continue;  // metadata events carry no ts
    const JsonValue* ts = e.find("ts");
    ASSERT_NE(ts, nullptr);
    EXPECT_GE(ts->num, 0.0);
    if (ph->str == "X") {
      const JsonValue* dur = e.find("dur");
      ASSERT_NE(dur, nullptr);
      EXPECT_GE(dur->num, 0.0);
      EXPECT_GE(ts->num, last_ts);  // sorted by timestamp
      last_ts = ts->num;
    }
    const JsonValue* cat = e.find("cat");
    const std::string c = cat != nullptr ? cat->str : "";
    seen[c + "/" + name->str + "/" + ph->str] += 1;
  }

  // Acceptance schema: X spans for every stage of the paper's pipeline...
  for (const char* stage : {"QP", "FE", "GS", "BB"}) {
    EXPECT_GE(seen[std::string("stage/") + stage + "/X"], 1u) << stage;
  }
  // ...kernel B/E pairs for both codec kernels...
  for (const char* kernel : {"szp_compress", "szp_decompress"}) {
    EXPECT_EQ(seen[std::string("kernel/") + kernel + "/B"], 1u) << kernel;
    EXPECT_EQ(seen[std::string("kernel/") + kernel + "/E"], 1u) << kernel;
    EXPECT_GE(seen[std::string("block/") + kernel + "/X"], 1u) << kernel;
  }
  // ...memcpy spans and the chained-scan lookback events.
  EXPECT_GE(seen["memcpy/h2d/X"], 1u);
  EXPECT_GE(seen["memcpy/d2h/X"], 1u);
  EXPECT_GE(seen["gs/lookback/X"], 1u);
  // API entry points recorded on the host lane.
  EXPECT_EQ(seen["api/compress_on_device/X"], 1u);
  EXPECT_EQ(seen["api/decompress_on_device/X"], 1u);
}

TEST_F(ChromeTraceTest, WorkerThreadsAreNamedLanes) {
  run_pipeline();
  std::ostringstream os;
  obs::write_chrome_trace(os);
  const JsonValue doc = JsonParser(os.str()).parse();
  const JsonValue* events = doc.find("traceEvents");
  ASSERT_NE(events, nullptr);
  size_t worker_lanes = 0;
  size_t process_names = 0;
  for (const auto& e : events->arr) {
    const JsonValue* ph = e.find("ph");
    if (ph == nullptr || ph->str != "M") continue;
    const JsonValue* name = e.find("name");
    ASSERT_NE(name, nullptr);
    const JsonValue* args = e.find("args");
    ASSERT_NE(args, nullptr);
    const JsonValue* label = args->find("name");
    ASSERT_NE(label, nullptr);
    if (name->str == "process_name") {
      EXPECT_EQ(label->str, "szp");
      ++process_names;
      continue;
    }
    EXPECT_EQ(name->str, "thread_name");
    if (label->str.find("gpusim-worker") != std::string::npos) ++worker_lanes;
  }
  EXPECT_GE(worker_lanes, 1u);
  EXPECT_EQ(process_names, 1u);
}

TEST_F(ChromeTraceTest, ControlCharactersInThreadNamesAreEscaped) {
  std::thread t([] {
    obs::set_thread_name("tab\there");
    const obs::Span span("test", "named");
  });
  t.join();
  std::ostringstream os;
  obs::write_chrome_trace(os);
  JsonValue doc;
  ASSERT_NO_THROW(doc = JsonParser(os.str()).parse());
  bool found = false;
  for (const auto& e : doc.find("traceEvents")->arr) {
    const JsonValue* args = e.find("args");
    const JsonValue* label = args != nullptr ? args->find("name") : nullptr;
    if (label != nullptr && label->str == "tab?here") found = true;
  }
  EXPECT_TRUE(found);
}

TEST_F(ChromeTraceTest, EmptyRecordingStillParses) {
  std::ostringstream os;
  obs::write_chrome_trace(os);
  const JsonValue doc = JsonParser(os.str()).parse();
  const JsonValue* events = doc.find("traceEvents");
  ASSERT_NE(events, nullptr);
  // Only this thread's (empty or missing) lane metadata may be present;
  // no timed events.
  for (const auto& e : events->arr) {
    const JsonValue* ph = e.find("ph");
    ASSERT_NE(ph, nullptr);
    EXPECT_EQ(ph->str, "M");
  }
}

}  // namespace
