// Unit tests for the span tracer and the metrics registry.
#include <gtest/gtest.h>

#include <atomic>
#include <sstream>
#include <thread>
#include <vector>

#include "szp/obs/metrics.hpp"
#include "szp/obs/tracer.hpp"
#include "support/mini_json.hpp"

namespace {

using namespace szp;

/// Every test runs with a clean, enabled tracer and restores the
/// disabled default afterwards (other suites in this binary assume it).
class TracerTest : public ::testing::Test {
 protected:
  void SetUp() override {
    obs::Tracer::instance().clear();
    obs::Tracer::instance().set_enabled(true);
  }
  void TearDown() override {
    obs::Tracer::instance().set_enabled(false);
    obs::Tracer::instance().clear();
  }
};

TEST_F(TracerTest, SpanRecordsCompleteEvent) {
  { const obs::Span s("cat", "work", "items", 7); }
  const auto threads = obs::Tracer::instance().collect();
  ASSERT_EQ(threads.size(), 1u);
  ASSERT_EQ(threads[0].events.size(), 1u);
  const auto& e = threads[0].events[0];
  EXPECT_STREQ(e.name, "work");
  EXPECT_STREQ(e.cat, "cat");
  EXPECT_EQ(e.ph, obs::Phase::kComplete);
  EXPECT_STREQ(e.arg1_name, "items");
  EXPECT_EQ(e.arg1, 7u);
}

TEST_F(TracerTest, SpanCloseIsIdempotent) {
  obs::Span s("cat", "once");
  s.close();
  s.close();
  EXPECT_EQ(obs::Tracer::instance().event_count(), 1u);
}

TEST_F(TracerTest, DisabledTracerRecordsNothing) {
  obs::Tracer::instance().set_enabled(false);
  { const obs::Span s("cat", "ignored"); }
  obs::instant("cat", "ignored");
  { const obs::BeginEndSpan be("cat", "ignored"); }
  EXPECT_EQ(obs::Tracer::instance().event_count(), 0u);
}

TEST_F(TracerTest, SpanOpenedWhileDisabledDoesNotRecordOnClose) {
  obs::Tracer::instance().set_enabled(false);
  obs::Span s("cat", "late");
  obs::Tracer::instance().set_enabled(true);
  s.close();
  EXPECT_EQ(obs::Tracer::instance().event_count(), 0u);
}

TEST_F(TracerTest, BeginEndSpanEmitsPair) {
  { const obs::BeginEndSpan be("cat", "phase", "arg", 3); }
  const auto threads = obs::Tracer::instance().collect();
  ASSERT_EQ(threads.size(), 1u);
  ASSERT_EQ(threads[0].events.size(), 2u);
  EXPECT_EQ(threads[0].events[0].ph, obs::Phase::kBegin);
  EXPECT_EQ(threads[0].events[1].ph, obs::Phase::kEnd);
  EXPECT_GE(threads[0].events[1].ts_ns, threads[0].events[0].ts_ns);
}

TEST_F(TracerTest, RingWrapCountsOverwrittenEvents) {
  for (size_t i = 0; i < obs::kTracingCapacity + 24; ++i) {
    obs::instant("cat", "tick");
  }
  const auto threads = obs::Tracer::instance().collect();
  ASSERT_EQ(threads.size(), 1u);
  EXPECT_EQ(threads[0].events.size(), obs::kTracingCapacity);
  EXPECT_EQ(threads[0].overwritten, 24u);
}

TEST_F(TracerTest, EventsComeOutInRecordingOrderAfterWrap) {
  for (std::uint64_t i = 0; i < obs::kTracingCapacity + 4; ++i) {
    obs::instant("cat", "tick", "i", i);
  }
  const auto threads = obs::Tracer::instance().collect();
  ASSERT_EQ(threads.size(), 1u);
  ASSERT_EQ(threads[0].events.size(), obs::kTracingCapacity);
  for (size_t k = 0; k < obs::kTracingCapacity; ++k) {
    // Oldest surviving first.
    ASSERT_EQ(threads[0].events[k].arg1, 4 + k) << k;
  }
}

TEST_F(TracerTest, BuffersOfExitedThreadsSurviveUntilClear) {
  obs::instant("cat", "from-main");  // register the main thread's lane
  std::thread([] {
    obs::set_thread_name("worker");
    obs::instant("cat", "from-worker");
  }).join();
  auto threads = obs::Tracer::instance().collect();
  ASSERT_EQ(threads.size(), 2u);  // main + exited worker
  bool found = false;
  for (const auto& t : threads) {
    if (t.thread_name == "worker") {
      found = true;
      EXPECT_EQ(t.events.size(), 1u);
    }
  }
  EXPECT_TRUE(found);
  obs::Tracer::instance().clear();
  EXPECT_EQ(obs::Tracer::instance().event_count(), 0u);
}

TEST_F(TracerTest, CollectRacingAWriterReturnsOnlyWholeEvents) {
  // The writer wraps its ring many times while the reader collects; the
  // k-th collected event must be exactly event number overwritten + k,
  // whole (its two args written together).
  constexpr std::uint64_t kEvents = std::uint64_t{1} << 21;
  std::atomic<bool> done{false};
  std::thread writer([&] {
    obs::set_thread_name("racer");
    for (std::uint64_t i = 0; i < kEvents; ++i) {
      obs::instant("race", "tick", "i", i, "not_i", ~i);
    }
    done.store(true);
  });
  int collects = 0;
  do {
    for (const auto& t : obs::Tracer::instance().collect()) {
      if (t.thread_name != "racer") continue;
      ++collects;
      for (size_t k = 0; k < t.events.size(); ++k) {
        const obs::Event& e = t.events[k];
        ASSERT_STREQ(e.name, "tick");
        ASSERT_EQ(e.arg1, t.overwritten + k);
        ASSERT_EQ(e.arg2, ~e.arg1);
      }
    }
  } while (!done.load());
  writer.join();
  RecordProperty("collects", collects);
}

TEST_F(TracerTest, ThreadsGetDistinctTids) {
  obs::instant("cat", "main");
  std::thread([] { obs::instant("cat", "worker"); }).join();
  const auto threads = obs::Tracer::instance().collect();
  ASSERT_EQ(threads.size(), 2u);
  EXPECT_NE(threads[0].tid, threads[1].tid);
}

/// Metrics fixture: clean, enabled registry; disabled afterwards.
class MetricsTest : public ::testing::Test {
 protected:
  void SetUp() override {
    obs::Registry::instance().reset();
    obs::Registry::instance().set_enabled(true);
  }
  void TearDown() override {
    obs::Registry::instance().set_enabled(false);
    obs::Registry::instance().reset();
  }
};

TEST_F(MetricsTest, CounterCountsAndFindsByName) {
  auto& c = obs::Registry::instance().counter("test.counter");
  c.add();
  c.add(41);
  EXPECT_EQ(c.value(), 42u);
  const auto* found = obs::Registry::instance().find_counter("test.counter");
  ASSERT_NE(found, nullptr);
  EXPECT_EQ(found->value(), 42u);
  EXPECT_EQ(obs::Registry::instance().find_counter("absent"), nullptr);
}

TEST_F(MetricsTest, FindOrCreateReturnsSameInstrument) {
  auto& a = obs::Registry::instance().counter("test.same");
  auto& b = obs::Registry::instance().counter("test.same");
  EXPECT_EQ(&a, &b);
}

TEST_F(MetricsTest, GaugeTracksLastValueAndSetFlag) {
  auto& g = obs::Registry::instance().gauge("test.gauge");
  EXPECT_FALSE(g.has_value());
  g.set(1.5);
  g.set(2.5);
  EXPECT_TRUE(g.has_value());
  EXPECT_DOUBLE_EQ(g.value(), 2.5);
}

TEST_F(MetricsTest, DisabledInstrumentsIgnoreUpdates) {
  auto& c = obs::Registry::instance().counter("test.off");
  auto& g = obs::Registry::instance().gauge("test.off.g");
  auto& h = obs::Registry::instance().histogram(
      "test.off.h", obs::Histogram::linear_bounds(0, 10, 10));
  obs::Registry::instance().set_enabled(false);
  c.add(5);
  g.set(3.0);
  h.observe(4.0);
  EXPECT_EQ(c.value(), 0u);
  EXPECT_FALSE(g.has_value());
  EXPECT_EQ(h.count(), 0u);
}

TEST_F(MetricsTest, HistogramBucketsAndStats) {
  auto& h = obs::Registry::instance().histogram(
      "test.hist", obs::Histogram::linear_bounds(0, 10, 10));
  for (double v : {0.5, 1.5, 1.9, 9.5, 100.0}) h.observe(v);
  EXPECT_EQ(h.count(), 5u);
  EXPECT_DOUBLE_EQ(h.min(), 0.5);
  EXPECT_DOUBLE_EQ(h.max(), 100.0);
  EXPECT_NEAR(h.sum(), 113.4, 1e-9);
  EXPECT_EQ(h.num_buckets(), 11u);      // bounds 1..10 + overflow
  EXPECT_EQ(h.bucket_count(0), 1u);     // (-inf,1): 0.5
  EXPECT_EQ(h.bucket_count(1), 2u);     // [1,2): 1.5, 1.9
  EXPECT_EQ(h.bucket_count(9), 1u);     // [9,10): 9.5
  EXPECT_EQ(h.bucket_count(10), 1u);    // overflow: 100
}

TEST_F(MetricsTest, Pow2BoundsClassifyPowers) {
  auto& h = obs::Registry::instance().histogram("test.pow2",
                                                obs::Histogram::pow2_bounds(4));
  // bounds 1,2,4,8: buckets (-inf,1) [1,2) [2,4) [4,8) [8,inf)
  for (double v : {0.0, 1.0, 3.0, 7.0, 8.0, 100.0}) h.observe(v);
  EXPECT_EQ(h.bucket_count(0), 1u);
  EXPECT_EQ(h.bucket_count(1), 1u);
  EXPECT_EQ(h.bucket_count(2), 1u);
  EXPECT_EQ(h.bucket_count(3), 1u);
  EXPECT_EQ(h.bucket_count(4), 2u);
}

TEST_F(MetricsTest, QuantilesInterpolateWithinBuckets) {
  auto& h = obs::Registry::instance().histogram(
      "test.quantile", obs::Histogram::linear_bounds(0, 100, 100));
  // 1..100 uniformly: one observation per [k, k+1) bucket.
  for (int v = 1; v <= 100; ++v) h.observe(static_cast<double>(v) - 0.5);
  EXPECT_EQ(h.quantile(0.0), h.min());
  EXPECT_NEAR(h.quantile(0.50), 50.0, 1.0);
  EXPECT_NEAR(h.quantile(0.90), 90.0, 1.0);
  EXPECT_NEAR(h.quantile(0.99), 99.0, 1.0);
  EXPECT_DOUBLE_EQ(h.quantile(1.0), h.max());
}

TEST_F(MetricsTest, QuantileEdgeCases) {
  auto& empty = obs::Registry::instance().histogram(
      "test.quantile.empty", obs::Histogram::linear_bounds(0, 10, 10));
  EXPECT_EQ(empty.quantile(0.5), 0.0);

  // Everything in the overflow bucket: the tracked max bounds the answer.
  auto& over = obs::Registry::instance().histogram(
      "test.quantile.over", obs::Histogram::linear_bounds(0, 10, 10));
  over.observe(1000.0);
  over.observe(2000.0);
  EXPECT_GE(over.quantile(0.99), 1000.0);
  EXPECT_LE(over.quantile(0.99), 2000.0);

  // A single observation is every quantile.
  auto& one = obs::Registry::instance().histogram(
      "test.quantile.one", obs::Histogram::linear_bounds(0, 10, 10));
  one.observe(3.0);
  EXPECT_DOUBLE_EQ(one.quantile(0.5), 3.0);
}

TEST_F(MetricsTest, ExportersIncludeQuantiles) {
  auto& h = obs::Registry::instance().histogram(
      "test.quantile.json", obs::Histogram::linear_bounds(0, 10, 10));
  h.observe(5.0);
  std::ostringstream js;
  obs::Registry::instance().write_json(js);
  EXPECT_NE(js.str().find("\"p50\""), std::string::npos);
  EXPECT_NE(js.str().find("\"p90\""), std::string::npos);
  EXPECT_NE(js.str().find("\"p99\""), std::string::npos);
  std::ostringstream txt;
  obs::Registry::instance().write_text(txt);
  EXPECT_NE(txt.str().find("p50="), std::string::npos);
  EXPECT_NE(txt.str().find("p99="), std::string::npos);
}

TEST_F(MetricsTest, ResetZeroesButKeepsInstruments) {
  auto& c = obs::Registry::instance().counter("test.reset");
  c.add(7);
  obs::Registry::instance().reset();
  obs::Registry::instance().set_enabled(true);  // reset leaves enable alone
  EXPECT_EQ(c.value(), 0u);
  EXPECT_EQ(obs::Registry::instance().find_counter("test.reset"), &c);
}

TEST_F(MetricsTest, WriteJsonIsWellFormedEnough) {
  obs::Registry::instance().counter("json.counter").add(3);
  obs::Registry::instance().gauge("json.gauge").set(1.25);
  obs::Registry::instance()
      .histogram("json.hist", obs::Histogram::linear_bounds(0, 4, 4))
      .observe(2.0);
  std::ostringstream os;
  obs::Registry::instance().write_json(os);
  const std::string s = os.str();
  EXPECT_NE(s.find("\"counters\""), std::string::npos);
  EXPECT_NE(s.find("\"json.counter\": 3"), std::string::npos);
  EXPECT_NE(s.find("\"gauges\""), std::string::npos);
  EXPECT_NE(s.find("\"json.gauge\""), std::string::npos);
  EXPECT_NE(s.find("\"histograms\""), std::string::npos);
  EXPECT_NE(s.find("\"json.hist\""), std::string::npos);
  // Balanced braces (cheap structural sanity; the chrome-trace test runs
  // a real parser over exporter output).
  EXPECT_EQ(std::count(s.begin(), s.end(), '{'),
            std::count(s.begin(), s.end(), '}'));
}

TEST_F(MetricsTest, WriteJsonEscapesControlCharacters) {
  obs::Registry::instance().counter("cr\rname").add(1);
  std::ostringstream os;
  obs::Registry::instance().write_json(os);
  testsupport::JsonValue doc;
  ASSERT_NO_THROW(doc = testsupport::JsonParser(os.str()).parse());
  const testsupport::JsonValue* c = doc.find("counters")->find("cr?name");
  ASSERT_NE(c, nullptr);
  EXPECT_EQ(c->num, 1.0);
}

TEST_F(MetricsTest, WriteTextSkipsEmptyInstruments) {
  obs::Registry::instance().counter("text.used").add(1);
  obs::Registry::instance().counter("text.unused");
  std::ostringstream os;
  obs::Registry::instance().write_text(os);
  EXPECT_NE(os.str().find("text.used"), std::string::npos);
  EXPECT_EQ(os.str().find("text.unused"), std::string::npos);
}

TEST_F(MetricsTest, ConcurrentCounterAddsAreLossless) {
  auto& c = obs::Registry::instance().counter("test.mt");
  std::vector<std::thread> threads;
  for (int t = 0; t < 4; ++t) {
    threads.emplace_back([&] {
      for (int i = 0; i < 10000; ++i) c.add();
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(c.value(), 40000u);
}

}  // namespace
