// Satellite: tracer ring overflow must be *reported*, not silent. When a
// ring wraps, dropped_events() sums the per-thread overwrite counts and
// both metrics exporters (JSON and text) surface them, so a truncated
// trace can't masquerade as a complete one.
#include <gtest/gtest.h>

#include <sstream>

#include "szp/obs/metrics.hpp"
#include "szp/obs/tracer.hpp"
#include "support/mini_json.hpp"

namespace {

using namespace szp;
using testsupport::JsonParser;
using testsupport::JsonValue;

class TracerDropsTest : public ::testing::Test {
 protected:
  void SetUp() override {
    obs::Tracer::instance().clear();
    obs::Tracer::instance().set_enabled(true);
  }
  void TearDown() override {
    obs::Tracer::instance().set_enabled(false);
    obs::Tracer::instance().clear();
  }

  /// Fill the calling thread's ring and wrap it by `extra` events.
  static void overflow_by(std::size_t extra) {
    for (std::size_t i = 0; i < obs::kTracingCapacity + extra; ++i) {
      obs::instant("test", "overflow", "i", i);
    }
  }
};

TEST_F(TracerDropsTest, OverflowIsCountedAndSurvivesCollect) {
  EXPECT_EQ(obs::Tracer::instance().dropped_events(), 0u);
  overflow_by(84);
  const std::uint64_t dropped = obs::Tracer::instance().dropped_events();
  EXPECT_EQ(dropped, 84u);

  // collect() reports the same loss per thread.
  std::uint64_t collected_dropped = 0;
  std::size_t collected_events = 0;
  for (const auto& te : obs::Tracer::instance().collect()) {
    collected_dropped += te.overwritten;
    collected_events += te.events.size();
  }
  EXPECT_EQ(collected_dropped, dropped);
  EXPECT_EQ(collected_events, obs::kTracingCapacity);

  // clear() resets the loss counter with the rings.
  obs::Tracer::instance().clear();
  EXPECT_EQ(obs::Tracer::instance().dropped_events(), 0u);
}

TEST_F(TracerDropsTest, MetricsJsonReportsTracerDrops) {
  overflow_by(24);
  ASSERT_GT(obs::Tracer::instance().dropped_events(), 0u);

  std::ostringstream os;
  obs::Registry::instance().write_json(os);
  JsonValue doc;
  ASSERT_NO_THROW(doc = JsonParser(os.str()).parse()) << os.str();
  const JsonValue* tracer = doc.find("tracer");
  ASSERT_NE(tracer, nullptr);
  const JsonValue* dropped = tracer->find("dropped_events");
  ASSERT_NE(dropped, nullptr);
  EXPECT_EQ(dropped->num,
            static_cast<double>(obs::Tracer::instance().dropped_events()));
  const JsonValue* events = tracer->find("events");
  ASSERT_NE(events, nullptr);
  EXPECT_GT(events->num, 0.0);
}

TEST_F(TracerDropsTest, MetricsTextWarnsOnDrops) {
  {
    std::ostringstream os;
    obs::Registry::instance().write_text(os);
    EXPECT_EQ(os.str().find("tracer.dropped_events"), std::string::npos)
        << "no drops yet, no warning expected";
  }
  overflow_by(24);
  std::ostringstream os;
  obs::Registry::instance().write_text(os);
  EXPECT_NE(os.str().find("tracer.dropped_events"), std::string::npos);
  EXPECT_NE(os.str().find("WARNING"), std::string::npos);
}

}  // namespace
