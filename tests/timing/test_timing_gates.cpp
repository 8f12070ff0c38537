// Wall-clock gates. Each compares two postures of the same work on the
// same machine: the reps alternate between the two sides and each side
// keeps its best of 21, so host drift hits both equally. The binary is
// registered RUN_SERIAL, since a concurrent test would steal cycles from
// one side only.
#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "szp/data/registry.hpp"
#include "szp/engine/engine.hpp"
#include "szp/obs/log.hpp"
#include "szp/obs/telemetry/crash_handler.hpp"
#include "szp/obs/telemetry/flight_recorder.hpp"

namespace szp {
namespace {

using Clock = std::chrono::steady_clock;

constexpr int kReps = 21;

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

core::Params rel_params() {
  core::Params p;
  p.mode = core::ErrorMode::kRel;
  p.error_bound = 1e-3;
  return p;
}

TEST(TimingGate, AsyncBatchWallBelowSyncWall) {
  // Six HACC fields at field scale 0.6 (14.4 MB) on one device: the
  // one-stream synchronous path against two streams double-buffering
  // H2D, kernel and D2H.
  std::vector<data::Field> fields;
  std::vector<std::span<const float>> views;
  size_t raw_bytes = 0;
  for (size_t f = 0; f < 6; ++f) {
    fields.push_back(data::make_field(data::Suite::kHacc, f, 0.6));
  }
  for (const auto& f : fields) {
    views.emplace_back(f.values);
    raw_bytes += f.size_bytes();
  }
  ASSERT_EQ(raw_bytes, 14'400'000u);

  const auto device = [](unsigned streams) {
    return engine::EngineConfig{.params = rel_params(),
                                .backend = engine::BackendKind::kDevice,
                                .devices = 1,
                                .streams = streams};
  };
  engine::Engine sync_eng(device(1));
  engine::Engine async_eng(device(2));

  double sync_s = 1e30;
  double async_s = 1e30;
  std::vector<engine::CompressedStream> sync_out;
  std::vector<engine::CompressedStream> async_out;
  for (int rep = 0; rep < kReps; ++rep) {
    auto t0 = Clock::now();
    auto batch = sync_eng.compress_batch(views);
    sync_s = std::min(sync_s, seconds_since(t0));
    sync_out = std::move(batch);

    t0 = Clock::now();
    batch = async_eng.compress_batch(views);
    async_s = std::min(async_s, seconds_since(t0));
    async_out = std::move(batch);
  }

  ASSERT_EQ(async_out.size(), sync_out.size());
  for (size_t i = 0; i < sync_out.size(); ++i) {
    EXPECT_EQ(async_out[i].bytes, sync_out[i].bytes) << "field " << i;
  }
  RecordProperty("sync_wall_s", std::to_string(sync_s));
  RecordProperty("async_wall_s", std::to_string(async_s));
  EXPECT_LT(async_s, sync_s) << "sync " << sync_s << " s, async " << async_s
                             << " s, saved "
                             << 100.0 * (1.0 - async_s / sync_s) << "%";
}

TEST(TimingGate, AlwaysOnTelemetryCostsUnderTwoPercent) {
  // Serial compress+decompress roundtrips of HACC vx at field scale 2.5
  // (10 MB) with all telemetry off, against the always-on posture that
  // SZP_TELEMETRY=1 enables: flight recorder, builtin counters, crash
  // handler installed and info-level logging. The metrics registry's
  // per-block instruments are the SZP_STATS deep tier, not part of it.
  constexpr size_t kStreamBytes = 2057825;  // ratio 4.8595
  const data::Field field = data::make_field(data::Suite::kHacc, 0, 2.5);
  ASSERT_EQ(field.count(), 2'500'000u);
  const double range = field.value_range();
  engine::Engine eng(
      {.params = rel_params(), .backend = engine::BackendKind::kSerial});

  const auto roundtrip = [&] {
    const auto t0 = Clock::now();
    const auto stream = eng.compress(field.values, range);
    const auto recon = eng.decompress(stream.bytes);
    const double wall = seconds_since(t0);
    EXPECT_EQ(stream.bytes.size(), kStreamBytes);
    EXPECT_EQ(recon.size(), field.count());
    return wall;
  };
  const obs::crash::Options crash{.dir = ::testing::TempDir() +
                                         "szp_timing_gate_crash"};

  (void)roundtrip();  // buffers and page faults, outside both sides
  double off_s = 1e30;
  double on_s = 1e30;
  const std::uint64_t events_before = obs::fr::event_count();
  for (int rep = 0; rep < kReps; ++rep) {
    obs::fr::set_enabled(false);
    off_s = std::min(off_s, roundtrip());

    obs::fr::set_enabled(true);
    obs::Logger::instance().set_level(obs::LogLevel::kInfo);
    ASSERT_TRUE(obs::crash::install(crash));
    on_s = std::min(on_s, roundtrip());
  }
  obs::fr::set_enabled(false);

  EXPECT_GT(obs::fr::event_count(), events_before);
  const double overhead_pct = 100.0 * (on_s - off_s) / off_s;
  RecordProperty("off_wall_s", std::to_string(off_s));
  RecordProperty("on_wall_s", std::to_string(on_s));
  EXPECT_LT(overhead_pct, 2.0) << "off " << off_s << " s, on " << on_s
                               << " s";
}

}  // namespace
}  // namespace szp
