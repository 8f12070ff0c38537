// Wall-clock gates. Each times two postures of the same work on the same
// machine: the reps alternate between the two sides and each side keeps
// its best of 21, so host drift hits both equally. The async gate
// compares the two walls; the telemetry gate reports them and gates the
// recorder's measured per-call cost against the "off" wall. The binary
// is registered RUN_SERIAL, since a concurrent test would steal cycles
// from one side only.
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
#include "szp/obs/tracer.hpp"

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
  // (10 MB) in the always-on posture that SZP_TELEMETRY=1 enables: flight
  // recorder, builtin counters, crash handler installed and info-level
  // logging. The metrics registry's per-block instruments are the
  // SZP_STATS deep tier, not part of it. Of these only the recorder does
  // work per call, so the gate is the roundtrip's recorder events — a
  // deterministic count — times the measured cost of one event, against
  // the roundtrip's wall with telemetry off. The on/off walls themselves
  // are only reported: on a shared host their noise exceeds 2%.
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
  const auto telemetry = [&](bool on) {
    obs::fr::set_enabled(on);
    if (on) {
      obs::Logger::instance().set_level(obs::LogLevel::kInfo);
      ASSERT_TRUE(obs::crash::install(crash));
    }
  };

  (void)roundtrip();  // buffers and page faults, outside both sides
  double off_s = 1e30;
  double on_s = 1e30;
  std::vector<std::uint64_t> events;  // recorder events per "on" roundtrip
  for (int rep = 0; rep < kReps; ++rep) {
    telemetry(false);
    off_s = std::min(off_s, roundtrip());

    telemetry(true);
    const std::uint64_t before = obs::fr::event_count();
    on_s = std::min(on_s, roundtrip());
    events.push_back(obs::fr::event_count() - before);
  }

  // The cost of one event: request-tier spans (a span_begin and a
  // span_end push each, what the engine's entry points record), timed
  // for at least 20 ms.
  std::uint64_t probe_events = 0;
  const std::uint64_t probe0 = obs::fr::event_count();
  const auto t0 = Clock::now();
  do {
    for (int i = 0; i < 64; ++i) {
      const obs::Span probe(obs::kRequest, "timing", "probe");
    }
    probe_events = obs::fr::event_count() - probe0;
  } while (seconds_since(t0) < 0.02);
  const double ns_per_event =
      seconds_since(t0) * 1e9 / static_cast<double>(probe_events);
  telemetry(false);

  ASSERT_GT(events.front(), 0u);
  for (const std::uint64_t e : events) EXPECT_EQ(e, events.front());
  const double cost_share =
      static_cast<double>(events.front()) * ns_per_event / (off_s * 1e9);
  RecordProperty("events_per_roundtrip", std::to_string(events.front()));
  RecordProperty("ns_per_event", std::to_string(ns_per_event));
  RecordProperty("off_wall_s", std::to_string(off_s));
  RecordProperty("on_wall_s", std::to_string(on_s));
  EXPECT_LT(cost_share, 0.02)
      << events.front() << " events x " << ns_per_event << " ns against "
      << off_s << " s off (on/off walls " << on_s << " / " << off_s << " s)";
}

}  // namespace
}  // namespace szp
