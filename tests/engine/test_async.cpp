// Async batch path: byte-identity with the serial backend at every
// device/stream count, overlap-model sanity, and the pipeline's
// double-buffered worker. `ctest -L async` selects this binary (CI runs
// it under ThreadSanitizer as well).
#include <gtest/gtest.h>

#include <span>
#include <utility>
#include <vector>

#include "szp/core/serial.hpp"
#include "szp/data/registry.hpp"
#include "szp/engine/engine.hpp"
#include "szp/perfmodel/hardware.hpp"
#include "szp/perfmodel/overlap.hpp"
#include "szp/pipeline/pipeline.hpp"

namespace szp::engine {
namespace {

std::vector<data::Field> test_fields() {
  std::vector<data::Field> fields;
  for (size_t f = 0; f < 4; ++f) {
    fields.push_back(data::make_field(data::Suite::kCesmAtm, f, 0.02));
  }
  fields.push_back(data::make_field(data::Suite::kHacc, 0, 0.02));
  fields.push_back(data::make_field(data::Suite::kRtm, 0, 0.02));
  return fields;
}

std::vector<std::span<const float>> views_of(
    const std::vector<data::Field>& fields) {
  std::vector<std::span<const float>> v;
  v.reserve(fields.size());
  for (const auto& f : fields) v.emplace_back(f.values);
  return v;
}

core::Params test_params() {
  core::Params p;
  p.error_bound = 1e-3;
  return p;
}

TEST(AsyncBatch, ByteIdenticalToSerialAtEveryShardShape) {
  const auto fields = test_fields();
  const auto views = views_of(fields);
  const core::Params params = test_params();

  Engine serial({.params = params, .backend = BackendKind::kSerial});
  const auto reference = serial.compress_batch(views);
  ASSERT_EQ(reference.size(), fields.size());

  for (const unsigned devices : {1u, 2u, 3u}) {
    for (const unsigned streams : {1u, 2u}) {
      Engine eng({.params = params,
                  .backend = BackendKind::kDevice,
                  .devices = devices,
                  .streams = streams});
      const auto got = eng.compress_batch(views);
      ASSERT_EQ(got.size(), reference.size());
      for (size_t i = 0; i < got.size(); ++i) {
        EXPECT_EQ(got[i].bytes, reference[i].bytes)
            << "field " << i << " at devices=" << devices
            << " streams=" << streams;
      }
    }
  }
}

TEST(AsyncBatch, RepeatedBatchesReuseLeasesSafely) {
  // Second batch reuses the pooled buffers the first released from the
  // stream threads; results must stay identical run over run.
  const auto fields = test_fields();
  const auto views = views_of(fields);
  Engine eng({.params = test_params(),
              .backend = BackendKind::kDevice,
              .devices = 2,
              .streams = 2});
  const auto first = eng.compress_batch(views);
  const auto second = eng.compress_batch(views);
  ASSERT_EQ(first.size(), second.size());
  for (size_t i = 0; i < first.size(); ++i) {
    EXPECT_EQ(first[i].bytes, second[i].bytes) << i;
  }
}

TEST(AsyncBatch, DecompressRoundtripsWithinBound) {
  const auto fields = test_fields();
  const auto views = views_of(fields);
  const core::Params params = test_params();
  Engine eng({.params = params,
              .backend = BackendKind::kDevice,
              .devices = 2,
              .streams = 2});
  const auto batch = eng.compress_batch(views);
  for (size_t i = 0; i < batch.size(); ++i) {
    const auto recon = eng.decompress(batch[i].bytes);
    ASSERT_EQ(recon.size(), fields[i].values.size());
    const double eb =
        core::resolve_eb(params, fields[i].value_range()) * (1.0 + 1e-6);
    for (size_t j = 0; j < recon.size(); ++j) {
      ASSERT_NEAR(recon[j], fields[i].values[j], eb) << "field " << i;
    }
  }
}

TEST(AsyncBatch, OverlapModelShowsSavingsAndDeviceScaling) {
  const perfmodel::CostModel model(perfmodel::a100());

  auto run = [&](std::span<const std::span<const float>> views,
                 unsigned devices) {
    Engine eng({.params = test_params(),
                .backend = BackendKind::kDevice,
                .devices = devices,
                .streams = 2});
    auto* devb = eng.device_backend();
    devb->set_timeline_enabled(true);
    (void)eng.compress_batch(views);
    devb->set_timeline_enabled(false);
    const auto timelines = devb->take_timelines();
    EXPECT_EQ(timelines.size(), devices);
    std::vector<perfmodel::OverlapReport> reps;
    for (const auto& tl : timelines) {
      EXPECT_FALSE(tl.empty());
      reps.push_back(perfmodel::model_overlap(tl, model));
    }
    return perfmodel::combine_devices(reps);
  };

  // The mixed test batch, and six HACC fields at field scale 0.6 (14.4 MB).
  std::vector<data::Field> hacc;
  for (size_t f = 0; f < 6; ++f) {
    hacc.push_back(data::make_field(data::Suite::kHacc, f, 0.6));
  }
  for (const auto& fields : {test_fields(), hacc}) {
    const auto views = views_of(fields);
    // Two streams per device: transfers hide behind kernels, so the
    // overlapped makespan is strictly below the serialized wall. The six
    // fields fill both stream lanes of each device until there are more
    // devices than field pairs, then take one lane each.
    std::vector<perfmodel::OverlapReport> by_devices;
    for (const auto& [devices, lanes] :
         {std::pair{1u, 2u}, std::pair{2u, 4u}, std::pair{4u, 6u}}) {
      SCOPED_TRACE(devices);
      const auto rep = run(views, devices);
      EXPECT_EQ(rep.ops, fields.size() * 3);  // h2d + kernel + d2h each
      EXPECT_EQ(rep.lanes.size(), lanes);
      EXPECT_GT(rep.serialized_s, 0.0);
      EXPECT_GT(rep.overlapped_s, 0.0);
      EXPECT_LT(rep.overlapped_s, rep.serialized_s);
      EXPECT_GT(rep.overlap_fraction(), 0.0);
      EXPECT_LT(rep.overlap_fraction(), 1.0);
      by_devices.push_back(rep);
    }

    // More devices: the serialized wall is the same work, but the modeled
    // makespan splits across devices — the paper-style multi-GPU scaling.
    EXPECT_GE(by_devices[1].serialized_s / by_devices[1].overlapped_s, 1.5);
    EXPECT_GE(by_devices[0].overlapped_s / by_devices[1].overlapped_s, 1.5);
    EXPECT_LE(by_devices[2].overlapped_s, by_devices[1].overlapped_s);
  }
}

TEST(AsyncBatch, SingleDeviceSingleStreamTakesSerialPath) {
  // devices=1 streams=1 must not spin up stream threads; it goes through
  // the base-class loop and still matches the reference bytes.
  const auto fields = test_fields();
  const auto views = views_of(fields);
  Engine serial({.params = test_params(), .backend = BackendKind::kSerial});
  Engine eng({.params = test_params(),
              .backend = BackendKind::kDevice,
              .devices = 1,
              .streams = 1});
  const auto a = serial.compress_batch(views);
  const auto b = eng.compress_batch(views);
  ASSERT_EQ(a.size(), b.size());
  for (size_t i = 0; i < a.size(); ++i) EXPECT_EQ(a[i].bytes, b[i].bytes);
}

TEST(AsyncPipeline, DoubleBufferedWorkerIsByteExact) {
  pipeline::Config cfg;
  cfg.workers = 1;  // one worker, overlap comes from its two streams
  cfg.device_streams = 2;
  cfg.params.error_bound = 1e-2;
  pipeline::InlinePipeline pipe(cfg);
  std::vector<data::Field> snapshots;
  for (const size_t step : {300u, 900u, 1500u, 2100u, 2700u}) {
    snapshots.push_back(data::make_rtm_snapshot(step, 0.03));
    pipe.submit(snapshots.back());
  }
  const auto results = pipe.finish();
  ASSERT_EQ(results.size(), snapshots.size());
  for (size_t i = 0; i < results.size(); ++i) {
    EXPECT_EQ(results[i].name, snapshots[i].name);
    const auto reference = core::compress_serial(
        snapshots[i].values, cfg.params, snapshots[i].value_range());
    EXPECT_EQ(results[i].stream, reference) << i;
  }
}

TEST(AsyncPipeline, WorkerErrorStillPropagatesWithStreams) {
  pipeline::Config cfg;
  cfg.workers = 2;
  cfg.device_streams = 2;
  cfg.params.mode = core::ErrorMode::kAbs;
  cfg.params.error_bound = 1e-30;  // quantization overflow on any data
  pipeline::InlinePipeline pipe(cfg);
  try {
    for (int i = 0; i < 4; ++i) {
      pipe.submit(data::make_field(data::Suite::kCesmAtm, 0, 0.01));
    }
  } catch (const format_error&) {
    return;  // submit may already observe the closed pipeline
  }
  EXPECT_THROW((void)pipe.finish(), format_error);
}

}  // namespace
}  // namespace szp::engine
