#include "szp/pipeline/pipeline.hpp"

#include <algorithm>

#include "szp/gpusim/stream.hpp"
#include "szp/obs/log.hpp"
#include "szp/obs/telemetry/telemetry.hpp"
#include "szp/obs/trace_id.hpp"
#include "szp/obs/tracer.hpp"

namespace szp::pipeline {

InlinePipeline::InlinePipeline(Config config) : config_(config) {
  config_.params.validate();
  if (config_.workers == 0) config_.workers = 1;
  if (config_.max_queue == 0) config_.max_queue = 1;
  workers_.reserve(config_.workers);
  for (unsigned w = 0; w < config_.workers; ++w) {
    workers_.emplace_back([this] { worker_loop(); });
  }
}

InlinePipeline::~InlinePipeline() {
  {
    const LockGuard lock(mutex_);
    closing_ = true;
  }
  job_available_.notify_all();
  for (auto& t : workers_) {
    if (t.joinable()) t.join();
  }
  const LockGuard lock(mutex_);
  if (!queue_.empty()) {  // error path: settle the gauge for abandoned jobs
    obs::telemetry::builtins().queue_depth.fetch_sub(
        static_cast<std::int64_t>(queue_.size()), std::memory_order_relaxed);
    queue_.clear();
  }
}

void InlinePipeline::submit(data::Field snapshot,
                            std::optional<double> value_range) {
  UniqueLock lock(mutex_);
  if (finished_) throw format_error("pipeline: submit after finish");
  while (queue_.size() >= config_.max_queue && !closing_) {
    space_available_.wait(lock);
  }
  if (closing_) throw format_error("pipeline: closed");
  Job job;
  job.seq = next_seq_++;
  job.trace_id = obs::ensure_trace_id();
  job.field = std::move(snapshot);
  job.value_range = value_range;
  results_.resize(next_seq_);
  queue_.push_back(std::move(job));
  obs::telemetry::builtins().queue_depth.fetch_add(1,
                                                   std::memory_order_relaxed);
  lock.unlock();
  job_available_.notify_one();
}

std::vector<SnapshotResult> InlinePipeline::finish() {
  {
    const LockGuard lock(mutex_);
    if (finished_) throw format_error("pipeline: finish after finish");
    finished_ = true;
    closing_ = true;
  }
  job_available_.notify_all();
  for (auto& t : workers_) {
    if (t.joinable()) t.join();
  }
  const LockGuard lock(mutex_);
  // On the error path workers exit with jobs still queued; settle the
  // queue-depth gauge for the abandoned ones.
  if (!queue_.empty()) {
    obs::telemetry::builtins().queue_depth.fetch_sub(
        static_cast<std::int64_t>(queue_.size()), std::memory_order_relaxed);
    queue_.clear();
  }
  if (first_error_) std::rethrow_exception(first_error_);
  return std::move(results_);
}

void InlinePipeline::worker_loop() {
  obs::set_thread_name("pipeline-worker");
  // One engine per worker: with the device backend that is one simulated
  // device per worker, as a multi-GPU node would have; with the host
  // backends, one scratch pool (and thread pool) per worker.
  engine::Engine eng({.params = config_.params,
                      .backend = config_.backend,
                      .threads = config_.threads,
                      .streams = std::max(1u, config_.device_streams)});

  // Double-buffer state (device backend only): at most one snapshot in
  // flight per stream of the worker's device. Submitting snapshot k+1's
  // H2D while k's kernel runs is the transfer/compute overlap the stream
  // runtime exists for. `inflight` MUST be quiescent (streams drained)
  // before it goes out of scope — pending ops reference its storage.
  engine::DeviceBackend* devb = eng.device_backend();
  const unsigned lanes =
      devb != nullptr && config_.device_streams >= 2
          ? devb->streams_per_device()
          : 0;  // 0 = synchronous per-job path
  struct Pending {
    size_t seq = 0;
    data::Field field;  // ops read .values until the lane drains
    engine::CompressedStream cs;
  };
  std::vector<std::optional<Pending>> inflight(lanes);
  unsigned next_lane = 0;

  const auto quiesce_lanes = [&] {  // best-effort drain before unwinding
    for (unsigned l = 0; l < lanes; ++l) {
      try {
        devb->stream(0, l).synchronize();
      } catch (...) {  // already unwinding on a prior error
      }
    }
  };
  const auto fail = [&](std::exception_ptr err) {
    quiesce_lanes();
    const LockGuard lock(mutex_);
    if (!first_error_) first_error_ = err;
    closing_ = true;
    job_available_.notify_all();
    space_available_.notify_all();
  };
  // Drain lane l and publish its pending result; throws the lane's error.
  const auto commit = [&](unsigned l) {
    devb->stream(0, l).synchronize();
    Pending& p = *inflight[l];
    SnapshotResult result;
    result.name = p.field.name;
    result.raw_bytes = p.field.size_bytes();
    result.comp_trace = p.cs.trace;
    result.stream = std::move(p.cs.bytes);
    {
      const LockGuard lock(mutex_);
      results_[p.seq] = std::move(result);
    }
    inflight[l].reset();
  };

  for (;;) {
    Job job;
    {
      UniqueLock lock(mutex_);
      while (queue_.empty() && !closing_) job_available_.wait(lock);
      if (queue_.empty()) break;  // closing and drained
      job = std::move(queue_.front());
      queue_.pop_front();
    }
    obs::telemetry::builtins().queue_depth.fetch_sub(
        1, std::memory_order_relaxed);
    space_available_.notify_one();

    // Run the job under its submission-time trace ID: the engine call
    // below adopts it, so stream ops and log records stay attributable
    // to this snapshot.
    const obs::TraceIdScope trace(job.trace_id);
    const obs::Span span(obs::kRequest, "pipeline", "job");
    try {
      if (lanes > 0) {
        const unsigned lane = next_lane;
        next_lane = (next_lane + 1) % lanes;
        if (inflight[lane].has_value()) commit(lane);
        const double eb = eng.eb_abs_for(job.field.values, job.value_range);
        inflight[lane].emplace(
            Pending{job.seq, std::move(job.field), engine::CompressedStream{}});
        devb->submit_compress(0, lane, inflight[lane]->field.values,
                              config_.params, eb, &inflight[lane]->cs);
        continue;
      }
      auto compressed = eng.compress(job.field.values, job.value_range);

      SnapshotResult result;
      result.name = job.field.name;
      result.raw_bytes = job.field.size_bytes();
      result.comp_trace = compressed.trace;
      result.stream = std::move(compressed.bytes);

      const LockGuard lock(mutex_);
      results_[job.seq] = std::move(result);
    } catch (...) {
      fail(std::current_exception());
      return;
    }
  }
  // Closing: flush the in-flight snapshots in lane order.
  for (unsigned l = 0; l < lanes; ++l) {
    const unsigned lane = (next_lane + l) % lanes;
    if (!inflight[lane].has_value()) continue;
    try {
      commit(lane);
    } catch (...) {
      fail(std::current_exception());
      return;
    }
  }
}

}  // namespace szp::pipeline
