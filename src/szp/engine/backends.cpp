#include "szp/engine/backend.hpp"

#include <algorithm>
#include <string>

#include "szp/gpusim/stream.hpp"
#include "szp/obs/metrics.hpp"
#include "szp/obs/telemetry/flight_recorder.hpp"
#include "szp/obs/telemetry/telemetry.hpp"
#include "szp/obs/tracer.hpp"

namespace szp::engine {

std::string_view backend_name(BackendKind kind) {
  switch (kind) {
    case BackendKind::kSerial: return "serial";
    case BackendKind::kParallelHost: return "parallel";
    case BackendKind::kDevice: return "device";
  }
  return "unknown";
}

BackendKind backend_from_name(std::string_view name) {
  if (name == "serial") return BackendKind::kSerial;
  if (name == "parallel" || name == "parallel-host") {
    return BackendKind::kParallelHost;
  }
  if (name == "device") return BackendKind::kDevice;
  throw format_error("unknown backend '" + std::string(name) +
                     "' (expected serial|parallel|device)");
}

std::unique_ptr<Backend> make_backend(BackendKind kind, unsigned threads,
                                      unsigned devices, unsigned streams) {
  switch (kind) {
    case BackendKind::kSerial: return std::make_unique<SerialBackend>();
    case BackendKind::kParallelHost:
      return std::make_unique<ParallelHostBackend>(threads);
    case BackendKind::kDevice:
      return std::make_unique<DeviceBackend>(devices, streams);
  }
  throw format_error("make_backend: invalid backend kind");
}

std::vector<CompressedStream> Backend::compress_batch(
    std::span<const std::span<const float>> fields, const core::Params& params,
    std::span<const double> eb_abs) {
  std::vector<CompressedStream> out;
  out.reserve(fields.size());
  for (std::size_t i = 0; i < fields.size(); ++i) {
    out.push_back(compress(fields[i], params, eb_abs[i]));
  }
  return out;
}

namespace detail {

void record_compress_call(std::uint64_t in_bytes, std::uint64_t out_bytes) {
  auto& b = obs::telemetry::builtins();
  b.bytes_in.fetch_add(in_bytes, std::memory_order_relaxed);
  b.bytes_out.fetch_add(out_bytes, std::memory_order_relaxed);
  if (!obs::metrics_enabled()) return;
  auto& reg = obs::Registry::instance();
  static auto& calls = reg.counter("szp.compress.calls");
  static auto& in = reg.counter("szp.compress.in_bytes");
  static auto& out = reg.counter("szp.compress.out_bytes");
  static auto& ratio = reg.gauge("szp.compress.last_ratio");
  calls.add();
  in.add(in_bytes);
  out.add(out_bytes);
  if (out_bytes > 0) {
    ratio.set(static_cast<double>(in_bytes) / static_cast<double>(out_bytes));
  }
}

void record_decompress_call(std::uint64_t out_bytes) {
  if (!obs::metrics_enabled()) return;
  auto& reg = obs::Registry::instance();
  static auto& calls = reg.counter("szp.decompress.calls");
  static auto& out = reg.counter("szp.decompress.out_bytes");
  calls.add();
  out.add(out_bytes);
}

void record_request(const char* name, std::uint64_t trace_id) {
  auto& b = obs::telemetry::builtins();
  b.requests.fetch_add(1, std::memory_order_relaxed);
  if (trace_id != 0) {
    b.last_trace_id.store(trace_id, std::memory_order_relaxed);
  }
  obs::fr::record(obs::fr::Kind::kRequest, name);
}

}  // namespace detail

// ------------------------------------------------------ host backends ----

namespace {

template <typename T>
CompressedStream host_compress(std::span<const T> data,
                               const core::Params& params, double eb_abs,
                               core::Executor& exec, ScratchPool& pool) {
  auto lease = pool.acquire();
  CompressedStream out;
  out.bytes = core::compress_host(data, params, eb_abs, exec, lease.scratch());
  return out;
}

}  // namespace

CompressedStream SerialBackend::compress(std::span<const float> data,
                                         const core::Params& params,
                                         double eb_abs) {
  return host_compress(data, params, eb_abs, core::serial_executor(),
                       scratch_);
}

CompressedStream SerialBackend::compress_f64(std::span<const double> data,
                                             const core::Params& params,
                                             double eb_abs) {
  return host_compress(data, params, eb_abs, core::serial_executor(),
                       scratch_);
}

std::vector<float> SerialBackend::decompress(std::span<const byte_t> stream,
                                             gpusim::TraceSnapshot*) {
  auto lease = scratch_.acquire();
  return core::decompress_host(stream, core::serial_executor(),
                               lease.scratch());
}

std::vector<double> SerialBackend::decompress_f64(
    std::span<const byte_t> stream, gpusim::TraceSnapshot*) {
  auto lease = scratch_.acquire();
  return core::decompress_host_f64(stream, core::serial_executor(),
                                   lease.scratch());
}

ParallelHostBackend::ParallelHostBackend(unsigned threads) : pool_(threads) {}

CompressedStream ParallelHostBackend::compress(std::span<const float> data,
                                               const core::Params& params,
                                               double eb_abs) {
  return host_compress(data, params, eb_abs, pool_, scratch_);
}

CompressedStream ParallelHostBackend::compress_f64(
    std::span<const double> data, const core::Params& params, double eb_abs) {
  return host_compress(data, params, eb_abs, pool_, scratch_);
}

std::vector<float> ParallelHostBackend::decompress(
    std::span<const byte_t> stream, gpusim::TraceSnapshot*) {
  auto lease = scratch_.acquire();
  return core::decompress_host(stream, pool_, lease.scratch());
}

std::vector<double> ParallelHostBackend::decompress_f64(
    std::span<const byte_t> stream, gpusim::TraceSnapshot*) {
  auto lease = scratch_.acquire();
  return core::decompress_host_f64(stream, pool_, lease.scratch());
}

// ------------------------------------------------------ device wiring ----

core::DeviceCodecResult device_compress(gpusim::Device& dev,
                                        const gpusim::DeviceBuffer<float>& in,
                                        size_t n, const core::Params& params,
                                        double eb_abs,
                                        gpusim::DeviceBuffer<byte_t>& out) {
  const obs::Span span("api", "compress_on_device", "elements", n);
  const auto res = core::compress_device(dev, in, n, params, eb_abs, out);
  detail::record_compress_call(n * sizeof(float), res.bytes);
  return res;
}

core::DeviceCodecResult device_decompress(
    gpusim::Device& dev, const gpusim::DeviceBuffer<byte_t>& cmp,
    gpusim::DeviceBuffer<float>& out, size_t stream_bytes) {
  const obs::Span span("api", "decompress_on_device", "bytes",
                       stream_bytes != 0 ? stream_bytes : cmp.size());
  const auto res = core::decompress_device(dev, cmp, out, stream_bytes);
  detail::record_decompress_call(res.bytes * sizeof(float));
  return res;
}

core::DeviceCodecResult device_compress_f64(
    gpusim::Device& dev, const gpusim::DeviceBuffer<double>& in, size_t n,
    const core::Params& params, double eb_abs,
    gpusim::DeviceBuffer<byte_t>& out) {
  const obs::Span span("api", "compress_on_device", "elements", n);
  const auto res = core::compress_device_f64(dev, in, n, params, eb_abs, out);
  detail::record_compress_call(n * sizeof(double), res.bytes);
  return res;
}

core::DeviceCodecResult device_decompress_f64(
    gpusim::Device& dev, const gpusim::DeviceBuffer<byte_t>& cmp,
    gpusim::DeviceBuffer<double>& out, size_t stream_bytes) {
  const obs::Span span("api", "decompress_on_device", "bytes",
                       stream_bytes != 0 ? stream_bytes : cmp.size());
  const auto res = core::decompress_device_f64(dev, cmp, out, stream_bytes);
  detail::record_decompress_call(res.bytes * sizeof(double));
  return res;
}

// ------------------------------------------------------ DeviceBackend ----

/// One batch lane: a shard device with its own buffer pools and async
/// streams. Shard 0 borrows the backend's primary device and pools (so
/// batch work warms the same buffers as the single-call API); extra
/// shards own a Device each. Member order matters: `streams` is declared
/// last so stream threads join before the owned device dies.
struct DeviceBackend::Shard {
  std::unique_ptr<gpusim::Device> owned_dev;
  std::unique_ptr<gpusim::BufferPool<float>> owned_f32;
  std::unique_ptr<gpusim::BufferPool<byte_t>> owned_bytes;
  gpusim::Device* dev = nullptr;
  gpusim::BufferPool<float>* f32 = nullptr;
  gpusim::BufferPool<byte_t>* bytes = nullptr;
  std::vector<std::unique_ptr<gpusim::Stream>> streams;
};

DeviceBackend::DeviceBackend(unsigned devices, unsigned streams)
    : f32_(dev_),
      f64_(dev_),
      bytes_(dev_),
      devices_(std::max(1u, devices)),
      streams_(std::max(1u, streams)) {}

DeviceBackend::~DeviceBackend() = default;

void DeviceBackend::ensure_shards() {
  if (!shards_.empty()) return;
  shards_.reserve(devices_);
  for (unsigned d = 0; d < devices_; ++d) {
    auto shard = std::make_unique<Shard>();
    if (d == 0) {
      shard->dev = &dev_;
      shard->f32 = &f32_;
      shard->bytes = &bytes_;
    } else {
      shard->owned_dev = std::make_unique<gpusim::Device>();
      shard->dev = shard->owned_dev.get();
      shard->owned_f32 =
          std::make_unique<gpusim::BufferPool<float>>(*shard->dev);
      shard->f32 = shard->owned_f32.get();
      shard->owned_bytes =
          std::make_unique<gpusim::BufferPool<byte_t>>(*shard->dev);
      shard->bytes = shard->owned_bytes.get();
    }
    shard->dev->set_timeline_enabled(timeline_on_);
    shard->streams.reserve(streams_);
    for (unsigned s = 0; s < streams_; ++s) {
      shard->streams.push_back(std::make_unique<gpusim::Stream>(
          *shard->dev, "d" + std::to_string(d) + ".s" + std::to_string(s)));
    }
    shards_.push_back(std::move(shard));
  }
}

gpusim::Device& DeviceBackend::shard_device(unsigned d) {
  const LockGuard lock(op_mutex_);
  ensure_shards();
  return *shards_.at(d)->dev;
}

gpusim::Stream& DeviceBackend::stream(unsigned d, unsigned s) {
  const LockGuard lock(op_mutex_);
  ensure_shards();
  return *shards_.at(d)->streams.at(s % streams_);
}

void DeviceBackend::set_timeline_enabled(bool on) {
  const LockGuard lock(op_mutex_);
  timeline_on_ = on;
  for (const auto& shard : shards_) shard->dev->set_timeline_enabled(on);
  if (shards_.empty()) dev_.set_timeline_enabled(on);
}

std::vector<std::vector<gpusim::OpRecord>> DeviceBackend::take_timelines() {
  const LockGuard lock(op_mutex_);
  std::vector<std::vector<gpusim::OpRecord>> out;
  if (shards_.empty()) {
    out.push_back(dev_.timeline());
    dev_.clear_timeline();
    return out;
  }
  out.reserve(shards_.size());
  for (const auto& shard : shards_) {
    out.push_back(shard->dev->timeline());
    shard->dev->clear_timeline();
  }
  return out;
}

namespace {

template <typename T>
gpusim::BufferPool<T>& pool_of(DeviceBackend& b) {
  if constexpr (std::is_same_v<T, float>) {
    return b.f32_pool();
  } else {
    return b.f64_pool();
  }
}

/// Shared state of one field's h2d → kernel → d2h op triple. The last op
/// lambda to be destroyed releases the pool leases (on the stream thread,
/// after the d2h retires).
struct AsyncJob {
  gpusim::BufferPool<float>::Lease in;
  gpusim::BufferPool<byte_t>::Lease cmp;
  std::span<const float> data;
  core::DeviceCodecResult res;
};

}  // namespace

void DeviceBackend::submit_compress(unsigned d, unsigned s,
                                    std::span<const float> data,
                                    const core::Params& params, double eb_abs,
                                    CompressedStream* out) {
  ensure_shards();
  Shard& shard = *shards_.at(d % devices_);
  gpusim::Stream& st = *shard.streams.at(s % streams_);
  gpusim::Device* dev = shard.dev;

  auto job = std::make_shared<AsyncJob>();
  job->in = shard.f32->acquire(data.size());
  job->cmp = shard.bytes->acquire(core::max_compressed_bytes(
      data.size(), params.block_len, params.checksum_group_blocks));
  job->data = data;

  st.submit(gpusim::OpKind::kMemcpyH2D, "h2d", [job, dev] {
    gpusim::copy_h2d(*dev, *job->in, job->data);
  });
  st.submit(gpusim::OpKind::kKernel, "szp_compress",
            [job, dev, params, eb_abs] {
              job->res = device_compress(*dev, *job->in, job->data.size(),
                                         params, eb_abs, *job->cmp);
            });
  st.submit(gpusim::OpKind::kMemcpyD2H, "d2h", [job, dev, out] {
    out->trace = job->res.trace;
    out->bytes.resize(job->res.bytes);
    gpusim::copy_d2h<byte_t>(*dev, out->bytes, *job->cmp, job->res.bytes);
  });
}

std::vector<CompressedStream> DeviceBackend::compress_batch(
    std::span<const std::span<const float>> fields, const core::Params& params,
    std::span<const double> eb_abs) {
  // One device, one stream: the async machinery adds nothing — keep the
  // batch on the inline serial path (no stream threads spun up).
  if (devices_ == 1 && streams_ == 1) {
    return Backend::compress_batch(fields, params, eb_abs);
  }
  const LockGuard lock(op_mutex_);
  ensure_shards();

  std::vector<CompressedStream> out(fields.size());
  for (std::size_t i = 0; i < fields.size(); ++i) {
    // Field i -> device i % D, stream (i / D) % S: consecutive fields fan
    // out across devices first, then alternate streams within a device so
    // one field's H2D overlaps the previous field's kernel.
    const unsigned d = static_cast<unsigned>(i % devices_);
    const unsigned s = static_cast<unsigned>((i / devices_) % streams_);
    submit_compress(d, s, fields[i], params, eb_abs[i], &out[i]);
  }

  // Drain every lane; surface the first stream error after all lanes are
  // quiescent (the job shared_ptrs must be released before `out` dies).
  std::exception_ptr first;
  for (const auto& shard : shards_) {
    for (const auto& st : shard->streams) {
      try {
        st->synchronize();
      } catch (...) {
        if (!first) first = std::current_exception();
      }
    }
  }
  if (first) std::rethrow_exception(first);
  return out;
}

template <typename T>
CompressedStream DeviceBackend::compress_impl(std::span<const T> data,
                                              const core::Params& params,
                                              double eb_abs) {
  const LockGuard lock(op_mutex_);
  auto in = pool_of<T>(*this).acquire(data.size());
  gpusim::copy_h2d(dev_, *in, data);
  auto cmp = bytes_.acquire(core::max_compressed_bytes(
      data.size(), params.block_len, params.checksum_group_blocks));
  core::DeviceCodecResult res;
  if constexpr (std::is_same_v<T, float>) {
    res = device_compress(dev_, *in, data.size(), params, eb_abs, *cmp);
  } else {
    res = device_compress_f64(dev_, *in, data.size(), params, eb_abs, *cmp);
  }
  CompressedStream out;
  out.trace = res.trace;
  out.bytes.resize(res.bytes);
  gpusim::copy_d2h<byte_t>(dev_, out.bytes, *cmp, res.bytes);
  return out;
}

template <typename T>
std::vector<T> DeviceBackend::decompress_impl(std::span<const byte_t> stream,
                                              gpusim::TraceSnapshot* trace) {
  const core::Header h = core::Header::deserialize(stream);
  if (h.is_f64() != std::is_same_v<T, double>) {
    throw format_error("DeviceBackend: stream precision mismatch");
  }
  const LockGuard lock(op_mutex_);
  auto cmp = bytes_.acquire(stream.size());
  gpusim::copy_h2d(dev_, *cmp, stream);
  auto out = pool_of<T>(*this).acquire(h.num_elements);
  core::DeviceCodecResult res;
  if constexpr (std::is_same_v<T, float>) {
    res = device_decompress(dev_, *cmp, *out, stream.size());
  } else {
    res = device_decompress_f64(dev_, *cmp, *out, stream.size());
  }
  if (trace != nullptr) *trace = res.trace;
  std::vector<T> host(res.bytes);
  gpusim::copy_d2h<T>(dev_, host, *out, res.bytes);
  return host;
}

CompressedStream DeviceBackend::compress(std::span<const float> data,
                                         const core::Params& params,
                                         double eb_abs) {
  return compress_impl<float>(data, params, eb_abs);
}

CompressedStream DeviceBackend::compress_f64(std::span<const double> data,
                                             const core::Params& params,
                                             double eb_abs) {
  return compress_impl<double>(data, params, eb_abs);
}

std::vector<float> DeviceBackend::decompress(std::span<const byte_t> stream,
                                             gpusim::TraceSnapshot* trace) {
  return decompress_impl<float>(stream, trace);
}

std::vector<double> DeviceBackend::decompress_f64(
    std::span<const byte_t> stream, gpusim::TraceSnapshot* trace) {
  return decompress_impl<double>(stream, trace);
}

}  // namespace szp::engine
