#include "szp/engine/engine.hpp"

#include <algorithm>
#include <chrono>
#include <cstddef>

#include "szp/obs/log.hpp"
#include "szp/obs/tracer.hpp"

namespace szp::engine {

namespace {

using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

template <typename T>
double resolve_range(std::span<const T> data, const core::Params& params,
                     std::optional<double> value_range) {
  if (params.mode == core::ErrorMode::kAbs) return 0;
  return value_range ? *value_range : core::value_range_of(data);
}

}  // namespace

Engine::Engine(EngineConfig cfg) : cfg_(cfg) {
  cfg_.params.validate();
  backend_ =
      make_backend(cfg_.backend, cfg_.threads, cfg_.devices, cfg_.streams);
}

gpusim::Device& Engine::device() {
  if (auto* dev = device_backend()) {
    return dev->device();
  }
  throw format_error("Engine: no device (backend is " +
                     std::string(backend_name(backend_->kind())) + ")");
}

DeviceBackend* Engine::device_backend() {
  return dynamic_cast<DeviceBackend*>(backend_.get());
}

double Engine::eb_abs_for(std::span<const float> data,
                          std::optional<double> value_range) const {
  return core::resolve_eb(cfg_.params,
                          resolve_range(data, cfg_.params, value_range));
}

double Engine::eb_abs_for(std::span<const double> data,
                          std::optional<double> value_range) const {
  return core::resolve_eb(cfg_.params,
                          resolve_range(data, cfg_.params, value_range));
}

CompressedStream Engine::compress(std::span<const float> data,
                                  std::optional<double> value_range) {
  // Each entry point establishes a request/trace ID (adopting the
  // caller's if one is ambient) before opening its span, so the span
  // (and everything downstream — stream ops, log records) carries it.
  const obs::TraceIdScope trace(obs::ensure_trace_id());
  const obs::Span span(obs::kRequest, "api", "compress", "elements",
                       data.size());
  auto out = backend_->compress(data, cfg_.params,
                                eb_abs_for(data, value_range));
  // The device path records inside device_compress (shared with the
  // resident-buffer entry points); host paths record here.
  if (backend_->kind() != BackendKind::kDevice) {
    detail::record_compress_call(data.size() * sizeof(float),
                                 out.bytes.size());
  }
  detail::record_request("compress", trace.id());
  SZP_LOG_DEBUG("engine", "compress %zu elements -> %zu bytes", data.size(),
                out.bytes.size());
  return out;
}

CompressedStream Engine::compress_f64(std::span<const double> data,
                                      std::optional<double> value_range) {
  const obs::TraceIdScope trace(obs::ensure_trace_id());
  const obs::Span span(obs::kRequest, "api", "compress_f64", "elements",
                       data.size());
  auto out = backend_->compress_f64(data, cfg_.params,
                                    eb_abs_for(data, value_range));
  if (backend_->kind() != BackendKind::kDevice) {
    detail::record_compress_call(data.size() * sizeof(double),
                                 out.bytes.size());
  }
  detail::record_request("compress_f64", trace.id());
  SZP_LOG_DEBUG("engine", "compress_f64 %zu elements -> %zu bytes",
                data.size(), out.bytes.size());
  return out;
}

std::vector<float> Engine::decompress(std::span<const byte_t> stream) {
  const obs::TraceIdScope trace(obs::ensure_trace_id());
  const obs::Span span(obs::kRequest, "api", "decompress", "bytes",
                       stream.size());
  auto out = backend_->decompress(stream);
  if (backend_->kind() != BackendKind::kDevice) {
    detail::record_decompress_call(out.size() * sizeof(float));
  }
  detail::record_request("decompress", trace.id());
  SZP_LOG_DEBUG("engine", "decompress %zu bytes -> %zu elements",
                stream.size(), out.size());
  return out;
}

std::vector<double> Engine::decompress_f64(std::span<const byte_t> stream) {
  const obs::TraceIdScope trace(obs::ensure_trace_id());
  const obs::Span span(obs::kRequest, "api", "decompress_f64", "bytes",
                       stream.size());
  auto out = backend_->decompress_f64(stream);
  if (backend_->kind() != BackendKind::kDevice) {
    detail::record_decompress_call(out.size() * sizeof(double));
  }
  detail::record_request("decompress_f64", trace.id());
  SZP_LOG_DEBUG("engine", "decompress_f64 %zu bytes -> %zu elements",
                stream.size(), out.size());
  return out;
}

std::vector<CompressedStream> Engine::compress_batch(
    std::span<const std::span<const float>> fields,
    std::optional<double> shared_value_range) {
  // One trace ID for the whole batch: the stream lanes adopt it when
  // executing the ops submitted below, so the request is followable
  // across engine → stream threads.
  const obs::TraceIdScope trace(obs::ensure_trace_id());
  const obs::Span span(obs::kRequest, "api", "compress_batch", "fields",
                       fields.size());
  std::vector<double> ebs(fields.size());
  for (std::size_t i = 0; i < fields.size(); ++i) {
    ebs[i] = eb_abs_for(fields[i], shared_value_range);
  }
  auto out = backend_->compress_batch(fields, cfg_.params, ebs);
  // The device path records per field inside device_compress (on the
  // stream threads, for the async batch); host paths record here.
  if (backend_->kind() != BackendKind::kDevice) {
    for (std::size_t i = 0; i < fields.size(); ++i) {
      detail::record_compress_call(fields[i].size() * sizeof(float),
                                   out[i].bytes.size());
    }
  }
  detail::record_request("compress_batch", trace.id());
  SZP_LOG_DEBUG("engine", "compress_batch %zu fields", fields.size());
  return out;
}

DeviceRoundtrip Engine::device_roundtrip(std::span<const float> data,
                                         std::optional<double> value_range,
                                         bool keep_stream) {
  auto* dev_backend = dynamic_cast<DeviceBackend*>(backend_.get());
  if (dev_backend == nullptr) {
    throw format_error("Engine: device_roundtrip needs the device backend");
  }
  const obs::TraceIdScope trace(obs::ensure_trace_id());
  const obs::Span request(obs::kRequest, "api", "device_roundtrip",
                          "elements", data.size());
  const LockGuard lock(dev_backend->op_mutex());
  gpusim::Device& dev = dev_backend->device();
  const size_t n = data.size();

  DeviceRoundtrip r;
  r.eb_abs = eb_abs_for(data, value_range);
  // Launches archived before this roundtrip belong to earlier operations
  // on the pooled device; slice them off the profile below.
  const size_t profile_launch0 =
      dev.profiler() != nullptr ? dev.profiler()->launch_count() : 0;

  auto d_in = dev_backend->f32_pool().acquire(std::max<size_t>(1, n));
  gpusim::copy_h2d(dev, *d_in, data);
  auto d_cmp = dev_backend->byte_pool().acquire(core::max_compressed_bytes(
      n, cfg_.params.block_len, cfg_.params.checksum_group_blocks));
  auto d_out = dev_backend->f32_pool().acquire(std::max<size_t>(1, n));

  {
    // Same lane span timed_phase used to emit, so sweep traces keep the
    // harness/compress → kernel nesting.
    const obs::Span span("harness", "compress", "elements", n);
    const auto t0 = Clock::now();
    const auto cres =
        device_compress(dev, *d_in, n, cfg_.params, r.eb_abs, *d_cmp);
    r.wall_comp_s = seconds_since(t0);
    r.compressed_bytes = cres.bytes;
    r.comp_trace = cres.trace;
  }
  {
    const obs::Span span("harness", "decompress", "bytes",
                         r.compressed_bytes);
    const auto t0 = Clock::now();
    const auto dres =
        device_decompress(dev, *d_cmp, *d_out, r.compressed_bytes);
    r.wall_decomp_s = seconds_since(t0);
    r.decomp_trace = dres.trace;
  }

  r.reconstruction.resize(n);
  gpusim::copy_d2h<float>(dev, r.reconstruction, *d_out, n);
  if (keep_stream) {
    r.stream.resize(r.compressed_bytes);
    gpusim::copy_d2h<byte_t>(dev, r.stream, *d_cmp, r.compressed_bytes);
  }
  if (dev.profiler() != nullptr) {
    auto session = dev.profile_snapshot();
    session.launches.erase(
        session.launches.begin(),
        session.launches.begin() +
            static_cast<std::ptrdiff_t>(
                std::min(profile_launch0, session.launches.size())));
    r.profile = std::move(session);
  }
  detail::record_request("device_roundtrip", trace.id());
  SZP_LOG_DEBUG("engine", "device_roundtrip %zu elements -> %zu bytes", n,
                r.compressed_bytes);
  return r;
}

}  // namespace szp::engine
