// Device memory buffers and host<->device copies.
//
// Copies across the simulated PCIe boundary are accounted on the device
// trace so the perfmodel can charge them; device-resident access from
// kernels is accounted explicitly by the kernels themselves.
//
// When the owning Device has the sanitizer enabled, every buffer carries
// a BufferShadow (bounds, init bitmap, race cells) and its raw storage is
// bracketed by 0xa5 redzones verified at free. The host-facing accessors
// (data/span/operator[]) report host access while a kernel is in flight;
// kernels go through the checked views in view.hpp. raw_data() is the
// escape hatch for runtime code that declares its accesses separately.
#pragma once

#include <algorithm>
#include <cstring>
#include <memory>
#include <span>
#include <vector>

#include "szp/gpusim/device.hpp"
#include "szp/gpusim/sanitize/checker.hpp"
#include "szp/obs/tracer.hpp"
#include "szp/util/common.hpp"

namespace szp::gpusim {

/// Guard bytes on each side of a sanitized buffer's payload.
inline constexpr size_t kRedzoneBytes = 32;
inline constexpr unsigned char kRedzoneByte = 0xa5;

template <typename T>
class DeviceBuffer {
  static_assert(std::is_trivially_copyable_v<T>);

 public:
  DeviceBuffer() = default;

  DeviceBuffer(Device& dev, size_t n) : dev_(&dev), n_(n) {
    init_storage();
    dev_->register_alloc(n_ * sizeof(T));
  }

  DeviceBuffer(Device& dev, size_t n, T fill) : dev_(&dev), n_(n) {
    init_storage();
    std::fill_n(storage_.data() + rz_, n_, fill);
    if (shadow_ != nullptr) shadow_->mark_init_all();
    dev_->register_alloc(n_ * sizeof(T));
  }

  DeviceBuffer(const DeviceBuffer&) = delete;
  DeviceBuffer& operator=(const DeviceBuffer&) = delete;

  DeviceBuffer(DeviceBuffer&& o) noexcept
      : dev_(o.dev_),
        n_(o.n_),
        rz_(o.rz_),
        storage_(std::move(o.storage_)),
        shadow_(std::move(o.shadow_)),
        bprof_(std::move(o.bprof_)) {
    o.dev_ = nullptr;
    o.n_ = 0;
    o.rz_ = 0;
    o.storage_.clear();
  }
  DeviceBuffer& operator=(DeviceBuffer&& o) noexcept {
    if (this != &o) {
      release();
      dev_ = o.dev_;
      n_ = o.n_;
      rz_ = o.rz_;
      storage_ = std::move(o.storage_);
      shadow_ = std::move(o.shadow_);
      bprof_ = std::move(o.bprof_);
      o.dev_ = nullptr;
      o.n_ = 0;
      o.rz_ = 0;
      o.storage_.clear();
    }
    return *this;
  }

  ~DeviceBuffer() { release(); }

  [[nodiscard]] size_t size() const { return n_; }
  [[nodiscard]] bool empty() const { return n_ == 0; }
  [[nodiscard]] T* data() {
    host_mutable_access();
    return storage_.data() + rz_;
  }
  [[nodiscard]] const T* data() const {
    host_access();
    return storage_.data() + rz_;
  }
  [[nodiscard]] std::span<T> span() { return {data(), n_}; }
  [[nodiscard]] std::span<const T> span() const { return {data(), n_}; }
  [[nodiscard]] T& operator[](size_t i) {
    host_mutable_access();
    return storage_[rz_ + i];
  }
  [[nodiscard]] const T& operator[](size_t i) const {
    host_access();
    return storage_[rz_ + i];
  }

  /// Unchecked payload pointer for runtime code (views, copies, scan
  /// descriptors) that declares its accesses through the shadow itself.
  [[nodiscard]] T* raw_data() { return storage_.data() + rz_; }
  [[nodiscard]] const T* raw_data() const { return storage_.data() + rz_; }

  /// Sanitizer shadow; null when the owning Device runs unchecked.
  [[nodiscard]] const std::shared_ptr<sanitize::BufferShadow>& shadow() const {
    return shadow_;
  }

  /// Profiler traffic record; null when the owning Device runs
  /// unprofiled. Shared with views (like the shadow) so traffic on a
  /// view that outlives the buffer still lands somewhere accountable.
  [[nodiscard]] const std::shared_ptr<profile::BufferProf>& profile() const {
    return bprof_;
  }

  /// Pooled reuse: contents are stale, so drop the init bitmap (reading
  /// a previous lease's data before writing is the defect to catch). The
  /// race cells are dropped too — the lease handoff synchronizes the
  /// previous user's accesses with the next one's even across streams.
  void note_pool_reuse() {
    if (shadow_ != nullptr) {
      shadow_->reset_init();
      shadow_->reset_race();
    }
    if (bprof_ != nullptr) {
      bprof_->pool_reuses.fetch_add(1, std::memory_order_relaxed);
    }
  }

 private:
  void init_storage() {
    if (sanitize::Checker* chk = dev_->checker()) {
      rz_ = (kRedzoneBytes + sizeof(T) - 1) / sizeof(T);
      storage_.assign(n_ + 2 * rz_, T{});
      std::memset(storage_.data(), kRedzoneByte, rz_ * sizeof(T));
      std::memset(storage_.data() + rz_ + n_, kRedzoneByte, rz_ * sizeof(T));
      shadow_ = chk->on_alloc(n_, sizeof(T));
    } else {
      storage_.resize(n_);
    }
    if (profile::Profiler* prof = dev_->profiler()) {
      bprof_ = prof->on_alloc(sizeof(T), n_);
    }
  }

  void host_access() const {
    if (shadow_ != nullptr) shadow_->host_access();
  }

  // A mutable pointer handed to unchecked host code ends the shadow's
  // ability to track individual writes, so conservatively treat the whole
  // buffer as initialized (the same compromise Valgrind makes at syscall
  // boundaries). Checked code paths use raw_data() + views instead and
  // keep cell-precise tracking.
  void host_mutable_access() {
    if (shadow_ != nullptr) {
      shadow_->host_access();
      shadow_->mark_init_all();
    }
  }

  [[nodiscard]] bool redzones_intact() const {
    const auto zone_ok = [&](const T* p) {
      const auto* b = reinterpret_cast<const unsigned char*>(p);
      for (size_t i = 0; i < rz_ * sizeof(T); ++i) {
        if (b[i] != kRedzoneByte) return false;
      }
      return true;
    };
    return zone_ok(storage_.data()) && zone_ok(storage_.data() + rz_ + n_);
  }

  void release() {
    if (dev_ != nullptr) {
      if (shadow_ != nullptr) {
        dev_->checker()->on_free(*shadow_, redzones_intact());
        shadow_.reset();
      }
      if (bprof_ != nullptr) {
        bprof_->freed.store(true, std::memory_order_relaxed);
        bprof_.reset();
      }
      dev_->register_free(n_ * sizeof(T));
    }
    dev_ = nullptr;
  }

  Device* dev_ = nullptr;
  size_t n_ = 0;
  size_t rz_ = 0;  // redzone elements on EACH side (0 when unchecked)
  std::vector<T> storage_;
  std::shared_ptr<sanitize::BufferShadow> shadow_;
  std::shared_ptr<profile::BufferProf> bprof_;
};

/// Host -> device copy (accounted as PCIe traffic).
template <typename T>
void copy_h2d(Device& dev, DeviceBuffer<T>& dst, std::span<const T> src) {
  if (src.size() > dst.size()) throw format_error("copy_h2d: overflow");
  const obs::Span span("memcpy", "h2d", "bytes", src.size() * sizeof(T));
  if (const auto& sh = dst.shadow()) {
    (void)sh->pre_store_range(0, src.size(), nullptr, sanitize::kHostActor);
  }
  // Empty copies are legal no-ops (memcpy with null src/dst is UB).
  if (!src.empty()) {
    std::memcpy(dst.raw_data(), src.data(), src.size() * sizeof(T));
  }
  dev.count([&](Trace& t) { t.add_h2d(src.size() * sizeof(T)); });
  if (profile::Profiler* prof = dev.profiler()) {
    prof->on_memcpy(OpKind::kMemcpyH2D);
  }
}

/// Device -> host copy (accounted as PCIe traffic).
template <typename T>
void copy_d2h(Device& dev, std::span<T> dst, const DeviceBuffer<T>& src,
              size_t count) {
  if (count > src.size() || count > dst.size()) {
    throw format_error("copy_d2h: overflow");
  }
  const obs::Span span("memcpy", "d2h", "bytes", count * sizeof(T));
  if (const auto& sh = src.shadow()) {
    (void)sh->pre_load_range(0, count, nullptr, sanitize::kHostActor);
  }
  if (count != 0) std::memcpy(dst.data(), src.raw_data(), count * sizeof(T));
  dev.count([&](Trace& t) { t.add_d2h(count * sizeof(T)); });
  if (profile::Profiler* prof = dev.profiler()) {
    prof->on_memcpy(OpKind::kMemcpyD2H);
  }
}

/// Device -> device copy.
template <typename T>
void copy_d2d(Device& dev, DeviceBuffer<T>& dst, const DeviceBuffer<T>& src,
              size_t count) {
  if (count > src.size() || count > dst.size()) {
    throw format_error("copy_d2d: overflow");
  }
  const obs::Span span("memcpy", "d2d", "bytes", count * sizeof(T));
  if (const auto& sh = src.shadow()) {
    (void)sh->pre_load_range(0, count, nullptr, sanitize::kHostActor);
  }
  if (const auto& sh = dst.shadow()) {
    (void)sh->pre_store_range(0, count, nullptr, sanitize::kHostActor);
  }
  if (count != 0) std::memcpy(dst.raw_data(), src.raw_data(), count * sizeof(T));
  dev.count([&](Trace& t) { t.add_d2d(count * sizeof(T)); });
  if (profile::Profiler* prof = dev.profiler()) {
    prof->on_memcpy(OpKind::kMemcpyD2D);
  }
}

/// Allocate a device buffer and upload host data into it.
template <typename T>
[[nodiscard]] DeviceBuffer<T> to_device(Device& dev, std::span<const T> src) {
  DeviceBuffer<T> buf(dev, src.size());
  copy_h2d(dev, buf, src);
  return buf;
}

/// Download a full device buffer into a new host vector.
template <typename T>
[[nodiscard]] std::vector<T> to_host(Device& dev, const DeviceBuffer<T>& src) {
  std::vector<T> out(src.size());
  copy_d2h<T>(dev, out, src, src.size());
  return out;
}

/// Download the first `count` elements only. Use this when the logical
/// content is shorter than the allocation (e.g. a compressed stream in a
/// worst-case-sized output buffer): downloading the full buffer would
/// read the uninitialized tail, which memcheck flags.
template <typename T>
[[nodiscard]] std::vector<T> to_host(Device& dev, const DeviceBuffer<T>& src,
                                     size_t count) {
  std::vector<T> out(count);
  copy_d2h<T>(dev, out, src, count);
  return out;
}

/// Run a host-side (CPU) stage over `bytes` bytes; accounted so the
/// perfmodel can charge host time (models cuSZ's Huffman build, cuSZx's
/// host prefix-sum, etc.).
template <typename Fn>
auto host_stage(Device& dev, std::uint64_t bytes, Fn&& fn) {
  dev.count([&](Trace& t) { t.add_host_stage(bytes); });
  return fn();
}

}  // namespace szp::gpusim
