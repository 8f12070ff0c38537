#include "szp/obs/metrics.hpp"

#include <algorithm>
#include <iomanip>
#include <map>
#include <ostream>

#include "szp/obs/json.hpp"
#include "szp/obs/tracer.hpp"
#include "szp/util/thread_annotations.hpp"

namespace szp::obs {

namespace {

/// Relaxed fetch-add for atomic<double> (no hardware fetch_add pre-C++20
/// on all targets; CAS loop is fine off the fast path).
void atomic_add(std::atomic<double>& a, double v) {
  double cur = a.load(std::memory_order_relaxed);
  while (!a.compare_exchange_weak(cur, cur + v, std::memory_order_relaxed)) {
  }
}

void atomic_min(std::atomic<double>& a, double v) {
  double cur = a.load(std::memory_order_relaxed);
  while (v < cur &&
         !a.compare_exchange_weak(cur, v, std::memory_order_relaxed)) {
  }
}

void atomic_max(std::atomic<double>& a, double v) {
  double cur = a.load(std::memory_order_relaxed);
  while (v > cur &&
         !a.compare_exchange_weak(cur, v, std::memory_order_relaxed)) {
  }
}

}  // namespace

Histogram::Histogram(std::vector<double> upper_bounds)
    : bounds_(std::move(upper_bounds)), buckets_(bounds_.size() + 1) {
  if (bounds_.empty()) bounds_.push_back(1.0);
  if (!std::is_sorted(bounds_.begin(), bounds_.end())) {
    std::sort(bounds_.begin(), bounds_.end());
  }
  if (buckets_.size() != bounds_.size() + 1) {
    // bounds_ may have grown by the empty-guard above.
    std::vector<std::atomic<std::uint64_t>> b(bounds_.size() + 1);
    buckets_.swap(b);
  }
}

std::vector<double> Histogram::linear_bounds(double lo, double hi,
                                             std::size_t n) {
  std::vector<double> b;
  b.reserve(std::max<std::size_t>(1, n));
  const double step = n > 0 ? (hi - lo) / static_cast<double>(n) : (hi - lo);
  for (std::size_t i = 1; i <= std::max<std::size_t>(1, n); ++i) {
    b.push_back(lo + step * static_cast<double>(i));
  }
  return b;
}

std::vector<double> Histogram::pow2_bounds(std::size_t n) {
  std::vector<double> b;
  b.reserve(std::max<std::size_t>(1, n));
  double v = 1.0;
  for (std::size_t i = 0; i < std::max<std::size_t>(1, n); ++i) {
    b.push_back(v);
    v *= 2.0;
  }
  return b;
}

void Histogram::observe(double v) {
  if (!metrics_enabled()) return;
  const auto it = std::upper_bound(bounds_.begin(), bounds_.end(), v);
  const auto idx = static_cast<std::size_t>(it - bounds_.begin());
  buckets_[idx].fetch_add(1, std::memory_order_relaxed);
  const std::uint64_t prev = count_.fetch_add(1, std::memory_order_relaxed);
  atomic_add(sum_, v);
  if (prev == 0) {
    // First observation seeds min/max; racing observers still converge
    // through the CAS loops below.
    min_.store(v, std::memory_order_relaxed);
    max_.store(v, std::memory_order_relaxed);
  }
  atomic_min(min_, v);
  atomic_max(max_, v);
}

double Histogram::quantile(double q) const {
  const std::uint64_t total = count();
  if (total == 0) return 0.0;
  q = std::clamp(q, 0.0, 1.0);
  // Rank of the target observation (1-based, nearest-rank with
  // interpolation below): rank r falls in the first bucket whose
  // cumulative count reaches it.
  const double rank = q * static_cast<double>(total);
  std::uint64_t cum = 0;
  for (std::size_t i = 0; i < buckets_.size(); ++i) {
    const std::uint64_t n = buckets_[i].load(std::memory_order_relaxed);
    if (n == 0) continue;
    if (static_cast<double>(cum + n) >= rank) {
      // Bucket edges; the open-ended first/last buckets borrow the
      // tracked extrema so the interpolation stays finite.
      double lo = i == 0 ? min() : bounds_[i - 1];
      double hi = i == bounds_.size() ? max() : bounds_[i];
      lo = std::max(lo, min());
      hi = std::min(hi, max());
      if (hi < lo) hi = lo;
      const double frac =
          (rank - static_cast<double>(cum)) / static_cast<double>(n);
      return std::clamp(lo + (hi - lo) * std::clamp(frac, 0.0, 1.0), min(),
                        max());
    }
    cum += n;
  }
  return max();
}

void Histogram::reset() {
  for (auto& b : buckets_) b.store(0, std::memory_order_relaxed);
  count_.store(0, std::memory_order_relaxed);
  sum_.store(0, std::memory_order_relaxed);
  min_.store(0, std::memory_order_relaxed);
  max_.store(0, std::memory_order_relaxed);
}

struct Registry::Impl {
  mutable Mutex mutex;
  std::map<std::string, std::unique_ptr<Counter>, std::less<>> counters
      SZP_GUARDED_BY(mutex);
  std::map<std::string, std::unique_ptr<Gauge>, std::less<>> gauges
      SZP_GUARDED_BY(mutex);
  std::map<std::string, std::unique_ptr<Histogram>, std::less<>> histograms
      SZP_GUARDED_BY(mutex);
};

Registry& Registry::instance() {
  static Registry* r = new Registry();  // leaked: usable from exit handlers
  return *r;
}

Registry::Impl& Registry::impl() const {
  static Impl* i = new Impl();
  return *i;
}

Counter& Registry::counter(std::string_view name) {
  Impl& im = impl();
  const LockGuard lock(im.mutex);
  auto it = im.counters.find(name);
  if (it == im.counters.end()) {
    it = im.counters.emplace(std::string(name), std::make_unique<Counter>())
             .first;
  }
  return *it->second;
}

Gauge& Registry::gauge(std::string_view name) {
  Impl& im = impl();
  const LockGuard lock(im.mutex);
  auto it = im.gauges.find(name);
  if (it == im.gauges.end()) {
    it = im.gauges.emplace(std::string(name), std::make_unique<Gauge>()).first;
  }
  return *it->second;
}

Histogram& Registry::histogram(std::string_view name,
                               std::vector<double> bounds) {
  Impl& im = impl();
  const LockGuard lock(im.mutex);
  auto it = im.histograms.find(name);
  if (it == im.histograms.end()) {
    it = im.histograms
             .emplace(std::string(name),
                      std::make_unique<Histogram>(std::move(bounds)))
             .first;
  }
  return *it->second;
}

const Counter* Registry::find_counter(std::string_view name) const {
  Impl& im = impl();
  const LockGuard lock(im.mutex);
  const auto it = im.counters.find(name);
  return it == im.counters.end() ? nullptr : it->second.get();
}

const Gauge* Registry::find_gauge(std::string_view name) const {
  Impl& im = impl();
  const LockGuard lock(im.mutex);
  const auto it = im.gauges.find(name);
  return it == im.gauges.end() ? nullptr : it->second.get();
}

const Histogram* Registry::find_histogram(std::string_view name) const {
  Impl& im = impl();
  const LockGuard lock(im.mutex);
  const auto it = im.histograms.find(name);
  return it == im.histograms.end() ? nullptr : it->second.get();
}

void Registry::for_each_counter(
    const std::function<void(const std::string&, const Counter&)>& fn) const {
  Impl& im = impl();
  const LockGuard lock(im.mutex);
  for (const auto& [name, c] : im.counters) fn(name, *c);
}

void Registry::for_each_gauge(
    const std::function<void(const std::string&, const Gauge&)>& fn) const {
  Impl& im = impl();
  const LockGuard lock(im.mutex);
  for (const auto& [name, g] : im.gauges) fn(name, *g);
}

void Registry::for_each_histogram(
    const std::function<void(const std::string&, const Histogram&)>& fn)
    const {
  Impl& im = impl();
  const LockGuard lock(im.mutex);
  for (const auto& [name, h] : im.histograms) fn(name, *h);
}

void Registry::reset() {
  Impl& im = impl();
  const LockGuard lock(im.mutex);
  for (auto& [name, c] : im.counters) c->reset();
  for (auto& [name, g] : im.gauges) g->reset();
  for (auto& [name, h] : im.histograms) h->reset();
}

void Registry::write_json(std::ostream& os) const {
  Impl& im = impl();
  const LockGuard lock(im.mutex);
  os << "{\n  \"counters\": {";
  bool first = true;
  for (const auto& [name, c] : im.counters) {
    os << (first ? "\n    " : ",\n    ");
    write_json_string(os, name);
    os << ": " << c->value();
    first = false;
  }
  os << "\n  },\n  \"gauges\": {";
  first = true;
  for (const auto& [name, g] : im.gauges) {
    if (!g->has_value()) continue;
    os << (first ? "\n    " : ",\n    ");
    write_json_string(os, name);
    os << ": " << g->value();
    first = false;
  }
  os << "\n  },\n  \"histograms\": {";
  first = true;
  for (const auto& [name, h] : im.histograms) {
    os << (first ? "\n    " : ",\n    ");
    write_json_string(os, name);
    os << ": {\"count\": " << h->count() << ", \"sum\": " << h->sum()
       << ", \"min\": " << h->min() << ", \"max\": " << h->max()
       << ", \"p50\": " << h->quantile(0.50)
       << ", \"p90\": " << h->quantile(0.90)
       << ", \"p99\": " << h->quantile(0.99) << ", \"bounds\": [";
    for (std::size_t i = 0; i < h->bounds().size(); ++i) {
      os << (i ? ", " : "") << h->bounds()[i];
    }
    os << "], \"buckets\": [";
    for (std::size_t i = 0; i < h->num_buckets(); ++i) {
      os << (i ? ", " : "") << h->bucket_count(i);
    }
    os << "]}";
    first = false;
  }
  // Tracer ring health rides along so a stats dump records whether the
  // companion trace (if any) is complete or has wrap-around holes.
  os << "\n  },\n  \"tracer\": {\"events\": " << Tracer::instance().event_count()
     << ", \"dropped_events\": " << Tracer::instance().dropped_events()
     << "}\n}\n";
}

void Registry::write_text(std::ostream& os) const {
  Impl& im = impl();
  const LockGuard lock(im.mutex);
  for (const auto& [name, c] : im.counters) {
    if (c->value() == 0) continue;
    os << "  " << std::left << std::setw(36) << name << ' ' << c->value()
       << '\n';
  }
  for (const auto& [name, g] : im.gauges) {
    if (!g->has_value()) continue;
    os << "  " << std::left << std::setw(36) << name << ' ' << g->value()
       << '\n';
  }
  for (const auto& [name, h] : im.histograms) {
    if (h->count() == 0) continue;
    os << "  " << std::left << std::setw(36) << name << " count="
       << h->count() << " mean=" << h->mean() << " p50=" << h->quantile(0.50)
       << " p90=" << h->quantile(0.90) << " p99=" << h->quantile(0.99)
       << " min=" << h->min() << " max=" << h->max() << "\n    buckets:";
    for (std::size_t i = 0; i < h->num_buckets(); ++i) {
      const std::uint64_t n = h->bucket_count(i);
      if (n == 0) continue;
      os << ' ';
      if (i == 0) {
        os << "(-inf," << h->bounds()[0] << ")";
      } else if (i == h->bounds().size()) {
        os << "[" << h->bounds().back() << ",inf)";
      } else {
        os << "[" << h->bounds()[i - 1] << ',' << h->bounds()[i] << ")";
      }
      os << '=' << n;
    }
    os << '\n';
  }
  if (const std::uint64_t dropped = Tracer::instance().dropped_events();
      dropped > 0) {
    os << "  " << std::left << std::setw(36) << "tracer.dropped_events" << ' '
       << dropped << "  (WARNING: trace rings wrapped; spans were lost)\n";
  }
}

}  // namespace szp::obs
