#include "bench.hpp"

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <stdexcept>
#include <string>

namespace perfbench {

namespace {

std::uint64_t now_ns() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          Clock::now().time_since_epoch())
          .count());
}

}  // namespace

double median(std::vector<double> v) { return quantile(std::move(v), 0.5); }

double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<size_t>(pos);
  const size_t hi = std::min(lo + 1, v.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return v[lo] + (v[hi] - v[lo]) * frac;
}

void Throughput::add(size_t item, double bytes, double seconds) {
  Item& it = items_[item];
  it.bytes = bytes;
  it.seconds.push_back(seconds);
}

double Throughput::gbps() const {
  double bytes = 0, seconds = 0;
  for (const auto& [id, it] : items_) {
    bytes += it.bytes;
    seconds += *std::min_element(it.seconds.begin(), it.seconds.end());
  }
  return seconds > 0 ? bytes / seconds / 1e9 : 0;
}

size_t Throughput::calls() const {
  size_t n = 0;
  for (const auto& [id, it] : items_) n += it.seconds.size();
  return n;
}

void reset_peak_rss() {
  std::ofstream os("/proc/self/clear_refs");
  os << "5";  // 5: reset the peak RSS to the current RSS
  os.close();
  if (!os) throw std::runtime_error("cannot reset the peak RSS");
}

double peak_rss_mb() {
  std::ifstream is("/proc/self/status");
  std::string line;
  while (std::getline(is, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;  // kB -> MB
    }
  }
  throw std::runtime_error("no VmHWM in /proc/self/status");
}

// ------------------------------------------------------------- spans ----

SpanLog& spans() {
  static SpanLog log;
  return log;
}

int SpanLog::begin(const char* name) {
  if (!enabled_) return -1;
  records_.push_back(Record{name, open_, now_ns(), 0});
  open_ = static_cast<int>(records_.size() - 1);
  return open_;
}

void SpanLog::end(int id) {
  if (id < 0) return;
  records_[static_cast<size_t>(id)].t1_ns = now_ns();
  open_ = records_[static_cast<size_t>(id)].parent;
}

std::vector<SpanLog::SelfTime> SpanLog::self_times() const {
  std::vector<double> child_s(records_.size(), 0.0);
  for (const auto& r : records_) {
    if (r.parent >= 0 && r.t1_ns != 0) {
      child_s[static_cast<size_t>(r.parent)] +=
          static_cast<double>(r.t1_ns - r.t0_ns) * 1e-9;
    }
  }
  std::map<std::string, SelfTime> by_name;
  for (size_t i = 0; i < records_.size(); ++i) {
    const Record& r = records_[i];
    if (r.t1_ns == 0) continue;
    SelfTime& s = by_name[r.name];
    s.name = r.name;
    const double d = static_cast<double>(r.t1_ns - r.t0_ns) * 1e-9;
    s.count += 1;
    s.total_s += d;
    s.self_s += d - child_s[i];
  }
  std::vector<SelfTime> out;
  for (auto& [name, s] : by_name) out.push_back(s);
  std::sort(out.begin(), out.end(), [](const SelfTime& a, const SelfTime& b) {
    return a.self_s > b.self_s;
  });
  return out;
}

void SpanLog::write_chrome_trace(const std::string& path) const {
  std::ofstream os(path);
  if (!os) return;
  os << "{\"traceEvents\":[";
  const std::uint64_t base = records_.empty() ? 0 : records_.front().t0_ns;
  bool first = true;
  for (const auto& r : records_) {
    if (r.t1_ns == 0) continue;
    os << (first ? "" : ",") << "\n{\"name\":\"" << r.name
       << "\",\"ph\":\"X\",\"pid\":1,\"tid\":1,\"ts\":"
       << static_cast<double>(r.t0_ns - base) * 1e-3
       << ",\"dur\":" << static_cast<double>(r.t1_ns - r.t0_ns) * 1e-3 << "}";
    first = false;
  }
  os << "\n]}\n";
}

// ---------------------------------------------------------- accounting ----

void Ledger::note_failure(const char* what, const char* why) {
  std::fprintf(stderr, "perfbench: FAILED %s: %s\n", what, why);
}

// -------------------------------------------------------------- canary ----

namespace {
constexpr size_t kCanaryBytes = size_t{32} << 20;
constexpr std::uint64_t kCanaryScalarIters = 20'000'000;
}  // namespace

void Canary::sample() {
  // Filled before the clock starts, so first-touch faults stay untimed.
  std::vector<unsigned char> src(kCanaryBytes, 1), dst(kCanaryBytes, 0);
  const auto t0 = Clock::now();
  for (int rep = 0; rep < 4; ++rep) {
    src[static_cast<size_t>(rep)] = static_cast<unsigned char>(rep);
    std::memcpy(dst.data(), src.data(), src.size());
  }
  copy_gbps_.push_back(4.0 * static_cast<double>(kCanaryBytes) /
                       seconds_since(t0) / 1e9);
  if (dst[3] != 3) std::abort();  // keeps the copies observable

  // A serial xorshift chain: one dependent multiply/shift per step, no
  // memory traffic, so it tracks core clock speed alone.
  const auto t1 = Clock::now();
  std::uint64_t x = 0x9e3779b97f4a7c15ULL + copy_gbps_.size();
  for (std::uint64_t i = 0; i < kCanaryScalarIters; ++i) {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
  }
  scalar_mops_.push_back(static_cast<double>(kCanaryScalarIters) /
                         seconds_since(t1) / 1e6);
  if (x == 0) std::abort();  // never true for a non-zero xorshift state
}

}  // namespace perfbench
