#include "szp/obs/hostprof/report.hpp"

#include <cstdio>
#include <fstream>
#include <ostream>
#include <sstream>

#include "szp/obs/json.hpp"

namespace szp::obs::hostprof {

namespace {

constexpr std::array<Bucket, 5> kWorkBuckets = {
    Bucket::kQP, Bucket::kFE, Bucket::kGS, Bucket::kBB, Bucket::kChecksum};
constexpr std::array<Bucket, 3> kOverheadBuckets = {
    Bucket::kQueueWait, Bucket::kDispatch, Bucket::kBarrier};

/// The deterministic section: fixed enum order, integers only.
void json_counters(std::ostream& os, const Snapshot& s) {
  os << "  \"counters\": {\n";
  for (unsigned c = 0; c < kNumHostCounters; ++c) {
    os << "    ";
    write_json_string(os, counter_name(static_cast<HostCounter>(c)));
    os << ": " << s.counters[c] << ",\n";
  }
  os << "    \"chunk_blocks\": ";
  write_json_hist(os, s.chunk_blocks, "    ");
  os << ",\n    \"chunk_payload_bytes\": ";
  write_json_hist(os, s.chunk_payload_bytes, "    ");
  os << "\n  }";
}

void json_bucket_ns(std::ostream& os,
                    const std::array<std::uint64_t, kNumBuckets>& ns) {
  os << '{';
  for (unsigned b = 0; b < kNumBuckets; ++b) {
    os << (b ? ", " : "");
    write_json_string(os, bucket_name(static_cast<Bucket>(b)));
    os << ": " << ns[b];
  }
  os << '}';
}

void json_attribution_pct(std::ostream& os, const Attribution& a) {
  os << '{';
  for (unsigned b = 0; b < kNumBuckets; ++b) {
    write_json_string(os, bucket_name(static_cast<Bucket>(b)));
    os << ": ";
    write_json_number(os, a.pct(static_cast<Bucket>(b)));
    os << ", ";
  }
  os << "\"idle\": ";
  write_json_number(os, a.idle_pct());
  os << '}';
}

void json_thread(std::ostream& os, const ThreadSnapshot& t) {
  const Attribution a = attribution_of(t);
  os << "    {\"tid\": " << t.tid << ", \"label\": ";
  write_json_string(os, t.label);
  os << ", \"alive\": " << (t.alive ? "true" : "false")
     << ", \"wall_ns\": " << t.wall_ns << ", \"tasks\": " << t.tasks
     << ", \"batches\": " << t.batches << ",\n     \"bucket_ns\": ";
  json_bucket_ns(os, t.bucket_ns);
  os << ", \"idle_ns\": " << t.idle_ns << ",\n     \"attribution_pct\": ";
  json_attribution_pct(os, a);
  os << '}';
}

}  // namespace

std::uint64_t Attribution::work_ns() const {
  std::uint64_t n = 0;
  for (const Bucket b : kWorkBuckets) n += bucket(b);
  return n;
}

std::uint64_t Attribution::overhead_ns() const {
  std::uint64_t n = 0;
  for (const Bucket b : kOverheadBuckets) n += bucket(b);
  return n;
}

double Attribution::pct(Bucket b) const {
  return wall_ns == 0 ? 0.0
                      : 100.0 * static_cast<double>(bucket(b)) /
                            static_cast<double>(wall_ns);
}

double Attribution::idle_pct() const {
  return wall_ns == 0 ? 0.0
                      : 100.0 * static_cast<double>(idle_ns) /
                            static_cast<double>(wall_ns);
}

Attribution attribution_of(const ThreadSnapshot& t) {
  Attribution a;
  a.wall_ns = t.wall_ns;
  a.bucket_ns = t.bucket_ns;
  a.idle_ns = t.idle_ns;
  return a;
}

Attribution aggregate_attribution(const Snapshot& s) {
  Attribution a;
  for (const ThreadSnapshot& t : s.threads) {
    a.wall_ns += t.wall_ns;
    a.idle_ns += t.idle_ns;
    for (unsigned b = 0; b < kNumBuckets; ++b) a.bucket_ns[b] += t.bucket_ns[b];
  }
  return a;
}

std::string_view dominant_overhead(const Attribution& a) {
  Bucket best = Bucket::kCount_;
  std::uint64_t best_ns = 0;
  for (const Bucket b : kOverheadBuckets) {
    if (a.bucket(b) > best_ns) {
      best_ns = a.bucket(b);
      best = b;
    }
  }
  return best == Bucket::kCount_ ? std::string_view("none") : bucket_name(best);
}

void write_hostprof_json(std::ostream& os, const Snapshot& s) {
  os << "{\n  \"szp_hostprof_version\": 1,\n";
  json_counters(os, s);
  os << ",\n  \"threads\": [";
  for (std::size_t i = 0; i < s.threads.size(); ++i) {
    os << (i ? ",\n" : "\n");
    json_thread(os, s.threads[i]);
  }
  os << "\n  ],\n";
  const Attribution agg = aggregate_attribution(s);
  os << "  \"summary\": {\n    \"threads\": " << s.threads.size()
     << ",\n    \"wall_ns\": " << agg.wall_ns
     << ",\n    \"work_ns\": " << agg.work_ns()
     << ",\n    \"overhead_ns\": " << agg.overhead_ns()
     << ",\n    \"idle_ns\": " << agg.idle_ns << ",\n    \"work_pct\": ";
  const double wall = static_cast<double>(agg.wall_ns);
  write_json_number(os, wall > 0 ? 100.0 * static_cast<double>(agg.work_ns()) / wall
                           : 0.0);
  os << ",\n    \"overhead_pct\": ";
  write_json_number(
      os, wall > 0 ? 100.0 * static_cast<double>(agg.overhead_ns()) / wall
                   : 0.0);
  os << ",\n    \"idle_pct\": ";
  write_json_number(os, agg.idle_pct());
  os << ",\n    \"attribution_pct\": ";
  json_attribution_pct(os, agg);
  os << ",\n    \"dominant_overhead\": ";
  write_json_string(os, dominant_overhead(agg));
  os << "\n  }\n}\n";
}

bool write_hostprof_json_file(const std::string& path, const Snapshot& s) {
  std::ofstream os(path);
  if (!os) return false;
  write_hostprof_json(os, s);
  os.flush();
  return static_cast<bool>(os);
}

void write_hostprof_text(std::ostream& os, const Snapshot& s) {
  os << "host execution profile (" << s.threads.size() << " lanes)\n";
  char line[256];
  std::snprintf(line, sizeof line,
                "  %-14s %10s %6s |%7s %7s %7s %7s %7s |%7s %7s %7s |%7s\n",
                "lane", "wall ms", "tasks", "qp%", "fe%", "gs%", "bb%", "crc%",
                "wait%", "disp%", "barr%", "idle%");
  os << line;
  const auto row = [&](std::string_view label, const Attribution& a,
                       std::uint64_t tasks) {
    std::snprintf(
        line, sizeof line,
        "  %-14.*s %10.2f %6llu |%7.1f %7.1f %7.1f %7.1f %7.1f |%7.1f "
        "%7.1f %7.1f |%7.1f\n",
        static_cast<int>(label.size()), label.data(),
        static_cast<double>(a.wall_ns) / 1e6,
        static_cast<unsigned long long>(tasks), a.pct(Bucket::kQP),
        a.pct(Bucket::kFE), a.pct(Bucket::kGS), a.pct(Bucket::kBB),
        a.pct(Bucket::kChecksum), a.pct(Bucket::kQueueWait),
        a.pct(Bucket::kDispatch), a.pct(Bucket::kBarrier), a.idle_pct());
    os << line;
  };
  std::uint64_t total_tasks = 0;
  for (const ThreadSnapshot& t : s.threads) {
    const std::string label =
        t.label.empty() ? "lane-" + std::to_string(t.tid) : t.label;
    row(label, attribution_of(t), t.tasks);
    total_tasks += t.tasks;
  }
  const Attribution agg = aggregate_attribution(s);
  row("TOTAL", agg, total_tasks);
  os << "  dominant overhead: " << dominant_overhead(agg)
     << "  (blocks encoded: " << s.counter(HostCounter::kBlocksEncoded)
     << ", chunks: " << s.counter(HostCounter::kChunks)
     << ", false-shared boundaries: "
     << s.counter(HostCounter::kFalseSharedBoundaries) << ")\n";
}

std::string counter_fingerprint(const Snapshot& s) {
  std::ostringstream os;
  os << "{\n  \"szp_hostprof_version\": 1,\n";
  json_counters(os, s);
  os << "\n}\n";
  return os.str();
}

}  // namespace szp::obs::hostprof
