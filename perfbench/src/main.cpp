// perfbench: the repository benchmark.
//
//   perfbench --workload <bulk_snapshot|field_batch|archive_query>
//             --seed <n> --seconds <s> --trace <0|1> [--trace-out <path>]
//
// --trace 0 measures the end-to-end metrics with the benchmark's spans
// off; --trace 1 records spans, measures every layer and prints the
// per-layer metrics instead. The last line of stdout is one JSON object:
// {"correct", "attempted", "failed", "metrics": {name: {value, unit}}}.
// See perfbench/README.md.

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "bench.hpp"
#include "layers.hpp"
#include "workloads.hpp"

namespace perfbench {
namespace {

// Set-up repetitions per run, spread over the measured rounds; setup_s is
// their median. Each builds a fresh workload (generation and engines) and
// runs between two rounds, so its samples take the host's drift over the
// same stretch of time as the round samples do. The workload's own first
// set-up page-faults fresh memory and is not one of them.
constexpr size_t kSetupReps = 5;
// Canary samples per run, spread over the measured rounds the same way.
constexpr size_t kCanarySamples = 12;
// Measured rounds per run, at least.
constexpr unsigned kMinRounds = 3;
// p99 is taken per window of this many consecutive queries, so that ten
// samples lie beyond it in every window; query_p99_us is the lower
// quartile of the windows' p99. A stretch of host contention then spoils
// the windows it falls in, and moves the figure only when it covers
// three quarters of the run.
constexpr size_t kTailWindow = 1000;

struct Args {
  std::string workload;
  std::uint64_t seed = 0;
  double seconds = 0;
  bool trace = false;
  std::string trace_out;
};

bool parse_args(int argc, char** argv, Args& a) {
  bool have_seed = false, have_seconds = false, have_trace = false;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const char* val = argv[i + 1];
    char* end = nullptr;
    if (key == "--workload") {
      a.workload = val;
    } else if (key == "--seed") {
      a.seed = std::strtoull(val, &end, 10);
      have_seed = end != val && *end == '\0';
    } else if (key == "--seconds") {
      a.seconds = std::strtod(val, &end);
      have_seconds = end != val && *end == '\0' && a.seconds > 0;
    } else if (key == "--trace") {
      a.trace = std::strcmp(val, "1") == 0;
      have_trace = a.trace || std::strcmp(val, "0") == 0;
    } else if (key == "--trace-out") {
      a.trace_out = val;
    } else {
      return false;
    }
  }
  return argc % 2 == 1 && !a.workload.empty() && have_seed && have_seconds &&
         have_trace;
}

void print_table(const char* title, const std::vector<Metric>& metrics) {
  std::printf("%s\n", title);
  for (const auto& m : metrics) {
    std::printf("  %-34s %14.6g %-14s %s\n", m.name.c_str(), m.value,
                m.unit.c_str(), m.note.c_str());
  }
}

void print_json(const Ledger& ledger, const std::vector<Metric>& metrics) {
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": {",
              ledger.failed == 0 ? "true" : "false",
              static_cast<unsigned long long>(ledger.attempted),
              static_cast<unsigned long long>(ledger.failed));
  for (size_t i = 0; i < metrics.size(); ++i) {
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                i == 0 ? "" : ", ", metrics[i].name.c_str(), metrics[i].value,
                metrics[i].unit.c_str());
  }
  std::printf("}}\n");
}

/// p99 of each window of kTailWindow consecutive samples (the last window
/// takes the remainder); none when there are too few samples.
std::vector<double> window_p99s(const std::vector<double>& q) {
  const size_t windows = q.size() / kTailWindow;
  std::vector<double> p99s;
  for (size_t i = 0; i < windows; ++i) {
    const auto begin = q.begin() + static_cast<std::ptrdiff_t>(i * kTailWindow);
    const auto end = i + 1 == windows
                         ? q.end()
                         : begin + static_cast<std::ptrdiff_t>(kTailWindow);
    p99s.push_back(quantile(std::vector<double>(begin, end), 0.99));
  }
  return p99s;
}

std::string quantile_note(const std::vector<double>& v) {
  char buf[96];
  std::snprintf(buf, sizeof buf, "median of %zu samples, quartiles %.4g-%.4g",
                v.size(), quantile(v, 0.25), quantile(v, 0.75));
  return buf;
}

std::string throughput_note(const Throughput& t) {
  char buf[96];
  std::snprintf(buf, sizeof buf,
                "bytes / fastest call time of %zu items, %zu calls", t.items(),
                t.calls());
  return buf;
}

int run(const Args& a) {
  auto w = make_workload(a.workload);
  if (!w) {
    std::fprintf(stderr, "perfbench: unknown workload '%s'\n",
                 a.workload.c_str());
    return 2;
  }

  std::vector<double> setup_s, generate_s;
  const auto setup_rep = [&] {
    auto fresh = make_workload(a.workload);
    const auto t0 = Clock::now();
    generate_s.push_back(fresh->setup(a.seed));
    setup_s.push_back(seconds_since(t0));
  };
  auto t0 = Clock::now();
  const double first_generate_s = w->setup(a.seed);
  const double first_setup_s = seconds_since(t0);

  Canary canary;
  Ledger ledger;
  szp::Rng rng(a.seed ^ 0x5eed0f0ffe75ULL);  // batch order, query offsets
  {
    // Warm-up round: pools fill and lazy set-up finishes before timing.
    Samples discard;
    RoundStats warm;
    w->round(rng, ledger, discard, warm);
  }

  // In the traced run every other round records spans, so the span cost
  // shows as the difference between the two halves.
  Samples samples;
  RoundStats stats;
  std::vector<double> wall_traced, wall_plain;
  const PoolCounts pools0 = scratch_counts(w->engines());
  const double budget = a.trace ? a.seconds / 2 : a.seconds;
  // Peak resident set of the rounds alone: the canary's buffers and the
  // set-up repetitions come and go between rounds, outside it.
  double peak_mb = 0;
  double rounds_s = 0;  // measured round time, set-ups and canary excluded
  // Whether the next of `count` events spread evenly over the measured
  // round time is due, `done` of them having run.
  const auto due = [&](size_t done, size_t count) {
    return done < count && static_cast<double>(done) <=
                               static_cast<double>(count) * rounds_s / budget;
  };
  for (unsigned i = 0; i < kMinRounds || rounds_s < budget; ++i) {
    if (due(canary.samples(), kCanarySamples)) canary.sample();
    if (due(setup_s.size(), kSetupReps)) setup_rep();
    reset_peak_rss();
    const bool traced = a.trace && i % 2 == 0;
    spans().set_enabled(traced);
    stats = RoundStats{};
    t0 = Clock::now();
    w->round(rng, ledger, samples, stats);
    const double wall = seconds_since(t0);
    spans().set_enabled(false);
    (traced ? wall_traced : wall_plain).push_back(wall);
    rounds_s += wall;
    peak_mb = std::max(peak_mb, peak_rss_mb());
  }
  const PoolCounts pools1 = scratch_counts(w->engines());
  while (setup_s.size() < kSetupReps) setup_rep();
  while (canary.samples() < kCanarySamples) canary.sample();

  std::vector<Metric> metrics;
  if (!a.trace) {
    char first[64];
    std::snprintf(first, sizeof first, "; first set-up %.3f (gen %.3f)",
                  first_setup_s, first_generate_s);
    std::string setups;
    for (size_t i = 0; i < setup_s.size(); ++i) {
      char buf[64];
      std::snprintf(buf, sizeof buf, "%s%.3f (gen %.3f)", i ? ", " : "",
                    setup_s[i], generate_s[i]);
      setups += buf;
    }
    metrics.push_back(
        {"setup_s", median(setup_s), "s", "median of " + setups + first});
    metrics.push_back({"peak_rss_mb", peak_mb, "MB",
                       "largest VmHWM of a measured round"});
    metrics.push_back({"ratio", stats.raw_bytes / stats.stream_bytes, "x",
                       "raw bytes / stream bytes, exact"});
    metrics.push_back({"max_err_over_eb", stats.max_err_over_eb, "x",
                       "max |d-d'| / eb over " +
                           std::to_string(stats.checked_elements) +
                           " elements"});
    for (const char* op : {"compress_gbps", "decompress_gbps"}) {
      for (const auto kind : kBackends) {
        const std::string name = gbps_name(op, kind);
        const Throughput& t = samples.gbps[name];
        metrics.push_back({name, t.gbps(), "GB/s", throughput_note(t)});
      }
    }
    const auto& q = samples.query_us;
    metrics.push_back({"query_p50_us", quantile(q, 0.5), "us",
                       quantile_note(q)});
    const auto p99s = window_p99s(q);
    char p99_note[128];
    std::snprintf(p99_note, sizeof p99_note,
                  "lower quartile of the p99 of %zu windows of >= %zu "
                  "queries (%.4g-%.4g)",
                  p99s.size(), kTailWindow, quantile(p99s, 0),
                  quantile(p99s, 1));
    metrics.push_back(
        {"query_p99_us",
         p99s.empty() ? quantile(q, 0.99) : quantile(p99s, 0.25), "us",
         p99s.empty() ? "UNRELIABLE: fewer than 10 samples beyond p99"
                      : p99_note});
    print_table("end-to-end metrics (spans off):", metrics);
    std::printf("host canary (%zu samples between %zu rounds): memcpy %.3f "
                "GB/s, scalar %.1f Mop/s\n",
                canary.samples(), wall_plain.size(), canary.memcpy_gbps(),
                canary.scalar_mops());
    std::printf("bound violations: %llu of %llu checked elements\n",
                static_cast<unsigned long long>(stats.violations),
                static_cast<unsigned long long>(stats.checked_elements));
  } else {
    metrics = measure_layers(*w, samples, a.seed, ledger);
    const double hits = pools1.hits - pools0.hits;
    const double lookups = hits + (pools1.misses - pools0.misses);
    metrics.push_back({"engine.scratch_hit_rate",
                       lookups > 0 ? hits / lookups : 0, "fraction", ""});
    metrics.push_back({"data.generate_s", median(generate_s), "s", ""});
    metrics.push_back({"obs.bench_trace_overhead_share",
                       median(wall_traced) / median(wall_plain) - 1, "fraction",
                       ""});
    metrics.push_back({"host.memcpy_gbps", canary.memcpy_gbps(), "GB/s", ""});
    metrics.push_back({"host.scalar_mops", canary.scalar_mops(), "Mop/s", ""});
    metrics.push_back({"quality.bound_violations",
                       static_cast<double>(stats.violations), "count", ""});
    print_table("per-layer metrics:", metrics);

    // Span self times of the traced rounds; together they cover the
    // rounds' wall time. "round" self time is the benchmark's own loop
    // (rng, sample bookkeeping) outside every layer call.
    double round_wall = 0;
    for (const double s : wall_traced) round_wall += s;
    std::printf("span self times over %zu traced rounds (%.3f s):\n",
                wall_traced.size(), round_wall);
    for (const auto& s : spans().self_times()) {
      if (s.name.rfind("layers.", 0) == 0) continue;
      std::printf("  %-26s %8llu calls %10.4f s self %6.2f%%\n", s.name.c_str(),
                  static_cast<unsigned long long>(s.count), s.self_s,
                  round_wall > 0 ? 100 * s.self_s / round_wall : 0);
    }
    if (!a.trace_out.empty()) spans().write_chrome_trace(a.trace_out);
  }
  print_json(ledger, metrics);
  return 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  perfbench::Args args;
  if (!perfbench::parse_args(argc, argv, args)) {
    std::fprintf(stderr,
                 "usage: perfbench --workload <name> --seed <n> --seconds <s> "
                 "--trace <0|1> [--trace-out <path>]\n");
    return 2;
  }
  try {
    return perfbench::run(args);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 1;
  }
}
