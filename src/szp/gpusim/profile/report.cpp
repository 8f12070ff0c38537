#include "szp/gpusim/profile/report.hpp"

#include <fstream>
#include <iomanip>
#include <ostream>
#include <sstream>

#include "szp/obs/json.hpp"

namespace szp::gpusim::profile {

namespace {

void json_counters(std::ostream& os, const LaunchProfile& lp) {
  os << "        \"counters\": {\n          \"stages\": {";
  bool first = true;
  for (unsigned s = 0; s < kNumStages; ++s) {
    const StageProfile& sp = lp.stages[s];
    if (sp.counters_empty()) continue;
    os << (first ? "\n" : ",\n") << "            ";
    obs::write_json_string(os, stage_name(static_cast<Stage>(s)));
    os << ": {\"read_bytes\": " << sp.read_bytes
       << ", \"write_bytes\": " << sp.write_bytes << ", \"ops\": " << sp.ops
       << "}";
    first = false;
  }
  os << "\n          },\n          \"warp_ops\": {";
  first = true;
  for (unsigned w = 0; w < kNumWarpOps; ++w) {
    if (lp.warp_ops[w] == 0) continue;
    os << (first ? "\n" : ",\n") << "            ";
    obs::write_json_string(os, warp_op_name(static_cast<WarpOp>(w)));
    os << ": " << lp.warp_ops[w];
    first = false;
  }
  os << "\n          },\n          \"atomics\": {\"stores\": "
     << lp.atomic_stores << ", \"rmws\": " << lp.atomic_rmws
     << ", \"lookback_calls\": " << lp.lookback_calls << "},\n"
     << "          \"barriers\": " << lp.barriers << "\n        }";
}

void json_schedule(std::ostream& os, const LaunchProfile& lp) {
  os << "        \"schedule\": {\n"
     << "          \"lookback_read_bytes\": " << lp.lookback_read_bytes
     << ",\n          \"lookback_depth\": ";
  obs::write_json_hist(os, lp.lookback_depth, "          ");
  os << ",\n          \"lookback_spins\": ";
  obs::write_json_hist(os, lp.lookback_spins, "          ");
  os << "\n        }";
}

void json_timing(std::ostream& os, const LaunchProfile& lp) {
  os << "        \"timing\": {\n"
     << "          \"wall_ns\": " << lp.wall_ns << ",\n"
     << "          \"stage_ns\": {";
  bool first = true;
  for (unsigned s = 0; s < kNumStages; ++s) {
    if (lp.stages[s].ns == 0) continue;
    os << (first ? "" : ", ");
    obs::write_json_string(os, stage_name(static_cast<Stage>(s)));
    os << ": " << lp.stages[s].ns;
    first = false;
  }
  const BlockStats& b = lp.blocks;
  os << "},\n          \"blocks\": {\"executed\": " << b.executed
     << ", \"min_ns\": " << b.min_ns << ", \"max_ns\": " << b.max_ns
     << ", \"mean_ns\": ";
  obs::write_json_number(os, b.mean_ns);
  os << ", \"imbalance\": ";
  obs::write_json_number(os, b.imbalance);
  os << ", \"avg_concurrency\": ";
  obs::write_json_number(os, b.avg_concurrency);
  os << "}\n        }";
}

void json_derived(std::ostream& os, const LaunchProfile& lp,
                  const ModelParams& model) {
  const DerivedLaunch d = derive_launch(lp, model);
  os << "        \"derived\": {\n          \"gpu\": ";
  obs::write_json_string(os, model.gpu);
  os << ",\n          \"stage_s\": {";
  bool first = true;
  for (unsigned s = 0; s < kNumStages; ++s) {
    if (d.stage_s[s] == 0) continue;
    os << (first ? "" : ", ");
    obs::write_json_string(os, stage_name(static_cast<Stage>(s)));
    os << ": ";
    obs::write_json_number(os, d.stage_s[s]);
    first = false;
  }
  os << "},\n          \"device_s\": ";
  obs::write_json_number(os, d.device_s);
  os << ",\n          \"effective_gbps\": ";
  obs::write_json_number(os, d.effective_gbps);
  os << ",\n          \"arithmetic_intensity\": ";
  obs::write_json_number(os, d.arithmetic_intensity);
  os << ",\n          \"bound\": ";
  obs::write_json_string(os, d.bound);
  os << "\n        }";
}

void json_launch(std::ostream& os, const LaunchProfile& lp,
                 const ReportOptions& opts) {
  os << "      {\n        \"kernel\": ";
  obs::write_json_string(os, lp.kernel);
  os << ",\n        \"stream\": ";
  obs::write_json_string(os, lp.stream);
  os << ",\n        \"grid_blocks\": " << lp.grid_blocks << ",\n";
  json_counters(os, lp);
  if (opts.include_timing) {
    os << ",\n";
    json_schedule(os, lp);
    os << ",\n";
    json_timing(os, lp);
    if (opts.model != nullptr) {
      os << ",\n";
      json_derived(os, lp, *opts.model);
    }
  }
  os << "\n      }";
}

void json_session(std::ostream& os, const SessionProfile& s,
                  const ReportOptions& opts) {
  os << "    {\n      \"workers\": " << s.workers << ",\n"
     << "      \"launches\": [";
  for (std::size_t i = 0; i < s.launches.size(); ++i) {
    os << (i ? ",\n" : "\n");
    json_launch(os, s.launches[i], opts);
  }
  os << (s.launches.empty() ? "]" : "\n      ]");
  os << ",\n      \"buffers\": [";
  for (std::size_t i = 0; i < s.buffers.size(); ++i) {
    const BufferStats& b = s.buffers[i];
    os << (i ? ",\n" : "\n")
       << "        {\"id\": " << b.id << ", \"elem_bytes\": " << b.elem_bytes
       << ", \"elements\": " << b.elements
       << ", \"read_bytes\": " << b.read_bytes
       << ", \"write_bytes\": " << b.write_bytes
       << ", \"read_transactions\": " << b.read_transactions
       << ", \"write_transactions\": " << b.write_transactions
       << ", \"pool_reuses\": " << b.pool_reuses
       << ", \"freed\": " << (b.freed ? "true" : "false") << "}";
  }
  os << (s.buffers.empty() ? "]" : "\n      ]");
  const MemcpyStats& m = s.memcpy;
  os << ",\n      \"memcpy\": {\"h2d_bytes\": " << m.h2d_bytes
     << ", \"d2h_bytes\": " << m.d2h_bytes << ", \"d2d_bytes\": "
     << m.d2d_bytes << ", \"h2d_count\": " << m.h2d_count
     << ", \"d2h_count\": " << m.d2h_count << ", \"d2d_count\": "
     << m.d2d_count << "}\n    }";
}

}  // namespace

DerivedLaunch derive_launch(const LaunchProfile& lp,
                            const ModelParams& model) {
  DerivedLaunch d;
  double traffic_total = 0;
  double compute_total = 0;
  std::uint64_t bytes_total = 0;
  std::uint64_t ops_total = 0;
  for (unsigned s = 0; s < kNumStages; ++s) {
    const StageProfile& sp = lp.stages[s];
    const auto bytes = sp.read_bytes + sp.write_bytes;
    const double traffic_s =
        model.hbm_bandwidth > 0
            ? static_cast<double>(bytes) / model.hbm_bandwidth
            : 0;
    const double compute_s = static_cast<double>(sp.ops) * model.op_cost[s];
    d.stage_s[s] = traffic_s > compute_s ? traffic_s : compute_s;
    traffic_total += traffic_s;
    compute_total += compute_s;
    bytes_total += bytes;
    ops_total += sp.ops;
  }
  for (const double s : d.stage_s) d.device_s += s;
  d.device_s += model.kernel_launch_s;
  if (d.device_s > 0) {
    d.effective_gbps = static_cast<double>(bytes_total) / d.device_s / 1e9;
  }
  if (bytes_total > 0) {
    d.arithmetic_intensity =
        static_cast<double>(ops_total) / static_cast<double>(bytes_total);
  }
  d.bound = traffic_total >= compute_total ? "memory" : "compute";
  return d;
}

void write_profile_json(std::ostream& os,
                        std::span<const SessionProfile> sessions,
                        const ReportOptions& opts) {
  os << "{\n  \"szp_profile_version\": 1,\n  \"sessions\": [";
  for (std::size_t i = 0; i < sessions.size(); ++i) {
    os << (i ? ",\n" : "\n");
    json_session(os, sessions[i], opts);
  }
  os << (sessions.empty() ? "]" : "\n  ]") << "\n}\n";
}

bool write_profile_json_file(const std::string& path,
                             std::span<const SessionProfile> sessions,
                             const ReportOptions& opts) {
  std::ofstream out(path);
  if (!out) return false;
  write_profile_json(out, sessions, opts);
  return static_cast<bool>(out);
}

std::string counter_fingerprint(std::span<const SessionProfile> sessions) {
  std::ostringstream os;
  ReportOptions opts;
  opts.include_timing = false;
  write_profile_json(os, sessions, opts);
  return os.str();
}

void write_profile_text(std::ostream& os,
                        std::span<const SessionProfile> sessions,
                        const ReportOptions& opts) {
  std::size_t si = 0;
  for (const SessionProfile& s : sessions) {
    os << "profile session " << si++ << " (" << s.workers << " workers, "
       << s.launches.size() << " launches)\n";
    for (const LaunchProfile& lp : s.launches) {
      os << "  kernel " << lp.kernel << " stream=" << lp.stream
         << " grid=" << lp.grid_blocks;
      if (opts.include_timing) {
        os << " wall=" << lp.wall_ns << "ns";
      }
      os << "\n    " << std::left << std::setw(6) << "stage" << std::right
         << std::setw(14) << "read B" << std::setw(14) << "write B"
         << std::setw(12) << "ops";
      if (opts.include_timing) os << std::setw(14) << "time ns";
      os << '\n';
      for (unsigned st = 0; st < kNumStages; ++st) {
        const StageProfile& sp = lp.stages[st];
        if (sp.counters_empty() && sp.ns == 0) continue;
        os << "    " << std::left << std::setw(6)
           << stage_name(static_cast<Stage>(st)) << std::right
           << std::setw(14) << sp.read_bytes << std::setw(14)
           << sp.write_bytes << std::setw(12) << sp.ops;
        if (opts.include_timing) os << std::setw(14) << sp.ns;
        os << '\n';
      }
      os << "    warp ops:";
      bool any = false;
      for (unsigned w = 0; w < kNumWarpOps; ++w) {
        if (lp.warp_ops[w] == 0) continue;
        os << ' ' << warp_op_name(static_cast<WarpOp>(w)) << '='
           << lp.warp_ops[w];
        any = true;
      }
      if (!any) os << " none";
      os << "\n    atomics: stores=" << lp.atomic_stores
         << " rmws=" << lp.atomic_rmws
         << " lookback_calls=" << lp.lookback_calls
         << " barriers=" << lp.barriers << '\n';
      if (opts.include_timing && lp.lookback_calls > 0) {
        os << "    lookback: depth max=" << lp.lookback_depth.max
           << " spins max=" << lp.lookback_spins.max
           << " polled=" << lp.lookback_read_bytes << " B\n";
      }
      if (opts.include_timing && lp.blocks.executed > 0) {
        os << "    blocks: " << lp.blocks.executed << " run, mean="
           << static_cast<std::uint64_t>(lp.blocks.mean_ns)
           << "ns max=" << lp.blocks.max_ns << "ns imbalance=" << std::fixed
           << std::setprecision(2) << lp.blocks.imbalance
           << " avg_concurrency=" << lp.blocks.avg_concurrency
           << std::defaultfloat << '\n';
      }
      if (opts.include_timing && opts.model != nullptr) {
        const DerivedLaunch d = derive_launch(lp, *opts.model);
        os << "    derived (" << opts.model->gpu << "): device_s="
           << d.device_s << " effective=" << d.effective_gbps
           << " GB/s intensity=" << d.arithmetic_intensity << " ops/B ("
           << d.bound << "-bound)\n";
      }
    }
    for (const BufferStats& b : s.buffers) {
      os << "  buffer " << b.id << ": " << b.elements << " x "
         << b.elem_bytes << " B, read " << b.read_bytes << " B/"
         << b.read_transactions << " tx, write " << b.write_bytes << " B/"
         << b.write_transactions << " tx";
      if (b.pool_reuses > 0) os << ", " << b.pool_reuses << " pool reuses";
      if (b.freed) os << ", freed";
      os << '\n';
    }
    const MemcpyStats& m = s.memcpy;
    os << "  memcpy: h2d " << m.h2d_bytes << " B/" << m.h2d_count
       << ", d2h " << m.d2h_bytes << " B/" << m.d2h_count << ", d2d "
       << m.d2d_bytes << " B/" << m.d2d_count << '\n';
  }
}

}  // namespace szp::gpusim::profile
