#include "szp/gpusim/profile/profile.hpp"

#include <algorithm>
#include <cstdlib>

#include "szp/gpusim/profile/report.hpp"

namespace szp::gpusim::profile {

std::string_view warp_op_name(WarpOp op) {
  switch (op) {
    case WarpOp::kShfl: return "shfl";
    case WarpOp::kShflUp: return "shfl_up";
    case WarpOp::kShflDown: return "shfl_down";
    case WarpOp::kBallot: return "ballot";
    case WarpOp::kInclusiveScan: return "inclusive_scan";
    case WarpOp::kExclusiveScan: return "exclusive_scan";
    case WarpOp::kReduceMax: return "reduce_max";
    case WarpOp::kReduceAdd: return "reduce_add";
    case WarpOp::kCount_: break;
  }
  return "?";
}

Options options_from_env() {
  const char* raw = std::getenv("SZP_PROFILE");
  Options o = options_from_string(raw == nullptr ? "" : raw);
  if (o.enabled) o.from_env = true;
  return o;
}

LaunchProfile archive_launch(const LaunchProf& lp, std::uint64_t wall_ns,
                             const TraceSnapshot& counts) {
  LaunchProfile out;
  out.kernel = lp.kernel();
  out.stream = lp.stream();
  out.grid_blocks = lp.grid_blocks();
  out.workers = lp.workers();
  for (unsigned s = 0; s < kNumStages; ++s) {
    out.stages[s].read_bytes =
        counts.stages[s].read_bytes - lp.lookback_bytes(s);
    out.stages[s].write_bytes = counts.stages[s].write_bytes;
    out.stages[s].ops = counts.stages[s].ops;
    out.stages[s].ns = lp.stage_ns(s);
    out.lookback_read_bytes += lp.lookback_bytes(s);
  }
  for (unsigned w = 0; w < kNumWarpOps; ++w) {
    out.warp_ops[w] = lp.warp_op_count(w);
  }
  out.atomic_stores = lp.atomic_stores();
  out.atomic_rmws = lp.atomic_rmws();
  out.barriers = lp.barriers();
  out.lookback_calls = lp.lookback_calls();
  out.lookback_depth = lp.lookback_depth().snapshot();
  out.lookback_spins = lp.lookback_spins().snapshot();
  out.wall_ns = wall_ns;

  BlockStats& b = out.blocks;
  b.executed = lp.blocks_run();
  std::uint64_t sum = 0;
  std::uint64_t mn = UINT64_MAX;
  std::uint64_t mx = 0;
  for (std::size_t i = 0; i < lp.grid_blocks(); ++i) {
    const std::uint64_t ns = lp.block_wall_ns(i);
    if (ns == 0) continue;  // aborted / unclaimed block
    sum += ns;
    mn = std::min(mn, ns);
    mx = std::max(mx, ns);
  }
  if (b.executed > 0 && mn != UINT64_MAX) {
    b.min_ns = mn;
    b.max_ns = mx;
    b.mean_ns = static_cast<double>(sum) / static_cast<double>(b.executed);
    b.imbalance = b.mean_ns > 0 ? static_cast<double>(mx) / b.mean_ns : 0;
    b.avg_concurrency =
        wall_ns > 0 ? static_cast<double>(sum) / static_cast<double>(wall_ns)
                    : 0;
  }
  return out;
}

Profiler::Profiler(Options opts, unsigned workers, const Trace& trace)
    : opts_(std::move(opts)), workers_(workers), trace_(trace) {}

Profiler::~Profiler() {
  if (opts_.from_env && !opts_.export_path.empty()) {
    Collector::instance().set_export_path(opts_.export_path);
    Collector::instance().archive(snapshot());
  }
}

std::shared_ptr<LaunchProf> Profiler::begin_launch(std::string kernel,
                                                   std::size_t grid_blocks,
                                                   std::string stream) {
  return std::make_shared<LaunchProf>(std::move(kernel), grid_blocks, workers_,
                                      std::move(stream));
}

void Profiler::end_launch(const std::shared_ptr<LaunchProf>& lp,
                          std::uint64_t wall_ns, const TraceSnapshot& counts) {
  LaunchProfile archived = archive_launch(*lp, wall_ns, counts);
  const LockGuard lock(mu_);
  launches_.push_back(std::move(archived));
}

std::shared_ptr<BufferProf> Profiler::on_alloc(std::size_t elem_bytes,
                                               std::size_t elems) {
  auto bp = std::make_shared<BufferProf>();
  bp->elem_bytes = elem_bytes;
  bp->elems = elems;
  const LockGuard lock(mu_);
  bp->id = next_buffer_id_++;
  buffers_.push_back(bp);
  return bp;
}

void Profiler::on_memcpy(OpKind kind) {
  const LockGuard lock(mu_);
  switch (kind) {
    case OpKind::kMemcpyH2D: ++memcpy_counts_.h2d_count; break;
    case OpKind::kMemcpyD2H: ++memcpy_counts_.d2h_count; break;
    default: ++memcpy_counts_.d2d_count; break;
  }
}

SessionProfile Profiler::snapshot() const {
  const LockGuard lock(mu_);
  SessionProfile out;
  out.workers = workers_;
  out.launches = launches_;
  out.buffers.reserve(buffers_.size());
  for (const auto& bp : buffers_) {
    BufferStats bs;
    bs.id = bp->id;
    bs.elem_bytes = bp->elem_bytes;
    bs.elements = bp->elems;
    bs.read_bytes = bp->read_bytes.load(std::memory_order_relaxed);
    bs.write_bytes = bp->write_bytes.load(std::memory_order_relaxed);
    bs.read_transactions =
        bp->read_transactions.load(std::memory_order_relaxed);
    bs.write_transactions =
        bp->write_transactions.load(std::memory_order_relaxed);
    bs.pool_reuses = bp->pool_reuses.load(std::memory_order_relaxed);
    bs.freed = bp->freed.load(std::memory_order_relaxed);
    out.buffers.push_back(bs);
  }
  const TraceSnapshot moved = trace_.snapshot() - memcpy_base_;
  out.memcpy = memcpy_counts_;
  out.memcpy.h2d_bytes = moved.h2d_bytes;
  out.memcpy.d2h_bytes = moved.d2h_bytes;
  out.memcpy.d2d_bytes = moved.d2d_bytes;
  return out;
}

std::size_t Profiler::launch_count() const {
  const LockGuard lock(mu_);
  return launches_.size();
}

void Profiler::reset() {
  {
    const LockGuard lock(mu_);
    launches_.clear();
    buffers_.clear();
    next_buffer_id_ = 0;
    memcpy_counts_ = {};
  }
  rebase_memcpy();
}

void Profiler::rebase_memcpy() {
  const TraceSnapshot now = trace_.snapshot();
  const LockGuard lock(mu_);
  memcpy_base_ = now;
}

namespace {

void flush_collector() {
  Collector::instance().write("");  // "" = use the configured export path
}

}  // namespace

Collector& Collector::instance() {
  static Collector c;
  return c;
}

void Collector::archive(SessionProfile session) {
  static std::once_flag hook_once;
  const LockGuard lock(mu_);
  sessions_.push_back(std::move(session));
  if (!export_path_.empty()) {
    std::call_once(hook_once, [] { std::atexit(flush_collector); });
  }
}

bool Collector::write(const std::string& path) const {
  std::string target = path;
  std::vector<SessionProfile> sessions;
  {
    const LockGuard lock(mu_);
    if (target.empty()) target = export_path_;
    sessions = sessions_;
  }
  if (target.empty() || sessions.empty()) return true;
  return write_profile_json_file(target, sessions, ReportOptions{});
}

std::size_t Collector::session_count() const {
  const LockGuard lock(mu_);
  return sessions_.size();
}

void Collector::set_export_path(std::string path) {
  const LockGuard lock(mu_);
  export_path_ = std::move(path);
}

void Collector::clear() {
  const LockGuard lock(mu_);
  sessions_.clear();
  export_path_.clear();
}

}  // namespace szp::gpusim::profile
