#include "szp/obs/hostprof/hostprof.hpp"

#include <algorithm>
#include <cstdlib>

#include "szp/obs/hostprof/report.hpp"
#include "szp/obs/log.hpp"
#include "szp/util/env.hpp"
#include "szp/util/thread_annotations.hpp"

namespace szp::obs::hostprof {

std::string_view bucket_name(Bucket b) {
  switch (b) {
    case Bucket::kQueueWait: return "queue_wait";
    case Bucket::kDispatch: return "dispatch";
    case Bucket::kQP: return "qp";
    case Bucket::kFE: return "fe";
    case Bucket::kGS: return "gs";
    case Bucket::kBB: return "bb";
    case Bucket::kChecksum: return "checksum";
    case Bucket::kBarrier: return "barrier";
    case Bucket::kCount_: break;
  }
  return "?";
}

std::string_view counter_name(HostCounter c) {
  switch (c) {
    case HostCounter::kCompressCalls: return "compress_calls";
    case HostCounter::kDecompressCalls: return "decompress_calls";
    case HostCounter::kBatches: return "batches";
    case HostCounter::kTasks: return "tasks";
    case HostCounter::kBlocksEncoded: return "blocks_encoded";
    case HostCounter::kBlocksDecoded: return "blocks_decoded";
    case HostCounter::kBytesRead: return "bytes_read";
    case HostCounter::kBytesWritten: return "bytes_written";
    case HostCounter::kChunks: return "chunks";
    case HostCounter::kFalseSharedBoundaries: return "false_shared_boundaries";
    case HostCounter::kCount_: break;
  }
  return "?";
}

Options options_from_env() {
  Options o = options_from_string(hostprof_env_spec());
  if (o.enabled) o.from_env = true;
  return o;
}

struct Profiler::Registry {
  mutable Mutex mutex;
  std::string export_path SZP_GUARDED_BY(mutex);
  std::array<std::atomic<std::uint64_t>, kNumHostCounters> counters{};
  AtomicPow2Hist<> chunk_blocks;
  AtomicPow2Hist<> chunk_payload_bytes;
};

Profiler& Profiler::instance() {
  static Profiler* p = new Profiler();  // leaked: usable from exit handlers
  return *p;
}

Profiler::Registry& Profiler::registry() const {
  static Registry* r = new Registry();
  return *r;
}

namespace {

static_assert(kNumBuckets == kLaneBuckets);

/// The calling thread's lane, listed from its first sample since reset().
Lane& sampled_lane() {
  Lane& lane = local_lane();
  if ((lane.state.load(std::memory_order_relaxed) & Lane::kProfHold) == 0) {
    lane.prof_start_ns.store(now_ns(), std::memory_order_relaxed);
    lane.state.fetch_or(Lane::kProfHold, std::memory_order_release);
  }
  return lane;
}

}  // namespace

void Profiler::add_time(Bucket b, std::uint64_t ns) {
  sampled_lane().prof_ns[static_cast<unsigned>(b)].fetch_add(
      ns, std::memory_order_relaxed);
}

void Profiler::note_task() {
  sampled_lane().prof_tasks.fetch_add(1, std::memory_order_relaxed);
}

void Profiler::note_batch() {
  sampled_lane().prof_batches.fetch_add(1, std::memory_order_relaxed);
}

void Profiler::count(HostCounter c, std::uint64_t n) {
  registry().counters[static_cast<unsigned>(c)].fetch_add(
      n, std::memory_order_relaxed);
}

void Profiler::observe_chunk(std::uint64_t blocks,
                             std::uint64_t payload_bytes) {
  Registry& reg = registry();
  reg.chunk_blocks.observe(blocks);
  reg.chunk_payload_bytes.observe(payload_bytes);
}

Snapshot Profiler::snapshot() const {
  Registry& reg = registry();
  Snapshot out;
  for (unsigned i = 0; i < kNumHostCounters; ++i) {
    out.counters[i] = reg.counters[i].load(std::memory_order_relaxed);
  }
  out.chunk_blocks = reg.chunk_blocks.snapshot();
  out.chunk_payload_bytes = reg.chunk_payload_bytes.snapshot();
  const std::uint64_t now = now_ns();
  for (const Lane* lane = lanes(); lane != nullptr; lane = lane->next) {
    const std::uint32_t state = lane->state.load(std::memory_order_acquire);
    if ((state & Lane::kProfHold) == 0) continue;
    ThreadSnapshot t;
    t.tid = lane->id;
    t.label = lane->thread_name();
    t.alive = (state & Lane::kLive) != 0;
    const std::uint64_t start =
        lane->prof_start_ns.load(std::memory_order_relaxed);
    const std::uint64_t end =
        t.alive ? now : lane->prof_end_ns.load(std::memory_order_relaxed);
    t.wall_ns = end > start ? end - start : 0;
    std::uint64_t attributed = 0;
    for (unsigned b = 0; b < kNumBuckets; ++b) {
      t.bucket_ns[b] = lane->prof_ns[b].load(std::memory_order_relaxed);
      attributed += t.bucket_ns[b];
    }
    // Clock granularity can push the bucket sum a hair past the lane
    // wall; report the wall as attributed so percentages stay sane.
    if (attributed > t.wall_ns) t.wall_ns = attributed;
    t.idle_ns = t.wall_ns - attributed;
    t.tasks = lane->prof_tasks.load(std::memory_order_relaxed);
    t.batches = lane->prof_batches.load(std::memory_order_relaxed);
    out.threads.push_back(std::move(t));
  }
  std::sort(out.threads.begin(), out.threads.end(),
            [](const ThreadSnapshot& a, const ThreadSnapshot& b) {
              return a.tid < b.tid;
            });
  return out;
}

void Profiler::reset() {
  // Zero before releasing the hold: a lane free for reuse holds nothing.
  for (Lane* lane = lanes(); lane != nullptr; lane = lane->next) {
    for (auto& b : lane->prof_ns) b.store(0, std::memory_order_relaxed);
    lane->prof_tasks.store(0, std::memory_order_relaxed);
    lane->prof_batches.store(0, std::memory_order_relaxed);
    lane->state.fetch_and(~Lane::kProfHold, std::memory_order_release);
  }
  Registry& reg = registry();
  for (auto& c : reg.counters) c.store(0, std::memory_order_relaxed);
  reg.chunk_blocks.reset();
  reg.chunk_payload_bytes.reset();
}

void Profiler::set_export_path(std::string path) {
  Registry& reg = registry();
  const LockGuard lock(reg.mutex);
  reg.export_path = std::move(path);
}

std::string Profiler::export_path() const {
  Registry& reg = registry();
  const LockGuard lock(reg.mutex);
  return reg.export_path;
}

namespace {

void flush_env_report() {
  const std::string path = Profiler::instance().export_path();
  if (path.empty()) return;
  const Snapshot snap = Profiler::instance().snapshot();
  if (write_hostprof_json_file(path, snap)) {
    SZP_LOG_INFO("hostprof", "wrote report to %s (%zu lanes)", path.c_str(),
                 snap.threads.size());
  } else {
    SZP_LOG_ERROR("hostprof", "FAILED to write report to %s", path.c_str());
  }
}

}  // namespace

void init_from_env() {
  static const bool done = [] {
    const Options o = options_from_env();
    if (o.enabled) {
      Profiler::instance().set_enabled(true);
      if (!o.export_path.empty()) {
        Profiler::instance().set_export_path(o.export_path);
        std::atexit(flush_env_report);
      }
    }
    return true;
  }();
  (void)done;
}

}  // namespace szp::obs::hostprof
