#include "szp/engine/thread_pool.hpp"

#include <algorithm>
#include <string>

#include "szp/obs/hostprof/hostprof.hpp"
#include "szp/obs/tracer.hpp"

namespace szp::engine {

namespace hostprof = obs::hostprof;

ThreadPool::ThreadPool(unsigned threads) {
  // Arm the host profiler once per process if SZP_HOSTPROF asks for it,
  // before any worker can take its first sample.
  hostprof::init_from_env();
  if (threads == 0) {
    threads = std::max(2u, std::thread::hardware_concurrency());
  }
  // The calling thread is one of the `threads` slots.
  const unsigned workers = threads - 1;
  workers_.reserve(workers);
  for (unsigned i = 0; i < workers; ++i) {
    workers_.emplace_back([this, i] { worker_loop(i); });
  }
}

ThreadPool::~ThreadPool() {
  {
    const LockGuard lock(mutex_);
    stop_ = true;
  }
  cv_start_.notify_all();
  for (auto& t : workers_) t.join();
}

void ThreadPool::run(size_t count, const std::function<void(size_t)>& task) {
  if (count == 0) return;
  if (hostprof::enabled()) {
    auto& prof = hostprof::Profiler::instance();
    obs::set_thread_name("szp-caller-0", /*overwrite=*/false);
    prof.note_batch();
    prof.count(hostprof::HostCounter::kBatches);
    prof.count(hostprof::HostCounter::kTasks, count);
  }
  if (workers_.empty() || count == 1) {
    for (size_t i = 0; i < count; ++i) {
      if (hostprof::enabled()) hostprof::Profiler::instance().note_task();
      const obs::Span span("host", "chunk", "chunk", i);
      task(i);
    }
    return;
  }
  auto batch = std::make_shared<Batch>();
  batch->task = &task;
  batch->count = count;
  {
    hostprof::ScopedTimer dispatch(hostprof::Bucket::kDispatch);
    const obs::Span span("host", "dispatch", "tasks", count);
    {
      const LockGuard lock(mutex_);
      batch_ = batch;
      ++generation_;
    }
    cv_start_.notify_all();
  }
  process(*batch);
  {
    hostprof::ScopedTimer barrier(hostprof::Bucket::kBarrier);
    const obs::Span span("host", "barrier_wait");
    UniqueLock lock(mutex_);
    while (batch->done != batch->count) cv_done_.wait(lock);
  }
  if (batch->error) std::rethrow_exception(batch->error);
}

void ThreadPool::worker_loop(unsigned index) {
  bool named = false;
  std::uint64_t seen = 0;
  UniqueLock lock(mutex_);
  for (;;) {
    {
      // The condition variable releases the pool mutex while blocked, so
      // this interval really is time spent waiting for work.
      hostprof::ScopedTimer wait(hostprof::Bucket::kQueueWait);
      while (!stop_ && generation_ == seen) cv_start_.wait(lock);
    }
    if (stop_) return;
    seen = generation_;
    // Keep the batch alive past the submitting run() call: process() may
    // make one final (empty) index claim after the batch completed.
    const std::shared_ptr<Batch> batch = batch_;
    lock.unlock();
    if (!named && obs::observers() != 0) {
      obs::set_thread_name("szp-worker-" + std::to_string(index));
      named = true;
    }
    process(*batch);
    lock.lock();
  }
}

void ThreadPool::process(Batch& batch) {
  size_t i;
  while ((i = batch.next.fetch_add(1, std::memory_order_relaxed)) <
         batch.count) {
    if (hostprof::enabled()) hostprof::Profiler::instance().note_task();
    try {
      const obs::Span span("host", "chunk", "chunk", i);
      (*batch.task)(i);
    } catch (...) {
      const LockGuard lock(mutex_);
      if (!batch.error) batch.error = std::current_exception();
    }
    // The mutex hand-off publishes this task's writes to whoever observes
    // completion in run().
    const LockGuard lock(mutex_);
    if (++batch.done == batch.count) cv_done_.notify_all();
  }
}

}  // namespace szp::engine
