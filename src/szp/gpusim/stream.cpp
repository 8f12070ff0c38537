#include "szp/gpusim/stream.hpp"

#include <atomic>
#include <optional>
#include <utility>

#include "szp/gpusim/sanitize/checker.hpp"
#include "szp/obs/telemetry/flight_recorder.hpp"
#include "szp/obs/trace_id.hpp"
#include "szp/obs/tracer.hpp"

namespace szp::gpusim {

namespace {

std::atomic<std::uint64_t> g_next_event_id{1};

thread_local const Stream* t_current_stream = nullptr;

/// Marks the stream whose op runs on this thread (saved/restored so a
/// default-stream op submitted from inside another stream's host task
/// attributes correctly).
struct CurrentStreamScope {
  explicit CurrentStreamScope(const Stream* s) : prev(t_current_stream) {
    t_current_stream = s;
  }
  ~CurrentStreamScope() { t_current_stream = prev; }
  CurrentStreamScope(const CurrentStreamScope&) = delete;
  CurrentStreamScope& operator=(const CurrentStreamScope&) = delete;
  const Stream* prev;
};

}  // namespace

// --- Event --------------------------------------------------------------

Event::Event() : st_(std::make_shared<State>()) {
  st_->id = g_next_event_id.fetch_add(1, std::memory_order_relaxed);
}

std::uint64_t Event::id() const { return st_->id; }

void Event::synchronize() const {
  UniqueLock lock(st_->m);
  const std::uint64_t gen = st_->last_record_gen;
  while (st_->completed_gen < gen) st_->cv.wait(lock);
  Device* dev = st_->dev;
  const std::vector<std::uint64_t> clock = st_->hb_clock;
  lock.unlock();
  // Everything before the record now happens-before this thread.
  if (dev != nullptr && dev->checker() != nullptr) {
    dev->checker()->hb_acquire(Stream::calling_slot(), clock);
  }
}

bool Event::query() const {
  const LockGuard lock(st_->m);
  return st_->completed_gen >= st_->last_record_gen;
}

// --- Stream -------------------------------------------------------------

Stream::Stream(Device& dev, std::string name) : dev_(dev) {
  id_ = dev_.next_stream_id();
  name_ = name.empty() ? "stream" + std::to_string(id_) : std::move(name);
  init_hb();
  dev_.register_stream(this);
  thr_ = std::thread([this] { thread_loop(); });
}

Stream::Stream(Device& dev, std::string name, Inline)
    : dev_(dev), name_(std::move(name)), inline_(true) {
  // Default stream shares the host's clock slot (0): its ops execute on
  // the submitting thread, so host and default-stream work are one actor.
  dev_.register_stream(this);
}

Stream::~Stream() {
  if (!inline_) {
    {
      const LockGuard lock(m_);
      closing_ = true;
    }
    cv_.notify_all();
    if (thr_.joinable()) thr_.join();
  }
  dev_.unregister_stream(this);
}

void Stream::init_hb() {
  if (sanitize::Checker* chk = dev_.checker()) {
    hb_slot_ = chk->hb_register_stream();
  }
}

const Stream* Stream::current() { return t_current_stream; }

std::string_view Stream::current_name() {
  return t_current_stream != nullptr ? std::string_view(t_current_stream->name_)
                                     : std::string_view("default");
}

std::uint32_t Stream::calling_slot() {
  return t_current_stream != nullptr ? t_current_stream->hb_slot_ : 0;
}

void Stream::submit(OpKind kind, std::string name, std::function<void()> fn) {
  Op op;
  op.kind = kind;
  op.name = std::move(name);
  op.fn = std::move(fn);
  enqueue(std::move(op));
}

void Stream::record(Event& ev) {
  Op op;
  op.kind = OpKind::kEventRecord;
  op.name = "record";
  op.ev = ev.st_;
  {
    const LockGuard lock(ev.st_->m);
    op.gen = ++ev.st_->last_record_gen;
  }
  enqueue(std::move(op));
}

void Stream::wait(const Event& ev) {
  std::uint64_t gen = 0;
  {
    const LockGuard lock(ev.st_->m);
    gen = ev.st_->last_record_gen;
  }
  if (gen == 0) return;  // never recorded — no-op, like cudaStreamWaitEvent
  Op op;
  op.kind = OpKind::kEventWait;
  op.name = "wait";
  op.ev = ev.st_;
  op.gen = gen;
  enqueue(std::move(op));
}

void Stream::enqueue(Op op) {
  // Capture the submitter's request trace ID so async execution can
  // re-establish it on the stream thread (inline ops run with it still
  // ambient; capturing is then a harmless re-set).
  op.trace_id = obs::current_trace_id();
  if (inline_) {
    {
      const LockGuard lock(m_);
      op.seq = submitted_++;
      ++completed_;  // inline ops retire before enqueue returns
    }
    if (current() != nullptr) {
      // Nested inside another stream op (a codec call running as an async
      // stream's op re-enters launch()): the enclosing op's stream
      // identity, timeline record and clock slot already cover this work,
      // so run it transparently instead of re-attributing to "default".
      switch (op.kind) {
        case OpKind::kEventRecord: execute_record(op); break;
        case OpKind::kEventWait: execute_wait(op); break;
        default: op.fn(); break;
      }
      return;
    }
    execute(op);  // exceptions propagate to the caller (sync semantics)
    return;
  }
  if (sanitize::Checker* chk = dev_.checker()) {
    op.hb_release = chk->hb_release(calling_slot());
  }
  dev_.add_async_pending();
  {
    const LockGuard lock(m_);
    op.seq = submitted_++;
    q_.push_back(std::move(op));
  }
  cv_.notify_all();
}

void Stream::execute(Op& op) {
  const CurrentStreamScope cur(this);
  const obs::TraceIdScope trace(op.trace_id);
  // op_kind_name returns a static literal, safe to hold in the
  // flight-recorder slot (op.name's storage is not).
  obs::fr::record(op.kind == OpKind::kMemcpyH2D ||
                          op.kind == OpKind::kMemcpyD2H ||
                          op.kind == OpKind::kMemcpyD2D
                      ? obs::fr::Kind::kMemcpy
                      : obs::fr::Kind::kStreamOp,
                  op_kind_name(op.kind).data(), op.seq);
  const bool tl = dev_.timeline_enabled();
  OpRecord rec;
  std::optional<OpTraceScope> scope;
  if (tl) {
    rec.stream_id = id_;
    rec.stream = inline_ ? "default" : name_;
    rec.name = op.name.empty() ? std::string(op_kind_name(op.kind)) : op.name;
    rec.kind = op.kind;
    rec.seq = op.seq;
    rec.event_id = op.ev != nullptr ? op.ev->id : 0;
    scope.emplace();
    rec.t_begin_ns = obs::now_ns();
  }
  const auto finish = [&] {
    if (tl) {
      rec.t_end_ns = obs::now_ns();
      rec.trace = scope->snapshot();
      scope.reset();
      dev_.append_op_record(std::move(rec));
    }
  };
  try {
    switch (op.kind) {
      case OpKind::kEventRecord: execute_record(op); break;
      case OpKind::kEventWait: execute_wait(op); break;
      default:
        if (!inline_ && !op.hb_release.empty()) {
          if (sanitize::Checker* chk = dev_.checker()) {
            chk->hb_acquire(hb_slot_, op.hb_release);
          }
        }
        op.fn();
        break;
    }
  } catch (...) {
    finish();
    throw;
  }
  finish();
}

void Stream::execute_record(Op& op) {
  std::vector<std::uint64_t> clock;
  if (sanitize::Checker* chk = dev_.checker()) {
    // calling_slot(), not hb_slot_: identical during normal execution (the
    // scope is set), but a record nested in another stream's op must
    // capture the enclosing stream's clock.
    clock = chk->hb_release(calling_slot());
  }
  {
    const LockGuard lock(op.ev->m);
    if (op.gen > op.ev->completed_gen) op.ev->completed_gen = op.gen;
    op.ev->hb_clock = std::move(clock);
    op.ev->dev = &dev_;
  }
  op.ev->cv.notify_all();
}

void Stream::execute_wait(Op& op) {
  std::vector<std::uint64_t> clock;
  {
    UniqueLock lock(op.ev->m);
    while (op.ev->completed_gen < op.gen) op.ev->cv.wait(lock);
    clock = op.ev->hb_clock;
  }
  if (sanitize::Checker* chk = dev_.checker()) {
    chk->hb_acquire(calling_slot(), clock);
  }
}

void Stream::synchronize() {
  if (inline_) return;  // inline ops retired (and threw) at submit
  std::exception_ptr err;
  {
    UniqueLock lock(m_);
    const std::uint64_t target = submitted_;
    while (completed_ < target) drained_cv_.wait(lock);
    err = std::exchange(error_, nullptr);
    poisoned_ = false;  // stream is reusable after the error is observed
  }
  // Everything the stream executed happens-before the host after this.
  if (sanitize::Checker* chk = dev_.checker()) {
    chk->hb_host_sync(calling_slot(), hb_slot_);
  }
  if (err) std::rethrow_exception(err);
}

bool Stream::idle() const {
  const LockGuard lock(m_);
  return completed_ >= submitted_;
}

void Stream::thread_loop() {
  obs::set_thread_name("stream:" + name_);
  // fr copies into a fixed buffer, so the temporary c_str() is fine.
  obs::fr::set_thread_name(("stream:" + name_).c_str());
  // Stream threads issue memcpys and host tasks while other streams'
  // kernels are in flight — legitimate overlap, not the stray host poke
  // memcheck's host-access-during-kernel check hunts for.
  const sanitize::KernelThreadScope stream_thread;
  for (;;) {
    Op op;
    bool skip = false;
    {
      UniqueLock lock(m_);
      while (!closing_ && q_.empty()) cv_.wait(lock);
      if (q_.empty()) return;  // closing and drained
      op = std::move(q_.front());
      q_.pop_front();
      skip = poisoned_;
    }
    try {
      // A poisoned stream skips work ops, but event records still
      // complete so waiters on other streams never deadlock.
      if (!skip || op.kind == OpKind::kEventRecord) execute(op);
    } catch (...) {
      const LockGuard lock(m_);
      if (!error_) error_ = std::current_exception();
      poisoned_ = true;
    }
    // Retire the device-wide pending count before publishing completion:
    // a host woken by synchronize() must already see the op as done.
    dev_.sub_async_pending();
    {
      const LockGuard lock(m_);
      ++completed_;
    }
    drained_cv_.notify_all();
  }
}

namespace detail {
void launch_on_default_stream(Device& dev, const char* kernel_name,
                              size_t grid_blocks,
                              std::function<void(const BlockCtx&)> body) {
  dev.default_stream().launch(kernel_name, grid_blocks, std::move(body));
}
}  // namespace detail

}  // namespace szp::gpusim
