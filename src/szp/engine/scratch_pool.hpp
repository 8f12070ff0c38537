// Pool of host codec scratch arenas. Every arena's vectors only grow, so
// any idle arena serves any call: compress and decompress calls of any
// shape reuse warm arenas and, once the arenas have grown to the largest
// call, do no per-call allocation.
#pragma once

#include <memory>
#include <vector>

#include "szp/core/host_codec.hpp"
#include "szp/util/thread_annotations.hpp"

namespace szp::engine {

class ScratchPool {
  struct Entry {
    bool in_use = false;
    core::HostScratch scratch;
  };

 public:
  ScratchPool() = default;
  ScratchPool(const ScratchPool&) = delete;
  ScratchPool& operator=(const ScratchPool&) = delete;

  /// RAII lease; destruction returns the arena to the pool. Entries are
  /// heap-stable, so leases survive concurrent pool growth.
  class Lease {
   public:
    Lease(ScratchPool* pool, Entry* entry) : pool_(pool), entry_(entry) {}
    Lease(Lease&& o) noexcept : pool_(o.pool_), entry_(o.entry_) {
      o.pool_ = nullptr;
      o.entry_ = nullptr;
    }
    Lease(const Lease&) = delete;
    Lease& operator=(const Lease&) = delete;
    Lease& operator=(Lease&&) = delete;
    ~Lease() {
      if (pool_ != nullptr) pool_->put_back(entry_);
    }

    [[nodiscard]] core::HostScratch& scratch() { return entry_->scratch; }

   private:
    ScratchPool* pool_;
    Entry* entry_;
  };

  /// Lease an idle arena (a hit), or create one when all are leased (a
  /// miss).
  [[nodiscard]] Lease acquire() {
    const LockGuard lock(mutex_);
    for (const auto& e : entries_) {
      if (e->in_use) continue;
      e->in_use = true;
      ++hits_;
      return Lease(this, e.get());
    }
    ++misses_;
    entries_.push_back(std::make_unique<Entry>());
    entries_.back()->in_use = true;
    return Lease(this, entries_.back().get());
  }

  [[nodiscard]] size_t hits() const {
    const LockGuard lock(mutex_);
    return hits_;
  }
  [[nodiscard]] size_t misses() const {
    const LockGuard lock(mutex_);
    return misses_;
  }
  [[nodiscard]] size_t size() const {
    const LockGuard lock(mutex_);
    return entries_.size();
  }

 private:
  void put_back(Entry* entry) {
    const LockGuard lock(mutex_);
    entry->in_use = false;
  }

  mutable Mutex mutex_;
  std::vector<std::unique_ptr<Entry>> entries_ SZP_GUARDED_BY(mutex_);
  size_t hits_ SZP_GUARDED_BY(mutex_) = 0;
  size_t misses_ SZP_GUARDED_BY(mutex_) = 0;
};

}  // namespace szp::engine
