// Fixed-team fan-out for the parallel round loop and experiment sweeps.
//
// A pool is a team of `helpers` threads plus the thread that calls Run.
// Run(parts, fn) runs fn(p) for every p < parts: the calling thread runs
// part 0 itself and helper h always runs part h + 1, so a fan-out that is
// repeated every round (the engine's StepShard ranges and its flush
// partitions) keeps each part on the same thread from round to round.
// Publishing a fan-out is one mutex section and one NotifyAll, with no
// allocation: the callable is passed by address through a trampoline.
//
// Two users: (1) the simulation engine steps its shard ranges and drains
// its flush partitions on a persistent pool (worker_threads > 1); (2) the
// experiment sweeps run dozens of independent simulations. Both follow the
// "explicit parallelism, explicit ownership" style of the HPC guides: parts
// index disjoint slots, so no part shares mutable state with another.
// Only one thread may drive a pool's Run at a time.
#pragma once

#include <cstddef>
#include <cstdint>
#include <thread>
#include <type_traits>
#include <vector>

#include "common/mutex.h"
#include "common/thread_annotations.h"

namespace stableshard {

class ThreadPool {
 public:
  /// Spawns `helpers` helper threads; fan-outs may have up to helpers + 1
  /// parts. Zero helpers is a valid (inline) team of one.
  explicit ThreadPool(std::size_t helpers);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Threads a fan-out can use: the helpers plus the calling thread.
  std::size_t team_size() const { return helpers_.size() + 1; }

  /// Run `fn(p)` for p in [0, parts), parts <= team_size(): part 0 on the
  /// calling thread, part p on helper p - 1. Then `overlap()` runs on the
  /// calling thread while the helpers may still be busy (the engine's
  /// pipelined epilogue generates the next round there), and Run returns
  /// once every part has finished. `fn` must not throw (the simulator
  /// aborts on invariant failure instead of throwing).
  template <typename Fn, typename Overlap>
  void Run(std::size_t parts, Fn&& fn, Overlap&& overlap) {
    using Callable = std::remove_reference_t<Fn>;
    if (parts > 1) {
      Publish(parts,
              [](void* callable, std::size_t part) {
                (*static_cast<Callable*>(callable))(part);
              },
              const_cast<void*>(static_cast<const void*>(&fn)));
    }
    if (parts > 0) fn(0);
    overlap();
    if (parts > 1) AwaitHelpers();
  }

  template <typename Fn>
  void Run(std::size_t parts, Fn&& fn) {
    Run(parts, fn, [] {});
  }

 private:
  using Trampoline = void (*)(void* callable, std::size_t part);

  /// Hand parts 1..parts-1 of a new job to the helpers.
  void Publish(std::size_t parts, Trampoline call, void* callable);
  /// Block until every helper part of the current job has finished.
  void AwaitHelpers();
  void HelperLoop(std::size_t part);

  common::Mutex mutex_;
  common::CondVar job_ready_;
  common::CondVar job_done_;
  Trampoline call_ SSHARD_GUARDED_BY(mutex_) = nullptr;
  void* callable_ SSHARD_GUARDED_BY(mutex_) = nullptr;
  std::size_t parts_ SSHARD_GUARDED_BY(mutex_) = 0;
  /// Bumped once per published job; a helper runs each generation once.
  std::uint64_t generation_ SSHARD_GUARDED_BY(mutex_) = 0;
  /// Helper parts of the current job not yet finished.
  std::size_t running_ SSHARD_GUARDED_BY(mutex_) = 0;
  bool shutting_down_ SSHARD_GUARDED_BY(mutex_) = false;
  /// Immutable after the constructor returns (helpers never join until the
  /// destructor), so team_size() reads it without the mutex.
  std::vector<std::thread> helpers_;
};

}  // namespace stableshard
