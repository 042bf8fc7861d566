#include "common/thread_pool.h"

#include "common/check.h"

namespace stableshard {

ThreadPool::ThreadPool(std::size_t helpers) {
  helpers_.reserve(helpers);
  for (std::size_t h = 0; h < helpers; ++h) {
    helpers_.emplace_back([this, h] { HelperLoop(h + 1); });
  }
}

ThreadPool::~ThreadPool() {
  {
    common::MutexLock lock(mutex_);
    shutting_down_ = true;
  }
  job_ready_.NotifyAll();
  for (auto& helper : helpers_) helper.join();
}

void ThreadPool::Publish(std::size_t parts, Trampoline call,
                         void* callable) {
  SSHARD_CHECK(parts <= team_size() && "fan-out wider than the team");
  {
    common::MutexLock lock(mutex_);
    call_ = call;
    callable_ = callable;
    parts_ = parts;
    running_ = parts - 1;
    ++generation_;
  }
  job_ready_.NotifyAll();
}

void ThreadPool::AwaitHelpers() {
  common::MutexLock lock(mutex_);
  while (running_ != 0) job_done_.Wait(mutex_);
}

void ThreadPool::HelperLoop(std::size_t part) {
  std::uint64_t seen = 0;
  for (;;) {
    Trampoline call;
    void* callable;
    {
      common::MutexLock lock(mutex_);
      while (!shutting_down_ && generation_ == seen) job_ready_.Wait(mutex_);
      if (shutting_down_) return;
      seen = generation_;
      // A narrower job leaves this helper idle. The driving thread cannot
      // publish the next job before this one's parts finish, so a helper
      // that takes part never misses a generation.
      if (part >= parts_) continue;
      call = call_;
      callable = callable_;
    }
    call(callable, part);
    {
      common::MutexLock lock(mutex_);
      if (--running_ == 0) job_done_.NotifyOne();
    }
  }
}

}  // namespace stableshard
