// Host speed probe: a fixed loop of the benchmark's own, timed in CPU time
// just before every repetition, so that the repetition's CPU times can be
// read at one reference host speed.
//
// CPU time already leaves out what the hypervisor steals, but not the
// speed of the CPU time itself: on the reference host (a 4-vCPU VM on a
// shared machine) it drifts with the other tenants' load on the shared
// caches and memory. Over one 35-minute series of runs all three workloads
// got 15-20% faster together after minute 23. The probe does the
// simulator's kind of work, dependent loads over a table past the private
// caches, so it drifts with them and the ratio cancels the drift; a change
// to the simulator does not touch the probe and moves the scaled times in
// full.
#pragma once

#include <time.h>

#include <cstdint>
#include <vector>

namespace perfbench {

/// Scaled CPU times read as the host's CPU times when the probe takes this
/// long: value * kReferenceProbeSeconds / probe seconds. One pass takes
/// about 10 ms on the reference host (Intel Xeon, GCC 12.2, Release).
inline constexpr double kReferenceProbeSeconds = 0.010;

class HostSpeedProbe {
 public:
  HostSpeedProbe() : table_(kTableWords) {
    for (std::size_t i = 0; i < table_.size(); ++i) table_[i] = i;
  }

  /// Runs one pass and returns the CPU seconds of the calling thread.
  double MeasureSeconds() {
    const double start = ThreadCpuSeconds();
    std::uint64_t x = 0x9E3779B97F4A7C15ULL;
    for (int i = 0; i < kSteps; ++i) {
      x = x * 6364136223846793005ULL + table_[x >> 45];
      table_[(x >> 21) & (kTableWords - 1)] ^= x;
    }
    table_[0] += x;
    return ThreadCpuSeconds() - start;
  }

 private:
  // A 4 MiB table: past the private caches, like the simulator's state.
  static constexpr std::size_t kTableWords = std::size_t{1} << 19;
  static constexpr int kSteps = 1 << 18;

  static double ThreadCpuSeconds() {
    timespec now{};
    clock_gettime(CLOCK_THREAD_CPUTIME_ID, &now);
    return static_cast<double>(now.tv_sec) +
           1e-9 * static_cast<double>(now.tv_nsec);
  }

  std::vector<std::uint64_t> table_;
};

}  // namespace perfbench
