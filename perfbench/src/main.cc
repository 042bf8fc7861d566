// perfbench: runs one named workload through the public core::Simulation
// API (config in, Run(), SimResult out) for a fixed wall-time budget and
// prints one JSON object on stdout.
//
//   perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//             [--smoke]
//
// --trace 0 times untraced repetitions and reports the end-to-end metrics.
// --trace 1 alternates untraced and traced repetitions (the traced ones
// select the "traced.<name>" decorators of layer_trace.h), reports the
// per-layer metrics, runs the standalone probes, and reports trace.overhead
// as traced over untraced CPU µs per round. Every repetition, traced or not,
// must pass the output gate and give the digest of its instance's first
// repetition; any violation is listed in "violations" (naming the field)
// and the exit code is 3. run.py wraps this binary in the benchmark's
// command-line contract.
#include <malloc.h>
#include <sys/resource.h>
#include <time.h>

#include <algorithm>
#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <limits>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "cluster/hierarchy.h"
#include "common/flags.h"
#include "consensus/backpressure_scheduler.h"
#include "core/engine.h"
#include "host_speed.h"
#include "layer_trace.h"
#include "probes.h"
#include "result_digest.h"
#include "workloads.h"

namespace perfbench {
namespace {

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  int trace = 0;
  bool smoke = false;
};

bool ParseArgs(int argc, char** argv, Args* args) {
  sim::Flags flags;
  if (!flags.Parse(argc, argv)) {
    std::fprintf(stderr, "perfbench: %s\n", flags.error().c_str());
    return false;
  }
  args->workload = flags.GetString("workload", "");
  args->seed = flags.GetUint("seed", 1);
  args->seconds = flags.GetDouble("seconds", 10);
  args->trace = static_cast<int>(flags.GetInt("trace", 0));
  args->smoke = flags.GetBool("smoke", false);
  if (!flags.FinishReads()) return false;
  if (args->trace != 0 && args->trace != 1) {
    std::fprintf(stderr, "perfbench: --trace must be 0 or 1\n");
    return false;
  }
  if (!(args->seconds > 0)) {
    std::fprintf(stderr, "perfbench: --seconds must be positive\n");
    return false;
  }
  return true;
}

std::string JsonEscape(const std::string& text) {
  std::string out;
  for (const char c : text) {
    if (c == '"' || c == '\\') out.push_back('\\');
    if (static_cast<unsigned char>(c) >= 0x20) out.push_back(c);
  }
  return out;
}

double Percentile(std::vector<double> values, double q) {
  if (values.empty()) return 0;
  std::sort(values.begin(), values.end());
  const auto index = static_cast<std::size_t>(
      q * static_cast<double>(values.size() - 1) + 0.5);
  return values[std::min(index, values.size() - 1)];
}

double Mean(const std::vector<double>& values) {
  double sum = 0;
  for (const double v : values) sum += v;
  return values.empty() ? 0 : sum / static_cast<double>(values.size());
}

double Ratio(double numerator, double denominator) {
  return denominator > 0 ? numerator / denominator : 0;
}

/// One metric series: a value per repetition or instance, reported as its
/// median, or its mean where `mean` is set.
struct Series {
  std::string unit;
  std::vector<double> values;
  bool mean = false;
};
using MetricTable = std::map<std::string, Series>;

void Add(MetricTable& table, const std::string& name, const char* unit,
         double value, bool mean = false) {
  Series& series = table[name];
  series.unit = unit;
  series.values.push_back(value);
  series.mean = mean;
}

/// CPU time of the whole process, all threads, user and system. The
/// guest kernel books time the hypervisor stole from a vCPU as steal, not
/// to the task that was runnable, so CPU time leaves it out.
double ProcessCpuSeconds() {
  timespec now{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &now);
  return static_cast<double>(now.tv_sec) +
         1e-9 * static_cast<double>(now.tv_nsec);
}

/// One repetition: the host speed probe, then construct, Run(), and gate
/// the result. Construction and Run() are timed apart, each in process CPU
/// time; Run() also in wall time.
struct Repetition {
  std::unique_ptr<sim::core::Simulation> simulation;
  double probe_s = 0;
  double setup_cpu_s = 0;
  double run_cpu_s = 0;
  double run_s = 0;
  sim::core::SimResult result;

  /// Converts this repetition's CPU times to the reference host speed.
  double ToReference() const { return kReferenceProbeSeconds / probe_s; }
};

Repetition RunRepetition(const sim::core::SimConfig& config,
                         HostSpeedProbe& probe) {
  Repetition rep;
  rep.probe_s = probe.MeasureSeconds();
  const double cpu_start = ProcessCpuSeconds();
  rep.simulation = std::make_unique<sim::core::Simulation>(config);
  const double cpu_built = ProcessCpuSeconds();
  const auto built = Clock::now();
  rep.result = rep.simulation->Run();
  rep.run_s = SecondsBetween(built, Clock::now());
  rep.run_cpu_s = ProcessCpuSeconds() - cpu_built;
  rep.setup_cpu_s = cpu_built - cpu_start;
  return rep;
}

/// The [host] end-to-end metrics count CPU time, not wall time, scaled by
/// the host speed probe. The reference host is a 4-vCPU VM on a shared
/// machine, and while other tenants are busy the hypervisor steals 10-18%
/// of its vCPU time in bursts. A stolen slice stalls every round barrier
/// it lands in, so over five 30 s runs the median wall µs per round spread
/// (interquartile range over median) 0.61 on bds_uniform_closed and 0.76
/// on fds_line_closed, against 0.11 and 0.12 for CPU µs per round. The
/// wall-time figures stay in the traced run, as host.wall_us_per_round and
/// host.wall_commits_per_s.
double CpuUsPerRound(const Repetition& rep) {
  return rep.run_cpu_s * rep.ToReference() * 1e6 /
         static_cast<double>(rep.result.rounds_executed);
}

double CommitsPerCpuSecond(const Repetition& rep) {
  return static_cast<double>(rep.result.committed) /
         (rep.run_cpu_s * rep.ToReference());
}

/// Keeps freed heap memory in the process. Every repetition builds and
/// drops a whole Simulation; returned to the kernel, those pages come back
/// as fresh page faults in the next repetition, whose cost depends on the
/// host's memory pressure rather than on the program. After the warm-up
/// the repetitions reuse the same pages.
void RetainFreedMemory() {
  mallopt(M_MMAP_MAX, 0);
  mallopt(M_TRIM_THRESHOLD, std::numeric_limits<int>::max());
}

/// Simulated-round end-to-end metrics of one instance: they repeat exactly
/// for a given seed, so each instance contributes one value, and the run
/// reports their mean. Some are bimodal across seeds (bp_line_open_churn
/// drains in about 4160 or about 4820 rounds, which moves the per-round
/// pending average by 13%), and a median over instances would jump between
/// the modes.
void AddSimMetrics(MetricTable& table, const sim::core::SimResult& r) {
  Add(table, "latency_p50_rounds", "rounds", r.p50_latency, true);
  Add(table, "latency_p99_rounds", "rounds", r.p99_latency, true);
  Add(table, "pending_avg_per_shard", "txns", r.avg_pending_per_shard,
      true);
  Add(table, "leader_queue_max", "txns", r.max_single_leader_queue,
      true);
  Add(table, "committed_share", "ratio",
      Ratio(static_cast<double>(r.committed), static_cast<double>(r.injected)),
      true);
}

/// Per-layer values of one traced repetition, read from the decorators'
/// trace and the Simulation's public accessors.
void AddLayers(MetricTable& table, const Repetition& rep,
               const LayerTrace& trace) {
  const sim::core::Simulation& simulation = *rep.simulation;
  const sim::core::SimResult& r = rep.result;
  const sim::core::PhaseTimes& phases = simulation.phase_times();
  const bool pipelined =
      simulation.effective_workers() > 1 && simulation.config().pipeline;
  const double committed = static_cast<double>(r.committed);

  Add(table, "engine.generate_s", "s", phases.generate);
  Add(table, "engine.inject_s", "s", phases.inject);
  // The serial epilogue flushes inside EndRound, which the engine books
  // under finish; there the flush reads the EndRound time.
  Add(table, "engine.flush_s", "s",
      pipelined ? phases.flush : trace.end_round_s);
  Add(table, "engine.finish_s", "s", phases.finish);
  Add(table, "engine.serial_share", "ratio",
      Ratio(phases.total - phases.step - phases.flush, phases.total));
  // Pipelined generation runs inside the flush window, except round 0's.
  Add(table, "engine.other_s", "s",
      phases.total - phases.inject - phases.begin - phases.step -
          phases.flush - phases.finish - phases.sample -
          (pipelined ? 0.0 : phases.generate));

  Add(table, "adversary.next_calls", "calls",
      static_cast<double>(trace.next_calls));
  Add(table, "adversary.next_s", "s", trace.next_s);
  Add(table, "adversary.draws_per_injected", "ratio",
      Ratio(static_cast<double>(trace.next_calls),
            static_cast<double>(r.injected_txns)));

  double busiest = 0;
  double busy_total = 0;
  for (const double busy : trace.shard_busy_s) {
    busiest = std::max(busiest, busy);
    busy_total += busy;
  }
  Add(table, "sched.step_busy_s", "s", trace.step_busy_s);
  Add(table, "sched.step_skew", "ratio", Mean(trace.round_skew));
  Add(table, "sched.step_max_shard_share", "ratio", Ratio(busiest, busy_total));
  Add(table, "sched.epilogue_s", "s", trace.epilogue_s);
  Add(table, "round.us_p50", "us", Percentile(trace.round_us, 0.50));
  Add(table, "round.us_p99", "us", Percentile(trace.round_us, 0.99));
  Add(table, "round.samples", "rounds",
      static_cast<double>(trace.round_us.size()));

  auto& scheduler =
      dynamic_cast<const TracedScheduler&>(rep.simulation->scheduler())
          .inner();
  double inbound_max = 0;
  double inbound_total = 0;
  for (sim::ShardId shard = 0; shard < scheduler.shard_count(); ++shard) {
    const auto in =
        static_cast<double>(scheduler.ShardTrafficFor(shard).messages_in);
    inbound_max = std::max(inbound_max, in);
    inbound_total += in;
  }
  Add(table, "net.messages_per_commit", "msgs/txn",
      Ratio(static_cast<double>(r.messages), committed));
  Add(table, "net.payload_per_commit", "units/txn",
      Ratio(static_cast<double>(r.payload_units), committed));
  Add(table, "net.busiest_in_share", "ratio",
      Ratio(inbound_max, inbound_total));
  Add(table, "net.ring_bytes", "B", static_cast<double>(trace.ring_bytes_peak));
  Add(table, "net.outbox_bytes", "B",
      static_cast<double>(trace.outbox_bytes_peak));

  Add(table, "txn.arena_bytes", "B",
      static_cast<double>(trace.arena_bytes_peak));
  Add(table, "txn.arena_resets", "count",
      static_cast<double>(scheduler.ArenaMemory().resets));

  Add(table, "wal.bytes_per_commit", "B/txn",
      Ratio(static_cast<double>(r.wal_bytes), committed));
  Add(table, "wal.checkpoints", "count",
      static_cast<double>(r.checkpoint_count));
  Add(table, "recovery.replay_bytes", "B", static_cast<double>(r.replay_bytes));
  Add(table, "recovery.rounds", "rounds",
      static_cast<double>(r.recovery_rounds));

  const auto* backpressure =
      dynamic_cast<const sim::consensus::BackpressureScheduler*>(&scheduler);
  Add(table, "bp.deferred", "txns",
      backpressure ? static_cast<double>(backpressure->deferred_total()) : 0);
  Add(table, "bp.readmitted", "txns",
      backpressure ? static_cast<double>(backpressure->readmitted_total()) : 0);
  Add(table, "bp.hot_transitions", "count",
      backpressure ? static_cast<double>(backpressure->hot_transitions()) : 0);
  Add(table, "bp.spill_peak", "txns", static_cast<double>(r.spill_peak));
  Add(table, "traffic.offered", "txns", static_cast<double>(r.offered_txns));
  Add(table, "traffic.injected", "txns", static_cast<double>(r.injected_txns));
  Add(table, "traffic.inject_lag_peak", "txns",
      static_cast<double>(r.inject_lag_peak));
}

/// cluster.build_s: the traced scheduler's own hierarchy build, or, for a
/// scheduler that builds none, a standalone build over the run's metric.
double ClusterBuildSeconds(const Repetition& rep, const LayerTrace& trace) {
  if (trace.hierarchy_built) return trace.cluster_build_s;
  const sim::core::SimConfig& config = rep.simulation->config();
  const auto start = Clock::now();
  const sim::cluster::Hierarchy hierarchy =
      config.hierarchy == sim::core::HierarchyKind::kLineShifted
          ? sim::cluster::Hierarchy::BuildLineShifted(
                rep.simulation->metric(), config.fds_top_roots)
          : sim::cluster::Hierarchy::BuildSparseCover(
                rep.simulation->metric(), config.fds_top_roots);
  (void)hierarchy;
  return SecondsBetween(start, Clock::now());
}

long PeakRssKb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return usage.ru_maxrss;
}

/// One seeded input of the workload. A run cycles its repetitions over
/// several instances, so the [sim] metrics average over seeds rather than
/// reporting one seed's draw.
struct Instance {
  sim::core::SimConfig config;
  sim::core::SimConfig traced_config;
  bool have_reference = false;
  sim::core::SimResult reference;
  bool layers_recorded = false;
};

int Main(int argc, char** argv) {
  Args args;
  if (!ParseArgs(argc, argv, &args)) return 2;
  RetainFreedMemory();
  const std::size_t instance_count = args.smoke ? 2 : 16;
  std::vector<Instance> instances(instance_count);
  for (std::size_t i = 0; i < instance_count; ++i) {
    Instance& instance = instances[i];
    if (!MakeWorkload(args.workload, args.seed * instance_count + i,
                      args.smoke, &instance.config)) {
      std::fprintf(stderr, "perfbench: unknown --workload '%s'; known:",
                   args.workload.c_str());
      for (const std::string& name : WorkloadNames()) {
        std::fprintf(stderr, " %s", name.c_str());
      }
      std::fprintf(stderr, "\n");
      return 2;
    }
    instance.traced_config = instance.config;
    instance.traced_config.scheduler =
        kTracedPrefix + instance.config.scheduler;
    instance.traced_config.strategy = kTracedPrefix + instance.config.strategy;
  }
  RegisterTracedDecorators();

  MetricTable table;
  std::vector<std::string> violations;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::uint32_t effective_workers = 0;
  // Gate one repetition: the output checks, then the digest against the
  // instance's first repetition.
  const auto gate = [&](Instance& instance, const Repetition& rep,
                        const char* kind) {
    for (const std::string& violation : CheckResult(rep.result)) {
      violations.push_back(std::string(kind) + ": " + violation);
    }
    attempted += rep.result.injected;
    failed += rep.result.aborted + rep.result.unresolved;
    effective_workers = rep.simulation->effective_workers();
    if (!instance.have_reference) {
      instance.reference = rep.result;
      instance.have_reference = true;
      if (args.trace == 0) AddSimMetrics(table, rep.result);
      return;
    }
    const std::string field = FirstDifference(instance.reference, rep.result);
    if (!field.empty()) {
      violations.push_back(std::string(kind) + ": seed " +
                           std::to_string(instance.config.seed) +
                           " digest differs from its first repetition in "
                           "field " + field);
    }
  };

  // Warm-up: gated, not timed — it pays the first-touch page faults.
  HostSpeedProbe probe;
  gate(instances[0], RunRepetition(instances[0].config, probe), "warmup");
  const auto deadline =
      Clock::now() + std::chrono::duration_cast<Clock::duration>(
                         std::chrono::duration<double>(args.seconds));
  std::size_t reps = 0;
  const auto more = [&] {
    return reps < instance_count || Clock::now() < deadline;
  };
  if (args.trace == 0) {
    for (; more(); ++reps) {
      Instance& instance = instances[reps % instance_count];
      const Repetition rep = RunRepetition(instance.config, probe);
      gate(instance, rep, "untraced");
      Add(table, "cpu_us_per_round", "us", CpuUsPerRound(rep));
      Add(table, "commits_per_cpu_s", "1/s", CommitsPerCpuSecond(rep));
      Add(table, "setup_s", "s", rep.setup_cpu_s * rep.ToReference());
    }
    Add(table, "peak_rss_mb", "MB", static_cast<double>(PeakRssKb()) / 1024.0);
  } else {
    std::vector<double> untraced_us;
    std::vector<double> traced_us;
    Repetition last_traced;
    const sim::core::SimConfig* last_config = nullptr;
    for (; more(); ++reps) {
      Instance& instance = instances[reps % instance_count];
      const Repetition plain = RunRepetition(instance.config, probe);
      gate(instance, plain, "untraced");
      untraced_us.push_back(CpuUsPerRound(plain));
      Add(table, "host.wall_us_per_round", "us",
          plain.run_s * 1e6 /
              static_cast<double>(plain.result.rounds_executed));
      Add(table, "host.wall_commits_per_s", "1/s",
          static_cast<double>(plain.result.committed) / plain.run_s);
      Add(table, "host.probe_ms", "ms", plain.probe_s * 1e3);

      LayerTrace trace;
      ActiveTrace() = &trace;
      Repetition traced = RunRepetition(instance.traced_config, probe);
      ActiveTrace() = nullptr;
      gate(instance, traced, "traced");
      traced_us.push_back(CpuUsPerRound(traced));
      // Layer metrics from each instance's first traced repetition only:
      // every instance then counts once, so the counters' medians repeat
      // exactly for a seed whatever the run's repetition count.
      if (!instance.layers_recorded) {
        AddLayers(table, traced, trace);
        Add(table, "cluster.build_s", "s", ClusterBuildSeconds(traced, trace));
        instance.layers_recorded = true;
      }
      last_traced = std::move(traced);
      last_config = &instance.config;
    }
    Add(table, "trace.overhead", "ratio",
        Median(traced_us) / Median(untraced_us));
    const TxnProbe txn =
        RunTxnProbe(*last_config, *last_traced.simulation,
                    args.smoke ? 128 : 1024, args.smoke ? 4 : 24);
    Add(table, "txn.csr_build_ns_per_txn", "ns/txn", txn.csr_build_ns_per_txn);
    Add(table, "txn.color_ns_per_txn", "ns/txn", txn.color_ns_per_txn);
    Add(table, "wal.read_ns_per_byte", "ns/B",
        RunDurabilityProbe(*last_traced.simulation,
                           last_traced.result.rounds_executed,
                           args.smoke ? 3 : 15));
  }

  if (args.smoke) {
    for (const std::string& missed : GateSelfTest(instances[0].reference)) {
      violations.push_back(missed);
    }
  }

  // The run's digest covers every instance's reference result.
  std::uint64_t digest = 0xcbf29ce484222325ULL;
  for (const Instance& instance : instances) {
    digest = (digest ^ Digest(instance.reference)) * 0x100000001b3ULL;
  }
  std::printf("{\"workload\": \"%s\", \"seed\": %" PRIu64
              ", \"trace\": %d, \"smoke\": %s, \"instances\": %zu, "
              "\"repetitions\": %zu, "
              "\"attempted\": %" PRIu64 ", \"failed\": %" PRIu64
              ", \"digest\": \"%016" PRIx64 "\", \"config\": \"%s\", "
              "\"configured_workers\": %u, \"effective_workers\": %u, "
              "\"compiler\": \"%s\", \"build_type\": \"%s\", \"violations\": [",
              JsonEscape(args.workload).c_str(), args.seed, args.trace,
              args.smoke ? "true" : "false", instance_count, reps, attempted,
              failed, digest,
              JsonEscape(instances[0].config.Describe()).c_str(),
              instances[0].config.worker_threads, effective_workers,
              PERFBENCH_COMPILER, PERFBENCH_BUILD_TYPE);
  for (std::size_t i = 0; i < violations.size(); ++i) {
    std::printf("%s\"%s\"", i ? ", " : "", JsonEscape(violations[i]).c_str());
  }
  std::printf("], \"metrics\": {");
  bool first = true;
  for (const auto& [name, series] : table) {
    std::printf("%s\"%s\": {\"value\": %.9g, \"unit\": \"%s\", "
                "\"samples\": %zu}",
                first ? "" : ", ", name.c_str(),
                series.mean ? Mean(series.values) : Median(series.values),
                series.unit.c_str(), series.values.size());
    first = false;
  }
  std::printf("}}\n");
  for (const std::string& violation : violations) {
    std::fprintf(stderr, "perfbench: gate violated: %s\n", violation.c_str());
  }
  return violations.empty() ? 0 : 3;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) { return perfbench::Main(argc, argv); }
