// The benchmark's metric sets.  Every workload fills one of these structs and
// emits all of its fields, so each run prints the same names with the same
// units; a field a workload does not exercise stays 0 (per-layer only).

#ifndef PERFBENCH_METRICS_H_
#define PERFBENCH_METRICS_H_

#include "report.h"

namespace perfbench {

struct EndToEnd {
  double ns_per_op = 0;        // host ns per sim event, or wall ns per rt work unit
  double resp_p50_ms = 0;      // response / wake-to-run latency, median
  double share_ratio_min = 0;  // min over hog classes of service / ideal service
  double setup_s = 0;          // fastest build of workload + scheduler (+ threads)
  double peak_rss_mb = 0;

  void Emit(Result& r) const {
    r.Metric("ns_per_op", ns_per_op, "ns");
    r.Metric("resp_p50_ms", resp_p50_ms, "ms");
    r.Metric("share_ratio_min", share_ratio_min, "ratio");
    r.Metric("setup_s", setup_s, "s");
    r.Metric("peak_rss_mb", peak_rss_mb, "MiB");
  }
};

// Mean, inclusive duration and per-run call count of one traced entry point.
struct CallCost {
  double ns_mean = 0;
  double calls = 0;
};

struct PerLayer {
  // sim: the event loop's own time and its exact counters.
  double sim_self_ns_per_event = 0;
  double sim_share = 0;
  double sim_events = 0;
  double sim_dispatches = 0;
  double sim_preemptions = 0;
  double sim_context_switches = 0;
  double sim_migrations = 0;
  // sched: policy hooks timed from outside, and Sfs's exact work counters.
  CallCost pick, charge, wake, block, admit, remove, preempt_check;
  double sched_share = 0;
  double sched_refreshes = 0;
  double sched_refresh_repositions = 0;
  double sched_rebases = 0;
  double sched_decisions = 0;
  double sched_readjusts = 0;
  double sched_gms_lag_max_ms = 0;
  // sched.sharded
  double sharded_steals = 0;
  double sharded_migrations = 0;
  double sharded_steal_ns_mean = 0;
  // workload
  double workload_next_ns_mean = 0;
  double workload_calls = 0;
  double workload_share = 0;
  // the benchmark's own fingerprint hook inside the traced run
  double bench_share = 0;
  // runtime: Executor's public accessors.
  double runtime_dispatch_ns_p50 = 0;
  double runtime_dispatch_ns_p99 = 0;
  double runtime_lock_wait_ns_mean = 0;
  double runtime_wake_apply_ns_p50 = 0;
  double runtime_wake_apply_ns_p99 = 0;
  double runtime_preempt_latency_us_p50 = 0;
  double runtime_kicks_per_wakeup = 0;
  double runtime_dispatches = 0;
  double runtime_wakeups = 0;
  double runtime_preemptions = 0;
  // traced minus untraced cost per operation, as a share of untraced
  double trace_overhead_share = 0;

  void Emit(Result& r) const {
    r.Metric("sim.self_ns_per_event", sim_self_ns_per_event, "ns");
    r.Metric("sim.share", sim_share, "ratio");
    r.Metric("sim.events", sim_events, "count");
    r.Metric("sim.dispatches", sim_dispatches, "count");
    r.Metric("sim.preemptions", sim_preemptions, "count");
    r.Metric("sim.context_switches", sim_context_switches, "count");
    r.Metric("sim.migrations", sim_migrations, "count");
    const std::pair<const char*, const CallCost*> calls[] = {
        {"pick", &pick},   {"charge", &charge}, {"wake", &wake},
        {"block", &block}, {"admit", &admit},   {"remove", &remove},
        {"preempt_check", &preempt_check}};
    for (const auto& [name, cost] : calls) {
      r.Metric(std::string("sched.") + name + ".ns_mean", cost->ns_mean, "ns");
      r.Metric(std::string("sched.") + name + ".calls", cost->calls, "count");
    }
    r.Metric("sched.share", sched_share, "ratio");
    r.Metric("sched.refreshes", sched_refreshes, "count");
    r.Metric("sched.refresh_repositions", sched_refresh_repositions, "count");
    r.Metric("sched.rebases", sched_rebases, "count");
    r.Metric("sched.decisions", sched_decisions, "count");
    r.Metric("sched.readjusts", sched_readjusts, "count");
    r.Metric("sched.gms_lag_max_ms", sched_gms_lag_max_ms, "ms");
    r.Metric("sched.sharded.steals", sharded_steals, "count");
    r.Metric("sched.sharded.migrations", sharded_migrations, "count");
    r.Metric("sched.sharded.steal_ns_mean", sharded_steal_ns_mean, "ns");
    r.Metric("workload.next.ns_mean", workload_next_ns_mean, "ns");
    r.Metric("workload.calls", workload_calls, "count");
    r.Metric("workload.share", workload_share, "ratio");
    r.Metric("bench.share", bench_share, "ratio");
    r.Metric("runtime.dispatch_ns.p50", runtime_dispatch_ns_p50, "ns");
    r.Metric("runtime.dispatch_ns.p99", runtime_dispatch_ns_p99, "ns");
    r.Metric("runtime.lock_wait_ns.mean", runtime_lock_wait_ns_mean, "ns");
    r.Metric("runtime.wake_apply_ns.p50", runtime_wake_apply_ns_p50, "ns");
    r.Metric("runtime.wake_apply_ns.p99", runtime_wake_apply_ns_p99, "ns");
    r.Metric("runtime.preempt_latency_us.p50", runtime_preempt_latency_us_p50, "us");
    r.Metric("runtime.kicks_per_wakeup", runtime_kicks_per_wakeup, "ratio");
    r.Metric("runtime.dispatches", runtime_dispatches, "count");
    r.Metric("runtime.wakeups", runtime_wakeups, "count");
    r.Metric("runtime.preemptions", runtime_preemptions, "count");
    r.Metric("trace.overhead_share", trace_overhead_share, "ratio");
  }
};

// Result for one invocation of a workload.
Result RunSimSleepers(const Options& opts);
Result RunSimChurn(const Options& opts);
Result RunRtBlocking(const Options& opts);

}  // namespace perfbench

#endif  // PERFBENCH_METRICS_H_
