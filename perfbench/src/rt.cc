// The runtime workload, rt_blocking: sfs::runtime::Executor over sharded SFS
// with p = 2 dispatchers.  Three spinning hogs of weight 1, 2 and 3 do
// ~50 us work units back to back; sixteen closed-loop tasks each do one
// ~50 us unit and then block for a seeded 1-4 ms.
//
// A run is a sequence of sessions of fixed wall length, each with a fresh
// scheduler and executor.  At the session's stop instant every task returns
// Done from its next unit, so Run ends on its own; a task still unfinished
// or a wakeup still unserved when Run's wall limit expires is a failure.
//
// Wake-to-run samples are exact: a task stamps each Block(d) return, and the
// sample is its next unit call minus (stamp + d).

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "metrics.h"
#include "src/common/rng.h"
#include "src/runtime/executor.h"
#include "src/sched/factory.h"
#include "src/sched/sfs.h"
#include "src/sched/sharded.h"
#include "timed.h"
#include "tracer.h"

namespace perfbench {

namespace {

using sfs::Tick;
using sfs::Usec;
using sfs::runtime::Executor;
using sfs::sched::ThreadId;

constexpr int kCpus = 2;
constexpr double kHogWeights[] = {1.0, 2.0, 3.0};
constexpr double kSleeperWeight = 1.0;
constexpr std::int64_t kUnitNs = 50'000;
constexpr int kSetupsPerSession = 2;

struct Shape {
  int sleepers = 16;
  double session_s = 1.0;
  double warmup_s = 0.5;
};

// Per-task state.  Written only by the task's own worker thread while the
// executor runs; read after Run has joined every thread.
struct TaskState {
  ThreadId tid = 0;
  bool hog = true;
  double weight = 1.0;
  sfs::common::Rng rng{1};
  std::int64_t first_call_ns = -1;
  std::int64_t units = 0;          // units started before the stop instant
  std::int64_t blocks = 0;         // Block(d) returns
  std::int64_t wake_due_ns = -1;   // stamp + d of the pending wakeup, -1 if none
  bool done = false;
  std::vector<double> wake_to_run_us;
};

void Spin(std::int64_t from_ns) {
  while (NowNs() - from_ns < kUnitNs) {
  }
}

struct Session {
  double setup_s = 0;
  double ns_per_unit = 0;
  double share_ratio_min = 0;
  std::int64_t attempted = 0;
  std::int64_t failed = 0;
  std::int64_t blocks = 0;
  std::int64_t wakeups = 0;
  std::vector<double> wake_to_run_us;
  double wake_p50_us = 0;
  double wake_p90_us = 0;
  double wake_p99_us = 0;
  // Executor and scheduler counters.
  double dispatch_ns_p50 = 0, dispatch_ns_p99 = 0, lock_wait_ns_mean = 0;
  double wake_apply_ns_p50 = 0, wake_apply_ns_p99 = 0, preempt_latency_us_p50 = 0;
  double kicks = 0, dispatches = 0, preemptions = 0;
  double steals = 0, shard_migrations = 0;
  double decisions = 0, refreshes = 0, refresh_repositions = 0, rebases = 0, readjusts = 0;
  double cpu_time_ms[3] = {0, 0, 0};
  double wall_ns = 0;
};

Session RunSession(const Shape& shape, std::uint64_t seed, int index, bool traced) {
  Session s;
  const std::int64_t setup_start = NowNs();
  sfs::sched::SchedConfig config;
  config.num_cpus = kCpus;
  config.quantum = Executor::Config{}.quantum;
  std::unique_ptr<sfs::sched::Scheduler> scheduler =
      traced ? std::make_unique<TimedSharded>(config)
             : sfs::sched::CreateScheduler(sfs::sched::SchedKind::kShardedSfs, config);
  Executor executor(*scheduler, Executor::Config{});

  std::vector<std::unique_ptr<TaskState>> tasks;
  ThreadId tid = 0;
  for (const double w : kHogWeights) {
    auto t = std::make_unique<TaskState>();
    t->tid = tid++;
    t->weight = w;
    tasks.push_back(std::move(t));
  }
  for (int i = 0; i < shape.sleepers; ++i) {
    auto t = std::make_unique<TaskState>();
    t->tid = tid++;
    t->hog = false;
    t->weight = kSleeperWeight;
    t->rng = sfs::common::Rng(seed * 0x9e3779b97f4a7c15ULL + static_cast<std::uint64_t>(t->tid) +
                              (static_cast<std::uint64_t>(index) << 32));
    // At most one sample per millisecond of blocking.  Reserving here keeps
    // the worker threads from allocating, which would make peak memory
    // depend on which threads' malloc arenas happened to grow.
    t->wake_to_run_us.reserve(static_cast<std::size_t>(shape.session_s * 1000) + 16);
    tasks.push_back(std::move(t));
  }
  std::atomic<std::int64_t> stop_ns{INT64_MAX};
  for (auto& owned : tasks) {
    TaskState* t = owned.get();
    executor.AddTask(t->tid, t->weight, [t, &stop_ns]() -> Executor::WorkResult {
      const std::int64_t now = NowNs();
      if (t->first_call_ns < 0) {
        t->first_call_ns = now;
      }
      if (t->wake_due_ns >= 0) {
        t->wake_to_run_us.push_back(static_cast<double>(now - t->wake_due_ns) / 1e3);
        t->wake_due_ns = -1;
      }
      if (now >= stop_ns.load(std::memory_order_relaxed)) {
        t->done = true;
        return Executor::WorkResult::Done();
      }
      Spin(now);
      ++t->units;
      if (t->hog) {
        return Executor::WorkResult::Continue();
      }
      const Tick block = Usec(t->rng.UniformInt(1000, 4000));
      ++t->blocks;
      t->wake_due_ns = NowNs() + block * 1000;
      return Executor::WorkResult::Block(block);
    });
  }
  const std::int64_t session_ns = static_cast<std::int64_t>(shape.session_s * 1e9);
  stop_ns.store(NowNs() + session_ns);
  const std::int64_t run_start = NowNs();
  executor.Run(sfs::Sec(2) + session_ns / 1000);
  const std::int64_t stop = stop_ns.load();

  std::int64_t first_call = INT64_MAX;
  std::int64_t units = 0;
  for (const auto& t : tasks) {
    if (t->first_call_ns >= 0) {
      first_call = std::min(first_call, t->first_call_ns);
    }
    units += t->units;
    s.blocks += t->blocks;
    s.attempted += 1 + t->blocks;
    if (!t->done) {
      ++s.failed;  // unfinished at the wall limit
      if (t->wake_due_ns >= 0) {
        ++s.failed;  // and its last wakeup was never served
      }
    }
    s.wake_to_run_us.insert(s.wake_to_run_us.end(), t->wake_to_run_us.begin(),
                            t->wake_to_run_us.end());
  }
  s.wake_p50_us = Percentile(s.wake_to_run_us, 50.0);
  s.wake_p90_us = Percentile(s.wake_to_run_us, 90.0);
  s.wake_p99_us = Percentile(s.wake_to_run_us, 99.0);
  s.setup_s = static_cast<double>(first_call - setup_start) / 1e9;
  s.wall_ns = static_cast<double>(stop - run_start);
  s.ns_per_unit = static_cast<double>(stop - first_call) / static_cast<double>(std::max<std::int64_t>(1, units));

  double hog_cpu = 0;
  double hog_weight = 0;
  for (int h = 0; h < 3; ++h) {
    s.cpu_time_ms[h] = static_cast<double>(executor.CpuTime(h)) / 1e3;
    hog_cpu += s.cpu_time_ms[h];
    hog_weight += kHogWeights[h];
  }
  s.share_ratio_min = 1e300;
  for (int h = 0; h < 3; ++h) {
    const double ideal = hog_cpu * kHogWeights[h] / hog_weight;
    s.share_ratio_min = std::min(s.share_ratio_min, s.cpu_time_ms[h] / ideal);
  }

  s.wakeups = executor.wakeups();
  s.dispatch_ns_p50 = executor.dispatch_latencies().Percentile(50);
  s.dispatch_ns_p99 = executor.dispatch_latencies().Percentile(99);
  s.lock_wait_ns_mean = executor.lock_wait_latencies().mean();
  s.wake_apply_ns_p50 = executor.wake_apply_latencies().Percentile(50);
  s.wake_apply_ns_p99 = executor.wake_apply_latencies().Percentile(99);
  s.preempt_latency_us_p50 =
      executor.preempt_latencies().count() ? executor.preempt_latencies().Percentile(50) : 0.0;
  s.kicks = static_cast<double>(executor.kicks());
  s.dispatches = static_cast<double>(executor.dispatches());
  s.preemptions = static_cast<double>(executor.preemptions());
  s.steals = static_cast<double>(scheduler->steals());
  s.shard_migrations = static_cast<double>(scheduler->shard_migrations());
  const auto& sharded = dynamic_cast<const sfs::sched::ShardedScheduler&>(*scheduler);
  for (int c = 0; c < kCpus; ++c) {
    const auto& shard = dynamic_cast<const sfs::sched::Sfs&>(sharded.shard(c));
    s.decisions += static_cast<double>(shard.decisions());
    s.refreshes += static_cast<double>(shard.full_refreshes());
    s.refresh_repositions += static_cast<double>(shard.refresh_repositions());
    s.rebases += static_cast<double>(shard.rebases());
    s.readjusts += static_cast<double>(shard.readjust_changes());
  }
  return s;
}

template <typename F>
double MedianOf(const std::vector<Session>& sessions, F field) {
  std::vector<double> v;
  for (const Session& s : sessions) {
    v.push_back(field(s));
  }
  return Median(v);
}

void Tally(Result& r, const std::vector<Session>& sessions) {
  for (const Session& s : sessions) {
    r.attempted += s.attempted;
    r.failed += s.failed;
    if (s.failed > 0) {
      r.Fail("session left " + std::to_string(s.failed) + " tasks or wakeups unserved");
    }
    if (s.wakeups != s.blocks) {
      r.Fail("executor applied " + std::to_string(s.wakeups) + " wakeups for " +
             std::to_string(s.blocks) + " blocks");
    }
  }
}

}  // namespace

Result RunRtBlocking(const Options& opts) {
  Result r;
  Shape shape;
  if (opts.small) {
    shape.sleepers = 4;
    shape.session_s = 0.25;
    shape.warmup_s = 0.1;
  }
  // Sessions fill the measured time; a traced run spends half of it on
  // untraced sessions, the baseline of the tracing overhead.
  const double budget_s = opts.trace ? opts.seconds * 0.5 : opts.seconds;
  const int sessions = std::max(2, static_cast<int>(budget_s / shape.session_s));
  r.Detail("sessions", static_cast<double>(sessions));
  r.Detail("session_s", shape.session_s);

  // A discarded warm-up session first: the first executor of a process
  // pays for thread stacks and cold caches.
  Shape warmup = shape;
  warmup.session_s = shape.warmup_s;
  Tally(r, {RunSession(warmup, opts.seed, sessions, false)});

  // Set-up alone, between the sessions: sessions whose stop instant has
  // already passed, so every task returns Done from its first call.
  Shape setup_only = shape;
  setup_only.session_s = 0;
  std::vector<double> setup_s;
  std::vector<Session> untraced;
  for (int i = 0; i < sessions; ++i) {
    for (int k = 0; k < kSetupsPerSession; ++k) {
      const Session s = RunSession(setup_only, opts.seed, sessions * (k + 1) + i + 1, false);
      setup_s.push_back(s.setup_s);
      Tally(r, {s});
    }
    untraced.push_back(RunSession(shape, opts.seed, i, false));
  }
  Tally(r, untraced);
  const double untraced_ns = MedianOf(untraced, [](const Session& s) { return s.ns_per_unit; });

  if (!opts.trace) {
    std::vector<double> samples;
    for (const Session& s : untraced) {
      samples.insert(samples.end(), s.wake_to_run_us.begin(), s.wake_to_run_us.end());
    }
    DescribeSamples(r, "wake_to_run_us", samples);
    std::string per_session;
    for (const Session& s : untraced) {
      per_session += (per_session.empty() ? "" : ",") + Num(s.wake_p50_us) + "/" +
                     Num(s.wake_p90_us) + "/" + Num(s.wake_p99_us);
    }
    r.Detail("wake_to_run_us.session_p50_p90_p99", per_session);
    EndToEnd e;
    e.ns_per_op = untraced_ns;
    e.resp_p50_ms = MedianOf(untraced, [](const Session& s) { return s.wake_p50_us; }) / 1e3;
    r.Detail("wake_to_run_us.session_median_p90",
             MedianOf(untraced, [](const Session& s) { return s.wake_p90_us; }));
    r.Detail("wake_to_run_us.session_median_p99",
             MedianOf(untraced, [](const Session& s) { return s.wake_p99_us; }));
    r.Detail("wake_to_run_us.session_count_median",
             MedianOf(untraced, [](const Session& s) {
               return static_cast<double>(s.wake_to_run_us.size());
             }));
    e.share_ratio_min = MedianOf(untraced, [](const Session& s) { return s.share_ratio_min; });
    for (const Session& s : untraced) {
      setup_s.push_back(s.setup_s);
    }
    // The fastest set-up, as for the sim workloads (see sim.cc).
    r.Detail("setup_s.median", Median(setup_s));
    e.setup_s = Percentile(setup_s, 0.0);
    e.peak_rss_mb = PeakRssMb();
    r.Detail("units_per_s", 1e9 / untraced_ns);
    for (int h = 0; h < 3; ++h) {
      r.Detail("hog" + std::to_string(h) + "_cpu_ms_median",
               MedianOf(untraced, [h](const Session& s) { return s.cpu_time_ms[h]; }));
    }
    e.Emit(r);
    return r;
  }

  Tracer& tracer = Tracer::Get();
  tracer.Reset();
  std::vector<Session> traced;
  for (int i = 0; i < sessions; ++i) {
    traced.push_back(RunSession(shape, opts.seed, i, true));
  }
  Tally(r, traced);
  if (const std::string err = tracer.CheckSelfTimes(); !err.empty()) {
    r.Fail("span self times: " + err);
  }
  if (!opts.spans_path.empty() && !tracer.WriteRecords(opts.spans_path)) {
    r.Fail("cannot write " + opts.spans_path);
  }
  const auto totals = tracer.Totals();
  const double n = static_cast<double>(sessions);
  auto at = [&totals](Kind k) { return totals[static_cast<std::size_t>(k)]; };
  auto cost = [&](Kind k) {
    const KindStats s = at(k);
    return CallCost{s.calls ? static_cast<double>(s.total_ns) / static_cast<double>(s.calls) : 0.0,
                    static_cast<double>(s.calls) / n};
  };
  PerLayer l;
  l.pick = cost(Kind::kSchedPick);
  l.charge = cost(Kind::kSchedCharge);
  l.wake = cost(Kind::kSchedWake);
  l.block = cost(Kind::kSchedBlock);
  l.admit = cost(Kind::kSchedAdmit);
  l.remove = cost(Kind::kSchedRemove);
  l.preempt_check = cost(Kind::kSchedPreempt);
  double sched_self = 0;
  for (const Kind k : {Kind::kSchedPick, Kind::kSchedCharge, Kind::kSchedWake, Kind::kSchedBlock,
                       Kind::kSchedAdmit, Kind::kSchedRemove, Kind::kSchedPreempt,
                       Kind::kShardedPick}) {
    sched_self += static_cast<double>(at(k).self_ns);
  }
  double traced_wall = 0;
  for (const Session& s : traced) {
    traced_wall += s.wall_ns;
  }
  // Share of the dispatchers' capacity (p CPUs x wall time) spent in sched.
  l.sched_share = sched_self / (traced_wall * kCpus);
  const KindStats sharded_pick = at(Kind::kShardedPick);
  l.sharded_steal_ns_mean = sharded_pick.calls ? static_cast<double>(sharded_pick.self_ns) /
                                                     static_cast<double>(sharded_pick.calls)
                                               : 0.0;
  auto per_session = [&traced](double Session::*field) {
    double sum = 0;
    for (const Session& s : traced) {
      sum += s.*field;
    }
    return sum / static_cast<double>(traced.size());
  };
  l.sharded_steals = per_session(&Session::steals);
  l.sharded_migrations = per_session(&Session::shard_migrations);
  l.sched_decisions = per_session(&Session::decisions);
  l.sched_refreshes = per_session(&Session::refreshes);
  l.sched_refresh_repositions = per_session(&Session::refresh_repositions);
  l.sched_rebases = per_session(&Session::rebases);
  l.sched_readjusts = per_session(&Session::readjusts);
  // The runtime's own figures come from the untraced sessions.
  l.runtime_dispatch_ns_p50 = MedianOf(untraced, [](const Session& s) { return s.dispatch_ns_p50; });
  l.runtime_dispatch_ns_p99 = MedianOf(untraced, [](const Session& s) { return s.dispatch_ns_p99; });
  l.runtime_lock_wait_ns_mean =
      MedianOf(untraced, [](const Session& s) { return s.lock_wait_ns_mean; });
  l.runtime_wake_apply_ns_p50 =
      MedianOf(untraced, [](const Session& s) { return s.wake_apply_ns_p50; });
  l.runtime_wake_apply_ns_p99 =
      MedianOf(untraced, [](const Session& s) { return s.wake_apply_ns_p99; });
  l.runtime_preempt_latency_us_p50 =
      MedianOf(untraced, [](const Session& s) { return s.preempt_latency_us_p50; });
  l.runtime_kicks_per_wakeup = MedianOf(untraced, [](const Session& s) {
    return s.wakeups ? s.kicks / static_cast<double>(s.wakeups) : 0.0;
  });
  l.runtime_dispatches = MedianOf(untraced, [](const Session& s) { return s.dispatches; });
  l.runtime_wakeups =
      MedianOf(untraced, [](const Session& s) { return static_cast<double>(s.wakeups); });
  l.runtime_preemptions = MedianOf(untraced, [](const Session& s) { return s.preemptions; });
  const double traced_ns = MedianOf(traced, [](const Session& s) { return s.ns_per_unit; });
  l.trace_overhead_share = (traced_ns - untraced_ns) / untraced_ns;
  // Fairness of the hogs against their weight-proportional share, in ms.
  double lag = 0;
  for (const Session& s : untraced) {
    const double total = s.cpu_time_ms[0] + s.cpu_time_ms[1] + s.cpu_time_ms[2];
    for (int h = 0; h < 3; ++h) {
      lag = std::max(lag, std::abs(s.cpu_time_ms[h] - total * kHogWeights[h] / 6.0));
    }
  }
  l.sched_gms_lag_max_ms = lag;
  l.Emit(r);
  return r;
}

}  // namespace perfbench
