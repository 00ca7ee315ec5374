// The simulator workloads, sim_sleepers and sim_churn.
//
// A workload is a Plan generated from the seed: task specs with arrival
// times.  Each run builds a fresh scheduler and sim::Engine from the plan,
// in one of three modes:
//
//   * timed — production classes (sched::CreateScheduler(kSfs),
//     EngineConfig{}), no hooks; one RunUntil(horizon) is timed;
//   * verify — production classes plus the benchmark's observers: the
//     run-interval fingerprint, the lifecycle fingerprint, response samples
//     and a sched::GmsReference mirror;
//   * traced — TimedSfs and TimedBehavior wrappers, RunUntil in fixed
//     sim-time slices, and the run-interval fingerprint inside a bench span.
//
// Every run ends with an outcome fingerprint over the engine's exact
// counters, Sfs's work counters and each task's service and state, and a
// check of the capacity identity service + idle + switch = p * elapsed.
// Every run of one plan must reproduce the verify run's outcome, and the
// traced run its schedule fingerprint.

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "metrics.h"
#include "src/common/fingerprint.h"
#include "src/common/rng.h"
#include "src/common/stats.h"
#include "src/sched/factory.h"
#include "src/sched/gms.h"
#include "src/sched/sfs.h"
#include "src/sim/engine.h"
#include "src/workload/workloads.h"
#include "timed.h"
#include "tracer.h"

namespace perfbench {

namespace {

using sfs::Msec;
using sfs::Sec;
using sfs::Tick;
using sfs::Usec;
using sfs::sched::ThreadId;

enum class Role : std::uint8_t { kHog, kSleeper, kJob };

struct TaskSpec {
  ThreadId tid = 0;
  double weight = 1.0;
  Tick arrival = 0;
  Role role = Role::kHog;
  int hog_class = -1;  // share_ratio_min groups hogs by class
  // kSleeper
  Tick think = 0;
  Tick burst = 0;
  std::uint64_t seed = 0;
  // kJob
  Tick work = 0;
};

struct Plan {
  std::string name;
  int cpus = 16;
  Tick quantum = sfs::kDefaultQuantum;
  Tick horizon = 0;
  int slices = 100;  // traced runs call RunUntil once per slice
  int hog_classes = 0;
  std::vector<TaskSpec> tasks;
};

// Pinned at kDefaultSeed, full size: the verify run's run-interval
// fingerprint and outcome fingerprint.  A change to either means the
// schedule changed.
struct Pinned {
  const char* workload;
  std::uint64_t schedule;
  std::uint64_t outcome;
};
constexpr Pinned kPinned[] = {
    {"sim_sleepers", 0x049890f368b80c37ULL, 0x8e4f17422bc84954ULL},
    {"sim_churn", 0xea71cb4118c08a35ULL, 0x92ab1efd4119000eULL},
};

// Two weighted hogs plus mostly-blocked Interact sleepers with long seeded
// think times and sub-millisecond bursts: every blocked sleeper holds a
// pending wakeup while the run queues stay small.
Plan SleepersPlan(std::uint64_t seed, bool small) {
  Plan plan;
  plan.name = "sim_sleepers";
  plan.cpus = 16;
  plan.quantum = sfs::kDefaultQuantum;
  plan.horizon = small ? Sec(4) : Sec(30);
  const int threads = small ? 200 : 2000;
  sfs::common::Rng rng(seed);
  ThreadId tid = 1;
  for (int i = 0; i < 2; ++i) {
    TaskSpec t;
    t.tid = tid++;
    t.weight = static_cast<double>(rng.UniformInt(1, 20));
    t.role = Role::kHog;
    t.hog_class = plan.hog_classes++;
    plan.tasks.push_back(t);
  }
  for (int i = 2; i < threads; ++i) {
    TaskSpec t;
    t.tid = tid++;
    t.role = Role::kSleeper;
    t.think = Sec(2) + Msec(rng.UniformInt(0, 6000));
    t.burst = Usec(rng.UniformInt(200, 800));
    t.seed = seed ^ (0x9e3779b97f4a7c15ULL * static_cast<std::uint64_t>(t.tid));
    t.weight = static_cast<double>(rng.UniformInt(1, 5));
    t.arrival = Msec(rng.UniformInt(0, 2000));
    plan.tasks.push_back(t);
  }
  return plan;
}

// Always-runnable hogs of weight 1-20, three infeasible heavy threads
// (weight > total / p, so readjustment caps them), and a Poisson stream of
// short FixedWork jobs of 2-10 quanta that arrive and exit.
Plan ChurnPlan(std::uint64_t seed, bool small) {
  Plan plan;
  plan.name = "sim_churn";
  plan.cpus = 16;
  plan.quantum = sfs::kLinuxTimerTick;
  plan.horizon = small ? Sec(4) : Sec(30);
  const int hogs = small ? 100 : 1000;
  const Tick arrivals_end = plan.horizon - (small ? Sec(2) : Sec(12));
  const double jobs_per_sec = 40.0;
  sfs::common::Rng rng(seed);
  ThreadId tid = 1;
  double hog_weight = 0.0;
  for (int i = 0; i < hogs; ++i) {
    TaskSpec t;
    t.tid = tid++;
    t.weight = static_cast<double>(rng.UniformInt(1, 20));
    t.role = Role::kHog;
    t.hog_class = static_cast<int>(t.weight) - 1;  // one class per weight
    hog_weight += t.weight;
    plan.tasks.push_back(t);
  }
  plan.hog_classes = 20;
  for (const double k : {2.0, 3.0, 4.0}) {
    TaskSpec t;
    t.tid = tid++;
    t.weight = std::round(k * hog_weight / plan.cpus);
    t.role = Role::kHog;
    t.hog_class = plan.hog_classes++;
    plan.tasks.push_back(t);
  }
  Tick at = Msec(100);
  for (;;) {
    at += std::max<Tick>(1, static_cast<Tick>(rng.Exponential(1e6 / jobs_per_sec)));
    if (at >= arrivals_end) {
      break;
    }
    TaskSpec t;
    t.tid = tid++;
    t.weight = static_cast<double>(rng.UniformInt(10, 20));
    t.role = Role::kJob;
    t.arrival = at;
    t.work = Usec(rng.UniformInt(20000, 100000));
    plan.tasks.push_back(t);
  }
  return plan;
}

// kSetup builds a timed run's scheduler, engine and tasks and stops there.
enum class Mode { kSetup, kTimed, kVerify, kTraced };

// Percentile of the per-run costs and set-up times that a run reports (see
// RunSim): the fastest.
constexpr double kRunPercentile = 0.0;
constexpr int kSetupsPerRun = 3;

// Everything a run must reproduce exactly.
struct Outcome {
  std::uint64_t fingerprint = 0;
  std::int64_t events = 0;
  std::int64_t dispatches = 0;
  std::int64_t preemptions = 0;
  std::int64_t context_switches = 0;
  std::int64_t migrations = 0;
  std::int64_t decisions = 0;
  std::int64_t refreshes = 0;
  std::int64_t refresh_repositions = 0;
  std::int64_t rebases = 0;
  std::int64_t readjusts = 0;
  bool capacity_ok = false;
};

// Observers of a verify run.
//
// The GMS fluid ideal is exact either way: while at most p threads are
// runnable, GMS runs each of them at rate 1, so a thread's ideal service is
// simply its runnable time.  The sched::GmsReference mirror, whose cost
// grows with the thread count at every event, is only needed when more than
// p threads were ever runnable at once.
struct Probe {
  explicit Probe(bool mirror) : gms_mirror(mirror) {}

  bool gms_mirror;
  sfs::common::SampleSet sleeper_responses_ms;
  std::vector<double> job_responses_ms;
  std::int64_t jobs_finished = 0;
  sfs::common::Fnv1a lifecycle;
  std::unique_ptr<sfs::sched::GmsReference> gms;
  std::vector<Tick> runnable_since;  // by tid; -1 while not runnable
  std::vector<Tick> runnable_time;   // by tid
  int runnable = 0;
  int max_runnable = 0;
  double gms_lag_max_ms = 0.0;
  double share_ratio_min = 0.0;
};

struct RunStats {
  std::int64_t setup_ns = 0;
  std::int64_t run_ns = 0;
  std::uint64_t schedule = 0;  // run-interval fingerprint (verify, traced)
  Outcome outcome;
};

Outcome Summarize(const Plan& plan, sfs::sim::Engine& engine, sfs::sched::Scheduler& scheduler) {
  Outcome o;
  o.events = engine.events_processed();
  o.dispatches = engine.dispatches();
  o.preemptions = engine.preemptions();
  o.context_switches = engine.context_switches();
  o.migrations = engine.migrations();
  const auto& sfs_sched = dynamic_cast<const sfs::sched::Sfs&>(scheduler);
  o.decisions = sfs_sched.decisions();
  o.refreshes = sfs_sched.full_refreshes();
  o.refresh_repositions = sfs_sched.refresh_repositions();
  o.rebases = sfs_sched.rebases();
  o.readjusts = sfs_sched.readjust_changes();

  sfs::common::Fnv1a fp;
  for (const std::int64_t c : {o.events, o.dispatches, o.preemptions, o.context_switches,
                               o.migrations, o.decisions, o.refreshes, o.refresh_repositions,
                               o.rebases, o.readjusts}) {
    fp.Mix(static_cast<std::uint64_t>(c));
  }
  Tick service = 0;
  engine.ForEachTask([&](const sfs::sim::Task& task) {
    const Tick s = engine.ServiceIncludingRunning(task.tid());
    service += s;
    fp.Mix(static_cast<std::uint64_t>(task.tid()));
    fp.Mix(static_cast<std::uint64_t>(s));
    fp.Mix(static_cast<std::uint64_t>(task.state()));
  });
  const Tick idle = engine.idle_time();
  const Tick switching = engine.total_context_switch_cost();
  fp.Mix(static_cast<std::uint64_t>(idle));
  fp.Mix(static_cast<std::uint64_t>(switching));
  o.fingerprint = fp.value();
  o.capacity_ok = service + idle + switching == plan.cpus * engine.now();
  return o;
}

bool operator==(const Outcome& a, const Outcome& b) {
  return a.fingerprint == b.fingerprint && a.events == b.events &&
         a.dispatches == b.dispatches && a.preemptions == b.preemptions &&
         a.context_switches == b.context_switches && a.migrations == b.migrations &&
         a.decisions == b.decisions && a.refreshes == b.refreshes &&
         a.refresh_repositions == b.refresh_repositions && a.rebases == b.rebases &&
         a.readjusts == b.readjusts && a.capacity_ok == b.capacity_ok;
}

RunStats RunOnce(const Plan& plan, Mode mode, Probe* probe) {
  RunStats stats;
  const std::int64_t setup_start = NowNs();

  sfs::sched::SchedConfig config;
  config.num_cpus = plan.cpus;
  config.quantum = plan.quantum;
  std::unique_ptr<sfs::sched::Scheduler> scheduler =
      mode == Mode::kTraced ? std::make_unique<TimedSfs>(config)
                            : sfs::sched::CreateScheduler(sfs::sched::SchedKind::kSfs, config);
  sfs::sim::Engine engine(*scheduler, sfs::sim::EngineConfig{});
  engine.ReserveTasks(plan.tasks.size());
  for (const TaskSpec& t : plan.tasks) {
    std::unique_ptr<sfs::sim::Behavior> behavior;
    switch (t.role) {
      case Role::kHog:
        behavior = std::make_unique<sfs::workload::Inf>();
        break;
      case Role::kSleeper: {
        sfs::workload::Interact::Params params;
        params.mean_think = t.think;
        params.burst = t.burst;
        params.seed = t.seed;
        behavior = std::make_unique<sfs::workload::Interact>(
            params, probe != nullptr ? &probe->sleeper_responses_ms : nullptr);
        break;
      }
      case Role::kJob:
        behavior = std::make_unique<sfs::workload::FixedWork>(t.work);
        break;
    }
    if (mode == Mode::kTraced) {
      behavior = std::make_unique<TimedBehavior>(std::move(behavior));
    }
    engine.AddTaskAt(t.arrival, std::make_unique<sfs::sim::Task>(t.tid, t.weight,
                                                                 std::move(behavior)));
  }

  sfs::common::Fnv1a schedule;
  auto mix_interval = [&schedule](Tick start, Tick len, sfs::sched::CpuId cpu, ThreadId tid) {
    schedule.Mix(static_cast<std::uint64_t>(start));
    schedule.Mix(static_cast<std::uint64_t>(len));
    schedule.Mix(static_cast<std::uint64_t>(cpu));
    schedule.Mix(static_cast<std::uint64_t>(tid));
  };
  if (mode == Mode::kVerify) {
    engine.SetRunIntervalHook(mix_interval);
    if (probe->gms_mirror) {
      probe->gms = std::make_unique<sfs::sched::GmsReference>(plan.cpus);
    }
    probe->runnable_since.assign(plan.tasks.size() + 1, -1);
    probe->runnable_time.assign(plan.tasks.size() + 1, 0);
    engine.SetSchedEventHook([&plan, probe](sfs::sim::SchedEvent event,
                                            const sfs::sim::Task& task, Tick now) {
      const ThreadId tid = task.tid();
      probe->lifecycle.Mix(static_cast<std::uint64_t>(event));
      probe->lifecycle.Mix(static_cast<std::uint64_t>(tid));
      probe->lifecycle.Mix(static_cast<std::uint64_t>(now));
      // Tids are dense from 1 in plan order.
      Tick& since = probe->runnable_since[static_cast<std::size_t>(tid)];
      if (event == sfs::sim::SchedEvent::kArrival || event == sfs::sim::SchedEvent::kWakeup) {
        since = now;
        probe->max_runnable = std::max(probe->max_runnable, ++probe->runnable);
      } else {
        probe->runnable_time[static_cast<std::size_t>(tid)] += now - since;
        since = -1;
        --probe->runnable;
      }
      if (event == sfs::sim::SchedEvent::kDeparture) {
        const TaskSpec& spec = plan.tasks[static_cast<std::size_t>(tid - 1)];
        probe->job_responses_ms.push_back(sfs::ToMillis(now - spec.arrival));
        ++probe->jobs_finished;
      }
      if (probe->gms == nullptr) {
        return;
      }
      switch (event) {
        case sfs::sim::SchedEvent::kArrival:
          probe->gms->AddThread(tid, task.weight(), now);
          break;
        case sfs::sim::SchedEvent::kDeparture:
          probe->gms->RemoveThread(tid, now);
          break;
        case sfs::sim::SchedEvent::kBlock:
          probe->gms->Block(tid, now);
          break;
        case sfs::sim::SchedEvent::kWakeup:
          probe->gms->Wakeup(tid, now);
          break;
      }
    });
  } else if (mode == Mode::kTraced) {
    engine.SetRunIntervalHook(
        [&mix_interval](Tick start, Tick len, sfs::sched::CpuId cpu, ThreadId tid) {
          Span span(Kind::kBenchFingerprint);
          mix_interval(start, len, cpu, tid);
        });
  }
  stats.setup_ns = NowNs() - setup_start;
  if (mode == Mode::kSetup) {
    return stats;
  }

  const std::int64_t run_start = NowNs();
  if (mode == Mode::kTraced) {
    for (int k = 1; k <= plan.slices; ++k) {
      Span span(Kind::kSimRun);
      engine.RunUntil(plan.horizon * k / plan.slices);
    }
  } else {
    engine.RunUntil(plan.horizon);
  }
  stats.run_ns = NowNs() - run_start;
  stats.schedule = schedule.value();
  stats.outcome = Summarize(plan, engine, *scheduler);

  if (mode == Mode::kVerify) {
    // Fairness against the GMS fluid ideal at the horizon.
    if (probe->gms != nullptr) {
      probe->gms->AdvanceTo(plan.horizon);
    }
    std::vector<double> class_service(static_cast<std::size_t>(plan.hog_classes), 0.0);
    std::vector<double> class_ideal(static_cast<std::size_t>(plan.hog_classes), 0.0);
    for (const TaskSpec& t : plan.tasks) {
      if (t.arrival > plan.horizon) {
        continue;
      }
      const double service = static_cast<double>(engine.ServiceIncludingRunning(t.tid));
      const std::size_t i = static_cast<std::size_t>(t.tid);
      const Tick since = probe->runnable_since[i];
      const double ideal =
          probe->gms != nullptr
              ? probe->gms->Service(t.tid)
              : static_cast<double>(probe->runnable_time[i] +
                                    (since >= 0 ? plan.horizon - since : 0));
      probe->gms_lag_max_ms = std::max(probe->gms_lag_max_ms, std::abs(service - ideal) / 1e3);
      if (t.role == Role::kHog) {
        class_service[static_cast<std::size_t>(t.hog_class)] += service;
        class_ideal[static_cast<std::size_t>(t.hog_class)] += ideal;
      }
    }
    probe->share_ratio_min = 1e300;
    for (int c = 0; c < plan.hog_classes; ++c) {
      if (class_ideal[static_cast<std::size_t>(c)] > 0) {
        probe->share_ratio_min = std::min(probe->share_ratio_min,
                                          class_service[static_cast<std::size_t>(c)] /
                                              class_ideal[static_cast<std::size_t>(c)]);
      }
    }
  }
  return stats;
}

void CheckAgainst(Result& r, const char* what, const RunStats& run, const RunStats& ref) {
  if (!(run.outcome == ref.outcome)) {
    r.Fail(std::string(what) + " run outcome differs from the verify run (nondeterminism)");
  }
}

Result RunSim(const Plan& plan, const Options& opts) {
  Result r;
  r.Detail("tasks", static_cast<double>(plan.tasks.size()));
  r.Detail("horizon_s", sfs::ToSeconds(plan.horizon));

  Probe probe(/*mirror=*/false);
  RunStats verify = RunOnce(plan, Mode::kVerify, &probe);
  if (probe.max_runnable > plan.cpus) {
    probe = Probe(/*mirror=*/true);
    verify = RunOnce(plan, Mode::kVerify, &probe);
  }
  r.Detail("gms_mirror", probe.gms_mirror ? "GmsReference" : "runnable time");
  const Outcome& ref = verify.outcome;
  r.attempted += ref.events;
  if (!ref.capacity_ok) {
    r.Fail("capacity identity service + idle + switch != p * elapsed");
  }
  r.Detail("schedule_fingerprint", Hex(verify.schedule));
  r.Detail("outcome_fingerprint", Hex(ref.fingerprint));
  r.Detail("lifecycle_fingerprint", Hex(probe.lifecycle.value()));
  r.Detail("events", static_cast<double>(ref.events));
  if (opts.seed == kDefaultSeed && !opts.small) {
    for (const Pinned& pin : kPinned) {
      if (plan.name == pin.workload) {
        if (verify.schedule != pin.schedule) {
          r.Fail("schedule fingerprint " + Hex(verify.schedule) + " != pinned " +
                 Hex(pin.schedule));
        }
        if (ref.fingerprint != pin.outcome) {
          r.Fail("outcome fingerprint " + Hex(ref.fingerprint) + " != pinned " +
                 Hex(pin.outcome));
        }
      }
    }
  }

  // Timed (production) runs: for the whole budget in an end-to-end run, for
  // half of it as the untraced baseline of a traced run.
  const double timed_budget_ns = opts.seconds * 1e9 * (opts.trace ? 0.5 : 1.0);
  std::vector<double> ns_per_event;
  std::vector<double> setup_s;
  const std::int64_t timed_start = NowNs();
  do {
    // Set-up alone a few more times per run, spread over the whole budget:
    // it is short, and gated.
    for (int i = 0; i < kSetupsPerRun; ++i) {
      setup_s.push_back(static_cast<double>(RunOnce(plan, Mode::kSetup, nullptr).setup_ns) /
                        1e9);
    }
    const RunStats run = RunOnce(plan, Mode::kTimed, nullptr);
    CheckAgainst(r, "timed", run, verify);
    r.attempted += run.outcome.events;
    ns_per_event.push_back(static_cast<double>(run.run_ns) /
                           static_cast<double>(std::max<std::int64_t>(1, run.outcome.events)));
    setup_s.push_back(static_cast<double>(run.setup_ns) / 1e9);
  } while (static_cast<double>(NowNs() - timed_start) < timed_budget_ns || ns_per_event.size() < 3);
  r.Detail("timed_runs", static_cast<double>(ns_per_event.size()));
  r.Detail("ns_per_event.min", Percentile(ns_per_event, 0));
  r.Detail("ns_per_event.median", Percentile(ns_per_event, 50));
  r.Detail("ns_per_event.p90", Percentile(ns_per_event, 90));
  // Every timed run does identical work, so run-to-run differences are the
  // host's: neighbours on a shared machine slow memory-bound work for seconds
  // to minutes at a time.  The fastest run (and the fastest set-up) is the
  // cost with the least interference and is far steadier across invocations
  // than the median.
  const double untraced_ns = Percentile(ns_per_event, kRunPercentile);

  if (!opts.trace) {
    EndToEnd e;
    e.ns_per_op = untraced_ns;
    std::vector<double> responses = plan.name == "sim_sleepers"
                                        ? probe.sleeper_responses_ms.samples()
                                        : probe.job_responses_ms;
    if (plan.name == "sim_churn") {
      const std::int64_t jobs = std::count_if(plan.tasks.begin(), plan.tasks.end(),
                                              [](const TaskSpec& t) { return t.role == Role::kJob; });
      r.Detail("jobs", static_cast<double>(jobs));
      r.Detail("jobs_unfinished_at_horizon", static_cast<double>(jobs - probe.jobs_finished));
    }
    DescribeSamples(r, "resp_ms", responses);
    e.resp_p50_ms = Percentile(responses, 50.0);
    e.share_ratio_min = probe.share_ratio_min;
    r.Detail("setup_s.median", Median(setup_s));
    e.setup_s = Percentile(setup_s, kRunPercentile);
    e.peak_rss_mb = PeakRssMb();
    r.Detail("gms_lag_max_ms", probe.gms_lag_max_ms);
    e.Emit(r);
  } else {
    Tracer& tracer = Tracer::Get();
    tracer.Reset();
    std::vector<double> traced_ns;
    std::int64_t traced_events = 0;
    const std::int64_t traced_start = NowNs();
    do {
      const RunStats run = RunOnce(plan, Mode::kTraced, nullptr);
      CheckAgainst(r, "traced", run, verify);
      if (run.schedule != verify.schedule) {
        r.Fail("traced run schedule fingerprint differs from the verify run");
      }
      r.attempted += run.outcome.events;
      traced_events += run.outcome.events;
      traced_ns.push_back(static_cast<double>(run.run_ns) /
                          static_cast<double>(std::max<std::int64_t>(1, run.outcome.events)));
    } while (static_cast<double>(NowNs() - traced_start) < opts.seconds * 0.5e9 ||
             traced_ns.size() < 2);
    const double runs = static_cast<double>(traced_ns.size());
    r.Detail("traced_runs", runs);
    if (const std::string err = tracer.CheckSelfTimes(); !err.empty()) {
      r.Fail("span self times: " + err);
    }
    if (!opts.spans_path.empty() && !tracer.WriteRecords(opts.spans_path)) {
      r.Fail("cannot write " + opts.spans_path);
    }

    const auto totals = tracer.Totals();
    const double root_ns = static_cast<double>(std::max<std::int64_t>(1, tracer.RootNs()));
    auto at = [&totals](Kind k) { return totals[static_cast<std::size_t>(k)]; };
    auto cost = [&](Kind k) {
      const KindStats s = at(k);
      return CallCost{s.calls ? static_cast<double>(s.total_ns) / static_cast<double>(s.calls) : 0.0,
                      static_cast<double>(s.calls) / runs};
    };
    PerLayer l;
    l.sim_self_ns_per_event =
        static_cast<double>(at(Kind::kSimRun).self_ns) / static_cast<double>(traced_events);
    l.sim_share = static_cast<double>(at(Kind::kSimRun).self_ns) / root_ns;
    l.sim_events = static_cast<double>(ref.events);
    l.sim_dispatches = static_cast<double>(ref.dispatches);
    l.sim_preemptions = static_cast<double>(ref.preemptions);
    l.sim_context_switches = static_cast<double>(ref.context_switches);
    l.sim_migrations = static_cast<double>(ref.migrations);
    l.pick = cost(Kind::kSchedPick);
    l.charge = cost(Kind::kSchedCharge);
    l.wake = cost(Kind::kSchedWake);
    l.block = cost(Kind::kSchedBlock);
    l.admit = cost(Kind::kSchedAdmit);
    l.remove = cost(Kind::kSchedRemove);
    l.preempt_check = cost(Kind::kSchedPreempt);
    double sched_self = 0;
    for (const Kind k : {Kind::kSchedPick, Kind::kSchedCharge, Kind::kSchedWake,
                         Kind::kSchedBlock, Kind::kSchedAdmit, Kind::kSchedRemove,
                         Kind::kSchedPreempt}) {
      sched_self += static_cast<double>(at(k).self_ns);
    }
    l.sched_share = sched_self / root_ns;
    l.sched_refreshes = static_cast<double>(ref.refreshes);
    l.sched_refresh_repositions = static_cast<double>(ref.refresh_repositions);
    l.sched_rebases = static_cast<double>(ref.rebases);
    l.sched_decisions = static_cast<double>(ref.decisions);
    l.sched_readjusts = static_cast<double>(ref.readjusts);
    l.sched_gms_lag_max_ms = probe.gms_lag_max_ms;
    const KindStats next = at(Kind::kWorkloadNext);
    const KindStats wake = at(Kind::kWorkloadWake);
    l.workload_next_ns_mean =
        next.calls ? static_cast<double>(next.total_ns) / static_cast<double>(next.calls) : 0.0;
    l.workload_calls = static_cast<double>(next.calls + wake.calls) / runs;
    l.workload_share = static_cast<double>(next.self_ns + wake.self_ns) / root_ns;
    l.bench_share = static_cast<double>(at(Kind::kBenchFingerprint).self_ns) / root_ns;
    l.trace_overhead_share =
        (Percentile(traced_ns, kRunPercentile) - untraced_ns) / untraced_ns;
    l.Emit(r);
  }
  return r;
}

}  // namespace

Result RunSimSleepers(const Options& opts) { return RunSim(SleepersPlan(opts.seed, opts.small), opts); }

Result RunSimChurn(const Options& opts) { return RunSim(ChurnPlan(opts.seed, opts.small), opts); }

}  // namespace perfbench
