// Recorded-schedule goldens for sim::Engine.
//
// Two contracts under test:
//   * the engine reproduces the schedules recorded from its former
//     single-threaded implementation byte-identically — run-interval stream,
//     lifecycle stream, per-task services, every counter — for flat and
//     sharded policies alike (goldens below);
//   * over a *partitioned* sharded policy, the per-CPU run-interval and
//     per-home lifecycle streams match their recorded values.
//
// The suites keep their ParallelEngine* names so test ids stay stable; the
// multi-worker engine they once compared against is gone (DESIGN.md §10).

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "src/common/fingerprint.h"
#include "src/sched/factory.h"
#include "src/sim/engine.h"
#include "src/workload/workloads.h"

namespace sfs::sim {
namespace {

using sched::SchedKind;
using sched::ThreadId;

constexpr int kCpus = 4;
constexpr Tick kHorizon = Sec(5);

sched::SchedConfig TestConfig(int cpus) {
  sched::SchedConfig config;
  config.num_cpus = cpus;
  config.quantum = Msec(20);
  return config;
}

// The shared workload: hogs with mixed weights, interactive sleepers (arrive
// asleep — the wakeup path), and a churning short-job chain through the exit
// hook.  `hint` pins task tid to shard tid % cpus.
void AddWorkload(Engine& engine, int cpus, bool hint, bool churn) {
  ThreadId next_tid = 1;
  auto add = [&engine, cpus, hint](Tick at, std::unique_ptr<Task> task) {
    if (hint) {
      task->set_home_cpu(static_cast<sched::CpuId>(task->tid() % cpus));
    }
    engine.AddTaskAt(at, std::move(task));
  };
  for (int i = 0; i < 3; ++i) {
    add(Msec(100 * i), workload::MakeInf(next_tid++, 1.0 + 3.0 * i, "hog"));
  }
  for (int i = 0; i < 6; ++i) {
    workload::Interact::Params params;
    params.mean_think = Msec(20 + 30 * i);
    params.burst = Msec(1 + i);
    params.seed = 7u + static_cast<std::uint64_t>(i);
    add(Msec(50 * i), workload::MakeInteract(next_tid++, 1.0 + i, params, nullptr, "sleeper"));
  }
  add(0, workload::MakeFixedWork(next_tid++, 2.0, Msec(80), "short"));
  if (churn) {
    engine.SetExitHook([next_tid](Engine& e, Task& task) mutable {
      if (task.label() == "short" && next_tid < 40) {
        e.AddTaskAt(e.now() + Msec(17),
                    workload::MakeFixedWork(next_tid++, 2.0, Msec(80), "short"));
      }
    });
  }
}

// --- recorded single-threaded schedules --------------------------------------

struct RunResult {
  std::uint64_t run_fingerprint = 0;
  std::uint64_t lifecycle_fingerprint = 0;
  std::uint64_t service_fingerprint = 0;  // FNV-1a over per-task services
  std::int64_t events = 0;
  std::int64_t dispatches = 0;
  std::int64_t preemptions = 0;
  Tick idle = 0;
  Tick ctx_cost = 0;
};

RunResult RunSingleWorker(SchedKind kind, bool hint) {
  auto scheduler = CreateScheduler(kind, TestConfig(kCpus));
  EngineConfig config;
  config.context_switch_cost = Usec(50);
  Engine engine(*scheduler, config);
  common::Fnv1a run_fp;
  common::Fnv1a life_fp;
  engine.SetRunIntervalHook([&run_fp](Tick start, Tick len, sched::CpuId cpu, ThreadId tid) {
    run_fp.Mix(static_cast<std::uint64_t>(start));
    run_fp.Mix(static_cast<std::uint64_t>(len));
    run_fp.Mix(static_cast<std::uint64_t>(cpu));
    run_fp.Mix(static_cast<std::uint64_t>(tid));
  });
  engine.SetSchedEventHook([&life_fp](SchedEvent event, const Task& task, Tick now) {
    life_fp.Mix(static_cast<std::uint64_t>(event));
    life_fp.Mix(static_cast<std::uint64_t>(task.tid()));
    life_fp.Mix(static_cast<std::uint64_t>(now));
  });
  AddWorkload(engine, kCpus, hint, /*churn=*/true);
  engine.RunUntil(kHorizon);

  // Services in sorted order, as recorded.
  std::vector<Tick> services;
  engine.ForEachTask([&](const Task& task) { services.push_back(task.service()); });
  std::sort(services.begin(), services.end());
  common::Fnv1a service_fp;
  for (const Tick service : services) {
    service_fp.Mix(static_cast<std::uint64_t>(service));
  }
  RunResult result;
  result.run_fingerprint = run_fp.value();
  result.lifecycle_fingerprint = life_fp.value();
  result.service_fingerprint = service_fp.value();
  result.events = engine.events_processed();
  result.dispatches = engine.dispatches();
  result.preemptions = engine.preemptions();
  result.idle = engine.idle_time();
  result.ctx_cost = engine.total_context_switch_cost();
  return result;
}

// RunSingleWorker(kind, hint), recorded from the single-threaded engine
// before the two engine implementations were merged.  Regenerate only if a
// deliberate schedule-affecting change lands.
struct Golden {
  SchedKind kind;
  bool hint;
  std::uint64_t run_fingerprint;
  std::uint64_t lifecycle_fingerprint;
  std::uint64_t service_fingerprint;
  std::int64_t events;
  std::int64_t dispatches;
  std::int64_t preemptions;
  Tick idle;
  Tick ctx_cost;
};
constexpr Golden kGoldens[] = {
    {SchedKind::kSfs, false, 0xd1a062c7245032b4ULL, 0x146cf410a61512d1ULL,
     0x1fe37513d0255e7cULL, 2019, 1491, 275, 2369493, 37212},
    {SchedKind::kSfs, true, 0xd1a062c7245032b4ULL, 0x146cf410a61512d1ULL,
     0x1fe37513d0255e7cULL, 2019, 1491, 275, 2369493, 37212},
    {SchedKind::kHsfs, false, 0xcdb0dbf541ef4b23ULL, 0x370a84402d1e8b51ULL,
     0xbb706a04d2779d39ULL, 1796, 1301, 0, 2152028, 34450},
    {SchedKind::kHsfs, true, 0xcdb0dbf541ef4b23ULL, 0x370a84402d1e8b51ULL,
     0xbb706a04d2779d39ULL, 1796, 1301, 0, 2152028, 34450},
    {SchedKind::kSfq, false, 0x5fe2cba109915fb8ULL, 0x146cf410a61512d1ULL,
     0xef278fc886330011ULL, 2025, 1497, 275, 2369493, 37177},
    {SchedKind::kSfq, true, 0x5fe2cba109915fb8ULL, 0x146cf410a61512d1ULL,
     0xef278fc886330011ULL, 2025, 1497, 275, 2369493, 37177},
    {SchedKind::kStride, false, 0x5fe2cba109915fb8ULL, 0x146cf410a61512d1ULL,
     0xef278fc886330011ULL, 2025, 1497, 275, 2369493, 37177},
    {SchedKind::kStride, true, 0x5fe2cba109915fb8ULL, 0x146cf410a61512d1ULL,
     0xef278fc886330011ULL, 2025, 1497, 275, 2369493, 37177},
    {SchedKind::kWfq, false, 0x0965c9b6e43a22b4ULL, 0x9e9a65afb1c99708ULL,
     0xaad435388f1d2602ULL, 2021, 1496, 273, 2360260, 36865},
    {SchedKind::kWfq, true, 0x0965c9b6e43a22b4ULL, 0x9e9a65afb1c99708ULL,
     0xaad435388f1d2602ULL, 2021, 1496, 273, 2360260, 36865},
    {SchedKind::kBvt, false, 0x5fe2cba109915fb8ULL, 0x146cf410a61512d1ULL,
     0xef278fc886330011ULL, 2025, 1497, 275, 2369493, 37177},
    {SchedKind::kBvt, true, 0x5fe2cba109915fb8ULL, 0x146cf410a61512d1ULL,
     0xef278fc886330011ULL, 2025, 1497, 275, 2369493, 37177},
    {SchedKind::kTimeshare, false, 0x5557e8a191f7a6ecULL, 0xe23dc7ee1b3b3bc7ULL,
     0xb06cb067bf7fa9e6ULL, 2027, 1499, 267, 2340094, 36752},
    {SchedKind::kTimeshare, true, 0x5557e8a191f7a6ecULL, 0xe23dc7ee1b3b3bc7ULL,
     0xb06cb067bf7fa9e6ULL, 2027, 1499, 267, 2340094, 36752},
    {SchedKind::kRoundRobin, false, 0x84780884894963dcULL, 0xfa77874a713093d5ULL,
     0x5d72955f4d660769ULL, 1793, 1298, 0, 2187949, 34450},
    {SchedKind::kRoundRobin, true, 0x84780884894963dcULL, 0xfa77874a713093d5ULL,
     0x5d72955f4d660769ULL, 1793, 1298, 0, 2187949, 34450},
    {SchedKind::kLottery, false, 0x355ef659b85087a0ULL, 0xd0d9ae5f7839682bULL,
     0x3b568d4dee993ec9ULL, 1751, 1278, 0, 2175334, 28000},
    {SchedKind::kLottery, true, 0x355ef659b85087a0ULL, 0xd0d9ae5f7839682bULL,
     0x3b568d4dee993ec9ULL, 1751, 1278, 0, 2175334, 28000},
    {SchedKind::kShardedSfs, false, 0x1beb0b17b47af962ULL, 0x792518794b3a3623ULL,
     0x250f58044008a6c4ULL, 2071, 1549, 297, 2109472, 37750},
    {SchedKind::kShardedSfs, true, 0x053233c7f2928225ULL, 0x46f7915daadaea68ULL,
     0x1273461d27e863e7ULL, 2071, 1549, 295, 2079229, 38150},
};

void ExpectMatchesGolden(SchedKind kind, bool hint) {
  const RunResult run = RunSingleWorker(kind, hint);
  int checked = 0;
  for (const Golden& golden : kGoldens) {
    if (golden.kind != kind || golden.hint != hint) {
      continue;
    }
    ++checked;
    EXPECT_EQ(run.run_fingerprint, golden.run_fingerprint);
    EXPECT_EQ(run.lifecycle_fingerprint, golden.lifecycle_fingerprint);
    EXPECT_EQ(run.service_fingerprint, golden.service_fingerprint);
    EXPECT_EQ(run.events, golden.events);
    EXPECT_EQ(run.dispatches, golden.dispatches);
    EXPECT_EQ(run.preemptions, golden.preemptions);
    EXPECT_EQ(run.idle, golden.idle);
    EXPECT_EQ(run.ctx_cost, golden.ctx_cost);
  }
  EXPECT_EQ(checked, 1);
}

class ParallelEngineOracleTest : public ::testing::TestWithParam<SchedKind> {};

TEST_P(ParallelEngineOracleTest, WorkersOneIsByteIdenticalToEngine) {
  ExpectMatchesGolden(GetParam(), /*hint=*/false);
}

TEST_P(ParallelEngineOracleTest, WorkersOneWithHintsIsByteIdenticalToEngine) {
  ExpectMatchesGolden(GetParam(), /*hint=*/true);
}

INSTANTIATE_TEST_SUITE_P(
    AllPolicies, ParallelEngineOracleTest,
    ::testing::Values(SchedKind::kSfs, SchedKind::kHsfs, SchedKind::kSfq, SchedKind::kStride,
                      SchedKind::kWfq, SchedKind::kBvt, SchedKind::kTimeshare,
                      SchedKind::kRoundRobin, SchedKind::kLottery, SchedKind::kShardedSfs),
    [](const ::testing::TestParamInfo<SchedKind>& param_info) {
      std::string name(sched::SchedKindName(param_info.param));
      for (char& c : name) {
        if (c == '-') {
          c = '_';
        }
      }
      return name;
    });

// --- partitioned: exactness per shard group ----------------------------------

// Partitioned sharded-SFS: per-CPU run-interval streams and per-home-shard
// lifecycle streams.
struct GroupedFingerprints {
  std::vector<std::uint64_t> per_cpu_run;
  std::vector<std::uint64_t> per_home_life;
  std::int64_t dispatches = 0;

  bool operator==(const GroupedFingerprints&) const = default;
};

sched::SchedConfig PartitionedConfig(int cpus) {
  sched::SchedConfig config = TestConfig(cpus);
  config.shard_steal = sched::ShardStealPolicy::kNone;
  config.shard_rebalance_period = 0;
  config.shard_coupling = 0.0;
  return config;
}

GroupedFingerprints RunPartitioned(int cpus) {
  auto scheduler = CreateScheduler(SchedKind::kShardedSfs, PartitionedConfig(cpus));
  std::vector<common::Fnv1a> run_fps(static_cast<std::size_t>(cpus));
  std::vector<common::Fnv1a> life_fps(static_cast<std::size_t>(cpus));
  Engine engine(*scheduler);
  engine.SetRunIntervalHook([&run_fps](Tick start, Tick len, sched::CpuId cpu, ThreadId tid) {
    common::Fnv1a& fp = run_fps[static_cast<std::size_t>(cpu)];
    fp.Mix(static_cast<std::uint64_t>(start));
    fp.Mix(static_cast<std::uint64_t>(len));
    fp.Mix(static_cast<std::uint64_t>(tid));
  });
  engine.SetSchedEventHook([&life_fps, cpus](SchedEvent event, const Task& task, Tick now) {
    common::Fnv1a& fp = life_fps[static_cast<std::size_t>(task.tid() % cpus)];
    fp.Mix(static_cast<std::uint64_t>(event));
    fp.Mix(static_cast<std::uint64_t>(task.tid()));
    fp.Mix(static_cast<std::uint64_t>(now));
  });
  AddWorkload(engine, cpus, /*hint=*/true, /*churn=*/false);
  engine.RunUntil(kHorizon);

  GroupedFingerprints result;
  result.dispatches = engine.dispatches();
  for (const auto& fp : run_fps) {
    result.per_cpu_run.push_back(fp.value());
  }
  for (const auto& fp : life_fps) {
    result.per_home_life.push_back(fp.value());
  }
  return result;
}

// RunPartitioned(kCpus), recorded from the single-threaded engine before
// the two engine implementations were merged.
const GroupedFingerprints kPartitionedGolden = {
    .per_cpu_run = {0x29cb8a31a7cb7917ULL, 0x99d0c48c58a60087ULL,
                    0xec0085865164eb76ULL, 0xc00c9ddb106a847eULL},
    .per_home_life = {0xd66889509062dd33ULL, 0x9d84f26aa77043e3ULL,
                      0xa21049cde32e983dULL, 0x5d7ebbb8479ab3b8ULL},
    .dispatches = 1326,
};

TEST(ParallelEnginePartitionedTest, GroupStreamsMatchSerialOracleAtEveryWorkerCount) {
  EXPECT_EQ(RunPartitioned(kCpus), kPartitionedGolden);
}

}  // namespace
}  // namespace sfs::sim
