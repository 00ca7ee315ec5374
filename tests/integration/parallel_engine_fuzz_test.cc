// Recorded-schedule fuzz goldens for sim::Engine, for every scheduler kind,
// including the sharded layer.
//
// Each of seeds 1-6 builds one randomized workload (hogs, interactive
// sleepers, a churning short-job chain through the exit hook, mid-run weight
// surgery via periodic hooks, a kill).  The run-interval and lifecycle FNV-1a
// fingerprints, a fingerprint of the per-task services and the accounting
// counters must equal the goldens below, which were recorded from the
// engine's former single-threaded implementation.  Any divergence in any
// event's firing order changes them.
//
// The suite and test keep their names so test ids stay stable.  The test
// always runs seeds 1-6 and reads no environment.

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "src/common/fingerprint.h"
#include "src/common/rng.h"
#include "src/sched/factory.h"
#include "src/sim/engine.h"
#include "src/workload/workloads.h"

namespace sfs::eval {
namespace {

using sched::SchedKind;
using sched::ThreadId;

struct TraceResult {
  std::uint64_t run_fingerprint = 0;
  std::uint64_t lifecycle_fingerprint = 0;
  std::uint64_t service_fingerprint = 0;  // FNV-1a over per-task services
  std::int64_t events = 0;
  std::int64_t dispatches = 0;
  std::int64_t preemptions = 0;
  Tick idle = 0;
  Tick ctx_cost = 0;
};

// One randomized workload, driven to the horizon.
// All randomness (scheduler draw, workload shape and mid-run surgery draws)
// flows through Rng(seed) in a fixed draw order, so the result is a pure
// function of (kind, seed).
TraceResult RunOnce(SchedKind kind, std::uint64_t seed) {
  common::Rng rng(seed);
  sched::SchedConfig config;
  config.num_cpus = static_cast<int>(rng.UniformInt(1, 4));
  config.quantum = Msec(rng.UniformInt(5, 200));
  // Former run-queue backend draw; the goldens depend on the draw order.
  static_cast<void>(rng.Bernoulli(0.5));
  SchedKind effective_kind = kind;
  if (const auto sharded_kind = sched::ShardedKindFor(kind); sharded_kind.has_value()) {
    if (rng.Bernoulli(0.5)) {
      effective_kind = *sharded_kind;
      config.shard_steal = rng.Bernoulli(0.75) ? sched::ShardStealPolicy::kMaxSurplus
                                               : sched::ShardStealPolicy::kNone;
      config.shard_rebalance_period =
          rng.Bernoulli(0.5) ? static_cast<int>(rng.UniformInt(4, 256)) : 0;
      config.shard_coupling = 0.5 * static_cast<double>(rng.UniformInt(0, 2));
    }
  }
  auto scheduler = CreateScheduler(effective_kind, config);

  sim::EngineConfig engine_config;
  engine_config.context_switch_cost = Usec(rng.UniformInt(0, 500));
  sim::Engine engine(*scheduler, engine_config);

  common::Fnv1a run_fp;
  common::Fnv1a life_fp;
  engine.SetRunIntervalHook(
      [&run_fp](Tick start, Tick len, sched::CpuId cpu, ThreadId tid) {
        run_fp.Mix(static_cast<std::uint64_t>(start));
        run_fp.Mix(static_cast<std::uint64_t>(len));
        run_fp.Mix(static_cast<std::uint64_t>(cpu));
        run_fp.Mix(static_cast<std::uint64_t>(tid));
      });
  engine.SetSchedEventHook(
      [&life_fp](sim::SchedEvent event, const sim::Task& task, Tick now) {
        life_fp.Mix(static_cast<std::uint64_t>(event));
        life_fp.Mix(static_cast<std::uint64_t>(task.tid()));
        life_fp.Mix(static_cast<std::uint64_t>(now));
      });

  ThreadId next_tid = 1;
  std::vector<ThreadId> hogs;
  const int n_hogs = static_cast<int>(rng.UniformInt(1, 6));
  for (int i = 0; i < n_hogs; ++i) {
    hogs.push_back(next_tid);
    engine.AddTaskAt(Msec(rng.UniformInt(0, 2000)),
                     workload::MakeInf(next_tid++, static_cast<double>(rng.UniformInt(1, 30)),
                                       "hog"));
  }
  const int n_interact = static_cast<int>(rng.UniformInt(0, 3));
  for (int i = 0; i < n_interact; ++i) {
    workload::Interact::Params params;
    params.mean_think = Msec(rng.UniformInt(20, 200));
    params.burst = Msec(rng.UniformInt(1, 10));
    params.seed = seed + static_cast<std::uint64_t>(i);
    engine.AddTaskAt(Msec(rng.UniformInt(0, 1000)),
                     workload::MakeInteract(next_tid++, 1.0, params, nullptr, "interact"));
  }
  // A churning chain of short jobs: exit-hook execution order feeds straight
  // back into the event queue (same-tick arrivals), the FIFO contract's
  // hardest case.
  engine.SetExitHook([&next_tid, &rng](sim::Engine& e, sim::Task& task) {
    if (task.label() == "short") {
      e.AddTaskAt(e.now() + Msec(rng.UniformInt(0, 50)),
                  workload::MakeFixedWork(next_tid++, static_cast<double>(rng.UniformInt(1, 10)),
                                          Msec(rng.UniformInt(10, 400)), "short"));
    }
  });
  engine.AddTaskAt(0, workload::MakeFixedWork(next_tid++, 2.0, Msec(100), "short"));

  engine.AddPeriodicHook(Msec(777), [&](sim::Engine& e) {
    if (!hogs.empty() && e.HasTask(hogs[0])) {
      const auto state = e.task(hogs[0]).state();
      if (state != sim::Task::State::kExited && state != sim::Task::State::kNew &&
          rng.Bernoulli(0.5)) {
        e.scheduler().SetWeight(hogs[0], static_cast<double>(rng.UniformInt(1, 50)));
      }
    }
  });
  const Tick kill_at = Msec(rng.UniformInt(2500, 5000));
  engine.AddPeriodicHook(kill_at, [&, done = false](sim::Engine& e) mutable {
    if (!done && hogs.size() > 1 && e.HasTask(hogs[1]) &&
        e.task(hogs[1]).state() != sim::Task::State::kExited) {
      e.KillTask(hogs[1]);
      done = true;
    }
  });

  engine.RunUntil(Sec(10));

  TraceResult result;
  common::Fnv1a service_fp;
  engine.ForEachTask([&](const sim::Task& task) {
    service_fp.Mix(static_cast<std::uint64_t>(engine.Service(task.tid())));
  });
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

// RunOnce(kind, seed) for seeds 1-6, recorded from the single-threaded engine
// before the two engine implementations were merged.  Regenerate only if a
// deliberate schedule-affecting change lands — never to paper over an
// accidental one.
struct Golden {
  SchedKind kind;
  std::uint64_t seed;
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
    {SchedKind::kSfs, 1, 0x459d8a0cdb6aec1dULL, 0xde697eef39eb32cfULL, 0x1fa6b25b9a640fb7ULL,
     416, 350, 42, 347000, 55123},
    {SchedKind::kSfs, 2, 0xf44cec169c4f2074ULL, 0xc415a427e93f43a8ULL, 0x7e76af8982005b21ULL,
     1023, 690, 0, 19887466, 32364},
    {SchedKind::kSfs, 3, 0xb9cbf2a25768d830ULL, 0x26db4a41fca19b9aULL, 0x9757cba16e08eac9ULL,
     86, 64, 7, 26000, 11264},
    {SchedKind::kSfs, 4, 0x0054df1ea504759eULL, 0x55df4d20f52c710fULL, 0x7d88093d6f1b8acaULL,
     1667, 1015, 220, 7842819, 128173},
    {SchedKind::kSfs, 5, 0xbeb0994225cbd9d2ULL, 0x220523e971b97953ULL, 0x143dedbdb3bdf102ULL,
     724, 466, 188, 1927134, 62477},
    {SchedKind::kSfs, 6, 0x947f89a8b53c6ac9ULL, 0x7a775f0a65365d46ULL, 0x33e0d46e2102e049ULL,
     1751, 1480, 193, 1196582, 157191},
    {SchedKind::kHsfs, 1, 0x5a2009a9f9770094ULL, 0xea51daadf4ddfa30ULL, 0x365047b50afe856fULL,
     707, 481, 0, 142905, 169360},
    {SchedKind::kHsfs, 2, 0x2acf2c74d2211eb8ULL, 0xc48680d51741ec15ULL, 0xb19a479de8b8b809ULL,
     576, 452, 0, 22532237, 16271},
    {SchedKind::kHsfs, 3, 0xe6f57be466252ecfULL, 0xe7aab125a03dbda3ULL, 0xf3c90e791b09e143ULL,
     124, 80, 0, 0, 4636},
    {SchedKind::kHsfs, 4, 0xe88dda0d2ca55646ULL, 0x1010f44094f3022fULL, 0x6bdcc763ab2cdc63ULL,
     536, 413, 0, 2646000, 0},
    {SchedKind::kHsfs, 5, 0xeb0aee71927937bcULL, 0x51cc8ee15f2a92a5ULL, 0x93179511a597bf0cULL,
     435, 249, 0, 1582480, 31458},
    {SchedKind::kHsfs, 6, 0x15d7c8dda2ce63abULL, 0x1c8d1ce0b3b3ee9eULL, 0xb61c13bf4f34cec9ULL,
     1206, 1179, 0, 1034000, 182040},
    {SchedKind::kSfq, 1, 0xea4635f40c431408ULL, 0xfed8e417e8e09c8bULL, 0x628f2c1348f69eacULL,
     410, 344, 27, 347000, 57339},
    {SchedKind::kSfq, 2, 0xf44cec169c4f2074ULL, 0xc415a427e93f43a8ULL, 0x7e76af8982005b21ULL,
     1023, 690, 0, 19887466, 32364},
    {SchedKind::kSfq, 3, 0xb9cbf2a25768d830ULL, 0x26db4a41fca19b9aULL, 0x9757cba16e08eac9ULL,
     86, 64, 7, 26000, 11264},
    {SchedKind::kSfq, 4, 0x12ba8b143454ce8cULL, 0x91482a6c4b619128ULL, 0xa2f2d4d4fbf7f145ULL,
     1643, 997, 196, 7554143, 120383},
    {SchedKind::kSfq, 5, 0x9a7b60a42a4bfd18ULL, 0xaba9f0f54c1fa4f5ULL, 0xbcb7e43918e2edbdULL,
     704, 451, 174, 1846321, 59771},
    {SchedKind::kSfq, 6, 0xc40b2d72b20e84a5ULL, 0xbc2f37061339cdd5ULL, 0x11a81a88d2763e17ULL,
     1744, 1472, 183, 1180277, 156844},
    {SchedKind::kStride, 1, 0xea4635f40c431408ULL, 0xfed8e417e8e09c8bULL, 0x628f2c1348f69eacULL,
     410, 344, 27, 347000, 57339},
    {SchedKind::kStride, 2, 0xf44cec169c4f2074ULL, 0xc415a427e93f43a8ULL, 0x7e76af8982005b21ULL,
     1023, 690, 0, 19887466, 32364},
    {SchedKind::kStride, 3, 0xb9cbf2a25768d830ULL, 0x26db4a41fca19b9aULL, 0x9757cba16e08eac9ULL,
     86, 64, 7, 26000, 11264},
    {SchedKind::kStride, 4, 0x12ba8b143454ce8cULL, 0x91482a6c4b619128ULL, 0xa2f2d4d4fbf7f145ULL,
     1643, 997, 196, 7554143, 120383},
    {SchedKind::kStride, 5, 0x9a7b60a42a4bfd18ULL, 0xaba9f0f54c1fa4f5ULL, 0xbcb7e43918e2edbdULL,
     704, 451, 174, 1846321, 59771},
    {SchedKind::kStride, 6, 0xc40b2d72b20e84a5ULL, 0xbc2f37061339cdd5ULL, 0x11a81a88d2763e17ULL,
     1744, 1472, 183, 1180277, 156844},
    {SchedKind::kWfq, 1, 0x9ab149dfe103c7cdULL, 0xbf71a08792a9aa0bULL, 0xd0c532900a093340ULL,
     347, 310, 12, 347000, 38226},
    {SchedKind::kWfq, 2, 0xf44cec169c4f2074ULL, 0xc415a427e93f43a8ULL, 0x7e76af8982005b21ULL,
     1023, 690, 0, 19887466, 32364},
    {SchedKind::kWfq, 3, 0x0caa8a1755df4651ULL, 0x54d9102ac5821c12ULL, 0x7c9f8a8097ad7799ULL,
     86, 62, 3, 26000, 10208},
    {SchedKind::kWfq, 4, 0xe33feb698f12aa59ULL, 0xba7ab9d75e9c254eULL, 0x8abb037688b397d3ULL,
     1572, 955, 182, 7474419, 108261},
    {SchedKind::kWfq, 5, 0xd2bd7787c9f8ffd5ULL, 0xe5069bf1c9e2ba36ULL, 0x8b564db64b9a0647ULL,
     363, 232, 42, 1516283, 19240},
    {SchedKind::kWfq, 6, 0x064d3d089a594123ULL, 0x361dc690c535eb41ULL, 0xe73e02e68cf8bc55ULL,
     1580, 1370, 91, 1280029, 96119},
    {SchedKind::kBvt, 1, 0xea4635f40c431408ULL, 0xfed8e417e8e09c8bULL, 0x628f2c1348f69eacULL,
     410, 344, 27, 347000, 57339},
    {SchedKind::kBvt, 2, 0xf44cec169c4f2074ULL, 0xc415a427e93f43a8ULL, 0x7e76af8982005b21ULL,
     1023, 690, 0, 19887466, 32364},
    {SchedKind::kBvt, 3, 0xb9cbf2a25768d830ULL, 0x26db4a41fca19b9aULL, 0x9757cba16e08eac9ULL,
     86, 64, 7, 26000, 11264},
    {SchedKind::kBvt, 4, 0x12ba8b143454ce8cULL, 0x91482a6c4b619128ULL, 0xa2f2d4d4fbf7f145ULL,
     1643, 997, 196, 7554143, 120383},
    {SchedKind::kBvt, 5, 0x9a7b60a42a4bfd18ULL, 0xaba9f0f54c1fa4f5ULL, 0xbcb7e43918e2edbdULL,
     704, 451, 174, 1846321, 59771},
    {SchedKind::kBvt, 6, 0xc40b2d72b20e84a5ULL, 0xbc2f37061339cdd5ULL, 0x11a81a88d2763e17ULL,
     1744, 1472, 183, 1180277, 156844},
    {SchedKind::kTimeshare, 1, 0xca386a1064bacb97ULL, 0x0d27f79ffc00d613ULL, 0x59a5764742ed1e7dULL,
     1473, 1008, 427, 151635, 359065},
    {SchedKind::kTimeshare, 2, 0xd609b3425f4b61daULL, 0xc48680d51741ec15ULL, 0xb19a479de8b8b809ULL,
     577, 453, 0, 22532237, 16271},
    {SchedKind::kTimeshare, 3, 0x87a4953360b4299dULL, 0x1558fe0c82b042f4ULL, 0x39000cbee0eeaf05ULL,
     461, 308, 131, 0, 18727},
    {SchedKind::kTimeshare, 4, 0x2a6995702e30f2a2ULL, 0x88c1f2252dd2b79fULL, 0xa59fb8bb50c8c457ULL,
     660, 535, 61, 2576000, 0},
    {SchedKind::kTimeshare, 5, 0x41c193124e903720ULL, 0x06ef5762612674ecULL, 0xb1c70e3343fb819eULL,
     733, 486, 181, 1257944, 60037},
    {SchedKind::kTimeshare, 6, 0xd69020de5634efb2ULL, 0xe842186d80e8b5aaULL, 0x93da9a8601b7e7f1ULL,
     1237, 1197, 20, 1034000, 189810},
    {SchedKind::kRoundRobin, 1, 0x05d99b4e5b49b1c1ULL, 0xfd144bc7f4fd83f1ULL, 0x4970ca8d9045e3fdULL,
     583, 418, 0, 149907, 151110},
    {SchedKind::kRoundRobin, 2, 0x2acf2c74d2211eb8ULL, 0xc48680d51741ec15ULL, 0xb19a479de8b8b809ULL,
     576, 452, 0, 22532237, 16271},
    {SchedKind::kRoundRobin, 3, 0x507de36fbc7ec40fULL, 0xf13ee00a0e16a46eULL, 0x3401f4dd989cf2b3ULL,
     135, 84, 0, 0, 5124},
    {SchedKind::kRoundRobin, 4, 0x610967f2a24b9bbfULL, 0x7888e89d395bab02ULL, 0x7d223eaa0e2ef4f3ULL,
     537, 414, 0, 2617889, 0},
    {SchedKind::kRoundRobin, 5, 0x617d3d452e781e39ULL, 0xc0a5a5bb2f8c3db9ULL, 0x28e87d17e0eb8c2eULL,
     424, 246, 0, 1375098, 31899},
    {SchedKind::kRoundRobin, 6, 0x229ae60480c36a0dULL, 0x6e6821108530bc38ULL, 0x6aa87c1c1cb46a3bULL,
     1215, 1181, 0, 1034000, 205165},
    {SchedKind::kLottery, 1, 0xcbc9b7bcd1680fa9ULL, 0x0742f8292ba8e781ULL, 0x3cc8ad54b6cc4438ULL,
     352, 309, 0, 142905, 86505},
    {SchedKind::kLottery, 2, 0x2acf2c74d2211eb8ULL, 0xc48680d51741ec15ULL, 0xb19a479de8b8b809ULL,
     576, 452, 0, 22532237, 16271},
    {SchedKind::kLottery, 3, 0xd6d02d5e60efc7e8ULL, 0xf8341293d1fc4f14ULL, 0xe7bc26d60745089bULL,
     85, 61, 0, 0, 1769},
    {SchedKind::kLottery, 4, 0xa9913eacd1923ad8ULL, 0xa31254fd9c4e0f2dULL, 0x6cf263dbcdcb953bULL,
     482, 389, 0, 2402000, 0},
    {SchedKind::kLottery, 5, 0x3b380ba674b1e123ULL, 0x5add4b1a36b603dcULL, 0x8f8a349b663a2628ULL,
     341, 204, 0, 1351131, 17787},
    {SchedKind::kLottery, 6, 0x24aab6883f41c510ULL, 0x1fb5e8c7c843013eULL, 0x0b42c8236e64f44fULL,
     1209, 1181, 0, 1034000, 155215},
};

class EventQueueFuzzTest : public ::testing::TestWithParam<SchedKind> {};

// The engine reproduces the recorded schedules byte for byte, on every seed.
TEST_P(EventQueueFuzzTest, ParallelEngineWorkersOneIsByteIdentical) {
  int checked = 0;
  for (const Golden& golden : kGoldens) {
    if (golden.kind != GetParam()) {
      continue;
    }
    ++checked;
    const TraceResult run = RunOnce(golden.kind, golden.seed);
    EXPECT_EQ(run.run_fingerprint, golden.run_fingerprint) << "seed " << golden.seed;
    EXPECT_EQ(run.lifecycle_fingerprint, golden.lifecycle_fingerprint) << "seed " << golden.seed;
    EXPECT_EQ(run.service_fingerprint, golden.service_fingerprint) << "seed " << golden.seed;
    EXPECT_EQ(run.events, golden.events) << "seed " << golden.seed;
    EXPECT_EQ(run.dispatches, golden.dispatches) << "seed " << golden.seed;
    EXPECT_EQ(run.preemptions, golden.preemptions) << "seed " << golden.seed;
    EXPECT_EQ(run.idle, golden.idle) << "seed " << golden.seed;
    EXPECT_EQ(run.ctx_cost, golden.ctx_cost) << "seed " << golden.seed;
  }
  EXPECT_EQ(checked, 6);
}

INSTANTIATE_TEST_SUITE_P(AllPolicies, EventQueueFuzzTest,
                         ::testing::Values(SchedKind::kSfs, SchedKind::kHsfs, SchedKind::kSfq,
                                           SchedKind::kStride, SchedKind::kWfq, SchedKind::kBvt,
                                           SchedKind::kTimeshare, SchedKind::kRoundRobin,
                                           SchedKind::kLottery),
                         [](const ::testing::TestParamInfo<SchedKind>& param_info) {
                           std::string name(sched::SchedKindName(param_info.param));
                           for (char& c : name) {
                             if (c == '-') {
                               c = '_';
                             }
                           }
                           return name;
                         });

}  // namespace
}  // namespace sfs::eval
