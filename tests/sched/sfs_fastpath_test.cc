// Fast-path regression tests for SFS (ISSUE 2 satellites):
//
//   * SuggestPreemption must project a running thread's surplus growth as
//     exactly `elapsed` (fluid model: alpha = phi * (S - v) and S grows by
//     elapsed / phi).  The old code round-tripped elapsed through the
//     fixed-point WeightedService quantization and multiplied phi back, which
//     picks the wrong victim under coarse scaling factors.
//   * MaybeRebase shifts all tags by the minimum runnable start tag.  The
//     shift must keep `last_refresh_v_` in sync and must not drive blocked
//     threads' finish tags to -inf over a long horizon; dispatch decisions are
//     invariant under rebasing, so a tiny-threshold scheduler must trace
//     identically to a never-rebasing one — on one CPU, and on four CPUs with
//     enough threads that the start-tag heap is several levels deep.

#include "src/sched/sfs.h"

#include <deque>
#include <vector>

#include "gtest/gtest.h"

namespace sfs::sched {
namespace {

TEST(SfsPreemptionTest, FixedPointProjectionPicksTrueWorstVictim) {
  // Scaling factor 10^0: WeightedService quantizes q/phi to integers.  With
  // the old projection phi * WeightedService(elapsed, phi):
  //   cpu0: phi=3, elapsed=4 -> 3 * round(4/3) = 3   (true growth: 4)
  //   cpu1: phi=2, elapsed=3 -> 2 * round(3/2) = 4   (true growth: 3)
  // i.e. the quantized projection inverts the victims.  The fluid model says
  // surplus grows by exactly `elapsed`, so cpu0 is the correct victim.
  SchedConfig config;
  config.num_cpus = 2;
  config.fixed_point_digits = 0;
  Sfs sfs(config);
  sfs.AddThread(1, 3.0);
  sfs.AddThread(2, 2.0);
  sfs.AddThread(3, 1.0);  // weights {3,2,1} are feasible on 2 CPUs: phi = w
  ASSERT_EQ(sfs.PickNext(0), 1);
  ASSERT_EQ(sfs.PickNext(1), 2);
  ASSERT_EQ(sfs.GetPhi(1), 3.0);
  ASSERT_EQ(sfs.GetPhi(2), 2.0);

  const std::vector<Tick> elapsed = {4, 3};
  EXPECT_EQ(sfs.SuggestPreemption(3, elapsed), 0);
}

TEST(SfsPreemptionTest, ExactArithmeticAgreesWithFluidModel) {
  SchedConfig config;
  config.num_cpus = 2;
  config.fixed_point_digits = -1;
  Sfs sfs(config);
  sfs.AddThread(1, 3.0);
  sfs.AddThread(2, 2.0);
  sfs.AddThread(3, 1.0);
  ASSERT_EQ(sfs.PickNext(0), 1);
  ASSERT_EQ(sfs.PickNext(1), 2);
  EXPECT_EQ(sfs.SuggestPreemption(3, {4, 3}), 0);
  // Larger uncharged time on cpu1 flips the victim.
  EXPECT_EQ(sfs.SuggestPreemption(3, {4, 9}), 1);
}

TEST(SfsRebaseTest, LongHorizonTracesMatchNeverRebasingScheduler) {
  // Same op sequence on a scheduler that rebases every ~1000 weighted ticks
  // and one that never rebases: rebasing is a uniform tag shift, so every
  // dispatch decision must be identical.  All tag increments are integral
  // (weights 1 and 2, 1 ms charges), so the shifts are exact in doubles.
  SchedConfig small;
  small.num_cpus = 1;
  small.tag_rebase_threshold = 1000.0;
  SchedConfig huge = small;
  huge.tag_rebase_threshold = 1e15;
  Sfs rebasing(small);
  Sfs reference(huge);

  for (Sfs* s : {&rebasing, &reference}) {
    s->AddThread(1, 2.0);
    s->AddThread(2, 1.0);
    s->AddThread(3, 1.0);
  }

  // Give the soon-blocked thread a small finish tag, then block it for the
  // whole horizon: every rebase shifts far past it.
  for (;;) {
    const ThreadId a = rebasing.PickNext(0);
    const ThreadId b = reference.PickNext(0);
    ASSERT_EQ(a, b);
    rebasing.Charge(a, Msec(1));
    reference.Charge(b, Msec(1));
    if (a == 3) {
      break;
    }
  }
  rebasing.Block(3);
  reference.Block(3);

  for (int i = 0; i < 3000; ++i) {
    const ThreadId a = rebasing.PickNext(0);
    const ThreadId b = reference.PickNext(0);
    ASSERT_EQ(a, b) << "iteration " << i << " after " << rebasing.rebases() << " rebases";
    rebasing.Charge(a, Msec(1));
    reference.Charge(b, Msec(1));
    // The blocked thread's finish tag seeds its wakeup start tag; repeated
    // rebases must clamp it at 0, not drive it toward -inf.
    ASSERT_GE(rebasing.FinishTag(3), 0.0) << "iteration " << i;
  }
  EXPECT_GT(rebasing.rebases(), 100);
  EXPECT_EQ(reference.rebases(), 0);

  // Waking the long-blocked thread lands at the (shifted) virtual time on
  // both; traces must keep agreeing.
  rebasing.Wakeup(3);
  reference.Wakeup(3);
  for (int i = 0; i < 200; ++i) {
    const ThreadId a = rebasing.PickNext(0);
    const ThreadId b = reference.PickNext(0);
    ASSERT_EQ(a, b) << "post-wakeup iteration " << i;
    rebasing.Charge(a, Msec(1));
    reference.Charge(b, Msec(1));
  }
  EXPECT_EQ(rebasing.TotalService(1), reference.TotalService(1));
  EXPECT_EQ(rebasing.TotalService(3), reference.TotalService(3));
  // The refresh-skip check must stay in sync across rebases: the rebasing
  // scheduler may not pay a single refresh more than the never-rebasing one.
  EXPECT_EQ(rebasing.full_refreshes(), reference.full_refreshes());
}

TEST(SfsRebaseTest, MultiprocessorTracesMatchNeverRebasingScheduler) {
  // p=4 with 36 threads: every rebase re-heapifies a start-tag heap six
  // levels deep, and blocks and wakeups keep removing and inserting interior
  // slots.  Weights {1, 2, 4, 5, 8} are feasible on 4 CPUs (phi = w) and
  // every charge is a whole number of milliseconds, so each weighted service
  // q / phi — and therefore each shift — is exact in doubles.
  SchedConfig small;
  small.num_cpus = 4;
  small.tag_rebase_threshold = 1000.0;
  SchedConfig huge = small;
  huge.tag_rebase_threshold = 1e15;
  Sfs rebasing(small);
  Sfs reference(huge);

  constexpr int kThreads = 36;
  const double weights[] = {1.0, 2.0, 4.0, 5.0, 8.0};
  for (Sfs* s : {&rebasing, &reference}) {
    for (ThreadId tid = 0; tid < kThreads; ++tid) {
      s->AddThread(tid, weights[tid % 5]);
    }
  }

  std::deque<ThreadId> blocked;
  for (int round = 0; round < 3000; ++round) {
    ThreadId picked[4];
    for (CpuId cpu = 0; cpu < 4; ++cpu) {
      picked[cpu] = rebasing.PickNext(cpu);
      ASSERT_EQ(picked[cpu], reference.PickNext(cpu))
          << "round " << round << " cpu " << cpu << " after " << rebasing.rebases() << " rebases";
    }
    for (CpuId cpu = 0; cpu < 4; ++cpu) {
      const ThreadId tid = picked[cpu];
      ASSERT_NE(tid, kInvalidThread);
      const Tick ran = Msec(1 + (round + cpu) % 4);
      rebasing.Charge(tid, ran);
      reference.Charge(tid, ran);
      if (round % 5 == cpu && blocked.size() < 8) {
        rebasing.Block(tid);
        reference.Block(tid);
        blocked.push_back(tid);
      }
    }
    if (round % 3 == 0 && !blocked.empty()) {
      rebasing.Wakeup(blocked.front());
      reference.Wakeup(blocked.front());
      blocked.pop_front();
    }
    for (const ThreadId tid : blocked) {
      ASSERT_GE(rebasing.FinishTag(tid), 0.0) << "round " << round;
    }
  }
  EXPECT_GT(rebasing.rebases(), 100);
  EXPECT_EQ(reference.rebases(), 0);
  for (ThreadId tid = 0; tid < kThreads; ++tid) {
    EXPECT_EQ(rebasing.TotalService(tid), reference.TotalService(tid)) << "tid " << tid;
  }
  EXPECT_EQ(rebasing.full_refreshes(), reference.full_refreshes());
  EXPECT_EQ(rebasing.refresh_repositions(), reference.refresh_repositions());
}

}  // namespace
}  // namespace sfs::sched
