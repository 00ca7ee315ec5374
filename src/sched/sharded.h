// Sharded scheduling layer: per-CPU GPS shards with surplus-aware work
// stealing and cross-shard virtual-time coupling.
//
// The paper rejects per-processor GPS scheduling because "frequent
// repartitioning can be expensive; doing so infrequently can result in
// imbalances (and unfairness) across partitions" (Section 1.2).  Production
// schedulers answer that objection with per-CPU run queues plus idle-time work
// stealing; this layer builds that answer on SFS's own surplus metric:
//
//   * one uniprocessor instance of any GPS policy (SFS/SFQ/WFQ/stride/BVT)
//     per CPU — a shard.  Uniprocessor GPS needs no weight readjustment
//     (every assignment is feasible), the approach's original selling point;
//   * weight-balanced placement at arrival (lightest shard by runnable
//     weight); wakeups rejoin their home shard (cache affinity);
//   * idle-pull work stealing inside PickNextEntity: a shard with nothing
//     runnable pulls the *highest-surplus* stealable thread from its peers
//     (Scheduler::MigrationScore, the SFS alpha_i generalized to any tagged
//     policy), honoring SchedConfig::affinity_tolerance by preferring a
//     cache-warm candidate within the tolerance;
//   * optional periodic surplus-aware rebalancing — the paper's "periodic
//     repartitioning", moving the highest-surplus movable threads from the
//     heaviest to the lightest shard;
//   * cross-shard virtual-time coupling (SchedConfig::shard_coupling): how a
//     migrant's tags translate between shard timelines.  0 preserves only the
//     lead over the source's virtual time (independent timelines: past
//     cross-shard imbalance is forgiven — partitioned semantics); 1 keeps the
//     absolute tags (one shared timeline: a migrant from a slow, overloaded
//     shard arrives behind the destination and is compensated until it
//     catches up, bounding cross-shard unfairness).
//
// The paper's strawman (PartitionedSfq) is the same machinery with stealing
// off and coupling 0 — strawman and production design differ only in knobs.
//
// Concurrency: this layer implements the per-shard half of the Scheduler
// thread-safety contract.  DispatchMutex(cpu) is the shard's own mutex, so
// dispatch on different CPUs proceeds in parallel; only the cross-shard paths
// (steal, rebalance pull) touch a peer shard, and they synchronize by locking
// the victim shard's mutex while already holding the dispatching shard's.
// Lock order: shard mutexes may only be *waited on* in ascending CPU-id
// order; a victim with a lower id than the dispatching shard is acquired by
// try_lock and skipped on contention (the dispatcher simply retries at its
// next decision), so no cycle of blocking waits can form.  Single-threaded
// drivers never contend, every try_lock succeeds, and behaviour — including
// every deterministic test fingerprint — is identical to the unlocked layer.

#ifndef SFS_SCHED_SHARDED_H_
#define SFS_SCHED_SHARDED_H_

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "src/common/mutex.h"
#include "src/sched/scheduler.h"

namespace sfs::sched {

// Re-expresses a migrating runnable entity's tags from the source shard's
// virtual time `v_src` into the destination's `v_dst`.  The lead above v_src
// is preserved; `coupling` in [0, 1] blends the translation origin between
// v_dst (0, fully relative) and v_src (1, absolute tags — shared timeline).
// The finish tag collapses onto the start tag (a runnable migrant carries no
// pending wakeup credit) and the surplus is recomputed on attach.
void TranslateMigratedTags(Entity& e, double v_src, double v_dst, double coupling);

class ShardedScheduler : public Scheduler {
 public:
  // Builds one uniprocessor shard per CPU from `config` (with num_cpus
  // rewritten to 1) using `make_shard`.
  using ShardFactory = std::function<std::unique_ptr<Scheduler>(const SchedConfig&)>;
  ShardedScheduler(const SchedConfig& config, ShardFactory make_shard);
  ~ShardedScheduler() override;

  std::string_view name() const override { return name_; }

  Tick QuantumFor(ThreadId tid) override;

  // Local reschedule_idle: the woken thread competes for its home shard's
  // processor only (cross-shard placement happens by stealing, not by
  // preempting a foreign CPU).
  CpuId SuggestPreemption(ThreadId woken, const std::vector<Tick>& elapsed) override;

  // --- counters / introspection ------------------------------------------------

  std::int64_t steals() const override { return steals_.load(std::memory_order_relaxed); }
  std::int64_t shard_migrations() const override {
    return rebalance_migrations_.load(std::memory_order_relaxed);
  }

  // Home shard of a thread (== the CPU it is eligible to run on between
  // migrations).
  CpuId ShardOf(ThreadId tid) const;

  // Targeted-kick hook (scheduler.h): per-shard dispatch mutexes make the
  // home shard the one whose LockDispatch covers the lifecycle relaxation.
  CpuId HomeCpu(ThreadId tid) const override { return ShardOf(tid); }

  // Runnable weight per shard (placement/rebalance balance target).
  std::vector<double> ShardRunnableWeights() const;

  // The uniprocessor policy instance hosting shard `cpu`.
  const Scheduler& shard(CpuId cpu) const;
  Scheduler& shard(CpuId cpu);

 protected:
  void OnAdmit(Entity& e) override;
  void OnRemove(Entity& e) override;
  void OnBlocked(Entity& e) override;
  void OnWoken(Entity& e) override;
  void OnWeightChanged(Entity& e, Weight old_weight) override;
  Entity* PickNextEntity(CpuId cpu) override;
  void OnCharge(Entity& e, Tick ran_for) override;

  // Per-shard dispatch lock: dispatch on different CPUs does not serialize.
  common::Mutex& DispatchMutex(CpuId cpu) override;

 private:
  struct Shard {
    std::unique_ptr<Scheduler> scheduler;
    // Relaxed atomic: mutated only under this shard's mutex or the lifecycle
    // lock, but read lock-free by peer shards scanning for the lightest or
    // heaviest shard (an approximate balance heuristic under concurrency,
    // exact when single-threaded).
    std::atomic<double> runnable_weight{0.0};
    // The shard's dispatch mutex (see the lock-order comment above).  The
    // host registers it with the lock-order validator under
    // kLockClassDispatch, rank == CPU id, so a blocking out-of-order
    // acquisition aborts in debug builds.
    common::Mutex mu;
  };

  Shard& ShardAt(CpuId cpu) { return *shards_[static_cast<std::size_t>(cpu)]; }
  const Shard& ShardAt(CpuId cpu) const { return *shards_[static_cast<std::size_t>(cpu)]; }

  // Adds `delta` to a shard's runnable weight (writers are serialized by the
  // contract, so a plain read-modify-write store suffices).
  static void AddRunnableWeight(Shard& shard, double delta) {
    shard.runnable_weight.store(shard.runnable_weight.load(std::memory_order_relaxed) + delta,
                                std::memory_order_relaxed);
  }
  double RunnableWeightOf(CpuId cpu) const {
    return ShardAt(cpu).runnable_weight.load(std::memory_order_relaxed);
  }

  // Acquires `victim`'s shard mutex from a dispatcher already holding
  // `self`'s: blocking when victim > self (ascending lock order), try_lock
  // when victim < self.  The returned lock may be unowned (contended skip).
  common::UniqueMutexLock LockVictimShard(CpuId self, CpuId victim);

  // Lightest shard by runnable weight; ties go to the lowest CPU id.
  CpuId LightestShard() const;

  // Periodic surplus-aware repartitioning, counted in scheduling decisions.
  // Pull-based: `dispatching_cpu`'s shard pulls from the heaviest shard, so
  // migrated work is dispatched immediately (pushing toward an idle processor
  // with no pending dispatch would park it).  A triggered pass that cannot
  // act from this processor retries at the next decision.
  void MaybeRebalance(CpuId dispatching_cpu);

  // Steals the best victim across all other shards into `thief` and dispatches
  // it; kInvalidThread when nothing is stealable.
  ThreadId TrySteal(CpuId thief);

  // Moves a runnable, not-running thread between shards with tag translation.
  void Migrate(ThreadId tid, CpuId from, CpuId to, bool steal);

  std::string name_;
  std::vector<std::unique_ptr<Shard>> shards_;
  std::atomic<int> decisions_since_rebalance_{0};
  std::atomic<std::int64_t> steals_{0};
  std::atomic<std::int64_t> rebalance_migrations_{0};
};

// One uniprocessor `Policy` instance per CPU behind the sharding machinery.
template <typename Policy>
class Sharded : public ShardedScheduler {
 public:
  explicit Sharded(const SchedConfig& config)
      : ShardedScheduler(config, [](const SchedConfig& shard_config) {
          return std::make_unique<Policy>(shard_config);
        }) {}
};

}  // namespace sfs::sched

#endif  // SFS_SCHED_SHARDED_H_
