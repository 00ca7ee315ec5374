#include "src/sched/sharded.h"

#include <algorithm>
#include <utility>

#include "src/common/assert.h"

namespace sfs::sched {

void TranslateMigratedTags(Entity& e, double v_src, double v_dst, double coupling) {
  const double origin = v_dst + coupling * (v_src - v_dst);
  // Both tag axes are translated with the same rule; each policy reads only
  // its own (start/finish for SFS/SFQ/WFQ, pass for stride/BVT).
  e.start_tag() = origin + std::max(0.0, e.start_tag() - v_src);
  e.finish_tag() = e.start_tag();
  e.pass = origin + std::max(0.0, e.pass - v_src);
  e.surplus() = 0.0;
}

ShardedScheduler::ShardedScheduler(const SchedConfig& config, ShardFactory make_shard)
    : Scheduler(config) {
  SFS_CHECK(config.shard_rebalance_period >= 0);
  SFS_CHECK(config.shard_coupling >= 0.0 && config.shard_coupling <= 1.0);
  SchedConfig shard_config = config;
  shard_config.num_cpus = 1;
  shards_.reserve(static_cast<std::size_t>(num_cpus()));
  for (CpuId cpu = 0; cpu < num_cpus(); ++cpu) {
    auto shard = std::make_unique<Shard>();
    shard->scheduler = make_shard(shard_config);
    SFS_CHECK(shard->scheduler != nullptr);
    SFS_CHECK(shard->scheduler->num_cpus() == 1);
    if (common::lock_order::Enabled()) {
      // Rank the dispatch-mutex family so the validator checks ascending
      // CPU-id order across every ShardedScheduler instance in the process.
      common::lock_order::SetRank(&shard->mu, common::kLockClassDispatch,
                                  static_cast<std::uint32_t>(cpu));
    }
    shards_.push_back(std::move(shard));
  }
  name_ = "sharded-" + std::string(shards_.front()->scheduler->name());
}

ShardedScheduler::~ShardedScheduler() = default;

Tick ShardedScheduler::QuantumFor(ThreadId tid) {
  return ShardAt(FindEntity(tid).partition).scheduler->QuantumFor(tid);
}

CpuId ShardedScheduler::SuggestPreemption(ThreadId woken, const std::vector<Tick>& elapsed) {
  const Entity& e = FindEntity(woken);
  if (!e.runnable || e.running) {
    return kInvalidCpu;
  }
  const CpuId home = e.partition;
  const std::vector<Tick> local_elapsed = {elapsed[static_cast<std::size_t>(home)]};
  const CpuId inner = ShardAt(home).scheduler->SuggestPreemption(woken, local_elapsed);
  return inner == 0 ? home : kInvalidCpu;
}

CpuId ShardedScheduler::ShardOf(ThreadId tid) const { return FindEntity(tid).partition; }

std::vector<double> ShardedScheduler::ShardRunnableWeights() const {
  std::vector<double> weights;
  weights.reserve(shards_.size());
  for (const auto& shard : shards_) {
    weights.push_back(shard->runnable_weight.load(std::memory_order_relaxed));
  }
  return weights;
}

const Scheduler& ShardedScheduler::shard(CpuId cpu) const { return *ShardAt(cpu).scheduler; }

Scheduler& ShardedScheduler::shard(CpuId cpu) { return *ShardAt(cpu).scheduler; }

common::Mutex& ShardedScheduler::DispatchMutex(CpuId cpu) { return ShardAt(cpu).mu; }

common::UniqueMutexLock ShardedScheduler::LockVictimShard(CpuId self, CpuId victim) {
  SFS_DCHECK(victim != self);
  if (victim > self) {
    return common::UniqueMutexLock(ShardAt(victim).mu);
  }
  return common::UniqueMutexLock(ShardAt(victim).mu, std::try_to_lock);
}

CpuId ShardedScheduler::LightestShard() const {
  CpuId best = 0;
  for (CpuId cpu = 1; cpu < num_cpus(); ++cpu) {
    if (RunnableWeightOf(cpu) < RunnableWeightOf(best)) {
      best = cpu;
    }
  }
  return best;
}

void ShardedScheduler::OnAdmit(Entity& e) {
  // A pre-set partition is a placement hint (Scheduler::AddThread's `home`
  // overload): admit there instead of balancing, so placement is a pure
  // function of the workload and a hinted, non-stealing run stays
  // partitioned.
  const CpuId target =
      (e.partition >= 0 && e.partition < num_cpus()) ? e.partition : LightestShard();
  e.partition = target;
  e.phi() = e.weight();  // uniprocessor shards: every weight assignment is feasible
  Shard& shard = ShardAt(target);
  AddRunnableWeight(shard, e.weight());
  shard.scheduler->AddThread(e.tid, e.weight());
}

void ShardedScheduler::OnRemove(Entity& e) {
  Shard& shard = ShardAt(e.partition);
  if (e.runnable) {
    AddRunnableWeight(shard, -e.weight());
  }
  shard.scheduler->RemoveThread(e.tid);
}

void ShardedScheduler::OnBlocked(Entity& e) {
  Shard& shard = ShardAt(e.partition);
  AddRunnableWeight(shard, -e.weight());
  shard.scheduler->Block(e.tid);
}

void ShardedScheduler::OnWoken(Entity& e) {
  // Wakes rejoin their home shard (cache affinity); imbalance this creates is
  // repaired by stealing/rebalancing, not by re-placing the waker.
  Shard& shard = ShardAt(e.partition);
  AddRunnableWeight(shard, e.weight());
  shard.scheduler->Wakeup(e.tid);
}

void ShardedScheduler::OnWeightChanged(Entity& e, Weight old_weight) {
  if (e.runnable) {
    AddRunnableWeight(ShardAt(e.partition), e.weight() - old_weight);
  }
  e.phi() = e.weight();
  ShardAt(e.partition).scheduler->SetWeight(e.tid, e.weight());
}

Entity* ShardedScheduler::PickNextEntity(CpuId cpu) {
  MaybeRebalance(cpu);
  ThreadId tid = ShardAt(cpu).scheduler->PickNext(0);
  if (tid == kInvalidThread && config().shard_steal == ShardStealPolicy::kMaxSurplus) {
    tid = TrySteal(cpu);
  }
  return tid == kInvalidThread ? nullptr : &FindEntity(tid);
}

void ShardedScheduler::OnCharge(Entity& e, Tick ran_for) {
  ShardAt(e.partition).scheduler->Charge(e.tid, ran_for);
}

void ShardedScheduler::MaybeRebalance(CpuId dispatching_cpu) {
  if (config().shard_rebalance_period <= 0 ||
      decisions_since_rebalance_.fetch_add(1, std::memory_order_relaxed) + 1 <
          config().shard_rebalance_period) {
    return;
  }
  // Pull-based greedy repartitioning: the dispatching CPU's shard pulls the
  // highest-surplus movable thread from the heaviest shard while each move
  // strictly shrinks the imbalance (candidate weight < gap).  Pulling into
  // the shard that is about to dispatch guarantees migrated work is served
  // immediately — pushing toward an idle processor with no pending dispatch
  // would park it indefinitely.
  bool acted = false;
  for (int iteration = 0; iteration < thread_count(); ++iteration) {
    CpuId heavy = 0;
    for (CpuId cpu = 1; cpu < num_cpus(); ++cpu) {
      if (RunnableWeightOf(cpu) > RunnableWeightOf(heavy)) {
        heavy = cpu;
      }
    }
    if (heavy == dispatching_cpu) {
      break;
    }
    const double gap = RunnableWeightOf(heavy) - RunnableWeightOf(dispatching_cpu);
    if (gap <= 0.0) {
      acted = true;  // balanced from this shard's point of view: pass complete
      break;
    }
    common::UniqueMutexLock victim_lock = LockVictimShard(dispatching_cpu, heavy);
    if (!victim_lock.owns_lock()) {
      break;  // contended victim: retry at the next decision
    }
    Entity* candidate = ShardAt(heavy).scheduler->PickMigrationCandidate(/*max_weight=*/gap);
    if (candidate == nullptr) {
      break;
    }
    Migrate(candidate->tid, heavy, dispatching_cpu, /*steal=*/false);
    acted = true;
  }
  // When this processor's shard could not act (it *is* the heaviest, or the
  // heavy shard had nothing movable), retry at the very next decision —
  // likely on another CPU — instead of waiting out a whole fresh period.
  decisions_since_rebalance_.store(acted ? 0 : config().shard_rebalance_period,
                                   std::memory_order_relaxed);
}

ThreadId ShardedScheduler::TrySteal(CpuId thief) {
  // Victim: across all other shards, the stealable (runnable, not running)
  // thread with the greatest phi-weighted lead over its shard's virtual time.
  // Each shard nominates its own best candidate; the thief prefers a
  // cache-warm nominee (last ran here) within affinity_tolerance of the best.
  // Each source shard is evaluated under its own dispatch mutex (nominations
  // are recorded by tid, not entity pointer, since a peer may act on the
  // shard once its lock is released); the winner is re-locked and re-validated
  // before the migration.
  ThreadId victim = kInvalidThread;
  CpuId victim_shard = kInvalidCpu;
  double victim_score = 0.0;
  ThreadId affine = kInvalidThread;
  CpuId affine_shard = kInvalidCpu;
  double affine_score = 0.0;
  for (CpuId source = 0; source < num_cpus(); ++source) {
    if (source == thief) {
      continue;
    }
    common::UniqueMutexLock source_lock = LockVictimShard(thief, source);
    if (!source_lock.owns_lock()) {
      continue;  // contended source: its own dispatcher is serving it anyway
    }
    // Only steal from shards whose processor is busy: a queued thread on an
    // idle source processor will be served locally (cache-warm) as soon as
    // that processor dispatches — the engine tries every idle CPU on a
    // wakeup — so pulling it across shards would be a gratuitous migration.
    if (RunningOn(source) == kInvalidThread) {
      continue;
    }
    Scheduler& shard = *ShardAt(source).scheduler;
    double score = 0.0;
    Entity* candidate = shard.PickMigrationCandidate(/*max_weight=*/0.0, &score);
    if (candidate == nullptr) {
      continue;
    }
    if (victim == kInvalidThread || score > victim_score ||
        (score == victim_score && candidate->tid < victim)) {
      victim = candidate->tid;
      victim_shard = source;
      victim_score = score;
    }
    // Cache warmth lives on the outer entity (inner shards only ever see
    // their single local processor 0).
    if (FindEntity(candidate->tid).last_cpu == thief &&
        (affine == kInvalidThread || score > affine_score ||
         (score == affine_score && candidate->tid < affine))) {
      affine = candidate->tid;
      affine_shard = source;
      affine_score = score;
    }
  }
  if (victim == kInvalidThread) {
    return kInvalidThread;
  }
  if (affine != kInvalidThread && affine != victim &&
      affine_score + static_cast<double>(config().affinity_tolerance) >= victim_score) {
    victim = affine;
    victim_shard = affine_shard;
  }
  common::UniqueMutexLock victim_lock = LockVictimShard(thief, victim_shard);
  if (!victim_lock.owns_lock()) {
    return kInvalidThread;  // contended since nomination: give up this round
  }
  // Re-validate: the victim shard's dispatcher may have dispatched, blocked or
  // migrated the nominee between the scan and this reacquisition.  (Always
  // true single-threaded, where the nomination lock was never released.)
  // Checked against the *inner* shard's state only: if the nominee migrated
  // away, the outer entity's fields are now guarded by locks we do not hold,
  // but inner membership — and, while a member, runnable/running — is guarded
  // by the victim lock held here.
  Scheduler& source = *ShardAt(victim_shard).scheduler;
  if (!source.Contains(victim) || !source.IsRunnable(victim) || source.IsRunning(victim)) {
    return kInvalidThread;
  }
  Migrate(victim, victim_shard, thief, /*steal=*/true);
  return ShardAt(thief).scheduler->PickNext(0);
}

void ShardedScheduler::Migrate(ThreadId tid, CpuId from, CpuId to, bool steal) {
  // Caller holds both shard mutexes (or is single-threaded): the source and
  // destination inner schedulers and the outer entity are all stable here.
  SFS_DCHECK(from != to);
  Scheduler& src = *ShardAt(from).scheduler;
  Scheduler& dst = *ShardAt(to).scheduler;
  // Read both timelines before detaching: removing the entity can move the
  // source's virtual time (it may hold the minimum tag).
  const double v_src = src.LocalVirtualTime();
  const double v_dst = dst.LocalVirtualTime();
  std::unique_ptr<Entity> inner = src.DetachEntity(tid);
  SFS_CHECK(inner->runnable && !inner->running);
  TranslateMigratedTags(*inner, v_src, v_dst, config().shard_coupling);
  dst.AttachEntity(std::move(inner));
  Entity& outer = FindEntity(tid);
  AddRunnableWeight(ShardAt(from), -outer.weight());
  AddRunnableWeight(ShardAt(to), outer.weight());
  outer.partition = to;
  (steal ? steals_ : rebalance_migrations_).fetch_add(1, std::memory_order_relaxed);
  // Both migration kinds execute on `to`'s dispatch path (the thief, or the
  // rebalancing dispatcher pulling work), so recording into ring `to`
  // preserves the one-writer-per-ring contract.
  if (trace_) [[unlikely]] {
    trace_->Record(to, steal ? obs::TraceEventKind::kSteal : obs::TraceEventKind::kRebalance,
                   trace_->now_hint(), tid, from);
  }
}

}  // namespace sfs::sched
