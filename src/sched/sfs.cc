#include "src/sched/sfs.h"

#include <algorithm>

#include "src/common/assert.h"

namespace sfs::sched {

Sfs::Sfs(const SchedConfig& config) : GpsSchedulerBase(config) {
  SFS_CHECK(config.heuristic_k >= 0);
  SFS_CHECK(config.heuristic_refresh_period > 0);
}

double Sfs::VirtualTime() const {
  return start_heap_.empty() ? idle_virtual_time_ : start_heap_.front()->start_tag();
}

double Sfs::Surplus(ThreadId tid) const {
  const Entity& e = FindEntity(tid);
  SFS_CHECK(e.runnable);
  return FreshSurplus(e, VirtualTime());
}

void Sfs::SetWarp(ThreadId tid, double warp) {
  Entity& e = FindEntity(tid);
  e.SetWarpState(warp);
  if (e.runnable) {
    surplus_order_.Reposition(e, FreshSurplus(e, VirtualTime()));
  }
}

void Sfs::OnAdmit(Entity& e) {
  // New threads start at the virtual time: S_i = v (Section 2.3).
  e.start_tag() = VirtualTime();
  e.finish_tag() = e.start_tag();
  if (AdmitWeight(e)) {
    need_refresh_ = true;
  }
  EnqueueRunnable(e);
}

void Sfs::OnRemove(Entity& e) {
  if (e.runnable) {
    DequeueRunnable(e);
    if (RetireWeight(e)) {
      need_refresh_ = true;
    }
  }
}

void Sfs::OnBlocked(Entity& e) {
  DequeueRunnable(e);
  if (RetireWeight(e)) {
    need_refresh_ = true;
  }
  if (start_heap_.empty()) {
    // All processors idle: freeze the virtual time at the finish tag of the
    // thread that ran last (Section 2.3).
    idle_virtual_time_ = std::max(idle_virtual_time_, e.finish_tag());
  }
}

void Sfs::OnWoken(Entity& e) {
  // S_i = max(F_i, v): no credit accumulates while sleeping (Equation 6).
  e.start_tag() = std::max(e.finish_tag(), VirtualTime());
  if (AdmitWeight(e)) {
    need_refresh_ = true;
  }
  EnqueueRunnable(e);
}

void Sfs::OnAttach(Entity& e) {
  // A migrated entity keeps its translated start tag verbatim — unlike a
  // wakeup, no max(F, v) clamp: a coupled migrant may arrive *behind* the
  // local virtual time precisely so it gets compensated for past under-service
  // in its source shard.
  if (AdmitWeight(e)) {
    need_refresh_ = true;
  }
  EnqueueRunnable(e);
}

void Sfs::OnWeightChanged(Entity& e, Weight old_weight) {
  if (UpdateWeight(e, old_weight)) {
    need_refresh_ = true;
  }
}

Entity* Sfs::PickNextEntity(CpuId cpu) {
  const double v = VirtualTime();
  MaybeRebase(v);
  ++decisions_;

  if (config().heuristic_k <= 0) {
    // Exact algorithm: refresh surpluses whenever the virtual time advanced or
    // instantaneous weights changed, then take the head of the surplus order.
    if (need_refresh_ || VirtualTime() != last_refresh_v_) {
      RefreshSurpluses(VirtualTime());
    }
    return ExactPick(cpu);
  }

  // Heuristic (Section 3.2): bounded examination; periodic full refresh keeps the
  // surplus order accurate between heuristic decisions.
  if (need_refresh_ || ++decisions_since_refresh_ >= config().heuristic_refresh_period) {
    RefreshSurpluses(VirtualTime());
  }
  return HeuristicPick(VirtualTime(), config().heuristic_k, cpu);
}

void Sfs::OnCharge(Entity& e, Tick ran_for) {
  // F_i = S_i + q / phi_i with q the *actual* time run (Equation 5); a thread that
  // stays runnable continues from its finish tag (Equation 6).
  e.finish_tag() = e.start_tag() + arith().WeightedService(ran_for, e.phi());
  e.start_tag() = e.finish_tag();
  // The start tag grew: one sift-down restores the heap.  The surplus slot then
  // moves to its new place; the virtual time is read after the sift because
  // this thread may have been the minimum.
  start_heap_.Update(e);
  surplus_order_.Reposition(e, FreshSurplus(e, VirtualTime()));
  if (start_heap_.size() == 1) {
    // Only this thread runnable: remember its finish tag for the idle rule.
    idle_virtual_time_ = std::max(idle_virtual_time_, e.finish_tag());
  }
}

CpuId Sfs::SuggestPreemption(ThreadId woken, const std::vector<Tick>& elapsed) {
  const Entity& w = FindEntity(woken);
  if (!w.runnable || w.running) {
    return kInvalidCpu;
  }
  const double v = VirtualTime();
  const double woken_surplus = FreshSurplus(w, v);
  CpuId victim = kInvalidCpu;
  double worst = woken_surplus;
  for (CpuId cpu = 0; cpu < num_cpus(); ++cpu) {
    const ThreadId running = RunningOn(cpu);
    if (running == kInvalidThread) {
      continue;
    }
    const Entity& r = FindEntity(running);
    // Surplus the running thread would have if charged right now: its start tag
    // advances by elapsed / phi, so in the fluid model its surplus alpha =
    // phi * (S - v) grows by exactly `elapsed`.  (Round-tripping elapsed
    // through the fixed-point WeightedService quantization and multiplying phi
    // back would distort the projection and can pick the wrong victim.)
    const double s = FreshSurplus(r, v) + static_cast<double>(elapsed[static_cast<std::size_t>(cpu)]);
    if (s > worst) {
      worst = s;
      victim = cpu;
    }
  }
  return victim;
}

void Sfs::EnqueueRunnable(Entity& e) {
  e.surplus() = FreshSurplus(e, VirtualTime());
  start_heap_.Insert(e);
  surplus_order_.Insert(e);
}

void Sfs::DequeueRunnable(Entity& e) {
  start_heap_.Remove(e);
  surplus_order_.Remove(e);
}

void Sfs::RefreshSurpluses(double v) {
  // Incremental refresh: recompute every runnable surplus in slot order, then
  // move only the slots whose order actually changed.  Between refreshes
  // surpluses shift by -phi_i * dv, so relative order moves only across
  // different phis and the array stays almost sorted; the result is the same
  // total (surplus, tid) order a full sort would give, so dispatch decisions
  // are unchanged.
  //
  // The recompute reads each runnable entity's row — one cache line, loads
  // independent of each other — and FreshSurplus is branch-free: warp_eff
  // precomputes the old `warp_enabled ? warp : 0` test at SetWarpState time.
  // Blocked entities are not touched; EnqueueRunnable recomputes the surplus
  // at wakeup.
  refresh_repositions_ += static_cast<std::int64_t>(
      surplus_order_.Refresh([this, v](const Entity& e) { return FreshSurplus(e, v); }));
  SFS_DCHECK(surplus_order_.Valid());
  SFS_DCHECK(start_heap_.Valid());
  last_refresh_v_ = v;
  need_refresh_ = false;
  decisions_since_refresh_ = 0;
  ++full_refreshes_;
}

void Sfs::MaybeRebase(double v) {
  if (v <= config().tag_rebase_threshold) {
    return;
  }
  // Shift all tags down by `v` — the minimum start tag over runnable threads,
  // by definition of the virtual time — so the new virtual time is 0.
  // Surpluses are invariant under the uniform shift, and the start-tag order
  // is too up to ties the rounding may create, which re-heapifying settles by
  // tid.  Two values need care:
  //   * a blocked thread's finish tag can lie below v and would drift toward
  //     -inf over repeated rebases; since wakeup applies S = max(F, v') with
  //     v' >= 0 after the shift, clamping such tags at 0 is behaviour-
  //     identical and keeps them bounded;
  //   * `last_refresh_v_` must shift with the tags unconditionally, or the
  //     `VirtualTime() != last_refresh_v_` refresh check desynchronizes and
  //     every subsequent decision pays a spurious full refresh.
  const double delta = v;
  ForEachEntity([delta](Entity& e) {
    e.start_tag() -= delta;
    e.finish_tag() -= delta;
    if (!e.runnable && e.finish_tag() < 0.0) {
      e.finish_tag() = 0.0;
    }
  });
  idle_virtual_time_ = std::max(0.0, idle_virtual_time_ - delta);
  last_refresh_v_ -= delta;
  // Start tags shifted in place; surpluses are untouched by the shift.
  start_heap_.Rebuild();
  ++rebases_;
}

Entity* Sfs::ExactPick(CpuId cpu) {
  const std::size_t n = surplus_order_.size();
  std::size_t head = 0;
  while (head < n && surplus_order_[head].entity->running) {
    ++head;
  }
  if (head == n) {
    return nullptr;
  }
  Entity* const best = surplus_order_[head].entity;
  if (config().affinity_tolerance <= 0 || best->last_cpu == cpu) {
    return best;
  }
  // Affinity extension: accept a slightly-larger surplus to stay cache-warm.
  const double window = surplus_order_[head].key + static_cast<double>(config().affinity_tolerance);
  for (std::size_t i = head + 1; i < n && surplus_order_[i].key <= window; ++i) {
    Entity* const e = surplus_order_[i].entity;
    if (!e->running && e->last_cpu == cpu) {
      return e;
    }
  }
  return best;
}

Entity* Sfs::HeuristicPick(double v, int k, CpuId cpu) {
  Entity* best = nullptr;
  double best_surplus = 0.0;
  Entity* best_affine = nullptr;
  double best_affine_surplus = 0.0;
  auto consider = [&](Entity* e) {
    if (e->running) {
      return;
    }
    const double s = FreshSurplus(*e, v);
    // Deterministic tie-break on thread id ("ties are broken arbitrarily").
    if (best == nullptr || s < best_surplus ||
        (s == best_surplus && e->tid < best->tid)) {
      best = e;
      best_surplus = s;
    }
    if (cpu != kInvalidCpu && e->last_cpu == cpu &&
        (best_affine == nullptr || s < best_affine_surplus ||
         (s == best_affine_surplus && e->tid < best_affine->tid))) {
      best_affine = e;
      best_affine_surplus = s;
    }
  };
  const auto kk = static_cast<std::size_t>(k);
  for (std::size_t i = 0; i < kk && i < surplus_order_.size(); ++i) {
    consider(surplus_order_[i].entity);
  }
  // Best-first over the heap: the same k least start tags a sorted queue's
  // first k would give; `consider` does not depend on visit order.
  start_heap_.ForFirstK(kk, consider);
  // The weight queue is descending; examine it backwards — smallest weights first
  // (footnote 8).
  weight_queue().ForLastK(kk, consider);
  if (best == nullptr) {
    // Degenerate small k: every examined thread is already running on another
    // processor.  Fall back to the surplus order's head scan (at most p-1 skips).
    for (std::size_t i = 0; i < surplus_order_.size(); ++i) {
      if (!surplus_order_[i].entity->running) {
        return surplus_order_[i].entity;
      }
    }
    return nullptr;
  }
  if (best_affine != nullptr && best_affine != best &&
      best_affine_surplus <= best_surplus + static_cast<double>(config().affinity_tolerance)) {
    return best_affine;
  }
  return best;
}

Sfs::HeuristicAudit Sfs::AuditHeuristic(int k) {
  HeuristicAudit audit;
  const double v = VirtualTime();
  Entity* h = HeuristicPick(v, k, kInvalidCpu);
  if (h != nullptr) {
    audit.heuristic_pick = h->tid;
    audit.heuristic_surplus = FreshSurplus(*h, v);
  }
  // Exact answer computed by full scan (no state mutation).
  Entity* exact = nullptr;
  double exact_s = 0.0;
  start_heap_.ForEach([&](Entity* e) {
    if (e->running) {
      return;
    }
    const double s = FreshSurplus(*e, v);
    if (exact == nullptr || s < exact_s || (s == exact_s && e->tid < exact->tid)) {
      exact = e;
      exact_s = s;
    }
  });
  if (exact != nullptr) {
    audit.exact_pick = exact->tid;
    audit.exact_surplus = exact_s;
  }
  return audit;
}

}  // namespace sfs::sched
