#include "src/sched/bvt.h"

#include <algorithm>

namespace sfs::sched {

Bvt::Bvt(const SchedConfig& config) : GpsSchedulerBase(config) {}

Bvt::~Bvt() { queue_.Clear(); }

double Bvt::SchedulerVirtualTime() const {
  // SVT: minimum actual virtual time over runnable threads.
  const Entity* best = nullptr;
  for (const Entity* e = queue_.front(); e != nullptr; e = queue_.next(e)) {
    if (best == nullptr || e->pass < best->pass) {
      best = e;
    }
  }
  return best == nullptr ? idle_svt_ : best->pass;
}

void Bvt::SetWarp(ThreadId tid, double warp) {
  Entity& e = FindEntity(tid);
  e.SetWarpState(warp);
  if (queue_.contains(&e)) {
    queue_.Reposition(&e);
  }
}

void Bvt::OnAdmit(Entity& e) {
  e.pass = SchedulerVirtualTime();
  AdmitWeight(e);
  queue_.Insert(&e);
}

void Bvt::OnRemove(Entity& e) {
  if (e.runnable) {
    queue_.Remove(&e);
    RetireWeight(e);
  }
}

void Bvt::OnBlocked(Entity& e) {
  queue_.Remove(&e);
  RetireWeight(e);
  if (queue_.empty()) {
    idle_svt_ = std::max(idle_svt_, e.pass);
  }
}

void Bvt::OnWoken(Entity& e) {
  e.pass = std::max(e.pass, SchedulerVirtualTime());
  AdmitWeight(e);
  queue_.Insert(&e);
}

void Bvt::OnWeightChanged(Entity& e, Weight old_weight) { UpdateWeight(e, old_weight); }

void Bvt::OnAttach(Entity& e) {
  // Migrated entity: keep the translated actual virtual time (no clamp).
  AdmitWeight(e);
  queue_.Insert(&e);
}

Entity* Bvt::PickNextEntity(CpuId cpu) {
  (void)cpu;
  for (Entity* e = queue_.front(); e != nullptr; e = queue_.next(e)) {
    if (!e->running) {
      return e;
    }
  }
  return nullptr;
}

void Bvt::OnCharge(Entity& e, Tick ran_for) {
  e.pass += arith().WeightedService(ran_for, e.phi());
  queue_.Remove(&e);
  queue_.InsertFromBack(&e);
  if (queue_.size() == 1) {
    idle_svt_ = std::max(idle_svt_, e.pass);
  }
}

CpuId Bvt::SuggestPreemption(ThreadId woken, const std::vector<Tick>& elapsed) {
  const Entity& w = FindEntity(woken);
  if (!w.runnable || w.running) {
    return kInvalidCpu;
  }
  const auto effective_vt = [](const Entity& e) { return e.pass - e.warp_eff(); };
  const double woken_evt = effective_vt(w);
  CpuId victim = kInvalidCpu;
  double worst = woken_evt;
  for (CpuId cpu = 0; cpu < num_cpus(); ++cpu) {
    const ThreadId running = RunningOn(cpu);
    if (running == kInvalidThread) {
      continue;
    }
    const Entity& r = FindEntity(running);
    const double evt = effective_vt(r) +
                       arith().WeightedService(elapsed[static_cast<std::size_t>(cpu)], r.phi());
    if (evt > worst) {
      worst = evt;
      victim = cpu;
    }
  }
  return victim;
}

}  // namespace sfs::sched
