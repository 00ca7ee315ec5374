#include "src/sched/stride.h"

#include <algorithm>

namespace sfs::sched {

Stride::Stride(const SchedConfig& config) : GpsSchedulerBase(config) {}

Stride::~Stride() { queue_.Clear(); }

double Stride::GlobalPass() const {
  const Entity* head = queue_.front();
  return head == nullptr ? idle_pass_ : head->pass;
}

void Stride::OnAdmit(Entity& e) {
  e.pass = GlobalPass();
  AdmitWeight(e);
  queue_.Insert(&e);
}

void Stride::OnRemove(Entity& e) {
  if (e.runnable) {
    queue_.Remove(&e);
    RetireWeight(e);
  }
}

void Stride::OnBlocked(Entity& e) {
  queue_.Remove(&e);
  RetireWeight(e);
  if (queue_.empty()) {
    idle_pass_ = std::max(idle_pass_, e.pass);
  }
}

void Stride::OnWoken(Entity& e) {
  // Re-joining threads resume from the global pass so they cannot bank credit.
  e.pass = std::max(e.pass, GlobalPass());
  AdmitWeight(e);
  queue_.Insert(&e);
}

void Stride::OnWeightChanged(Entity& e, Weight old_weight) { UpdateWeight(e, old_weight); }

void Stride::OnAttach(Entity& e) {
  // Migrated entity: keep the translated pass (no wakeup-style clamp).
  AdmitWeight(e);
  queue_.Insert(&e);
}

Entity* Stride::PickNextEntity(CpuId cpu) {
  (void)cpu;
  for (Entity* e = queue_.front(); e != nullptr; e = queue_.next(e)) {
    if (!e->running) {
      return e;
    }
  }
  return nullptr;
}

void Stride::OnCharge(Entity& e, Tick ran_for) {
  // pass += stride * service; with stride1 folded into the tag unit this is the
  // same weighted-service advance the other GPS schedulers use.
  e.pass += arith().WeightedService(ran_for, e.phi());
  queue_.Remove(&e);
  queue_.InsertFromBack(&e);
  if (queue_.size() == 1) {
    idle_pass_ = std::max(idle_pass_, e.pass);
  }
}

CpuId Stride::SuggestPreemption(ThreadId woken, const std::vector<Tick>& elapsed) {
  const Entity& w = FindEntity(woken);
  if (!w.runnable || w.running) {
    return kInvalidCpu;
  }
  CpuId victim = kInvalidCpu;
  double worst = w.pass;
  for (CpuId cpu = 0; cpu < num_cpus(); ++cpu) {
    const ThreadId running = RunningOn(cpu);
    if (running == kInvalidThread) {
      continue;
    }
    const Entity& r = FindEntity(running);
    const double pass =
        r.pass + arith().WeightedService(elapsed[static_cast<std::size_t>(cpu)], r.phi());
    if (pass > worst) {
      worst = pass;
      victim = cpu;
    }
  }
  return victim;
}

}  // namespace sfs::sched
