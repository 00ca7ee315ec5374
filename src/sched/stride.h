// Stride scheduling (Waldspurger & Weihl, 1995) baseline.
//
// Deterministic proportional-share scheduling: each thread has a pass value that
// advances by stride = stride1 / phi_i per unit of service; the scheduler always
// runs the thread with the minimum pass.  The paper cites stride scheduling as
// another GPS instantiation that inherits the infeasible-weights pathology on
// multiprocessors; combined with the readjustment algorithm (ablation A4) its
// unfairness shrinks just as SFQ's does.

#ifndef SFS_SCHED_STRIDE_H_
#define SFS_SCHED_STRIDE_H_

#include <utility>

#include "src/common/sorted_list.h"
#include "src/sched/gps_base.h"

namespace sfs::sched {

struct ByPassAsc {
  static std::pair<double, ThreadId> Key(const Entity& e) { return {e.pass, e.tid}; }
};
using PassQueue = common::SortedList<Entity, &Entity::by_rq, ByPassAsc>;

class Stride : public GpsSchedulerBase {
 public:
  explicit Stride(const SchedConfig& config);
  ~Stride() override;

  std::string_view name() const override {
    return config().use_readjustment ? "stride+readjust" : "stride";
  }

  CpuId SuggestPreemption(ThreadId woken, const std::vector<Tick>& elapsed) override;

  // Global pass (minimum pass over runnable threads).
  double GlobalPass() const;
  double Pass(ThreadId tid) const { return FindEntity(tid).pass; }

  // Migration timeline (sched::Sharded): tags live on the pass axis.
  double LocalVirtualTime() const override { return GlobalPass(); }
  double EntityTag(const Entity& e) const override { return e.pass; }

 protected:
  void OnAdmit(Entity& e) override;
  void OnRemove(Entity& e) override;
  void OnBlocked(Entity& e) override;
  void OnWoken(Entity& e) override;
  void OnWeightChanged(Entity& e, Weight old_weight) override;
  Entity* PickNextEntity(CpuId cpu) override;
  void OnCharge(Entity& e, Tick ran_for) override;
  void OnAttach(Entity& e) override;

 private:
  PassQueue queue_;
  double idle_pass_ = 0.0;
};

}  // namespace sfs::sched

#endif  // SFS_SCHED_STRIDE_H_
