// Borrowed Virtual Time (Duda & Cheriton, SOSP '99) baseline.
//
// BVT tracks an actual virtual time A_i per thread (advancing by q / phi_i) and
// dispatches by *effective* virtual time E_i = A_i - warp_i for warped
// (latency-sensitive) threads.  The paper notes "BVT reduces to SFQ when the
// latency parameter is set to zero", which the test suite verifies, and that BVT
// inherits the same multiprocessor pathologies; use_readjustment grafts the
// Section 2.1 algorithm onto it.

#ifndef SFS_SCHED_BVT_H_
#define SFS_SCHED_BVT_H_

#include <utility>

#include "src/common/sorted_list.h"
#include "src/sched/gps_base.h"

namespace sfs::sched {

struct ByEffectiveVtAsc {
  static std::pair<double, ThreadId> Key(const Entity& e) {
    // warp_eff is warp while enabled, else 0, so pass - warp_eff is E_i either way.
    return {e.pass - e.warp_eff(), e.tid};
  }
};
using EffectiveVtQueue = common::SortedList<Entity, &Entity::by_rq, ByEffectiveVtAsc>;

class Bvt : public GpsSchedulerBase {
 public:
  explicit Bvt(const SchedConfig& config);
  ~Bvt() override;

  std::string_view name() const override { return "BVT"; }

  CpuId SuggestPreemption(ThreadId woken, const std::vector<Tick>& elapsed) override;

  // Sets the latency parameter (warp) of a thread.  warp = 0 disables warping.
  void SetWarp(ThreadId tid, double warp);

  double ActualVirtualTime(ThreadId tid) const { return FindEntity(tid).pass; }
  double SchedulerVirtualTime() const;

  // Migration timeline (sched::Sharded): tags live on the actual-virtual-time
  // (pass) axis; warp travels with the entity unchanged.
  double LocalVirtualTime() const override { return SchedulerVirtualTime(); }
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
  EffectiveVtQueue queue_;
  double idle_svt_ = 0.0;
};

}  // namespace sfs::sched

#endif  // SFS_SCHED_BVT_H_
