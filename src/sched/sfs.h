// Surplus Fair Scheduling (Sections 2.3, 3.1, 3.2) — the paper's main contribution.
//
// Each thread carries a start tag S_i and finish tag F_i measured in weighted
// service.  The system virtual time v is the minimum start tag over runnable
// threads.  The *surplus*
//
//     alpha_i = phi_i * (S_i - v)
//
// approximates how far ahead of the idealized GMS allocation the thread has run
// (Equation 4); SFS always dispatches the runnable thread with the least surplus.
// Properties reproduced here:
//
//   * phi_i is the instantaneous weight from the readjustment algorithm, so all
//     decisions are made on feasible weights;
//   * the decision needs only start tags, so quanta may have variable length
//     (threads blocking mid-quantum are charged exactly what they used);
//   * a newly woken thread gets S_i = max(F_i, v) — no credit accumulates while
//     sleeping;
//   * alpha_i >= 0 and at least one runnable thread has alpha_i = 0;
//   * on a uniprocessor SFS reduces exactly to SFQ (least surplus == least start
//     tag), which the test suite verifies.
//
// Engineering faithful to Section 3:
//   * three orders over the runnable threads: descending weight (the weight
//     queue in GpsSchedulerBase, a common::SortedList); ascending start tag,
//     kept as an indexed binary min-heap; and ascending surplus, kept as a
//     sorted slot array (sfs_orders.h).  The two SFS orders are contiguous
//     arrays — Section 3.2 names the sorted lists as the constant-factor
//     bottleneck, and the exact algorithm needs only the minimum start tag;
//   * surpluses are recomputed — and only the entities whose order actually
//     changed moved — when the virtual time advances or weights were
//     readjusted;
//   * optional scheduling heuristic: examine the first k threads of the start-tag
//     and surplus orders and the last k of the weight queue, pick the least fresh
//     surplus among them (Figure 3 measures its accuracy);
//   * optional fixed-point tag arithmetic with a 10^n scaling factor;
//   * tag wrap-around handling: all tags are periodically rebased against the
//     minimum start tag.

#ifndef SFS_SCHED_SFS_H_
#define SFS_SCHED_SFS_H_

#include <cstdint>
#include <vector>

#include "src/sched/gps_base.h"
#include "src/sched/sfs_orders.h"

namespace sfs::sched {

class Sfs : public GpsSchedulerBase {
 public:
  explicit Sfs(const SchedConfig& config);

  std::string_view name() const override { return "SFS"; }

  CpuId SuggestPreemption(ThreadId woken, const std::vector<Tick>& elapsed) override;

  // --- latency extension (Section 5 future work) -------------------------------
  // Sets a latency warp for a thread, in ticks of weighted service.  Dispatch
  // decisions use the *effective* surplus alpha_i - phi_i * warp_i, so a warped
  // thread is scheduled as if it were `warp` ahead of its actual tags — lower
  // dispatch latency — while its tags (and therefore its long-run share) are
  // unchanged.  This is the SFS analogue of BVT's warp, which the paper names as
  // the model for extending GMS-based schedulers with latency requirements.
  // warp = 0 disables.
  void SetWarp(ThreadId tid, double warp);

  // Current system virtual time v (minimum start tag over runnable threads, or the
  // last value before the system went idle).
  double VirtualTime() const;

  // Migration timeline (sched::Sharded): tags live on the start-tag axis.
  double LocalVirtualTime() const override { return VirtualTime(); }

  // Fresh surplus of a runnable thread at the current virtual time.
  double Surplus(ThreadId tid) const;

  double StartTag(ThreadId tid) const { return FindEntity(tid).start_tag(); }
  double FinishTag(ThreadId tid) const { return FindEntity(tid).finish_tag(); }

  // Result of comparing the Section 3.2 heuristic against the exact algorithm for
  // the next dispatch decision on `cpu`, without mutating scheduler state.  Used
  // to reproduce Figure 3.
  struct HeuristicAudit {
    ThreadId heuristic_pick = kInvalidThread;
    ThreadId exact_pick = kInvalidThread;
    double heuristic_surplus = 0.0;
    double exact_surplus = 0.0;
  };
  HeuristicAudit AuditHeuristic(int k);

  // Counters for the overhead benchmarks.
  std::int64_t decisions() const { return decisions_; }
  std::int64_t full_refreshes() const { return full_refreshes_; }
  std::int64_t rebases() const { return rebases_; }
  // Entities moved by the incremental surplus refresh (those whose surplus fell
  // below the running maximum of the entities before them); everything else
  // kept its relative position.
  std::int64_t refresh_repositions() const { return refresh_repositions_; }

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
  // Inserts a runnable entity into the start-tag heap and the surplus array
  // with a fresh surplus value.
  void EnqueueRunnable(Entity& e);
  void DequeueRunnable(Entity& e);

  // Recomputes every runnable surplus against `v` in one branchless pass over
  // the surplus array, then restores its order: only the slots whose new key
  // breaks the ascending run are sorted and merged back in.
  void RefreshSurpluses(double v);

  // Applies Section 3.2's wrap-around handling when v crosses the rebase
  // threshold: shifts every tag (runnable and blocked) down by the minimum start
  // tag.  Relative order and surpluses are invariant under the shift.
  void MaybeRebase(double v);

  // Effective surplus used for dispatch: the paper's alpha_i = phi_i*(S_i - v),
  // minus the optional latency warp (warp_eff is warp while enabled, else 0).
  double FreshSurplus(const Entity& e, double v) const {
    return e.phi() * (e.start_tag() - v - e.warp_eff());
  }

  Entity* ExactPick(CpuId cpu);
  Entity* HeuristicPick(double v, int k, CpuId cpu);

  StartTagHeap start_heap_;
  SurplusArray surplus_order_;

  // Virtual time bookkeeping.  `idle_virtual_time_` implements "the virtual time
  // ... is set to the finish tag of the thread that ran last" when no thread is
  // runnable.  `need_refresh_` starts true so `last_refresh_v_` is only ever
  // compared after a refresh stored a real virtual time; MaybeRebase shifts it
  // together with the tags so the comparison stays in sync across rebases.
  double idle_virtual_time_ = 0.0;
  double last_refresh_v_ = 0.0;
  bool need_refresh_ = true;

  int decisions_since_refresh_ = 0;
  std::int64_t decisions_ = 0;
  std::int64_t full_refreshes_ = 0;
  std::int64_t rebases_ = 0;
  std::int64_t refresh_repositions_ = 0;
};

}  // namespace sfs::sched

#endif  // SFS_SCHED_SFS_H_
