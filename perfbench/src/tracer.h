// Bench-side span tracer.
//
// Spans are opened and closed around calls into the program's public and
// virtual entry points (see timed.h); nothing inside src/ is instrumented.
// Each thread keeps its own stack of open spans, so the concurrent runtime
// workload traces without locks on the hot path.  A closed span adds its
// duration to its kind's total and to its parent's child time; its self time
// is its duration minus the time its direct children cover.  The first spans
// of each thread are also kept as records (name, start, end, parent), up to
// kMaxRecords per thread and kRecordBudget in all, and can be written out at
// the end of the run.

#ifndef PERFBENCH_TRACER_H_
#define PERFBENCH_TRACER_H_

#include <array>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#if defined(__x86_64__)
#include <x86intrin.h>
#endif

namespace perfbench {

enum class Kind : std::uint8_t {
  kSimRun,           // Engine::RunUntil slice
  kSchedPick,        // Sfs::PickNextEntity
  kSchedCharge,      // Sfs::OnCharge
  kSchedWake,        // Sfs::OnWoken
  kSchedBlock,       // Sfs::OnBlocked
  kSchedAdmit,       // Sfs::OnAdmit
  kSchedRemove,      // Sfs::OnRemove
  kSchedPreempt,     // Sfs::SuggestPreemption
  kShardedPick,      // ShardedScheduler::PickNextEntity (steal scan + inner pick)
  kWorkloadNext,     // Behavior::Next
  kWorkloadWake,     // Behavior::OnWake
  kBenchFingerprint, // the benchmark's own run-interval fingerprint hook
  kCount,
};

inline constexpr std::size_t kKindCount = static_cast<std::size_t>(Kind::kCount);

const char* KindName(Kind kind);

inline std::int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

// Span timestamps: the TSC where the CPU has one (about half the cost of a
// steady_clock read in a VM), else steady_clock nanoseconds.  Tracer converts
// ticks to nanoseconds when it reports.
inline std::int64_t NowTicks() {
#if defined(__x86_64__)
  return static_cast<std::int64_t>(__rdtsc());
#else
  return NowNs();
#endif
}

// Durations are in ticks (see NowTicks) until Totals converts them.
struct KindStats {
  std::int64_t calls = 0;
  std::int64_t total_ns = 0;  // sum of span durations
  std::int64_t self_ns = 0;   // sum of durations minus child coverage
};

struct SpanRecord {
  std::int64_t start = 0;  // ticks
  std::int64_t end = 0;
  std::int32_t parent = -1;  // index into the same thread's records, -1 = root
  Kind kind = Kind::kSimRun;
};

class Tracer {
 public:
  static constexpr std::size_t kMaxRecords = 1 << 16;
  static constexpr std::size_t kRecordBudget = 1 << 18;

  static Tracer& Get();

  // Discards all statistics and records.  Call only while no thread is
  // inside a span.
  void Reset();

  void Open(Kind kind);
  void Close();

  // Statistics merged over every thread that traced since the last Reset,
  // in nanoseconds.
  std::array<KindStats, kKindCount> Totals() const;

  // Sum of root span durations (spans opened with no enclosing span), ns.
  std::int64_t RootNs() const;

  // Nanoseconds per tick, measured over the time since the last Reset.
  double NsPerTick() const;

  // Checks the self-time identity on the kept records: for every complete
  // root span, the self times of the spans in its subtree sum to its
  // duration, and the aggregate self times sum to the root total.  Returns
  // an empty string on success, otherwise a description of the mismatch.
  std::string CheckSelfTimes() const;

  // Writes the kept records as tab-separated lines
  // (thread, index, parent, kind, start, end) in ticks, after a comment line
  // giving ns_per_tick.
  bool WriteRecords(const std::string& path) const;

 private:
  struct Open_ {
    std::int64_t start;
    std::int64_t child;
    std::int32_t record;
    Kind kind;
  };
  struct ThreadState {
    std::vector<Open_> stack;
    std::array<KindStats, kKindCount> stats{};  // in ticks
    std::int64_t root = 0;
    std::size_t record_quota = 0;
    std::vector<SpanRecord> records;
  };

  ThreadState& Local();

  mutable std::mutex mu_;
  std::vector<std::unique_ptr<ThreadState>> threads_;  // guarded by mu_
  std::size_t records_left_ = kRecordBudget;          // guarded by mu_
  std::atomic<std::uint64_t> generation_{1};
  std::int64_t reset_ns_ = NowNs();         // guarded by mu_
  std::int64_t reset_ticks_ = NowTicks();   // guarded by mu_
};

// RAII span.
class Span {
 public:
  explicit Span(Kind kind) { Tracer::Get().Open(kind); }
  ~Span() { Tracer::Get().Close(); }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;
};

}  // namespace perfbench

#endif  // PERFBENCH_TRACER_H_
