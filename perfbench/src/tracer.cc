#include "tracer.h"

#include <algorithm>
#include <cmath>
#include <fstream>
#include <sstream>

namespace perfbench {

namespace {

// The calling thread's state and the tracer generation it was registered
// under; a Reset bumps the generation so stale pointers are re-registered.
thread_local void* tls_state = nullptr;
thread_local std::uint64_t tls_generation = 0;

}  // namespace

const char* KindName(Kind kind) {
  switch (kind) {
    case Kind::kSimRun:
      return "sim.run";
    case Kind::kSchedPick:
      return "sched.pick";
    case Kind::kSchedCharge:
      return "sched.charge";
    case Kind::kSchedWake:
      return "sched.wake";
    case Kind::kSchedBlock:
      return "sched.block";
    case Kind::kSchedAdmit:
      return "sched.admit";
    case Kind::kSchedRemove:
      return "sched.remove";
    case Kind::kSchedPreempt:
      return "sched.preempt_check";
    case Kind::kShardedPick:
      return "sched.sharded.pick";
    case Kind::kWorkloadNext:
      return "workload.next";
    case Kind::kWorkloadWake:
      return "workload.wake";
    case Kind::kBenchFingerprint:
      return "bench.fingerprint";
    case Kind::kCount:
      break;
  }
  return "?";
}

Tracer& Tracer::Get() {
  static Tracer tracer;
  return tracer;
}

void Tracer::Reset() {
  std::lock_guard<std::mutex> lock(mu_);
  threads_.clear();
  records_left_ = kRecordBudget;
  reset_ns_ = NowNs();
  reset_ticks_ = NowTicks();
  generation_.fetch_add(1, std::memory_order_release);
}

Tracer::ThreadState& Tracer::Local() {
  const std::uint64_t generation = generation_.load(std::memory_order_acquire);
  if (tls_state == nullptr || tls_generation != generation) {
    std::lock_guard<std::mutex> lock(mu_);
    threads_.push_back(std::make_unique<ThreadState>());
    threads_.back()->stack.reserve(16);
    threads_.back()->record_quota = std::min(kMaxRecords, records_left_);
    records_left_ -= threads_.back()->record_quota;
    tls_state = threads_.back().get();
    tls_generation = generation;
  }
  return *static_cast<ThreadState*>(tls_state);
}

void Tracer::Open(Kind kind) {
  ThreadState& t = Local();
  std::int32_t record = -1;
  if (t.records.size() < t.record_quota) {
    record = static_cast<std::int32_t>(t.records.size());
    SpanRecord r;
    r.kind = kind;
    r.parent = t.stack.empty() ? -1 : t.stack.back().record;
    t.records.push_back(r);
  }
  const std::int64_t now = NowTicks();
  if (record >= 0) {
    t.records[static_cast<std::size_t>(record)].start = now;
  }
  t.stack.push_back({now, 0, record, kind});
}

void Tracer::Close() {
  const std::int64_t now = NowTicks();
  ThreadState& t = *static_cast<ThreadState*>(tls_state);
  const Open_ open = t.stack.back();
  t.stack.pop_back();
  const std::int64_t duration = now - open.start;
  KindStats& stats = t.stats[static_cast<std::size_t>(open.kind)];
  ++stats.calls;
  stats.total_ns += duration;
  stats.self_ns += duration - open.child;
  if (t.stack.empty()) {
    t.root += duration;
  } else {
    t.stack.back().child += duration;
  }
  if (open.record >= 0) {
    t.records[static_cast<std::size_t>(open.record)].end = now;
  }
}

double Tracer::NsPerTick() const {
  std::lock_guard<std::mutex> lock(mu_);
  const std::int64_t ticks = NowTicks() - reset_ticks_;
  return ticks > 0 ? static_cast<double>(NowNs() - reset_ns_) / static_cast<double>(ticks) : 1.0;
}

std::array<KindStats, kKindCount> Tracer::Totals() const {
  const double scale = NsPerTick();
  std::lock_guard<std::mutex> lock(mu_);
  std::array<KindStats, kKindCount> out{};
  for (const auto& t : threads_) {
    for (std::size_t k = 0; k < kKindCount; ++k) {
      out[k].calls += t->stats[k].calls;
      out[k].total_ns += t->stats[k].total_ns;
      out[k].self_ns += t->stats[k].self_ns;
    }
  }
  for (KindStats& k : out) {
    k.total_ns = std::llround(static_cast<double>(k.total_ns) * scale);
    k.self_ns = std::llround(static_cast<double>(k.self_ns) * scale);
  }
  return out;
}

std::int64_t Tracer::RootNs() const {
  const double scale = NsPerTick();
  std::lock_guard<std::mutex> lock(mu_);
  std::int64_t sum = 0;
  for (const auto& t : threads_) {
    sum += t->root;
  }
  return std::llround(static_cast<double>(sum) * scale);
}

std::string Tracer::CheckSelfTimes() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::int64_t self_sum = 0;
  std::int64_t root_sum = 0;
  for (std::size_t ti = 0; ti < threads_.size(); ++ti) {
    const ThreadState& t = *threads_[ti];
    if (!t.stack.empty()) {
      return "thread " + std::to_string(ti) + " has open spans";
    }
    for (const KindStats& s : t.stats) {
      self_sum += s.self_ns;
    }
    root_sum += t.root;

    // Per record: self = duration - sum of direct children's durations.
    const std::size_t n = t.records.size();
    std::vector<std::int64_t> child(n, 0);
    for (std::size_t i = 0; i < n; ++i) {
      const SpanRecord& r = t.records[i];
      if (r.end < r.start) {
        return "record " + std::to_string(i) + " ends before it starts";
      }
      if (r.parent >= 0) {
        child[static_cast<std::size_t>(r.parent)] += r.end - r.start;
      }
    }
    // Accumulate subtree self time bottom-up (children follow parents).
    std::vector<std::int64_t> subtree(n, 0);
    for (std::size_t i = n; i-- > 0;) {
      const SpanRecord& r = t.records[i];
      subtree[i] += (r.end - r.start) - child[i];
      if (r.parent >= 0) {
        subtree[static_cast<std::size_t>(r.parent)] += subtree[i];
      }
    }
    // A root whose subtree reaches the thread's record quota may be missing
    // children; every earlier root is complete.
    std::int64_t last_root = -1;
    for (std::size_t i = 0; i < n; ++i) {
      if (t.records[i].parent < 0) {
        last_root = static_cast<std::int64_t>(i);
      }
    }
    for (std::size_t i = 0; i < n; ++i) {
      const SpanRecord& r = t.records[i];
      if (r.parent >= 0 || (n == t.record_quota && static_cast<std::int64_t>(i) == last_root)) {
        continue;
      }
      if (subtree[i] != r.end - r.start) {
        std::ostringstream msg;
        msg << "thread " << ti << " root " << i << " (" << KindName(r.kind)
            << "): subtree self " << subtree[i] << " != duration " << r.end - r.start
            << " ticks";
        return msg.str();
      }
    }
  }
  if (self_sum != root_sum) {
    return "aggregate self " + std::to_string(self_sum) + " != root total " +
           std::to_string(root_sum) + " ticks";
  }
  return {};
}

bool Tracer::WriteRecords(const std::string& path) const {
  const double ns_per_tick = NsPerTick();
  std::lock_guard<std::mutex> lock(mu_);
  std::ofstream out(path);
  if (!out) {
    return false;
  }
  out << "# ns_per_tick " << ns_per_tick << "\n";
  out << "thread\tindex\tparent\tkind\tstart\tend\n";
  for (std::size_t ti = 0; ti < threads_.size(); ++ti) {
    const auto& records = threads_[ti]->records;
    for (std::size_t i = 0; i < records.size(); ++i) {
      const SpanRecord& r = records[i];
      out << ti << '\t' << i << '\t' << r.parent << '\t' << KindName(r.kind) << '\t'
          << r.start << '\t' << r.end << '\n';
    }
  }
  return static_cast<bool>(out);
}

}  // namespace perfbench
