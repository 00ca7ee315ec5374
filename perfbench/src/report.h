// Result assembly shared by the workloads: the metric list, exact order
// statistics over sample vectors, and the JSON lines the benchmark prints.

#ifndef PERFBENCH_REPORT_H_
#define PERFBENCH_REPORT_H_

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

namespace perfbench {

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  bool small = false;       // smallest size, for the self-test
  std::string spans_path;   // where a traced run writes its span records
};

// The default seed; sim_* fingerprints at this seed are pinned.
inline constexpr std::uint64_t kDefaultSeed = 1;

struct Result {
  bool correct = true;
  std::int64_t attempted = 0;
  std::int64_t failed = 0;
  std::vector<std::pair<std::string, std::pair<double, std::string>>> metrics;
  // Key/value details printed on the line before the result.
  std::vector<std::pair<std::string, std::string>> details;
  std::vector<std::string> errors;

  void Metric(const std::string& name, double value, const std::string& unit) {
    metrics.push_back({name, {value, unit}});
  }
  void Detail(const std::string& key, const std::string& value) { details.push_back({key, value}); }
  void Detail(const std::string& key, double value);
  void Fail(const std::string& why) {
    correct = false;
    errors.push_back(why);
  }
  void Print() const;
};

// Shortest text that reads back as `v`.
std::string Num(double v);
std::string Hex(std::uint64_t v);

// Nearest-rank percentile of `samples` (sorted in place); 0 when empty.
double Percentile(std::vector<double>& samples, double p);
double Median(std::vector<double> samples);

// The highest percentile with at least ten samples beyond it, for n samples
// (0 when n < 10).
double HighestResolvedPercentile(std::size_t n);

// Adds `<prefix>` details for a latency sample vector: its count, p50, p90, p99
// and the highest resolved percentile with its value.
void DescribeSamples(Result& r, const std::string& prefix, std::vector<double>& samples);

// Peak resident set size of this process, MiB.
double PeakRssMb();

}  // namespace perfbench

#endif  // PERFBENCH_REPORT_H_
