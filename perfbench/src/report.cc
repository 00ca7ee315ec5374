#include "report.h"

#include <algorithm>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <iostream>

namespace perfbench {

namespace {

std::string Quote(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
    }
    out += c;
  }
  return out + "\"";
}

}  // namespace

std::string Num(double v) {
  if (!std::isfinite(v)) {
    return "null";
  }
  char buf[64];
  const auto res = std::to_chars(buf, buf + sizeof(buf), v);
  return std::string(buf, res.ptr);
}

std::string Hex(std::uint64_t v) {
  char buf[19];
  std::snprintf(buf, sizeof(buf), "0x%016llx", static_cast<unsigned long long>(v));
  return buf;
}

void Result::Detail(const std::string& key, double value) { Detail(key, Num(value)); }

void Result::Print() const {
  std::string detail = "{\"detail\": {";
  for (std::size_t i = 0; i < details.size(); ++i) {
    detail += (i ? ", " : "") + Quote(details[i].first) + ": " + Quote(details[i].second);
  }
  detail += "}, \"errors\": [";
  for (std::size_t i = 0; i < errors.size(); ++i) {
    detail += (i ? ", " : "") + Quote(errors[i]);
  }
  detail += "]}";
  std::cout << detail << '\n';

  std::string line = std::string("{\"correct\": ") + (correct ? "true" : "false") +
                     ", \"attempted\": " + std::to_string(attempted) +
                     ", \"failed\": " + std::to_string(failed) + ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    const auto& [name, vu] = metrics[i];
    line += (i ? ", " : "") + Quote(name) + ": {\"value\": " + Num(vu.first) +
            ", \"unit\": " + Quote(vu.second) + "}";
  }
  line += "}}";
  std::cout << line << std::endl;
}

double Percentile(std::vector<double>& samples, double p) {
  if (samples.empty()) {
    return 0.0;
  }
  std::sort(samples.begin(), samples.end());
  const double n = static_cast<double>(samples.size());
  const std::size_t rank = static_cast<std::size_t>(std::max(1.0, std::ceil(p / 100.0 * n)));
  return samples[std::min(rank, samples.size()) - 1];
}

double Median(std::vector<double> samples) { return Percentile(samples, 50.0); }

double HighestResolvedPercentile(std::size_t n) {
  if (n < 10) {
    return 0.0;
  }
  return 100.0 * (1.0 - 10.0 / static_cast<double>(n));
}

void DescribeSamples(Result& r, const std::string& prefix, std::vector<double>& samples) {
  const double top = HighestResolvedPercentile(samples.size());
  r.Detail(prefix + ".count", static_cast<double>(samples.size()));
  r.Detail(prefix + ".p50", Percentile(samples, 50.0));
  r.Detail(prefix + ".p90", Percentile(samples, 90.0));
  r.Detail(prefix + ".p99", Percentile(samples, 99.0));
  r.Detail(prefix + ".top_percentile", top);
  r.Detail(prefix + ".top_value", Percentile(samples, top));
}

double PeakRssMb() {
  // VmHWM, not getrusage's ru_maxrss: Linux carries ru_maxrss across execve,
  // so it would report the launching process's peak when that was larger.
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;  // kB -> MiB
    }
  }
  return 0.0;
}

}  // namespace perfbench
