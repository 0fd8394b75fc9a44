// What one benchmark run measures and how it prints: named metrics with
// units, job counts and failures.
#pragma once

#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

struct RunOptions {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string root = ".";      // checkout root: tests/data/exact lives here
  std::string scratch = ".";   // serve_tune's cache directories go here
};

struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
};

class Report {
 public:
  void add(const std::string& name, double value, const std::string& unit);
  /// `<name>_p50`, `<name>_p90` (or the highest percentile with
  /// kTailSamples beyond it, when p90 has too few) and `<name>_n`, from
  /// samples in seconds scaled by `scale` into `unit`. No-op when empty.
  void addTiming(const std::string& name, const std::vector<double>& seconds,
                 double scale, const std::string& unit);
  /// One job execution; `ok` false counts it as failed.
  void job(bool ok, const std::string& why);
  /// A failure found after the job was counted (replay, determinism).
  void fail(const std::string& why);

  const Metric* find(const std::string& name) const;
  const std::vector<Metric>& metrics() const { return metrics_; }
  std::int64_t attempted() const { return attempted_; }
  std::int64_t failed() const { return failed_; }
  const std::vector<std::string>& errors() const { return errors_; }

 private:
  std::vector<Metric> metrics_;
  std::int64_t attempted_ = 0;
  std::int64_t failed_ = 0;
  std::vector<std::string> errors_;  // the first few failure messages
};

/// Peak resident set of this process, MiB.
double peakRssMb();

inline std::int64_t nowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

inline double secondsSince(std::int64_t start_ns) {
  return static_cast<double>(nowNs() - start_ns) * 1e-9;
}

}  // namespace perfbench
