// The four workloads. Each runs its jobs in passes for the run's seconds,
// checks every output, and fills the report: end-to-end metrics from an
// untraced run, per-layer metrics from a traced one.
#pragma once

#include <algorithm>
#include <atomic>
#include <exception>
#include <mutex>
#include <thread>
#include <vector>

#include "report.h"

namespace perfbench {

/// Set-ups per run: at least kMinSetups, then more until they have taken
/// kSetupSeconds together; setup_s is their median. A sub-millisecond set-up
/// thus gets thousands of samples.
constexpr int kMinSetups = 5;
constexpr double kSetupSeconds = 2.0;
/// Timed job samples a run collects at least, so p90 has ten beyond it.
constexpr std::size_t kMinSamples = 100;

/// Pass bookkeeping shared by the workloads. Pass 0 is untimed: it warms
/// the caches up, is the reference every later pass must reproduce exactly,
/// and, in a traced run, records the telemetry the replay leg reads. After
/// it, an untraced run times every pass; a traced run alternates traced and
/// untraced passes, so trace_overhead compares warm passes of one process.
class Passes {
 public:
  explicit Passes(const RunOptions& opt) : opt_(opt) {}
  bool traced(int p) const { return opt_.trace && p % 2 == 1; }
  bool timed(int p) const { return p > 0 && !traced(p); }
  /// Records the wall time pass `p` spent in job calls.
  void done(int p, double wall_s) {
    if (p == 0) return;
    if (traced(p)) {
      traced_wall_ += wall_s;
      ++traced_;
    } else {
      timed_wall_ += wall_s;
      ++timed_;
    }
  }
  int tracedPasses() const { return traced_; }
  int timedPasses() const { return timed_; }
  double timedWall() const { return timed_wall_; }
  double traceOverhead() const {
    return (traced_wall_ / traced_) / (timed_wall_ / timed_);
  }
  /// Runs `pass(p)` for p = 0, 1, ... until the run's seconds are spent and,
  /// untraced, at least kMinSamples timed samples exist (`samples()`), or,
  /// traced, both kinds of pass ran; past 3 × seconds, as soon as each kind
  /// of pass the run reports on ran once.
  template <typename Pass, typename Samples>
  void run(Pass&& pass, Samples&& samples) {
    const std::int64_t t0 = nowNs();
    const double limit = std::min(3 * opt_.seconds, 150.0);
    for (int p = 0;; ++p) {
      pass(p);
      const bool measured = opt_.trace ? traced_ >= 1 && timed_ >= 1 : timed_ >= 1;
      const bool enough = measured && (opt_.trace || samples() >= kMinSamples);
      const double elapsed = secondsSince(t0);
      if ((elapsed >= opt_.seconds && enough) || (elapsed >= limit && measured)) break;
    }
  }

 private:
  const RunOptions& opt_;
  int traced_ = 0, timed_ = 0;
  double traced_wall_ = 0, timed_wall_ = 0;
};

/// Runs fn(j) for every j in [0, n) on `workers` threads, each taking the
/// next j when its previous call returns; with one worker, in order on the
/// calling thread. The first exception a call throws is rethrown here.
template <typename F>
void forEachJob(std::size_t n, int workers, F&& fn) {
  if (workers <= 1) {
    for (std::size_t j = 0; j < n; ++j) fn(j);
    return;
  }
  std::atomic<std::size_t> next{0};
  std::mutex error_mu;
  std::exception_ptr error;  // guarded by error_mu
  std::vector<std::thread> threads;
  for (int w = 0; w < workers; ++w)
    threads.emplace_back([&] {
      try {
        for (std::size_t j; (j = next++) < n;) fn(j);
      } catch (...) {
        std::lock_guard<std::mutex> lock(error_mu);
        if (!error) error = std::current_exception();
      }
    });
  for (auto& t : threads) t.join();
  if (error) std::rethrow_exception(error);
}

/// edges_walk (with_prior false) and prior_walk (with_prior true).
void runWalk(const RunOptions& opt, bool with_prior, Report& r);
void runExactBall(const RunOptions& opt, Report& r);
void runServeTune(const RunOptions& opt, Report& r);

/// Median wall time of the set-up calls, in seconds.
template <typename F>
double timeSetups(F&& setup) {
  std::vector<double> t;
  const std::int64_t start = nowNs();
  while (static_cast<int>(t.size()) < kMinSetups || secondsSince(start) < kSetupSeconds) {
    const std::int64_t t0 = nowNs();
    setup();
    t.push_back(secondsSince(t0));
  }
  std::sort(t.begin(), t.end());
  return t[t.size() / 2];
}

}  // namespace perfbench
