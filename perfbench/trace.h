// Spans of the traced run, recorded only from the benchmark's own files: around
// each job call, and around every machine-model call through TracingMachine.
// Spans are kept in memory and summarized when the run ends.
#pragma once

#include <atomic>
#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

#include "machines/machine.h"
#include "report.h"

namespace perfbench {

struct Span {
  const char* name = "";    // static string: "job", "machines.evaluate", ...
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
  std::int64_t id = 0;
  std::int64_t parent = -1;  // id of the causing span; -1 at top level
  std::int64_t job = -1;     // job the span belongs to
  int machine = -1;          // machineIndex() of machine spans
  std::int64_t durationNs() const { return end_ns - start_ns; }
};

/// Thread-safe in-memory span store.
class Tracer {
 public:
  std::int64_t newId();
  void record(const Span& s);
  std::vector<Span> spans() const;
  /// Writes every span as one JSON object per line.
  void writeJsonl(const std::string& path) const;

 private:
  mutable std::mutex mu_;
  std::vector<Span> spans_;
  std::atomic<std::int64_t> next_id_{0};
};

/// Index of a machine name in {snitch, xeon, gh200, mi300a}; -1 otherwise.
int machineIndex(const std::string& name);
extern const char* const kMachineNames[4];

/// Delegating Machine that records a span around every evaluate() and
/// lowerBound() call. It forwards name() and caps(), so memo keys, request
/// keys and search decisions are those of the machine it wraps.
class TracingMachine final : public perfdojo::machines::Machine {
 public:
  TracingMachine(const perfdojo::machines::Machine& base, Tracer& tracer,
                 std::int64_t parent, std::int64_t job);

  const std::string& name() const override { return base_.name(); }
  const perfdojo::transform::MachineCaps& caps() const override {
    return base_.caps();
  }
  double evaluate(const perfdojo::ir::Program& p) const override;
  perfdojo::machines::CostBreakdown evaluateDetailed(
      const perfdojo::ir::Program& p) const override {
    return base_.evaluateDetailed(p);
  }
  double peakTime(const perfdojo::ir::Program& p) const override {
    return base_.peakTime(p);
  }
  double lowerBound(const perfdojo::ir::Program& p) const override;

 private:
  Span begin(const char* name) const;

  const perfdojo::machines::Machine& base_;
  Tracer& tracer_;
  std::int64_t parent_;
  std::int64_t job_;
  int machine_;
};

/// Records a span from construction to destruction.
class ScopedSpan {
 public:
  ScopedSpan(Tracer& t, const char* name, std::int64_t parent, std::int64_t job);
  ~ScopedSpan();
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;
  std::int64_t id() const { return span_.id; }

 private:
  Tracer& tracer_;
  Span span_;
};

/// Self time of every span named `name`, in ns: its duration minus the part
/// of its interval that its child spans cover (children may overlap when
/// they run on several threads).
std::vector<double> selfTimesNs(const std::vector<Span>& spans,
                                const char* name);

}  // namespace perfbench
