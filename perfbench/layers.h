// Per-layer metrics shared by the workloads' traced runs.
#pragma once

#include <vector>

#include "replay.h"
#include "report.h"
#include "trace.h"

namespace perfbench {

/// What every traced run reports from its spans: search.self_ms (job span
/// minus its machine spans), the machines.* metrics and trace_overhead.
/// Writes the spans to <scratch>/spans-<workload>.jsonl and returns them.
std::vector<Span> addSpanMetrics(Report& r, const RunOptions& opt,
                                 const Tracer& tracer, int traced_passes,
                                 double trace_overhead);

/// machines.*: call counts and busy time per pass, per-model median
/// evaluate() latency, from the TracingMachine spans of `passes` passes.
void addMachineMetrics(Report& r, const std::vector<Span>& spans, int passes);

/// transform.* and ir.* from the replay leg (and prior.score_us when the
/// replay scored states).
void addReplayMetrics(Report& r, const ReplayStats& s);

/// Mean self time, in ms, of the spans named `span_name`.
void addSelfTime(Report& r, const std::string& metric,
                 const std::vector<Span>& spans, const char* span_name);

double meanOrZero(const std::vector<double>& xs);

}  // namespace perfbench
