#include "layers.h"

#include <algorithm>
#include <cstring>

#include "bench_stats.h"

namespace perfbench {

double meanOrZero(const std::vector<double>& xs) {
  if (xs.empty()) return 0;
  double s = 0;
  for (double x : xs) s += x;
  return s / static_cast<double>(xs.size());
}

void addMachineMetrics(Report& r, const std::vector<Span>& spans, int passes) {
  const double per_pass = 1.0 / std::max(passes, 1);
  double eval_calls = 0, eval_ns = 0, lb_calls = 0, lb_ns = 0;
  std::vector<double> by_machine[4];
  for (const auto& s : spans) {
    if (std::strcmp(s.name, "machines.evaluate") == 0) {
      ++eval_calls;
      eval_ns += static_cast<double>(s.durationNs());
      if (s.machine >= 0) by_machine[s.machine].push_back(s.durationNs() * 1e-3);
    } else if (std::strcmp(s.name, "machines.lower_bound") == 0) {
      ++lb_calls;
      lb_ns += static_cast<double>(s.durationNs());
    }
  }
  r.add("machines.evaluate_calls", eval_calls * per_pass, "count");
  r.add("machines.evaluate_ms", eval_ns * 1e-6 * per_pass, "ms");
  for (int m = 0; m < 4; ++m)
    if (!by_machine[m].empty())
      r.add(std::string("machines.") + kMachineNames[m] + ".evaluate_us_p50",
            percentile(by_machine[m], 500), "us");
  r.add("machines.lower_bound_calls", lb_calls * per_pass, "count");
  if (lb_calls > 0) r.add("machines.lower_bound_ms", lb_ns * 1e-6 * per_pass, "ms");
}

void addReplayMetrics(Report& r, const ReplayStats& s) {
  r.add("transform.enumerate_us", meanOrZero(s.enumerate_us), "us");
  r.add("transform.actions_per_state", meanOrZero(s.actions), "count");
  r.add("transform.update_us", meanOrZero(s.update_us), "us");
  r.add("transform.apply_us", meanOrZero(s.apply_us), "us");
  r.add("ir.nodes_p50", s.nodes.empty() ? 0 : percentile(s.nodes, 500), "count");
  r.add("ir.nodes_max",
        s.nodes.empty() ? 0 : *std::max_element(s.nodes.begin(), s.nodes.end()),
        "count");
  r.add("ir.probe_us", meanOrZero(s.probe_us), "us");
  r.add("ir.rebase_us", meanOrZero(s.rebase_us), "us");
  r.add("ir.hash_us", meanOrZero(s.hash_us), "us");
  r.add("replay.states", static_cast<double>(s.enumerate_us.size()), "count");
  r.add("replay.moves", static_cast<double>(s.apply_us.size()), "count");
  if (!s.score_us.empty()) r.add("prior.score_us", meanOrZero(s.score_us), "us");
}

std::vector<Span> addSpanMetrics(Report& r, const RunOptions& opt,
                                 const Tracer& tracer, int traced_passes,
                                 double trace_overhead) {
  tracer.writeJsonl(opt.scratch + "/spans-" + opt.workload + ".jsonl");
  auto spans = tracer.spans();
  addSelfTime(r, "search.self_ms", spans, "job");
  addMachineMetrics(r, spans, traced_passes);
  r.add("trace_overhead", trace_overhead, "x");
  return spans;
}

void addSelfTime(Report& r, const std::string& metric,
                 const std::vector<Span>& spans, const char* span_name) {
  r.add(metric, meanOrZero(selfTimesNs(spans, span_name)) * 1e-6, "ms");
}

}  // namespace perfbench
