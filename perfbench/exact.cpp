// exact_ball: runExact to the default depth on build_small shapes, one call
// per (kernel, machine) job with kExactThreads workers. The verdict
// workload: every state costs a child hash, a dedup probe, one evaluate()
// and one lowerBound(); no annealing, no action index, no prior.
#include <filesystem>
#include <map>

#include "bench_stats.h"
#include "jobs.h"
#include "kernels/kernels.h"
#include "layers.h"
#include "search/exact.h"
#include "support/io.h"
#include "verify/verifier.h"
#include "workloads.h"

namespace perfbench {

using namespace perfdojo;

namespace {

struct ExactSetup {
  std::vector<ExactJob> jobs;
  std::vector<ir::Program> kernels;                // build_small, per job
  std::vector<const machines::Machine*> machines;  // per job
  /// Checked-in certificate text per job; "" for uncertified pairs.
  std::vector<std::string> certified;
};

ExactSetup setupExact(std::uint64_t seed, const std::string& root) {
  ExactSetup s;
  s.jobs = exactJobs(seed);
  for (const auto& j : s.jobs) {
    s.kernels.push_back(kernels::findKernel(j.kernel)->build_small());
    s.machines.push_back(machines::findMachine(j.machine));
    const std::string path =
        root + "/tests/data/exact/" + j.kernel + "_" + j.machine + "_d3.json";
    std::string text;
    if (std::filesystem::exists(path)) {
      text = readTextFile(path);
      while (!text.empty() && (text.back() == '\n' || text.back() == '\r'))
        text.pop_back();
    }
    s.certified.push_back(text);
  }
  return s;
}

search::ExactConfig exactConfig(const ExactJob& j) {
  search::ExactConfig cfg;
  cfg.threads = kExactThreads;
  cfg.kernel_label = j.kernel;
  return cfg;
}

/// The verdict's checks; "" when all hold.
std::string checkExact(const ExactSetup& s, std::size_t j,
                       const search::ExactResult& res) {
  const std::string job = jobLabel(s.jobs[j].kernel, s.jobs[j].machine) + ": ";
  transform::History::ReplayResult rr;
  const auto witness = transform::History::replay(s.kernels[j], res.cert.witness, rr);
  if (!witness) return job + "witness does not replay: " + rr.message;
  if (s.machines[j]->evaluate(*witness) != res.cert.optimal_cost)
    return job + "witness does not price at optimal_cost";
  const auto v = verify::verifyEquivalent(s.kernels[j], *witness);
  if (!v.equivalent) return job + "witness not equivalent to the kernel: " + v.detail;
  if (!s.certified[j].empty()) {
    search::ExactCertificate want;
    std::string err;
    if (!search::parseCertificate(s.certified[j], want, &err))
      return job + "unreadable checked-in certificate: " + err;
    auto got = res.cert;
    got.sa_gate = want.sa_gate;
    got.heuristic_gate = want.heuristic_gate;
    if (got.toJson() != s.certified[j])
      return job + "certificate differs from tests/data/exact";
  }
  return "";
}

}  // namespace

void runExactBall(const RunOptions& opt, Report& r) {
  ExactSetup s;
  r.add("setup_s", timeSetups([&] { s = setupExact(opt.seed, opt.root); }), "s");
  const std::size_t n = s.jobs.size();
  std::int64_t certified = 0;
  for (const auto& c : s.certified) certified += !c.empty();
  if (certified < 9)
    r.fail("expected the 9 certificates of tests/data/exact, found " +
           std::to_string(certified));

  std::vector<search::ExactResult> ref;  // pass 0, untraced
  std::vector<double> tune_s;
  Passes passes(opt);
  Tracer tracer;

  const auto pass = [&](int p) {
    const bool traced = passes.traced(p);
    double wall = 0;
    for (std::size_t j = 0; j < n; ++j) {
      const auto cfg = exactConfig(s.jobs[j]);
      search::ExactResult res;
      std::int64_t t0 = 0;
      if (traced) {
        ScopedSpan span(tracer, "job", -1, static_cast<std::int64_t>(j));
        TracingMachine tm(*s.machines[j], tracer, span.id(), static_cast<std::int64_t>(j));
        t0 = nowNs();
        res = search::runExact(s.kernels[j], tm, cfg);
      } else {
        t0 = nowNs();
        res = search::runExact(s.kernels[j], *s.machines[j], cfg);
      }
      const double secs = secondsSince(t0);
      wall += secs;
      if (passes.timed(p)) tune_s.push_back(secs);

      std::string why;
      if (p == 0) {
        why = checkExact(s, j, res);
        ref.push_back(res);
      } else if (res.cert.toJson() != ref[j].cert.toJson() ||
                 res.machine_evals != ref[j].machine_evals) {
        why = jobLabel(s.jobs[j].kernel, s.jobs[j].machine) + ": pass " +
              std::to_string(p) + (traced ? " (traced)" : "") +
              " differs from pass 0";
      }
      r.job(why.empty(), why);
    }
    passes.done(p, wall);
  };
  passes.run(pass, [&] { return tune_s.size(); });

  std::vector<double> base, optimal;
  std::int64_t states = 0, expanded = 0, pruned = 0, machine_evals = 0;
  double complete = 0, stalls = 0;
  for (const auto& res : ref) {
    base.push_back(res.cert.base_cost);
    optimal.push_back(res.cert.optimal_cost);
    states += res.cert.states;
    expanded += res.cert.expanded;
    pruned += res.cert.pruned;
    machine_evals += res.machine_evals;
    complete += res.cert.complete;
    stalls += res.reason == search::TerminationReason::Stall;
  }

  if (!opt.trace) {
    const double wall = passes.timedWall();
    r.addTiming("tune_s", tune_s, 1.0, "s");
    r.add("jobs_per_s", static_cast<double>(tune_s.size()) / wall, "1/s");
    r.add("candidates_per_s",
          static_cast<double>(states) * passes.timedPasses() / wall, "1/s");
    r.add("speedup_geomean", speedupGeomean(base, optimal), "x");
    r.add("certified_frac", complete / static_cast<double>(n), "ratio");
    r.add("peak_rss_mb", peakRssMb(), "MiB");
    return;
  }

  r.add("search.evals_requested", static_cast<double>(machine_evals), "count");
  r.add("search.machine_evals", static_cast<double>(machine_evals), "count");
  r.add("search.unique_programs", static_cast<double>(states), "count");
  r.add("search.stall_frac", stalls / static_cast<double>(n), "ratio");
  r.add("exact.states", static_cast<double>(states), "count");
  r.add("exact.expanded", static_cast<double>(expanded), "count");
  r.add("exact.pruned", static_cast<double>(pruned), "count");
  r.add("exact.prune_ratio",
        static_cast<double>(pruned) / static_cast<double>(states + pruned), "ratio");

  const auto spans =
      addSpanMetrics(r, opt, tracer, passes.tracedPasses(), passes.traceOverhead());
  addSelfTime(r, "exact.self_ms", spans, "job");

  ReplayStats rs;
  for (std::size_t j = 0; j < n; ++j) {
    const std::int64_t failures = rs.failures;
    replayPath(s.kernels[j], s.machines[j]->caps(), ref[j].cert.witness, 0, nullptr, rs);
    if (rs.failures != failures)
      r.fail(jobLabel(s.jobs[j].kernel, s.jobs[j].machine) + ": replay: " + rs.last_error);
  }
  addReplayMetrics(r, rs);
}

}  // namespace perfbench
