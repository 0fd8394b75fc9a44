// edges_walk and prior_walk: simulated annealing over the edges structure on
// paper-size Table-3 kernels, one runSearch call per job at threads=1; on
// prior_walk a PriorModel trained during set-up filters each state's
// neighbors to the top kPriorTopk.
#include <map>

#include "bench_stats.h"
#include "jobs.h"
#include "kernels/kernels.h"
#include "layers.h"
#include "search/prior_train.h"
#include "search/search.h"
#include "support/telemetry.h"
#include "workloads.h"

namespace perfbench {

using namespace perfdojo;

namespace {

struct WalkSetup {
  std::vector<WalkJob> jobs;
  std::vector<ir::Program> kernels;                  // per job
  std::vector<const machines::Machine*> machines;    // per job
  std::vector<double> baseline;                      // per job
  std::map<std::string, search::PriorModel> priors;  // per jobLabel stratum
};

search::SearchConfig walkConfig(std::uint64_t seed, int budget) {
  search::SearchConfig cfg;
  cfg.method = search::SearchMethod::SimulatedAnnealing;
  cfg.structure = search::SpaceStructure::Edges;
  cfg.budget = budget;
  cfg.seed = seed;
  cfg.threads = 1;
  return cfg;
}

/// The bench_fig12 recipe: program-carrying traces of walks on the training
/// seeds, fitted in process with the default TrainConfig.
search::PriorModel trainStratumPrior(const ir::Program& kernel,
                                     const machines::Machine& m, int budget) {
  search::TraceDataset ds;
  for (std::uint64_t seed : priorTrainSeeds()) {
    Telemetry sink;
    auto cfg = walkConfig(seed, budget);
    cfg.trace_programs = true;
    cfg.telemetry = &sink;
    search::runSearch(kernel, m, cfg);
    search::appendTraceText("train-seed-" + std::to_string(seed),
                            sink.buffered(), ds);
  }
  return search::trainPrior(ds, search::TrainConfig{}).model;
}

WalkSetup setupWalk(std::uint64_t seed, bool with_prior, const WalkSpec& spec) {
  WalkSetup s;
  s.jobs = walkJobs(seed, spec.seeds_per_stratum);
  for (const auto& j : s.jobs) {
    s.kernels.push_back(kernels::findKernel(j.kernel)->build());
    s.machines.push_back(machines::findMachine(j.machine));
    s.baseline.push_back(s.machines.back()->evaluate(s.kernels.back()));
  }
  if (with_prior)
    for (const auto& st : walkStrata())
      s.priors[jobLabel(st.kernel, st.machine)] = trainStratumPrior(
          kernels::findKernel(st.kernel)->build(), *machines::findMachine(st.machine),
          spec.budget);
  return s;
}

/// What must repeat exactly for a job: its decisions and counters.
struct WalkOutcome {
  double best = 0;
  int evals = 0;
  int evals_to_best = 0;
  search::TerminationReason reason{};
  std::int64_t evals_requested = 0, cache_hits = 0, machine_evals = 0,
               primed_evals = 0, unique_programs = 0, nonfinite = 0,
               prior_filtered = 0, prior_kept = 0;
  double prior_hit_rate = 0, prior_spearman = 0;
  bool operator==(const WalkOutcome&) const = default;
};

WalkOutcome outcomeOf(const search::SearchResult& res) {
  WalkOutcome o;
  o.best = res.best_runtime;
  o.evals = res.evals;
  for (std::size_t i = 0; i < res.trace.size(); ++i)
    if (res.trace[i] == res.best_runtime) {
      o.evals_to_best = static_cast<int>(i) + 1;
      break;
    }
  o.reason = res.reason;
  const auto& st = res.stats;
  o.evals_requested = st.evals_requested;
  o.cache_hits = st.cache_hits;
  o.machine_evals = st.machine_evals;
  o.primed_evals = st.primed_evals;
  o.unique_programs = st.unique_programs;
  o.nonfinite = st.nonfinite_rejected;
  o.prior_filtered = st.prior_filtered;
  o.prior_kept = st.prior_kept;
  o.prior_hit_rate = st.prior_hit_rate;
  o.prior_spearman = st.prior_spearman;
  return o;
}

/// The walk's output checks; "" when all hold.
std::string checkWalk(const WalkSetup& s, std::size_t j,
                      const search::SearchResult& res) {
  const std::string job = jobLabel(s.jobs[j].kernel, s.jobs[j].machine) + ": ";
  try {
    res.best.validate();
  } catch (const std::exception& e) {
    return job + "best program does not validate: " + e.what();
  }
  if (s.machines[j]->evaluate(res.best) != res.best_runtime)
    return job + "best program does not re-price to best_runtime";
  const auto& st = res.stats;
  if ((st.machine_evals - st.primed_evals) + st.cache_hits != st.evals_requested)
    return job + "evaluation accounting identity broken";
  if (!(res.best_runtime <= s.baseline[j]))
    return job + "best runtime worse than the untransformed kernel";
  return "";
}

}  // namespace

void runWalk(const RunOptions& opt, bool with_prior, Report& r) {
  const WalkSpec spec = with_prior ? kPriorWalk : kEdgesWalk;
  WalkSetup s;
  r.add("setup_s", timeSetups([&] { s = setupWalk(opt.seed, with_prior, spec); }),
        "s");
  const std::size_t n = s.jobs.size();

  std::vector<WalkOutcome> ref;     // pass 0, untraced
  std::vector<double> tune_s;       // untraced job wall times
  Passes passes(opt);
  Tracer tracer;
  std::vector<std::string> traces(n);  // telemetry of pass 0 of a traced run

  const auto pass = [&](int p) {
    const bool traced = passes.traced(p);
    const bool capture = opt.trace && p == 0;
    std::vector<search::SearchResult> res(n);
    std::vector<double> secs(n);
    const std::int64_t t_pass = nowNs();
    forEachJob(n, spec.workers, [&](std::size_t j) {
      auto cfg = walkConfig(s.jobs[j].sa_seed, spec.budget);
      if (with_prior) {
        cfg.prior = &s.priors.at(jobLabel(s.jobs[j].kernel, s.jobs[j].machine));
        cfg.prior_topk = kPriorTopk;
      }
      Telemetry sink;
      if (capture) cfg.telemetry = &sink;
      const auto id = static_cast<std::int64_t>(j);
      std::int64_t t0 = 0;
      if (traced) {
        ScopedSpan span(tracer, "job", -1, id);
        TracingMachine tm(*s.machines[j], tracer, span.id(), id);
        t0 = nowNs();
        res[j] = search::runSearch(s.kernels[j], tm, cfg);
      } else {
        t0 = nowNs();
        res[j] = search::runSearch(s.kernels[j], *s.machines[j], cfg);
      }
      secs[j] = secondsSince(t0);
      if (capture) traces[j] = sink.buffered();
    });
    passes.done(p, secondsSince(t_pass));
    if (passes.timed(p)) tune_s.insert(tune_s.end(), secs.begin(), secs.end());

    for (std::size_t j = 0; j < n; ++j) {
      std::string why = checkWalk(s, j, res[j]);
      const WalkOutcome o = outcomeOf(res[j]);
      if (p == 0)
        ref.push_back(o);
      else if (!(o == ref[j]) && why.empty())
        why = jobLabel(s.jobs[j].kernel, s.jobs[j].machine) + ": pass " +
              std::to_string(p) + (traced ? " (traced)" : "") +
              " differs from pass 0";
      r.job(why.empty(), why);
    }
  };
  passes.run(pass, [&] { return tune_s.size(); });

  std::vector<double> best, evals_to_best;
  WalkOutcome sum;
  double stalls = 0, hit_rate = 0, spearman = 0;
  for (const auto& o : ref) {
    best.push_back(o.best);
    evals_to_best.push_back(o.evals_to_best);
    sum.evals_requested += o.evals_requested;
    sum.cache_hits += o.cache_hits;
    sum.machine_evals += o.machine_evals;
    sum.primed_evals += o.primed_evals;
    sum.unique_programs += o.unique_programs;
    sum.prior_filtered += o.prior_filtered;
    sum.prior_kept += o.prior_kept;
    stalls += o.reason == search::TerminationReason::Stall;
    hit_rate += o.prior_hit_rate / static_cast<double>(n);
    spearman += o.prior_spearman / static_cast<double>(n);
  }

  if (!opt.trace) {
    const double wall = passes.timedWall();
    r.addTiming("tune_s", tune_s, 1.0, "s");
    r.add("jobs_per_s", static_cast<double>(tune_s.size()) / wall, "1/s");
    r.add("candidates_per_s",
          static_cast<double>(sum.evals_requested) * passes.timedPasses() / wall, "1/s");
    r.add("speedup_geomean", speedupGeomean(s.baseline, best), "x");
    r.add("evals_to_best_p50", percentile(evals_to_best, 500), "count");
    r.add("peak_rss_mb", peakRssMb(), "MiB");
    return;
  }

  r.add("search.evals_requested", static_cast<double>(sum.evals_requested), "count");
  r.add("search.cache_hit_ratio",
        static_cast<double>(sum.cache_hits) / static_cast<double>(sum.evals_requested), "ratio");
  r.add("search.machine_evals", static_cast<double>(sum.machine_evals), "count");
  r.add("search.primed_evals", static_cast<double>(sum.primed_evals), "count");
  r.add("search.unique_programs", static_cast<double>(sum.unique_programs), "count");
  r.add("search.stall_frac", stalls / static_cast<double>(n), "ratio");
  r.add("prior.filtered", static_cast<double>(sum.prior_filtered), "count");
  r.add("prior.kept", static_cast<double>(sum.prior_kept), "count");
  r.add("prior.hit_rate", hit_rate, "ratio");
  r.add("prior.spearman", spearman, "ratio");

  addSpanMetrics(r, opt, tracer, passes.tracedPasses(), passes.traceOverhead());

  ReplayStats rs;
  for (std::size_t j = 0; j < n; ++j) {
    std::vector<transform::Step> steps;
    double last_runtime = 0;
    std::string err;
    const std::string job = jobLabel(s.jobs[j].kernel, s.jobs[j].machine) + ": ";
    if (!acceptedSteps(traces[j], steps, last_runtime, err)) {
      r.fail(job + err);
      continue;
    }
    const search::PriorModel* prior =
        with_prior ? &s.priors.at(jobLabel(s.jobs[j].kernel, s.jobs[j].machine))
                   : nullptr;
    const std::int64_t failures = rs.failures;
    const ir::Program last =
        replayPath(s.kernels[j], s.machines[j]->caps(), steps,
                   static_cast<std::size_t>(walkConfig(0, spec.budget).max_steps), prior, rs);
    if (rs.failures != failures)
      r.fail(job + "replay: " + rs.last_error);
    else if (!steps.empty() && s.machines[j]->evaluate(last) != last_runtime)
      r.fail(job + "replayed walk does not end at the walk's last accepted cost");
  }
  addReplayMetrics(r, rs);
}

}  // namespace perfbench
