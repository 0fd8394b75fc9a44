// The PerfDojo tuning benchmark.
//
//   perfbench --workload <edges_walk|prior_walk|exact_ball|serve_tune>
//             --seed <n> --seconds <s> --trace <0|1>
//             [--root <checkout>] [--scratch <dir>]
//
// Prints every metric it measured, one per line with its unit, then as the
// last line one JSON object: {"correct", "attempted", "failed", "metrics"}
// with the end-to-end metrics (--trace 0) or the per-layer ones (--trace 1).
// Exits 1 when any output check failed, 2 on bad arguments or a metric the
// run could not measure.
#include <algorithm>
#include <cstdio>
#include <cstring>
#include <exception>
#include <string>

#include "bench_stats.h"
#include "report.h"
#include "support/numeric.h"
#include "workloads.h"

using namespace perfbench;

namespace {

struct Named {
  const char* name;
  const char* unit;
  /// Counts of a layer a workload does not exercise read 0 there; every
  /// other metric must have been measured.
  bool zero_if_absent;
};

const Named kEndToEnd[] = {
    {"setup_s", "s", false},          {"tune_s_p50", "s", false},
    {"tune_s_p90", "s", false},       {"jobs_per_s", "1/s", false},
    {"candidates_per_s", "1/s", false}, {"speedup_geomean", "x", false},
    {"peak_rss_mb", "MiB", false},
};

const Named kPerLayer[] = {
    {"search.evals_requested", "count", true},
    {"search.cache_hit_ratio", "ratio", true},
    {"search.machine_evals", "count", true},
    {"search.primed_evals", "count", true},
    {"search.unique_programs", "count", true},
    {"search.stall_frac", "ratio", true},
    {"search.self_ms", "ms", false},
    {"prior.filtered", "count", true},
    {"prior.kept", "count", true},
    {"prior.hit_rate", "ratio", true},
    {"prior.spearman", "ratio", true},
    {"exact.states", "count", true},
    {"exact.expanded", "count", true},
    {"exact.pruned", "count", true},
    {"exact.prune_ratio", "ratio", true},
    {"machines.evaluate_calls", "count", false},
    {"machines.evaluate_ms", "ms", false},
    {"machines.snitch.evaluate_us_p50", "us", false},
    {"machines.xeon.evaluate_us_p50", "us", false},
    {"machines.gh200.evaluate_us_p50", "us", false},
    {"machines.mi300a.evaluate_us_p50", "us", false},
    {"machines.lower_bound_calls", "count", true},
    {"transform.enumerate_us", "us", false},
    {"transform.actions_per_state", "count", false},
    {"transform.update_us", "us", false},
    {"transform.apply_us", "us", false},
    {"ir.nodes_p50", "count", false},
    {"ir.nodes_max", "count", false},
    {"ir.probe_us", "us", false},
    {"ir.rebase_us", "us", false},
    {"ir.hash_us", "us", false},
    {"libgen.tuning_runs", "count", true},
    {"libgen.warm_hits", "count", true},
    {"libgen.dedupe_joins", "count", true},
    {"libgen.errors", "count", true},
    {"libgen.evalcache_hit_ratio", "ratio", true},
    {"store.gets", "count", true},
    {"store.hits", "count", true},
    {"store.puts", "count", true},
    {"store.bytes", "B", true},
    {"trace_overhead", "x", false},
};

int usage(const char* why) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload "
               "<edges_walk|prior_walk|exact_ball|serve_tune> --seed <n> "
               "--seconds <s> --trace <0|1> [--root <dir>] [--scratch <dir>]\n",
               why);
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  RunOptions opt;
  bool have_seed = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) return usage(("missing value for " + flag).c_str());
    const std::string v = argv[++i];
    std::int64_t n = 0;
    double d = 0;
    if (flag == "--workload") {
      opt.workload = v;
    } else if (flag == "--seed" && perfdojo::parseInt64(v, n) && n >= 0) {
      opt.seed = static_cast<std::uint64_t>(n);
      have_seed = true;
    } else if (flag == "--seconds" && perfdojo::parseDouble(v, d) && d > 0 && d <= 60) {
      opt.seconds = d;
    } else if (flag == "--trace" && (v == "0" || v == "1")) {
      opt.trace = v == "1";
    } else if (flag == "--root") {
      opt.root = v;
    } else if (flag == "--scratch") {
      opt.scratch = v;
    } else {
      return usage(("bad argument " + flag + " " + v).c_str());
    }
  }
  if (!have_seed) return usage("--seed is required");

  Report r;
  try {
    if (opt.workload == "edges_walk") runWalk(opt, false, r);
    else if (opt.workload == "prior_walk") runWalk(opt, true, r);
    else if (opt.workload == "exact_ball") runExactBall(opt, r);
    else if (opt.workload == "serve_tune") runServeTune(opt, r);
    else return usage(("unknown workload '" + opt.workload + "'").c_str());
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 2;
  }
  if (r.attempted() < 1) {
    std::fprintf(stderr, "perfbench: no job ran\n");
    return 2;
  }

  const double failed_frac = failedFrac(std::min(r.failed(), r.attempted()), r.attempted());
  std::printf("workload %s seed %llu trace %d: %lld jobs, %lld failed\n",
              opt.workload.c_str(), static_cast<unsigned long long>(opt.seed),
              opt.trace ? 1 : 0, static_cast<long long>(r.attempted()),
              static_cast<long long>(r.failed()));
  for (const auto& m : r.metrics())
    std::printf("  %-36s %s %s\n", m.name.c_str(), perfdojo::formatDouble(m.value).c_str(),
                m.unit.c_str());
  std::printf("  %-36s %s ratio\n", "failed_frac", perfdojo::formatDouble(failed_frac).c_str());
  for (const auto& e : r.errors()) std::fprintf(stderr, "FAILED: %s\n", e.c_str());

  std::string json;
  const Named* begin = opt.trace ? std::begin(kPerLayer) : std::begin(kEndToEnd);
  const Named* end = opt.trace ? std::end(kPerLayer) : std::end(kEndToEnd);
  for (const Named* w = begin; w != end; ++w) {
    const Metric* m = r.find(w->name);
    if (!m && !w->zero_if_absent) {
      std::fprintf(stderr, "perfbench: %s was not measured\n", w->name);
      return 2;
    }
    if (!json.empty()) json += ",";
    json += std::string("\"") + w->name + "\":{\"value\":" +
            perfdojo::formatDouble(m ? m->value : 0.0) + ",\"unit\":\"" + w->unit + "\"}";
  }
  const bool correct = r.failed() == 0;
  std::printf("{\"correct\":%s,\"attempted\":%lld,\"failed\":%lld,\"metrics\":{%s}}\n",
              correct ? "true" : "false", static_cast<long long>(r.attempted()),
              static_cast<long long>(std::min(r.failed(), r.attempted())), json.c_str());
  return correct ? 0 : 1;
}
