// End-to-end candidate-throughput benchmark for the tuning hot path.
//
// Runs the edges-structure annealing search over two deep-tree Table-3
// kernels twice:
//
//   modern — the shipping pipeline (search::runSearch): memo table +
//            arena-backed delta hashing + incrementally maintained action
//            index + arena rebase-on-accept
//   legacy — the copy pipeline, kept in this file as the reference: the
//            same memo table, but every candidate priced by apply-copying
//            the tree and re-rendering its canonical text, and every
//            accepted state re-enumerated with allActions. It makes exactly
//            the decisions of the modern leg (same draws, acceptance rule
//            and restart rule), which measure() checks on every run
//
// A fourth leg times neighbor *enumeration* alone — actions/sec along a
// deterministic accepted-move trajectory, maintained ActionSet splices vs
// full allActions re-enumeration — so the index's own win is gated as a
// host-independent ratio (`index_enum_speedup`) even where end-to-end wall
// is dominated by pricing.
//
// What this gate means: end-to-end throughput on the in-tree analytic models
// is dominated by neighbor enumeration (transform::allActions per accepted
// state) and per-acceptance rebinds, not by pricing — so the modern stack's
// per-candidate pricing win (gated at >= 5x by bench_micro_hash) shows up
// here as *bounded overhead*, not as a wall-clock multiple. The gated metric
// is that bound: modern_wall / legacy_wall may not drift above the
// checked-in ratio by more than the band. A pricing-stack regression (a
// rebase that went quadratic, a probe that started re-rendering) lands
// directly on this ratio, and a ratio of two same-host
// timings is host-speed independent, so a slow CI runner cannot fake a pass
// or a fail.
//
// Timing discipline (the same warmup + median-of-N the hash microbench
// uses): one warm-up run per pipeline, then the median wall of kReps
// interleaved repetitions. Every repetition is bit-identical in results —
// the pipelines differ only in how candidates are priced — so medians
// compare like with like.
//
//   bench_candidates [--out BENCH_candidates.json]
//                    [--check bench/BENCH_candidates_baseline.json]
#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "ir/canonical.h"
#include "ir/incremental.h"
#include "kernels/kernels.h"
#include "machines/machine.h"
#include "search/evalcache.h"
#include "search/search.h"
#include "support/rng.h"
#include "support/telemetry.h"
#include "transform/action_set.h"

namespace perfdojo {
namespace {

constexpr int kReps = 5;
constexpr int kBudget = 2000;

double median(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 ? v[n / 2] : (v[n / 2 - 1] + v[n / 2]) / 2;
}

search::SearchConfig modernConfig() {
  search::SearchConfig cfg;
  cfg.method = search::SearchMethod::SimulatedAnnealing;
  cfg.structure = search::SpaceStructure::Edges;
  cfg.budget = kBudget;
  cfg.max_steps = 64;  // deep walks: realistic tree sizes for the rehash
  cfg.seed = 7;
  cfg.threads = 1;  // cost of the pricing path itself, not pool scheduling
  return cfg;
}

/// Outcome of one copy-pipeline run, in the terms the divergence check and
/// the timing compare against the modern leg's SearchResult.
struct CopyRun {
  int evals = 0;
  double best_runtime = 1e300;
  double wall_ms = 0;
};

/// The edges annealer on the copy pipeline: candidates are apply-copied,
/// hashed by a full canonical re-render (ir::canonicalHash) and priced
/// through an EvalCache; every accepted state is re-enumerated with
/// transform::allActions. Decisions mirror search::runSearch exactly — one
/// uniform draw per proposal over the state's actions, search::saAccept,
/// geometric cooling per evaluation, restart from the kernel at max_steps
/// or on a dead end, and a per-state memo of each action's cost — so the
/// evals and best cost must match the modern leg bit for bit.
CopyRun copyPipelineAnneal(const ir::Program& kernel,
                           const machines::Machine& m,
                           const search::SearchConfig& cfg) {
  constexpr double kPending = -1.0;
  const auto t0 = std::chrono::steady_clock::now();
  search::EvalCache cache;
  auto price = [&](const ir::Program& p) {
    const std::uint64_t h = ir::canonicalHash(p);
    double v;
    if (cache.lookup(m, h, v)) return v;
    v = m.evaluate(p);
    cache.insert(m, h, v);
    return v;
  };
  CopyRun run;
  ir::Program best;
  auto record = [&](const ir::Program& p, double rt) {
    ++run.evals;
    if (std::isfinite(rt) && rt >= 0 && rt < run.best_runtime) {
      run.best_runtime = rt;
      best = p;
    }
  };
  Rng rng(cfg.seed);
  ir::Program cur = kernel;
  double cur_rt = price(cur);
  const double base_rt = cur_rt;
  record(cur, cur_rt);
  double temp = cfg.sa_t0;
  int steps = 0;
  std::vector<transform::Action> actions = transform::allActions(cur, m.caps());
  std::vector<double> action_cost(actions.size(), kPending);
  while (run.evals < cfg.budget) {
    if (actions.empty() || steps >= cfg.max_steps) {
      cur = kernel;
      cur_rt = base_rt;
      steps = 0;
      actions = transform::allActions(cur, m.caps());
      action_cost.assign(actions.size(), kPending);
      if (actions.empty()) break;
      continue;
    }
    const std::size_t ai = rng.uniform(actions.size());
    double rt = action_cost[ai];
    std::optional<ir::Program> cand;
    if (rt == kPending) {
      cand = actions[ai].apply(cur);
      rt = price(*cand);
      action_cost[ai] = rt;
      record(*cand, rt);
    } else {
      ++run.evals;  // a re-drawn action cannot improve on the best
    }
    if (search::saAccept((rt - cur_rt) / base_rt, temp, rng)) {
      cur = cand ? std::move(*cand) : actions[ai].apply(cur);
      cur_rt = rt;
      ++steps;
      actions = transform::allActions(cur, m.caps());
      action_cost.assign(actions.size(), kPending);
    }
    temp *= cfg.sa_decay;  // decays once per recorded evaluation
  }
  run.wall_ms = std::chrono::duration<double, std::milli>(
                    std::chrono::steady_clock::now() - t0)
                    .count();
  return run;
}

struct Measurement {
  std::vector<std::string> kernels;
  std::int64_t candidates = 0;  // per pipeline, summed over kernels
  double modern_ms = 0;         // median wall, summed over kernels
  double legacy_ms = 0;
  // Enumeration leg: actions enumerated along the accepted-move trajectory,
  // spliced vs re-enumerated (identical counts by the element-identity
  // invariant).
  std::int64_t enum_actions = 0;
  double enum_indexed_ms = 0;
  double enum_full_ms = 0;
  double modern_cps() const {
    return modern_ms > 0 ? 1e3 * static_cast<double>(candidates) / modern_ms
                         : 0;
  }
  double legacy_cps() const {
    return legacy_ms > 0 ? 1e3 * static_cast<double>(candidates) / legacy_ms
                         : 0;
  }
  /// Modern wall over legacy wall: the bounded cost of the pricing stack on
  /// analytic models. Lower is better; 1.0 is parity.
  double overhead() const {
    return legacy_ms > 0 && modern_ms > 0 ? modern_ms / legacy_ms : 0;
  }
  /// Enumeration-only win: full re-enumeration wall over spliced wall.
  double enumSpeedup() const {
    return enum_indexed_ms > 0 && enum_full_ms > 0
               ? enum_full_ms / enum_indexed_ms
               : 0;
  }
};

/// Actions/sec along one deterministic accepted-move trajectory per kernel:
/// `indexed` splices a maintained ActionSet from each step's mutation
/// summary, `!indexed` re-runs transform::allActions. Identical action
/// streams (the element-identity invariant), so walls compare like with
/// like. Returns total actions enumerated; adds median wall to `ms`.
std::int64_t timeEnumeration(const ir::Program& p0, bool indexed, double& ms) {
  constexpr int kSteps = 64;
  const auto& caps = machines::xeon().caps();
  std::int64_t actions_seen = 0;
  std::vector<double> walls;
  for (int rep = 0; rep <= kReps; ++rep) {  // rep 0 = warm-up
    actions_seen = 0;
    const auto t0 = std::chrono::steady_clock::now();
    ir::Program p = p0;
    Rng rng(13);
    transform::ActionSet aset;
    std::vector<transform::Action> own;
    if (indexed) aset.bind(p, caps);
    else own = transform::allActions(p, caps);
    const std::vector<transform::Action>* actions =
        indexed ? &aset.actions() : &own;
    for (int step = 0; step < kSteps && !actions->empty(); ++step) {
      actions_seen += static_cast<std::int64_t>(actions->size());
      const auto a = (*actions)[rng.uniform(actions->size())];
      ir::MutationSummary mut;
      a.transform->applyInPlace(p, a.loc, &mut);
      if (indexed) aset.update(p, mut);
      else own = transform::allActions(p, caps);
    }
    const double wall =
        std::chrono::duration<double, std::milli>(
            std::chrono::steady_clock::now() - t0).count();
    if (rep > 0) walls.push_back(wall);
  }
  ms += median(walls);
  return actions_seen;
}

Measurement measure() {
  Measurement mm;
  // Deep-tree kernels: schedules add splits/annotations, so these are the
  // realistic tree sizes whose candidate pricing dominates a tuning run.
  mm.kernels = {"softmax", "layernorm_1"};
  const auto& m = machines::xeon();
  for (const auto& label : mm.kernels) {
    const auto* k = kernels::findKernel(label);
    if (!k) {
      std::fprintf(stderr, "unknown kernel %s\n", label.c_str());
      std::exit(2);
    }
    const ir::Program p = k->build();
    const auto cfg = modernConfig();
    // Warm-up both pipelines, and take the candidate count from the warm-up
    // (bit-identical across reps and pipelines by the determinism contract).
    const auto warm_modern = search::runSearch(p, m, cfg);
    const auto warm_legacy = copyPipelineAnneal(p, m, cfg);
    if (warm_modern.evals != warm_legacy.evals ||
        warm_modern.best_runtime != warm_legacy.best_runtime) {
      std::fprintf(stderr, "pipeline divergence on %s: %d vs %d evals, "
                   "best %.17g vs %.17g\n",
                   label.c_str(), warm_modern.evals, warm_legacy.evals,
                   warm_modern.best_runtime, warm_legacy.best_runtime);
      std::exit(2);
    }
    mm.candidates += warm_modern.stats.evals_requested;

    std::vector<double> modern_s, legacy_s;
    for (int rep = 0; rep < kReps; ++rep) {
      modern_s.push_back(search::runSearch(p, m, cfg).stats.wall_ms);
      legacy_s.push_back(copyPipelineAnneal(p, m, cfg).wall_ms);
    }
    mm.modern_ms += median(modern_s);
    mm.legacy_ms += median(legacy_s);

    const std::int64_t indexed_actions =
        timeEnumeration(p, /*indexed=*/true, mm.enum_indexed_ms);
    const std::int64_t full_actions =
        timeEnumeration(p, /*indexed=*/false, mm.enum_full_ms);
    if (indexed_actions != full_actions) {
      std::fprintf(stderr, "enumeration divergence on %s: %lld vs %lld "
                   "actions\n",
                   label.c_str(), static_cast<long long>(indexed_actions),
                   static_cast<long long>(full_actions));
      std::exit(2);
    }
    mm.enum_actions += indexed_actions;
  }
  return mm;
}

std::string toJson(const Measurement& m) {
  std::ostringstream os;
  os << "{\"kernels\":[";
  for (std::size_t i = 0; i < m.kernels.size(); ++i)
    os << (i ? "," : "") << '"' << m.kernels[i] << '"';
  os << "],\"candidates\":" << m.candidates
     << ",\"modern_wall_ms\":" << m.modern_ms
     << ",\"legacy_wall_ms\":" << m.legacy_ms
     << ",\"modern_candidates_per_sec\":" << m.modern_cps()
     << ",\"legacy_candidates_per_sec\":" << m.legacy_cps()
     << ",\"overhead_ratio\":" << m.overhead()
     << ",\"enum_actions\":" << m.enum_actions
     << ",\"enum_indexed_ms\":" << m.enum_indexed_ms
     << ",\"enum_full_ms\":" << m.enum_full_ms
     << ",\"index_enum_speedup\":" << m.enumSpeedup() << "}\n";
  return os.str();
}

int check(const Measurement& m, const std::string& baseline_path) {
  std::ifstream in(baseline_path);
  if (!in) {
    std::fprintf(stderr, "cannot read baseline %s\n", baseline_path.c_str());
    return 1;
  }
  std::stringstream ss;
  ss << in.rdbuf();
  JsonValue doc;
  std::string err;
  if (!parseJson(ss.str(), doc, &err)) {
    std::fprintf(stderr, "malformed baseline %s: %s\n", baseline_path.c_str(),
                 err.c_str());
    return 1;
  }
  const double base = doc.numberOr("overhead_ratio", 0);
  if (base <= 0) {
    std::fprintf(stderr, "baseline %s lacks overhead_ratio\n",
                 baseline_path.c_str());
    return 1;
  }
  // The modern stack may not drift more than 25% above the checked-in
  // overhead ratio, with an absolute allowance of 1.30x so a near-parity
  // baseline does not turn run-to-run noise into failures.
  const double limit = base * 1.25 > 1.30 ? base * 1.25 : 1.30;
  std::printf("check: measured overhead %.2fx vs baseline %.2fx "
              "(limit %.2fx)\n",
              m.overhead(), base, limit);
  if (m.overhead() > limit) {
    std::fprintf(stderr,
                 "FAIL: candidate pricing overhead regressed: %.2fx > %.2fx\n",
                 m.overhead(), limit);
    return 1;
  }
  // The enumeration speedup is also a same-host ratio: the spliced index may
  // not fall below 60% of its checked-in win (and never below parity).
  const double sp_base = doc.numberOr("index_enum_speedup", 0);
  if (sp_base > 0) {
    const double floor = sp_base * 0.6 > 1.0 ? sp_base * 0.6 : 1.0;
    std::printf("check: enumeration speedup %.2fx vs baseline %.2fx "
                "(floor %.2fx)\n",
                m.enumSpeedup(), sp_base, floor);
    if (m.enumSpeedup() < floor) {
      std::fprintf(stderr,
                   "FAIL: action-index enumeration speedup regressed: "
                   "%.2fx < %.2fx\n",
                   m.enumSpeedup(), floor);
      return 1;
    }
  }
  return 0;
}

}  // namespace
}  // namespace perfdojo

int main(int argc, char** argv) {
  std::string out = "BENCH_candidates.json";
  std::string baseline;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    if (key == "--out") out = argv[i + 1];
    else if (key == "--check") baseline = argv[i + 1];
    else {
      std::fprintf(stderr, "unknown flag %s\n", key.c_str());
      return 2;
    }
  }
  const auto m = perfdojo::measure();
  std::printf("candidates=%lld (per pipeline, %zu kernels)\n",
              static_cast<long long>(m.candidates), m.kernels.size());
  std::printf("modern  %10.1f ms  %12.0f candidates/sec\n", m.modern_ms,
              m.modern_cps());
  std::printf("legacy  %10.1f ms  %12.0f candidates/sec\n", m.legacy_ms,
              m.legacy_cps());
  std::printf("overhead %.2fx (modern wall / legacy wall)\n", m.overhead());
  std::printf("enum    %10.1f ms indexed vs %10.1f ms full  %12.0f "
              "actions/sec  %.2fx\n",
              m.enum_indexed_ms, m.enum_full_ms,
              m.enum_indexed_ms > 0
                  ? 1e3 * static_cast<double>(m.enum_actions) /
                        m.enum_indexed_ms
                  : 0,
              m.enumSpeedup());
  const std::string json = perfdojo::toJson(m);
  std::ofstream(out) << json;
  std::printf("wrote %s: %s", out.c_str(), json.c_str());
  return baseline.empty() ? 0 : perfdojo::check(m, baseline);
}
