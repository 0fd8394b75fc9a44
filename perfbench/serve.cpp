// serve_tune: a closed loop of kServeClients client threads against a
// TuneServer on a fresh on-disk cache; each client waits for its reply
// before it sends the next request. Requests go through the wire codec both
// ways. A second server opened on the same directory serves the second
// phase, mostly from disk.
#include <atomic>
#include <filesystem>
#include <map>
#include <set>

#include "bench_stats.h"
#include "ir/canonical.h"
#include "jobs.h"
#include "kernels/kernels.h"
#include "layers.h"
#include "libgen/server.h"
#include "search/pass.h"
#include "workloads.h"

namespace perfbench {

using namespace perfdojo;
using libgen::TuneRequest;
using libgen::TuneResponse;
namespace fs = std::filesystem;

namespace {

struct Reply {
  TuneResponse resp;
  double latency_s = 0;  // client-observed, wire codec included
  double wire_s = 0;     // encode + parse of request and response
  std::string error;     // codec failure
};

/// Sends `reqs` through `server` from kServeClients closed-loop clients;
/// replies come back in request order.
std::vector<Reply> closedLoop(libgen::TuneServer& server,
                              const std::vector<TuneRequest>& reqs) {
  std::vector<Reply> out(reqs.size());
  forEachJob(reqs.size(), kServeClients, [&](std::size_t i) {
    Reply& rep = out[i];
    const std::int64_t t0 = nowNs();
    const std::string line = libgen::requestToJson(reqs[i]);
    TuneRequest parsed;
    const bool req_ok = libgen::parseTuneRequest(line, parsed, rep.error);
    const std::int64_t t1 = nowNs();
    const TuneResponse served = req_ok ? server.handle(parsed) : TuneResponse{};
    const std::int64_t t2 = nowNs();
    const std::string reply = libgen::responseToJson(served);
    const bool resp_ok = libgen::parseTuneResponse(reply, rep.resp, rep.error);
    const std::int64_t t3 = nowNs();
    if (!req_ok || !resp_ok) rep.error = "wire codec: " + rep.error;
    rep.latency_s = static_cast<double>(t3 - t0) * 1e-9;
    rep.wire_s = static_cast<double>((t1 - t0) + (t3 - t2)) * 1e-9;
  });
  return out;
}

bool sameSchedule(const TuneResponse& a, const TuneResponse& b) {
  return a.recipe == b.recipe && a.source == b.source &&
         a.tuned_runtime == b.tuned_runtime &&
         a.baseline_runtime == b.baseline_runtime;
}

std::uint64_t dirBytes(const fs::path& dir) {
  std::uint64_t bytes = 0;
  for (const auto& e : fs::directory_iterator(dir))
    if (e.is_regular_file()) bytes += e.file_size();
  return bytes;
}

/// Everything one pass measured.
struct PassResult {
  std::vector<Reply> replies;  // first phase, then second
  double wall_s = 0;           // both closed loops
  double reopen_s = 0;         // constructing the second server
  libgen::ServeStats stats;    // both servers
  search::EvalCacheStats evals;
  /// Evaluations the tuning runs of this pass requested (from the tuned
  /// replies; warm and joined replies cost none).
  double tuning_evals = 0;
  search::ShardStore::Stats store;
  std::uint64_t bytes = 0;
};

void addStats(libgen::ServeStats& a, const libgen::ServeStats& b) {
  a.requests += b.requests;
  a.errors += b.errors;
  a.warm_hits += b.warm_hits;
  a.tuning_runs += b.tuning_runs;
  a.dedupe_joins += b.dedupe_joins;
  a.store_errors += b.store_errors;
}

}  // namespace

void runServeTune(const RunOptions& opt, Report& r) {
  fs::create_directories(opt.scratch);
  ServeStream stream;
  r.add("setup_s", timeSetups([&] { stream = serveStream(opt.seed); }), "s");
  const std::size_t n = stream.first.size() + stream.second.size();
  std::vector<TuneRequest> all = stream.first;
  all.insert(all.end(), stream.second.begin(), stream.second.end());

  Tracer tracer;
  std::atomic<std::int64_t> tune_job{0};
  // The traced tuner: tuneOne on a TracingMachine, inside a job span.
  const auto traced_tuner = [&](const kernels::KernelInfo& k, const machines::Machine& m,
                                const libgen::LibGenConfig& cfg, search::EvalCache* cache) {
    const std::int64_t job = tune_job++;
    ScopedSpan span(tracer, "job", -1, job);
    TracingMachine tm(m, tracer, span.id(), job);
    return libgen::tuneOne(k, tm, cfg, cache);
  };

  std::map<std::uint64_t, TuneResponse> ref;  // key -> schedule of pass 0
  std::vector<double> tuned_s, request_s, warm_s;
  Passes passes(opt);
  double timed_evals = 0;
  std::vector<PassResult> traced_results;

  const auto pass = [&](int p) {
    const bool traced = passes.traced(p);
    const fs::path dir = fs::path(opt.scratch) / ("serve-" + std::to_string(p));
    fs::remove_all(dir);
    libgen::ServeConfig cfg;
    cfg.cache_dir = dir.string();
    cfg.workers = kServeClients;
    if (traced) cfg.tuner = traced_tuner;

    PassResult pr;
    {
      libgen::TuneServer first(cfg);
      const std::int64_t t0 = nowNs();
      pr.replies = closedLoop(first, stream.first);
      pr.wall_s = secondsSince(t0);
      addStats(pr.stats, first.stats());
      pr.evals = first.evalStats();
      pr.store = first.store()->stats();
    }
    {
      const std::int64_t t0 = nowNs();
      libgen::TuneServer second(cfg);
      pr.reopen_s = secondsSince(t0);
      const std::int64_t t1 = nowNs();
      auto replies = closedLoop(second, stream.second);
      pr.wall_s += secondsSince(t1);
      pr.replies.insert(pr.replies.end(), replies.begin(), replies.end());
      addStats(pr.stats, second.stats());
      const auto ev = second.evalStats();
      pr.evals.requests += ev.requests;
      pr.evals.hits += ev.hits;
      pr.evals.misses += ev.misses;
      pr.evals.entries += ev.entries;
      const auto st = second.store()->stats();
      pr.store.gets += st.gets;
      pr.store.hits += st.hits;
      pr.store.puts += st.puts;
    }
    for (const auto& rep : pr.replies)
      if (rep.resp.served == "tuned") pr.tuning_evals += static_cast<double>(rep.resp.evaluations);
    pr.bytes = dirBytes(dir);
    fs::remove_all(dir);

    // Every reply must be ok, and every warm or joined reply must carry the
    // schedule its key's cold tune produced — in this pass and in pass 0.
    std::map<std::uint64_t, TuneResponse> cold;
    for (const auto& rep : pr.replies)
      if (rep.error.empty() && rep.resp.ok && rep.resp.served == "tuned")
        cold.emplace(rep.resp.key, rep.resp);
    for (std::size_t i = 0; i < n; ++i) {
      const Reply& rep = pr.replies[i];
      std::string why;
      const std::string req = jobLabel(all[i].kernel, all[i].machine) + "/" + all[i].optimizer;
      if (!rep.error.empty()) {
        why = req + ": " + rep.error;
      } else if (!rep.resp.ok) {
        why = req + ": " + rep.resp.error;
      } else if (!cold.count(rep.resp.key)) {
        if (p == 0 || !ref.count(rep.resp.key)) why = req + ": no cold tune for its key";
        else if (!sameSchedule(rep.resp, ref.at(rep.resp.key)))
          why = req + ": served schedule differs from pass 0";
      } else if (!sameSchedule(rep.resp, cold.at(rep.resp.key))) {
        why = req + ": " + rep.resp.served + " reply differs from its cold tune";
      }
      r.job(why.empty(), why);
    }
    for (const auto& [key, resp] : cold) {
      if (p == 0) ref.emplace(key, resp);
      else if (ref.count(key) && !sameSchedule(resp, ref.at(key)))
        r.fail(jobLabel(resp.kernel, resp.machine) + ": cold tune differs from pass 0");
    }

    passes.done(p, pr.wall_s);
    if (passes.timed(p)) {
      timed_evals += pr.tuning_evals;
      for (const auto& rep : pr.replies) {
        request_s.push_back(rep.latency_s);
        if (rep.resp.served == "tuned") tuned_s.push_back(rep.latency_s);
        if (rep.resp.served == "warm") warm_s.push_back(rep.latency_s);
      }
    }
    if (traced) traced_results.push_back(std::move(pr));
  };
  passes.run(pass, [&] { return tuned_s.size(); });

  std::vector<double> base, tuned;
  for (const auto& [key, resp] : ref) {
    base.push_back(resp.baseline_runtime);
    tuned.push_back(resp.tuned_runtime);
  }

  if (!opt.trace) {
    const double wall = passes.timedWall();
    r.addTiming("tune_s", tuned_s, 1.0, "s");
    r.add("jobs_per_s", static_cast<double>(request_s.size()) / wall, "1/s");
    r.add("candidates_per_s", timed_evals / wall, "1/s");
    r.addTiming("request_ms", request_s, 1e3, "ms");
    r.addTiming("warm_ms", warm_s, 1e3, "ms");
    r.add("speedup_geomean", speedupGeomean(base, tuned), "x");
    r.add("peak_rss_mb", peakRssMb(), "MiB");
    return;
  }

  // Layer counts are per pass, averaged over the traced passes.
  const auto spans =
      addSpanMetrics(r, opt, tracer, passes.tracedPasses(), passes.traceOverhead());
  libgen::ServeStats st;
  double gets = 0, hits = 0, puts = 0, bytes = 0, reopen = 0, tuning_evals = 0,
         ev_req = 0, ev_hits = 0;
  for (const auto& pr : traced_results) {
    addStats(st, pr.stats);
    gets += pr.store.gets;
    hits += pr.store.hits;
    puts += pr.store.puts;
    bytes += static_cast<double>(pr.bytes);
    reopen += pr.reopen_s;
    tuning_evals += pr.tuning_evals;
    ev_req += pr.evals.requests;
    ev_hits += pr.evals.hits;
  }
  const double k = 1.0 / passes.tracedPasses();
  // The tuning runs price through the server's memo table with uncounted
  // lookups, so the machine-evaluation count comes from the spans.
  r.add("search.evals_requested", tuning_evals * k, "count");
  r.add("search.machine_evals",
        static_cast<double>(std::count_if(spans.begin(), spans.end(), [](const Span& sp) {
          return std::string(sp.name) == "machines.evaluate";
        })) * k,
        "count");
  r.add("libgen.tuning_runs", static_cast<double>(st.tuning_runs) * k, "count");
  r.add("libgen.warm_hits", static_cast<double>(st.warm_hits) * k, "count");
  r.add("libgen.dedupe_joins", static_cast<double>(st.dedupe_joins) * k, "count");
  r.add("libgen.errors", static_cast<double>(st.errors) * k, "count");
  r.add("libgen.evalcache_hit_ratio", ev_hits / ev_req, "ratio");
  r.add("store.gets", gets * k, "count");
  r.add("store.hits", hits * k, "count");
  r.add("store.puts", puts * k, "count");
  r.add("store.bytes", bytes * k, "B");
  r.add("store.reopen_ms", reopen * k * 1e3, "ms");

  std::vector<double> tuner_s, t_warm, t_joined, t_wire;
  for (const auto& sp : spans)
    if (std::string(sp.name) == "job") tuner_s.push_back(sp.durationNs() * 1e-9);
  for (const auto& pr : traced_results)
    for (const auto& rep : pr.replies) {
      t_wire.push_back(rep.wire_s);
      if (rep.resp.served == "warm") t_warm.push_back(rep.latency_s);
      if (rep.resp.served == "joined") t_joined.push_back(rep.latency_s);
    }
  if (!tuner_s.empty()) r.add("libgen.tuned_s_p50", percentile(tuner_s, 500), "s");
  if (!t_joined.empty()) r.add("libgen.joined_s_p50", percentile(t_joined, 500), "s");
  if (!t_warm.empty()) r.add("libgen.warm_us_p50", percentile(t_warm, 500) * 1e6, "us");
  r.add("libgen.wire_us", meanOrZero(t_wire) * 1e6, "us");

  // Replay leg: the heuristic optimizer's path (its expert pass) on each
  // distinct kernel x machine it tuned.
  ReplayStats rs;
  std::set<std::string> seen;
  for (const auto& req : all) {
    const std::string label = jobLabel(req.kernel, req.machine);
    if (req.optimizer != "heuristic" || !seen.insert(label).second) continue;
    const ir::Program base_prog = kernels::findKernel(req.kernel)->build();
    const auto& m = *machines::findMachine(req.machine);
    const auto h = search::heuristicPass(base_prog, m);
    const std::int64_t failures = rs.failures;
    const ir::Program last = replayPath(base_prog, m.caps(), h.steps(), 0, nullptr, rs);
    if (rs.failures != failures)
      r.fail(label + ": replay: " + rs.last_error);
    else if (ir::canonicalHash(last) != h.currentHash())
      r.fail(label + ": replayed pass ends elsewhere");
  }
  addReplayMetrics(r, rs);
}

}  // namespace perfbench
