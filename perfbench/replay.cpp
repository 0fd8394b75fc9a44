#include "replay.h"

#include <cmath>
#include <sstream>

#include "ir/arena.h"
#include "ir/canonical.h"
#include "ir/incremental.h"
#include "support/telemetry.h"
#include "trace.h"
#include "transform/action_set.h"

namespace perfbench {

using namespace perfdojo;

namespace {

template <typename F>
double timeUs(F&& f) {
  const std::int64_t t0 = nowNs();
  f();
  return static_cast<double>(nowNs() - t0) * 1e-3;
}

void fail(ReplayStats& out, const std::string& msg) {
  ++out.failures;
  out.last_error = msg;
}

}  // namespace

ir::Program replayPath(const ir::Program& kernel,
                       const transform::MachineCaps& caps,
                       const std::vector<transform::Step>& steps,
                       std::size_t restart_after,
                       const search::PriorModel* prior, ReplayStats& out) {
  ir::Program p = kernel;
  ir::CanonicalArena arena(p);
  transform::ActionSet index;
  index.bind(p, caps);
  std::size_t moves_here = 0;  // moves since the last (re)start
  for (std::size_t i = 0;;) {
    std::vector<transform::Action> fresh;
    out.enumerate_us.push_back(
        timeUs([&] { fresh = transform::allActions(p, caps); }));
    out.actions.push_back(static_cast<double>(fresh.size()));
    if (index.actions().size() != fresh.size())
      fail(out, "action index and fresh enumeration differ in size");
    std::uint64_t h = 0;
    out.hash_us.push_back(timeUs([&] { h = ir::canonicalHash(p); }));
    if (h != arena.hash()) fail(out, "arena hash differs from canonicalHash");
    out.nodes.push_back(static_cast<double>(arena.size()));
    if (prior) {
      const std::string text = ir::canonicalText(p);
      double score = 0;
      out.score_us.push_back(
          timeUs([&] { score = prior->predict(prior->features(text)); }));
      if (!std::isfinite(score)) fail(out, "prior score is not finite");
    }
    if (i == steps.size()) break;
    if (restart_after > 0 && (fresh.empty() || moves_here == restart_after)) {
      if (moves_here == 0) {
        fail(out, "the kernel has no applicable action");
        break;
      }
      p = kernel;
      arena.bind(p);
      index.bind(p, caps);
      moves_here = 0;
      continue;
    }

    const auto& step = steps[i++];
    ++moves_here;
    ir::MutationSummary mut;
    try {
      out.apply_us.push_back(
          timeUs([&] { step.transform->applyInPlace(p, step.loc, &mut); }));
    } catch (const std::exception& e) {
      fail(out, std::string("replayed step does not apply: ") + e.what());
      break;
    }
    std::uint64_t probed = 0;
    out.probe_us.push_back(timeUs([&] { probed = arena.probe(p, mut); }));
    if (probed != ir::canonicalHash(p)) fail(out, "probe differs from canonicalHash");
    out.rebase_us.push_back(timeUs([&] { arena.rebase(p, mut); }));
    out.update_us.push_back(timeUs([&] { index.update(p, mut); }));
  }
  return p;
}

bool acceptedSteps(const std::string& jsonl, std::vector<transform::Step>& out,
                   double& last_runtime, std::string& err) {
  out.clear();
  last_runtime = 0;
  std::istringstream in(jsonl);
  std::string line;
  while (std::getline(in, line)) {
    JsonValue ev;
    if (!parseJson(line, ev, &err)) return false;
    if (ev.stringOr("type", "") != "sa_step" || !ev.boolOr("accepted", false))
      continue;
    transform::Step s;
    s.transform = transform::findTransform(ev.stringOr("action", ""));
    if (!s.transform || !transform::locationFromText(ev.stringOr("loc", ""), s.loc)) {
      err = "unreadable sa_step: " + line;
      return false;
    }
    out.push_back(s);
    last_runtime = ev.numberOr("runtime", 0);
  }
  return true;
}

}  // namespace perfbench
