// The replay leg of the traced run: re-walks a job's path and times the
// public transform and ir calls on the exact states the job visited. Walk
// paths come from the accepted moves in the annealer's sa_step telemetry,
// exact paths from the certificate witness, serve paths from the heuristic
// pass the heuristic optimizer runs.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "ir/program.h"
#include "search/prior.h"
#include "transform/history.h"

namespace perfbench {

/// Per-call samples in microseconds (nodes and actions are counts).
struct ReplayStats {
  std::vector<double> enumerate_us;  // transform::allActions
  std::vector<double> actions;       // actions per visited state
  std::vector<double> update_us;     // ActionSet::update after a move
  std::vector<double> apply_us;      // Transform::applyInPlace of the move
  std::vector<double> probe_us;      // CanonicalArena::probe of the result
  std::vector<double> rebase_us;     // CanonicalArena::rebase onto it
  std::vector<double> hash_us;       // ir::canonicalHash of a visited state
  std::vector<double> nodes;         // tree nodes of a visited state
  std::vector<double> score_us;      // PriorModel::features + predict
  std::int64_t failures = 0;
  std::string last_error;
};

/// Replays `steps` from `kernel`, timing the per-state calls on every state
/// the path visits. With `restart_after` > 0 the path restarts from the
/// kernel after that many moves or at a state without actions, as the
/// annealer does (0: one straight path). Cross-checks each probe and
/// rebase against a full canonical hash and the maintained action index
/// against a fresh enumeration; a mismatch or an inapplicable step counts as
/// a failure. Returns the final program.
perfdojo::ir::Program replayPath(const perfdojo::ir::Program& kernel,
                                 const perfdojo::transform::MachineCaps& caps,
                                 const std::vector<perfdojo::transform::Step>& steps,
                                 std::size_t restart_after,
                                 const perfdojo::search::PriorModel* prior,
                                 ReplayStats& out);

/// The accepted moves of an edges-structure annealing walk, read back from
/// its JSONL telemetry, with the runtime of the last one (0 when none).
/// False with `err` filled on an unknown transform or location.
bool acceptedSteps(const std::string& jsonl,
                   std::vector<perfdojo::transform::Step>& out,
                   double& last_runtime, std::string& err);

}  // namespace perfbench
