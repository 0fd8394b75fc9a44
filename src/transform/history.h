// Non-destructive transformation history (Section 2's "non-destructive
// transformations" requirement): the original specification is never lost.
// Undo of any prefix — or surgical removal/replacement of a single step, as
// the heuristic-based search of Section 4.2.1 requires — is implemented by
// replaying the remaining steps from the original program. A step that
// becomes inapplicable after an edit is reported, not silently dropped.
#pragma once

#include <optional>
#include <string>
#include <vector>

#include "ir/arena.h"
#include "ir/incremental.h"
#include "ir/program.h"
#include "transform/transform.h"

namespace perfdojo::transform {

struct Step {
  const Transform* transform = nullptr;
  Location loc;
};

class History {
 public:
  explicit History(ir::Program original);

  const ir::Program& original() const { return original_; }
  const ir::Program& current() const { return current_; }
  const std::vector<Step>& steps() const { return steps_; }
  std::size_t size() const { return steps_.size(); }

  /// ir::canonicalHash(current()), maintained incrementally: push() rebases
  /// the canonical-form arena from the applied transform's mutation summary
  /// instead of re-rendering the whole program (sequence edits rebind). The deterministic passes and
  /// the memoized evaluation layer key on this value.
  std::uint64_t currentHash() const { return arena_.hash(); }

  /// Mutation summary of the last push() — the report currentHash() was
  /// updated from — so callers can splice their own per-state indices (the
  /// Dojo's move list) off the same mutation. Conservative (whole_tree)
  /// after any other editing operation (undo, erase/replace/insert), which
  /// replays and rebinds.
  const ir::MutationSummary& lastMutation() const { return last_mut_; }

  /// Applies an action and records it. Throws if inapplicable.
  void push(const Action& a);

  /// Removes the last step (replay of the prefix).
  void undo();

  /// Result of editing the sequence at an arbitrary point.
  struct ReplayResult {
    bool ok = true;
    std::size_t failed_step = 0;  // index of first inapplicable step
    std::string message;
  };

  /// Removes the step at `index`, replaying the suffix. On failure the
  /// history is left unchanged and the result describes the first step that
  /// no longer applies.
  ReplayResult eraseStep(std::size_t index);

  /// Replaces the step at `index` with a new action, replaying the suffix.
  ReplayResult replaceStep(std::size_t index, const Action& a);

  /// Inserts an action before `index`, replaying the suffix.
  ReplayResult insertStep(std::size_t index, const Action& a);

  /// Replays `steps` from `base`; returns the final program or nullopt with
  /// diagnostics in `result`.
  static std::optional<ir::Program> replay(const ir::Program& base,
                                           const std::vector<Step>& steps,
                                           ReplayResult& result);

 private:
  ReplayResult tryAdopt(std::vector<Step> steps);

  ir::Program original_;
  ir::Program current_;
  std::vector<Step> steps_;
  ir::CanonicalArena arena_;  // canonical form of current_
  ir::MutationSummary last_mut_ = ir::MutationSummary::conservative();
};

}  // namespace perfdojo::transform
