// Incrementally-maintained applicable-action index: the accepted-move side
// of the hot path. PR 8 made neighbor *pricing* O(dirty subtree); what kept
// accepted moves O(program) was re-running transform::allActions — 20
// transforms × full-tree findApplicable walks — after every acceptance.
//
// ActionSet keeps one location list per transform and, after an accepted
// action, consumes the transform's ir::MutationSummary to re-enumerate only
// what the mutation can have touched:
//
//   * a per-transform locality policy (the classification table in
//     action_set.cpp, with the soundness argument per transform) maps the
//     summary's dirty roots to splice roots — the subtrees whose sites must
//     be re-enumerated via the scoped findApplicable overload — plus a small
//     recheck set of single nodes (ancestors, preceding siblings) whose
//     applicability can flip when a *descendant or sibling* subtree changes,
//     re-enumerated via findApplicableAt;
//   * transforms whose predicates read the buffer header re-enumerate fully
//     when buffers_changed; header-only transforms are untouched by tree
//     dirt entirely; transforms with program-wide predicates (reuse_dims)
//     and unknown transform names (the fuzzer's injected ones) re-enumerate
//     fully on every update;
//   * conservative summaries (whole_tree, unknown ids, the root container
//     as a dirty root) fall back to a full rebuild.
//
// Retained and fresh entries are stable-merged by the owning node's
// post-mutation pre-order position, so the maintained list satisfies the
// non-negotiable invariant the search tiers key on:
//
//   actions() is element-identical — same elements, same order — to a fresh
//   transform::allActions(p, caps) after every bind()/update().
//
// Every search tier draws from a maintained ActionSet, and its decision
// sequences, traces and optimality certificates are bit-identical to the
// re-enumerating reference (allActions per state) that the tests, the
// fuzzer's action-set oracle layer and the benches keep; the property suite
// and the fuzzer enforce the invariant element-for-element.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "ir/program.h"
#include "transform/transform.h"

namespace perfdojo::ir {
struct MutationSummary;
}

namespace perfdojo::transform {

struct ActionSetStats {
  std::int64_t binds = 0;
  std::int64_t updates = 0;
  /// Updates that degraded to a full rebuild (conservative summary, unknown
  /// or root-container dirty ids).
  std::int64_t full_rebuilds = 0;
  /// Per-transform full re-enumerations inside incremental updates
  /// (buffers_changed dependents, program-wide predicates, root-reaching
  /// splice roots).
  std::int64_t transform_full_enums = 0;
  /// Per-transform spliced (subtree-scoped) re-enumerations.
  std::int64_t transform_splices = 0;
  /// Single nodes re-checked through findApplicableAt.
  std::int64_t nodes_rechecked = 0;
};

class ActionSet {
 public:
  ActionSet() = default;

  /// Full enumeration of `p` against the standard transform library.
  void bind(const ir::Program& p, const MachineCaps& caps);
  /// Same, drawing from an explicit transform list (the fuzzer's injection
  /// point; unknown names get the always-full policy).
  void bind(const ir::Program& p, const MachineCaps& caps,
            const std::vector<const Transform*>& transforms);

  bool bound() const { return bound_; }

  /// Brings the index in sync with `p` — the program the bound one was
  /// mutated INTO by one accepted action — using the mutation's summary.
  /// O(dirty subtree + recheck spine) for adequately-reported mutations;
  /// falls back to a full rebuild on conservative summaries.
  void update(const ir::Program& p, const ir::MutationSummary& mut);

  /// The maintained list: element-identical to allActions(p, caps) for the
  /// last program passed to bind()/update(). Invalidated by both.
  const std::vector<Action>& actions() const { return actions_; }

  /// Verifies the invariant against a fresh enumeration; on mismatch returns
  /// false and describes the first divergence (test / oracle aid).
  bool selfCheck(const ir::Program& p, std::string* detail = nullptr) const;

  const ActionSetStats& stats() const { return stats_; }

 private:
  /// How one transform's sites react to a mutation; resolved by name once
  /// per bind(). The soundness argument per field is in action_set.cpp.
  struct Policy {
    bool always_full = false;
    bool header_only = false;
    bool buffers_full = false;
    bool widen_to_parent = false;
    bool recheck_ancestors = false;
    bool recheck_prev_siblings = false;
    bool owner_is_parent = false;
  };
  static Policy policyFor(const std::string& name);

  /// Dense-by-NodeId flatten of the indexed program: enough structure to
  /// splice location lists by pre-order position without rendering anything.
  struct Flat {
    std::vector<std::int32_t> pos;       // pre-order index; -1 = absent id
    std::vector<std::int32_t> end;       // exclusive subtree end (pre-order)
    std::vector<ir::NodeId> parent;      // kInvalidNode for the root
    std::vector<ir::NodeId> prev_sib;    // kInvalidNode for first children
    std::vector<std::int32_t> child_idx; // index within parent.children
    ir::NodeId root_id = ir::kInvalidNode;
    std::size_t node_count = 0;

    bool known(ir::NodeId id) const {
      return id < pos.size() && pos[id] >= 0;
    }
  };

  void rebuildAll(const ir::Program& p);
  void rebuildActions();
  void updateTransform(std::size_t ti, const ir::Program& p,
                       const ir::MutationSummary& mut, const Flat& next);
  static void flatten(const ir::Program& p, Flat& f);

  std::vector<const Transform*> transforms_;
  std::vector<Policy> policies_;             // parallel to transforms_
  MachineCaps caps_;
  std::vector<std::vector<Location>> locs_;  // parallel to transforms_
  std::vector<Action> actions_;              // concatenation cache
  Flat flat_;                                // of the indexed program
  ActionSetStats stats_;
  bool bound_ = false;
};

}  // namespace perfdojo::transform
