// The mutation report every in-place transform hands to the incremental
// consumers of a program: the canonical-form arena (ir::CanonicalArena
// probe/rebase), the delta pricing of a search state (search::Neighborhood)
// and the maintained action index (transform::ActionSet).
//
// FNV-1a is sequential over bytes, so the canonical hash cannot be composed
// from independent child hashes while staying bit-identical to
// fnv1a(canonicalText(p)) — and bit identity is non-negotiable: memo tables,
// witness files and telemetry traces all key on that exact value. What the
// summary buys is knowing which rendered lines are still valid, so only the
// reported-dirty subtrees (plus the header when buffers changed) re-render.
//
// The invariant enforced by the property tests and the fuzzer's
// incremental-hash oracle layer:
//   CanonicalArena::rebase(q, mut).hash() == fnv1a(canonicalText(q))
// for every mutation p -> q a transform reports.
#pragma once

#include <vector>

#include "ir/program.h"

namespace perfdojo::ir {

/// What a transform reports about the mutation it performed. Default-
/// constructed it claims everything changed — always safe, never fast.
///
/// Contract for a non-conservative summary: every reported dirty id must
/// name a node that exists in BOTH the pre- and post-mutation program with
/// an unchanged enclosing-scope chain (same ancestors, same depth), and the
/// union of the reported subtrees (in the post program) must contain every
/// node whose canonical line changed. Nodes created or destroyed by the
/// mutation must lie inside a reported subtree. If buffers (or the program
/// header in any way) changed, buffers_changed must be set.
struct MutationSummary {
  bool whole_tree = true;
  bool buffers_changed = true;
  /// Roots of the dirty subtrees (meaningful only when !whole_tree).
  std::vector<NodeId> dirty_scopes;

  static MutationSummary conservative() { return MutationSummary{}; }
  static MutationSummary none() {
    MutationSummary m;
    m.whole_tree = false;
    m.buffers_changed = false;
    return m;
  }
};

}  // namespace perfdojo::ir
