// One search state and its applicable moves (the paper's game state, Section
// 2): a bound base program, its maintained action list, and the delta
// pricing of every (base, action) neighbor.
//
// Neighbors are treated as (base, action) pairs. neighborHash() prices the
// pair's identity — the canonical hash the memo table keys on — by mutating
// a scratch copy in place, probing a read-only canonical form of the base,
// and undoing the mutation by restoring only the reported-dirty subtrees. A
// full validated tree copy (a.apply(base())) is made only when a candidate
// must outlive the probe: a new best program, or a child admitted to the
// exact tier's frontier; a memo miss is priced on the live scratch tree
// (neighborVisit), and an accepted move is committed in place (accept).
//
// The canonical form is an ir::CanonicalArena: dense pre-order SoA
// flattening with the canonical text in one contiguous slab. Probing splices
// — clean byte ranges hash in single FNV calls, undo looks nodes up through
// the arena's NodeId->slot index and parent chains instead of O(n) tree
// searches, and the id watermark (`next_id`) resets in O(1).
//
// The action list is a transform::ActionSet: bind() enumerates it once, and
// accept() splices it from the accepted move's mutation summary, so a child
// state is derived from its parent by copy + accept, never by re-enumerating.
//
// Hashes are bit-identical to ir::canonicalHash(action.apply(base)) and
// actions() is element-identical to transform::allActions(base, caps) — the
// property suites and the fuzzer's arena-delta and action-set oracle layers
// enforce both — so a search on Neighborhoods makes exactly the decisions
// of the copy pipeline (allActions per state, apply-copy + full re-render)
// that the tests, fuzzer and benches keep as their reference.
//
// Copies are deep and independent: copy construction and assignment rebuild
// the NodeId -> node index against the copy's own base. A bound
// Neighborhood may be copied concurrently by many threads; each copy is
// then private to its thread (neighborHash mutates the scratch tree).
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "ir/arena.h"
#include "ir/program.h"
#include "transform/action_set.h"
#include "transform/transform.h"

namespace perfdojo::ir {
struct MutationSummary;
}

namespace perfdojo::search {

struct NeighborhoodStats {
  std::int64_t neighbors_hashed = 0;
  /// Neighbors whose transform reported conservatively (whole-program
  /// re-render on both the forward and the undo update).
  std::int64_t whole_tree_fallbacks = 0;
  /// Accepted moves committed through accept().
  std::int64_t accepts = 0;
};

class Neighborhood {
 public:
  Neighborhood() = default;
  Neighborhood(const Neighborhood& o) { *this = o; }
  Neighborhood& operator=(const Neighborhood& o);

  /// Fixes the base program: copies it twice (base + scratch), renders its
  /// canonical form once and enumerates its actions against `caps`.
  /// Amortized over every neighbor hashed from it.
  void bind(const ir::Program& base, const transform::MachineCaps& caps);

  const ir::Program& base() const { return base_; }
  std::uint64_t baseHash() const { return base_hash_; }
  /// canonicalText(base()), reassembled from the canonical form: the text a
  /// visited neighbor's splice edits.
  std::string baseText() const { return arena_.text(); }

  /// The base's applicable actions: element-identical to
  /// transform::allActions(base(), caps). Invalidated by bind() and accept().
  const std::vector<transform::Action>& actions() const {
    return aset_.actions();
  }

  /// Canonical hash of a.apply(base()) without performing the copy or the
  /// validation: apply in place on the scratch tree, probe the base's
  /// canonical form (read-only), undo. Throws if the action does not apply —
  /// and on ANY throw (apply, probe, or an undo over a bad mutation report)
  /// fully resynchronizes the scratch state, so the Neighborhood stays
  /// usable and the next neighborHash is bit-exact.
  std::uint64_t neighborHash(const transform::Action& a);

  /// Read-only visitor over a live neighbor: (canonical hash, the mutated
  /// scratch tree, its canonical text as a splice of baseText()). Both
  /// references are valid only for the duration of the call — the undo and
  /// the next probe reuse their storage.
  using NeighborVisitor = std::function<void(
      std::uint64_t, const ir::Program&, const ir::TextSplice&)>;

  /// neighborHash() that additionally hands the mutated scratch tree to
  /// `visit` between the probe and the undo. The visited program is
  /// content-identical to a.apply(base()) — so a cost model evaluated inside
  /// the visitor prices the candidate WITHOUT the second apply and the full
  /// base copy that a.apply(base()) pays. Same exception contract as
  /// neighborHash: any throw (including from the visitor) resynchronizes the
  /// scratch state before propagating.
  std::uint64_t neighborVisit(const transform::Action& a,
                              const NeighborVisitor& visit);

  /// Commits an accepted action: the base BECOMES a.apply(base()). The
  /// mutation is applied in place on the scratch tree, the canonical form is
  /// REBASED from the mutation summary — clean slabs and columns move, only
  /// dirty subtrees re-render — and the action list is spliced from the same
  /// summary, making acceptance O(dirty subtree) like pricing. Afterwards
  /// the Neighborhood is indistinguishable from a fresh bind of the new base
  /// (hash, program, actions). `a` may alias an element of actions().
  ///
  /// Only the post-mutation structural validation is skipped: applyInPlace
  /// still requires isApplicable on this exact base, so a stale or forged
  /// action throws; the Neighborhood then still describes the OLD base,
  /// fully usable.
  const ir::Program& accept(const transform::Action& a);

  const NeighborhoodStats& stats() const { return stats_; }

 private:
  void reindex();
  void undo(const ir::MutationSummary& mut);
  /// Finds the node with `id` in the scratch tree by walking the base
  /// parent chain from the arena (O(depth * siblings), not O(n)); nullptr
  /// if the mutation report broke the unchanged-ancestors contract.
  ir::Node* locateScratch(ir::NodeId id);

  ir::Program base_;
  ir::Program scratch_;
  ir::CanonicalArena arena_;  // canonical form of base_
  transform::ActionSet aset_;  // applicable actions of base_
  /// NodeId -> node in base_ (dense, rebuilt by bind, accept and copies):
  /// O(1) undo sources. Points into this object's own base_.
  std::vector<const ir::Node*> base_index_;
  std::vector<ir::NodeId> chain_buf_;
  std::uint64_t base_hash_ = 0;
  bool bound_ = false;
  NeighborhoodStats stats_;
};

}  // namespace perfdojo::search
