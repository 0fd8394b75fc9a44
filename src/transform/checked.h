// Internal scaffolding for transformation implementations: apply() always
// revalidates through isApplicable(), so stale or forged Locations can never
// yield a semantically different program.
//
// Mutation reporting: while applyChecked runs, a thread-local capture (set up
// by applyInPlace) collects what the transform declares about its footprint —
// reportDirtySubtree() / reportBuffersChanged() / reportWholeTree(). A
// transform that reports nothing gets a conservative whole-program summary,
// which is always correct (the canonical-form arena then re-renders
// everything). The reporting contract is in ir::MutationSummary; the
// property tests and the fuzzer's incremental-hash oracle layer enforce that
// every report is adequate.
#pragma once

#include <vector>

#include "ir/incremental.h"
#include "ir/program.h"
#include "ir/walk.h"
#include "support/common.h"
#include "transform/transform.h"

namespace perfdojo::transform {

namespace detail {

struct ReportCapture {
  ir::MutationSummary* out = nullptr;
  bool any = false;  // did the transform report at all?
};

// Thread-local because transforms are shared singletons called concurrently
// from ParallelEvaluator workers.
inline thread_local ReportCapture* tl_report = nullptr;

/// RAII frame installing a capture target for the duration of one
/// applyChecked call. A null `out` (plain apply path) leaves the helpers as
/// no-ops. If the transform never reported, the summary falls back to
/// conservative on scope exit.
class ReportScope {
 public:
  explicit ReportScope(ir::MutationSummary* out) {
    if (!out) return;
    *out = ir::MutationSummary::none();
    cap_.out = out;
    prev_ = tl_report;
    tl_report = &cap_;
  }
  ~ReportScope() {
    if (!cap_.out) return;
    if (!cap_.any) *cap_.out = ir::MutationSummary::conservative();
    tl_report = prev_;
  }
  ReportScope(const ReportScope&) = delete;
  ReportScope& operator=(const ReportScope&) = delete;

 private:
  ReportCapture cap_;
  ReportCapture* prev_ = nullptr;
};

}  // namespace detail

/// Declares that every canonical-text change of this mutation lies inside
/// the subtree rooted at `id` (which must exist, with an unchanged ancestor
/// chain, both before and after the mutation).
inline void reportDirtySubtree(ir::NodeId id) {
  if (detail::ReportCapture* r = detail::tl_report) {
    r->any = true;
    r->out->dirty_scopes.push_back(id);
  }
}

/// Declares that the program header (buffer declarations) changed; the tree
/// dirt, if any, is still reported via reportDirtySubtree.
inline void reportBuffersChanged() {
  if (detail::ReportCapture* r = detail::tl_report) {
    r->any = true;
    r->out->buffers_changed = true;
  }
}

/// Explicit conservative report for transforms that rewrite accesses across
/// the whole tree (e.g. reorder_dims).
inline void reportWholeTree() {
  if (detail::ReportCapture* r = detail::tl_report) {
    r->any = true;
    r->out->whole_tree = true;
    r->out->buffers_changed = true;
  }
}

class CheckedTransform : public Transform {
 public:
  ir::Program apply(const ir::Program& p, const Location& loc) const final {
    ir::Program q = p;
    applyInPlace(q, loc, nullptr, /*validate=*/true);
    return q;
  }

  void applyInPlace(ir::Program& q, const Location& loc,
                    ir::MutationSummary* mut,
                    bool validate = true) const final {
    if (!isApplicable(q, loc))
      fail(name() + ": location not applicable to this program");
    detail::ReportScope scope(mut);
    applyChecked(q, loc);
    if (validate) q.validate();
  }

  /// Semantic + structural legality of applying at `loc` (capability gating,
  /// e.g. vector widths, happens only in findApplicable enumeration). It
  /// looks the site up once; enumeration tests the nodes it walks directly.
  virtual bool isApplicable(const ir::Program& p, const Location& loc) const = 0;

 protected:
  virtual void applyChecked(ir::Program& q, const Location& loc) const = 0;
};

/// The scope a scope-owned site at `node` names, or nullptr when `node` is
/// absent, an op, or the root container.
inline const ir::Node* scopeSite(const ir::Program& p, ir::NodeId node) {
  const ir::Node* s = ir::findNode(p.root, node);
  return s != nullptr && s->id != p.root.id && s->isScope() ? s : nullptr;
}

/// Enumeration of transforms with one parameterless location per passing
/// scope: `ok(const ir::Node&)` is tested on each scope within the subtree
/// at `r`, in collectScopesWithin order, so the result is the exact
/// subsequence of the full enumeration (r = p.root.id) that r owns.
template <typename Ok>
std::vector<Location> scopeLocationsWithin(const ir::Program& p, ir::NodeId r,
                                           Ok&& ok) {
  std::vector<Location> out;
  for (const ir::Node* s : ir::collectScopesWithin(p.root, r)) {
    if (!ok(*s)) continue;
    Location loc;
    loc.node = s->id;
    out.push_back(loc);
  }
  return out;
}

/// The single-node variant: the location at exactly `node`, if it passes.
template <typename Ok>
std::vector<Location> scopeLocationAt(const ir::Program& p, ir::NodeId node,
                                      Ok&& ok) {
  std::vector<Location> out;
  const ir::Node* s = scopeSite(p, node);
  if (s != nullptr && ok(*s)) {
    Location loc;
    loc.node = node;
    out.push_back(loc);
  }
  return out;
}

}  // namespace perfdojo::transform
