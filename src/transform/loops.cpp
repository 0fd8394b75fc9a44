// Loop-structure transformations: split (tiling), collapse, interchange,
// fusion (join_scopes), fission, and sibling reordering.
#include <algorithm>
#include <set>
#include <span>

#include "ir/walk.h"
#include "support/common.h"
#include "transform/checked.h"
#include "transform/deps.h"
#include "transform/transform.h"

namespace perfdojo::transform {

using ir::IndexExpr;
using ir::LoopAnno;
using ir::Node;
using ir::NodeId;
using ir::Program;

namespace {

void substituteInChildren(std::vector<Node>& children, NodeId from,
                          const IndexExpr& repl) {
  for (auto& c : children) ir::substituteIter(c, from, repl);
}

// ---------------------------------------------------------------------------

class SplitScope final : public CheckedTransform {
 public:
  std::string name() const override { return "split_scope"; }

  bool isApplicable(const Program& p, const Location& loc) const override {
    const Node* s = scopeSite(p, loc.node);
    return s != nullptr && ok(*s, loc.param);
  }

  std::vector<Location> findApplicable(const Program& p,
                                       const MachineCaps& caps) const override {
    return findApplicable(p, caps, p.root.id);
  }

  std::vector<Location> findApplicable(const Program& p, const MachineCaps& caps,
                                       ir::NodeId subtree_root) const override {
    std::vector<Location> out;
    const std::set<std::int64_t> factors = splitFactors(caps);
    for (const Node* s : ir::collectScopesWithin(p.root, subtree_root))
      emitAt(factors, *s, out);
    return out;
  }

  std::vector<Location> findApplicableAt(const Program& p, const MachineCaps& caps,
                                         ir::NodeId node) const override {
    std::vector<Location> out;
    if (const Node* s = scopeSite(p, node)) emitAt(splitFactors(caps), *s, out);
    return out;
  }

 private:
  static std::set<std::int64_t> splitFactors(const MachineCaps& caps) {
    std::set<std::int64_t> factors(caps.split_factors.begin(),
                                   caps.split_factors.end());
    for (std::int64_t w : caps.vector_widths) factors.insert(w);
    if (caps.is_gpu) factors.insert(caps.warp_size);
    return factors;
  }

  static bool ok(const Node& s, std::int64_t f) {
    if (s.anno != LoopAnno::None) return false;
    return f >= 2 && f < s.extent && s.extent % f == 0;
  }

  static void emitAt(const std::set<std::int64_t>& factors, const Node& s,
                     std::vector<Location>& out) {
    for (std::int64_t f : factors) {
      if (!ok(s, f)) continue;
      Location loc;
      loc.node = s.id;
      loc.param = f;
      out.push_back(loc);
    }
  }

 protected:
  void applyChecked(Program& q, const Location& loc) const override {
    Node* s = ir::findNode(q.root, loc.node);
    // `s` keeps its id and stays in place: all text changes are inside it.
    reportDirtySubtree(s->id);
    const std::int64_t f = loc.param;
    const NodeId inner_id = q.freshId();
    // iter(s) -> iter(s) * f + iter(inner); the node `s` keeps its id and
    // becomes the outer loop of extent N/f.
    const IndexExpr repl = IndexExpr::add(
        IndexExpr::mul(IndexExpr::iter(s->id), IndexExpr::constant(f)),
        IndexExpr::iter(inner_id));
    substituteInChildren(s->children, s->id, repl);
    Node inner = Node::scope(inner_id, f);
    inner.children = std::move(s->children);
    s->children.clear();
    s->children.push_back(std::move(inner));
    s->extent /= f;
  }
};

// ---------------------------------------------------------------------------

class CollapseScopes final : public CheckedTransform {
 public:
  std::string name() const override { return "collapse_scopes"; }

  bool isApplicable(const Program& p, const Location& loc) const override {
    const Node* s = scopeSite(p, loc.node);
    return s != nullptr && ok(*s);
  }

  std::vector<Location> findApplicable(const Program& p,
                                       const MachineCaps& caps) const override {
    return findApplicable(p, caps, p.root.id);
  }

  std::vector<Location> findApplicable(const Program& p, const MachineCaps&,
                                       ir::NodeId subtree_root) const override {
    return scopeLocationsWithin(p, subtree_root, ok);
  }

  std::vector<Location> findApplicableAt(const Program& p, const MachineCaps&,
                                         ir::NodeId node) const override {
    return scopeLocationAt(p, node, ok);
  }

 private:
  static bool ok(const Node& s) {
    if (s.anno != LoopAnno::None) return false;
    if (s.children.size() != 1 || !s.children[0].isScope()) return false;
    return s.children[0].anno == LoopAnno::None;
  }

 protected:
  void applyChecked(Program& q, const Location& loc) const override {
    // The collapsed scope changes its own id, so the stable dirty root is
    // its parent (the root container when collapsing a top-level nest).
    reportDirtySubtree(ir::findParent(q.root, loc.node)->id);
    Node* outer = ir::findNode(q.root, loc.node);
    Node inner = std::move(outer->children[0]);
    const std::int64_t ni = inner.extent;
    const NodeId merged_id = q.freshId();
    // iter(outer) -> merged / ni ; iter(inner) -> merged % ni.
    substituteInChildren(
        inner.children, outer->id,
        IndexExpr::div(IndexExpr::iter(merged_id), IndexExpr::constant(ni)));
    substituteInChildren(
        inner.children, inner.id,
        IndexExpr::mod(IndexExpr::iter(merged_id), IndexExpr::constant(ni)));
    outer->extent *= ni;
    outer->id = merged_id;
    outer->children = std::move(inner.children);
  }
};

// ---------------------------------------------------------------------------

class InterchangeScopes final : public CheckedTransform {
 public:
  std::string name() const override { return "interchange_scopes"; }

  bool isApplicable(const Program& p, const Location& loc) const override {
    const Node* s = scopeSite(p, loc.node);
    return s != nullptr && ok(p, *s);
  }

  std::vector<Location> findApplicable(const Program& p,
                                       const MachineCaps& caps) const override {
    return findApplicable(p, caps, p.root.id);
  }

  std::vector<Location> findApplicable(const Program& p, const MachineCaps&,
                                       ir::NodeId subtree_root) const override {
    return scopeLocationsWithin(p, subtree_root,
                                [&](const Node& s) { return ok(p, s); });
  }

  std::vector<Location> findApplicableAt(const Program& p, const MachineCaps&,
                                         ir::NodeId node) const override {
    return scopeLocationAt(p, node, [&](const Node& s) { return ok(p, s); });
  }

 private:
  static bool ok(const Program& p, const Node& outer) {
    if (outer.anno != LoopAnno::None) return false;
    if (outer.children.size() != 1 || !outer.children[0].isScope()) return false;
    const Node& inner = outer.children[0];
    if (inner.anno != LoopAnno::None) return false;
    return interchangeLegal(p, outer, inner);
  }

 protected:
  void applyChecked(Program& q, const Location& loc) const override {
    // Both nests swap ids, so neither is a stable dirty root; the parent is.
    reportDirtySubtree(ir::findParent(q.root, loc.node)->id);
    Node* outer = ir::findNode(q.root, loc.node);
    Node& inner = outer->children[0];
    // Swapping (id, extent, anno) between the two nests swaps the loops:
    // iterator references bind to ids, so the body is untouched.
    std::swap(outer->id, inner.id);
    std::swap(outer->extent, inner.extent);
    std::swap(outer->anno, inner.anno);
  }
};

// ---------------------------------------------------------------------------

class JoinScopes final : public CheckedTransform {
 public:
  std::string name() const override { return "join_scopes"; }

  bool isApplicable(const Program& p, const Location& loc) const override {
    const Node* parent = ir::findParent(p.root, loc.node);
    if (!parent) return false;
    const int i = ir::childIndex(*parent, loc.node);
    return i >= 0 && ok(p, *parent, static_cast<std::size_t>(i));
  }

  std::vector<Location> findApplicable(const Program& p,
                                       const MachineCaps& caps) const override {
    return findApplicable(p, caps, p.root.id);
  }

  // The sites are the scopes of the subtree in collectScopesWithin order,
  // each tested with the parent the walk holds (the predicate reads the
  // next sibling).
  std::vector<Location> findApplicable(const Program& p, const MachineCaps&,
                                       ir::NodeId subtree_root) const override {
    std::vector<Location> out;
    auto visit = [&](auto&& self, const Node& parent, std::size_t i) -> void {
      const Node& s = parent.children[i];
      if (!s.isScope()) return;
      if (ok(p, parent, i)) out.push_back(siteAt(s.id));
      for (std::size_t j = 0; j < s.children.size(); ++j) self(self, s, j);
    };
    if (subtree_root == p.root.id) {
      for (std::size_t j = 0; j < p.root.children.size(); ++j)
        visit(visit, p.root, j);
    } else if (const Node* parent = ir::findParent(p.root, subtree_root)) {
      visit(visit, *parent,
            static_cast<std::size_t>(ir::childIndex(*parent, subtree_root)));
    }
    return out;
  }

  std::vector<Location> findApplicableAt(const Program& p, const MachineCaps&,
                                         ir::NodeId node) const override {
    std::vector<Location> out;
    const Node* parent = ir::findParent(p.root, node);
    if (parent == nullptr) return out;
    const auto i = static_cast<std::size_t>(ir::childIndex(*parent, node));
    if (parent->children[i].isScope() && ok(p, *parent, i))
      out.push_back(siteAt(node));
    return out;
  }

 private:
  static Location siteAt(NodeId node) {
    Location loc;
    loc.node = node;
    return loc;
  }

  /// Fusing parent.children[i] with its next sibling.
  static bool ok(const Program& p, const Node& parent, std::size_t i) {
    if (i + 1 >= parent.children.size()) return false;
    const Node& s = parent.children[i];
    const Node& t = parent.children[i + 1];
    if (!s.isScope() || !t.isScope()) return false;
    if (s.extent != t.extent) return false;
    if (s.anno != LoopAnno::None || t.anno != LoopAnno::None) return false;
    return fusionLegal(p, s.children, s.id, t.children, t.id);
  }

 protected:
  void applyChecked(Program& q, const Location& loc) const override {
    Node* parent = ir::findParent(q.root, loc.node);
    // The fused sibling disappears from the parent's child list.
    reportDirtySubtree(parent->id);
    const int i = ir::childIndex(*parent, loc.node);
    Node& s = parent->children[static_cast<std::size_t>(i)];
    Node t = std::move(parent->children[static_cast<std::size_t>(i) + 1]);
    parent->children.erase(parent->children.begin() + i + 1);
    substituteInChildren(t.children, t.id, IndexExpr::iter(s.id));
    for (auto& c : t.children) s.children.push_back(std::move(c));
  }
};

// ---------------------------------------------------------------------------

class FissionScope final : public CheckedTransform {
 public:
  std::string name() const override { return "fission_scope"; }

  bool isApplicable(const Program& p, const Location& loc) const override {
    const Node* s = scopeSite(p, loc.node);
    if (s == nullptr) return false;
    const std::int64_t cut = loc.param;
    if (cut < 1 || cut >= static_cast<std::int64_t>(s->children.size()))
      return false;
    return ok(p, *s, static_cast<std::size_t>(cut));
  }

  std::vector<Location> findApplicable(const Program& p,
                                       const MachineCaps& caps) const override {
    return findApplicable(p, caps, p.root.id);
  }

  std::vector<Location> findApplicable(const Program& p, const MachineCaps&,
                                       ir::NodeId subtree_root) const override {
    std::vector<Location> out;
    for (const Node* s : ir::collectScopesWithin(p.root, subtree_root))
      emitAt(p, *s, out);
    return out;
  }

  std::vector<Location> findApplicableAt(const Program& p, const MachineCaps&,
                                         ir::NodeId node) const override {
    std::vector<Location> out;
    if (const Node* s = scopeSite(p, node)) emitAt(p, *s, out);
    return out;
  }

 private:
  /// Cutting s's children before index `cut` (1 <= cut < size).
  static bool ok(const Program& p, const Node& s, std::size_t cut) {
    if (s.anno != LoopAnno::None) return false;
    // Fission is legal iff the two halves could be legally fused back.
    const std::span<const Node> body(s.children);
    return fusionLegal(p, body.first(cut), s.id, body.subspan(cut), s.id);
  }

  void emitAt(const Program& p, const Node& s, std::vector<Location>& out) const {
    for (std::size_t cut = 1; cut < s.children.size(); ++cut) {
      if (!ok(p, s, cut)) continue;
      Location loc;
      loc.node = s.id;
      loc.param = static_cast<std::int64_t>(cut);
      out.push_back(loc);
    }
  }

 protected:
  void applyChecked(Program& q, const Location& loc) const override {
    // A new sibling scope appears next to `s` in the parent's child list.
    reportDirtySubtree(ir::findParent(q.root, loc.node)->id);
    Node* s = ir::findNode(q.root, loc.node);
    const auto cut = static_cast<std::size_t>(loc.param);
    Node t = Node::scope(q.freshId(), s->extent);
    t.children.assign(std::make_move_iterator(s->children.begin() + static_cast<std::ptrdiff_t>(cut)),
                      std::make_move_iterator(s->children.end()));
    s->children.resize(cut);
    substituteInChildren(t.children, s->id, IndexExpr::iter(t.id));
    Node* parent = ir::findParent(q.root, loc.node);
    const int i = ir::childIndex(*parent, loc.node);
    parent->children.insert(parent->children.begin() + i + 1, std::move(t));
  }
};

// ---------------------------------------------------------------------------

class ReorderOps final : public CheckedTransform {
 public:
  std::string name() const override { return "reorder_ops"; }

  bool isApplicable(const Program& p, const Location& loc) const override {
    const Node* parent = ir::findParent(p.root, loc.node);
    if (!parent) return false;
    const int i = ir::childIndex(*parent, loc.node);
    return i >= 0 && ok(p, *parent, static_cast<std::size_t>(i));
  }

  std::vector<Location> findApplicable(const Program& p,
                                       const MachineCaps& caps) const override {
    return findApplicable(p, caps, p.root.id);
  }

  // Ownership note: a reorder site is attributed to the PARENT whose child
  // list it permutes (loc.node is the left child, but the enumeration walks
  // parents). Scoped/At therefore key on the parent node; ActionSet's
  // classification table for reorder_ops matches.
  std::vector<Location> findApplicable(const Program& p, const MachineCaps& caps,
                                       ir::NodeId subtree_root) const override {
    std::vector<Location> out;
    const Node* sub = ir::findNode(p.root, subtree_root);
    if (sub == nullptr) return out;
    ir::visit(*sub, [&](const Node& parent) { emitAt(p, caps, parent, out); });
    return out;
  }

  std::vector<Location> findApplicableAt(const Program& p, const MachineCaps& caps,
                                         ir::NodeId node) const override {
    std::vector<Location> out;
    const Node* parent = ir::findNode(p.root, node);
    if (parent != nullptr) emitAt(p, caps, *parent, out);
    return out;
  }

 private:
  /// Swapping parent.children[i] with its next sibling.
  static bool ok(const Program& p, const Node& parent, std::size_t i) {
    if (i + 1 >= parent.children.size()) return false;
    // Entire subtrees must be independent: no write of one may alias any
    // access of the other.
    const auto as = collectOpInfos(parent.children[i]);
    const auto bs = collectOpInfos(parent.children[i + 1]);
    for (const auto& oa : as) {
      for (const auto& ob : bs) {
        if (mayAlias(p, *oa.write, *ob.write)) return false;
        for (const ir::Access* r : ob.reads())
          if (mayAlias(p, *oa.write, *r)) return false;
        for (const ir::Access* r : oa.reads())
          if (mayAlias(p, *ob.write, *r)) return false;
      }
    }
    return true;
  }

  void emitAt(const Program& p, const MachineCaps&, const Node& parent,
              std::vector<Location>& out) const {
    if (!parent.isScope()) return;
    for (std::size_t i = 0; i + 1 < parent.children.size(); ++i) {
      if (!ok(p, parent, i)) continue;
      Location loc;
      loc.node = parent.children[i].id;
      out.push_back(loc);
    }
  }

 protected:
  void applyChecked(Program& q, const Location& loc) const override {
    Node* parent = ir::findParent(q.root, loc.node);
    reportDirtySubtree(parent->id);
    const int i = ir::childIndex(*parent, loc.node);
    std::swap(parent->children[static_cast<std::size_t>(i)],
              parent->children[static_cast<std::size_t>(i) + 1]);
  }
};

}  // namespace

const Transform& splitScope() {
  static const SplitScope t;
  return t;
}
const Transform& collapseScopes() {
  static const CollapseScopes t;
  return t;
}
const Transform& interchangeScopes() {
  static const InterchangeScopes t;
  return t;
}
const Transform& joinScopes() {
  static const JoinScopes t;
  return t;
}
const Transform& fissionScope() {
  static const FissionScope t;
  return t;
}
const Transform& reorderOps() {
  static const ReorderOps t;
  return t;
}

}  // namespace perfdojo::transform
