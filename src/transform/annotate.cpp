// Annotation transformations: unroll, vectorize, parallelize, GPU mapping,
// and the Snitch SSR/FREP extensions. Annotations never change observable
// semantics (the interpreter ignores them); their applicability checks
// guarantee the *hardware* interpretation is also faithful (e.g. a
// parallelized scope really has independent iterations).
#include <algorithm>

#include "ir/walk.h"
#include "support/common.h"
#include "transform/checked.h"
#include "transform/deps.h"
#include "transform/transform.h"

namespace perfdojo::transform {

using ir::LoopAnno;
using ir::Node;
using ir::NodeId;
using ir::Operand;
using ir::Program;

namespace {

/// True if `id` lies beneath a scope carrying any of the given annotations.
bool nestedUnderAnno(const Program& p, NodeId id,
                     std::initializer_list<LoopAnno> annos) {
  for (const Node* s : ir::enclosingScopeNodes(p.root, id))
    if (std::find(annos.begin(), annos.end(), s->anno) != annos.end())
      return true;
  return false;
}

/// True if any scope in the subtree under `n` (inclusive) has one of annos.
bool containsAnno(const Node& n, std::initializer_list<LoopAnno> annos) {
  bool found = false;
  ir::visit(n, [&](const Node& c) {
    if (c.isScope() && std::find(annos.begin(), annos.end(), c.anno) != annos.end())
      found = true;
  });
  return found;
}

class SetAnnoBase : public CheckedTransform {
 public:
  // All annotation transforms enumerate the same way — every scope passing a
  // caps gate plus a per-scope predicate — so the full/scoped/single-node
  // triple lives here once and subclasses only override ok/capsGate/
  // okWithCaps.
  bool isApplicable(const Program& p, const Location& loc) const final {
    const Node* s = scopeSite(p, loc.node);
    return s != nullptr && ok(p, *s);
  }

  std::vector<Location> findApplicable(const Program& p,
                                       const MachineCaps& caps) const override {
    return findApplicable(p, caps, p.root.id);
  }

  std::vector<Location> findApplicable(const Program& p, const MachineCaps& caps,
                                       ir::NodeId subtree_root) const override {
    if (!capsGate(caps)) return {};
    return scopeLocationsWithin(p, subtree_root, [&](const Node& s) {
      return okWithCaps(p, caps, s);
    });
  }

  std::vector<Location> findApplicableAt(const Program& p, const MachineCaps& caps,
                                         ir::NodeId node) const override {
    if (!capsGate(caps)) return {};
    return scopeLocationAt(p, node, [&](const Node& s) {
      return okWithCaps(p, caps, s);
    });
  }

 protected:
  void applyChecked(Program& q, const Location& loc) const override {
    // Only the scope's own line (the anno suffix) changes.
    reportDirtySubtree(loc.node);
    ir::findNode(q.root, loc.node)->anno = target();
  }
  virtual LoopAnno target() const = 0;
  /// The semantic check on a non-root scope `s` of `p`.
  virtual bool ok(const Program& p, const Node& s) const = 0;
  /// Machine-level gate: false means this transform offers nothing at all on
  /// these caps (no per-scope work done).
  virtual bool capsGate(const MachineCaps&) const { return true; }
  /// Per-scope predicate including caps-dependent parameter limits; defaults
  /// to the semantic check alone.
  virtual bool okWithCaps(const Program& p, const MachineCaps&,
                          const Node& s) const {
    return ok(p, s);
  }
};

// ---------------------------------------------------------------------------

class Unroll final : public SetAnnoBase {
 public:
  std::string name() const override { return "unroll"; }

 protected:
  bool ok(const Program&, const Node& s) const override {
    if (s.anno != LoopAnno::None) return false;
    return s.extent <= 64;  // hard sanity bound; caps tighten in enumeration
  }
  bool okWithCaps(const Program& p, const MachineCaps& caps,
                  const Node& s) const override {
    return ok(p, s) && s.extent <= caps.max_unroll;
  }
  LoopAnno target() const override { return LoopAnno::Unroll; }
};

// ---------------------------------------------------------------------------

/// A scope is vectorizable when it wraps exactly one operation whose every
/// array access either ignores the scope's iterator or is contiguous in it
/// (coefficient 1 in the innermost index dimension only). This is the
/// paper's decomposition: tiling to the vector width must be applied first,
/// after which vectorization is a single atomic, checkable step.
bool vectorizableBody(const Node& s) {
  if (s.children.size() != 1 || !s.children[0].isOp()) return false;
  const Node& op = s.children[0];
  auto accessOk = [&](const ir::Access& a) {
    bool used = false;
    for (std::size_t i = 0; i < a.idx.size(); ++i) {
      if (!a.idx[i].usesIter(s.id)) continue;
      if (i != a.idx.size() - 1) return false;  // non-innermost dimension
      std::vector<ir::IndexExpr::AffineTerm> terms;
      std::int64_t off = 0;
      if (!a.idx[i].asAffine(terms, off)) return false;
      for (const auto& t : terms)
        if (t.scope == s.id && t.coef != 1) return false;
      used = true;
    }
    (void)used;
    return true;
  };
  // The output must vary with the lane iterator (lanes writing one element
  // would race; vector reductions need horizontal intrinsics we do not
  // model). Inputs may broadcast.
  if (!op.out.usesIter(s.id)) return false;
  if (!accessOk(op.out)) return false;
  for (const auto& in : op.ins) {
    if (in.kind == Operand::Kind::Array && !accessOk(in.access)) return false;
    if (in.kind == Operand::Kind::Iter && in.iter_expr.usesIter(s.id))
      return false;  // lane-varying scalar operand unsupported
  }
  return true;
}

class Vectorize final : public SetAnnoBase {
 public:
  std::string name() const override { return "vectorize"; }

 protected:
  bool ok(const Program&, const Node& s) const override {
    if (s.anno != LoopAnno::None) return false;
    static const std::int64_t common_widths[] = {2, 4, 8, 16, 32, 64};
    if (std::find(std::begin(common_widths), std::end(common_widths),
                  s.extent) == std::end(common_widths))
      return false;
    return vectorizableBody(s);
  }
  bool okWithCaps(const Program& p, const MachineCaps& caps,
                  const Node& s) const override {
    if (!ok(p, s)) return false;
    return std::find(caps.vector_widths.begin(), caps.vector_widths.end(),
                     s.extent) != caps.vector_widths.end();
  }
  LoopAnno target() const override { return LoopAnno::Vector; }
};

// ---------------------------------------------------------------------------

class Parallelize final : public SetAnnoBase {
 public:
  std::string name() const override { return "parallelize"; }

 protected:
  bool ok(const Program& p, const Node& s) const override {
    if (s.anno != LoopAnno::None) return false;
    // One level of CPU parallelism: not nested under or above another :p.
    if (nestedUnderAnno(p, s.id, {LoopAnno::Parallel})) return false;
    if (containsAnno(s, {LoopAnno::Parallel})) return false;
    return iterationsIndependent(p, s);
  }
  bool capsGate(const MachineCaps& caps) const override {
    return caps.has_parallel && !caps.is_gpu;
  }
  LoopAnno target() const override { return LoopAnno::Parallel; }
};

// ---------------------------------------------------------------------------

class GpuMapGrid final : public SetAnnoBase {
 public:
  std::string name() const override { return "gpu_map_grid"; }

 protected:
  bool ok(const Program& p, const Node& s) const override {
    if (s.anno != LoopAnno::None) return false;
    // Multi-dimensional grids nest :g under :g; thread-level scopes may not
    // spawn grids.
    if (nestedUnderAnno(p, s.id, {LoopAnno::GpuBlock, LoopAnno::GpuWarp}))
      return false;
    return iterationsIndependent(p, s);
  }
  bool capsGate(const MachineCaps& caps) const override { return caps.is_gpu; }
  LoopAnno target() const override { return LoopAnno::GpuGrid; }
};

class GpuMapBlock final : public SetAnnoBase {
 public:
  std::string name() const override { return "gpu_map_block"; }

 protected:
  bool ok(const Program& p, const Node& s) const override {
    if (s.anno != LoopAnno::None) return false;
    // Block scopes nest inside the grid mapping.
    if (!nestedUnderAnno(p, s.id, {LoopAnno::GpuGrid})) return false;
    if (nestedUnderAnno(p, s.id, {LoopAnno::GpuWarp})) return false;
    if (s.extent > 1024) return false;
    return iterationsIndependent(p, s);
  }
  bool capsGate(const MachineCaps& caps) const override { return caps.is_gpu; }
  bool okWithCaps(const Program& p, const MachineCaps& caps,
                  const Node& s) const override {
    return ok(p, s) && s.extent <= caps.max_block_threads;
  }
  LoopAnno target() const override { return LoopAnno::GpuBlock; }
};

class GpuMapWarp final : public SetAnnoBase {
 public:
  std::string name() const override { return "gpu_map_warp"; }

 protected:
  bool ok(const Program& p, const Node& s) const override {
    if (s.anno != LoopAnno::None) return false;
    if (!nestedUnderAnno(p, s.id, {LoopAnno::GpuBlock})) return false;
    if (s.extent > 64) return false;  // at most one wavefront of lanes
    return iterationsIndependent(p, s);
  }
  bool capsGate(const MachineCaps& caps) const override { return caps.is_gpu; }
  bool okWithCaps(const Program& p, const MachineCaps& caps,
                  const Node& s) const override {
    return ok(p, s) && s.extent <= caps.warp_size;
  }
  LoopAnno target() const override { return LoopAnno::GpuWarp; }
};

// ---------------------------------------------------------------------------

/// Resolves a scope body that is a chain of fully-unrolled single-child
/// scopes ending in exactly one op (the shape SSR/FREP stream over: the
/// unrolled block becomes the repeated FP instruction sequence). Returns the
/// op, or nullptr if the body has any other shape.
const Node* streamableOp(const Node& s) {
  const Node* cur = &s;
  while (true) {
    if (cur->children.size() != 1) return nullptr;
    const Node& c = cur->children[0];
    if (c.isOp()) return &c;
    if (c.anno != LoopAnno::Unroll) return nullptr;
    cur = &c;
  }
}

/// Snitch SSR: operand fetch via stream semantic registers. Requires a
/// single-op (possibly unrolled) body with affine strides and at most three
/// streamed arrays (Snitch exposes three SSR data movers).
class SsrStream final : public SetAnnoBase {
 public:
  std::string name() const override { return "ssr_stream"; }

 protected:
  bool ok(const Program&, const Node& s) const override {
    if (s.anno != LoopAnno::None) return false;
    const Node* body = streamableOp(s);
    if (!body) return false;
    const Node& op = *body;
    int streams = 0;
    auto affineAccess = [&](const ir::Access& a) {
      for (const auto& e : a.idx) {
        std::vector<ir::IndexExpr::AffineTerm> terms;
        std::int64_t off = 0;
        if (!e.asAffine(terms, off)) return false;
      }
      return true;
    };
    // An accumulator held constant across the streamed loop lives in an FP
    // register, not an SSR stream: only operands whose address varies with
    // the streamed iteration occupy one of Snitch's three data movers.
    auto isStream = [&](const ir::Access& a) { return a.usesIter(s.id); };
    if (!affineAccess(op.out)) return false;
    if (isStream(op.out)) ++streams;
    for (const auto& in : op.ins) {
      if (in.kind != Operand::Kind::Array) continue;
      if (!affineAccess(in.access)) return false;
      // A non-varying accumulator read is the same FP register as the
      // output; a varying in-place operand needs its own read stream.
      if (in.access == op.out && !isStream(op.out)) continue;
      if (isStream(in.access)) ++streams;
    }
    return streams <= 3;
  }
  bool capsGate(const MachineCaps& caps) const override { return caps.has_ssr; }
  LoopAnno target() const override { return LoopAnno::Ssr; }
};

/// Snitch FREP: zero-overhead repetition of the FP instruction. Applied as an
/// upgrade of an SSR-streamed loop (operands must already come from streams),
/// mirroring the paper's insistence that composite optimizations decompose
/// into atomic, individually-checkable steps.
class Frep final : public SetAnnoBase {
 public:
  std::string name() const override { return "frep"; }

 protected:
  bool ok(const Program&, const Node& s) const override {
    if (s.anno != LoopAnno::Ssr) return false;
    const Node* op = streamableOp(s);
    return op != nullptr && ir::opIsFloatingPoint(op->op);
  }
  bool capsGate(const MachineCaps& caps) const override { return caps.has_frep; }
  LoopAnno target() const override { return LoopAnno::Frep; }
};

}  // namespace

const Transform& unroll() {
  static const Unroll t;
  return t;
}
const Transform& vectorize() {
  static const Vectorize t;
  return t;
}
const Transform& parallelize() {
  static const Parallelize t;
  return t;
}
const Transform& gpuMapGrid() {
  static const GpuMapGrid t;
  return t;
}
const Transform& gpuMapBlock() {
  static const GpuMapBlock t;
  return t;
}
const Transform& gpuMapWarp() {
  static const GpuMapWarp t;
  return t;
}
const Transform& ssrStream() {
  static const SsrStream t;
  return t;
}
const Transform& frep() {
  static const Frep t;
  return t;
}

}  // namespace perfdojo::transform
