#include "transform/deps.h"

#include "support/common.h"

namespace perfdojo::transform {

using ir::Access;
using ir::Buffer;
using ir::IndexExpr;
using ir::Node;
using ir::NodeId;
using ir::Program;

OpInfo opInfo(const Node& op) {
  require(op.isOp(), "opInfo: not an op node");
  OpInfo info;
  info.op = &op;
  info.write = &op.out;
  for (const auto& in : op.ins) {
    if (in.kind != ir::Operand::Kind::Array) continue;
    require(info.num_reads < info.read_slots.size(),
            "opInfo: more than 3 array operands");
    info.read_slots[info.num_reads++] = &in.access;
  }
  if (ir::opIsAssociativeCommutative(op.op)) {
    for (const Access* r : info.reads())
      if (*r == op.out) info.is_accumulation = true;
  } else if (op.op == ir::OpCode::Fma) {
    // out = a*b + out is a sum-of-products reduction (associative +
    // commutative over the additive accumulator).
    const auto& c = op.ins[2];
    if (c.kind == ir::Operand::Kind::Array && c.access == op.out)
      info.is_accumulation = true;
  }
  return info;
}

namespace {

void appendOpInfos(const Node& n, std::vector<OpInfo>& out) {
  if (n.isOp()) {
    out.push_back(opInfo(n));
    return;
  }
  for (const auto& c : n.children) appendOpInfos(c, out);
}

/// True when expr is affine with a non-zero coefficient on `iter` — the
/// injectivity witness used to prove distinct iterations touch distinct
/// elements.
bool affineNonzeroIn(const IndexExpr& e, NodeId iter) {
  std::vector<IndexExpr::AffineTerm> terms;
  std::int64_t off = 0;
  if (!e.asAffine(terms, off)) return false;
  for (const auto& t : terms)
    if (t.scope == iter && t.coef != 0) return true;
  return false;
}

}  // namespace

std::vector<OpInfo> collectOpInfos(const Node& root) {
  std::vector<OpInfo> out;
  appendOpInfos(root, out);
  return out;
}

bool mayAlias(const Program& p, const Access& a, const Access& b) {
  const Buffer* ba = p.bufferOfArray(a.array);
  const Buffer* bb = p.bufferOfArray(b.array);
  require(ba && bb, "mayAlias: unknown array");
  if (ba != bb) return false;
  if (a.array != b.array) return true;  // distinct arrays sharing storage
  for (std::size_t d = 0; d < ba->materialized.size(); ++d) {
    if (!ba->materialized[d]) continue;
    const IndexExpr& ea = a.idx[d];
    const IndexExpr& eb = b.idx[d];
    if (ea.isConst() && eb.isConst() && ea.constValue() != eb.constValue())
      return false;  // provably distinct elements
  }
  return true;
}

bool sameElementUnderIterMap(const Program& p, const Access& a, NodeId iter_a,
                             const Access& b, NodeId iter_b) {
  if (a.array != b.array) return false;
  const Buffer* ba = p.bufferOfArray(a.array);
  if (ba == nullptr) fail("deps: unknown array '" + a.array + "'");
  const IndexExpr unified = IndexExpr::iter(iter_a);
  bool uses_iter_injectively = false;
  for (std::size_t d = 0; d < ba->materialized.size(); ++d) {
    if (!ba->materialized[d]) continue;
    const IndexExpr& ea = a.idx[d];
    const IndexExpr eb = b.idx[d].substitute(iter_b, unified).simplified();
    if (!(ea == eb)) return false;
    if (affineNonzeroIn(ea, iter_a)) uses_iter_injectively = true;
  }
  // Agreement on every materialized dim AND per-iteration distinctness:
  // without the injectivity witness the dependency spans iterations (e.g. a
  // scalar accumulator finalized only after the whole loop), which fusion
  // would break.
  return uses_iter_injectively;
}

bool fusionLegal(const Program& p, std::span<const Node> body_a,
                 NodeId iter_a, std::span<const Node> body_b, NodeId iter_b) {
  std::vector<OpInfo> a_ops;
  std::vector<OpInfo> b_ops;
  for (const auto& n : body_a) appendOpInfos(n, a_ops);
  for (const auto& n : body_b) appendOpInfos(n, b_ops);
  auto crossOk = [&](const Access& wa, NodeId wi, const Access& ab, NodeId bi) {
    if (!mayAlias(p, wa, ab)) return true;
    return sameElementUnderIterMap(p, wa, wi, ab, bi);
  };
  for (const auto& oa : a_ops) {
    for (const auto& ob : b_ops) {
      // write(A) vs read(B)
      for (const Access* rb : ob.reads())
        if (!crossOk(*oa.write, iter_a, *rb, iter_b)) return false;
      // read(A) vs write(B)
      for (const Access* ra : oa.reads())
        if (!crossOk(*ob.write, iter_b, *ra, iter_a)) return false;
      // write vs write
      if (!crossOk(*oa.write, iter_a, *ob.write, iter_b)) return false;
    }
  }
  return true;
}

bool opsSwappable(const Program& p, const Node& a, const Node& b) {
  if (!a.isOp() || !b.isOp()) return false;
  const OpInfo ia = opInfo(a);
  const OpInfo ib = opInfo(b);
  for (const Access* r : ib.reads())
    if (mayAlias(p, *ia.write, *r)) return false;
  for (const Access* r : ia.reads())
    if (mayAlias(p, *ib.write, *r)) return false;
  if (mayAlias(p, *ia.write, *ib.write)) return false;
  return true;
}

bool interchangeLegal(const Program& p, const Node& outer, const Node& inner) {
  const auto ops = collectOpInfos(inner);  // nest body lives under inner
  // Group accesses per written array and apply the per-write rule.
  for (const auto& w : ops) {
    const Access& write = *w.write;
    const bool uses_outer = write.usesIter(outer.id);
    const bool uses_inner = write.usesIter(inner.id);
    if (uses_outer && uses_inner) {
      // Every aliasing read must match the write exactly (distance 0).
      for (const auto& o : ops) {
        for (const Access* r : o.reads()) {
          if (!mayAlias(p, write, *r)) continue;
          if (!(*r == write)) return false;
        }
      }
    } else {
      // Reduction over one (or both) of the swapped loops: only legal for
      // associative+commutative accumulation, and the only aliasing reads
      // must be the accumulation's own operand.
      if (!w.is_accumulation) return false;
      for (const auto& o : ops) {
        for (const Access* r : o.reads()) {
          if (!mayAlias(p, write, *r)) continue;
          if (!(*r == write)) return false;
        }
      }
      // Aliasing writes from other ops would interleave differently.
      for (const auto& o : ops) {
        if (o.op == w.op) continue;
        if (mayAlias(p, write, *o.write) && !(*o.write == write)) return false;
      }
    }
  }
  return true;
}

bool iterationsIndependent(const Program& p, const Node& scope) {
  const auto ops = collectOpInfos(scope);
  // Per written buffer: collect all accesses to it within the subtree.
  for (const auto& w : ops) {
    const Access& write = *w.write;
    const Buffer* wb = p.bufferOfArray(write.array);
    if (wb == nullptr) fail("deps: unknown array '" + write.array + "'");
    // Dimensions (materialized) in which the write uses the scope iterator.
    std::vector<std::size_t> iter_dims;
    bool injective = false;
    for (std::size_t d = 0; d < wb->materialized.size(); ++d) {
      if (!wb->materialized[d]) continue;
      if (write.idx[d].usesIter(scope.id)) {
        iter_dims.push_back(d);
        if (affineNonzeroIn(write.idx[d], scope.id)) injective = true;
      }
    }
    if (iter_dims.empty() || !injective) return false;  // reduction over scope
    // Every access (read or write) in the subtree that may alias this write
    // must agree with it syntactically on those dimensions.
    auto agree = [&](const Access& a) {
      if (p.bufferOfArray(a.array) != wb) return true;  // different storage
      if (a.array != write.array) return false;         // shared-buffer alias
      for (std::size_t d : iter_dims)
        if (!(a.idx[d] == write.idx[d])) return false;
      return true;
    };
    for (const auto& o : ops) {
      if (!agree(*o.write)) return false;
      for (const Access* r : o.reads())
        if (!agree(*r)) return false;
    }
  }
  return true;
}

}  // namespace perfdojo::transform
