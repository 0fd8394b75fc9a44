#include "ir/index_expr.h"

#include <algorithm>

#include "support/common.h"

namespace perfdojo::ir {

IndexExpr IndexExpr::constant(std::int64_t v) {
  IndexExpr e;
  e.kind_ = Kind::Const;
  e.value_ = v;
  return e;
}

IndexExpr IndexExpr::iter(NodeId scope) {
  require(scope != kInvalidNode, "IndexExpr::iter: invalid scope id");
  IndexExpr e;
  e.kind_ = Kind::Iter;
  e.iter_ = scope;
  return e;
}

namespace {
IndexExpr makeBinary(IndexExpr::Kind k, IndexExpr a, IndexExpr b) {
  return IndexExpr::binary(k, std::move(a), std::move(b));
}
}  // namespace

IndexExpr IndexExpr::binary(Kind k, IndexExpr a, IndexExpr b) {
  IndexExpr e;
  e.kind_ = k;
  e.kids_.reserve(2);
  e.kids_.push_back(std::move(a));
  e.kids_.push_back(std::move(b));
  return e;
}

IndexExpr IndexExpr::add(IndexExpr a, IndexExpr b) { return makeBinary(Kind::Add, std::move(a), std::move(b)); }
IndexExpr IndexExpr::sub(IndexExpr a, IndexExpr b) { return makeBinary(Kind::Sub, std::move(a), std::move(b)); }
IndexExpr IndexExpr::mul(IndexExpr a, IndexExpr b) { return makeBinary(Kind::Mul, std::move(a), std::move(b)); }
IndexExpr IndexExpr::div(IndexExpr a, IndexExpr b) { return makeBinary(Kind::Div, std::move(a), std::move(b)); }
IndexExpr IndexExpr::mod(IndexExpr a, IndexExpr b) { return makeBinary(Kind::Mod, std::move(a), std::move(b)); }

std::int64_t IndexExpr::constValue() const {
  require(kind_ == Kind::Const, "IndexExpr::constValue on non-const");
  return value_;
}

NodeId IndexExpr::iterScope() const {
  require(kind_ == Kind::Iter, "IndexExpr::iterScope on non-iter");
  return iter_;
}

const IndexExpr& IndexExpr::lhs() const {
  require(kids_.size() == 2, "IndexExpr::lhs on leaf");
  return kids_[0];
}

const IndexExpr& IndexExpr::rhs() const {
  require(kids_.size() == 2, "IndexExpr::rhs on leaf");
  return kids_[1];
}

void IndexExpr::collectIters(std::vector<NodeId>& out) const {
  if (kind_ == Kind::Iter) {
    if (std::find(out.begin(), out.end(), iter_) == out.end()) out.push_back(iter_);
    return;
  }
  for (const auto& k : kids_) k.collectIters(out);
}

bool IndexExpr::usesIter(NodeId scope) const {
  if (kind_ == Kind::Iter) return iter_ == scope;
  for (const auto& k : kids_)
    if (k.usesIter(scope)) return true;
  return false;
}

IndexExpr IndexExpr::substitute(NodeId from, const IndexExpr& repl) const {
  if (kind_ == Kind::Iter) return iter_ == from ? repl : *this;
  if (kind_ == Kind::Const) return *this;
  return binary(kind_, kids_[0].substitute(from, repl),
                kids_[1].substitute(from, repl));
}

IndexExpr IndexExpr::simplified() const {
  if (kids_.empty()) return *this;
  IndexExpr a = kids_[0].simplified();
  IndexExpr b = kids_[1].simplified();
  if (a.isConst() && b.isConst()) {
    const std::int64_t x = a.value_;
    const std::int64_t y = b.value_;
    switch (kind_) {
      case Kind::Add: return constant(x + y);
      case Kind::Sub: return constant(x - y);
      case Kind::Mul: return constant(x * y);
      case Kind::Div: return y != 0 ? constant(x / y) : *this;
      case Kind::Mod: return y != 0 ? constant(x % y) : *this;
      default: break;
    }
  }
  if (kind_ == Kind::Add) {
    if (a.isConst() && a.value_ == 0) return b;
    if (b.isConst() && b.value_ == 0) return a;
  }
  if (kind_ == Kind::Sub && b.isConst() && b.value_ == 0) return a;
  if (kind_ == Kind::Mul) {
    if (a.isConst() && a.value_ == 1) return b;
    if (b.isConst() && b.value_ == 1) return a;
    if ((a.isConst() && a.value_ == 0) || (b.isConst() && b.value_ == 0))
      return constant(0);
  }
  if (kind_ == Kind::Div && b.isConst() && b.value_ == 1) return a;
  return binary(kind_, std::move(a), std::move(b));
}

bool IndexExpr::asAffine(std::vector<AffineTerm>& terms, std::int64_t& offset) const {
  switch (kind_) {
    case Kind::Const:
      offset += value_;
      return true;
    case Kind::Iter: {
      for (auto& t : terms) {
        if (t.scope == iter_) {
          t.coef += 1;
          return true;
        }
      }
      terms.push_back({iter_, 1});
      return true;
    }
    case Kind::Add:
      return kids_[0].asAffine(terms, offset) && kids_[1].asAffine(terms, offset);
    case Kind::Sub: {
      if (!kids_[0].asAffine(terms, offset)) return false;
      std::vector<AffineTerm> neg;
      std::int64_t noff = 0;
      if (!kids_[1].asAffine(neg, noff)) return false;
      offset -= noff;
      for (const auto& t : neg) {
        bool found = false;
        for (auto& u : terms) {
          if (u.scope == t.scope) {
            u.coef -= t.coef;
            found = true;
            break;
          }
        }
        if (!found) terms.push_back({t.scope, -t.coef});
      }
      return true;
    }
    case Kind::Mul: {
      const IndexExpr* c = nullptr;
      const IndexExpr* other = nullptr;
      if (kids_[0].isConst()) { c = &kids_[0]; other = &kids_[1]; }
      else if (kids_[1].isConst()) { c = &kids_[1]; other = &kids_[0]; }
      else return false;
      std::vector<AffineTerm> sub;
      std::int64_t soff = 0;
      if (!other->asAffine(sub, soff)) return false;
      offset += soff * c->value_;
      for (const auto& t : sub) {
        bool found = false;
        for (auto& u : terms) {
          if (u.scope == t.scope) {
            u.coef += t.coef * c->value_;
            found = true;
            break;
          }
        }
        if (!found) terms.push_back({t.scope, t.coef * c->value_});
      }
      return true;
    }
    case Kind::Div:
    case Kind::Mod:
      return false;
  }
  return false;
}

bool IndexExpr::operator==(const IndexExpr& other) const {
  if (kind_ != other.kind_) return false;
  switch (kind_) {
    case Kind::Const: return value_ == other.value_;
    case Kind::Iter: return iter_ == other.iter_;
    default:
      return kids_[0] == other.kids_[0] && kids_[1] == other.kids_[1];
  }
}

}  // namespace perfdojo::ir
