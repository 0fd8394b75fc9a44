#include <gtest/gtest.h>

#include <random>

#include "ir/index_expr.h"
#include "support/common.h"

namespace perfdojo::ir {
namespace {

TEST(IndexExpr, EvalArithmetic) {
  auto e = IndexExpr::add(
      IndexExpr::mul(IndexExpr::iter(1), IndexExpr::constant(4)),
      IndexExpr::iter(2));
  auto lookup = [](NodeId id) -> std::int64_t { return id == 1 ? 3 : 2; };
  EXPECT_EQ(e.eval(lookup), 14);
}

TEST(IndexExpr, EvalDivMod) {
  auto e = IndexExpr::div(IndexExpr::iter(1), IndexExpr::constant(4));
  auto m = IndexExpr::mod(IndexExpr::iter(1), IndexExpr::constant(4));
  auto lookup = [](NodeId) -> std::int64_t { return 13; };
  EXPECT_EQ(e.eval(lookup), 3);
  EXPECT_EQ(m.eval(lookup), 1);
}

TEST(IndexExpr, SimplifyIdentities) {
  auto x = IndexExpr::iter(1);
  EXPECT_TRUE(IndexExpr::mul(x, IndexExpr::constant(1)).simplified() == x);
  EXPECT_TRUE(IndexExpr::add(x, IndexExpr::constant(0)).simplified() == x);
  EXPECT_TRUE(IndexExpr::mul(x, IndexExpr::constant(0)).simplified() ==
              IndexExpr::constant(0));
  EXPECT_TRUE(IndexExpr::add(IndexExpr::constant(2), IndexExpr::constant(3))
                  .simplified() == IndexExpr::constant(5));
}

TEST(IndexExpr, Substitute) {
  auto e = IndexExpr::add(IndexExpr::iter(1), IndexExpr::iter(2));
  auto r = e.substitute(1, IndexExpr::constant(7));
  auto lookup = [](NodeId) -> std::int64_t { return 5; };
  EXPECT_EQ(r.eval(lookup), 12);
}

TEST(IndexExpr, SubstituteSinglePass) {
  // iter(1) -> iter(1)*4 + iter(2) must not recurse into its own result.
  auto repl = IndexExpr::add(
      IndexExpr::mul(IndexExpr::iter(1), IndexExpr::constant(4)),
      IndexExpr::iter(2));
  auto r = IndexExpr::iter(1).substitute(1, repl);
  auto lookup = [](NodeId id) -> std::int64_t { return id == 1 ? 2 : 3; };
  EXPECT_EQ(r.eval(lookup), 11);
}

TEST(IndexExpr, CollectIters) {
  auto e = IndexExpr::add(IndexExpr::iter(3),
                          IndexExpr::mul(IndexExpr::iter(3), IndexExpr::iter(5)));
  std::vector<NodeId> its;
  e.collectIters(its);
  EXPECT_EQ(its.size(), 2u);
  EXPECT_TRUE(e.usesIter(3));
  EXPECT_TRUE(e.usesIter(5));
  EXPECT_FALSE(e.usesIter(4));
}

TEST(IndexExpr, AffineDecomposition) {
  // 2*i + j + 5
  auto e = IndexExpr::add(
      IndexExpr::add(IndexExpr::mul(IndexExpr::constant(2), IndexExpr::iter(1)),
                     IndexExpr::iter(2)),
      IndexExpr::constant(5));
  std::vector<IndexExpr::AffineTerm> terms;
  std::int64_t off = 0;
  ASSERT_TRUE(e.asAffine(terms, off));
  EXPECT_EQ(off, 5);
  ASSERT_EQ(terms.size(), 2u);
  EXPECT_EQ(terms[0].coef, 2);
  EXPECT_EQ(terms[1].coef, 1);
}

TEST(IndexExpr, AffineRejectsDivMod) {
  auto e = IndexExpr::div(IndexExpr::iter(1), IndexExpr::constant(2));
  std::vector<IndexExpr::AffineTerm> terms;
  std::int64_t off = 0;
  EXPECT_FALSE(e.asAffine(terms, off));
}

TEST(IndexExpr, AffineSubtraction) {
  // i - j : coef(i)=1, coef(j)=-1
  auto e = IndexExpr::sub(IndexExpr::iter(1), IndexExpr::iter(2));
  std::vector<IndexExpr::AffineTerm> terms;
  std::int64_t off = 0;
  ASSERT_TRUE(e.asAffine(terms, off));
  EXPECT_EQ(terms[0].coef, 1);
  EXPECT_EQ(terms[1].coef, -1);
}

TEST(IndexExpr, Equality) {
  auto a = IndexExpr::add(IndexExpr::iter(1), IndexExpr::constant(2));
  auto b = IndexExpr::add(IndexExpr::iter(1), IndexExpr::constant(2));
  auto c = IndexExpr::add(IndexExpr::iter(1), IndexExpr::constant(3));
  EXPECT_TRUE(a == b);
  EXPECT_FALSE(a == c);
}

// Reference copies of the copy-based substitute/simplified the rewrite
// replaced: every binary node starts from a copy of itself (rebuilt here
// through the public API), so the result structure is what the old code
// produced.
IndexExpr refSubstitute(const IndexExpr& e, NodeId from, const IndexExpr& repl) {
  if (e.isIter()) return e.iterScope() == from ? repl : e;
  if (e.isConst()) return e;
  return IndexExpr::binary(e.kind(), refSubstitute(e.lhs(), from, repl),
                           refSubstitute(e.rhs(), from, repl));
}

IndexExpr refSimplified(const IndexExpr& e) {
  using K = IndexExpr::Kind;
  if (e.isIter() || e.isConst()) return e;
  const IndexExpr a = refSimplified(e.lhs());
  const IndexExpr b = refSimplified(e.rhs());
  const auto isC = [](const IndexExpr& x, std::int64_t v) {
    return x.isConst() && x.constValue() == v;
  };
  if (a.isConst() && b.isConst()) {
    const std::int64_t x = a.constValue();
    const std::int64_t y = b.constValue();
    switch (e.kind()) {
      case K::Add: return IndexExpr::constant(x + y);
      case K::Sub: return IndexExpr::constant(x - y);
      case K::Mul: return IndexExpr::constant(x * y);
      case K::Div: return y != 0 ? IndexExpr::constant(x / y) : e;
      case K::Mod: return y != 0 ? IndexExpr::constant(x % y) : e;
      default: break;
    }
  }
  if (e.kind() == K::Add) {
    if (isC(a, 0)) return b;
    if (isC(b, 0)) return a;
  }
  if (e.kind() == K::Sub && isC(b, 0)) return a;
  if (e.kind() == K::Mul) {
    if (isC(a, 1)) return b;
    if (isC(b, 1)) return a;
    if (isC(a, 0) || isC(b, 0)) return IndexExpr::constant(0);
  }
  if (e.kind() == K::Div && isC(b, 1)) return a;
  return IndexExpr::binary(e.kind(), a, b);
}

/// Random expression over iterators 1..3 and constants -2..3 (0 and 1 are
/// frequent, so x*1, x+0, 0*x, c op c and div/mod by 0 and 1 all occur).
/// Depth 5 keeps every constant fold inside int64.
IndexExpr randomExpr(std::mt19937_64& rng, int depth) {
  std::uniform_int_distribution<int> pick(0, 9);
  const int r = pick(rng);
  if (depth == 0 || r < 3) {
    if (r % 2 == 0)
      return IndexExpr::iter(static_cast<NodeId>(1 + pick(rng) % 3));
    return IndexExpr::constant(static_cast<std::int64_t>(pick(rng) % 6) - 2);
  }
  const auto kind = static_cast<IndexExpr::Kind>(
      static_cast<int>(IndexExpr::Kind::Add) + pick(rng) % 5);
  IndexExpr a = randomExpr(rng, depth - 1);
  IndexExpr b = randomExpr(rng, depth - 1);
  return IndexExpr::binary(kind, std::move(a), std::move(b));
}

TEST(IndexExpr, SubstituteAndSimplifyMatchReference) {
  const auto x = IndexExpr::iter(1);
  const auto c = [](std::int64_t v) { return IndexExpr::constant(v); };
  std::vector<IndexExpr> inputs = {
      IndexExpr::mul(x, c(1)),        IndexExpr::add(x, c(0)),
      IndexExpr::mul(c(0), x),        IndexExpr::add(c(2), c(3)),
      IndexExpr::mod(c(7), c(3)),     IndexExpr::div(x, c(0)),
      IndexExpr::mod(x, c(0)),        IndexExpr::div(c(4), c(0)),
      IndexExpr::mod(IndexExpr::add(c(1), c(1)), IndexExpr::sub(c(2), c(2))),
      IndexExpr::div(x, c(1)),        IndexExpr::mod(x, c(1)),
      IndexExpr::sub(x, c(0)),        IndexExpr::sub(c(0), x),
  };
  std::mt19937_64 rng(20261019);
  for (int i = 0; i < 4000; ++i) inputs.push_back(randomExpr(rng, 5));
  for (std::size_t i = 0; i < inputs.size(); ++i) {
    const IndexExpr& e = inputs[i];
    ASSERT_TRUE(e.simplified() == refSimplified(e)) << "input " << i;
    const IndexExpr repl = randomExpr(rng, 2);
    // from = 4 is absent: the substitution is then an identity rewrite.
    for (NodeId from = 1; from <= 4; ++from) {
      const IndexExpr got = e.substitute(from, repl);
      ASSERT_TRUE(got == refSubstitute(e, from, repl))
          << "input " << i << " from " << from;
      ASSERT_TRUE(got.simplified() == refSimplified(refSubstitute(e, from, repl)))
          << "input " << i << " from " << from;
    }
  }
}

TEST(IndexExpr, InvalidAccessThrows) {
  EXPECT_THROW(IndexExpr::constant(1).iterScope(), Error);
  EXPECT_THROW(IndexExpr::iter(1).constValue(), Error);
  EXPECT_THROW(IndexExpr::iter(0), Error);
}

}  // namespace
}  // namespace perfdojo::ir
