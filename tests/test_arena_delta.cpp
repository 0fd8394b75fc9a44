// Property and bit-identity suite for the arena-backed delta pricing path.
//
// The contract under test (see src/search/neighborhood.h): a Neighborhood's
// neighborHash(a) equals ir::canonicalHash(a.apply(base)) — the copy
// pipeline — bit-for-bit, a throwing action leaves it fully
// resynchronized, and an annealing run reproduces the golden traces the
// copy pipeline recorded (no arena, no delta), on one thread or eight.
//
// Suite names deliberately contain "Arena"/"Delta" so the CI ThreadSanitizer
// job's -R regex picks them up.
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "golden.h"

#include "ir/canonical.h"
#include "ir/walk.h"
#include "kernels/kernels.h"
#include "machines/machine.h"
#include "search/neighborhood.h"
#include "search/pass.h"
#include "support/common.h"
#include "transform/transform.h"

namespace perfdojo::search {
namespace {

/// The programs the properties quantify over: flat Table-3 builds plus their
/// heuristically scheduled forms (splits + annotations = the deep trees whose
/// pricing the arena exists for).
std::vector<ir::Program> propertyCorpus() {
  std::vector<ir::Program> out;
  for (const char* label : {"softmax", "layernorm_1", "matmul", "mul"}) {
    const auto* k = kernels::findKernel(label);
    if (!k) continue;
    out.push_back(k->build());
    out.push_back(naivePass(out.back(), machines::xeon()).current());
  }
  return out;
}

/// An action guaranteed to throw inside neighborHash: a real transform aimed
/// at a node id no program owns (the stale-location defense path).
transform::Action poisonAction() {
  transform::Action a;
  a.transform = transform::allTransforms().front();
  a.loc.node = static_cast<ir::NodeId>(1 << 20);
  return a;
}

TEST(ArenaDelta, NeighborHashMatchesCopyHash) {
  for (const auto& p : propertyCorpus()) {
    const auto actions = transform::allActions(p, machines::xeon().caps());
    ASSERT_FALSE(actions.empty());
    SCOPED_TRACE(::testing::Message() << ir::nodeCount(p.root) << " nodes");
    Neighborhood nb;
    nb.bind(p, machines::xeon().caps());
    EXPECT_EQ(nb.baseHash(), ir::canonicalHash(p));
    // Two full passes over the neighbor set: the second proves the
    // watermark undo restored the scratch state exactly after every single
    // mutation of the first.
    for (int pass = 0; pass < 2; ++pass) {
      for (const auto& a : actions)
        ASSERT_EQ(nb.neighborHash(a), ir::canonicalHash(a.apply(p)))
            << "pass " << pass << ": " << a.describe(p);
    }
    EXPECT_EQ(nb.stats().neighbors_hashed,
              2 * static_cast<std::int64_t>(actions.size()));
  }
}

TEST(ArenaDelta, ThrowingActionLeavesContextBitExact) {
  // A failing action must fully resynchronize the scratch tree and the
  // canonical form, so the NEXT neighbor hashes exactly as a fresh
  // copy-based hash would. Interleaving a poison action before every valid
  // neighbor exercises the resync on every mutation shape the corpus offers.
  const auto poison = poisonAction();
  for (const auto& p : propertyCorpus()) {
    const auto actions = transform::allActions(p, machines::xeon().caps());
    Neighborhood nb;
    nb.bind(p, machines::xeon().caps());
    for (const auto& a : actions) {
      EXPECT_THROW(nb.neighborHash(poison), Error);
      ASSERT_EQ(nb.neighborHash(a), ir::canonicalHash(a.apply(p)))
          << "after a throwing action: " << a.describe(p);
    }
    // The Neighborhood survives rebinding after all that abuse.
    const ir::Program q = actions.front().apply(p);
    nb.bind(q, machines::xeon().caps());
    EXPECT_EQ(nb.baseHash(), ir::canonicalHash(q));
  }
}

TEST(ArenaDelta, BackendsAgreeAlongAGreedyWalk) {
  // The shape of the annealing loop, delta backend against the copy
  // pipeline: walk a few accepted steps deep through accept() (rebase in
  // place) and require every neighbor of every intermediate state to hash
  // as its apply-copy does, and every accepted base to equal the copy.
  ir::Program p = kernels::findKernel("softmax")->build();
  Neighborhood nb;
  nb.bind(p, machines::xeon().caps());
  for (int depth = 0; depth < 6; ++depth) {
    const auto actions = transform::allActions(p, machines::xeon().caps());
    if (actions.empty()) break;
    for (const auto& a : actions)
      ASSERT_EQ(nb.neighborHash(a), ir::canonicalHash(a.apply(p)))
          << "depth " << depth << ": " << a.describe(p);
    const auto& pick = actions[static_cast<std::size_t>(depth) %
                               actions.size()];
    const ir::Program next = pick.apply(p);
    ASSERT_TRUE(ir::canonicallyEqual(nb.accept(pick), next));
    ASSERT_EQ(nb.baseHash(), ir::canonicalHash(next)) << "depth " << depth;
    p = next;
  }
}

TEST(ArenaDelta, SoftmaxAnnealTraceMatchesGoldenAcrossThreads) {
  // The goldens were recorded by the copy pipeline (arena and delta off,
  // actions re-enumerated, no prefetch) at threads 1; the shipping pipeline
  // must reproduce them on one thread or eight. Softmax here; matmul in
  // ActionSet.MatmulAnnealTraceMatchesGoldenAcrossThreads.
  golden::expectAnnealEdgesGolden("softmax");
}

}  // namespace
}  // namespace perfdojo::search
