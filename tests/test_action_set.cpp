// Property and bit-identity suite for the incrementally maintained action
// index (transform::ActionSet) and the arena rebase-on-accept path
// (ir::CanonicalArena::rebase, search::Neighborhood::accept).
//
// The contract under test (see src/transform/action_set.h): after every
// bind()/update() the maintained list is element-identical — same elements,
// same order — to a fresh transform::allActions enumeration; a rebased arena
// is indistinguishable column by column from a freshly bound one; and every
// search tier makes exactly the decisions of the re-enumerating pipeline —
// the golden traces and checked-in certificates recorded before the index
// existed — on one thread or eight.
//
// Suite names deliberately contain "ActionSet"/"Rebase" so the CI
// ThreadSanitizer job's -R regex picks them up.
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "golden.h"

#include "dojo/dojo.h"
#include "ir/arena.h"
#include "ir/canonical.h"
#include "ir/incremental.h"
#include "kernels/kernels.h"
#include "machines/machine.h"
#include "search/exact.h"
#include "search/neighborhood.h"
#include "search/search.h"
#include "support/io.h"
#include "support/rng.h"
#include "support/telemetry.h"
#include "transform/action_set.h"
#include "transform/transform.h"

namespace perfdojo::search {
namespace {

/// Table-3 kernels the properties quantify over (flat builds; trajectories
/// grow them into the deep split/annotated trees the index exists for).
const std::vector<const char*>& corpusLabels() {
  static const std::vector<const char*> labels = {"softmax", "layernorm_1",
                                                  "matmul", "mul"};
  return labels;
}

TEST(ActionSet, MatchesFreshEnumerationAlongSeededTrajectories) {
  // The core invariant, quantified over kernels x caps profiles x seeded
  // random trajectories: after every accepted in-place mutation, the spliced
  // index equals a fresh enumeration element for element.
  std::int64_t total_splices = 0;
  for (const char* label : corpusLabels()) {
    const auto* k = kernels::findKernel(label);
    ASSERT_NE(k, nullptr) << label;
    for (const auto* m :
         {&machines::xeon(), &machines::gh200(), &machines::snitch()}) {
      for (const std::uint64_t seed : {3u, 17u}) {
        SCOPED_TRACE(::testing::Message() << label << " on " << m->name()
                                          << " seed " << seed);
        Rng rng(seed);
        ir::Program p = k->build();
        transform::ActionSet aset;
        aset.bind(p, m->caps());
        std::string detail;
        ASSERT_TRUE(aset.selfCheck(p, &detail)) << detail;
        for (int step = 0; step < 12; ++step) {
          const auto& actions = aset.actions();
          if (actions.empty()) break;
          const auto a = actions[rng.uniform(actions.size())];
          ir::MutationSummary mut;
          a.transform->applyInPlace(p, a.loc, &mut);
          aset.update(p, mut);
          ASSERT_TRUE(aset.selfCheck(p, &detail))
              << "step " << step << " (" << a.describe(p) << "): " << detail;
        }
        total_splices += aset.stats().transform_splices;
      }
    }
  }
  // The walks must actually exercise the incremental path, not live off the
  // conservative full-rebuild fallback.
  EXPECT_GT(total_splices, 0);
}

TEST(ActionSet, ConservativeSummaryFallsBackToFullRebuild) {
  const ir::Program base = kernels::findKernel("softmax")->build();
  const auto& caps = machines::xeon().caps();
  transform::ActionSet aset;
  aset.bind(base, caps);

  // A real mutation reported conservatively: the index must notice it cannot
  // splice and rebuild, landing on the correct list anyway.
  ir::Program p = base;
  const auto actions = transform::allActions(p, caps);
  ASSERT_FALSE(actions.empty());
  ir::MutationSummary ignored;
  actions.front().transform->applyInPlace(p, actions.front().loc, &ignored);
  aset.update(p, ir::MutationSummary::conservative());
  EXPECT_EQ(aset.stats().full_rebuilds, 1);
  std::string detail;
  EXPECT_TRUE(aset.selfCheck(p, &detail)) << detail;

  // An honest empty summary on an unchanged program must not rebuild — and
  // must still be correct, because nothing changed.
  aset.update(p, ir::MutationSummary::none());
  EXPECT_EQ(aset.stats().full_rebuilds, 1);
  EXPECT_TRUE(aset.selfCheck(p, &detail)) << detail;
}

TEST(ActionSet, DojoMovesSpliceAcrossPlayAndUndo) {
  const auto& m = machines::xeon();
  dojo::Dojo d(kernels::findKernel("mul")->build(), m);
  for (int step = 0; step < 4; ++step) {
    const auto moves = d.moves();
    const auto fresh = transform::allActions(d.program(), m.caps());
    ASSERT_EQ(moves.size(), fresh.size()) << "step " << step;
    for (std::size_t i = 0; i < moves.size(); ++i) {
      ASSERT_EQ(moves[i].transform, fresh[i].transform) << "step " << step;
      ASSERT_TRUE(moves[i].loc == fresh[i].loc) << "step " << step;
    }
    if (moves.empty()) break;
    d.play(moves[step % moves.size()]);
  }
  d.undo();
  const auto moves = d.moves();
  const auto fresh = transform::allActions(d.program(), m.caps());
  ASSERT_EQ(moves.size(), fresh.size());
  for (std::size_t i = 0; i < moves.size(); ++i)
    ASSERT_TRUE(moves[i].transform == fresh[i].transform &&
                moves[i].loc == fresh[i].loc);
}

/// Requires `got` to be indistinguishable from `want` through every public
/// accessor — the rebase acceptance bar.
void expectArenasIdentical(const ir::CanonicalArena& got,
                           const ir::CanonicalArena& want,
                           const ir::Program& p) {
  ASSERT_EQ(got.size(), want.size());
  EXPECT_EQ(got.hash(), want.hash());
  EXPECT_EQ(got.text(), want.text());
  for (std::size_t s = 0; s < want.size(); ++s) {
    ASSERT_EQ(got.idOf(s), want.idOf(s)) << "slot " << s;
    ASSERT_EQ(got.subtreeEnd(s), want.subtreeEnd(s)) << "slot " << s;
    ASSERT_EQ(got.parentOf(s), want.parentOf(s)) << "slot " << s;
    ASSERT_EQ(got.depthOf(s), want.depthOf(s)) << "slot " << s;
    ASSERT_EQ(got.isScope(s), want.isScope(s)) << "slot " << s;
    ASSERT_EQ(got.extentOf(s), want.extentOf(s)) << "slot " << s;
    ASSERT_EQ(got.annoOf(s), want.annoOf(s)) << "slot " << s;
    ASSERT_EQ(got.subtreeText(s), want.subtreeText(s)) << "slot " << s;
  }
  for (ir::NodeId id = 0; id < p.next_id; ++id)
    ASSERT_EQ(got.slotOf(id), want.slotOf(id)) << "id " << id;
}

TEST(Rebase, ArenaRebaseIndistinguishableFromFreshBind) {
  for (const char* label : corpusLabels()) {
    const auto* k = kernels::findKernel(label);
    ASSERT_NE(k, nullptr) << label;
    SCOPED_TRACE(label);
    Rng rng(29);
    ir::Program p = k->build();
    ir::CanonicalArena arena(p);
    for (int step = 0; step < 8; ++step) {
      const auto actions = transform::allActions(p, machines::xeon().caps());
      if (actions.empty()) break;
      const auto& a = actions[rng.uniform(actions.size())];
      ir::MutationSummary mut;
      a.transform->applyInPlace(p, a.loc, &mut);
      arena.rebase(p, mut);
      const ir::CanonicalArena fresh(p);
      SCOPED_TRACE(::testing::Message() << "step " << step);
      expectArenasIdentical(arena, fresh, p);
      if (::testing::Test::HasFatalFailure()) return;
    }
  }
}

TEST(Rebase, ConservativeSummaryEqualsFreshBind) {
  ir::Program p = kernels::findKernel("layernorm_1")->build();
  ir::CanonicalArena arena(p);
  const auto actions = transform::allActions(p, machines::xeon().caps());
  ASSERT_FALSE(actions.empty());
  ir::MutationSummary ignored;
  actions.front().transform->applyInPlace(p, actions.front().loc, &ignored);
  arena.rebase(p, ir::MutationSummary::conservative());
  const ir::CanonicalArena fresh(p);
  expectArenasIdentical(arena, fresh, p);
}

TEST(Rebase, DeltaAcceptMatchesRebindOnBothBackends) {
  // The accepted-move path against its reference: a Neighborhood that
  // rebases in place after accept() must stay bit-identical — base hash,
  // program and neighbor pricing — to a fresh bind of a.apply(base).
  const auto& caps = machines::xeon().caps();
  ir::Program p = kernels::findKernel("softmax")->build();
  Neighborhood fast;
  fast.bind(p, caps);
  Rng rng(41);
  for (int step = 0; step < 8; ++step) {
    const auto actions = transform::allActions(p, machines::xeon().caps());
    if (actions.empty()) break;
    const auto& a = actions[rng.uniform(actions.size())];
    const ir::Program next = a.apply(p);
    Neighborhood fresh;
    fresh.bind(next, caps);
    const ir::Program& pf = fast.accept(a);
    ASSERT_EQ(fast.baseHash(), fresh.baseHash()) << "step " << step;
    ASSERT_EQ(fast.baseHash(), ir::canonicalHash(pf)) << "step " << step;
    ASSERT_TRUE(ir::canonicallyEqual(pf, next)) << "step " << step;
    // The rebased context must keep pricing neighbors like the fresh one.
    for (const auto& b : transform::allActions(next, machines::xeon().caps()))
      ASSERT_EQ(fast.neighborHash(b), fresh.neighborHash(b))
          << "step " << step << ": " << b.describe(next);
    p = next;
  }
  EXPECT_EQ(fast.stats().accepts, 8);
}

TEST(ActionSet, MatmulAnnealTraceMatchesGoldenAcrossThreads) {
  // The annealer reuses one maintained index per accepted state; its golden
  // was recorded with the index off (actions re-enumerated per state, copy
  // pricing) and must reproduce at threads 1 and 8. Matmul here; softmax in
  // ArenaDelta.SoftmaxAnnealTraceMatchesGoldenAcrossThreads.
  golden::expectAnnealEdgesGolden("matmul");
}

TEST(ActionSet, RandomSamplingTraceMatchesGoldenAcrossThreads) {
  // The sampling pool reuses one bound index per parent streak; the golden
  // was recorded with the index off (fresh allActions per draw).
  const auto& m = machines::xeon();
  const ir::Program kernel = kernels::findKernel("softmax")->build();
  for (int threads : {1, 8}) {
    SCOPED_TRACE(::testing::Message() << "threads=" << threads);
    Telemetry sink;
    SearchConfig cfg;
    cfg.method = SearchMethod::RandomSampling;
    cfg.structure = SpaceStructure::Edges;
    cfg.budget = 120;
    cfg.max_steps = 8;
    cfg.seed = 11;
    cfg.threads = threads;
    cfg.telemetry = &sink;
    const auto r = runSearch(kernel, m, cfg);
    EXPECT_EQ(r.evals, 120);
    golden::expectGolden("random_edges_softmax_xeon.jsonl",
                         "threads" + std::to_string(threads),
                         golden::stripWallClock(sink.buffered()));
  }
}

TEST(ActionSet, ExactCertificateMatchesCheckedInAcrossThreads) {
  // The exact tier re-materializes frontier entries by accepting their
  // replay paths into a copied kernel Neighborhood; its proof objects must
  // match the checked-in certificate, recorded before the index existed.
  ExactCertificate want;
  std::string err;
  ASSERT_TRUE(parseCertificate(
      readTextFile(std::string(PD_EXACT_BASELINE_DIR) + "/mul_snitch_d3.json"),
      want, &err))
      << err;
  const ir::Program kernel = kernels::findKernel("mul")->build_small();
  for (int threads : {1, 8}) {
    SCOPED_TRACE(::testing::Message() << "threads=" << threads);
    ExactConfig cfg;
    cfg.depth = want.depth;
    cfg.threads = threads;
    cfg.kernel_label = "mul";
    auto r = runExact(kernel, machines::snitch(), cfg);
    // The quality gates measure other tiers; everything else must match.
    r.cert.sa_gate = want.sa_gate;
    r.cert.heuristic_gate = want.heuristic_gate;
    EXPECT_EQ(r.cert.toJson(), want.toJson());
    EXPECT_EQ(r.best_cost, want.optimal_cost);
  }
}

}  // namespace
}  // namespace perfdojo::search
