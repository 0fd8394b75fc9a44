// Copy and accept semantics of search::Neighborhood, the one object a search
// state lives in (src/search/neighborhood.h).
//
// The exact tier copies one kernel-bound Neighborhood per frontier entry and
// accepts the entry's replay path into the copy, so a copy must be a
// deep, independent state: it may not alias its source's program, and it
// must outlive the source. accept() must leave a Neighborhood that a fresh
// bind of the accepted program cannot be told apart from — hash, program
// text and action list — even when its argument aliases the very list it
// splices. The concurrent case is the exact tier's worker pattern.
//
// The suite name is in the CI ThreadSanitizer job's -R filter; the ASan job
// runs it too.
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "ir/canonical.h"
#include "ir/printer.h"
#include "kernels/kernels.h"
#include "machines/machine.h"
#include "search/neighborhood.h"
#include "search/pass.h"
#include "support/common.h"
#include "transform/transform.h"

namespace perfdojo::search {
namespace {

const transform::MachineCaps& caps() { return machines::xeon().caps(); }

/// A heuristically scheduled kernel: deep enough that a dangling node index
/// would be hit by most undos.
ir::Program scheduledSoftmax() {
  return naivePass(kernels::findKernel("softmax")->build(), machines::xeon())
      .current();
}

void expectSameActions(const std::vector<transform::Action>& got,
                       const std::vector<transform::Action>& want) {
  ASSERT_EQ(got.size(), want.size());
  for (std::size_t i = 0; i < want.size(); ++i) {
    ASSERT_EQ(got[i].transform, want[i].transform) << "action " << i;
    ASSERT_TRUE(got[i].loc == want[i].loc) << "action " << i;
  }
}

/// Every neighbor of `nb` hashes as the copy pipeline does.
void expectNeighborsMatchCopyPipeline(Neighborhood& nb) {
  const ir::Program base = nb.base();
  for (const auto& a : nb.actions())
    ASSERT_EQ(nb.neighborHash(a), ir::canonicalHash(a.apply(base)))
        << a.describe(base);
}

/// `got` is indistinguishable from a fresh bind of its own base.
void expectEqualsFreshBind(const Neighborhood& got) {
  Neighborhood fresh;
  fresh.bind(got.base(), caps());
  EXPECT_EQ(got.baseHash(), fresh.baseHash());
  EXPECT_EQ(got.baseHash(), ir::canonicalHash(got.base()));
  EXPECT_EQ(ir::printProgram(got.base()), ir::printProgram(fresh.base()));
  expectSameActions(got.actions(), fresh.actions());
}

TEST(Neighborhood, CopyOutlivesRebindAndDestructionOfItsSource) {
  const ir::Program p = scheduledSoftmax();
  auto source = std::make_unique<Neighborhood>();
  source->bind(p, caps());
  Neighborhood copy(*source);
  Neighborhood assigned;
  assigned.bind(kernels::findKernel("mul")->build(), caps());
  assigned = *source;
  // Rebinding and then destroying the source must not reach either copy.
  source->bind(kernels::findKernel("matmul")->build(), caps());
  source.reset();
  for (Neighborhood* nb : {&copy, &assigned}) {
    EXPECT_EQ(nb->baseHash(), ir::canonicalHash(p));
    expectSameActions(nb->actions(), transform::allActions(p, caps()));
    expectNeighborsMatchCopyPipeline(*nb);
  }
}

TEST(Neighborhood, AcceptOfAnAliasedActionEqualsAFreshBind) {
  // A walk through copies: each step copies the current state and accepts
  // one of the copy's own actions by reference — the argument lives in the
  // list accept() splices.
  Neighborhood cur;
  cur.bind(scheduledSoftmax(), caps());
  for (int step = 0; step < 6; ++step) {
    SCOPED_TRACE(::testing::Message() << "step " << step);
    ASSERT_FALSE(cur.actions().empty());
    const std::string parent_text = ir::printProgram(cur.base());
    const std::uint64_t parent_hash = cur.baseHash();
    Neighborhood next(cur);
    const std::size_t i = (7u * static_cast<std::size_t>(step) + 3u) %
                          next.actions().size();
    const ir::Program want = cur.actions()[i].apply(cur.base());
    next.accept(next.actions()[i]);
    EXPECT_EQ(ir::printProgram(next.base()), ir::printProgram(want));
    expectEqualsFreshBind(next);
    expectNeighborsMatchCopyPipeline(next);
    // The source of the copy still describes the parent state.
    EXPECT_EQ(ir::printProgram(cur.base()), parent_text);
    EXPECT_EQ(cur.baseHash(), parent_hash);
    cur = next;
  }
  EXPECT_EQ(cur.stats().accepts, 6);
}

TEST(Neighborhood, ThrowingAcceptLeavesTheOldStateUsable) {
  // The exact tier's replay relies on this: a step that no longer applies
  // throws from the applicability check, and the Neighborhood still
  // describes the state before it.
  const ir::Program p = scheduledSoftmax();
  Neighborhood nb;
  nb.bind(p, caps());
  transform::Action poison = nb.actions().front();
  poison.loc.node = static_cast<ir::NodeId>(1 << 20);
  EXPECT_THROW(nb.accept(poison), Error);
  EXPECT_EQ(nb.stats().accepts, 0);
  EXPECT_EQ(ir::printProgram(nb.base()), ir::printProgram(p));
  expectEqualsFreshBind(nb);
  expectNeighborsMatchCopyPipeline(nb);
}

TEST(Neighborhood, ConcurrentCopiesOfASharedStateHashChildren) {
  // runExact's worker pattern: many threads copy one shared bound
  // Neighborhood at once, advance their copy by one accepted step, and hash
  // every child of it. Each result must match the copy pipeline.
  Neighborhood shared;
  shared.bind(scheduledSoftmax(), caps());
  const Neighborhood& kernel_nb = shared;
  constexpr int kThreads = 8;
  auto stepOf = [&](int t) -> const transform::Action& {
    const std::size_t n = kernel_nb.actions().size();
    return kernel_nb.actions()[static_cast<std::size_t>(t) * n / kThreads];
  };
  std::vector<ir::Program> bases(kThreads);
  std::vector<std::vector<transform::Action>> actions(kThreads);
  std::vector<std::vector<std::uint64_t>> hashes(kThreads);
  std::vector<std::thread> workers;
  for (int t = 0; t < kThreads; ++t)
    workers.emplace_back([&, t] {
      Neighborhood nb(kernel_nb);
      nb.accept(stepOf(t));
      for (const auto& a : nb.actions())
        hashes[t].push_back(nb.neighborHash(a));
      bases[t] = nb.base();
      actions[t] = nb.actions();
    });
  for (auto& w : workers) w.join();
  for (int t = 0; t < kThreads; ++t) {
    SCOPED_TRACE(::testing::Message() << "thread " << t);
    const ir::Program want = stepOf(t).apply(kernel_nb.base());
    EXPECT_EQ(ir::printProgram(bases[t]), ir::printProgram(want));
    expectSameActions(actions[t], transform::allActions(want, caps()));
    ASSERT_EQ(hashes[t].size(), actions[t].size());
    for (std::size_t j = 0; j < actions[t].size(); ++j)
      ASSERT_EQ(hashes[t][j], ir::canonicalHash(actions[t][j].apply(want)))
          << actions[t][j].describe(want);
  }
}

}  // namespace
}  // namespace perfdojo::search
