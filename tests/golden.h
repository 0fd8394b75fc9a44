// Golden search traces: byte-for-byte references under tests/data/search.
// The ungated ones were recorded from the copy pipeline (apply-copy + full
// re-render, actions re-enumerated per state, no prefetching). The
// prior-gated SA trace (anneal_edges_prior_softmax_xeon.jsonl, with its
// model file prior_softmax_xeon.txt) was recorded from the shipping pipeline
// of the commit before search::Neighborhood existed, whose gate already
// scored neighbors in place. The shipping pipeline (delta pricing on the
// canonical-form arena, maintained action list, rebase on accept — one
// search::Neighborhood per state) must reproduce them all at any thread
// count. On a mismatch the fresh bytes are written under the test build
// directory for diffing.
//
// A change that is meant to alter search decisions or costs re-records a
// golden by copying the fresh file the failing test names over it.
#pragma once

#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>

#include <gtest/gtest.h>

#include "kernels/kernels.h"
#include "machines/machine.h"
#include "search/prior.h"
#include "search/search.h"
#include "support/telemetry.h"

#if !defined(PD_GOLDEN_DIR) || !defined(PD_GOLDEN_OUT_DIR)
#error "tests/CMakeLists.txt must define PD_GOLDEN_DIR and PD_GOLDEN_OUT_DIR"
#endif

namespace perfdojo::golden {

/// Drops every "wall_ms" field from a JSONL trace: the only member whose
/// value legitimately varies between bit-identical runs.
inline std::string stripWallClock(std::string jsonl) {
  const std::string key = ",\"wall_ms\":";
  for (std::size_t at; (at = jsonl.find(key)) != std::string::npos;) {
    std::size_t end = at + key.size();
    while (end < jsonl.size() && jsonl[end] != ',' && jsonl[end] != '}') ++end;
    jsonl.erase(at, end - at);
  }
  return jsonl;
}

/// Requires `got` to equal tests/data/search/<name> byte for byte. On a
/// mismatch writes `got` to <test build dir>/golden_actual/<name>.<variant>
/// and fails naming both files.
inline void expectGolden(const std::string& name, const std::string& variant,
                         const std::string& got) {
  const std::filesystem::path want_path =
      std::filesystem::path(PD_GOLDEN_DIR) / name;
  std::ifstream in(want_path, std::ios::binary);
  ASSERT_TRUE(in) << "missing golden " << want_path.string();
  std::stringstream want;
  want << in.rdbuf();
  if (want.str() == got) return;
  const std::filesystem::path dir(PD_GOLDEN_OUT_DIR);
  std::filesystem::create_directories(dir);
  const std::filesystem::path got_path = dir / (name + "." + variant);
  std::ofstream(got_path, std::ios::binary) << got;
  ADD_FAILURE() << "trace diverged from golden " << want_path.string()
                << " (" << variant << "); fresh trace written to "
                << got_path.string();
}

/// Runs the SA-edges search the anneal_edges_<label>_xeon.jsonl golden was
/// recorded with (xeon, budget 160, max_steps 10, seed 7) at 1 and 8 threads
/// and requires each trace to reproduce the golden byte for byte — visit
/// order, per-step runtimes, acceptance decisions and memo counters,
/// everything except wall-clock. A `prior` gates the run at top-k 6 against
/// anneal_edges_prior_<label>_xeon.jsonl and must actually filter.
inline void expectAnnealEdgesGolden(const std::string& label,
                                    const search::PriorModel* prior = nullptr) {
  const ir::Program kernel = kernels::findKernel(label)->build();
  for (int threads : {1, 8}) {
    SCOPED_TRACE(::testing::Message() << label << " threads=" << threads);
    Telemetry sink;
    search::SearchConfig cfg;
    cfg.method = search::SearchMethod::SimulatedAnnealing;
    cfg.structure = search::SpaceStructure::Edges;
    cfg.budget = 160;
    cfg.max_steps = 10;
    cfg.seed = 7;
    cfg.threads = threads;
    cfg.telemetry = &sink;
    if (prior) {
      cfg.prior = prior;
      cfg.prior_topk = 6;
    }
    const auto r = search::runSearch(kernel, machines::xeon(), cfg);
    EXPECT_EQ(r.evals, 160);
    EXPECT_EQ(r.stats.primed_evals, 0);
    if (prior) {
      EXPECT_GT(r.stats.prior_filtered, 0);
    }
    expectGolden(std::string("anneal_edges_") + (prior ? "prior_" : "") +
                     label + "_xeon.jsonl",
                 "threads" + std::to_string(threads),
                 stripWallClock(sink.buffered()));
  }
}

}  // namespace perfdojo::golden
