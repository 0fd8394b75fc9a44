#include "jobs.h"

#include <algorithm>

#include "support/rng.h"

namespace perfbench {

using perfdojo::Rng;
using perfdojo::libgen::TuneRequest;

namespace {

const char* const kMachines[] = {"snitch", "xeon", "gh200", "mi300a"};

/// Kernels of the exact tier: the Table-3 operators whose depth-3 ball on
/// the build_small shapes is exhausted well inside the default state budget.
/// add, mul and relu carry the certificates under tests/data/exact.
const char* const kExactKernels[] = {"add",    "mul",    "relu",   "bmm",
                                     "conv_1", "conv_2", "matmul", "reducemean"};

/// serve_tune's kernels per optimizer. The search ones keep a cold tune of
/// the heuristic-structure walk at kServeSearchBudget in the tens of ms.
const char* const kServeHeuristic[] = {"add", "mul", "relu", "softmax",
                                       "matmul", "conv_2"};
const char* const kServeSearch[] = {"add", "mul", "relu", "matmul",
                                    "bmm", "reducemean"};

TuneRequest request(const char* kernel, const char* machine, bool search,
                    std::uint64_t seed) {
  TuneRequest r;
  r.kernel = kernel;
  r.machine = machine;
  r.optimizer = search ? "search" : "heuristic";
  r.budget = search ? kServeSearchBudget : -1;
  r.seed = seed;
  return r;
}

}  // namespace

const std::vector<std::uint64_t>& priorTrainSeeds() {
  static const std::vector<std::uint64_t> seeds = {11, 12};
  return seeds;
}

const std::vector<Stratum>& walkStrata() {
  // snitch x {matmul, conv}: trees that grow large under the walk; the norm
  // jobs on xeon and the GPUs keep small trees.
  static const std::vector<Stratum> strata = {
      {"matmul", "snitch"},      {"conv_2", "snitch"},
      {"softmax", "snitch"},     {"matmul", "xeon"},
      {"softmax", "xeon"},       {"layernorm_1", "xeon"},
      {"rmsnorm", "xeon"},       {"softmax", "gh200"},
      {"layernorm_2", "gh200"},  {"rmsnorm", "gh200"},
      {"softmax", "mi300a"},     {"layernorm_1", "mi300a"},
      {"reducemean", "mi300a"},
  };
  return strata;
}

std::vector<WalkJob> walkJobs(std::uint64_t seed, int seeds_per_stratum) {
  Rng rng(seed);
  std::vector<WalkJob> jobs;
  for (const auto& s : walkStrata())
    for (int rep = 0; rep < seeds_per_stratum; ++rep)
      jobs.push_back({s.kernel, s.machine, kJobSeedBase + rng.uniform(1u << 30)});
  rng.shuffle(jobs);
  return jobs;
}

std::vector<ExactJob> exactJobs(std::uint64_t seed) {
  Rng rng(seed ^ 0xE4AC7ull);
  std::vector<ExactJob> jobs;
  for (const char* k : kExactKernels)
    for (const char* m : kMachines) jobs.push_back({k, m});
  rng.shuffle(jobs);
  return jobs;
}

ServeStream serveStream(std::uint64_t seed) {
  Rng rng(seed ^ 0x5E77Eull);
  std::vector<TuneRequest> unique;
  for (const char* m : kMachines)
    for (std::uint64_t seed : {1, 2}) {
      for (const char* k : kServeHeuristic) unique.push_back(request(k, m, false, seed));
      for (const char* k : kServeSearch) unique.push_back(request(k, m, true, seed));
    }
  rng.shuffle(unique);

  ServeStream s;
  // Cold tunes, a quarter of them followed at once by a duplicate that joins
  // the in-flight run.
  for (const auto& r : unique) {
    s.first.push_back(r);
    if (rng.uniform(4) == 0) s.first.push_back(r);
  }
  // Skewed warm repeats: the request of popularity rank i repeats 8/(i+1)
  // times, each at a random position after its cold tune.
  for (std::size_t i = 0; i < unique.size(); ++i) {
    const std::size_t repeats = 8 / (i + 1);
    for (std::size_t k = 0; k < repeats; ++k) {
      const auto cold = std::find_if(s.first.begin(), s.first.end(),
                                     [&](const TuneRequest& r) {
                                       return sameRequest(r, unique[i]);
                                     });
      const std::size_t lo = static_cast<std::size_t>(cold - s.first.begin()) + 1;
      const std::size_t at = lo + rng.uniform(s.first.size() - lo + 1);
      s.first.insert(s.first.begin() + static_cast<std::ptrdiff_t>(at), unique[i]);
    }
  }
  // The reopened server: half the first-phase keys again, plus one new cold
  // search request per machine.
  std::vector<TuneRequest> again = unique;
  rng.shuffle(again);
  again.resize(unique.size() / 2);
  for (std::size_t i = 0; i < std::size(kMachines); ++i)
    again.push_back(request(kServeSearch[i], kMachines[i], true, 3));
  rng.shuffle(again);
  s.second = std::move(again);

  int id = 0;
  for (auto* phase : {&s.first, &s.second})
    for (auto& r : *phase) r.id = "r" + std::to_string(id++);
  return s;
}

bool sameRequest(const TuneRequest& a, const TuneRequest& b) {
  return a.kernel == b.kernel && a.machine == b.machine &&
         a.optimizer == b.optimizer && a.budget == b.budget && a.seed == b.seed;
}

}  // namespace perfbench
