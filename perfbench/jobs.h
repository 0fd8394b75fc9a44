// Seeded job and request generators: the benchmark's inputs. Every list is a
// pure function of the seed. The (kernel, machine) mix of each workload is a
// fixed stratification; the seed draws what varies inside it (annealing
// seeds, the serve stream's duplicates, repeats and second-phase sample, and
// the order of jobs), so two seeds differ by search randomness and traffic
// pattern, not by a different kernel mix.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "libgen/server.h"

namespace perfbench {

/// How a walk workload runs its jobs: the evaluation budget of one
/// annealing job, how many jobs run at once (each at threads=1), and how
/// many annealing seeds each stratum gets.
struct WalkSpec {
  int budget;
  int workers;
  int seeds_per_stratum;
};
constexpr WalkSpec kEdgesWalk{100, 1, 8};
/// Scoring every neighbor of every accepted state costs the prior walk 5 to
/// 90 times the edges walk's time per job, so it runs half the budget and
/// half the seeds, four jobs at a time, to time a hundred jobs in a run.
constexpr WalkSpec kPriorWalk{50, 4, 4};
/// Neighbors kept per state by the prior on prior_walk (bench_fig12's top-k).
constexpr int kPriorTopk = 6;
/// Annealing seeds of the walks that record the prior's training traces.
/// Walk jobs draw their seeds from kJobSeedBase upwards, so the two never meet.
const std::vector<std::uint64_t>& priorTrainSeeds();
constexpr std::uint64_t kJobSeedBase = 1000;
/// Worker threads of one runExact call. One: with two the run-to-run
/// spread of the timings doubled on a 4-vCPU host.
constexpr int kExactThreads = 1;
/// Closed-loop client threads of serve_tune: the fewest that can join an
/// in-flight run.
constexpr int kServeClients = 2;
/// Evaluation budget of a serve_tune request that asks for the search
/// optimizer. Below the server's default of 300 (LibGenConfig::search_budget):
/// at 300 a cold search tune takes 0.05-4.4 s on a 4-vCPU x86 VM and one pass
/// of the stream about 48 s, longer than a whole run may take.
constexpr int kServeSearchBudget = 32;

/// "kernel/machine": names a stratum, a job or a request in messages.
inline std::string jobLabel(const std::string& kernel, const std::string& machine) {
  return kernel + "/" + machine;
}

struct WalkJob {
  std::string kernel;
  std::string machine;
  std::uint64_t sa_seed = 0;
  bool operator==(const WalkJob&) const = default;
};

struct ExactJob {
  std::string kernel;
  std::string machine;
  bool operator==(const ExactJob&) const = default;
};

struct ServeStream {
  /// Requests to the first server, on a fresh cache directory: cold tunes,
  /// adjacent duplicates and warm repeats.
  std::vector<perfdojo::libgen::TuneRequest> first;
  /// Requests to a second server opened on the same directory afterwards:
  /// repeats of first-phase keys (served from disk) and a few new cold ones.
  std::vector<perfdojo::libgen::TuneRequest> second;
};

/// The (kernel, machine) strata of both walk workloads, in a fixed order.
struct Stratum {
  const char* kernel;
  const char* machine;
};
const std::vector<Stratum>& walkStrata();

/// seeds_per_stratum annealing jobs per walk stratum, seeded and shuffled.
std::vector<WalkJob> walkJobs(std::uint64_t seed, int seeds_per_stratum);

/// Every pairing of the exact tier's kernels with the four machines (the
/// nine pairs certified under tests/data/exact among them), shuffled.
std::vector<ExactJob> exactJobs(std::uint64_t seed);

/// The serve_tune request stream.
ServeStream serveStream(std::uint64_t seed);

bool sameRequest(const perfdojo::libgen::TuneRequest& a,
                 const perfdojo::libgen::TuneRequest& b);

}  // namespace perfbench
