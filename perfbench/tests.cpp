// The benchmark's own tests: the percentile rule, the geomean, failed_frac
// and the seeded job generators.
#include <gtest/gtest.h>

#include <vector>

#include "bench_stats.h"
#include "jobs.h"

namespace perfbench {
namespace {

TEST(PercentileRule, NeedsTenSamplesBeyondTheTail) {
  EXPECT_EQ(samplesBeyond(100, 900), 10u);
  EXPECT_TRUE(tailSupported(100, 900));
  EXPECT_FALSE(tailSupported(99, 900));
  EXPECT_EQ(samplesBeyond(1000, 990), 10u);
  EXPECT_TRUE(tailSupported(1000, 990));
  EXPECT_FALSE(tailSupported(999, 990));
  EXPECT_TRUE(tailSupported(20, 500));
  EXPECT_FALSE(tailSupported(19, 500));
}

TEST(PercentileRule, HighestSupportedTail) {
  EXPECT_EQ(highestTailPermille(19), 0);
  EXPECT_EQ(highestTailPermille(20), 500);
  EXPECT_EQ(highestTailPermille(40), 750);
  EXPECT_EQ(highestTailPermille(100), 900);
  EXPECT_EQ(highestTailPermille(999), 900);
  EXPECT_EQ(highestTailPermille(1000), 990);
  EXPECT_EQ(highestTailPermille(10000), 999);
}

TEST(PercentileRule, NearestRank) {
  std::vector<double> xs;
  for (int i = 100; i >= 1; --i) xs.push_back(i);
  EXPECT_EQ(percentile(xs, 500), 50);
  EXPECT_EQ(percentile(xs, 900), 90);
  EXPECT_EQ(percentile(xs, 1000), 100);
  EXPECT_EQ(percentile({7.0}, 900), 7);
  EXPECT_EQ(percentile({1, 2, 3}, 500), 2);
}

TEST(Geomean, OfSpeedups) {
  EXPECT_DOUBLE_EQ(speedupGeomean({4, 9}, {1, 1}), 6);
  EXPECT_DOUBLE_EQ(speedupGeomean({2, 2, 2}, {2, 1, 0.5}), 2);
  EXPECT_DOUBLE_EQ(speedupGeomean({1}, {4}), 0.25);
  EXPECT_ANY_THROW(speedupGeomean({1, 2}, {1}));
  EXPECT_ANY_THROW(speedupGeomean({1}, {0}));
}

TEST(FailedFrac, CountsFailuresAgainstAttempts) {
  EXPECT_EQ(failedFrac(0, 10), 0);
  EXPECT_EQ(failedFrac(1, 4), 0.25);
  EXPECT_EQ(failedFrac(3, 3), 1);
  EXPECT_ANY_THROW(failedFrac(0, 0));
  EXPECT_ANY_THROW(failedFrac(2, 1));
}

TEST(JobGenerator, SameSeedSameJobs) {
  EXPECT_EQ(walkJobs(7, 2), walkJobs(7, 2));
  EXPECT_EQ(exactJobs(7), exactJobs(7));
  const auto a = serveStream(7), b = serveStream(7);
  ASSERT_EQ(a.first.size(), b.first.size());
  ASSERT_EQ(a.second.size(), b.second.size());
  for (std::size_t i = 0; i < a.first.size(); ++i)
    EXPECT_TRUE(sameRequest(a.first[i], b.first[i]));
  for (std::size_t i = 0; i < a.second.size(); ++i)
    EXPECT_TRUE(sameRequest(a.second[i], b.second[i]));
}

TEST(JobGenerator, OtherSeedOtherJobs) {
  EXPECT_NE(walkJobs(7, 2), walkJobs(8, 2));
  EXPECT_NE(exactJobs(7), exactJobs(8));
  const auto a = serveStream(7), b = serveStream(8);
  bool differ = a.first.size() != b.first.size();
  for (std::size_t i = 0; !differ && i < a.first.size(); ++i)
    differ = !sameRequest(a.first[i], b.first[i]);
  EXPECT_TRUE(differ);
}

TEST(JobGenerator, WalkSeedsStayClearOfPriorTraining) {
  for (std::uint64_t seed = 0; seed < 20; ++seed)
    for (const auto& j : walkJobs(seed, 4))
      for (std::uint64_t t : priorTrainSeeds()) EXPECT_NE(j.sa_seed, t);
}

TEST(JobGenerator, ServeStreamRepeatsColdRequests) {
  const auto s = serveStream(3);
  // Every second-phase request that is not new repeats a first-phase one,
  // and the first phase holds at least one adjacent duplicate.
  std::size_t repeats = 0;
  for (const auto& r : s.second)
    for (const auto& f : s.first)
      if (sameRequest(r, f)) {
        ++repeats;
        break;
      }
  EXPECT_GE(repeats, s.second.size() / 2);
  bool adjacent = false;
  for (std::size_t i = 1; i < s.first.size(); ++i)
    adjacent |= sameRequest(s.first[i - 1], s.first[i]);
  EXPECT_TRUE(adjacent);
}

}  // namespace
}  // namespace perfbench
