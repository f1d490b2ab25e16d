#include <gtest/gtest.h>

#include <cmath>
#include <condition_variable>
#include <mutex>
#include <thread>
#include <vector>

#include "src/base/rng.h"
#include "src/base/stats.h"
#include "src/base/status.h"
#include "src/base/strings.h"
#include "src/base/thread_pool.h"

namespace parallax {
namespace {

TEST(RngTest, DeterministicFromSeed) {
  Rng a(42);
  Rng b(42);
  for (int i = 0; i < 1000; ++i) {
    EXPECT_EQ(a.NextUint64(), b.NextUint64());
  }
}

TEST(RngTest, DifferentSeedsDiffer) {
  Rng a(1);
  Rng b(2);
  int equal = 0;
  for (int i = 0; i < 100; ++i) {
    if (a.NextUint64() == b.NextUint64()) {
      ++equal;
    }
  }
  EXPECT_LT(equal, 3);
}

TEST(RngTest, NextDoubleInUnitInterval) {
  Rng rng(7);
  for (int i = 0; i < 10000; ++i) {
    double x = rng.NextDouble();
    EXPECT_GE(x, 0.0);
    EXPECT_LT(x, 1.0);
  }
}

TEST(RngTest, NextBoundedInRange) {
  Rng rng(9);
  for (int i = 0; i < 10000; ++i) {
    EXPECT_LT(rng.NextBounded(17), 17u);
  }
}

TEST(RngTest, BoundedRoughlyUniform) {
  Rng rng(21);
  std::vector<int> counts(8, 0);
  const int n = 80000;
  for (int i = 0; i < n; ++i) {
    ++counts[rng.NextBounded(8)];
  }
  for (int c : counts) {
    EXPECT_NEAR(c, n / 8, n / 8 * 0.1);
  }
}

TEST(RngTest, GaussianMoments) {
  Rng rng(33);
  RunningStat stat;
  for (int i = 0; i < 50000; ++i) {
    stat.Add(rng.NextGaussian());
  }
  EXPECT_NEAR(stat.mean(), 0.0, 0.02);
  EXPECT_NEAR(stat.stddev(), 1.0, 0.02);
}

TEST(RngTest, ForkedStreamsIndependent) {
  Rng parent(5);
  Rng childa = parent.Fork(1);
  Rng childb = parent.Fork(2);
  int equal = 0;
  for (int i = 0; i < 100; ++i) {
    if (childa.NextUint64() == childb.NextUint64()) {
      ++equal;
    }
  }
  EXPECT_LT(equal, 3);
}

TEST(ZipfSamplerTest, HeadHeavierThanTail) {
  ZipfSampler sampler(1000, 1.1);
  Rng rng(3);
  int head = 0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) {
    if (sampler.Sample(rng) < 10) {
      ++head;
    }
  }
  // With exponent ~1 the top 10 of 1000 symbols carry a large probability mass.
  EXPECT_GT(head, n / 5);
}

TEST(ZipfSamplerTest, UniformWhenExponentZero) {
  ZipfSampler sampler(100, 0.0);
  Rng rng(4);
  std::vector<int> counts(100, 0);
  const int n = 100000;
  for (int i = 0; i < n; ++i) {
    ++counts[static_cast<size_t>(sampler.Sample(rng))];
  }
  for (int c : counts) {
    EXPECT_NEAR(c, n / 100, n / 100 * 0.3);
  }
}

TEST(StatsTest, MeanAndStdDev) {
  std::vector<double> values = {1.0, 2.0, 3.0, 4.0};
  EXPECT_DOUBLE_EQ(Mean(values), 2.5);
  EXPECT_NEAR(StdDev(values), std::sqrt(1.25), 1e-12);
}

TEST(StatsTest, PercentileInterpolates) {
  std::vector<double> values = {4.0, 1.0, 3.0, 2.0};
  EXPECT_DOUBLE_EQ(Percentile(values, 0.0), 1.0);
  EXPECT_DOUBLE_EQ(Percentile(values, 1.0), 4.0);
  EXPECT_DOUBLE_EQ(Percentile(values, 0.5), 2.5);
}

TEST(StatsTest, Solve3x3Identity) {
  std::array<std::array<double, 3>, 3> a = {{{1, 0, 0}, {0, 1, 0}, {0, 0, 1}}};
  std::array<double, 3> b = {3.0, -2.0, 7.5};
  std::array<double, 3> x = {};
  ASSERT_TRUE(Solve3x3(a, b, x));
  EXPECT_DOUBLE_EQ(x[0], 3.0);
  EXPECT_DOUBLE_EQ(x[1], -2.0);
  EXPECT_DOUBLE_EQ(x[2], 7.5);
}

TEST(StatsTest, Solve3x3Singular) {
  std::array<std::array<double, 3>, 3> a = {{{1, 2, 3}, {2, 4, 6}, {1, 1, 1}}};
  std::array<double, 3> b = {1.0, 2.0, 3.0};
  std::array<double, 3> x = {};
  EXPECT_FALSE(Solve3x3(a, b, x));
}

TEST(StatsTest, FitLinear3RecoversCoefficients) {
  // y = 2 + 3*f1 + 0.5*f2 exactly.
  std::vector<std::array<double, 3>> features;
  std::vector<double> targets;
  for (int i = 1; i <= 12; ++i) {
    double f1 = 1.0 / i;
    double f2 = static_cast<double>(i);
    features.push_back({1.0, f1, f2});
    targets.push_back(2.0 + 3.0 * f1 + 0.5 * f2);
  }
  LeastSquaresFit fit = FitLinear3(features, targets);
  ASSERT_TRUE(fit.ok);
  EXPECT_NEAR(fit.theta[0], 2.0, 1e-9);
  EXPECT_NEAR(fit.theta[1], 3.0, 1e-9);
  EXPECT_NEAR(fit.theta[2], 0.5, 1e-9);
  EXPECT_NEAR(fit.rmse, 0.0, 1e-9);
}

TEST(StatusTest, OkAndErrors) {
  EXPECT_TRUE(Status::Ok().ok());
  Status bad = Status::InvalidArgument("nope");
  EXPECT_FALSE(bad.ok());
  EXPECT_EQ(bad.code(), StatusCode::kInvalidArgument);
  EXPECT_NE(bad.ToString().find("nope"), std::string::npos);
}

TEST(StatusOrTest, HoldsValueOrStatus) {
  StatusOr<int> good(42);
  ASSERT_TRUE(good.ok());
  EXPECT_EQ(good.value(), 42);
  StatusOr<int> bad(Status::NotFound("missing"));
  EXPECT_FALSE(bad.ok());
  EXPECT_EQ(bad.status().code(), StatusCode::kNotFound);
}

TEST(StringsTest, Formatting) {
  EXPECT_EQ(StrFormat("%d-%s", 7, "x"), "7-x");
  EXPECT_EQ(HumanBytes(1536.0), "1.50 KB");
  EXPECT_EQ(HumanCount(98900.0), "98.9k");
  EXPECT_EQ(Join({"a", "b", "c"}, ", "), "a, b, c");
}

TEST(StringsTest, GlobMatch) {
  EXPECT_TRUE(GlobMatch("embedding", "embedding"));
  EXPECT_TRUE(GlobMatch("embedding", "emb*"));
  EXPECT_TRUE(GlobMatch("softmax_emb", "*emb"));
  EXPECT_TRUE(GlobMatch("anything", "*"));
  EXPECT_TRUE(GlobMatch("", "*"));
  EXPECT_TRUE(GlobMatch("w1", "w?"));
  EXPECT_TRUE(GlobMatch("emb_enc", "emb*enc"));
  EXPECT_TRUE(GlobMatch("a_b_c", "a*b*c"));
  EXPECT_FALSE(GlobMatch("embedding", "emb"));
  EXPECT_FALSE(GlobMatch("emb", "embedding"));
  EXPECT_FALSE(GlobMatch("w12", "w?"));
  EXPECT_FALSE(GlobMatch("softmax_emb", "emb*"));
  EXPECT_FALSE(GlobMatch("abc", ""));
  EXPECT_TRUE(GlobMatch("", ""));
}

TEST(ThreadPoolTest, NestedParallelForOnSamePoolRunsInline) {
  ThreadPool pool(3);
  constexpr int kOuter = 4;
  constexpr int kInner = 8;
  std::vector<int> values(kOuter * kInner, 0);
  pool.ParallelFor(kOuter, 1, [&](int64_t begin, int64_t end) {
    for (int64_t i = begin; i < end; ++i) {
      // The nested call must run inline on this lane instead of deadlocking on the
      // pool's submission lock.
      pool.ParallelFor(kInner, 1, [&](int64_t ib, int64_t ie) {
        for (int64_t j = ib; j < ie; ++j) {
          values[i * kInner + j] = static_cast<int>(i * kInner + j);
        }
      });
    }
  });
  for (int i = 0; i < kOuter * kInner; ++i) {
    ASSERT_EQ(values[i], i);
  }
}

// Regression for the PlanMany/Plan coalescing deadlock: a ParallelFor body that
// blocks waiting on work another thread can only finish via its own ParallelFor on
// the same pool. Submission must not serialize behind a running batch — the second
// submitter has to drain its own batch even with pool lanes occupied/blocked.
TEST(ThreadPoolTest, BlockedBatchDoesNotGateConcurrentSubmitters) {
  ThreadPool pool(2);
  std::mutex mu;
  std::condition_variable cv;
  bool outer_running = false;  // guarded by mu
  bool release = false;        // guarded by mu
  std::thread blocked([&] {
    pool.ParallelFor(2, 1, [&](int64_t begin, int64_t) {
      if (begin == 0) {
        std::unique_lock<std::mutex> lock(mu);
        outer_running = true;
        cv.notify_all();
        cv.wait(lock, [&] { return release; });
      }
    });
  });
  {
    // Make sure the blocked batch is published and occupying a lane before the
    // second submission — the old design held the submission lock across execution
    // and would deadlock from here on.
    std::unique_lock<std::mutex> lock(mu);
    cv.wait(lock, [&] { return outer_running; });
  }
  std::vector<int> out(8, 0);
  pool.ParallelFor(8, 1, [&](int64_t begin, int64_t end) {
    for (int64_t i = begin; i < end; ++i) {
      out[i] = static_cast<int>(i) + 1;
    }
  });
  for (int i = 0; i < 8; ++i) {
    EXPECT_EQ(out[i], i + 1);
  }
  {
    std::lock_guard<std::mutex> lock(mu);
    release = true;
  }
  cv.notify_all();
  blocked.join();
}

TEST(ThreadPoolTest, DefaultWorkerCountFallsBackAndClamps) {
  const int workers = DefaultWorkerCount();
  EXPECT_GE(workers, 1);  // hardware_concurrency()==0 must not produce 0 lanes
  EXPECT_LE(workers, 16);
  EXPECT_EQ(DefaultWorkerCount(1), 1);
  EXPECT_LE(DefaultWorkerCount(4), 4);
  EXPECT_GE(DefaultWorkerCount(4), 1);
}

}  // namespace
}  // namespace parallax
