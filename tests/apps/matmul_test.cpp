// Matmul correctness across engines/schedulers and its paper-specific
// scheduling behavior (thread counts, memory shape).
#include "apps/matmul/matmul.h"

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <vector>

#include "runtime/api.h"

namespace dfth {
namespace {

using apps::MatmulConfig;

// Naive O(n^3) oracle, independent of the blocked kernels.
void naive_matmul(const double* a, const double* b, double* c, std::size_t n) {
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = 0; j < n; ++j) {
      double sum = 0;
      for (std::size_t k = 0; k < n; ++k) sum += a[i * n + k] * b[k * n + j];
      c[i * n + j] = sum;
    }
  }
}

TEST(Matmul, SerialMatchesNaive) {
  MatmulConfig cfg;
  cfg.n = 64;
  cfg.base = 16;
  std::vector<double> a(cfg.n * cfg.n), b(cfg.n * cfg.n), c(cfg.n * cfg.n),
      oracle(cfg.n * cfg.n);
  apps::matmul_fill(a.data(), cfg.n, 1);
  apps::matmul_fill(b.data(), cfg.n, 2);
  apps::matmul_serial(a.data(), b.data(), c.data(), cfg);
  naive_matmul(a.data(), b.data(), oracle.data(), cfg.n);
  EXPECT_LT(apps::matmul_max_abs_diff(c.data(), oracle.data(), cfg.n), 1e-10);
}

struct MatmulParam {
  EngineKind engine;
  SchedKind sched;
};

class MatmulParallelTest : public ::testing::TestWithParam<MatmulParam> {};

TEST_P(MatmulParallelTest, MatchesSerial) {
  MatmulConfig cfg;
  cfg.n = 128;
  cfg.base = 32;
  std::vector<double> a(cfg.n * cfg.n), b(cfg.n * cfg.n), c(cfg.n * cfg.n),
      ref(cfg.n * cfg.n);
  apps::matmul_fill(a.data(), cfg.n, 3);
  apps::matmul_fill(b.data(), cfg.n, 4);
  apps::matmul_serial(a.data(), b.data(), ref.data(), cfg);

  RuntimeOptions o;
  o.engine = GetParam().engine;
  o.sched = GetParam().sched;
  o.nprocs = 4;
  o.default_stack_size = 8 << 10;
  run(o, [&] { apps::matmul_threaded(a.data(), b.data(), c.data(), cfg); });
  EXPECT_LT(apps::matmul_max_abs_diff(c.data(), ref.data(), cfg.n), 1e-9);
}

INSTANTIATE_TEST_SUITE_P(
    EnginesSchedulers, MatmulParallelTest,
    ::testing::Values(MatmulParam{EngineKind::Sim, SchedKind::Fifo},
                      MatmulParam{EngineKind::Sim, SchedKind::Lifo},
                      MatmulParam{EngineKind::Sim, SchedKind::AsyncDf},
                      MatmulParam{EngineKind::Sim, SchedKind::WorkSteal},
                      MatmulParam{EngineKind::Real, SchedKind::Fifo},
                      MatmulParam{EngineKind::Real, SchedKind::AsyncDf}),
    [](const ::testing::TestParamInfo<MatmulParam>& info) {
      return std::string(to_string(info.param.engine)) + "_" +
             to_string(info.param.sched);
    });

TEST(Matmul, ConfigValidation) {
  EXPECT_TRUE(apps::matmul_config_valid({512, 64}));
  EXPECT_FALSE(apps::matmul_config_valid({500, 64}));   // not power of two
  EXPECT_FALSE(apps::matmul_config_valid({64, 128}));   // base > n
  EXPECT_FALSE(apps::matmul_config_valid({256, 48}));   // base not pow2
}

TEST(Matmul, BaseEqualsNDegeneratesToSerialKernel) {
  MatmulConfig cfg;
  cfg.n = 32;
  cfg.base = 32;
  std::vector<double> a(cfg.n * cfg.n), b(cfg.n * cfg.n), c(cfg.n * cfg.n),
      oracle(cfg.n * cfg.n);
  apps::matmul_fill(a.data(), cfg.n, 5);
  apps::matmul_fill(b.data(), cfg.n, 6);
  RuntimeOptions o;
  o.engine = EngineKind::Sim;
  o.nprocs = 2;
  RunStats stats = run(o, [&] {
    apps::matmul_threaded(a.data(), b.data(), c.data(), cfg);
  });
  naive_matmul(a.data(), b.data(), oracle.data(), cfg.n);
  EXPECT_LT(apps::matmul_max_abs_diff(c.data(), oracle.data(), cfg.n), 1e-10);
  EXPECT_EQ(stats.threads_created, 1u);  // no forks at all
}

TEST(Matmul, FifoLiveThreadsMatchPaperBreadthFirstStory) {
  // n=256, base=64: 1 + 8 internal + 64 leaves = 73 multiply threads; FIFO
  // keeps essentially all of them live at once, AsyncDF only the fork chain.
  MatmulConfig cfg;
  cfg.n = 256;
  cfg.base = 64;
  std::vector<double> a(cfg.n * cfg.n), b(cfg.n * cfg.n), c(cfg.n * cfg.n);
  apps::matmul_fill(a.data(), cfg.n, 7);
  apps::matmul_fill(b.data(), cfg.n, 8);

  auto run_with = [&](SchedKind sched) {
    RuntimeOptions o;
    o.engine = EngineKind::Sim;
    o.sched = sched;
    o.nprocs = 1;
    o.default_stack_size = 8 << 10;
    return run(o, [&] { apps::matmul_threaded(a.data(), b.data(), c.data(), cfg); });
  };
  const RunStats fifo = run_with(SchedKind::Fifo);
  const RunStats adf = run_with(SchedKind::AsyncDf);
  EXPECT_GE(fifo.max_live_threads, 60);
  EXPECT_LE(adf.max_live_threads, 10);
  // Same flops, so same annotated work; FIFO must not be faster.
  EXPECT_GE(fifo.elapsed_us, adf.elapsed_us * 0.95);
  // The depth-first order also needs far less heap.
  EXPECT_LT(adf.heap_peak, fifo.heap_peak);
}

struct StrassenParam {
  EngineKind engine;
  SchedKind sched;
};

class StrassenTest : public ::testing::TestWithParam<StrassenParam> {};

TEST_P(StrassenTest, MatchesClassicalMultiply) {
  MatmulConfig cfg;
  cfg.n = 128;
  cfg.base = 32;
  std::vector<double> a(cfg.n * cfg.n), b(cfg.n * cfg.n), c(cfg.n * cfg.n),
      ref(cfg.n * cfg.n);
  apps::matmul_fill(a.data(), cfg.n, 21);
  apps::matmul_fill(b.data(), cfg.n, 22);
  apps::matmul_serial(a.data(), b.data(), ref.data(), cfg);
  RuntimeOptions o;
  o.engine = GetParam().engine;
  o.sched = GetParam().sched;
  o.nprocs = 4;
  o.default_stack_size = 8 << 10;
  run(o, [&] {
    apps::matmul_strassen_threaded(a.data(), b.data(), c.data(), cfg);
  });
  // Strassen reassociates sums; tolerance reflects its weaker stability.
  EXPECT_LT(apps::matmul_max_abs_diff(c.data(), ref.data(), cfg.n), 1e-8);
}

INSTANTIATE_TEST_SUITE_P(
    EnginesSchedulers, StrassenTest,
    ::testing::Values(StrassenParam{EngineKind::Sim, SchedKind::AsyncDf},
                      StrassenParam{EngineKind::Sim, SchedKind::Fifo},
                      StrassenParam{EngineKind::Sim, SchedKind::DfDeques},
                      StrassenParam{EngineKind::Real, SchedKind::AsyncDf}),
    [](const ::testing::TestParamInfo<StrassenParam>& info) {
      return std::string(to_string(info.param.engine)) + "_" +
             to_string(info.param.sched);
    });

TEST(Strassen, DoesAsymptoticallyLessAnnotatedWork) {
  // 7 recursive products instead of 8: total annotated ops must be clearly
  // below the classical version's at equal size.
  MatmulConfig cfg;
  cfg.n = 256;
  cfg.base = 32;
  std::vector<double> a(cfg.n * cfg.n), b(cfg.n * cfg.n), c(cfg.n * cfg.n);
  apps::matmul_fill(a.data(), cfg.n, 23);
  apps::matmul_fill(b.data(), cfg.n, 24);
  RuntimeOptions o;
  o.engine = EngineKind::Sim;
  o.sched = SchedKind::AsyncDf;
  o.nprocs = 1;
  const double classical =
      run(o, [&] { apps::matmul_threaded(a.data(), b.data(), c.data(), cfg); })
          .elapsed_us;
  const double strassen =
      run(o, [&] {
        apps::matmul_strassen_threaded(a.data(), b.data(), c.data(), cfg);
      }).elapsed_us;
  EXPECT_LT(strassen, classical * 0.92);  // (7/8)^3 ≈ 0.67 on the multiplies
}

TEST(Strassen, SpaceEfficientSchedulerTamesTheTemporaries) {
  // Deep enough that breadth-first holds several levels of M-buffers at
  // once while depth-first holds roughly one root-to-leaf path of them.
  MatmulConfig cfg;
  cfg.n = 512;
  cfg.base = 32;
  std::vector<double> a(cfg.n * cfg.n), b(cfg.n * cfg.n), c(cfg.n * cfg.n);
  apps::matmul_fill(a.data(), cfg.n, 25);
  apps::matmul_fill(b.data(), cfg.n, 26);
  auto one = [&](SchedKind sched) {
    RuntimeOptions o;
    o.engine = EngineKind::Sim;
    o.sched = sched;
    o.nprocs = 4;
    o.default_stack_size = 8 << 10;
    return run(o, [&] {
      apps::matmul_strassen_threaded(a.data(), b.data(), c.data(), cfg);
    });
  };
  const RunStats fifo = one(SchedKind::Fifo);
  const RunStats adf = one(SchedKind::AsyncDf);
  EXPECT_LT(adf.heap_peak, fifo.heap_peak / 2);
  EXPECT_LT(adf.max_live_threads, fifo.max_live_threads / 2);
}

TEST(Matmul, TotalOpsFormulaMatchesAnnotations) {
  MatmulConfig cfg;
  cfg.n = 128;
  cfg.base = 32;
  std::vector<double> a(cfg.n * cfg.n), b(cfg.n * cfg.n), c(cfg.n * cfg.n);
  apps::matmul_fill(a.data(), cfg.n, 9);
  apps::matmul_fill(b.data(), cfg.n, 10);
  // One op per virtual ns and no memory-pressure slowdown: the simulator's
  // work time then counts exactly the annotated ops.
  RuntimeOptions o;
  o.engine = EngineKind::Sim;
  o.sched = SchedKind::Lifo;
  o.nprocs = 1;
  o.cost.ops_per_us = 1000;
  o.cost.pressure_max = 1;
  const RunStats stats = run(
      o, [&] { apps::matmul_threaded(a.data(), b.data(), c.data(), cfg); });
  EXPECT_EQ(static_cast<std::uint64_t>(std::llround(stats.breakdown.work_us * 1000)),
            apps::matmul_total_ops(cfg));
}

}  // namespace
}  // namespace dfth
