// Sparse matrix-vector product: generator properties and coarse/fine
// equivalence with the serial product.
#include "apps/spmv/spmv.h"

#include <gtest/gtest.h>

#include <vector>

#include "runtime/api.h"
#include "util/rng.h"

namespace dfth {
namespace {

using apps::CsrMatrix;
using apps::SpmvConfig;

SpmvConfig small_config() {
  SpmvConfig cfg;
  cfg.rows = 2000;
  cfg.target_nnz = 10000;
  cfg.iterations = 3;
  cfg.threads_per_iter = 16;
  return cfg;
}

TEST(SpmvGenerate, MatchesTargets) {
  SpmvConfig cfg;  // paper-size defaults
  CsrMatrix m(cfg.rows, cfg.rows);
  spmv_generate(m, cfg);
  EXPECT_EQ(m.rows(), 30169u);
  // Dedup makes nnz slightly below target; within 15%.
  EXPECT_GT(m.nnz(), cfg.target_nnz * 85 / 100);
  EXPECT_LE(m.nnz(), cfg.target_nnz * 115 / 100);
  // CSR structure is well formed: sorted, in-bounds columns.
  for (std::size_t i = 0; i < m.rows(); ++i) {
    EXPECT_LE(m.row_ptr()[i], m.row_ptr()[i + 1]);
    for (std::uint32_t k = m.row_ptr()[i]; k < m.row_ptr()[i + 1]; ++k) {
      EXPECT_LT(m.col_idx()[k], m.cols());
      if (k > m.row_ptr()[i]) {
        EXPECT_LT(m.col_idx()[k - 1], m.col_idx()[k]);
      }
    }
  }
}

TEST(SpmvGenerate, RowLengthsAreSkewed) {
  SpmvConfig cfg = small_config();
  CsrMatrix m(cfg.rows, cfg.rows);
  spmv_generate(m, cfg);
  // The refined middle region must be denser than the edges: compare mean
  // row length of the middle decile vs the first decile.
  auto mean_len = [&](std::size_t lo, std::size_t hi) {
    return static_cast<double>(m.row_ptr()[hi] - m.row_ptr()[lo]) /
           static_cast<double>(hi - lo);
  };
  const std::size_t decile = cfg.rows / 10;
  EXPECT_GT(mean_len(cfg.rows / 2 - decile / 2, cfg.rows / 2 + decile / 2),
            2.0 * mean_len(0, decile));
}

TEST(SpmvGenerate, Deterministic) {
  SpmvConfig cfg = small_config();
  CsrMatrix a(cfg.rows, cfg.rows), b(cfg.rows, cfg.rows);
  spmv_generate(a, cfg);
  spmv_generate(b, cfg);
  ASSERT_EQ(a.nnz(), b.nnz());
  for (std::size_t k = 0; k < a.nnz(); ++k) {
    EXPECT_EQ(a.col_idx()[k], b.col_idx()[k]);
    EXPECT_EQ(a.values()[k], b.values()[k]);
  }
}

class SpmvParallelTest : public ::testing::TestWithParam<EngineKind> {};

TEST_P(SpmvParallelTest, FineMatchesSerial) {
  SpmvConfig cfg = small_config();
  CsrMatrix m(cfg.rows, cfg.rows);
  spmv_generate(m, cfg);
  std::vector<double> v(cfg.rows), w_serial(cfg.rows), w_fine(cfg.rows);
  Rng rng(3);
  for (auto& x : v) x = rng.next_double(-1, 1);
  spmv_serial(m, v.data(), w_serial.data());

  RuntimeOptions o;
  o.engine = GetParam();
  o.sched = SchedKind::AsyncDf;
  o.nprocs = 4;
  o.default_stack_size = 8 << 10;
  run(o, [&] { spmv_fine(m, v.data(), w_fine.data(), cfg); });
  EXPECT_LT(apps::spmv_max_abs_diff(w_serial.data(), w_fine.data(), cfg.rows), 1e-12);
}

TEST_P(SpmvParallelTest, CoarseMatchesSerial) {
  SpmvConfig cfg = small_config();
  CsrMatrix m(cfg.rows, cfg.rows);
  spmv_generate(m, cfg);
  std::vector<double> v(cfg.rows), w_serial(cfg.rows), w_coarse(cfg.rows);
  Rng rng(4);
  for (auto& x : v) x = rng.next_double(-1, 1);
  spmv_serial(m, v.data(), w_serial.data());

  RuntimeOptions o;
  o.engine = GetParam();
  o.sched = SchedKind::Fifo;  // coarse code must work on the stock scheduler
  o.nprocs = 4;
  o.default_stack_size = 8 << 10;
  run(o, [&] { spmv_coarse(m, v.data(), w_coarse.data(), cfg, 4); });
  EXPECT_LT(apps::spmv_max_abs_diff(w_serial.data(), w_coarse.data(), cfg.rows),
            1e-12);
}

INSTANTIATE_TEST_SUITE_P(BothEngines, SpmvParallelTest,
                         ::testing::Values(EngineKind::Sim, EngineKind::Real),
                         [](const ::testing::TestParamInfo<EngineKind>& info) {
                           return std::string(to_string(info.param));
                         });

TEST(Spmv, FineThreadCountMatchesConfig) {
  SpmvConfig cfg = small_config();
  cfg.iterations = 2;
  cfg.threads_per_iter = 32;
  CsrMatrix m(cfg.rows, cfg.rows);
  spmv_generate(m, cfg);
  std::vector<double> v(cfg.rows, 1.0), w(cfg.rows);
  RuntimeOptions o;
  o.engine = EngineKind::Sim;
  o.nprocs = 4;
  RunStats stats = run(o, [&] { spmv_fine(m, v.data(), w.data(), cfg); });
  // main + 32 per iteration * 2 iterations.
  EXPECT_EQ(stats.threads_created, 1u + 32u * 2u);
}

}  // namespace
}  // namespace dfth
