// fork-join: a seeded irregular binary spawn tree with 2^13 leaves (2^14 - 2
// spawned threads per tree) and no shared locks. Split points are uneven and
// leaf work is heavy-tailed (drawn from the seed), so subtrees are
// unbalanced. Every internal node
// holds a buffer sized by its subtree while its children run (the
// allocation pattern of the paper's matrix multiply, so the heap high-water
// depends on the schedule); every leaf does a df_malloc/df_free of 64 B -
// 4 KiB, and exactly 1% of leaves allocate more than the quota K. Large
// allocations fork dummy threads and preempt on quota under AsyncDF. Spawn, dispatch under the engine lock, the stack pool and the
// tracked heap do nearly all the work here.
#include <algorithm>
#include <cmath>
#include <numeric>
#include <string>
#include <vector>

#include "harness.h"
#include "util/rng.h"

namespace dfth::perf {
namespace {

constexpr std::size_t kQuota = 32 << 10;  // K, the engine's default quota
constexpr std::uint64_t kShapeSeed = 0x5eed;

struct Tree {
  std::uint64_t seed = 0;
  std::size_t leaves = 0;
  std::vector<std::uint32_t> work;   ///< spin iterations per leaf
  std::vector<std::uint32_t> bytes;  ///< df_malloc size per leaf
  std::vector<std::uint8_t> visited;
};

Tree make_tree(std::uint64_t seed, std::size_t leaves, double mean_iters) {
  Tree t;
  t.seed = seed;
  t.leaves = leaves;
  Rng rng(seed);
  // Pareto(1.5) work capped at 64x the mean, rescaled to a fixed total so
  // the seed changes the shape of the load, not its size.
  std::vector<double> w(leaves);
  for (double& x : w) x = std::min(64.0, std::pow(1.0 - rng.next_double(), -1.0 / 1.5));
  const double scale =
      mean_iters * static_cast<double>(leaves) / std::accumulate(w.begin(), w.end(), 0.0);
  for (double x : w) t.work.push_back(static_cast<std::uint32_t>(x * scale) + 1);
  for (std::size_t i = 0; i < leaves; ++i) {
    const double lg = rng.next_double(6.0, 12.0);  // log2 of 64 B .. 4 KiB
    t.bytes.push_back(static_cast<std::uint32_t>(std::exp2(lg)));
  }
  std::vector<std::size_t> idx(leaves);
  std::iota(idx.begin(), idx.end(), 0);
  for (std::size_t i = 0; i < leaves / 100; ++i) {
    std::swap(idx[i], idx[i + rng.next_below(leaves - i)]);
    t.bytes[idx[i]] = static_cast<std::uint32_t>(rng.next_range(kQuota + 1, 4 * kQuota));
  }
  t.visited.assign(leaves, 0);
  return t;
}

/// Uneven split points, the same for every seed: the shape sets the serial
/// heap high-water and much of the parallel time, so the seed draws only
/// what happens at the leaves.
std::size_t split(std::size_t lo, std::size_t hi) {
  std::uint64_t h = kShapeSeed ^ (lo * 0x9e3779b97f4a7c15ULL) ^ (hi << 32);
  const double u = 0.15 + 0.7 * static_cast<double>(splitmix64(h) >> 11) * 0x1.0p-53;
  const std::size_t n = hi - lo;
  return lo + std::clamp<std::size_t>(static_cast<std::size_t>(u * static_cast<double>(n)),
                                      1, n - 1);
}

std::uint64_t leaf(Tree& t, std::size_t i) {
  const std::size_t n = t.bytes[i];
  auto* p = static_cast<std::uint8_t*>(timed("df_malloc", [n] { return df_malloc(n); }));
  if (p == nullptr) return 0;  // the checksum check reports it
  for (std::size_t k = 0; k < n; k += 256) p[k] = static_cast<std::uint8_t>(k >> 8);
  std::uint64_t x = t.seed ^ (i + 1);
  for (std::uint32_t k = 0; k < t.work[i]; ++k) {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
  }
  x += p[(n - 1) & ~std::size_t{255}];
  timed("df_free", [p] { df_free(p); });
  t.visited[i] = 1;
  return x;
}

/// An internal node's buffer, live while its subtree runs: 16 B per leaf
/// below, so the serial heap high-water S1 is about 32 B per leaf and nodes
/// over 2048 leaves exceed K.
std::uint8_t* node_buffer(std::size_t leaves) {
  const std::size_t n = 16 * leaves;
  auto* p = static_cast<std::uint8_t*>(timed("df_malloc", [n] { return df_malloc(n); }));
  if (p != nullptr) {
    for (std::size_t k = 0; k < n; k += 256) p[k] = 1;
  }
  return p;
}

std::uint64_t serial_tree(Tree& t, std::size_t lo, std::size_t hi) {
  if (hi - lo == 1) return leaf(t, lo);
  const std::size_t mid = split(lo, hi);
  std::uint8_t* buf = node_buffer(hi - lo);
  const std::uint64_t sum = serial_tree(t, lo, mid) + serial_tree(t, mid, hi);
  df_free(buf);
  return buf == nullptr ? 0 : sum;
}

void* as_ptr(std::uint64_t v) { return reinterpret_cast<void*>(static_cast<std::uintptr_t>(v)); }
std::uint64_t as_u64(void* p) { return static_cast<std::uint64_t>(reinterpret_cast<std::uintptr_t>(p)); }

std::uint64_t par_tree(Tree& t, std::size_t lo, std::size_t hi) {
  if (hi - lo == 1) return leaf(t, lo);
  const std::size_t mid = split(lo, hi);
  std::uint8_t* buf = node_buffer(hi - lo);
  std::uint64_t s0 = span_begin();
  Thread a = spawn([&t, lo, mid] { return as_ptr(par_tree(t, lo, mid)); });
  span_end("spawn", s0);
  s0 = span_begin();
  Thread b = spawn([&t, mid, hi] { return as_ptr(par_tree(t, mid, hi)); });
  span_end("spawn", s0);
  s0 = span_begin();
  const std::uint64_t left = as_u64(join(a));
  span_end("join", s0);
  s0 = span_begin();
  const std::uint64_t sum = left + as_u64(join(b));
  span_end("join", s0);
  timed("df_free", [buf] { df_free(buf); });
  return buf == nullptr ? 0 : sum;
}

}  // namespace

void run_forkjoin(const Ctx& ctx, Results& res) {
  const std::size_t leaves = ctx.smoke ? 256 : 8192;
  Tree tree;
  std::uint64_t expect = 0;
  auto tweak = [](RuntimeOptions& o) {
    o.default_stack_size = 16 << 10;
    o.mem_quota = kQuota;
  };
  const double setup_s = timed_setup([&] {
    tree = make_tree(ctx.seed, leaves, 2000);
    expect = serial_tree(tree, 0, leaves);
    std::fill(tree.visited.begin(), tree.visited.end(), 0);
    run_unit(ctx, Variant::Pn, false, [&] { par_tree(tree, 0, leaves); }, tweak);
    std::fill(tree.visited.begin(), tree.visited.end(), 0);
  });

  std::vector<Unit> units;
  rep_loop(ctx, 1, {Variant::Serial, Variant::P1, Variant::Pn, Variant::Ws},
           [&](int, Variant v, bool traced) {
             std::uint64_t sum = 0;
             units.push_back(run_unit(
                 ctx, v, traced,
                 [&] { sum = v == Variant::Serial ? serial_tree(tree, 0, leaves)
                                                  : par_tree(tree, 0, leaves); },
                 tweak));
             ++res.attempted;
             const bool all = std::all_of(tree.visited.begin(), tree.visited.end(),
                                          [](std::uint8_t b) { return b == 1; });
             res.check(sum == expect && all,
                       std::string("fork-join ") + to_string(v) + ": checksum " +
                           std::to_string(sum) + " != " + std::to_string(expect) +
                           (all ? "" : " or a leaf did not run"));
             std::fill(tree.visited.begin(), tree.visited.end(), 0);
           });

  add_batch_e2e(res, units, 1, setup_s);
  const double threads = 2.0 * static_cast<double>(leaves) - 2;
  res.add_info("threads_per_s", threads / median(unit_ms(units, Variant::Pn)) * 1e3, "1/s");
  res.add_info("threads_per_s_ws", threads / median(unit_ms(units, Variant::Ws)) * 1e3,
               "1/s");
  res.add_info("pn_units", static_cast<double>(unit_ms(units, Variant::Pn).size()), "count");
  if (ctx.traced) {
    add_layer_metrics(ctx, res, units);
    res.add_layer("space.alloc_ns.p50", span_quantile("df_malloc", 0.5, 1), "ns",
                  "wall_ms");
    res.add_layer("space.alloc_ns.p99", span_quantile("df_malloc", 0.99, 1), "ns",
                  "wall_ms");
  }
}

}  // namespace dfth::perf
