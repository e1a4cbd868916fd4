// sync: 256 long-lived fibers pass 2 x nproc tokens around a ring of
// Semaphores; every step also takes one of 8 striped Mutexes and adds a
// computed value into a shared table, which is checked exactly afterwards. Nothing is spawned once
// the ring runs, so the engine's dispatch path is driven through block/wake
// instead of fork/exit: a change that speeds up spawn at the expense of wake
// shows up here and not in fork-join.
//
// Every fiber makes the same number of steps. That cannot deadlock: a fiber
// blocked with no token has a predecessor with fewer finished steps, so if
// every unfinished fiber were blocked all T >= 1 tokens would have vanished.
#include <memory>
#include <string>
#include <vector>

#include "harness.h"
#include "runtime/sync.h"
#include "util/check.h"
#include "util/rng.h"

namespace dfth::perf {
namespace {

constexpr int kStripes = 8;
constexpr std::size_t kSlots = 1024;

struct Ring {
  std::uint64_t seed = 0;
  int fibers = 0;
  int tokens = 0;
  int steps = 0;  ///< per fiber
  std::vector<std::uint64_t> table;

  std::uint64_t mix(int i, int j) const {
    std::uint64_t s = seed ^ (static_cast<std::uint64_t>(i) << 32) ^
                      static_cast<std::uint64_t>(j);
    return splitmix64(s);
  }
  std::size_t handoffs() const {
    return static_cast<std::size_t>(fibers) * static_cast<std::size_t>(steps);
  }
};

/// The value a step adds: about a quarter microsecond of dependent
/// arithmetic, so each step holds its stripe for some real work.
std::uint64_t step_value(std::uint64_t h) {
  for (int k = 0; k < 128; ++k) {
    h ^= h << 13;
    h ^= h >> 7;
    h ^= h << 17;
  }
  return h >> 32;
}

/// The ring's table updates in one fixed order, without any synchronization
/// (the serial elision, and the reference the runs are checked against).
void serial_ring(Ring& r) {
  for (int j = 0; j < r.steps; ++j) {
    for (int i = 0; i < r.fibers; ++i) {
      const std::uint64_t h = r.mix(i, j);
      r.table[h % kSlots] += step_value(h);
    }
  }
}

/// Fiber i of the ring: `steps` times, wait for a token, update the table
/// under the slot's stripe, pass the token on.
void ring_fiber(Ring& r, Semaphore* sems, Mutex* locks, int i) {
  Semaphore& mine = sems[i];
  Semaphore& next = sems[(i + 1) % r.fibers];
  // The fiber's private working set, on the tracked heap: its updates, drawn
  // before the ring starts.
  const auto n = static_cast<std::size_t>(r.steps);
  auto* work = static_cast<std::uint64_t*>(df_malloc(n * sizeof(std::uint64_t)));
  DFTH_CHECK(work != nullptr);
  for (int j = 0; j < r.steps; ++j) work[j] = r.mix(i, j);
  for (int j = 0; j < r.steps; ++j) {
    timed("sem_acquire", [&mine] { mine.acquire(); });
    const std::uint64_t h = work[j];
    const std::size_t slot = h % kSlots;
    Mutex& m = locks[slot % kStripes];
    timed("lock", [&m] { m.lock(); });
    r.table[slot] += step_value(h);
    m.unlock();
    next.release();
  }
  df_free(work);
}

void par_ring(Ring& r) {
  auto sems = std::make_unique<Semaphore[]>(static_cast<std::size_t>(r.fibers));
  auto locks = std::make_unique<Mutex[]>(kStripes);
  std::vector<Thread> ths;
  for (int i = 0; i < r.fibers; ++i) {
    const std::uint64_t s0 = span_begin();
    ths.push_back(spawn([&r, s = sems.get(), l = locks.get(), i]() -> void* {
      ring_fiber(r, s, l, i);
      return nullptr;
    }));
    span_end("spawn", s0);
  }
  for (int t = 0; t < r.tokens; ++t) sems[t * r.fibers / r.tokens].release();
  for (Thread& th : ths) {
    const std::uint64_t s0 = span_begin();
    join(th);
    span_end("join", s0);
  }
}

}  // namespace

void run_sync(const Ctx& ctx, Results& res) {
  Ring ring;
  std::vector<std::uint64_t> expect;
  auto tweak = [](RuntimeOptions& o) { o.default_stack_size = 16 << 10; };
  const double setup_s = timed_setup([&] {
    ring.seed = ctx.seed;
    ring.fibers = ctx.smoke ? 32 : 256;
    ring.tokens = 2 * ctx.nproc;
    ring.steps = ctx.smoke ? 8 : 64;
    ring.table.assign(kSlots, 0);
    serial_ring(ring);
    expect = ring.table;
    ring.table.assign(kSlots, 0);
    run_unit(ctx, Variant::Pn, false, [&] { par_ring(ring); }, tweak);
    ring.table.assign(kSlots, 0);
  });

  std::vector<Unit> units;
  rep_loop(ctx, 1, {Variant::Serial, Variant::P1, Variant::Pn, Variant::Ws},
           [&](int, Variant v, bool traced) {
             units.push_back(run_unit(
                 ctx, v, traced,
                 [&] { v == Variant::Serial ? serial_ring(ring) : par_ring(ring); },
                 tweak));
             ++res.attempted;
             res.check(ring.table == expect, std::string("sync ") + to_string(v) +
                                                 ": table differs from the reference");
             ring.table.assign(kSlots, 0);
           });

  add_batch_e2e(res, units, 1, setup_s);
  const double h = static_cast<double>(ring.handoffs());
  res.add_info("handoffs_per_s", h / median(unit_ms(units, Variant::Pn)) * 1e3, "1/s");
  res.add_info("handoffs_per_s_ws", h / median(unit_ms(units, Variant::Ws)) * 1e3, "1/s");
  res.add_info("pn_units", static_cast<double>(unit_ms(units, Variant::Pn).size()), "count");
  if (ctx.traced) {
    add_layer_metrics(ctx, res, units);
    res.add_layer("runtime.lock_ns.p50", span_quantile("lock", 0.5, 1), "ns", "wall_ms");
    res.add_layer("runtime.lock_ns.p99", span_quantile("lock", 0.99, 1), "ns", "wall_ms");
    res.add_layer("runtime.sem_acquire_ns.p50", span_quantile("sem_acquire", 0.5, 1),
                  "ns", "wall_ms");
    res.add_layer("runtime.sem_acquire_ns.p99", span_quantile("sem_acquire", 0.99, 1),
                  "ns", "wall_ms");
  }
}

}  // namespace dfth::perf
