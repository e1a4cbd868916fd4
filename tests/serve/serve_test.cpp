// Serving subsystem (src/serve/): bounded ingress, K-driven admission,
// overload-shedding tiers with hysteresis, deadline expiry in queue and in
// flight, the watchdog liveness heartbeat, and the timed-wait cancellation
// race — a handler blocked in CondVar::timed_wait / Semaphore::
// try_acquire_for whose request deadline fires mid-wait must unwind
// cooperatively without leaking tracked-heap bytes, on both engines, with
// the whole run recorded (and, on the RealEngine, replayed to an identical
// determinism signature).
#include "serve/server.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <string>
#include <thread>
#include <vector>

#include "replay/signature.h"
#include "runtime/api.h"
#include "runtime/sync.h"
#include "serve/admission.h"
#include "serve/ingress.h"
#include "serve/retry.h"
#include "space/tracked_heap.h"

namespace dfth {
namespace {

using serve::AdmissionController;
using serve::EndpointSpec;
using serve::IngressRing;
using serve::Outcome;
using serve::RejectReason;
using serve::Request;
using serve::RetryPolicy;
using serve::ServeReport;
using serve::Server;
using serve::ServerConfig;

// ---------- ingress ring (pure unit tests, no runtime) -----------------------

TEST(IngressRing, CapacityRoundsUpToPowerOfTwo) {
  EXPECT_EQ(IngressRing<int>(0).capacity(), 2u);
  EXPECT_EQ(IngressRing<int>(2).capacity(), 2u);
  EXPECT_EQ(IngressRing<int>(3).capacity(), 4u);
  EXPECT_EQ(IngressRing<int>(256).capacity(), 256u);
  EXPECT_EQ(IngressRing<int>(257).capacity(), 512u);
}

TEST(IngressRing, FifoOrderAndDepth) {
  IngressRing<int> ring(4);
  EXPECT_EQ(ring.size(), 0u);
  for (int i = 0; i < 4; ++i) EXPECT_TRUE(ring.try_push(i));
  EXPECT_EQ(ring.size(), 4u);
  EXPECT_FALSE(ring.try_push(99)) << "bounded: a full ring must reject";
  for (int i = 0; i < 4; ++i) {
    int v = -1;
    ASSERT_TRUE(ring.try_pop(&v));
    EXPECT_EQ(v, i) << "single-consumer pop must preserve FIFO order";
  }
  int v;
  EXPECT_FALSE(ring.try_pop(&v)) << "empty ring must report empty";
  EXPECT_EQ(ring.size(), 0u);
}

TEST(IngressRing, WrapsAcrossManyLaps) {
  IngressRing<int> ring(2);
  for (int lap = 0; lap < 1000; ++lap) {
    EXPECT_TRUE(ring.try_push(lap));
    EXPECT_TRUE(ring.try_push(lap + 1'000'000));
    EXPECT_FALSE(ring.try_push(0));
    int a = 0, b = 0;
    ASSERT_TRUE(ring.try_pop(&a));
    ASSERT_TRUE(ring.try_pop(&b));
    EXPECT_EQ(a, lap);
    EXPECT_EQ(b, lap + 1'000'000);
  }
}

// Four producers, one consumer. The depth counter is bumped before a cell is
// published, so the consumer's decrement can never run first and wrap
// size() around to ~2^64, which the shed tiers would read as a full ring.
TEST(IngressRing, DepthNeverUnderflowsWithConcurrentProducers) {
  constexpr int kProducers = 4;
  constexpr int kPerProducer = 50'000;
  IngressRing<int> ring(64);
  std::vector<std::thread> producers;
  for (int p = 0; p < kProducers; ++p) {
    producers.emplace_back([&ring, p] {
      for (int i = 0; i < kPerProducer; ++i) {
        while (!ring.try_push(p * kPerProducer + i)) std::this_thread::yield();
      }
    });
  }
  std::size_t worst = 0;
  for (int popped = 0; popped < kProducers * kPerProducer;) {
    int v = 0;
    if (!ring.try_pop(&v)) continue;
    ++popped;
    worst = std::max(worst, ring.size());
  }
  for (std::thread& t : producers) t.join();
  EXPECT_LE(worst, ring.capacity());
  EXPECT_EQ(ring.size(), 0u);
}

// ---------- admission controller ---------------------------------------------

TEST(AdmissionController, ReservesAgainstBudgetMinusBaseline) {
  AdmissionController adm(/*budget=*/1000, /*baseline=*/200);
  EXPECT_EQ(adm.usable(), 800u);
  EXPECT_EQ(adm.headroom(), 800u);
  EXPECT_TRUE(adm.try_admit(500));
  EXPECT_TRUE(adm.try_admit(300));
  EXPECT_EQ(adm.headroom(), 0u);
  EXPECT_FALSE(adm.try_admit(1)) << "reserved + bound may never exceed usable";
  adm.release(300);
  EXPECT_EQ(adm.headroom(), 300u);
  EXPECT_TRUE(adm.try_admit(300));
  adm.release(500);
  adm.release(300);
  EXPECT_EQ(adm.reserved(), 0u);
}

TEST(AdmissionController, OversizedBoundIsPermanentlyInadmissible) {
  AdmissionController adm(1000, 0);
  EXPECT_FALSE(adm.try_admit(1001));
  EXPECT_EQ(adm.reserved(), 0u) << "a failed admit must not leak reservation";
}

TEST(AdmissionController, BaselineLargerThanBudgetMeansZeroUsable) {
  AdmissionController adm(100, 500);
  EXPECT_EQ(adm.usable(), 0u);
  EXPECT_FALSE(adm.try_admit(1));
}

// ---------- retry policy -----------------------------------------------------

TEST(RetryPolicy, OnlyTransientRejectionsRetry) {
  RetryPolicy p;
  p.max_attempts = 3;
  Request r;
  r.outcome = Outcome::kRejected;
  r.attempt = 0;
  EXPECT_TRUE(serve::should_retry(p, r));
  r.attempt = 2;  // attempts 0,1,2 = 3 total submits already possible
  EXPECT_FALSE(serve::should_retry(p, r));
  r.attempt = 0;
  r.outcome = Outcome::kExpired;
  EXPECT_FALSE(serve::should_retry(p, r))
      << "an expired request's latency budget is spent — no retry";
  r.outcome = Outcome::kCompleted;
  EXPECT_FALSE(serve::should_retry(p, r));
}

TEST(RetryPolicy, BackoffIsCappedAndDeterministic) {
  RetryPolicy p;
  p.base_backoff_ns = 1000;
  p.max_backoff_ns = 8000;
  EXPECT_EQ(serve::backoff_ns(p, 7, 0, 42), 0u);
  for (int attempt = 1; attempt <= 12; ++attempt) {
    const std::uint64_t cap =
        attempt - 1 >= 3 ? 8000u : (1000u << (attempt - 1));
    const std::uint64_t b1 = serve::backoff_ns(p, 7, attempt, 42);
    const std::uint64_t b2 = serve::backoff_ns(p, 7, attempt, 42);
    EXPECT_EQ(b1, b2) << "same (seed,id,attempt) must jitter identically";
    EXPECT_LE(b1, cap);
  }
  // Different request ids de-synchronize (full jitter breaks herds). With
  // 32 ids the chance of all-equal values is negligible unless broken.
  bool differ = false;
  for (std::uint64_t id = 1; id < 32 && !differ; ++id) {
    differ = serve::backoff_ns(p, id, 3, 42) != serve::backoff_ns(p, 0, 3, 42);
  }
  EXPECT_TRUE(differ);
}

// ---------- server behavior (both engines) -----------------------------------

class ServeTest : public ::testing::TestWithParam<EngineKind> {
 protected:
  RuntimeOptions opts(int nprocs = 2) const {
    RuntimeOptions o;
    o.engine = GetParam();
    o.sched = SchedKind::AsyncDf;
    o.nprocs = nprocs;
    o.default_stack_size = 32 << 10;
    return o;
  }
};

std::string engine_name(const ::testing::TestParamInfo<EngineKind>& info) {
  return to_string(info.param);
}

// Spawns the pump, runs `body(server)`, stops and joins. Keeps each test
// focused on its scenario instead of the serving-run scaffolding.
template <typename Body>
ServeReport serve_scenario(ServerConfig cfg, std::vector<EndpointSpec> eps,
                           const Body& body) {
  Server server(std::move(cfg), std::move(eps));
  Thread pump = spawn([&server]() -> void* {
    server.pump();
    return nullptr;
  });
  body(server);
  server.stop();
  join(pump);
  return server.report();
}

// Variant for the tier tests: `prefill(server)` runs BEFORE the pump fiber
// exists, so the queue depth the first pop observes is exactly the prefill
// count — the tier trajectory becomes a pure function of the thresholds on
// both engines (a live pump would race the submit loop and drain early).
template <typename Prefill>
ServeReport serve_prefilled(ServerConfig cfg, std::vector<EndpointSpec> eps,
                            const Prefill& prefill) {
  Server server(std::move(cfg), std::move(eps));
  prefill(server);
  Thread pump = spawn([&server]() -> void* {
    server.pump();
    return nullptr;
  });
  server.stop();
  join(pump);
  return server.report();
}

TEST_P(ServeTest, EveryRequestTerminatesExactlyOnce) {
  constexpr int kRequests = 32;
  std::atomic<int> done_calls{0};
  ServeReport rep;
  run(opts(), [&] {
    std::vector<Request> arena(kRequests);
    ServerConfig cfg;
    cfg.poll_ns = 100'000;
    cfg.on_done = [&done_calls](Request*) {
      done_calls.fetch_add(1, std::memory_order_relaxed);
    };
    EndpointSpec ep;
    ep.name = "echo";
    ep.mem_bound = 1024;
    ep.handler = [](Request&) {};
    rep = serve_scenario(cfg, {ep}, [&](Server& s) {
      for (int i = 0; i < kRequests; ++i) {
        arena[static_cast<std::size_t>(i)].id = static_cast<std::uint64_t>(i);
        s.submit(&arena[static_cast<std::size_t>(i)]);
      }
      // Drain before stop so completion (not shutdown) ends the requests.
      Semaphore idle{0};
      while (done_calls.load(std::memory_order_relaxed) < kRequests) {
        idle.try_acquire_for(100'000);
      }
    });
    for (const Request& r : arena) {
      EXPECT_EQ(r.outcome, Outcome::kCompleted);
      EXPECT_EQ(r.bytes_live.load(std::memory_order_relaxed), 0);
    }
  });
  EXPECT_EQ(done_calls.load(), kRequests) << "on_done must fire exactly once each";
  EXPECT_EQ(rep.submitted, static_cast<std::uint64_t>(kRequests));
  EXPECT_EQ(rep.completed, static_cast<std::uint64_t>(kRequests));
  EXPECT_EQ(rep.rejected_queue + rep.rejected_shed + rep.rejected_admission +
                rep.expired_queue + rep.expired_running,
            0u);
}

TEST_P(ServeTest, FullIngressRejectsSynchronously) {
  run(opts(), [&] {
    std::vector<Request> arena(3);
    for (std::size_t i = 0; i < arena.size(); ++i) arena[i].id = i;
    ServerConfig cfg;
    cfg.ingress_capacity = 2;
    EndpointSpec ep;
    ep.name = "echo";
    ep.mem_bound = 256;
    ep.handler = [](Request&) {};
    Server server(cfg, {ep});
    // No pump is running: the third push meets a full ring and the client
    // learns synchronously — bounded ingress never blocks or queues it.
    EXPECT_TRUE(server.submit(&arena[0]));
    EXPECT_TRUE(server.submit(&arena[1]));
    EXPECT_FALSE(server.submit(&arena[2]));
    EXPECT_EQ(arena[2].outcome, Outcome::kRejected);
    EXPECT_EQ(arena[2].reject, RejectReason::kQueueFull);
    Thread pump = spawn([&server]() -> void* {
      server.pump();
      return nullptr;
    });
    server.stop();
    join(pump);
    const ServeReport rep = server.report();
    EXPECT_EQ(rep.rejected_queue, 1u);
    EXPECT_EQ(rep.completed, 2u);
  });
}

// Pre-filling the ring before the pump starts makes the tier trajectory a
// pure function of the thresholds: with capacity 8 and alternating
// bulk/crit submits, the pump pops depths 7,6,...,0, entering kShedLow at
// fill 7/8 and exiting at fill 1/8 — so exactly the first three bulk
// requests shed, every crit request survives (priority 0 is below the shed
// floor), and the tier transitions exactly twice. Deterministic on both
// engines because all submits happen before the pump fiber exists.
TEST_P(ServeTest, ShedTierHasHysteresisAndSparesCriticalClass) {
  ServeReport rep;
  run(opts(), [&] {
    std::vector<Request> arena(8);
    ServerConfig cfg;
    cfg.ingress_capacity = 8;
    cfg.shed.shed_enter_depth = 0.75;
    cfg.shed.shed_exit_depth = 0.25;
    cfg.shed.drain_enter_depth = 1.1;  // unreachable: this test isolates shed
    cfg.shed.drain_exit_depth = 1.0;
    cfg.shed_priority_floor = 1;
    EndpointSpec crit;
    crit.name = "crit";
    crit.priority = 0;
    crit.mem_bound = 256;
    crit.handler = [](Request&) {};
    EndpointSpec bulk = crit;
    bulk.name = "bulk";
    bulk.priority = 1;
    rep = serve_prefilled(cfg, {crit, bulk}, [&](Server& s) {
      for (std::size_t i = 0; i < arena.size(); ++i) {
        arena[i].id = i;
        arena[i].endpoint = i % 2 == 0 ? 1 : 0;  // bulk, crit, bulk, ...
        ASSERT_TRUE(s.submit(&arena[i]));
      }
    });
  });
  ASSERT_EQ(rep.endpoints.size(), 2u);
  const serve::EndpointReport& crit_rep = rep.endpoints[0];
  const serve::EndpointReport& bulk_rep = rep.endpoints[1];
  EXPECT_EQ(crit_rep.rejected_shed, 0u)
      << "kShedLow must never reject the critical class";
  EXPECT_EQ(crit_rep.completed, 4u);
  EXPECT_EQ(bulk_rep.rejected_shed, 3u);
  EXPECT_EQ(bulk_rep.completed, 1u) << "hysteresis exit must re-admit bulk";
  EXPECT_EQ(rep.tier_transitions, 2u);  // accept -> shed-low -> accept
}

// Same trick for the top tier: drain-only rejects even priority 0, and the
// ladder de-escalates one rung at a time (drain -> shed-low -> accept).
TEST_P(ServeTest, DrainOnlyRejectsEverythingThenStepsDown) {
  ServeReport rep;
  run(opts(), [&] {
    std::vector<Request> arena(8);
    ServerConfig cfg;
    cfg.ingress_capacity = 8;
    cfg.shed.shed_enter_depth = 0.60;
    cfg.shed.shed_exit_depth = 0.25;
    cfg.shed.drain_enter_depth = 0.75;
    cfg.shed.drain_exit_depth = 0.25;
    EndpointSpec crit;
    crit.name = "crit";
    crit.priority = 0;  // below the shed floor: only kDrainOnly rejects it
    crit.mem_bound = 256;
    crit.handler = [](Request&) {};
    rep = serve_prefilled(cfg, {crit}, [&](Server& s) {
      for (std::size_t i = 0; i < arena.size(); ++i) {
        arena[i].id = i;
        ASSERT_TRUE(s.submit(&arena[i]));
      }
    });
  });
  // Depths seen: 7,6,5,4,3 reject in drain-only (fill .875..." .375 all
  // above the .25 exit), depth 2 steps down to shed-low (priority 0 runs),
  // depth 1 steps down to accept.
  EXPECT_EQ(rep.rejected_shed, 5u);
  EXPECT_EQ(rep.completed, 3u);
  EXPECT_EQ(rep.tier_transitions, 3u);
}

TEST_P(ServeTest, AdmissionRejectsWhenCertifiedBoundsExceedHeadroom) {
  std::atomic<int> rejected{0};
  ServeReport rep;
  run(opts(), [&] {
    std::vector<Request> arena(2);
    Semaphore gate{0};
    ServerConfig cfg;
    const auto baseline =
        static_cast<std::size_t>(TrackedHeap::instance().live_bytes() > 0
                                     ? TrackedHeap::instance().live_bytes()
                                     : 0);
    cfg.mem_budget = baseline + 64 * 1024;
    cfg.on_done = [&rejected](Request* r) {
      if (r->outcome == Outcome::kRejected) {
        rejected.fetch_add(1, std::memory_order_relaxed);
      }
    };
    EndpointSpec ep;
    ep.name = "heavy";
    ep.mem_bound = 40 * 1024;  // two in flight would need 80K of 64K usable
    ep.handler = [&gate](Request&) { gate.acquire(); };
    rep = serve_scenario(cfg, {ep}, [&](Server& s) {
      arena[0].id = 0;
      arena[1].id = 1;
      ASSERT_TRUE(s.submit(&arena[0]));
      ASSERT_TRUE(s.submit(&arena[1]));
      Semaphore idle{0};
      while (rejected.load(std::memory_order_relaxed) == 0) {
        idle.try_acquire_for(100'000);
      }
      gate.release();  // let the admitted request finish
    });
    EXPECT_EQ(arena[1].outcome, Outcome::kRejected);
    EXPECT_EQ(arena[1].reject, RejectReason::kAdmission);
  });
  EXPECT_EQ(rep.rejected_admission, 1u);
  EXPECT_EQ(rep.completed, 1u);
  EXPECT_LE(rep.peak_inflight, 1u)
      << "the reservation must serialize requests whose bounds cannot coexist";
}

TEST_P(ServeTest, DeadlineExpiresInQueueBeforeDispatch) {
  ServeReport rep;
  run(opts(), [&] {
    std::vector<Request> arena(1);
    arena[0].id = 1;
    ServerConfig cfg;
    EndpointSpec ep;
    ep.name = "late";
    ep.mem_bound = 256;
    ep.deadline_ns = 1;  // expires essentially immediately
    ep.handler = [](Request&) { ADD_FAILURE() << "expired request must not run"; };
    Server server(cfg, {ep});
    ASSERT_TRUE(server.submit(&arena[0]));
    // Let the deadline pass while queued (no pump yet): any blocking wait
    // advances the engine clock on both engines.
    Semaphore idle{0};
    idle.try_acquire_for(2'000'000);
    Thread pump = spawn([&server]() -> void* {
      server.pump();
      return nullptr;
    });
    server.stop();
    join(pump);
    rep = server.report();
    EXPECT_EQ(arena[0].outcome, Outcome::kExpired);
    EXPECT_TRUE(arena[0].token.is_cancelled());
  });
  EXPECT_EQ(rep.expired_queue, 1u);
  EXPECT_EQ(rep.expired_running, 0u);
}

#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
constexpr std::uint64_t kTimedWaitDeadlineNs = 30'000'000;
#else
constexpr std::uint64_t kTimedWaitDeadlineNs = 3'000'000;
#endif

// The satellite race this file exists for: a handler parks in timed waits
// (Semaphore::try_acquire_for and CondVar::timed_wait) holding tracked
// bytes while its request deadline fires. The cancellation must reach it
// cooperatively (cancel_requested() after each timed-wait wake), the
// request must classify as expired-in-flight, and the unwind must release
// every tracked byte — no leak through either primitive's timeout path.
// The whole run is recorded, so the race's resolution is itself a pinned,
// replayable schedule.
TEST_P(ServeTest, TimedWaitDeadlineRaceUnwindsWithoutLeaks) {
  const std::int64_t live_before = TrackedHeap::instance().live_bytes();
  const std::string log_path = testing::TempDir() + "dfth_serve_timedwait_" +
                               to_string(GetParam()) + ".dfthlog";
  auto body = [this](RuntimeOptions o, ServeReport* rep_out) {
    run(o, [&] {
      std::vector<Request> arena(4);
      Mutex wait_mu;
      CondVar never_signaled;
      Semaphore never_released{0};
      ServerConfig cfg;
      cfg.poll_ns = 100'000;
      EndpointSpec ep;
      ep.name = "sleeper";
      ep.mem_bound = 16 * 1024;
      // Generous on the engine clock, tiny on the test's wall clock: Sim
      // virtual time and Real steady time both cross it within a few waits.
      // It must still outlast each request's wait in the ingress queue, or
      // the request rightly expires there before it runs; sanitizer builds
      // pump several times slower, so they get a longer one.
      ep.deadline_ns = kTimedWaitDeadlineNs;
      ep.handler = [&](Request&) {
        void* held = df_malloc(4096);
        ASSERT_NE(held, nullptr);
        // Alternate the two timed primitives until the deadline's cancel
        // lands; each wake is a cooperative cancellation poll point.
        bool use_cv = true;
        while (!cancel_requested()) {
          if (use_cv) {
            LockGuard g(wait_mu);
            never_signaled.timed_wait(wait_mu, 200'000);
          } else {
            never_released.try_acquire_for(200'000);
          }
          use_cv = !use_cv;
        }
        df_free(held);
      };
      *rep_out = serve_scenario(cfg, {ep}, [&](Server& s) {
        std::atomic<int> done{0};
        s.set_on_done([&done](Request*) {
          done.fetch_add(1, std::memory_order_relaxed);
        });
        for (std::size_t i = 0; i < arena.size(); ++i) {
          arena[i].id = i;
          ASSERT_TRUE(s.submit(&arena[i]));
        }
        Semaphore idle{0};
        while (done.load(std::memory_order_relaxed) <
               static_cast<int>(arena.size())) {
          idle.try_acquire_for(100'000);
        }
      });
      for (const Request& r : arena) {
        EXPECT_EQ(r.outcome, Outcome::kExpired);
        EXPECT_EQ(r.bytes_live.load(std::memory_order_relaxed), 0)
            << "request " << r.id
            << " leaked tracked bytes through the timed-wait unwind";
      }
    });
  };

  RuntimeOptions o = opts();
  o.record_path = log_path;
  ServeReport recorded;
  body(o, &recorded);
  EXPECT_EQ(recorded.expired_running, 4u);
  EXPECT_EQ(recorded.completed + recorded.rejected_queue +
                recorded.rejected_shed + recorded.rejected_admission +
                recorded.expired_queue,
            0u);
  EXPECT_EQ(TrackedHeap::instance().live_bytes(), live_before)
      << "tracked heap must return to its pre-run level (no stack/byte leak)";

  // Strict replay (RealEngine only — Sim logs cross-replay by design): the
  // recorded resolution of the deadline-vs-timeout race must reproduce,
  // down to the determinism signature.
  if (GetParam() == EngineKind::Real) {
    RuntimeOptions r = opts();
    r.replay_path = log_path;
    ServeReport replayed;
    body(r, &replayed);
    EXPECT_EQ(replayed.expired_running, 4u);
    EXPECT_EQ(replayed.completed, 0u);
  }
  std::remove(log_path.c_str());
}

// Light load from four client fibers on four workers: the ring is almost
// always empty, so the pump pops right behind each push. With the default
// tier thresholds nothing may be shed.
TEST(ServeRealEngine, DefaultTiersShedNothingUnderLightLoad) {
  constexpr int kProducers = 4;
  constexpr int kPerProducer = 64;
  constexpr int kTotal = kProducers * kPerProducer;
  RuntimeOptions o;
  o.engine = EngineKind::Real;
  o.sched = SchedKind::AsyncDf;
  o.nprocs = 4;
  o.default_stack_size = 32 << 10;
  std::atomic<int> done_calls{0};
  ServeReport rep;
  run(o, [&] {
    std::vector<Request> arena(kTotal);
    ServerConfig cfg;
    cfg.poll_ns = 100'000;
    cfg.on_done = [&done_calls](Request*) {
      done_calls.fetch_add(1, std::memory_order_relaxed);
    };
    EndpointSpec ep;
    ep.name = "echo";
    ep.mem_bound = 1024;
    ep.handler = [](Request&) {};
    rep = serve_scenario(cfg, {ep}, [&](Server& s) {
      std::vector<Thread> clients;
      for (int p = 0; p < kProducers; ++p) {
        clients.push_back(spawn([&s, &arena, p]() -> void* {
          Semaphore pace{0};
          for (int i = 0; i < kPerProducer; ++i) {
            Request& r = arena[static_cast<std::size_t>(p * kPerProducer + i)];
            r.id = static_cast<std::uint64_t>(p * kPerProducer + i);
            s.submit(&r);
            pace.try_acquire_for(20'000);
          }
          return nullptr;
        }));
      }
      for (Thread& c : clients) join(c);
      Semaphore idle{0};
      while (done_calls.load(std::memory_order_relaxed) < kTotal) {
        idle.try_acquire_for(100'000);
      }
    });
  });
  EXPECT_EQ(rep.rejected_shed, 0u);
  EXPECT_EQ(rep.completed, static_cast<std::uint64_t>(kTotal));
}

INSTANTIATE_TEST_SUITE_P(Engines, ServeTest,
                         ::testing::Values(EngineKind::Sim, EngineKind::Real),
                         engine_name);

// ---------- watchdog liveness heartbeat (RealEngine) -------------------------

// An armed stall watchdog plus an idle-but-armed server: without the
// heartbeat the supervisor would see zero scheduler progress for longer
// than the deadline and abort the process; the pump's per-iteration beat
// is what keeps "serving, currently idle" alive. Surviving the idle window
// IS the assertion.
TEST(ServeWatchdog, HeartbeatKeepsIdleServerAliveUnderStallWatchdog) {
  std::atomic<std::uint64_t> heartbeat{0};
  RuntimeOptions o;
  o.engine = EngineKind::Real;
  o.sched = SchedKind::AsyncDf;
  o.nprocs = 2;
  o.default_stack_size = 32 << 10;
  o.watchdog.stall_deadline_ms = 300;
  o.watchdog.heartbeat = &heartbeat;
  run(o, [&] {
    ServerConfig cfg;
    cfg.poll_ns = 5'000'000;
    cfg.heartbeat = &heartbeat;
    EndpointSpec ep;
    ep.name = "idle";
    ep.mem_bound = 256;
    ep.handler = [](Request&) {};
    Server server(cfg, {ep});
    Thread pump = spawn([&server]() -> void* {
      server.pump();
      return nullptr;
    });
    // Idle for 3x the stall deadline — no submits, no scheduler progress.
    Semaphore idle{0};
    idle.try_acquire_for(900'000'000);
    server.stop();
    join(pump);
  });
  EXPECT_GT(heartbeat.load(), 0u);
}

// ---------- df_try_malloc overload classification ----------------------------

// kOverloaded vs kNoMem (src/runtime/api.h): exhaustion while other fibers
// hold tracked bytes is transient backpressure (their frees can make a
// retry succeed — the admission controller's shed signal); exhaustion with
// nothing held is terminal. An impossible allocation distinguishes the two
// paths deterministically. mem_quota = 0 keeps the oversized-allocation
// dummy-thread tree out of the way (it would be proportional to m/K).
TEST(DfTryMalloc, ReportsOverloadedWhileOtherFibersHoldTrackedBytes) {
  DfStatus status = DfStatus::kOk;
  RuntimeOptions o;
  o.engine = EngineKind::Sim;
  o.sched = SchedKind::AsyncDf;
  o.nprocs = 1;
  o.mem_quota = 0;
  run(o, [&] {
    void* held = df_malloc(1024);
    ASSERT_NE(held, nullptr);
    void* p = df_try_malloc(std::size_t{1} << 62, &status);
    EXPECT_EQ(p, nullptr);
    df_free(held);
  });
  EXPECT_EQ(status, DfStatus::kOverloaded)
      << "held tracked bytes mean a retry could succeed: backpressure";
}

TEST(DfTryMalloc, ReportsNoMemWhenNothingCanEverFree) {
  // Outside run() there is no engine to preempt through and no concurrent
  // holder — the same impossible allocation is terminal.
  ASSERT_EQ(TrackedHeap::instance().live_bytes(), 0);
  DfStatus status = DfStatus::kOk;
  void* p = df_try_malloc(std::size_t{1} << 62, &status);
  EXPECT_EQ(p, nullptr);
  EXPECT_EQ(status, DfStatus::kNoMem);
}

}  // namespace
}  // namespace dfth
