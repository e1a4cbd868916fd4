// Deterministic fault injection — the "chaos" half of the resilience layer.
//
// Every recoverable resource-acquisition point in the runtime is a named
// *fault site* (stack.mmap, heap.alloc, ctx.create, ...) carrying a
// DFTH_FAULT_SHOULD_FAIL(site) probe. Every build compiles the probes in;
// RuntimeOptions::fault_plan arms the FaultInjector for one run, and the
// injector then decides — from a seeded PRNG, an every-Nth counter, or
// both — whether that particular acquisition should pretend to fail.
// Because the injector consumes one deterministic stream per site, an
// identical FaultPlan replayed under SimEngine (which serializes all fibers
// onto one host thread) produces the identical failure schedule, so every
// recovery path is testable byte-for-byte.
//
// With no plan armed a probe is one relaxed load of a namespace-scope
// atomic and a branch: no call, and no touch of FaultInjector::instance().
// tests/resil/faults_test.cpp checks that a run without a plan evaluates
// no site.
#pragma once

#include <atomic>
#include <cstdint>
#include <mutex>
#include <string>

#include "util/rng.h"

namespace dfth::resil {

/// Named resource-acquisition points that can be made to fail.
enum class FaultSite : int {
  kStackMmap = 0,   ///< StackPool::acquire — the guard+usable mmap
  kStackMprotect,   ///< StackPool::acquire — re-protecting the usable region
  kHeapAlloc,       ///< TrackedHeap::allocate_ex — the backing malloc
  kCtxCreate,       ///< engine make_tcb — fiber context creation
  kWorkerSpawn,     ///< RealEngine::run — kernel worker thread creation
  kSyncTimeout,     ///< sync timed waits — force an immediate timeout
  kCount,
};

inline constexpr int kNumFaultSites = static_cast<int>(FaultSite::kCount);

/// The dotted name used in plans, logs, and the watchdog dump
/// ("stack.mmap", "heap.alloc", ...).
const char* to_string(FaultSite site);

/// Per-site trigger rule. A site fails when its every-Nth counter fires OR
/// its per-evaluation Bernoulli draw fires, subject to skip_first and
/// max_failures. All-zero (the default) means the site never fails.
struct SiteSpec {
  std::uint64_t every_nth = 0;    ///< fail every Nth evaluation (0 = off)
  double probability = 0.0;       ///< independent failure chance per evaluation
  std::uint64_t skip_first = 0;   ///< let this many evaluations through first
  std::uint64_t max_failures = UINT64_MAX;  ///< stop injecting after this many

  bool enabled() const { return every_nth != 0 || probability > 0.0; }
};

/// A complete injection schedule: one seed (forked into an independent
/// per-site PRNG stream) plus one SiteSpec per site. Passed to the runtime
/// via RuntimeOptions::fault_plan; the engine arms the injector for the
/// duration of run().
struct FaultPlan {
  std::uint64_t seed = 0x5eed;
  SiteSpec sites[kNumFaultSites] = {};

  SiteSpec& site(FaultSite s) { return sites[static_cast<int>(s)]; }
  const SiteSpec& site(FaultSite s) const { return sites[static_cast<int>(s)]; }

  bool enabled() const {
    for (const SiteSpec& s : sites) {
      if (s.enabled()) return true;
    }
    return false;
  }

  /// Every site fails deterministically every `nth` evaluation.
  static FaultPlan uniform_every(std::uint64_t seed, std::uint64_t nth);

  /// Every site fails independently with probability `p` per evaluation.
  static FaultPlan uniform_probability(std::uint64_t seed, double p);
};

namespace detail {
/// True while a plan is armed. The probe macro reads it before it calls the
/// injector; arm() and disarm() are its only writers.
inline std::atomic<bool> g_faults_armed{false};
}  // namespace detail

/// Process-global injector. Disarmed it costs the probe one load of
/// detail::g_faults_armed; armed it serializes evaluations through a mutex —
/// acceptable because fault sites sit on resource-acquisition slow paths,
/// and required so the per-site streams stay deterministic under SimEngine.
class FaultInjector {
 public:
  static FaultInjector& instance();

  /// Installs `plan`, reseeds every per-site stream, and zeroes the per-site
  /// evaluation/injection/recovery counters.
  void arm(const FaultPlan& plan);

  /// Stops injecting. Counters are preserved so callers can inspect the
  /// schedule a finished run experienced.
  void disarm();

  bool armed() const {
    return detail::g_faults_armed.load(std::memory_order_acquire);
  }

  /// One evaluation of `site`: returns true if this acquisition must fail.
  bool should_fail(FaultSite site);

  /// Records that a previously injected failure at `site` was absorbed by a
  /// degradation path (retry succeeded, fallback engaged, child ran inline).
  void on_recovered(FaultSite site);

  // -- counters (valid since the last arm()) --------------------------------
  std::uint64_t evaluations(FaultSite site) const;
  std::uint64_t injected(FaultSite site) const;
  std::uint64_t recovered(FaultSite site) const;
  std::uint64_t evaluations_total() const;
  std::uint64_t injected_total() const;
  std::uint64_t recovered_total() const;

  /// Appends a human-readable per-site summary (used by the watchdog dump).
  void append_summary(std::string* out) const;

 private:
  FaultInjector() = default;

  mutable std::mutex mu_;
  FaultPlan plan_;
  Rng rng_[kNumFaultSites];
  std::uint64_t evals_[kNumFaultSites] = {};
  std::uint64_t injected_[kNumFaultSites] = {};
  std::atomic<std::uint64_t> recovered_[kNumFaultSites] = {};
};

}  // namespace dfth::resil

#define DFTH_FAULT_SHOULD_FAIL(site)                                       \
  (::dfth::resil::detail::g_faults_armed.load(std::memory_order_relaxed) && \
   ::dfth::resil::FaultInjector::instance().should_fail(site))
#define DFTH_FAULT_RECOVERED(site) \
  ::dfth::resil::FaultInjector::instance().on_recovered(site)
