#include "resil/faults.h"

#include <cstdio>

#include "obs/counters.h"
#include "replay/hooks.h"

namespace dfth::resil {

const char* to_string(FaultSite site) {
  switch (site) {
    case FaultSite::kStackMmap: return "stack.mmap";
    case FaultSite::kStackMprotect: return "stack.mprotect";
    case FaultSite::kHeapAlloc: return "heap.alloc";
    case FaultSite::kCtxCreate: return "ctx.create";
    case FaultSite::kWorkerSpawn: return "worker.spawn";
    case FaultSite::kSyncTimeout: return "sync.timeout";
    case FaultSite::kCount: break;
  }
  return "?";
}

FaultPlan FaultPlan::uniform_every(std::uint64_t seed, std::uint64_t nth) {
  FaultPlan plan;
  plan.seed = seed;
  for (SiteSpec& s : plan.sites) s.every_nth = nth;
  return plan;
}

FaultPlan FaultPlan::uniform_probability(std::uint64_t seed, double p) {
  FaultPlan plan;
  plan.seed = seed;
  for (SiteSpec& s : plan.sites) s.probability = p;
  return plan;
}

FaultInjector& FaultInjector::instance() {
  static FaultInjector* injector = new FaultInjector();  // leaked: outlives engines
  return *injector;
}

void FaultInjector::arm(const FaultPlan& plan) {
  std::lock_guard<std::mutex> lock(mu_);
  plan_ = plan;
  // One independent stream per site: the order in which *different* sites
  // are probed cannot perturb any single site's draw sequence.
  Rng root(plan.seed);
  for (int i = 0; i < kNumFaultSites; ++i) {
    rng_[i] = root.fork_stream(static_cast<std::uint64_t>(i));
    evals_[i] = 0;
    injected_[i] = 0;
    recovered_[i].store(0, std::memory_order_relaxed);
  }
  detail::g_faults_armed.store(true, std::memory_order_release);
}

void FaultInjector::disarm() {
  detail::g_faults_armed.store(false, std::memory_order_release);
}

bool FaultInjector::should_fail(FaultSite site) {
  if (!armed()) return false;
  const int i = static_cast<int>(site);
  // Only probes of *enabled* sites are ordered decisions: a site's per-thread
  // probe interleaving decides which thread draws each every_nth/probability
  // outcome, so replay must pin it. Disabled-site probes are order-free
  // no-ops; gating them would serialize every heap allocation and flood the
  // log. plan_ is constant while armed (arm() publishes it with release),
  // so this pre-lock read is safe. Every probe site sits outside any shared
  // lock (verified per site), so gating here cannot deadlock.
  const bool ordered = ::dfth::replay::active() != nullptr &&
                       plan_.sites[i].enabled();
  if (ordered) DFTH_REPLAY_FAULT_GATE();
  std::lock_guard<std::mutex> lock(mu_);
  const SiteSpec& spec = plan_.sites[i];
  const std::uint64_t n = ++evals_[i];
  bool fail = false;
  if (spec.enabled() && n > spec.skip_first && injected_[i] < spec.max_failures) {
    if (spec.every_nth != 0 && (n - spec.skip_first) % spec.every_nth == 0) {
      fail = true;
    }
    if (spec.probability > 0.0 && rng_[i].next_bool(spec.probability)) {
      fail = true;
    }
    if (fail) {
      ++injected_[i];
      DFTH_COUNT(obs::Counter::FaultsInjected);
    }
  }
  if (ordered) DFTH_REPLAY_FAULT_COMMIT(site, fail);
  return fail;
}

void FaultInjector::on_recovered(FaultSite site) {
  recovered_[static_cast<int>(site)].fetch_add(1, std::memory_order_relaxed);
  DFTH_COUNT(obs::Counter::FaultsRecovered);
}

std::uint64_t FaultInjector::evaluations(FaultSite site) const {
  std::lock_guard<std::mutex> lock(mu_);
  return evals_[static_cast<int>(site)];
}

std::uint64_t FaultInjector::injected(FaultSite site) const {
  std::lock_guard<std::mutex> lock(mu_);
  return injected_[static_cast<int>(site)];
}

std::uint64_t FaultInjector::recovered(FaultSite site) const {
  return recovered_[static_cast<int>(site)].load(std::memory_order_relaxed);
}

std::uint64_t FaultInjector::evaluations_total() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::uint64_t total = 0;
  for (std::uint64_t v : evals_) total += v;
  return total;
}

std::uint64_t FaultInjector::injected_total() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::uint64_t total = 0;
  for (std::uint64_t v : injected_) total += v;
  return total;
}

std::uint64_t FaultInjector::recovered_total() const {
  std::uint64_t total = 0;
  for (const auto& v : recovered_) total += v.load(std::memory_order_relaxed);
  return total;
}

void FaultInjector::append_summary(std::string* out) const {
  std::lock_guard<std::mutex> lock(mu_);
  char line[128];
  for (int i = 0; i < kNumFaultSites; ++i) {
    std::snprintf(line, sizeof line,
                  "  %-14s evaluated=%llu injected=%llu recovered=%llu\n",
                  to_string(static_cast<FaultSite>(i)),
                  static_cast<unsigned long long>(evals_[i]),
                  static_cast<unsigned long long>(injected_[i]),
                  static_cast<unsigned long long>(
                      recovered_[i].load(std::memory_order_relaxed)));
    *out += line;
  }
}

}  // namespace dfth::resil
