// Long-lived request-serving front-end over the DFThreads runtime.
//
// Shape of a serving run (bench/serve_soak.cpp is the reference harness):
//
//   dfth::run(opts, [&] {
//     serve::Server server(cfg, endpoints);
//     dfth::Thread pump = dfth::spawn([&] { server.pump(); return nullptr; });
//     ... client fibers: server.submit(req) per arrival, retry on reject ...
//     server.stop();
//     dfth::join(pump);
//   });
//
// Clients (any fiber, both engines) push caller-owned Request pointers
// through a bounded lock-free MPSC ring (ingress.h). One pump fiber pops,
// applies the overload tier and the K-driven admission check
// (admission.h), and launches each admitted request as a detached root
// spawn whose Attr::cancel carries the request's deadline token — the
// engine then checks the deadline at every dispatch of the subtree and the
// handler's code drains cooperatively via dfth::cancel_requested().
//
// Overload shedding is a three-tier ladder with hysteresis, driven by
// ingress depth and tracked-heap RSS:
//
//   kAccept     -> everything proceeds to admission
//   kShedLow    -> endpoints with priority >= shed_priority_floor are
//                  rejected (RejectReason::kShed); critical classes proceed
//   kDrainOnly  -> every popped request is rejected; only in-flight work
//                  and the backlog drain
//
// Every submitted request terminates in exactly one of {completed,
// rejected, deadline-expired}; the terminal transition happens exactly once
// and fires ServerConfig::on_done, where callers implement retry with
// capped exponential backoff (retry.h).
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "obs/counters.h"
#include "runtime/sync.h"
#include "serve/admission.h"
#include "serve/ingress.h"
#include "serve/request.h"

namespace dfth::serve {

/// One served endpoint class. `mem_bound` is the endpoint's certified
/// per-request tracked-heap bound (space/ certification, or a measured
/// high-water mark) — the unit the admission controller reserves.
struct EndpointSpec {
  std::string name;
  int priority = 0;              ///< 0 = most critical; higher sheds first
  std::size_t mem_bound = 0;     ///< certified per-request space bound, bytes
  std::uint64_t deadline_ns = 0; ///< per-request latency budget; 0 = none
  std::function<void(Request&)> handler;  ///< runs on the request's root fiber
};

enum class Tier : std::uint8_t { kAccept = 0, kShedLow = 1, kDrainOnly = 2 };

const char* to_string(Tier t);

/// Shedding thresholds. Depth thresholds are fractions of ingress capacity;
/// RSS thresholds are absolute tracked-heap live bytes (0 disables). Enter
/// must exceed exit — the gap is the hysteresis band that keeps the tier
/// from flapping at the boundary.
struct ShedThresholds {
  double shed_enter_depth = 0.75;
  double shed_exit_depth = 0.50;
  double drain_enter_depth = 0.95;
  double drain_exit_depth = 0.70;
  std::size_t shed_enter_rss = 0;
  std::size_t shed_exit_rss = 0;
  std::size_t drain_enter_rss = 0;
  std::size_t drain_exit_rss = 0;
};

struct ServerConfig {
  std::size_t ingress_capacity = 256;  ///< rounded up to a power of two
  /// Total tracked-heap budget for in-flight requests (the admission
  /// controller's numerator). Baseline live bytes at Server construction
  /// are subtracted automatically.
  std::size_t mem_budget = 1 << 20;
  int max_inflight = 64;          ///< hard cap on concurrently running requests
  int shed_priority_floor = 1;    ///< kShedLow rejects priority >= this
  std::uint64_t poll_ns = 200'000;  ///< pump idle/backpressure wait quantum
  ShedThresholds shed;
  /// Liveness heartbeat shared with RuntimeOptions::watchdog.heartbeat: the
  /// pump beats it on every iteration (including idle ones), so an armed
  /// stall watchdog distinguishes "serving, currently idle" from "wedged".
  std::atomic<std::uint64_t>* heartbeat = nullptr;
  /// Terminal-transition callback (request outcome is final when it fires).
  /// Runs on a server fiber — keep it cheap; clients use it to drive retry.
  std::function<void(Request*)> on_done;
  std::size_t max_headroom_samples = 512;  ///< time-series cap (decimated)
};

/// One admission-headroom time-series sample (the soak's overload plot).
struct HeadroomSample {
  std::uint64_t t_ns = 0;
  std::uint64_t headroom_bytes = 0;
  std::uint32_t depth = 0;
  std::uint8_t tier = 0;
};

struct EndpointReport {
  std::string name;
  std::uint64_t completed = 0;
  std::uint64_t rejected_queue = 0;  ///< ingress ring full at submit
  std::uint64_t rejected_shed = 0;
  std::uint64_t rejected_admission = 0;
  std::uint64_t expired_queue = 0;    ///< deadline passed while queued
  std::uint64_t expired_running = 0;  ///< deadline fired in-flight
  obs::HistSnapshot latency;          ///< completed-request latency, ns
};

struct ServeReport {
  std::uint64_t submitted = 0;   ///< successful submits (ring accepted)
  std::uint64_t completed = 0;
  std::uint64_t rejected_queue = 0;
  std::uint64_t rejected_shed = 0;
  std::uint64_t rejected_admission = 0;
  std::uint64_t expired_queue = 0;
  std::uint64_t expired_running = 0;
  std::uint64_t tier_transitions = 0;
  std::uint64_t peak_inflight = 0;
  std::uint64_t peak_depth = 0;
  std::int64_t peak_live_bytes = 0;   ///< tracked-heap high water while serving
  std::size_t admission_usable = 0;   ///< budget minus baseline
  std::vector<EndpointReport> endpoints;
  std::vector<HeadroomSample> headroom;
};

class Server {
 public:
  /// Must be constructed inside run() (it reads the engine clock and the
  /// tracked-heap baseline at arm time).
  Server(ServerConfig cfg, std::vector<EndpointSpec> endpoints);

  Server(const Server&) = delete;
  Server& operator=(const Server&) = delete;

  /// Client side, any fiber. Stamps submit_ns and arms the deadline token,
  /// then pushes into the ingress ring. Returns false — with outcome
  /// kRejected / RejectReason::kQueueFull already recorded and on_done
  /// fired — when the ring is full: bounded ingress never blocks a client.
  bool submit(Request* r);

  /// Installs (or replaces) the terminal-transition callback. Must happen
  /// before the first submit/pump iteration — it is read without a lock.
  void set_on_done(std::function<void(Request*)> fn) {
    cfg_.on_done = std::move(fn);
  }

  /// Begins shutdown: the pump drains the backlog and in-flight requests,
  /// then returns. Idempotent; callable from any fiber.
  void stop();

  /// The pump loop — run it as its own fiber. Returns after stop() once
  /// the ring is empty and no request is in flight.
  void pump();

  Tier tier() const {
    return static_cast<Tier>(tier_.load(std::memory_order_relaxed));
  }
  std::size_t inflight() const {
    return static_cast<std::size_t>(inflight_.load(std::memory_order_relaxed));
  }
  const AdmissionController& admission() const { return admission_; }

  /// Aggregated counters and per-endpoint latency snapshots. Safe after
  /// pump() returned; racy-but-consistent (under the stats lock) before.
  ServeReport report();

 private:
  struct EndpointStats {
    std::uint64_t completed = 0;
    std::uint64_t rejected_queue = 0;
    std::uint64_t rejected_shed = 0;
    std::uint64_t rejected_admission = 0;
    std::uint64_t expired_queue = 0;
    std::uint64_t expired_running = 0;
    obs::LogHistogram latency;
  };

  void dispatch_one(Request* r);
  void launch(Request* r);
  /// The single place a request becomes terminal: stamps finish_ns, writes
  /// outcome/reject, updates counters, fires on_done, then, when
  /// `admitted`, releases the admission reservation, wakes the pump and
  /// gives back the inflight slot, its last touch of the server.
  void finish(Request* r, Outcome o, RejectReason why, bool admitted);
  Tier decide_tier(std::size_t depth, std::int64_t live_bytes);
  void beat();
  void sample_headroom(std::uint64_t now);

  ServerConfig cfg_;
  std::vector<EndpointSpec> endpoints_;
  IngressRing<Request*> ingress_;
  AdmissionController admission_;

  std::atomic<bool> stop_{false};
  std::atomic<std::uint8_t> tier_{0};
  std::atomic<std::int64_t> inflight_{0};
  Semaphore signal_{0};  ///< submits + finishes wake the pump
  /// Serializes ring ops when replay::pinned() — the sync log then pins the
  /// op order, making the lock-free ring replayable (see server.cpp). Free
  /// runs never touch it.
  Mutex ring_mu_;

  Mutex mu_;  ///< guards stats below (handlers finish concurrently on Real)
  std::vector<EndpointStats> ep_stats_;
  std::uint64_t submitted_ = 0;
  std::uint64_t tier_transitions_ = 0;
  std::uint64_t peak_inflight_ = 0;
  std::uint64_t peak_depth_ = 0;
  std::int64_t peak_live_bytes_ = 0;
  std::vector<HeadroomSample> headroom_;
  std::uint64_t sample_every_ = 1;  ///< decimation stride
  std::uint64_t sample_tick_ = 0;
};

}  // namespace dfth::serve
