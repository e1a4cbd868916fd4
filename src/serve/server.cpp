#include "serve/server.h"

#include "replay/hooks.h"
#include "replay/log.h"
#include "runtime/api.h"
#include "space/tracked_heap.h"
#include "util/check.h"

namespace dfth::serve {
namespace {

// Replayability of the serve layer splits its raced reads three ways:
//
//  * Ring push/pop are side-effecting races; a pure value pin cannot make
//    them replayable because an effect and its log record are not atomic —
//    record order can invert effect order across actors, and a replayer
//    waiting for the inverted effect deadlocks against its own next record.
//    Per the replay::pinned() contract, pinned runs (record or strict
//    replay) instead take a lock-ordered equivalent: every ring op runs
//    under ring_mu_, whose sync commit happens inside the guard, so the
//    op order is pinned and the ring outcome is a pure function of it.
//    Free runs keep the lock-free fast path.
//
//  * Pure value reads the pump branches on (tracked-heap RSS, the
//    stop/inflight exit check, the inflight cap) are pinned with
//    replay::observe_u64 — replay substitutes the recorded value, so
//    control flow re-takes the recorded branch. No spin, no deadlock.
//
//  * The admission CAS races against release effects whose timing the log
//    does not pin, so strict replay applies the recorded verdict verbatim
//    (force_admit) instead of re-running the race.
//
// Reads that only feed statistics (peak depth under mu_, headroom samples)
// stay unpinned — they cannot diverge the schedule.
constexpr std::uint64_t kObsExit = replay::kObsServeBase + 0;
constexpr std::uint64_t kObsRss = replay::kObsServeBase + 1;
constexpr std::uint64_t kObsInflight = replay::kObsServeBase + 2;
constexpr std::uint64_t kObsAdmit = replay::kObsServeBase + 3;

}  // namespace

const char* to_string(Tier t) {
  switch (t) {
    case Tier::kAccept: return "accept";
    case Tier::kShedLow: return "shed-low";
    case Tier::kDrainOnly: return "drain-only";
  }
  return "?";
}

Server::Server(ServerConfig cfg, std::vector<EndpointSpec> endpoints)
    : cfg_(std::move(cfg)),
      endpoints_(std::move(endpoints)),
      ingress_(cfg_.ingress_capacity),
      admission_(cfg_.mem_budget,
                 static_cast<std::size_t>(TrackedHeap::instance().live_bytes() > 0
                                              ? TrackedHeap::instance().live_bytes()
                                              : 0)),
      ep_stats_(endpoints_.size()) {
  DFTH_CHECK_MSG(!endpoints_.empty(), "server needs at least one endpoint");
  for (const EndpointSpec& e : endpoints_) {
    // An endpoint whose certified bound cannot fit even on an idle server
    // would be rejected forever — surface the misconfiguration at arm time.
    DFTH_CHECK_MSG(e.mem_bound <= admission_.usable(),
                   "endpoint space bound exceeds the admission budget");
  }
}

bool Server::submit(Request* r) {
  const std::uint64_t now = now_ns();
  r->submit_ns = now;
  const EndpointSpec& ep = endpoints_[static_cast<std::size_t>(r->endpoint)];
  r->token.deadline_ns = ep.deadline_ns == 0 ? 0 : now + ep.deadline_ns;
  bool pushed;
  if (replay::pinned()) {
    LockGuard g(ring_mu_);
    pushed = ingress_.try_push(r);
  } else {
    pushed = ingress_.try_push(r);
  }
  if (!pushed) {
    // Synchronous rejection: the ring is the bounded-ingress line, and the
    // client learns immediately (no queueing delay added to the retry).
    finish(r, Outcome::kRejected, RejectReason::kQueueFull, false);
    return false;
  }
  {
    LockGuard g(mu_);
    ++submitted_;
    const std::uint64_t depth = ingress_.size();
    if (depth > peak_depth_) peak_depth_ = depth;
  }
  signal_.release();
  return true;
}

void Server::stop() {
  stop_.store(true, std::memory_order_release);
  signal_.release();
}

void Server::beat() {
  if (cfg_.heartbeat != nullptr) {
    cfg_.heartbeat->fetch_add(1, std::memory_order_relaxed);
  }
}

void Server::pump() {
  for (;;) {
    Request* r = nullptr;
    bool got;
    if (replay::pinned()) {
      LockGuard g(ring_mu_);
      got = ingress_.try_pop(&r);
    } else {
      got = ingress_.try_pop(&r);
    }
    if (!got) {
      const bool exit_now = stop_.load(std::memory_order_acquire) &&
                            inflight_.load(std::memory_order_acquire) == 0;
      if (replay::observe_u64(kObsExit, exit_now ? 1 : 0) != 0) break;
      // Idle (or draining): beat the watchdog so "armed but no traffic"
      // is distinguishable from "wedged", then sleep one poll quantum.
      beat();
      sample_headroom(now_ns());
      signal_.try_acquire_for(cfg_.poll_ns);
      continue;
    }
    beat();
    dispatch_one(r);
  }
  beat();
}

void Server::dispatch_one(Request* r) {
  std::size_t depth;
  if (replay::pinned()) {
    // The depth read's own lock acquisition pins its position among the
    // ring ops, which determines the value it sees.
    LockGuard g(ring_mu_);
    depth = ingress_.size();
  } else {
    depth = ingress_.size();
  }
  const std::int64_t live_now = TrackedHeap::instance().live_bytes();
  const std::int64_t live = static_cast<std::int64_t>(replay::observe_u64(
      kObsRss, static_cast<std::uint64_t>(live_now > 0 ? live_now : 0)));
  {
    LockGuard g(mu_);
    if (live > peak_live_bytes_) peak_live_bytes_ = live;
  }
  sample_headroom(now_ns());

  // Deadline first: a request that expired in the queue is terminal no
  // matter what tier we are in. Fire its token for uniformity (nothing ran
  // under it) and classify as expired-in-queue.
  if (r->token.deadline_ns != 0 && now_ns() >= r->token.deadline_ns) {
    r->token.cancel();
    finish(r, Outcome::kExpired, RejectReason::kNone, false);
    return;
  }

  const Tier tier = decide_tier(depth, live);
  const EndpointSpec& ep = endpoints_[static_cast<std::size_t>(r->endpoint)];
  if (tier == Tier::kDrainOnly ||
      (tier == Tier::kShedLow && ep.priority >= cfg_.shed_priority_floor)) {
    finish(r, Outcome::kRejected, RejectReason::kShed, false);
    return;
  }

  // Backpressure on the inflight cap: hold the request (it is already
  // popped) and wait for completions, re-checking its deadline each
  // quantum so a held request can still expire.
  for (;;) {
    const bool at_cap =
        replay::observe_u64(
            kObsInflight,
            inflight_.load(std::memory_order_acquire) >= cfg_.max_inflight
                ? 1
                : 0) != 0;
    if (!at_cap) break;
    beat();
    signal_.try_acquire_for(cfg_.poll_ns);
    if (r->token.deadline_ns != 0 && now_ns() >= r->token.deadline_ns) {
      r->token.cancel();
      finish(r, Outcome::kExpired, RejectReason::kNone, false);
      return;
    }
  }

  // K-driven admission: reserve the endpoint's certified space bound or
  // reject with backpressure semantics (the client retries after backoff).
  // Strict replay applies the recorded verdict: the CAS races with release
  // effects whose timing the log does not pin, so a live re-run could flip.
  bool admitted;
  if (replay::pinned_active()) {
    admitted = replay::observe_u64(kObsAdmit, 0) != 0;
    if (admitted) admission_.force_admit(ep.mem_bound);
  } else {
    admitted = replay::observe_u64(
                   kObsAdmit, admission_.try_admit(ep.mem_bound) ? 1 : 0) != 0;
  }
  if (!admitted) {
    finish(r, Outcome::kRejected, RejectReason::kAdmission, false);
    return;
  }
  launch(r);
}

void Server::launch(Request* r) {
  r->admit_ns = now_ns();
  r->token.alloc_charge = &r->bytes_live;
  const std::int64_t now_inflight =
      inflight_.fetch_add(1, std::memory_order_acq_rel) + 1;
  {
    LockGuard g(mu_);
    if (static_cast<std::uint64_t>(now_inflight) > peak_inflight_) {
      peak_inflight_ = static_cast<std::uint64_t>(now_inflight);
    }
  }
  Attr attr;
  attr.cancel = &r->token;
  Thread root = spawn(
      [this, r]() -> void* {
        endpoints_[static_cast<std::size_t>(r->endpoint)].handler(*r);
        // Classify by the handler's own cancellation scope, through the
        // replay-logged poll — not a raw token read, which could race with
        // a late expiry on some subtree dispatch and diverge under replay.
        const bool expired = cancel_requested();
        finish(r, expired ? Outcome::kExpired : Outcome::kCompleted,
               RejectReason::kNone, true);
        return nullptr;
      },
      attr);
  detach(root);
}

void Server::finish(Request* r, Outcome o, RejectReason why, bool admitted) {
  r->finish_ns = now_ns();
  r->outcome = o;
  r->reject = why;
  const EndpointSpec& ep = endpoints_[static_cast<std::size_t>(r->endpoint)];
  {
    LockGuard g(mu_);
    EndpointStats& s = ep_stats_[static_cast<std::size_t>(r->endpoint)];
    switch (o) {
      case Outcome::kCompleted:
        ++s.completed;
        s.latency.record(r->finish_ns - r->submit_ns);
        break;
      case Outcome::kRejected:
        switch (why) {
          case RejectReason::kAdmission: ++s.rejected_admission; break;
          case RejectReason::kQueueFull: ++s.rejected_queue; break;
          default: ++s.rejected_shed; break;
        }
        break;
      case Outcome::kExpired:
        if (admitted) {
          ++s.expired_running;
        } else {
          ++s.expired_queue;
        }
        break;
      case Outcome::kPending:
        DFTH_CHECK_MSG(false, "finish() with non-terminal outcome");
    }
  }
  // stop() and the pump's join wait for the inflight count to drain, and a
  // caller may then free its requests and the server. So on_done comes
  // first, and the decrement is a handler's last touch of either; a pump
  // woken just before it only polls once more.
  if (cfg_.on_done) cfg_.on_done(r);
  if (admitted) {
    admission_.release(ep.mem_bound);
    signal_.release();  // wake a pump blocked on the inflight cap
    inflight_.fetch_sub(1, std::memory_order_acq_rel);
  }
}

Tier Server::decide_tier(std::size_t depth, std::int64_t live_bytes) {
  const double cap = static_cast<double>(ingress_.capacity());
  const double fill = static_cast<double>(depth) / cap;
  const std::size_t live =
      live_bytes > 0 ? static_cast<std::size_t>(live_bytes) : 0;
  const ShedThresholds& th = cfg_.shed;
  Tier cur = tier();
  Tier next = cur;

  // Hysteresis ladder: escalate on the enter thresholds, de-escalate one
  // rung at a time only once below the exit thresholds — the band between
  // them absorbs boundary noise so the tier cannot flap per request.
  const bool drain_in = fill >= th.drain_enter_depth ||
                        (th.drain_enter_rss != 0 && live >= th.drain_enter_rss);
  const bool drain_out = fill <= th.drain_exit_depth &&
                         (th.drain_exit_rss == 0 || live <= th.drain_exit_rss);
  const bool shed_in = fill >= th.shed_enter_depth ||
                       (th.shed_enter_rss != 0 && live >= th.shed_enter_rss);
  const bool shed_out = fill <= th.shed_exit_depth &&
                        (th.shed_exit_rss == 0 || live <= th.shed_exit_rss);

  switch (cur) {
    case Tier::kAccept:
      if (drain_in) next = Tier::kDrainOnly;
      else if (shed_in) next = Tier::kShedLow;
      break;
    case Tier::kShedLow:
      if (drain_in) next = Tier::kDrainOnly;
      else if (shed_out) next = Tier::kAccept;
      break;
    case Tier::kDrainOnly:
      if (drain_out) next = Tier::kShedLow;
      break;
  }
  if (next != cur) {
    tier_.store(static_cast<std::uint8_t>(next), std::memory_order_relaxed);
    LockGuard g(mu_);
    ++tier_transitions_;
  }
  return next;
}

void Server::sample_headroom(std::uint64_t now) {
  LockGuard g(mu_);
  if (++sample_tick_ % sample_every_ != 0) return;
  if (headroom_.size() >= cfg_.max_headroom_samples &&
      cfg_.max_headroom_samples > 0) {
    // Decimate in place: keep every other sample and double the stride, so
    // a long soak keeps a bounded, evenly thinned series.
    std::size_t w = 0;
    for (std::size_t i = 0; i < headroom_.size(); i += 2) {
      headroom_[w++] = headroom_[i];
    }
    headroom_.resize(w);
    sample_every_ *= 2;
  }
  HeadroomSample s;
  s.t_ns = now;
  s.headroom_bytes = admission_.headroom();
  s.depth = static_cast<std::uint32_t>(ingress_.size());
  s.tier = tier_.load(std::memory_order_relaxed);
  headroom_.push_back(s);
}

ServeReport Server::report() {
  ServeReport out;
  LockGuard g(mu_);
  out.submitted = submitted_;
  out.tier_transitions = tier_transitions_;
  out.peak_inflight = peak_inflight_;
  out.peak_depth = peak_depth_;
  out.peak_live_bytes = peak_live_bytes_;
  out.admission_usable = admission_.usable();
  out.headroom = headroom_;
  out.endpoints.reserve(endpoints_.size());
  for (std::size_t i = 0; i < endpoints_.size(); ++i) {
    const EndpointStats& s = ep_stats_[i];
    EndpointReport r;
    r.name = endpoints_[i].name;
    r.completed = s.completed;
    r.rejected_queue = s.rejected_queue;
    r.rejected_shed = s.rejected_shed;
    r.rejected_admission = s.rejected_admission;
    r.expired_queue = s.expired_queue;
    r.expired_running = s.expired_running;
    r.latency = s.latency.snapshot();
    out.endpoints.push_back(std::move(r));
    out.completed += s.completed;
    out.rejected_queue += s.rejected_queue;
    out.rejected_shed += s.rejected_shed;
    out.rejected_admission += s.rejected_admission;
    out.expired_queue += s.expired_queue;
    out.expired_running += s.expired_running;
  }
  return out;
}

}  // namespace dfth::serve
