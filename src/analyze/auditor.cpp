#include "analyze/auditor.h"

#include <cstdio>
#include <cstdlib>

#include "core/asyncdf_sched.h"
#include "threads/attr.h"

namespace dfth::analyze {
namespace {

InvariantAuditor* g_active = nullptr;

const AsyncDfScheduler* as_asyncdf(const Scheduler& inner) {
  return inner.kind() == SchedKind::AsyncDf
             ? static_cast<const AsyncDfScheduler*>(&inner)
             : nullptr;
}

}  // namespace

InvariantAuditor* active_auditor() { return g_active; }

void InvariantAuditor::violation(const char* what, const Tcb* t) {
  violations_.fetch_add(1, std::memory_order_relaxed);
  std::fprintf(stderr, "DFTH InvariantAuditor: %s (thread %llu)\n", what,
               static_cast<unsigned long long>(t ? t->id : 0));
  if (abort_on_violation_.load(std::memory_order_relaxed)) std::abort();
}

void InvariantAuditor::check_registered(const Tcb* t, const char* hook) {
  // Caller holds mu_.
  if (live_.count(t) == 0) violation(hook, t);
}

void InvariantAuditor::check_asyncdf_step(const Scheduler& inner) {
  const AsyncDfScheduler* adf = as_asyncdf(inner);
  if (!adf) return;
  for (int prio = 0; prio < kNumPriorities; ++prio) {
    if (!adf->order_list(prio).check_invariants()) {
      violation("order-list tag monotonicity broken", nullptr);
      return;
    }
  }
}

void InvariantAuditor::on_register(const Scheduler& inner, Tcb* parent,
                                   Tcb* child, bool dives) {
  steps_.fetch_add(1, std::memory_order_relaxed);
  std::lock_guard<std::mutex> lk(mu_);
  if (!live_.insert(child).second) violation("thread registered twice", child);
  // A bound parent is scheduled by the OS, not by our policy: it is
  // legitimately absent from the registered set and the serial order, and
  // the policy places its child as a root.
  const bool policy_parent = parent && !parent->attr.bound;
  if (policy_parent) check_registered(parent, "register_thread with unknown parent");

  // Credit δ dummy threads to the nearest non-dummy ancestor: that ancestor
  // is the thread whose oversized df_malloc forked the dummy tree.
  if (child->is_dummy) {
    Tcb* ancestor = parent;
    while (ancestor && ancestor->is_dummy) ancestor = ancestor->parent;
    if (ancestor) ++ancestor->audit_dummy_credit;
  }

  if (const AsyncDfScheduler* adf = as_asyncdf(inner)) {
    // An unknown parent has no place in the serial order to check against.
    if (policy_parent && live_.count(parent) != 0 &&
        parent->attr.priority == child->attr.priority &&
        !adf->serial_before(child, parent)) {
      violation("forked child not placed left of its parent", child);
    }
    if (!dives && (parent == nullptr ||
                     child->attr.priority >= parent->attr.priority)) {
      violation("AsyncDF did not preempt the parent for its child", child);
    }
  }
  check_asyncdf_step(inner);
}

bool InvariantAuditor::on_ready(const Scheduler& inner, Tcb* t) {
  steps_.fetch_add(1, std::memory_order_relaxed);
  const std::uint64_t before = violations();
  std::lock_guard<std::mutex> lk(mu_);
  check_registered(t, "on_ready for unregistered thread");
  if (t->state.load(std::memory_order_relaxed) != ThreadState::Ready) {
    violation("on_ready for a thread not in state Ready", t);
  }
  check_asyncdf_step(inner);
  return violations() == before;
}

void InvariantAuditor::on_pick(const Scheduler& inner, Tcb* t,
                               std::uint64_t now) {
  steps_.fetch_add(1, std::memory_order_relaxed);
  if (t == nullptr) return;
  std::lock_guard<std::mutex> lk(mu_);
  check_registered(t, "pick_next returned an unregistered thread");
  if (t->state.load(std::memory_order_relaxed) != ThreadState::Ready) {
    violation("pick_next returned a thread not in state Ready", t);
  }
  if (t->ready_at_ns > now) {
    violation("pick_next returned a thread not yet eligible (ready_at > now)", t);
  }

  if (const AsyncDfScheduler* adf = as_asyncdf(inner)) {
    // Recompute the paper's dispatch rule: the leftmost Ready-and-eligible
    // thread of the highest non-empty priority level must be the pick. The
    // picked thread is still linked and still Ready here (the engine flips
    // it to Running after pick_next returns), so the scan finds it.
    for (int prio = kNumPriorities - 1; prio >= 0; --prio) {
      const OrderList& list = adf->order_list(prio);
      for (const OrderNode* node = list.front();
           node != nullptr && node != list.end_sentinel(); node = node->next) {
        const auto* cand = static_cast<const Tcb*>(node->owner);
        if (cand->state.load(std::memory_order_relaxed) != ThreadState::Ready) {
          continue;
        }
        if (cand->ready_at_ns > now) continue;
        if (cand != t) {
          violation("pick_next skipped a leftmost ready thread", t);
        }
        prio = -1;  // first eligible thread found: stop both loops
        break;
      }
    }
  }
  // A fresh dispatch grants a fresh quota of K bytes (checked in on_alloc).
  t->audit_alloc_since_dispatch = 0;
  check_asyncdf_step(inner);
}

void InvariantAuditor::on_unregister(const Scheduler& inner, Tcb* t) {
  steps_.fetch_add(1, std::memory_order_relaxed);
  std::lock_guard<std::mutex> lk(mu_);
  if (live_.erase(t) == 0) violation("unregister of unknown thread", t);
  check_asyncdf_step(inner);
}

void InvariantAuditor::on_alloc(Tcb* t, std::size_t bytes, std::size_t quota) {
  steps_.fetch_add(1, std::memory_order_relaxed);
  if (t == nullptr || quota == 0) return;
  if (bytes > quota) {
    // §4 item 2: m > K requires δ = ceil(m/K) dummy threads forked first.
    const std::uint64_t delta = (bytes + quota - 1) / quota;
    if (t->audit_dummy_credit < delta) {
      violation("allocation of more than K bytes without its δ dummy threads", t);
    } else {
      t->audit_dummy_credit -= delta;
    }
  }
  // The window's first allocation reads the quota its dispatch granted (an
  // OOM recovery may have shrunk K since; the engine preempts against the
  // grant). A thread never granted one (bound) is held to the current K.
  if (t->audit_alloc_since_dispatch == 0) t->audit_quota = t->quota;
  const std::int64_t granted =
      t->audit_quota > 0 ? t->audit_quota : static_cast<std::int64_t>(quota);
  if (t->audit_alloc_since_dispatch > granted) {
    // The previous allocation already exhausted the quota; the engine was
    // required to preempt this thread before it allocated again.
    violation("thread allocated past its quota without being preempted", t);
  }
  t->audit_alloc_since_dispatch += static_cast<std::int64_t>(bytes);
}

void InvariantAuditor::on_inline_run(Tcb* parent, Tcb* child) {
  steps_.fetch_add(1, std::memory_order_relaxed);
  std::lock_guard<std::mutex> lk(mu_);
  if (live_.count(child) != 0) {
    violation("inline-run of a scheduler-registered thread", child);
  }
  // Bound parents are scheduled by the OS, not by our policy, so they are
  // legitimately absent from the registered set.
  if (parent && !parent->attr.bound) {
    check_registered(parent, "inline-run under an unregistered parent");
  }
}

void InvariantAuditor::on_oom_preempt(Tcb* t) {
  steps_.fetch_add(1, std::memory_order_relaxed);
  if (t == nullptr) return;
  // The engine re-dispatches t after the preempt, which resets the window
  // via on_pick; clearing here as well keeps the invariant exact even if a
  // policy dispatches without a pick (the real engine's RunNext path).
  t->audit_alloc_since_dispatch = 0;
}

AuditedScheduler::AuditedScheduler(std::unique_ptr<Scheduler> inner)
    : inner_(std::move(inner)) {
  g_active = &auditor_;
}

AuditedScheduler::~AuditedScheduler() {
  if (g_active == &auditor_) g_active = nullptr;
}

void AuditedScheduler::register_thread(Tcb* parent, Tcb* child) {
  const bool dives = inner_->dives(parent, child);
  inner_->register_thread(parent, child);
  auditor_.on_register(*inner_, parent, child, dives);
}

void AuditedScheduler::on_ready(Tcb* t, int proc) {
  // Audited first: a policy may assert the same precondition, so a call the
  // auditor rejects never reaches it. Readying links no order-list node.
  if (auditor_.on_ready(*inner_, t)) inner_->on_ready(t, proc);
}

Tcb* AuditedScheduler::pick_next(int proc, std::uint64_t now,
                                 std::uint64_t* earliest) {
  Tcb* t = inner_->pick_next(proc, now, earliest);
  auditor_.on_pick(*inner_, t, now);
  return t;
}

Tcb* AuditedScheduler::steal(int proc, int victim, std::uint64_t now,
                             std::uint64_t* earliest) {
  Tcb* t = inner_->steal(proc, victim, now, earliest);
  auditor_.on_pick(*inner_, t, now);
  return t;
}

void AuditedScheduler::unregister_thread(Tcb* t) {
  inner_->unregister_thread(t);
  auditor_.on_unregister(*inner_, t);
}

}  // namespace dfth::analyze
