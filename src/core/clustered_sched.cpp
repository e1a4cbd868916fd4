#include "core/clustered_sched.h"

#include <algorithm>
#include <limits>

#include "obs/edges.h"
#include "replay/hooks.h"
#include "util/check.h"

namespace dfth {

ClusteredAdfScheduler::ClusteredAdfScheduler(int nprocs, int cluster_size)
    : cluster_size_(std::max(1, cluster_size)),
      nclusters_((std::max(1, nprocs) + cluster_size_ - 1) / cluster_size_),
      clusters_(std::make_unique<Cluster[]>(static_cast<std::size_t>(nclusters_))) {}

void ClusteredAdfScheduler::add_ready(int cluster, std::ptrdiff_t delta) {
  std::atomic<std::size_t>& r = clusters_[static_cast<std::size_t>(cluster)].ready;
  r.store(r.load(std::memory_order_relaxed) + static_cast<std::size_t>(delta),
          std::memory_order_relaxed);
}

void ClusteredAdfScheduler::register_thread(Tcb* parent, Tcb* child) {
  child->order.owner = child;
  if (parent && parent->order.linked()) {
    // Child joins its parent's cluster, immediately to the parent's left —
    // the AsyncDF placement, per SMP. A running parent's cluster is the
    // spawning processor's own.
    child->home_proc = parent->home_proc;
    clusters_[static_cast<std::size_t>(child->home_proc)].list.insert_before(
        &parent->order, &child->order);
  } else {
    child->home_proc = 0;
    clusters_[0].list.push_front(&child->order);
  }
}

void ClusteredAdfScheduler::on_ready(Tcb* t, int proc) {
  (void)proc;  // a thread stays on its home SMP until explicitly migrated
  DFTH_DCHECK(t->order.linked());
  DFTH_DCHECK(t->state.load(std::memory_order_relaxed) == ThreadState::Ready);
  add_ready(t->home_proc, 1);
}

Tcb* ClusteredAdfScheduler::scan(int cluster, std::uint64_t now,
                                 std::uint64_t* earliest) {
  const OrderList& list = clusters_[static_cast<std::size_t>(cluster)].list;
  for (OrderNode* node = list.front();
       node != nullptr && node != list.end_sentinel(); node = node->next) {
    auto* t = static_cast<Tcb*>(node->owner);
    if (t->state.load(std::memory_order_relaxed) != ThreadState::Ready) continue;
    if (t->ready_at_ns <= now) return t;
    if (t->ready_at_ns < *earliest) *earliest = t->ready_at_ns;
  }
  return nullptr;
}

Tcb* ClusteredAdfScheduler::pick_next(int proc, std::uint64_t now,
                                      std::uint64_t* earliest) {
  *earliest = std::numeric_limits<std::uint64_t>::max();
  const int home = cluster_of(proc);
  Tcb* t = scan(home, now, earliest);
  if (t) add_ready(home, -1);
  return t;
}

Tcb* ClusteredAdfScheduler::steal(int proc, int victim, std::uint64_t now,
                                  std::uint64_t* earliest) {
  // "Threads would be moved between SMPs only when required": the thief's
  // cluster is dry, so it takes the leftmost ready thread of this one. The
  // migrant leaves the victim's list here and joins the thief's in rehome().
  Tcb* t = scan(victim, now, earliest);
  if (!t) return nullptr;
  clusters_[static_cast<std::size_t>(victim)].list.erase(&t->order);
  add_ready(victim, -1);
  obs::edges::steal(proc, t, static_cast<std::uint64_t>(victim), now);
  DFTH_REPLAY_STEAL(proc, t->id, static_cast<std::uint64_t>(victim));
  return t;
}

void ClusteredAdfScheduler::rehome(Tcb* t, int proc) {
  // The migrant becomes the leftmost (most urgent) entry of its new SMP; its
  // future children will fork relative to this position.
  const int home = cluster_of(proc);
  Cluster& c = clusters_[static_cast<std::size_t>(home)];
  c.list.push_front(&t->order);
  t->home_proc = home;
  ++c.migrations;
}

void ClusteredAdfScheduler::unregister_thread(Tcb* t) {
  if (!t->order.linked()) return;
  clusters_[static_cast<std::size_t>(t->home_proc)].list.erase(&t->order);
}

std::size_t ClusteredAdfScheduler::ready_count() const {
  std::size_t n = 0;
  for (int i = 0; i < nclusters_; ++i) n += ready_in(i);
  return n;
}

std::uint64_t ClusteredAdfScheduler::migrations() const {
  std::uint64_t n = 0;
  for (int i = 0; i < nclusters_; ++i) {
    n += clusters_[static_cast<std::size_t>(i)].migrations;
  }
  return n;
}

}  // namespace dfth
