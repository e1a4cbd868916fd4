// Clustered AsyncDF — the paper's §6 future-work design, implemented:
//
//   "Our space-efficient scheduler maintains a globally ordered list of
//    threads; accesses to this list are serialized by a lock. Therefore, we
//    do not expect such a serialized scheduler to scale well beyond 16
//    processors. [...] to schedule threads on a hardware-coherent cluster
//    of SMPs, our scheduling algorithm could be used to maintain one shared
//    queue on each SMP, and threads would be moved between SMPs only when
//    required."
//
// Processors are partitioned into clusters of `cluster_size` ("one SMP"
// each). Each cluster runs the AsyncDF discipline on its own ordered list
// and is its own lock domain (core/scheduler.h): both engines serialize
// scheduler operations per cluster, not globally. A fork still preempts the
// parent and places the child immediately left of the parent in the
// parent's cluster. A processor whose cluster has no ready thread migrates
// the leftmost ready thread of another cluster into its own list — the
// "moved only when required" rule; migrations are counted. A migration
// takes two sections: steal() erases the migrant under the victim
// cluster's lock, and rehome() links it into the thief's cluster under
// that cluster's lock before it runs. A thread keeps its cluster while it
// blocks, so a wake readies it in its home cluster (keeps_home()).
//
// Space: each cluster independently maintains the AsyncDF invariants, so
// live space is bounded by the sum of per-cluster bounds,
// S1 + O(p·K·D + C·S1-ish migration effects) — abl_clustered measures the
// practical cost against the single-lock scheduler's contention.
//
// Priorities are not supported by this policy (like work stealing); all
// threads are scheduled at one level.
#pragma once

#include <algorithm>
#include <atomic>
#include <cstddef>
#include <memory>

#include "core/order_list.h"
#include "core/scheduler.h"

namespace dfth {

class ClusteredAdfScheduler final : public Scheduler {
 public:
  ClusteredAdfScheduler(int nprocs, int cluster_size);

  SchedKind kind() const override { return SchedKind::ClusteredAdf; }
  bool needs_quota() const override { return true; }

  /// The parent is preempted; the processor runs the child.
  bool dives(const Tcb* parent, const Tcb* child) const override {
    (void)parent;
    (void)child;
    return true;
  }
  void register_thread(Tcb* parent, Tcb* child) override;
  void on_ready(Tcb* t, int proc) override;
  Tcb* pick_next(int proc, std::uint64_t now, std::uint64_t* earliest) override;
  void unregister_thread(Tcb* t) override;
  std::size_t ready_count() const override;

  int domains() const override { return nclusters_; }
  int lock_domain(int proc) const override { return cluster_of(proc); }
  int ready_domain(const Tcb* t, int proc) const override {
    (void)proc;
    return t->home_proc;
  }
  std::size_t ready_in(int domain) const override {
    return clusters_[static_cast<std::size_t>(domain)].ready.load(
        std::memory_order_relaxed);
  }
  Tcb* steal(int proc, int victim, std::uint64_t now,
             std::uint64_t* earliest) override;
  bool keeps_home() const override { return true; }
  void rehome(Tcb* t, int proc) override;

  std::uint64_t migrations() const;
  std::size_t live_count(int cluster) const {
    return clusters_[static_cast<std::size_t>(cluster)].list.size();
  }

 private:
  /// One cluster's domain, guarded by that domain's lock; `ready` is also
  /// read without it, as a steal hint.
  struct alignas(64) Cluster {
    OrderList list;  ///< the cluster's serial-order list
    std::atomic<std::size_t> ready{0};
    std::uint64_t migrations = 0;  ///< threads migrated *into* this cluster
  };

  int cluster_of(int proc) const {
    return std::min(proc / cluster_size_, nclusters_ - 1);
  }
  /// Leftmost ready thread in one cluster's list, honoring `now`.
  Tcb* scan(int cluster, std::uint64_t now, std::uint64_t* earliest);
  void add_ready(int cluster, std::ptrdiff_t delta);

  int cluster_size_;
  int nclusters_;
  std::unique_ptr<Cluster[]> clusters_;
};

}  // namespace dfth
