// Virtual-time cost model for the SMP simulation engine.
//
// SimEngine executes the benchmarks' real code under a discrete-event model
// of a p-processor SMP and stays the reference for the paper's speedup and
// time-breakdown shapes. The host has 4 cores, so RealEngine wall-clock is
// measured too (bench/perf), but it is a different machine from the
// paper's. This struct holds every constant of the model, calibrated to the
// paper's Figure 3 (167 MHz UltraSPARC, Solaris 2.5):
//
//   * unbound thread create 20.5 µs (their headline number; "over 3400
//     cycles"), bound create an order of magnitude higher;
//   * fresh stack allocation 200 µs for an 8 KB stack rising to 260 µs for
//     1 MB (Figure 3 caption), cached stacks nearly free;
//   * semaphore pair synchronization 19 µs including one context switch.
//
// Two synthetic components stand in for effects the paper observes but does
// not tabulate (both documented in DESIGN.md):
//   * memory pressure: beyond `pressure_knee_bytes` of live heap, work slows
//     linearly up to `pressure_max` at `pressure_saturate_bytes` — modelling
//     the TLB/page misses and memory-allocation system calls that Figure 6
//     shows dominating the FIFO schedule;
//   * a per-processor LRU block cache driving annotate_touch() costs —
//     modelling the L2 locality that Figure 11's granularity sweep exposes.
#pragma once

#include <cstddef>
#include <cstdint>

namespace dfth {

struct CostModel {
  // -- thread operations (µs) ----------------------------------------------
  double create_unbound_us = 20.5;
  double create_bound_us = 170.0;
  double join_us = 5.9;
  double exit_us = 4.0;
  /// Calibrated from Fig 3's semaphore pair-sync (19 µs, "includes the time
  /// for one context switch"): 19 ≈ 2 sync ops (4.4) + block (8) + switch.
  double ctx_switch_us = 7.0;
  double sync_op_us = 2.2;    ///< uncontended mutex/semaphore operation
  double block_us = 8.0;      ///< blocking on a contended sync object
  double sem_sync_us = 19.0;  ///< Fig 3's two-thread semaphore pair sync
                              ///< (~ block + context switch; informational)
  double sched_op_us = 1.0;   ///< one ready-queue operation under the lock

  // -- stacks (µs) -----------------------------------------------------------
  double stack_pooled_us = 2.0;
  double stack_fresh_8k_us = 200.0;
  double stack_fresh_1m_us = 260.0;

  // -- heap (µs) ---------------------------------------------------------------
  double malloc_base_us = 0.6;
  double free_base_us = 0.3;
  double fresh_page_us = 2.0;  ///< zero-fill + map cost per fresh page
  std::size_t page_bytes = 8192;  ///< UltraSPARC base page size

  // -- computation ---------------------------------------------------------
  /// App-defined work units (≈ flops) retired per µs. 100 ops/µs ≈ the
  /// 167 MHz UltraSPARC sustaining ~0.6 flop/cycle on blocked kernels.
  double ops_per_us = 100.0;

  // -- memory pressure (synthetic; see header comment) -----------------------
  // The knee reflects the target machine's small TLB reach and 512 KB L2:
  // working sets beyond a few MB start missing hard; by a couple hundred MB
  // (the FIFO schedule's live footprint on the 1024² multiply) every access
  // pays, saturating at pressure_max.
  std::int64_t pressure_knee_bytes = 8LL << 20;
  std::int64_t pressure_saturate_bytes = 256LL << 20;
  double pressure_max = 3.0;

  /// Resident (touched) bytes attributed to one thread stack: stacks are
  /// reserved lazily, so a 1 MB stack dirties at most this many pages.
  /// Touched stack bytes count toward the pressure footprint.
  std::size_t stack_touched_cap = 64 << 10;

  // -- locality cache (synthetic; see header comment) -------------------------
  std::size_t cache_blocks = 64;  ///< ≈ 512 KB L2 / 8 KB blocks
  double cache_hit_us = 0.02;
  double cache_miss_us = 12.0;

  // -- derived helpers -------------------------------------------------------
  double work_us(std::uint64_t ops) const {
    return static_cast<double>(ops) / ops_per_us;
  }

  /// Fresh-stack cost, log-interpolated between the two calibrated points.
  double stack_fresh_us(std::size_t bytes) const;

  /// Work-slowdown multiplier at `live_bytes` of live heap (>= 1.0).
  double pressure(std::int64_t live_bytes) const;

  /// µs for an allocation of `bytes`, of which `fresh_bytes` grew the peak.
  double malloc_us(std::size_t bytes, std::int64_t fresh_bytes) const;
};

/// Converts µs of model time to the engine's integer nanosecond clock.
inline std::uint64_t us_to_ns(double us) {
  return static_cast<std::uint64_t>(us * 1e3 + 0.5);
}

}  // namespace dfth
