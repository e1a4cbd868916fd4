#include "analyze/race_detector.h"

#include <cstdio>
#include <cstdlib>
#include <mutex>
#include <utility>

#include "threads/tcb.h"

namespace dfth::analyze {
namespace {

// FastTrack epoch: one 64-bit word packing (fiber id, that fiber's clock).
// 24 bits of fiber id covers ~16M logical threads per run — two orders of
// magnitude past the largest benchmark — and 40 bits of clock covers ~10^12
// events per fiber. Epoch 0 means "no access recorded" (fiber ids start at
// 1 in both engines).
constexpr int kClockBits = 40;
constexpr std::uint64_t kClockMask = (1ull << kClockBits) - 1;

std::uint64_t pack_epoch(std::uint64_t tid, std::uint64_t clock) {
  return (tid << kClockBits) | (clock & kClockMask);
}
std::uint64_t epoch_tid(std::uint64_t e) { return e >> kClockBits; }
std::uint64_t epoch_clock(std::uint64_t e) { return e & kClockMask; }

std::uint64_t vc_get(const std::vector<std::uint64_t>& vc, std::uint64_t tid) {
  return tid < vc.size() ? vc[tid] : 0;
}

void vc_set(std::vector<std::uint64_t>& vc, std::uint64_t tid, std::uint64_t v) {
  if (vc.size() <= tid) vc.resize(tid + 1, 0);
  vc[tid] = v;
}

/// dst := dst ⊔ src (element-wise max).
void vc_join(std::vector<std::uint64_t>& dst, const std::vector<std::uint64_t>& src) {
  if (dst.size() < src.size()) dst.resize(src.size(), 0);
  for (std::size_t i = 0; i < src.size(); ++i) {
    if (src[i] > dst[i]) dst[i] = src[i];
  }
}

/// `t`'s own clock component: the entry of the fiber its epochs name
/// (race_tid, set by on_thread_start; swap_inline lends it to a parent).
std::uint64_t self_clock(const Tcb* t) { return vc_get(t->race_vc, t->race_tid); }

void tick(Tcb* t) { vc_set(t->race_vc, t->race_tid, self_clock(t) + 1); }

/// Serial-order position of the fiber's current segment: its order-list tag
/// when the active scheduler maintains the list (AsyncDF family), else 0.
/// Reads the list unlocked: the caller has `order_tags` on only when no
/// other kernel thread can relink it (the simulator).
std::uint64_t order_tag(const Tcb* t, bool order_tags) {
  return order_tags && t->order.linked() ? t->order.tag : 0;
}

const char* site_or(const char* site) { return site ? site : "<unannotated>"; }

}  // namespace

// -- ShadowTable ------------------------------------------------------------------

ShadowCell& ShadowTable::cell(std::uintptr_t granule) {
  auto [it, inserted] = cells_.try_emplace(granule);
  if (inserted) count_.fetch_add(1, std::memory_order_relaxed);
  return it->second;
}

void ShadowTable::clear_range(const void* p, std::size_t bytes) {
  if (count_.load(std::memory_order_relaxed) == 0 || bytes == 0) return;
  const auto lo = reinterpret_cast<std::uintptr_t>(p) / kShadowGranuleBytes;
  const auto hi =
      (reinterpret_cast<std::uintptr_t>(p) + bytes - 1) / kShadowGranuleBytes;
  std::lock_guard<std::mutex> g(mu_);
  for (std::uintptr_t granule = lo; granule <= hi; ++granule) {
    if (cells_.erase(granule)) count_.fetch_sub(1, std::memory_order_relaxed);
  }
}

void ShadowTable::clear_all() {
  std::lock_guard<std::mutex> g(mu_);
  cells_.clear();
  count_.store(0, std::memory_order_relaxed);
}

std::size_t ShadowTable::cell_count() const {
  std::lock_guard<std::mutex> g(mu_);
  return cells_.size();
}

// -- fork/join DAG edges --------------------------------------------------------
//
// These touch only Tcb clocks, so they take no lock: a clock is written by
// its own fiber, or by the engine while that fiber cannot run (a child before
// it starts, a joiner blocked in join), and read by a joiner only after the
// child's exit, which the engine's join protocol orders. Each is O(thread
// count), so under mu_ it would stretch every other lane's lock edges, and
// with them a hot Mutex's critical sections (tests/runtime/hot_lock_test.cpp).

void RaceDetector::on_thread_start(Tcb* t, Tcb* parent) {
  t->race_tid = t->id;
  if (parent) {
    t->race_vc = parent->race_vc;  // child sees everything pre-fork
    tick(parent);  // parent's post-fork segment is concurrent with the child
  } else {
    t->race_vc.clear();
  }
  vc_set(t->race_vc, t->race_tid, 1);
}

void RaceDetector::on_join(Tcb* joiner, Tcb* child) {
  vc_join(joiner->race_vc, child->race_vc);
}

void RaceDetector::swap_inline(Tcb* parent, Tcb* child) {
  std::swap(parent->race_vc, child->race_vc);
  std::swap(parent->race_tid, child->race_tid);
}

// -- synchronization edges ------------------------------------------------------

void RaceDetector::on_acquire(Tcb* t, const void* obj) {
  std::lock_guard<SpinLock> g(mu_);
  auto it = sync_.find(obj);
  if (it != sync_.end()) vc_join(t->race_vc, it->second.rel);
}

void RaceDetector::on_release(Tcb* t, const void* obj) {
  std::lock_guard<SpinLock> g(mu_);
  vc_join(sync_[obj].rel, t->race_vc);
  tick(t);
}

void RaceDetector::on_rd_acquire(Tcb* t, const void* obj) {
  // Readers order after the last write release only — two read critical
  // sections of the same RwLock stay concurrent.
  on_acquire(t, obj);
}

void RaceDetector::on_rd_release(Tcb* t, const void* obj) {
  std::lock_guard<SpinLock> g(mu_);
  vc_join(sync_[obj].rd_rel, t->race_vc);
  tick(t);
}

void RaceDetector::on_wr_acquire(Tcb* t, const void* obj) {
  // A writer orders after the previous writer *and* every reader since.
  std::lock_guard<SpinLock> g(mu_);
  auto it = sync_.find(obj);
  if (it != sync_.end()) {
    vc_join(t->race_vc, it->second.rel);
    vc_join(t->race_vc, it->second.rd_rel);
  }
}

void RaceDetector::on_barrier_arrive(Tcb* t, const void* barrier,
                                     std::uint64_t gen, bool last) {
  std::lock_guard<SpinLock> g(mu_);
  BarrierClock& bc = barriers_[barrier];
  vc_join(bc.accum, t->race_vc);
  tick(t);
  if (last) {
    // Generation complete: publish the all-to-all clock. Parity indexing is
    // enough — a fiber cannot arrive at generation g+2 before every fiber
    // has left generation g (it would have to pass g+1 first, which needs
    // all parties), so at most two generations are ever in flight.
    bc.released[gen & 1] = std::move(bc.accum);
    bc.accum.clear();
  }
}

void RaceDetector::on_barrier_leave(Tcb* t, const void* barrier,
                                    std::uint64_t gen) {
  std::lock_guard<SpinLock> g(mu_);
  auto it = barriers_.find(barrier);
  if (it != barriers_.end()) vc_join(t->race_vc, it->second.released[gen & 1]);
}

// -- annotated memory accesses --------------------------------------------------

void RaceDetector::on_read(Tcb* t, const void* p, std::size_t bytes,
                           const char* site) {
  access(t, p, bytes, site, /*is_write=*/false);
}

void RaceDetector::on_write(Tcb* t, const void* p, std::size_t bytes,
                            const char* site) {
  access(t, p, bytes, site, /*is_write=*/true);
}

void RaceDetector::on_retire(const void* p, std::size_t bytes) {
  shadow_.clear_range(p, bytes);
}

void RaceDetector::access(Tcb* t, const void* p, std::size_t bytes,
                          const char* site, bool is_write) {
  if (bytes == 0) return;
  std::lock_guard<SpinLock> g(mu_);
  std::lock_guard<std::mutex> sg(shadow_.mu());
  const std::uint64_t tid = t->race_tid;
  const std::uint64_t clk = self_clock(t);
  const std::uint64_t epoch = pack_epoch(tid, clk);
  const VClock& vc = t->race_vc;
  const auto lo = reinterpret_cast<std::uintptr_t>(p) / kShadowGranuleBytes;
  const auto hi =
      (reinterpret_cast<std::uintptr_t>(p) + bytes - 1) / kShadowGranuleBytes;

  for (std::uintptr_t granule = lo; granule <= hi; ++granule) {
    ShadowCell& cell = shadow_.cell(granule);
    const void* addr = reinterpret_cast<const void*>(granule * kShadowGranuleBytes);
    auto prev_of = [&](const std::uint64_t e, const ShadowAccess& info,
                       bool prev_write) {
      return RaceAccess{epoch_tid(e), epoch_clock(e), prev_write, info.site,
                        info.order_tag};
    };
    const RaceAccess cur{tid, clk, is_write, site,
                         order_tag(t, order_tags_.load(std::memory_order_relaxed))};

    // Write-after-X checks.
    if (is_write) {
      if (cell.write_epoch == epoch) continue;  // same-segment rewrite
      if (cell.write_epoch != 0 &&
          epoch_clock(cell.write_epoch) > vc_get(vc, epoch_tid(cell.write_epoch))) {
        report_race(addr, prev_of(cell.write_epoch, cell.write_info, true), cur);
      }
      if (!cell.read_vc.empty()) {
        for (std::uint64_t u = 0; u < cell.read_vc.size(); ++u) {
          if (cell.read_vc[u] != 0 && cell.read_vc[u] > vc_get(vc, u)) {
            report_race(addr,
                        RaceAccess{u, cell.read_vc[u], false,
                                   cell.read_info.site, cell.read_info.order_tag},
                        cur);
            break;  // one representative read suffices per granule
          }
        }
      } else if (cell.read_epoch != 0 &&
                 epoch_clock(cell.read_epoch) > vc_get(vc, epoch_tid(cell.read_epoch))) {
        report_race(addr, prev_of(cell.read_epoch, cell.read_info, false), cur);
      }
      // The write dominates: collapse the read history (FastTrack's reset
      // keeps the cell O(1) again after a concurrent-read episode).
      cell.write_epoch = epoch;
      cell.write_info = {site, cur.order_tag};
      cell.read_epoch = 0;
      cell.read_vc.clear();
      continue;
    }

    // Read path.
    if (cell.read_epoch == epoch) continue;  // same-segment reread
    if (!cell.read_vc.empty() && vc_get(cell.read_vc, tid) == clk) continue;
    if (cell.write_epoch != 0 &&
        epoch_clock(cell.write_epoch) > vc_get(vc, epoch_tid(cell.write_epoch))) {
      report_race(addr, prev_of(cell.write_epoch, cell.write_info, true), cur);
    }
    if (!cell.read_vc.empty()) {
      vc_set(cell.read_vc, tid, clk);
    } else if (cell.read_epoch == 0 ||
               epoch_clock(cell.read_epoch) <=
                   vc_get(vc, epoch_tid(cell.read_epoch))) {
      // Totally ordered with the previous reader (or first reader): the
      // epoch fast path holds.
      cell.read_epoch = epoch;
    } else {
      // Genuinely concurrent readers: escalate this cell to a read vector.
      ++escalations_;
      vc_set(cell.read_vc, epoch_tid(cell.read_epoch),
             epoch_clock(cell.read_epoch));
      vc_set(cell.read_vc, tid, clk);
      cell.read_epoch = 0;
    }
    cell.read_info = {site, cur.order_tag};
  }
}

void RaceDetector::report_race(const void* addr, const RaceAccess& prev,
                               const RaceAccess& cur) {
  const auto key = std::make_tuple(reinterpret_cast<std::uintptr_t>(addr),
                                   prev.site, cur.site, prev.is_write,
                                   cur.is_write);
  if (!seen_.insert(key).second) return;
  reports_.push_back(RaceReport{addr, prev, cur});
  std::fprintf(
      stderr,
      "DFTH RaceDetector: data race on %p (%s-%s)\n"
      "  fiber %llu %s at clock %llu, site %s, serial-order position %llu\n"
      "  fiber %llu %s at clock %llu, site %s, serial-order position %llu\n"
      "  the two segments are unordered in the fork/join DAG: no fork, join,\n"
      "  or synchronization edge connects them, so some legal schedule runs\n"
      "  them concurrently even if this run serialized them.\n",
      addr, prev.is_write ? "write" : "read", cur.is_write ? "write" : "read",
      static_cast<unsigned long long>(prev.fiber),
      prev.is_write ? "wrote" : "read",
      static_cast<unsigned long long>(prev.clock), site_or(prev.site),
      static_cast<unsigned long long>(prev.order_tag),
      static_cast<unsigned long long>(cur.fiber),
      cur.is_write ? "wrote" : "read",
      static_cast<unsigned long long>(cur.clock), site_or(cur.site),
      static_cast<unsigned long long>(cur.order_tag));
  if (abort_on_race_) std::abort();
}

// -- lifecycle / results --------------------------------------------------------

void RaceDetector::begin_run(bool order_tags) {
  order_tags_.store(order_tags, std::memory_order_relaxed);
  std::lock_guard<SpinLock> g(mu_);
  sync_.clear();
  barriers_.clear();
  shadow_.clear_all();
}

void RaceDetector::clear() {
  std::lock_guard<SpinLock> g(mu_);
  sync_.clear();
  barriers_.clear();
  shadow_.clear_all();
  reports_.clear();
  seen_.clear();
  escalations_ = 0;
}

void RaceDetector::set_abort_on_race(bool abort_on_race) {
  std::lock_guard<SpinLock> g(mu_);
  abort_on_race_ = abort_on_race;
}

std::uint64_t RaceDetector::races_detected() const {
  std::lock_guard<SpinLock> g(mu_);
  return reports_.size();
}

std::uint64_t RaceDetector::read_escalations() const {
  std::lock_guard<SpinLock> g(mu_);
  return escalations_;
}

std::size_t RaceDetector::shadow_cells() const { return shadow_.cell_count(); }

std::vector<RaceReport> RaceDetector::reports() const {
  std::lock_guard<SpinLock> g(mu_);
  return reports_;
}

}  // namespace dfth::analyze
