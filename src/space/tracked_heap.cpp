#include "space/tracked_heap.h"

#include <cstdlib>

#include "analyze/san_fibers.h"
#include "resil/faults.h"
#include "util/check.h"

namespace dfth {
namespace {

// Header stored immediately before the user pointer. 16 bytes keeps the user
// block 16-aligned (malloc returns 16-aligned storage on x86-64 glibc).
struct alignas(16) Header {
  std::uint64_t size;
  std::uint64_t magic;
};
constexpr std::uint64_t kMagic = 0xdf7ea11ced0c0de5ULL;

// Peeking at the header of a pointer that did not come from df_malloc is
// itself an out-of-bounds read under ASan (e.g. a redzone below a stack
// variable), so ASan would report the peek before our own diagnostic runs.
// Probe addressability first and let the DFTH_CHECK fire instead.
bool header_readable(const Header* header) {
#if defined(DFTH_ASAN_ENABLED)
  return __asan_region_is_poisoned(const_cast<Header*>(header),
                                   sizeof(Header)) == nullptr;
#else
  (void)header;
  return true;
#endif
}

}  // namespace

// -- ShadowTable --------------------------------------------------------------

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

// -- TrackedHeap --------------------------------------------------------------

TrackedHeap& TrackedHeap::instance() {
  static TrackedHeap heap;
  return heap;
}

void* TrackedHeap::allocate(std::size_t bytes) {
  std::int64_t fresh = 0;
  return allocate_ex(bytes, &fresh);
}

void* TrackedHeap::allocate_ex(std::size_t bytes, std::int64_t* fresh_bytes_out,
                               bool probe_faults, bool* injected_out) {
  *fresh_bytes_out = 0;
  if (injected_out) *injected_out = false;
  // Failure must be effect-free: counters, live bytes and the peak are only
  // touched once the backing allocation is in hand, so a failed attempt
  // followed by an engine OOM-preempt retry never double-counts. (The old
  // path threw bad_alloc here — out of a fiber, through a context switch,
  // straight into std::terminate.)
  if (bytes > SIZE_MAX - sizeof(Header)) return nullptr;  // size overflow
  if (probe_faults && DFTH_FAULT_SHOULD_FAIL(resil::FaultSite::kHeapAlloc)) {
    if (injected_out) *injected_out = true;
    return nullptr;
  }
  auto* header = static_cast<Header*>(std::malloc(sizeof(Header) + bytes));
  if (!header) return nullptr;
  header->size = bytes;
  header->magic = kMagic;

  allocs_.fetch_add(1, std::memory_order_relaxed);
  const std::int64_t live_now =
      live_.fetch_add(static_cast<std::int64_t>(bytes), std::memory_order_relaxed) +
      static_cast<std::int64_t>(bytes);
  // Raise the peak with a CAS loop; report how much of this allocation was
  // above the previous peak ("fresh" memory the OS had to provide).
  std::int64_t prev_peak = peak_.load(std::memory_order_relaxed);
  std::int64_t fresh = 0;
  while (live_now > prev_peak) {
    if (peak_.compare_exchange_weak(prev_peak, live_now, std::memory_order_relaxed)) {
      fresh = live_now - prev_peak;
      break;
    }
  }
  *fresh_bytes_out = fresh;
  return header + 1;
}

void TrackedHeap::deallocate(void* p) {
  if (!p) return;
  auto* header = static_cast<Header*>(p) - 1;
  DFTH_CHECK_MSG(header_readable(header) && header->magic == kMagic,
                 "df_free of pointer not from df_malloc");
  header->magic = 0;
  // Retire the block's shadow with the block: the allocator may hand this
  // range to an unrelated thread immediately, and a stale cell would pair
  // the new owner's first access against the dead lifetime's last one.
  shadow_.clear_range(p, header->size);
  frees_.fetch_add(1, std::memory_order_relaxed);
  live_.fetch_sub(static_cast<std::int64_t>(header->size), std::memory_order_relaxed);
  std::free(header);
}

std::size_t TrackedHeap::allocated_size(const void* p) {
  auto* header = static_cast<const Header*>(p) - 1;
  DFTH_CHECK_MSG(header_readable(header) && header->magic == kMagic,
                 "allocated_size of foreign pointer");
  return header->size;
}

void TrackedHeap::begin_epoch() {
  peak_.store(live_.load(std::memory_order_relaxed), std::memory_order_relaxed);
}

}  // namespace dfth
