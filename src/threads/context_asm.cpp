// C++ glue for the assembly context switch (see context_x86_64.S).
#ifndef DFTH_USE_UCONTEXT

#include <cstdint>
#include <cstring>

#include "analyze/san_fibers.h"
#include "threads/context.h"
#include "util/check.h"

extern "C" {
bool dfth_asm_switch(void** save_sp, void* restore_sp);
void dfth_asm_trampoline();
}

namespace dfth {
namespace {

// Offsets (in 8-byte words) within the saved frame, matching the .S layout.
// sp -> [fpctl][r15][r14][r13][r12][rbx][rbp][retaddr]
constexpr int kFrameWords = 8;
constexpr int kSlotFpCtl = 0;
constexpr int kSlotR13 = 3;  // seeded with the entry argument
constexpr int kSlotR12 = 4;  // seeded with the entry function
constexpr int kSlotRet = 7;

}  // namespace

void context_make(Context* ctx, void* stack_lo, void* stack_hi, FiberEntry entry,
                  void* arg) {
  DFTH_CHECK(stack_hi > stack_lo);
  // Place the fabricated frame so that the "return address" slot sits at a
  // 16-aligned address; after the trampoline realigns rsp this guarantees a
  // conformant call into `entry`.
  auto top = reinterpret_cast<std::uintptr_t>(stack_hi);
  top &= ~static_cast<std::uintptr_t>(15);
  top -= 64;  // headroom above the frame
  auto* frame = reinterpret_cast<std::uint64_t*>(top) - kFrameWords;
  std::memset(frame, 0, kFrameWords * sizeof(std::uint64_t));

  // Capture the caller's FP control state so new fibers inherit it.
  std::uint32_t mxcsr;
  std::uint16_t fcw;
  asm volatile("stmxcsr %0" : "=m"(mxcsr));
  asm volatile("fnstcw %0" : "=m"(fcw));
  // The .S file loads mxcsr from (rsp) and fcw from 4(rsp): pack mxcsr into
  // the low 4 bytes and fcw into the next 2.
  frame[kSlotFpCtl] = static_cast<std::uint64_t>(mxcsr) |
                      (static_cast<std::uint64_t>(fcw) << 32);

#if defined(DFTH_ASAN_ENABLED) || defined(DFTH_TSAN_ENABLED)
  // Route the first activation through the sanitizer entry shim so ASan/TSan
  // see the switch completed before any user frame runs.
  san::fiber_made(ctx, stack_lo, stack_hi);
  ctx->san.entry = entry;
  ctx->san.entry_arg = arg;
  entry = &san::entry_shim;
  arg = ctx;
#endif
  frame[kSlotR12] = reinterpret_cast<std::uint64_t>(entry);
  frame[kSlotR13] = reinterpret_cast<std::uint64_t>(arg);
  frame[kSlotRet] = reinterpret_cast<std::uint64_t>(&dfth_asm_trampoline);
  ctx->sp = frame;
}

bool context_switch(Context* save, Context* restore) {
#if defined(DFTH_ASAN_ENABLED) || defined(DFTH_TSAN_ENABLED)
  san::pre_switch(save, restore);
  dfth_asm_switch(&save->sp, restore->sp);
  san::post_switch(save);
  return true;
#else
  return dfth_asm_switch(&save->sp, restore->sp);
#endif
}

void context_switch_final(Context* dying, Context* restore) {
#if defined(DFTH_ASAN_ENABLED) || defined(DFTH_TSAN_ENABLED)
  san::pre_final_switch(restore);
#endif
  dfth_asm_switch(&dying->sp, restore->sp);
  DFTH_CHECK_MSG(false, "finalized fiber context resumed");
}

void context_finalize(Context* ctx) {
#if defined(DFTH_ASAN_ENABLED) || defined(DFTH_TSAN_ENABLED)
  san::fiber_released(ctx);
#else
  (void)ctx;
#endif
}

void context_destroy(Context* ctx) {
  context_finalize(ctx);
  ctx->sp = nullptr;
}

}  // namespace dfth

#endif  // !DFTH_USE_UCONTEXT
