#!/usr/bin/env bash
# Repository lint, two tiers:
#
#   1. grep audits (always run, and the whole story under --grep-only):
#      keep the benchmark apps honest — every app must go through the
#      dfth_pthread.h shims and the tracked heap (df_malloc/df_free), never
#      raw pthreads or untracked allocation, or the space measurements the
#      apps exist for are silently wrong. Core layers must not use raw stdio.
#   2. structural analysis (skipped under --grep-only, or when the tool is
#      missing): dfth-check — the fiber-aware analyzer in tools/dfth-check —
#      over src/apps, src/compat, bench and examples, then clang-tidy driven
#      by build/compile_commands.json (exported unconditionally by the
#      top-level CMakeLists).
#
# --grep-only exists for machines with no build tree: the audits need only
# sed/grep, so CI bootstrap legs and pre-commit hooks can still run them.
set -u

repo_root="$(cd "$(dirname "$0")/.." && pwd)"
cd "$repo_root"
status=0

grep_only=0
for arg in "$@"; do
  case "$arg" in
    --grep-only) grep_only=1 ;;
    *) echo "usage: $0 [--grep-only]" >&2; exit 2 ;;
  esac
done

# ---- 1. bypass audit --------------------------------------------------------
app_files=$(find src/apps -name '*.cpp' -o -name '*.h')
# tests/check/fixtures deliberately contains the violations dfth-check is
# tested against (raw pthread_mutex_lock, sleep, ...) — not audit targets.
aux_files=$(find tests bench -path tests/check/fixtures -prune -o \
            \( -name '*.cpp' -o -name '*.h' \) -print)

# Greps the given sources with // comments stripped, so prose like "forks a
# new thread" in a comment doesn't trip the allocation check. First argument
# is the file list, second is the pattern.
audit_grep() {
  local files="$1" pattern="$2" f out found=1
  for f in $files; do
    out=$(sed 's|//.*||' "$f" | grep -nE "$pattern")
    if [ -n "$out" ]; then
      printf '%s\n' "$out" | sed "s|^|$f:|"
      found=0
    fi
  done
  return $found
}

# Raw pthread usage (the apps must use the dfth_pthread.h shims). dfth-check
# refines this below — it knows which calls block and which code runs on a
# fiber — but the grep keeps even non-blocking raw pthread out of the apps.
if audit_grep "$app_files" '\bpthread_[a-z_]+[[:space:]]*\('; then
  echo "lint: raw pthread_* call in src/apps (use compat/dfth_pthread.h)" >&2
  status=1
fi

# Apps must not sidestep the runtime with kernel threads either: std::thread
# workers are invisible to the scheduler, the space accounting, and the
# fork/join DAG the race detector reasons over.
if audit_grep "$app_files" '\bstd::thread\b'; then
  echo "lint: std::thread in src/apps (use dfth::spawn/join)" >&2
  status=1
fi

# Untracked heap allocation. Placement-new is fine (constructs in storage
# the tracked heap already accounts for); allocating new/new[] is not.
if audit_grep "$app_files" '\b(malloc|calloc|realloc|free)[[:space:]]*\('; then
  echo "lint: raw malloc/free in src/apps (use df_malloc/df_free)" >&2
  status=1
fi
if audit_grep "$app_files" '\bnew\b' | grep -vE 'new[[:space:]]*\('; then
  echo "lint: allocating new in src/apps (use df_malloc or placement-new)" >&2
  status=1
fi

# Tests and benchmarks go through the shims and tracked heap too, or the
# suites stop exercising the code paths they exist to cover. (std::thread is
# allowed there: harness code that drives the runtime from outside — and the
# fig03 kernel-thread reference column — legitimately needs it.)
if audit_grep "$aux_files" '\bpthread_[a-z_]+[[:space:]]*\('; then
  echo "lint: raw pthread_* call in tests/bench (use compat/dfth_pthread.h)" >&2
  status=1
fi
if audit_grep "$aux_files" '\b(malloc|calloc|realloc|free)[[:space:]]*\('; then
  echo "lint: raw malloc/free in tests/bench (use df_malloc/df_free)" >&2
  status=1
fi

# The engine and scheduler layers must report through util/log.h and the
# obs tracer/counters, never ad-hoc stdio: raw prints bypass the log-level
# gate and corrupt the machine-readable output the bench/CI pipeline parses.
core_files=$(find src/core src/runtime -name '*.cpp' -o -name '*.h')
if audit_grep "$core_files" '\b(printf|fprintf|puts|fputs)[[:space:]]*\(|std::(cout|cerr)\b'; then
  echo "lint: raw stdio in src/core or src/runtime (use DFTH_LOG_* or obs/)" >&2
  status=1
fi

# Same rule for the observability, resilience and replay layers, minus the
# designated stdio sinks: obs/export.cpp IS the file writer the pipeline
# parses, resil/watchdog.cpp must dump its flight recorder to stderr from an
# async-signal path where the logger is off the table, and replay/log.cpp is
# the schedule-log reader/writer (binary file I/O, same standing as
# export.cpp).
obs_files=$(find src/obs src/resil src/replay \
            \( -path src/obs/export.cpp -o -path src/resil/watchdog.cpp \
               -o -path src/replay/log.cpp \) \
            -prune -o \( -name '*.cpp' -o -name '*.h' \) -print)
if audit_grep "$obs_files" '\b(printf|fprintf|puts|fputs)[[:space:]]*\(|std::(cout|cerr)\b'; then
  echo "lint: raw stdio in src/obs, src/resil or src/replay (use DFTH_LOG_* — only export.cpp, watchdog.cpp and replay/log.cpp are stdio sinks)" >&2
  status=1
fi

# The replay layer must not sidestep the runtime it is recording: no raw
# pthread primitives (its own locks are std:: on host threads by design, but
# pthread_* would bypass the compat shims' accounting elsewhere) and no
# untracked allocation of log buffers.
replay_files=$(find src/replay -name '*.cpp' -o -name '*.h')
if audit_grep "$replay_files" '\bpthread_[a-z_]+[[:space:]]*\('; then
  echo "lint: raw pthread_* call in src/replay" >&2
  status=1
fi

# The serving layer holds the same line as the engines it fronts: no raw
# stdio (everything it measures flows through ServeReport counters into the
# bench JSON the CI release leg parses), no raw pthread primitives (handlers
# and the pump run on fibers — blocking a kernel thread stalls a whole
# lane), and no untracked allocation (request payloads must charge the
# tracked heap or the admission budget it enforces is fiction).
serve_files=$(find src/serve -name '*.cpp' -o -name '*.h')
if audit_grep "$serve_files" '\b(printf|fprintf|puts|fputs)[[:space:]]*\(|std::(cout|cerr)\b'; then
  echo "lint: raw stdio in src/serve (use DFTH_LOG_* or ServeReport counters)" >&2
  status=1
fi
if audit_grep "$serve_files" '\bpthread_[a-z_]+[[:space:]]*\('; then
  echo "lint: raw pthread_* call in src/serve (use runtime/sync.h)" >&2
  status=1
fi
if audit_grep "$serve_files" '\b(malloc|calloc|realloc|free)[[:space:]]*\('; then
  echo "lint: raw malloc/free in src/serve (use df_malloc/df_free)" >&2
  status=1
fi

# Tracing, profiling and record/replay are part of every build: no switch,
# #if or flavour constant may bring an OFF variant back. (bench/perf is the
# benchmark harness; its comparison keys and hook_cost.sh still name the
# old switches until the benchmark itself is revised.)
if grep -rnE '\bDFTH_(TRACE|PROF|REPLAY)\b|\bk(Trace|Prof|Replay)Enabled\b' \
     --exclude-dir=perf src tests tools examples bench; then
  echo "lint: tracing/profiling/replay build switch in src, tests, tools, examples or bench (the families are in every build)" >&2
  status=1
fi

# The race detector is installed per run (RuntimeOptions::race), like the
# tracer: no build switch, compile-time probe or process-wide instance may
# bring a second build back. (bench/perf excluded as above.)
if grep -rnE '\bDFTH_RACE\b|\brace_enabled\b|\bRaceDetector::instance\b' \
     --exclude=lint.sh --exclude-dir=perf src tests tools examples bench; then
  echo "lint: race-detector build switch or singleton in src, tests, tools, examples or bench (install one per run through RuntimeOptions::race)" >&2
  status=1
fi

# Counters and histograms belong to the trace session and reach it through
# obs/edges.h, each from one source: no process-global registry or counting
# macro may come back, and the policies see obs/ only through the edges.
if grep -rnE '\b(CounterRegistry|HistogramRegistry|g_counters|tl_counter_shard|assign_counter_shard|DFTH_COUNT|DFTH_COUNT_N|DFTH_HIST|DFTH_HIST_WAIT)\b|\b(obs::)?(counters|histograms)\(\)' \
     --exclude=lint.sh src tests tools examples bench; then
  echo "lint: a second counter source (global registry or counting macro) in src, tests, tools, examples or bench (count through obs/edges.h into the trace session)" >&2
  status=1
fi
if grep -nE '#include[[:space:]]+"obs/' src/core/*.h src/core/*.cpp | grep -v '"obs/edges\.h"'; then
  echo "lint: src/core includes an obs/ header other than obs/edges.h" >&2
  status=1
fi

if [ "$status" -eq 0 ]; then
  echo "lint: allocation/threading/stdio audit clean (src/apps, src/core, src/runtime, src/obs, src/resil, src/replay, src/serve, tests, bench)"
fi

if [ "$grep_only" -eq 1 ]; then
  echo "lint: --grep-only, skipping dfth-check and clang-tidy"
  exit $status
fi

# ---- 2. dfth-check (fiber-aware static analysis) ----------------------------
# Blocking calls on fibers, unannotated shared writes, fiber-stack escapes,
# and lock-order cycles. One combined invocation: fiber reachability crosses
# TU boundaries (bench lambdas call into src/apps).
dfth_check=build/tools/dfth-check/dfth-check
if [ -x "$dfth_check" ]; then
  if ! "$dfth_check" src/apps src/compat bench examples; then
    echo "lint: dfth-check reported findings" >&2
    status=1
  else
    echo "lint: dfth-check clean (src/apps, src/compat, bench, examples)"
  fi
else
  echo "lint: dfth-check not built ($dfth_check missing), skipping fiber analysis"
fi

# ---- 3. clang-tidy (optional: skipped when not installed) -------------------
if command -v clang-tidy >/dev/null 2>&1; then
  # The top-level CMakeLists sets CMAKE_EXPORT_COMPILE_COMMANDS, so any
  # configured build tree has the database; configure one if none exists yet.
  if [ ! -f build/compile_commands.json ]; then
    cmake -B build -S . >/dev/null
  fi
  tidy_files=$(find src -name '*.cpp' ! -name 'context_x86_64*')
  if ! clang-tidy -p build --quiet $tidy_files; then
    echo "lint: clang-tidy reported errors" >&2
    status=1
  fi
else
  echo "lint: clang-tidy not installed, skipping static analysis"
fi

exit $status
