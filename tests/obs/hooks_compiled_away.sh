#!/usr/bin/env bash
# Proves an observer family compiled out leaves no trace in the runtime:
# runs `nm -C` over the runtime/, core/ and space/ objects of the static
# library and fails on any undefined reference to the family's session class
# or accessor. Registered by tests/CMakeLists.txt only in builds that set
# -DDFTH_TRACE=OFF or -DDFTH_PROF=OFF.
#
# usage: hooks_compiled_away.sh <libdfthreads.a> <src-dir> <trace|prof>...
set -u

if [ $# -lt 3 ]; then
  echo "usage: $0 <libdfthreads.a> <src-dir> <trace|prof>..." >&2
  exit 2
fi
lib=$1
src=$2
shift 2

patterns=()
for family in "$@"; do
  case "$family" in
    trace) patterns+=('dfth::obs::Tracer' 'dfth::obs::tracer()') ;;
    prof) patterns+=('dfth::obs::Profiler' 'dfth::obs::profiler()') ;;
    *) echo "unknown family: $family" >&2; exit 2 ;;
  esac
done

# Archive members are named after their source file (sim_engine.cpp.o).
members=()
for dir in runtime core space; do
  for f in "$src/$dir"/*.cpp; do
    members+=("$(basename "$f").o")
  done
done

nm_out=$(nm -C "$lib") || exit 1

status=0
checked=0
for m in "${members[@]}"; do
  # The member's section of the listing: from "name:" to the next blank line.
  syms=$(printf '%s\n' "$nm_out" |
         awk -v m="$m:" '$0 == m { on = 1; next } on && $0 == "" { on = 0 } on')
  if [ -z "$syms" ]; then
    echo "missing archive member $m" >&2
    status=1
    continue
  fi
  checked=$((checked + 1))
  for p in "${patterns[@]}"; do
    hits=$(printf '%s\n' "$syms" | grep -E '^ +U ' | grep -F -- "$p")
    if [ -n "$hits" ]; then
      echo "$m references $p:" >&2
      printf '%s\n' "$hits" >&2
      status=1
    fi
  done
done

echo "checked $checked objects for: ${patterns[*]}"
exit $status
