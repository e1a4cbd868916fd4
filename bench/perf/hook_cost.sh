#!/usr/bin/env bash
# Cost of each default-ON hook family (trace, prof, replay) with no session
# installed: builds dfth_perf once with every family on and once per family
# with only that one off, runs fork-join and sync on each build with the same
# seeds (builds alternating within each seed), and reports
#
#   hooks.<family>.cost_frac <workload> = median wall_ms(all on) / median wall_ms(<family> off) - 1
#
# Not part of the gated benchmark. Run from the root of a checkout:
#
#   bench/perf/hook_cost.sh [seeds=5] [seconds=10]
set -euo pipefail

seeds=${1:-5}
seconds=${2:-10}
here="$(cd "$(dirname "$0")" && pwd)"
root="$(cd "$here/../.." && pwd)"
base="${CARGO_TARGET_DIR:-$root/.bench_build}/hooks"
jobs=$(nproc)

declare -A flags=(
  [on]=""
  [trace]="-DDFTH_TRACE=OFF"
  [prof]="-DDFTH_PROF=OFF"
  [replay]="-DDFTH_REPLAY=OFF"
)

# A family whose OFF build does not compile or link is reported and skipped.
builds=()
for b in on trace prof replay; do
  # shellcheck disable=SC2086  # flags[] holds zero or one word
  if cmake -S "$here" -B "$base/$b" -DCMAKE_BUILD_TYPE=Release ${flags[$b]} >/dev/null &&
     cmake --build "$base/$b" -j "$jobs" --target dfth_perf >"$base/$b.build.log" 2>&1; then
    builds+=("$b")
  else
    echo "hooks.$b: the ${flags[$b]:-default} build failed, see $base/$b.build.log" >&2
    if [ "$b" = on ]; then exit 1; fi
  fi
done

results="$base/results.jsonl"
: > "$results"
for ((s = 1; s <= seeds; ++s)); do
  for w in fork-join sync; do
    order=("${builds[@]}")
    if ((s % 2 == 0)); then
      order=()
      for ((i = ${#builds[@]} - 1; i >= 0; --i)); do order+=("${builds[i]}"); done
    fi
    for b in "${order[@]}"; do
      line=$(python3 "$here/run.py" --bin "$base/$b/dfth_perf" --workload "$w" \
               --seed "$s" --seconds "$seconds" --trace 0 --out-dir "$base/$b/results" \
               2>/dev/null | tail -n 1)
      printf '{"build": "%s", "workload": "%s", "run": %s}\n' "$b" "$w" "$line" >> "$results"
    done
  done
done

python3 - "$results" <<'EOF'
import json, statistics, sys
runs = [json.loads(l) for l in open(sys.argv[1])]
for r in runs:
    if not r["run"]["correct"]:
        sys.exit(f"hook_cost: incorrect run: {r}")
wall = {}
for r in runs:
    wall.setdefault((r["build"], r["workload"]), []).append(r["run"]["metrics"]["wall_ms"]["value"])
for fam in ("trace", "prof", "replay"):
    if (fam, "sync") not in wall:
        continue
    for w in ("fork-join", "sync"):
        on = statistics.median(wall[("on", w)])
        off = statistics.median(wall[(fam, w)])
        print(f"hooks.{fam}.cost_frac {w:9s} {on / off - 1:+.4f}  "
              f"(wall_ms on {on:.3f}, {fam} off {off:.3f}, {len(wall[(fam, w)])} runs each)")
EOF
