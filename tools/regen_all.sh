#!/usr/bin/env bash
# Regenerates every committed results/*.txt snapshot, one figure at a time,
# and diffs each against the committed copy. The `[timing -> ...]` line is
# ignored: it names where the timing sidecar went, and the sidecars go to a
# temporary GD_BENCH_DIR so the committed results/BENCH_*.json stay as they
# are. Each figure runs with the arguments its provenance line records
# (`jobs`, `requests`, `engine`), so the regenerated header must match too.
#
# A committed sidecar whose points carry a "work" object of deterministic
# counters (fig14's daemon ticks, monitor bodies run, VM starts, ...;
# fig03/09/10/15's DRAM channel polls and cycles; fig08's hotplug events and
# failures) is compared too: the regenerated sidecar's label and work of every point
# must equal the committed ones; "seconds" is ignored.
#
# Then times the tier-1 tests, `cargo test -q`, on a warm build (the test
# binaries are built first and the build is not timed).
#
# Prints each figure's wall time, the serial total and the tier-1 time;
# exits 1 if any snapshot or work counter differs, any figure fails or a
# tier-1 test fails.
# The last line of standard output is the same timing as one JSON record,
# {"figures": {fig: seconds, ...}, "total_s": seconds, "tier1_s": seconds};
# results/BENCH_suite.json holds one such record.
#
# Usage: tools/regen_all.sh
#        tools/regen_all.sh | tail -1 > results/BENCH_suite.json
set -euo pipefail
cd "$(dirname "$0")/.."

cargo build --quiet --release -p gd-bench --bins
bin_dir="${CARGO_TARGET_DIR:-target}/release"

out=$(mktemp -d)
export GD_BENCH_DIR="$out/bench"

now() { date +%s.%N; }
field() { sed -n "s/.* $1=\([^ ]*\).*/\1/p" <<<"$2"; }

failed=0
total=0
record=""
for snap in results/*.txt; do
  prov=$(head -1 "$snap")
  case "$prov" in "# provenance: "*) ;; *) continue ;; esac
  fig=$(field fig "$prov")
  args=()
  jobs=$(field jobs "$prov")
  [ "$jobs" = auto ] || args+=(--jobs "$jobs")
  requests=$(field requests "$prov")
  [ "$requests" = default ] || args+=(--requests "$requests")
  [ "$(field engine "$prov")" = stepped ] && args+=(--engine stepped)

  start=$(now)
  status=0
  "$bin_dir/$fig" ${args[@]+"${args[@]}"} > "$out/$fig.txt" 2> "$out/$fig.err" || status=$?
  secs=$(awk -v a="$start" -v b="$(now)" 'BEGIN { printf "%.2f", b - a }')
  total=$(awk -v t="$total" -v s="$secs" 'BEGIN { printf "%.2f", t + s }')

  verdict=ok
  if [ "$status" -ne 0 ]; then
    verdict="FAILED (exit $status, see $out/$fig.err)"
    failed=1
  elif ! diff -u <(grep -v '^\[timing ->' "$snap") \
                 <(grep -v '^\[timing ->' "$out/$fig.txt") > "$out/$fig.diff"; then
    verdict="DIFFERS (see $out/$fig.diff)"
    failed=1
  fi
  printf '%-30s %8.2f s  %s\n' "$fig" "$secs" "$verdict"
  record+="${record:+, }\"$fig\": $secs"
done
printf '%-30s %8.2f s\n' "total (serial)" "$total"

# Every point's label and work counters, without its wall time.
work_points() { grep '"work"' "$1" | sed 's/"seconds": [0-9.]*, //'; }
for sidecar in results/BENCH_*.json; do
  grep -q '"work"' "$sidecar" || continue
  name=$(basename "$sidecar")
  verdict=ok
  if ! diff -u <(work_points "$sidecar") <(work_points "$GD_BENCH_DIR/$name") \
         > "$out/$name.work.diff" 2>&1; then
    verdict="DIFFERS (see $out/$name.work.diff)"
    failed=1
  fi
  printf '%-30s %10s  %s\n' "${name%.json} work" "" "$verdict"
done

cargo test -q --no-run
start=$(now)
tier1_failed=0
cargo test -q > "$out/tier1.txt" 2>&1 || tier1_failed=1
tier1=$(awk -v a="$start" -v b="$(now)" 'BEGIN { printf "%.2f", b - a }')
printf '%-30s %8.2f s  %s\n' "tier-1 (cargo test -q)" "$tier1" \
  "$([ "$tier1_failed" -eq 0 ] && echo ok || echo "FAILED (see $out/tier1.txt)")"
printf '{"figures": {%s}, "total_s": %s, "tier1_s": %s}\n' "$record" "$total" "$tier1"

if [ "$failed" -ne 0 ]; then
  echo "ERROR: regenerated snapshots or work counters differ from results/ — outputs kept in $out" >&2
  exit 1
fi
if [ "$tier1_failed" -ne 0 ]; then
  echo "ERROR: tier-1 tests failed — output kept in $out/tier1.txt" >&2
  exit 1
fi
rm -rf "$out"
