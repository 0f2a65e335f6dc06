#!/usr/bin/env bash
# Full verification gate for the GreenDIMM reproduction workspace.
# Every step must pass; the first failure aborts with a nonzero exit.
set -euo pipefail
cd "$(dirname "$0")/.."

echo "==> cargo fmt --check"
cargo fmt --check

echo "==> cargo clippy --workspace --all-targets -- -D warnings"
cargo clippy --workspace --all-targets --quiet -- -D warnings

echo "==> cargo build --release"
cargo build --release --quiet

echo "==> cargo test --workspace"
cargo test --quiet --workspace

echo "==> detlint (determinism pre-gate, line scan)"
cargo run --quiet -p gd-verify --bin detlint

echo "==> gd-lint (AST-level workspace analysis: unit-safety, panic-path, float-order, sim-purity)"
cargo run --quiet -p gd-lint

echo "==> gd-lint JSON smoke (bad fixture must fail with the expected rule id)"
if cargo run --quiet -p gd-lint -- --json \
    crates/lint/tests/fixtures/sim_purity/bad_wallclock.rs > /tmp/gd_lint.ci.json 2>&1; then
  echo "ERROR: gd-lint exited 0 on a known-bad fixture" >&2
  exit 1
fi
grep -q '"rule":"sim-purity"' /tmp/gd_lint.ci.json || {
  echo "ERROR: gd-lint --json did not report the expected sim-purity finding" >&2
  cat /tmp/gd_lint.ci.json >&2
  exit 1
}
rm -f /tmp/gd_lint.ci.json

echo "==> engine equivalence (stepped vs event-driven, serial vs parallel sweep)"
cargo test --quiet --release --test engine_equivalence

echo "==> telemetry determinism (byte-identical across engines and job counts)"
cargo test --quiet --release --test engine_equivalence telemetry

echo "==> snapshot staleness (fig05 regenerated at HEAD must match the committed snapshot)"
cargo run --quiet --release -p gd-bench --bin fig05_addrmap > /tmp/fig05_addrmap.ci.txt
diff -u results/fig05_addrmap.txt /tmp/fig05_addrmap.ci.txt || {
  echo "ERROR: results/fig05_addrmap.txt is stale — regenerate results/*.txt and commit" >&2
  exit 1
}
rm -f /tmp/fig05_addrmap.ci.txt

# Smoke runs below redirect the timing sidecar (GD_BENCH_DIR) so trimmed
# configs never overwrite the committed full-run budgets in results/.
export GD_BENCH_DIR=/tmp/gd_bench.ci
rm -rf "$GD_BENCH_DIR"

echo "==> sweep smoke (fig03, --jobs 2, trimmed request count)"
cargo run --quiet --release -p gd-bench --bin fig03_interleaving -- --jobs 2 --requests 6000 \
  > /dev/null

echo "==> telemetry smoke (fig03 JSONL dump is non-empty and parseable shape)"
cargo run --quiet --release -p gd-bench --bin fig03_interleaving -- --jobs 2 --requests 6000 \
  --telemetry /tmp/fig03_telemetry.ci.jsonl > /dev/null
test -s /tmp/fig03_telemetry.ci.jsonl || {
  echo "ERROR: --telemetry produced an empty file" >&2
  exit 1
}
head -1 /tmp/fig03_telemetry.ci.jsonl | grep -q '^{"type":' || {
  echo "ERROR: telemetry JSONL has unexpected shape" >&2
  exit 1
}
rm -f /tmp/fig03_telemetry.ci.jsonl

echo "==> fault smoke (fig_faults single rate, trimmed seed count)"
cargo run --quiet --release -p gd-bench --bin fig_faults -- --fault-rate 0.1 --requests 1 \
  > /dev/null

echo "==> fault equivalence (byte-identical across --jobs 1 vs 4 and stepped vs event engines)"
cargo run --quiet --release -p gd-bench --bin fig_faults -- --jobs 1 --requests 1 \
  > /tmp/fig_faults.j1.ci.txt
cargo run --quiet --release -p gd-bench --bin fig_faults -- --jobs 4 --requests 1 \
  > /tmp/fig_faults.j4.ci.txt
# The provenance header records the pinned jobs value; everything below it
# must be byte-identical.
diff -u <(tail -n +2 /tmp/fig_faults.j1.ci.txt) <(tail -n +2 /tmp/fig_faults.j4.ci.txt) || {
  echo "ERROR: fig_faults output differs between --jobs 1 and --jobs 4" >&2
  exit 1
}
cargo run --quiet --release -p gd-bench --bin fig_faults -- --engine stepped --requests 1 \
  > /tmp/fig_faults.st.ci.txt
cargo run --quiet --release -p gd-bench --bin fig_faults -- --engine event --requests 1 \
  > /tmp/fig_faults.ev.ci.txt
# The provenance header records the engine name; the rows must match.
diff -u <(tail -n +2 /tmp/fig_faults.st.ci.txt) <(tail -n +2 /tmp/fig_faults.ev.ci.txt) || {
  echo "ERROR: fig_faults output differs between stepped and event-driven engines" >&2
  exit 1
}
rm -f /tmp/fig_faults.{j1,j4,st,ev}.ci.txt

echo "==> fleet smoke (fig14, 12 hosts, --jobs 2 vs --jobs 1, telemetry byte-identity)"
cargo run --quiet --release -p gd-bench --bin fig14_fleet_energy -- \
  --hosts 12 --requests 8 --jobs 1 --strict-validate \
  --telemetry /tmp/fig14.j1.ci.jsonl > /tmp/fig14.j1.ci.txt
cargo run --quiet --release -p gd-bench --bin fig14_fleet_energy -- \
  --hosts 12 --requests 8 --jobs 2 --strict-validate \
  --telemetry /tmp/fig14.j2.ci.jsonl > /tmp/fig14.j2.ci.txt
# The provenance header records the pinned jobs value and the telemetry
# announcement echoes the per-run dump path; everything else must be
# byte-identical, and so must the merged per-host telemetry shards.
diff -u <(grep -v -e '^# provenance:' -e '^\[telemetry ->' /tmp/fig14.j1.ci.txt) \
        <(grep -v -e '^# provenance:' -e '^\[telemetry ->' /tmp/fig14.j2.ci.txt) || {
  echo "ERROR: fig14 output differs between --jobs 1 and --jobs 2" >&2
  exit 1
}
cmp /tmp/fig14.j1.ci.jsonl /tmp/fig14.j2.ci.jsonl || {
  echo "ERROR: fig14 telemetry differs between --jobs 1 and --jobs 2" >&2
  exit 1
}
rm -f /tmp/fig14.{j1,j2}.ci.txt /tmp/fig14.{j1,j2}.ci.jsonl

echo "==> benchmark tests (perfbench: statistics, compare verdicts, BENCHMARK.json agreement, --smoke run)"
cargo test --quiet --manifest-path perfbench/Cargo.toml

echo "==> benchmark smoke (every workload once; sim_digest identity across reps, traced pass and check pass)"
# Exits nonzero when any check fails, including a digest that differs
# between the timed repetitions and the check pass.
cargo run --quiet --release --offline --manifest-path perfbench/Cargo.toml -- \
  --smoke --reps 1 > /dev/null 2>&1 || {
  echo "ERROR: gd-benchmark --smoke reported a failed check" >&2
  exit 1
}

echo "==> memspec smoke (fig09 on the DDR5 backend, trimmed request count)"
cargo run --quiet --release -p gd-bench --bin fig09_dram_energy -- \
  --memspec ddr5 --jobs 2 --requests 6000 > /dev/null

echo "==> memspec DDR4 identity (default fig02 regenerated at HEAD must match the committed snapshot)"
# fig02 is analytic (no --requests trim), so a default run is cheap and the
# whole snapshot must be reproducible; only the sidecar announcement line
# differs because GD_BENCH_DIR is redirected here.
cargo run --quiet --release -p gd-bench --bin fig02_idle_busy_power > /tmp/fig02.ci.txt
diff -u <(grep -v '^\[timing ->' results/fig02_idle_busy_power.txt) \
        <(grep -v '^\[timing ->' /tmp/fig02.ci.txt) || {
  echo "ERROR: default-backend fig02 no longer matches the committed DDR4 snapshot" >&2
  exit 1
}
rm -f /tmp/fig02.ci.txt

echo "==> bad engine/stride values exit 2 (no silent fallback to a default)"
for args in "fig09_dram_energy --engine epoch-replay" "fig09_dram_energy --engine bogus" \
            "fig14_fleet_energy --stride 0" "fig14_fleet_energy --stride x"; do
  set -- $args
  bin=$1
  shift
  status=0
  cargo run --quiet --release -p gd-bench --bin "$bin" -- "$@" --requests 8 \
    > /dev/null 2>&1 || status=$?
  [ "$status" -eq 2 ] || {
    echo "ERROR: $args exited $status, expected 2" >&2
    exit 1
  }
done

echo "==> fig15 smoke (cross-generation sweep, --jobs 2 vs --jobs 1 and stepped vs event)"
cargo run --quiet --release -p gd-bench --bin fig15_cross_generation -- \
  --jobs 1 --requests 6000 > /tmp/fig15.j1.ci.txt
cargo run --quiet --release -p gd-bench --bin fig15_cross_generation -- \
  --jobs 2 --requests 6000 > /tmp/fig15.j2.ci.txt
# The provenance header records the pinned jobs value; everything below it
# must be byte-identical.
diff -u <(tail -n +2 /tmp/fig15.j1.ci.txt) <(tail -n +2 /tmp/fig15.j2.ci.txt) || {
  echo "ERROR: fig15 output differs between --jobs 1 and --jobs 2" >&2
  exit 1
}
cargo run --quiet --release -p gd-bench --bin fig15_cross_generation -- \
  --engine stepped --requests 6000 > /tmp/fig15.st.ci.txt
cargo run --quiet --release -p gd-bench --bin fig15_cross_generation -- \
  --engine event --requests 6000 > /tmp/fig15.ev.ci.txt
# The provenance header records the engine name; the rows must match.
diff -u <(tail -n +2 /tmp/fig15.st.ci.txt) <(tail -n +2 /tmp/fig15.ev.ci.txt) || {
  echo "ERROR: fig15 output differs between stepped and event-driven engines" >&2
  exit 1
}
rm -f /tmp/fig15.{j1,j2,st,ev}.ci.txt

echo "==> perf budget (fig03 + fig09 full serial regeneration vs committed sidecars; soft gate)"
# Re-runs the exact pinned config of the committed results/BENCH_*.json
# (serial, default request count) with the sidecar redirected, then compares
# wall clocks. A regression past 2x the committed budget WARNS but does not
# fail: wall time is machine-dependent, and the committed values are the
# performance trajectory, not a hard SLA.
for fig in fig03_interleaving fig09_dram_energy; do
  cargo run --quiet --release -p gd-bench --bin "$fig" -- --jobs 1 > /dev/null
  budget=$(grep -o '"total_s": [0-9.]*' "results/BENCH_$fig.json" | awk '{print $2}')
  actual=$(grep -o '"total_s": [0-9.]*' "$GD_BENCH_DIR/BENCH_$fig.json" | awk '{print $2}')
  awk -v a="$actual" -v b="$budget" -v f="$fig" 'BEGIN {
    if (b <= 0) { printf "WARNING: committed %s budget sidecar is missing or zero\n", f; exit }
    if (a > 2 * b) {
      printf "WARNING: %s serial regeneration took %.2fs, over 2x the committed budget of %.2fs\n", f, a, b
    } else {
      printf "%s serial regeneration: %.2fs (committed budget %.2fs, soft limit 2x)\n", f, a, b
    }
  }'
done
rm -rf "$GD_BENCH_DIR"
unset GD_BENCH_DIR

echo "==> all checks passed"
