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

echo "==> examples smoke (every example runs to completion; cargo test only compiles them)"
for example in examples/*.rs; do
  name=$(basename "$example" .rs)
  cargo run --quiet --release --example "$name" > /dev/null || {
    echo "ERROR: example $name exited nonzero" >&2
    exit 1
  }
done

echo "==> gd-lint (AST-level workspace analysis: unit-safety, panic-path, float-order, sim-purity, silent-clamp, map-order)"
cargo run --quiet -p gd-lint

echo "==> gd-lint JSON smoke (bad fixtures must fail with the expected rule ids)"
for case in sim_purity/bad_wallclock.rs:sim-purity silent_clamp/bad_unit_clamp.rs:silent-clamp; do
  fixture=${case%%:*}
  rule=${case##*:}
  if cargo run --quiet -p gd-lint -- --json \
      "crates/lint/tests/fixtures/$fixture" > /tmp/gd_lint.ci.json 2>&1; then
    echo "ERROR: gd-lint exited 0 on the known-bad fixture $fixture" >&2
    exit 1
  fi
  grep -q "\"rule\":\"$rule\"" /tmp/gd_lint.ci.json || {
    echo "ERROR: gd-lint --json did not report the expected $rule finding on $fixture" >&2
    cat /tmp/gd_lint.ci.json >&2
    exit 1
  }
done
rm -f /tmp/gd_lint.ci.json

echo "==> engine equivalence (stepped vs event-driven, serial vs parallel sweep)"
cargo test --quiet --release --test engine_equivalence

echo "==> flat-store differential, wide seeds (gd-mmsim's flat max-order stores, extents and full-block skip in placement and migration vs the B-tree layout and full scan)"
cargo test --quiet --release -p gd-mmsim --lib -- --ignored \
  flat_max_order_stores_match_the_btree_reference_wide_seeds

echo "==> hotplug-words differential, wide seeds (greendimm's on-line, fully-off-line and register words vs the per-block and per-group scans)"
cargo test --quiet --release -p greendimm --lib -- --ignored \
  hotplug_words_match_the_scans_wide_seeds

echo "==> sorted-books differential, wide seeds (gd-mmsim's sorted-vector small-chunk books and max-order extents vs the B-tree layout)"
cargo test --quiet --release -p gd-mmsim --lib -- --ignored \
  sorted_books_match_the_btree_reference_wide_seeds

echo "==> scheduler differential, wide seeds (gd-fleet's departure calendar vs the per-host running lists)"
cargo test --quiet --release -p gd-fleet --lib -- --ignored \
  calendar_scheduler_matches_the_reference_wide_seeds

echo "==> arbitration differential, wide seeds (gd-dram's split column gates vs the undivided reference scan)"
cargo test --quiet --release -p gd-dram --lib -- --ignored \
  fast_scan_matches_the_reference_wide_seeds

echo "==> telemetry determinism (byte-identical across engines and job counts)"
cargo test --quiet --release --test engine_equivalence telemetry

echo "==> snapshot gate (every results/*.txt regenerated at HEAD must match the committed snapshot)"
# Runs each figure with the arguments its provenance line records, with the
# timing sidecars redirected to a temporary directory; only the sidecar
# announcement line may differ. Prints per-figure and total wall time.
tools/regen_all.sh

# Smoke runs below redirect the timing sidecar (GD_BENCH_DIR) so trimmed
# configs never overwrite the committed full-run budgets in results/.
export GD_BENCH_DIR=/tmp/gd_bench.ci
rm -rf "$GD_BENCH_DIR"

echo "==> strict-validate snapshot gate (fig03, fig09, fig10, fig11, fig15, fig_faults under --strict-validate)"
# Every protocol, governor-sanity and co-simulation invariant must hold on
# the full committed runs, and checking them must not move a number: only
# the [strict-validate: ...] banner and the timing line may differ from
# the committed snapshot. fig03 and fig15 replay the controller's command
# logs on the committed DDR4, DDR5 and LPDDR4-PASR runs.
for fig in fig03_interleaving fig09_dram_energy fig10_system_energy fig11_perf_overhead \
           fig15_cross_generation fig_faults; do
  cargo run --quiet --release -p gd-bench --bin "$fig" -- --strict-validate \
    > "/tmp/$fig.strict.ci.txt" || {
    echo "ERROR: $fig --strict-validate exited nonzero" >&2
    exit 1
  }
  diff -u <(grep -v '^\[timing ->' "results/$fig.txt") \
          <(grep -v -e '^\[timing ->' -e '^\[strict-validate: ' "/tmp/$fig.strict.ci.txt") || {
    echo "ERROR: $fig --strict-validate output differs from results/$fig.txt" >&2
    exit 1
  }
  rm -f "/tmp/$fig.strict.ci.txt"
done

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
  --hosts 12 --requests 12 --jobs 1 --strict-validate \
  --telemetry /tmp/fig14.j1.ci.jsonl > /tmp/fig14.j1.ci.txt
cargo run --quiet --release -p gd-bench --bin fig14_fleet_energy -- \
  --hosts 12 --requests 12 --jobs 2 --strict-validate \
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

echo "==> bad flags and values exit 2 (no silent fallback to a default, no ignored flag)"
# `--requests 12` is appended to every case, so `fig03_interleaving --telemetry`
# is a flag whose value is missing; 12 is in range for every figure here, so
# each case fails on its own flag.
for args in "fig09_dram_energy --engine epoch-replay" "fig09_dram_energy --engine bogus" \
            "fig14_fleet_energy --stride 0" "fig14_fleet_energy --stride x" \
            "fig14_fleet_energy --hosts abc" "fig14_fleet_energy --hosts 0" \
            "fig14_fleet_energy --hosts 50000" "fig14_fleet_energy --memspec ddr5" \
            "fig03_interleaving --memspec lpddr4-pasr" \
            "fig01_vm_utilization --memspec ddr5" "fig12_vm_offlined_blocks --engine stepped" \
            "fig03_interleaving --telemetry" "fig09_dram_energy --jobs 2 --jobs 3" \
            "fig_faults --fault-rate 2" "fig_faults --fault-rate abc"; do
  set -- $args
  bin=$1
  shift
  status=0
  cargo run --quiet --release -p gd-bench --bin "$bin" -- "$@" --requests 12 \
    > /dev/null 2>&1 || status=$?
  [ "$status" -eq 2 ] || {
    echo "ERROR: $args exited $status, expected 2" >&2
    exit 1
  }
done
# No `--requests 12` is appended here: seed counts above a figure's cap would
# trip the repeated-flag check instead, and a figure that has no request
# count must fail on the one bad flag given, not on an appended one.
for args in "fig08_offlining_failures --requests 65" "fig_faults --requests 17" \
            "fig01_vm_utilization --requests 11" "fig01_vm_utilization --requests 289" \
            "fig12_vm_offlined_blocks --requests 11" "fig12_vm_offlined_blocks --requests 289" \
            "fig13_capacity_scaling --requests 11" "fig13_capacity_scaling --requests 289" \
            "fig14_fleet_energy --requests 11" "fig14_fleet_energy --requests 289" \
            "fig05_addrmap --bogus" "fig05_addrmap --jobs 0" "fig05_addrmap --jobs x" \
            "ablation_adaptive_thr --engine stepped" "ablation_ksm_scan --engine stepped" \
            "ablation_offthr --engine stepped" \
            "ablation_adaptive_thr --requests 8" "ablation_ksm_scan --requests 8" \
            "ablation_neighbor --requests 8" "ablation_offthr --requests 8" \
            "fig02_idle_busy_power --requests 8" "fig05_addrmap --requests 8" \
            "fig06_blocksize_capacity --requests 8" "fig07_blocksize_overhead --requests 8" \
            "fig11_perf_overhead --requests 8" "tab01_power_vs_util --requests 8" \
            "tab02_online_offline_counts --requests 8" \
            "fig11_perf_overhead --engine stepped" "fig13_capacity_scaling --engine stepped" \
            "ablation_neighbor --engine stepped"; do
  set -- $args
  bin=$1
  shift
  status=0
  cargo run --quiet --release -p gd-bench --bin "$bin" -- "$@" > /dev/null 2>&1 || status=$?
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
