#!/usr/bin/env bash
# Builds the benchmark, then runs the default pass (tracing off) and the
# traced pass over every workload. Each pass appends its stdout to a file
# under perfbench/out/, so repeated invocations collect the runs that
# `gd-benchmark compare` needs. Extra arguments (e.g. --seed 7) go to both
# passes.
#
#   perfbench/run.sh [ARGS...]
#   cargo run --release --manifest-path perfbench/Cargo.toml -- \
#       compare perfbench/out/base.jsonl perfbench/out/runs.jsonl
set -euo pipefail
cd "$(dirname "$0")/.."

bench=(cargo run --release --quiet --offline --manifest-path perfbench/Cargo.toml --)
cargo build --release --quiet --offline --manifest-path perfbench/Cargo.toml
mkdir -p perfbench/out
"${bench[@]}" "$@" >> perfbench/out/runs.jsonl
"${bench[@]}" --trace 1 "$@" >> perfbench/out/traced.jsonl
echo "appended to perfbench/out/runs.jsonl and perfbench/out/traced.jsonl" >&2
