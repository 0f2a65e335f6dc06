//! The benchmark against its own declaration: `BENCHMARK.json` and the
//! binary name the same workloads and metrics, and a smoke run of every
//! workload passes end to end.

use gd_benchmark::json::{self, Value};
use gd_benchmark::metrics::{Metric, END_TO_END, PER_LAYER};
use gd_benchmark::workload::Workload;
use std::collections::BTreeSet;
use std::process::Command;

fn benchmark_json() -> Value {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json beside the benchmark");
    json::parse(&text).expect("BENCHMARK.json parses")
}

fn list<'a>(v: &'a Value, key: &str) -> &'a [Value] {
    v.get(key).and_then(Value::as_array).unwrap_or_default()
}

fn field<'a>(v: &'a Value, key: &str) -> &'a str {
    v.get(key).and_then(Value::as_str).unwrap_or_default()
}

/// `(name, unit, better)` of each metric, in declaration order.
fn triples(ms: &[Metric]) -> Vec<(String, String, String)> {
    ms.iter()
        .map(|m| (m.name.into(), m.unit.into(), m.better.name().into()))
        .collect()
}

fn declared(v: &Value, key: &str) -> Vec<(String, String, String)> {
    list(v, key)
        .iter()
        .map(|m| {
            (
                field(m, "name").into(),
                field(m, "unit").into(),
                field(m, "better").into(),
            )
        })
        .collect()
}

#[test]
fn benchmark_json_declares_exactly_what_the_binary_knows() {
    let v = benchmark_json();
    assert_eq!(declared(&v, "end_to_end"), triples(END_TO_END));
    assert_eq!(declared(&v, "per_layer"), triples(PER_LAYER));
    let workloads: Vec<&str> = list(&v, "workloads")
        .iter()
        .map(|w| field(w, "name"))
        .collect();
    assert_eq!(workloads, Workload::ALL.map(Workload::name));
    // Work moved into set-up must show, so set-up gets the loosest bound.
    let bound = |name: &str| {
        list(&v, "end_to_end")
            .iter()
            .find(|m| field(m, "name") == name)
            .and_then(|m| m.get("bound"))
            .and_then(Value::as_f64)
            .expect("every end-to-end metric has a bound")
    };
    for m in END_TO_END {
        assert!(
            bound(m.name) > 0.0 && bound(m.name) <= bound("setup_s"),
            "{}",
            m.name
        );
    }
}

/// The final line of a smoke run over every workload.
fn smoke(trace: u8) -> Value {
    let seed = (900 + u32::from(trace)).to_string();
    let out = Command::new(env!("CARGO_BIN_EXE_gd-benchmark"))
        .args(["--smoke", "--reps", "1", "--seed", &seed, "--trace"])
        .arg(trace.to_string())
        .output()
        .expect("the benchmark runs");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(out.status.success(), "{stderr}");
    let stdout = String::from_utf8(out.stdout).expect("utf-8 output");
    json::parse(stdout.lines().last().expect("a result line")).expect("the result line parses")
}

#[test]
fn smoke_run_emits_every_declared_metric_and_nothing_else() {
    for (trace, declared) in [(0, END_TO_END), (1, PER_LAYER)] {
        let last = smoke(trace);
        assert_eq!(last.get("correct"), Some(&Value::Bool(true)));
        assert_eq!(last.get("failed").and_then(Value::as_f64), Some(0.0));
        assert!(last.get("attempted").and_then(Value::as_f64) > Some(0.0));
        let metrics = last
            .get("metrics")
            .and_then(Value::as_object)
            .unwrap_or_default();
        let emitted: BTreeSet<(String, String)> = metrics
            .iter()
            .map(|(k, m)| (k.clone(), field(m, "unit").to_string()))
            .collect();
        let expected: BTreeSet<(String, String)> = Workload::ALL
            .iter()
            .flat_map(|w| {
                declared
                    .iter()
                    .map(move |m| (format!("{}.{}", w.name(), m.name), m.unit.to_string()))
            })
            .collect();
        assert_eq!(emitted, expected, "trace {trace}");
        assert!(metrics.iter().all(|(_, m)| m
            .get("value")
            .and_then(Value::as_f64)
            .is_some_and(f64::is_finite)));
    }
}
