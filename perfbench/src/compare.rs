//! `compare BASE CHANGE`: is a change better, worse, or not told apart?
//!
//! Each file holds the stdout of several untraced runs, as `run.sh`
//! appends them. Every workload record contributes one sample per
//! end-to-end metric: that run's median. Pair `i` is the `i`-th sample of
//! each side. The rule:
//!
//! * improved: at least ten pairs, the change wins at least nine tenths of
//!   them (ties count for neither side), and the medians differ by more
//!   than the parent's quartile distance;
//! * unresolved: the runs spread wider than the metric's bound, unless
//!   every run of the change reads better than every run of the parent;
//! * regressed: the change's median is worse than the parent's by more
//!   than the bound (a share of the parent's median from `BENCHMARK.json`,
//!   with the absolute floor declared in `metrics.rs`);
//! * unchanged: otherwise.
//!
//! Operations failing more often is a regression of its own.

use crate::json::{self, Value};
use crate::metrics::{self, Better};
use crate::stats::{median, quartiles, Bound};
use std::collections::BTreeMap;
use std::process::ExitCode;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    Improved,
    Regressed,
    Unchanged,
    Unresolved,
}

impl Verdict {
    fn name(self) -> &'static str {
        match self {
            Verdict::Improved => "improved",
            Verdict::Regressed => "regressed",
            Verdict::Unchanged => "unchanged",
            Verdict::Unresolved => "unresolved",
        }
    }
}

/// Pairs needed before a gain may be claimed.
const MIN_PAIRS: usize = 10;

/// Judges one workload × metric. `base[i]` and `change[i]` form pair `i`.
pub fn verdict(base: &[f64], change: &[f64], better: Better, bound: Bound) -> Verdict {
    let (mb, mc) = (median(base), median(change));
    let iqr = |v: &[f64]| {
        let (q1, q3) = quartiles(v);
        q3 - q1
    };
    let pairs = base.len().min(change.len());
    let wins = (0..pairs)
        .filter(|&i| better.prefers(change[i], base[i]))
        .count();
    if pairs >= MIN_PAIRS
        && wins * 10 >= pairs * 9
        && better.prefers(mc, mb)
        && (mc - mb).abs() > iqr(base)
    {
        return Verdict::Improved;
    }
    let allowance = bound.allowance(mb);
    if iqr(base).max(iqr(change)) > allowance {
        let every = change
            .iter()
            .all(|c| base.iter().all(|b| better.prefers(*c, *b)));
        return if every {
            Verdict::Unchanged
        } else {
            Verdict::Unresolved
        };
    }
    let worse_by = match better {
        Better::Lower => mc - mb,
        Better::Higher => mb - mc,
    };
    if worse_by > allowance {
        Verdict::Regressed
    } else {
        Verdict::Unchanged
    }
}

/// Per workload: each metric's per-run medians, and operation counts.
#[derive(Debug, Default)]
struct Side {
    samples: BTreeMap<String, Vec<f64>>,
    attempted: u64,
    failed: u64,
}

fn load(path: &str) -> Result<BTreeMap<String, Side>, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    let mut sides: BTreeMap<String, Side> = BTreeMap::new();
    for line in text.lines().filter(|l| l.starts_with("{\"workload\"")) {
        let v = json::parse(line).map_err(|e| format!("{path}: {e}"))?;
        if v.get("trace").and_then(Value::as_f64) != Some(0.0) {
            continue;
        }
        let wl = v
            .get("workload")
            .and_then(Value::as_str)
            .unwrap_or_default();
        let side = sides.entry(wl.to_string()).or_default();
        side.attempted += v.get("attempted").and_then(Value::as_f64).unwrap_or(0.0) as u64;
        side.failed += v.get("failed").and_then(Value::as_f64).unwrap_or(0.0) as u64;
        for (name, m) in v
            .get("metrics")
            .and_then(Value::as_object)
            .unwrap_or_default()
        {
            if let Some(x) = m.get("value").and_then(Value::as_f64) {
                side.samples.entry(name.clone()).or_default().push(x);
            }
        }
    }
    if sides.is_empty() {
        return Err(format!("{path}: no untraced workload records"));
    }
    Ok(sides)
}

/// A value in at most 12 columns.
fn short(v: f64) -> String {
    if v == 0.0 || (0.01..1e5).contains(&v.abs()) {
        format!("{v:.6}")
    } else {
        format!("{v:.4e}")
    }
}

/// The share bounds `BENCHMARK.json` sets, by metric name.
pub fn declared_bounds(benchmark_json: &str) -> Result<BTreeMap<String, f64>, String> {
    let v = json::parse(benchmark_json)?;
    let mut bounds = BTreeMap::new();
    for m in v
        .get("end_to_end")
        .and_then(Value::as_array)
        .ok_or("BENCHMARK.json has no end_to_end list")?
    {
        let name = m
            .get("name")
            .and_then(Value::as_str)
            .ok_or("metric without a name")?;
        let bound = m
            .get("bound")
            .and_then(Value::as_f64)
            .ok_or("metric without a bound")?;
        bounds.insert(name.to_string(), bound);
    }
    Ok(bounds)
}

fn benchmark_json_path() -> std::path::PathBuf {
    std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json")
}

pub fn main(args: &[String]) -> Result<ExitCode, String> {
    let [base, change] = args else {
        return Err("usage: gd-benchmark compare BASE.jsonl CHANGE.jsonl".into());
    };
    let path = benchmark_json_path();
    let shares = declared_bounds(
        &std::fs::read_to_string(&path).map_err(|e| format!("{}: {e}", path.display()))?,
    )?;
    let (base, change) = (load(base)?, load(change)?);
    let mut regressed = false;
    println!(
        "{:<11} {:<13} {:>12} {:>12} {:>12} {:>12} {:>6}  verdict",
        "workload", "metric", "base", "base iqr", "change", "change iqr", "wins"
    );
    for (wl, b) in &base {
        let Some(c) = change.get(wl) else {
            println!("{wl:<11} (missing from CHANGE)");
            continue;
        };
        for m in metrics::END_TO_END {
            let (Some(bv), Some(cv)) = (b.samples.get(m.name), c.samples.get(m.name)) else {
                continue;
            };
            let bound = Bound {
                share: shares.get(m.name).copied().unwrap_or(0.0),
                floor: m.floor,
            };
            let v = verdict(bv, cv, m.better, bound);
            regressed |= v == Verdict::Regressed;
            let pairs = bv.len().min(cv.len());
            let wins = (0..pairs)
                .filter(|&i| m.better.prefers(cv[i], bv[i]))
                .count();
            let iqr = |v: &[f64]| {
                let (q1, q3) = quartiles(v);
                q3 - q1
            };
            println!(
                "{wl:<11} {:<13} {:>12} {:>12} {:>12} {:>12} {:>6}  {}",
                m.name,
                short(median(bv)),
                short(iqr(bv)),
                short(median(cv)),
                short(iqr(cv)),
                format!("{wins}/{pairs}"),
                v.name()
            );
        }
        let rate = |s: &Side| s.failed as f64 / s.attempted.max(1) as f64;
        let fails_more = rate(c) > rate(b);
        regressed |= fails_more;
        println!(
            "{wl:<11} {:<13} {:>12} {:>12} {:>12} {:>12} {:>6}  {}",
            "fail_rate",
            format!("{}/{}", b.failed, b.attempted),
            "",
            format!("{}/{}", c.failed, c.attempted),
            "",
            "",
            if fails_more { "regressed" } else { "unchanged" }
        );
    }
    Ok(if regressed {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    const WALL: Bound = Bound {
        share: 0.10,
        floor: 0.0,
    };

    fn around(center: f64, jitter: f64) -> Vec<f64> {
        (0..10)
            .map(|i| center + jitter * (f64::from(i) - 4.5) / 4.5)
            .collect()
    }

    #[test]
    fn clear_gain_is_improved() {
        let base = around(10.0, 0.2);
        let change = around(8.0, 0.2);
        assert_eq!(
            verdict(&base, &change, Better::Lower, WALL),
            Verdict::Improved
        );
        // The same numbers read as a throughput are a regression.
        assert_eq!(
            verdict(&base, &change, Better::Higher, WALL),
            Verdict::Regressed
        );
    }

    #[test]
    fn gain_needs_ten_pairs() {
        let base = around(10.0, 0.2)[..9].to_vec();
        let change = around(9.5, 0.2)[..9].to_vec();
        assert_eq!(
            verdict(&base, &change, Better::Lower, WALL),
            Verdict::Unchanged
        );
    }

    #[test]
    fn small_shift_inside_the_bound_is_unchanged() {
        let base = around(10.0, 0.2);
        let change: Vec<f64> = base.iter().rev().map(|v| v * 1.05).collect();
        assert_eq!(
            verdict(&base, &change, Better::Lower, WALL),
            Verdict::Unchanged
        );
    }

    #[test]
    fn shift_beyond_the_bound_is_regressed() {
        let base = around(10.0, 0.2);
        let change = around(11.5, 0.2);
        assert_eq!(
            verdict(&base, &change, Better::Lower, WALL),
            Verdict::Regressed
        );
    }

    #[test]
    fn spread_wider_than_the_bound_is_unresolved() {
        let base = around(10.0, 4.0);
        let change = around(10.5, 4.0);
        assert_eq!(
            verdict(&base, &change, Better::Lower, WALL),
            Verdict::Unresolved
        );
        // ...unless every change run beats every parent run.
        let base = around(10.0, 4.0);
        let change = around(3.0, 2.0);
        let v = verdict(&base, &change[..9], Better::Lower, WALL);
        assert_eq!(v, Verdict::Unchanged);
    }

    #[test]
    fn absolute_floor_absorbs_small_regressions() {
        let rss = Bound {
            share: 0.10,
            floor: 4.0,
        };
        let base = around(20.0, 0.1);
        let change = around(23.0, 0.1);
        assert_eq!(
            verdict(&base, &change, Better::Lower, rss),
            Verdict::Unchanged
        );
        let change = around(25.0, 0.1);
        assert_eq!(
            verdict(&base, &change, Better::Lower, rss),
            Verdict::Regressed
        );
    }

    #[test]
    fn reads_bounds_from_benchmark_json() {
        let b = declared_bounds(
            r#"{"end_to_end": [{"name": "wall_s", "unit": "s", "better": "lower", "bound": 0.1}]}"#,
        )
        .unwrap();
        assert_eq!(b["wall_s"], 0.1);
    }
}
