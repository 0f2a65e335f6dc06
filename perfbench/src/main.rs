//! `gd-benchmark`: the GreenDIMM simulator's end-to-end and per-layer
//! benchmark. See `README.md` for the workloads, metrics and usage.
//!
//! The process started from the command line is the parent. It runs every
//! repetition of a workload in a fresh child process (the same executable
//! with the internal `child` subcommand), because every figure run of the
//! simulator pays a cold start. The loop is closed with one client: the
//! next repetition starts when the previous one has exited.

// The repository's clippy.toml bans wall-clock reads so simulated results
// stay deterministic; measuring wall time is this crate's job.
#![allow(clippy::disallowed_methods)]

use gd_benchmark::calib::{self, Reference};
use gd_benchmark::json::{self, write_num, write_str};
use gd_benchmark::metrics::{self, PER_LAYER};
use gd_benchmark::stats::Summary;
use gd_benchmark::sys::CpuPin;
use gd_benchmark::workload::{self, Mode, RepOut, Workload};
use gd_benchmark::{compare, stats, trace};
use std::collections::BTreeSet;
use std::io::{BufRead, BufReader, Write};
use std::path::PathBuf;
use std::process::{Command, ExitCode, Stdio};
use std::time::Instant;

const USAGE: &str = "\
usage: gd-benchmark [--workload NAME|all]... [--seed N] [--seconds S] [--reps N]
                    [--trace 0|1] [--smoke]
       gd-benchmark compare BASE.jsonl CHANGE.jsonl

  --workload  fleet_ksm, fleet_gd, dram_dense, dram_idle or all (default all)
  --seed      input seed (default 42)
  --seconds   keep repeating until this much time has been measured
  --reps      minimum repetitions (default 3, or 2 with --seconds)
  --trace 1   per-layer metrics from traced repetitions (default 0)
  --smoke     tiny inputs, for tests";

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let result = match args.first().map(String::as_str) {
        Some("compare") => compare::main(&args[1..]),
        Some("child") => child(&args[1..]),
        Some("-h" | "--help") => {
            println!("{USAGE}");
            Ok(ExitCode::SUCCESS)
        }
        _ => Opts::parse(&args).and_then(|o| run(&o)),
    };
    result.unwrap_or_else(|e| {
        eprintln!("gd-benchmark: {e}");
        ExitCode::from(2)
    })
}

#[derive(Debug, PartialEq)]
struct Opts {
    workloads: Vec<Workload>,
    seed: u64,
    seconds: Option<f64>,
    reps: usize,
    trace: bool,
    smoke: bool,
}

impl Opts {
    fn parse(args: &[String]) -> Result<Opts, String> {
        let mut o = Opts {
            workloads: Vec::new(),
            seed: 42,
            seconds: None,
            reps: 0,
            trace: false,
            smoke: false,
        };
        let mut it = args.iter();
        while let Some(flag) = it.next() {
            if flag == "--smoke" {
                o.smoke = true;
                continue;
            }
            let value = it
                .next()
                .ok_or_else(|| format!("{flag} needs a value\n{USAGE}"))?;
            let bad = || format!("bad value {value:?} for {flag}");
            let bit = || match value.as_str() {
                "0" => Ok(false),
                "1" => Ok(true),
                _ => Err(bad()),
            };
            match flag.as_str() {
                "--workload" if value == "all" => o.workloads.extend(Workload::ALL),
                "--workload" => o.workloads.push(Workload::parse(value).ok_or_else(bad)?),
                "--seed" => o.seed = value.parse().map_err(|_| bad())?,
                "--seconds" => {
                    let s: f64 = value.parse().map_err(|_| bad())?;
                    if !(s > 0.0 && s.is_finite()) {
                        return Err(bad());
                    }
                    o.seconds = Some(s);
                }
                "--reps" => {
                    o.reps = value.parse().map_err(|_| bad())?;
                    if o.reps == 0 {
                        return Err(bad());
                    }
                }
                "--trace" => o.trace = bit()?,
                _ => return Err(format!("unknown argument {flag:?}\n{USAGE}")),
            }
        }
        if o.workloads.is_empty() {
            o.workloads.extend(Workload::ALL);
        }
        let mut seen = BTreeSet::new();
        o.workloads.retain(|w| seen.insert(w.name()));
        if o.reps == 0 {
            o.reps = if o.seconds.is_some() { 2 } else { 3 };
        }
        Ok(o)
    }
}

// ---------------------------------------------------------------- child

/// `child WORKLOAD SEED MODE SMOKE REP`: one repetition. Prints `READY`
/// once set up, then a `SPAN` line per span and a final `RESULT` line. A
/// plain repetition also prints `PAUSE` before its first operation and
/// after each segment of operations, and waits for a line on standard
/// input before going on.
fn child(args: &[String]) -> Result<ExitCode, String> {
    let [w, seed, mode, smoke, rep] = args else {
        return Err("child takes WORKLOAD SEED MODE SMOKE REP".into());
    };
    let wl = Workload::parse(w).ok_or("bad workload")?;
    let seed: u64 = seed.parse().map_err(|_| "bad seed")?;
    let mode = Mode::parse(mode).ok_or("bad mode")?;
    let rep: usize = rep.parse().map_err(|_| "bad rep")?;
    let input = wl.input(seed, smoke == "1");
    let mut stdout = std::io::stdout().lock();
    let io = |e: std::io::Error| e.to_string();
    writeln!(stdout, "READY").map_err(io)?;
    stdout.flush().map_err(io)?;
    let mut stdin = std::io::stdin().lock();
    let mut pause = || -> Result<(), String> {
        writeln!(stdout, "PAUSE").map_err(io)?;
        stdout.flush().map_err(io)?;
        let mut line = String::new();
        match stdin.read_line(&mut line).map_err(io)? {
            0 => Err("the parent closed standard input".into()),
            _ => Ok(()),
        }
    };
    let out = workload::run(&input, mode, &mut pause)?;
    for s in &out.spans {
        let self_ns = trace::self_time_ns(&out.spans, s.id);
        writeln!(stdout, "SPAN {}", s.to_json(wl.name(), rep, self_ns)).map_err(io)?;
    }
    writeln!(stdout, "RESULT {}", result_json(&out)).map_err(io)?;
    stdout.flush().map_err(io)?;
    Ok(ExitCode::SUCCESS)
}

fn result_json(out: &RepOut) -> String {
    let mut s = String::from("{");
    for (k, v) in [
        ("wall_s", out.wall_s),
        ("peak_rss_mib", out.peak_rss_mib),
        ("sim_s", out.sim_s),
    ] {
        s.push_str(&format!("\"{k}\":"));
        write_num(&mut s, v);
        s.push(',');
    }
    s.push_str(&format!(
        "\"digest\":\"{:016x}\",\"checks\":{},\"failures\":[",
        out.digest, out.checks
    ));
    for (i, f) in out.failures.iter().enumerate() {
        if i > 0 {
            s.push(',');
        }
        write_str(&mut s, f);
    }
    s.push_str("],\"segments\":[");
    for (i, t) in out.segments.iter().enumerate() {
        if i > 0 {
            s.push(',');
        }
        write_num(&mut s, *t);
    }
    s.push_str("],\"layers\":{");
    for (i, (k, v)) in out.layers.iter().enumerate() {
        if i > 0 {
            s.push(',');
        }
        write_str(&mut s, k);
        s.push(':');
        write_num(&mut s, *v);
    }
    s.push_str("}}");
    s
}

/// A child's `RESULT` line, read back by the parent, with what the parent
/// measured around the child.
#[derive(Debug, Default)]
struct Reported {
    /// Spawn to `READY`, in reference-machine seconds when the child
    /// paused (a timed repetition), else in seconds.
    setup_s: f64,
    wall_s: f64,
    /// The operations' total in reference-machine seconds; 0 unless the
    /// repetition timed operations.
    norm_wall_s: f64,
    /// Median reference reading around the operations.
    reference_s: f64,
    peak_rss_mib: f64,
    sim_s: f64,
    digest: String,
    checks: u64,
    failures: Vec<String>,
    layers: Vec<(String, f64)>,
}

impl Reported {
    /// `refs` are the reference readings the parent took at the child's
    /// pauses.
    fn parse(line: &str, setup_s: f64, refs: &[f64]) -> Result<Reported, String> {
        let v = json::parse(line)?;
        let num = |k: &str| {
            v.get(k)
                .and_then(json::Value::as_f64)
                .ok_or_else(|| format!("RESULT without a number {k}"))
        };
        let strings = |k: &str| -> Vec<String> {
            v.get(k)
                .and_then(json::Value::as_array)
                .unwrap_or_default()
                .iter()
                .filter_map(|x| x.as_str().map(String::from))
                .collect()
        };
        let segments: Vec<f64> = v
            .get("segments")
            .and_then(json::Value::as_array)
            .unwrap_or_default()
            .iter()
            .map(|x| x.as_f64().ok_or("RESULT with a non-numeric segment time"))
            .collect::<Result<_, _>>()?;
        let (norm_wall_s, reference_s) = if segments.is_empty() && refs.is_empty() {
            (0.0, 0.0)
        } else {
            (calib::normalised_s(&segments, refs)?, stats::median(refs))
        };
        Ok(Reported {
            // The first reading follows the set-up directly.
            setup_s: refs.first().map_or(setup_s, |r| calib::scale(setup_s, *r)),
            wall_s: num("wall_s")?,
            norm_wall_s,
            reference_s,
            peak_rss_mib: num("peak_rss_mib")?,
            sim_s: num("sim_s")?,
            digest: v
                .get("digest")
                .and_then(json::Value::as_str)
                .ok_or("RESULT without a digest")?
                .to_string(),
            checks: num("checks")? as u64,
            failures: strings("failures"),
            layers: v
                .get("layers")
                .and_then(json::Value::as_object)
                .unwrap_or_default()
                .iter()
                .map(|(k, x)| (k.clone(), x.as_f64().unwrap_or(f64::NAN)))
                .collect(),
        })
    }
}

// --------------------------------------------------------------- parent

/// Everything one workload's repetitions reported.
struct Tally {
    wl: Workload,
    ops_per_rep: u64,
    plain: Vec<Reported>,
    traced: Vec<Reported>,
    check: Option<Reported>,
    attempted: u64,
    failed: u64,
    violations: u64,
    spans: Vec<String>,
}

impl Tally {
    fn new(wl: Workload, o: &Opts) -> Tally {
        Tally {
            wl,
            ops_per_rep: wl.input(o.seed, o.smoke).ops(),
            plain: Vec::new(),
            traced: Vec::new(),
            check: None,
            attempted: 0,
            failed: 0,
            violations: 0,
            spans: Vec::new(),
        }
    }

    /// Runs one child in `mode` and files what it reported.
    fn rep(&mut self, o: &Opts, reference: &mut Reference, mode: Mode, rep: usize) {
        let ops = if mode == Mode::Check {
            0
        } else {
            self.ops_per_rep
        };
        self.attempted += ops;
        match spawn(self.wl, o, reference, mode, rep) {
            Ok((r, spans)) => {
                self.attempted += r.checks;
                self.failed += r.failures.len() as u64;
                self.violations += r.failures.len() as u64;
                for f in &r.failures {
                    eprintln!("[{}] check failed: {f}", self.wl.name());
                }
                match mode {
                    Mode::Check => eprintln!("[{}] check: {} checks", self.wl.name(), r.checks),
                    Mode::Plain => eprintln!(
                        "[{}] plain rep {rep}: wall {:.3} s, reference {:.3} ms, normalised {:.3} s, setup {:.3} ms",
                        self.wl.name(),
                        r.wall_s,
                        r.reference_s * 1e3,
                        r.norm_wall_s,
                        r.setup_s * 1e3
                    ),
                    Mode::Traced => eprintln!(
                        "[{}] traced rep {rep}: wall {:.3} s",
                        self.wl.name(),
                        r.wall_s
                    ),
                }
                self.spans.extend(spans);
                match mode {
                    Mode::Plain => self.plain.push(r),
                    Mode::Traced => self.traced.push(r),
                    Mode::Check => self.check = Some(r),
                }
            }
            Err(e) => {
                eprintln!("[{}] {} rep {rep} failed: {e}", self.wl.name(), mode.name());
                self.attempted += 1;
                self.failed += ops + 1;
            }
        }
    }

    /// The identity check: every repetition, traced or not, and the check
    /// pass simulated the same numbers.
    fn check_digests(&mut self) {
        let digests: BTreeSet<&str> = self
            .plain
            .iter()
            .chain(&self.traced)
            .chain(&self.check)
            .map(|r| r.digest.as_str())
            .collect();
        self.attempted += 1;
        if digests.len() > 1 {
            eprintln!(
                "[{}] sim_digest differs across runs: {digests:?}",
                self.wl.name()
            );
            self.failed += 1;
            self.violations += 1;
        }
    }

    fn digest(&self) -> &str {
        self.plain.first().map_or("", |r| r.digest.as_str())
    }

    /// `(name, summary)` of each metric this run reports.
    fn metrics(&self, traced: bool) -> Vec<(&'static str, Summary)> {
        let of = |f: &dyn Fn(&Reported) -> f64, reps: &[Reported]| {
            let v: Vec<f64> = reps.iter().map(f).collect();
            (!v.is_empty()).then(|| Summary::of(&v))
        };
        if !traced {
            let plain = &self.plain;
            return [
                ("norm_wall_s", of(&|r| r.norm_wall_s, plain)),
                ("sim_rate", of(&|r| r.sim_s / r.norm_wall_s, plain)),
                ("peak_rss_mib", of(&|r| r.peak_rss_mib, plain)),
                ("setup_s", of(&|r| r.setup_s, plain)),
            ]
            .into_iter()
            .filter_map(|(k, s)| s.map(|s| (k, s)))
            .collect();
        }
        let mut out = Vec::new();
        for m in PER_LAYER {
            let s = match m.name {
                "trace.overhead_s" => of(&|r| r.wall_s, &self.traced)
                    .zip(of(&|r| r.wall_s, &self.plain))
                    .map(|(t, p)| Summary::of(&[t.median - p.median])),
                "verify.violations" => Some(Summary::of(&[self.violations as f64])),
                name => of(
                    &|r| {
                        r.layers
                            .iter()
                            .find(|(k, _)| k == name)
                            .map_or(0.0, |(_, v)| *v)
                    },
                    &self.traced,
                ),
            };
            if let Some(s) = s {
                out.push((m.name, s));
            }
        }
        out
    }
}

/// Spawns one child and reads it to the end, taking a reference reading
/// at each of its pauses. Set-up time runs from the spawn to the child's
/// `READY` line.
fn spawn(
    wl: Workload,
    o: &Opts,
    reference: &mut Reference,
    mode: Mode,
    rep: usize,
) -> Result<(Reported, Vec<String>), String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    // The reference must run on the CPU the operations run on: on a shared
    // host, the speeds of two CPUs drift apart.
    let _pin = match mode {
        Mode::Plain => Some(CpuPin::here()?),
        Mode::Traced | Mode::Check => None,
    };
    let t0 = Instant::now();
    let mut child = Command::new(exe)
        .args([
            "child",
            wl.name(),
            &o.seed.to_string(),
            mode.name(),
            if o.smoke { "1" } else { "0" },
            &rep.to_string(),
        ])
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .spawn()
        .map_err(|e| format!("spawn: {e}"))?;
    let stdout = child.stdout.take().expect("stdout was piped");
    let mut stdin = child.stdin.take().expect("stdin was piped");
    let mut setup_s = None;
    let mut refs = Vec::new();
    let mut result = None;
    let mut spans = Vec::new();
    let mut failure = None;
    for line in BufReader::new(stdout).lines() {
        let l = match line {
            Ok(l) => l,
            Err(e) => {
                failure = Some(format!("reading the child: {e}"));
                break;
            }
        };
        if l == "READY" {
            setup_s = Some(t0.elapsed().as_secs_f64());
        } else if l == "PAUSE" {
            refs.push(reference.time());
            if let Err(e) = stdin.write_all(b"\n").and_then(|()| stdin.flush()) {
                failure = Some(format!("resuming the child: {e}"));
                break;
            }
        } else if let Some(span) = l.strip_prefix("SPAN ") {
            spans.push(span.to_string());
        } else if let Some(r) = l.strip_prefix("RESULT ") {
            result = Some(r.to_string());
        }
    }
    drop(stdin);
    if failure.is_some() {
        // It may be blocked on a pipe nobody serves any more.
        let _ = child.kill();
    }
    let status = child.wait().map_err(|e| format!("wait: {e}"))?;
    if let Some(e) = failure {
        return Err(e);
    }
    if !status.success() {
        return Err(format!("child exited with {status}"));
    }
    let setup_s = setup_s.ok_or("child never reported READY")?;
    let r = Reported::parse(&result.ok_or("child printed no RESULT")?, setup_s, &refs)?;
    Ok((r, spans))
}

fn run(o: &Opts) -> Result<ExitCode, String> {
    let mut tallies: Vec<Tally> = o.workloads.iter().map(|&w| Tally::new(w, o)).collect();
    let mut reference = Reference::default();
    let started = Instant::now();
    let mut round_s: Vec<f64> = Vec::new();
    for round in 0.. {
        if round >= o.reps {
            let Some(budget) = o.seconds else { break };
            let mean = round_s.iter().sum::<f64>() / round_s.len() as f64;
            if started.elapsed().as_secs_f64() + mean > budget {
                break;
            }
        }
        let t = Instant::now();
        // Rotate which workload goes first, so none always runs on a
        // machine the previous workload left warm.
        let k = tallies.len();
        for i in 0..k {
            let tally = &mut tallies[(i + round) % k];
            tally.rep(o, &mut reference, Mode::Plain, round);
            if o.trace {
                tally.rep(o, &mut reference, Mode::Traced, round);
            }
        }
        round_s.push(t.elapsed().as_secs_f64());
    }
    let measured_s = started.elapsed().as_secs_f64();
    for tally in &mut tallies {
        tally.rep(o, &mut reference, Mode::Check, 0);
        tally.check_digests();
    }
    if o.trace {
        write_trace(o.seed, &tallies)?;
    }
    eprintln!("measured {measured_s:.1} s over {} rounds", round_s.len());

    let single = tallies.len() == 1;
    let mut final_metrics = Vec::new();
    let (mut attempted, mut failed) = (0, 0);
    for t in &tallies {
        let metrics = t.metrics(o.trace);
        report(t, &metrics, o);
        attempted += t.attempted;
        failed += t.failed;
        for (name, s) in metrics {
            let unit = unit_of(name);
            let key = if single {
                name.to_string()
            } else {
                format!("{}.{name}", t.wl.name())
            };
            final_metrics.push((key, s.median, unit));
        }
    }
    let correct = failed == 0;
    let mut line = format!(
        "{{\"correct\":{correct},\"attempted\":{attempted},\"failed\":{failed},\"metrics\":{{"
    );
    for (i, (k, v, unit)) in final_metrics.iter().enumerate() {
        if i > 0 {
            line.push(',');
        }
        write_str(&mut line, k);
        line.push_str(":{\"value\":");
        write_num(&mut line, *v);
        line.push_str(",\"unit\":");
        write_str(&mut line, unit);
        line.push('}');
    }
    line.push_str("}}");
    println!("{line}");
    Ok(if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}

fn unit_of(name: &str) -> &'static str {
    metrics::end_to_end(name)
        .or_else(|| metrics::per_layer(name))
        .map_or("", |m| m.unit)
}

/// Prints a workload's record line (read by `compare`) to stdout and a
/// table to stderr.
fn report(t: &Tally, metrics: &[(&'static str, Summary)], o: &Opts) {
    // What the normalisation started from, as medians: the raw wall time
    // and the reference computation's time.
    let plain_median = |f: fn(&Reported) -> f64| {
        let v: Vec<f64> = t.plain.iter().map(f).collect();
        if v.is_empty() {
            0.0
        } else {
            stats::median(&v)
        }
    };
    let (raw_wall_s, reference_s) = (plain_median(|r| r.wall_s), plain_median(|r| r.reference_s));
    let mut line = String::from("{\"workload\":");
    write_str(&mut line, t.wl.name());
    line.push_str(&format!(
        ",\"seed\":{},\"trace\":{},\"smoke\":{},\"reps\":{},\"sim_digest\":\"{}\",\"attempted\":{},\"failed\":{},\"raw_wall_s\":",
        o.seed,
        u8::from(o.trace),
        o.smoke,
        t.plain.len(),
        t.digest(),
        t.attempted,
        t.failed
    ));
    write_num(&mut line, raw_wall_s);
    line.push_str(",\"reference_s\":");
    write_num(&mut line, reference_s);
    line.push_str(",\"metrics\":{");
    eprintln!(
        "\n{} (seed {}, {} reps, sim_digest {}, {} of {} operations failed; raw wall {:.3} s, reference {:.3} ms)",
        t.wl.name(),
        o.seed,
        t.plain.len(),
        t.digest(),
        t.failed,
        t.attempted,
        raw_wall_s,
        reference_s * 1e3
    );
    eprintln!(
        "  {:<26} {:>14} {:>14} {:>14}  {:<8}",
        "metric", "median", "q1", "q3", "unit"
    );
    for (i, (name, s)) in metrics.iter().enumerate() {
        if i > 0 {
            line.push(',');
        }
        write_str(&mut line, name);
        line.push_str(":{\"value\":");
        write_num(&mut line, s.median);
        line.push_str(",\"unit\":");
        write_str(&mut line, unit_of(name));
        for (k, v) in [("q1", s.q1), ("q3", s.q3)] {
            line.push_str(&format!(",\"{k}\":"));
            write_num(&mut line, v);
        }
        line.push_str(&format!(",\"n\":{}", s.n));
        if let Some((p, v)) = s.tail {
            line.push_str(",\"tail_pct\":");
            write_num(&mut line, p);
            line.push_str(",\"tail\":");
            write_num(&mut line, v);
        }
        line.push('}');
        eprintln!(
            "  {name:<26} {:>14.6} {:>14.6} {:>14.6}  {:<8}",
            s.median,
            s.q1,
            s.q3,
            unit_of(name)
        );
    }
    line.push_str("}}");
    println!("{line}");
}

/// Where traces go: `out/` beside this crate's manifest.
fn out_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("out")
}

fn write_trace(seed: u64, tallies: &[Tally]) -> Result<(), String> {
    let dir = out_dir();
    std::fs::create_dir_all(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    let path = dir.join(format!("trace-{seed}.jsonl"));
    let mut text = String::new();
    for t in tallies {
        for s in &t.spans {
            text.push_str(s);
            text.push('\n');
        }
    }
    std::fs::write(&path, text).map_err(|e| format!("{}: {e}", path.display()))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(s: &str) -> Vec<String> {
        s.split_whitespace().map(String::from).collect()
    }

    #[test]
    fn parses_the_benchmark_json_command_line() {
        let o = Opts::parse(&args("--workload fleet_gd --seed 7 --seconds 20 --trace 1")).unwrap();
        assert_eq!(o.workloads, vec![Workload::FleetGd]);
        assert_eq!(
            (o.seed, o.seconds, o.reps, o.trace),
            (7, Some(20.0), 2, true)
        );
        let o = Opts::parse(&[]).unwrap();
        assert_eq!(o.workloads, Workload::ALL.to_vec());
        assert_eq!(o.reps, 3);
    }

    #[test]
    fn rejects_bad_arguments() {
        for bad in [
            "--workload nope",
            "--trace yes",
            "--seed -1",
            "--seconds 0",
            "--reps 0",
            "--frobnicate 1",
            "--seed",
        ] {
            assert!(Opts::parse(&args(bad)).is_err(), "{bad}");
        }
    }

    #[test]
    fn result_lines_round_trip() {
        let mut out = RepOut {
            segments: vec![0.5, 0.75],
            wall_s: 1.25,
            digest: 0xabc,
            checks: 3,
            failures: vec!["a \"quoted\" failure".into()],
            ..RepOut::default()
        };
        out.layers.insert("dram.busy_s", 0.5);
        let line = result_json(&out);
        // Readings twice the nominal halve the segments' times.
        let slow = [2.0 * calib::REFERENCE_S; 3];
        let r = Reported::parse(&line, 0.01, &slow).unwrap();
        assert_eq!(r.wall_s, 1.25);
        assert!((r.norm_wall_s - 0.625).abs() < 1e-12);
        assert!((r.setup_s - 0.005).abs() < 1e-12);
        let untimed = result_json(&RepOut::default());
        assert_eq!(Reported::parse(&untimed, 0.01, &[]).unwrap().setup_s, 0.01);
        assert_eq!(r.reference_s, slow[0]);
        assert!(Reported::parse(&line, 0.01, &slow[..2]).is_err());
        assert_eq!(r.digest, "0000000000000abc");
        assert_eq!(r.checks, 3);
        assert_eq!(r.failures, out.failures);
        assert_eq!(r.layers, vec![("dram.busy_s".to_string(), 0.5)]);
    }

    #[test]
    fn unit_lookup_covers_every_metric() {
        for m in metrics::END_TO_END.iter().chain(PER_LAYER) {
            assert_eq!(unit_of(m.name), m.unit);
        }
    }
}
