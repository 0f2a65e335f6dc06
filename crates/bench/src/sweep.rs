//! Deterministic parallel sweep engine for the figure/table binaries.
//!
//! Every evaluation figure is an embarrassingly-parallel sweep over
//! independent {workload × policy × interleave} points: each point builds
//! its own [`gd_dram::MemorySystem`] (or co-simulation) from a config and a
//! seed, so points share no mutable state and can fan out across a worker
//! pool. Determinism is preserved by construction:
//!
//! * each point's seed comes from [`gd_types::rng::sweep_point_seed`] — a
//!   pure function of the experiment seed and the point *index*, never of
//!   the thread that ran it;
//! * workers pull indices from a shared atomic counter but collect results
//!   locally and the harness sorts the merged result set by index, so the
//!   returned `Vec` (and therefore every printed table) is byte-identical
//!   for any `--jobs` value and any thread schedule.
//!
//! The pool itself is [`gd_fleet::pool::shard_map`] — built on
//! `std::thread::scope` (the workspace is dependency-free, so there is no
//! rayon/crossbeam to lean on), shared with the fleet's host sharding, and
//! `--jobs 1` short-circuits to a plain serial loop, reproducing the
//! pre-sweep execution path exactly. A panicking point no longer poisons
//! the merge mutex into an opaque `PoisonError`: the pool re-panics with
//! the failing point index and the original payload text.
//!
//! [`BenchArgs::sweep`] is the harness the figure binaries run on top of
//! the pool: it times every point into the `results/BENCH_<fig>.json`
//! sidecar and merges, in point order, the telemetry shards each point
//! hands its [`ShardSink`].

use crate::telemetry::write_shards;
use crate::BenchArgs;
use gd_obs::Telemetry;
use std::io::Write as _;
use std::path::PathBuf;
use std::time::Instant;

/// Context handed to the closure evaluating one sweep point.
#[derive(Debug, Clone, Copy)]
pub struct PointCtx {
    /// Zero-based index of this point in the sweep's point list.
    pub index: usize,
}

impl PointCtx {
    /// The point's derived seed under the given experiment seed (see
    /// [`gd_types::rng::sweep_point_seed`]).
    pub fn seed(&self, experiment_seed: u64) -> u64 {
        gd_types::rng::sweep_point_seed(experiment_seed, self.index)
    }
}

/// The machine's available parallelism (1 if it cannot be determined).
pub fn default_jobs() -> usize {
    std::thread::available_parallelism()
        .map(std::num::NonZeroUsize::get)
        .unwrap_or(1)
}

/// Runs `f` over every point, fanning across `jobs` workers, and returns
/// the results **in point order** regardless of scheduling.
///
/// Delegates to [`gd_fleet::pool::shard_map`] (the same pool that shards
/// fleet hosts), wrapping each index in a [`PointCtx`].
///
/// # Panics
///
/// If `f` panics on any point, the pool joins and re-panics with the
/// lowest failing point index plus the original panic payload text
/// (instead of the poisoned-mutex abort earlier versions produced).
pub fn sweep<T, R, F>(points: &[T], jobs: usize, f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(PointCtx, &T) -> R + Sync,
{
    gd_fleet::pool::shard_map(points, jobs, |index, point| f(PointCtx { index }, point))
}

/// One timed point of a [`BenchArgs::sweep`] run.
#[derive(Debug, Clone)]
pub struct PointTiming {
    /// Human-readable point label (row key of the figure).
    pub label: String,
    /// Wall-clock seconds this point took on its worker.
    pub seconds: f64,
}

/// Machine-readable timing record of one figure regeneration, written to
/// `results/BENCH_<fig>.json` so the performance trajectory is tracked
/// across PRs.
#[derive(Debug, Clone)]
pub struct SweepTiming {
    /// Figure binary name (e.g. `fig09_dram_energy`).
    pub fig: String,
    /// Worker-pool width the sweep ran with.
    pub jobs: usize,
    /// Total wall-clock seconds for the whole sweep.
    pub total_s: f64,
    /// Per-point wall-clock timings, in point order.
    pub points: Vec<PointTiming>,
}

impl SweepTiming {
    /// Serializes to JSON (hand-rolled; the workspace has no serde).
    pub fn to_json(&self) -> String {
        let mut out = String::from("{\n");
        out.push_str(&format!("  \"fig\": \"{}\",\n", escape(&self.fig)));
        out.push_str(&format!("  \"jobs\": {},\n", self.jobs));
        out.push_str(&format!("  \"total_s\": {:.6},\n", self.total_s));
        out.push_str("  \"points\": [\n");
        for (i, p) in self.points.iter().enumerate() {
            let comma = if i + 1 == self.points.len() { "" } else { "," };
            out.push_str(&format!(
                "    {{\"label\": \"{}\", \"seconds\": {:.6}}}{comma}\n",
                escape(&p.label),
                p.seconds
            ));
        }
        out.push_str("  ]\n}\n");
        out
    }

    /// Writes `results/BENCH_<fig>.json` under the workspace root (or under
    /// `$GD_BENCH_DIR` when set); prints a warning (but does not fail the
    /// figure) if the write is impossible.
    pub fn write(&self) {
        let path = results_dir().join(format!("BENCH_{}.json", self.fig));
        let payload = self.to_json();
        let write = std::fs::create_dir_all(path.parent().expect("results dir has a parent"))
            .and_then(|()| {
                std::fs::File::create(&path).and_then(|mut f| f.write_all(payload.as_bytes()))
            });
        match write {
            Ok(()) => println!("[timing -> {}]", path.display()),
            Err(e) => eprintln!("warning: could not write {}: {e}", path.display()),
        }
    }
}

fn escape(s: &str) -> String {
    s.chars()
        .flat_map(|c| match c {
            '"' => vec!['\\', '"'],
            '\\' => vec!['\\', '\\'],
            c if c.is_control() => vec![' '],
            c => vec![c],
        })
        .collect()
}

fn results_dir() -> PathBuf {
    // GD_BENCH_DIR redirects the timing sidecar (CI smoke runs use it so a
    // trimmed run never overwrites the committed full-run budget).
    if let Ok(d) = std::env::var("GD_BENCH_DIR") {
        if !d.is_empty() {
            return PathBuf::from(d);
        }
    }
    // crates/bench -> workspace root -> results/.
    std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .ancestors()
        .nth(2)
        .expect("crates/bench has a workspace root two levels up")
        .join("results")
}

/// The telemetry shards one sweep point hands to the harness. The harness
/// labels each shard with the point's label plus the shard's suffix and
/// merges every point's shards in point order after the sweep joins.
#[derive(Debug)]
pub struct ShardSink {
    enabled: bool,
    shards: Vec<(String, Telemetry)>,
}

impl ShardSink {
    /// True when the run writes telemetry (`--telemetry PATH`).
    #[must_use]
    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// Hands over `tele` under the point's label followed by `suffix`
    /// (`""` for the point's label itself); `None` is skipped.
    pub fn give(&mut self, suffix: &str, tele: Option<Telemetry>) {
        if let Some(tele) = tele {
            self.shards.push((suffix.to_string(), tele));
        }
    }

    /// Runs `f` with a fresh shard (`None` when telemetry is off) and hands
    /// the shard over under the point's label.
    pub fn fill<R>(&mut self, f: impl FnOnce(Option<&mut Telemetry>) -> R) -> R {
        let mut tele = self.enabled.then(Telemetry::new);
        let r = f(tele.as_mut());
        self.give("", tele);
        r
    }
}

impl BenchArgs {
    /// Runs `run` over every point across `--jobs` workers and returns the
    /// results in point order. Each point is timed under `label(point)`;
    /// the timings land in `results/BENCH_<fig>.json`, and the shards the
    /// points hand their [`ShardSink`] go to `--telemetry PATH`, merged in
    /// point order.
    pub fn sweep<T, R>(
        &self,
        points: &[T],
        label: impl Fn(&T) -> String,
        run: impl Fn(&T, &mut ShardSink) -> R + Sync,
    ) -> Vec<R>
    where
        T: Sync,
        R: Send,
    {
        let jobs = self.jobs.clamp(1, points.len().max(1));
        self.timed_sweep(points, label, jobs, jobs, run)
    }

    /// [`BenchArgs::sweep`] for a figure whose points parallelize inside
    /// (the fleet figure shards hosts across `--jobs` workers): the points
    /// run one after another, so the pool is never oversubscribed, and the
    /// sidecar records the inner pool's width.
    pub fn sweep_serially<T, R>(
        &self,
        points: &[T],
        label: impl Fn(&T) -> String,
        run: impl Fn(&T, &mut ShardSink) -> R + Sync,
    ) -> Vec<R>
    where
        T: Sync,
        R: Send,
    {
        self.timed_sweep(points, label, 1, self.jobs.max(1), run)
    }

    /// The one sweep entry point allowed to read the wall clock: the
    /// timing sidecar is *about* wall time and never feeds back into any
    /// simulated result.
    #[allow(clippy::disallowed_methods)] // wall-time measurement is the point
    fn timed_sweep<T, R>(
        &self,
        points: &[T],
        label: impl Fn(&T) -> String,
        pool_jobs: usize,
        recorded_jobs: usize,
        run: impl Fn(&T, &mut ShardSink) -> R + Sync,
    ) -> Vec<R>
    where
        T: Sync,
        R: Send,
    {
        let enabled = self.telemetry.is_some();
        let t0 = Instant::now(); // gd-lint: allow(sim-purity)
        let timed = sweep(points, pool_jobs, |_, p| {
            let p0 = Instant::now(); // gd-lint: allow(sim-purity)
            let mut sink = ShardSink {
                enabled,
                shards: Vec::new(),
            };
            let r = run(p, &mut sink);
            (r, sink, p0.elapsed().as_secs_f64())
        });
        let total_s = t0.elapsed().as_secs_f64();
        let mut timing = SweepTiming {
            fig: self.fig.to_string(),
            jobs: recorded_jobs,
            total_s,
            points: Vec::new(),
        };
        let mut shards = Vec::new();
        let mut results = Vec::new();
        for (p, (r, sink, seconds)) in points.iter().zip(timed) {
            let label = label(p);
            for (suffix, tele) in sink.shards {
                shards.push((format!("{label}{suffix}"), Some(tele)));
            }
            timing.points.push(PointTiming { label, seconds });
            results.push(r);
        }
        timing.write();
        if let Some(path) = &self.telemetry {
            write_shards(path, &shards);
        }
        results
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn serial_and_parallel_agree_in_order() {
        let points: Vec<u64> = (0..37).collect();
        let f = |ctx: PointCtx, p: &u64| (ctx.index as u64) * 1000 + p * 3 + ctx.seed(9) % 7;
        let serial = sweep(&points, 1, f);
        for jobs in [2, 3, 8] {
            assert_eq!(sweep(&points, jobs, f), serial, "jobs={jobs}");
        }
    }

    #[test]
    fn point_seeds_do_not_depend_on_jobs() {
        let points: Vec<u32> = (0..16).collect();
        let seeds1 = sweep(&points, 1, |ctx, _| ctx.seed(42));
        let seeds4 = sweep(&points, 4, |ctx, _| ctx.seed(42));
        assert_eq!(seeds1, seeds4);
        assert_eq!(seeds1[0], gd_types::rng::sweep_point_seed(42, 0));
    }

    #[test]
    fn empty_and_single_point_sweeps() {
        let empty: Vec<u8> = Vec::new();
        assert!(sweep(&empty, 4, |_, p| *p).is_empty());
        assert_eq!(sweep(&[5u8], 4, |_, p| *p * 2), vec![10]);
    }

    #[test]
    fn panicking_point_reports_index_and_payload() {
        // The old pool let a worker panic poison the merge mutex, so the
        // user saw "sweep result mutex poisoned" instead of the actual
        // failure. The shared shard pool re-panics with both the point
        // index and the original payload.
        let points: Vec<u32> = (0..8).collect();
        let caught = std::panic::catch_unwind(|| {
            sweep(&points, 4, |_, p| {
                if *p == 5 {
                    panic!("point 5 hit a wall");
                }
                *p
            })
        })
        .expect_err("panic must propagate");
        let text = caught.downcast_ref::<String>().cloned().unwrap_or_default();
        assert!(text.contains("item 5"), "{text}");
        assert!(text.contains("point 5 hit a wall"), "{text}");
    }

    #[test]
    fn sink_keeps_given_shards_in_order_and_skips_none() {
        let mut off = ShardSink {
            enabled: false,
            shards: Vec::new(),
        };
        assert!(off.fill(|t| t.is_none()));
        off.give("/x", None);
        assert!(!off.enabled() && off.shards.is_empty());
        let mut on = ShardSink {
            enabled: true,
            shards: Vec::new(),
        };
        on.fill(|t| t.expect("telemetry is on").registry.counter_add("c", 1));
        on.give("/b", Some(Telemetry::new()));
        on.give("/c", None);
        let suffixes: Vec<&str> = on.shards.iter().map(|(s, _)| s.as_str()).collect();
        assert_eq!(suffixes, ["", "/b"]);
        assert_eq!(on.shards[0].1.registry.counter("c"), 1);
    }

    #[test]
    fn json_payload_shape() {
        let t = SweepTiming {
            fig: "fig99_test".into(),
            jobs: 2,
            total_s: 1.5,
            points: vec![PointTiming {
                label: "a\"b".into(),
                seconds: 0.25,
            }],
        };
        let j = t.to_json();
        assert!(j.contains("\"fig\": \"fig99_test\""));
        assert!(j.contains("\"jobs\": 2"));
        assert!(j.contains("a\\\"b"));
        assert!(j.ends_with("}\n"));
    }
}
