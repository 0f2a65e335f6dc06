//! The four workloads and what one repetition of each does.
//!
//! A repetition runs in a child process (see `main.rs`) in one of three
//! modes: `Plain` times each operation of the input with tracing off,
//! `Traced` runs the same work with spans around each layer call and
//! derives the per-layer metrics, and `Check` runs the correctness pass.
//! Every mode returns a digest of the simulated results, so a speed-only
//! change that moves any simulated number shows up as a digest mismatch.

use crate::stats;
use crate::trace::{self, Span, Tracer};
use gd_bench::energy::{evaluate_app_opts, evaluate_app_tele, EnergyRow, MeasureOpts};
use gd_dram::{EngineMode, LowPowerPolicy, MemorySystem, RunStats};
use gd_fleet::{
    run_fleet, run_host, schedule_fleet, shard_map, HostRun, HostSimConfig, HostSummary,
};
use gd_types::config::{DramConfig, InterleaveMode, MemSpecKind};
use gd_types::fleet::{FleetConfig, FleetPlacement, FleetStats};
use gd_types::rng::sweep_point_seed;
use gd_workloads::{by_name, AppProfile, TraceGenerator};
use std::collections::BTreeMap;
use std::time::Instant;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    FleetKsm,
    FleetGd,
    DramDense,
    DramIdle,
}

impl Workload {
    pub const ALL: [Workload; 4] = [
        Workload::FleetKsm,
        Workload::FleetGd,
        Workload::DramDense,
        Workload::DramIdle,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::FleetKsm => "fleet_ksm",
            Workload::FleetGd => "fleet_gd",
            Workload::DramDense => "dram_dense",
            Workload::DramIdle => "dram_idle",
        }
    }

    pub fn parse(s: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == s)
    }

    /// The inputs one repetition runs. `smoke` shrinks them to seconds of
    /// work for tests.
    pub fn input(self, seed: u64, smoke: bool) -> Input {
        let fleet = |hosts: usize, hours: u64, placement: FleetPlacement, ksm: bool, jobs| {
            Input::Fleet(FleetInput {
                cfg: FleetConfig {
                    hosts: if smoke { 2 } else { hosts },
                    duration_s: if smoke { 2 } else { hours } * 3_600,
                    max_util: 0.80,
                    placement,
                    ksm,
                    greendimm: true,
                    seed,
                    ..FleetConfig::paper_1k()
                },
                jobs,
            })
        };
        // Each app runs `parts` times, on seeds drawn from `seed`.
        let dram = |kind: MemSpecKind, apps: &[&str], parts: usize, requests: usize| {
            let mut runs: Vec<DramRun> = apps
                .iter()
                .flat_map(|a| {
                    let app = by_name(a).expect("built-in profile");
                    (0..parts).map(move |k| DramRun {
                        app: app.clone(),
                        seed: sweep_point_seed(seed, k),
                    })
                })
                .collect();
            if smoke {
                runs.truncate(2);
            }
            Input::Dram(DramInput {
                cfg: DramConfig::preset_64gb(kind),
                runs,
                requests: if smoke { 2_000 } else { requests },
            })
        };
        // How much a fleet costs to simulate depends on the VMs its seed
        // sends. Many hosts over six hours average that out better, for the
        // same host time, than fewer hosts over a longer day.
        match self {
            Workload::FleetKsm => fleet(32, 6, FleetPlacement::KsmAware, true, 1),
            Workload::FleetGd => fleet(96, 6, FleetPlacement::BestFit, false, 2),
            Workload::DramDense => dram(
                MemSpecKind::Ddr4,
                &[
                    "mcf",
                    "403.gcc",
                    "soplex",
                    "462.libquantum",
                    "470.lbm",
                    "519.lbm",
                    "ml_linear",
                    "502.gcc",
                ],
                1,
                25_000,
            ),
            Workload::DramIdle => dram(MemSpecKind::Ddr5, &["povray", "500.perlbench"], 4, 750),
        }
    }
}

pub enum Input {
    Fleet(FleetInput),
    Dram(DramInput),
}

pub struct FleetInput {
    pub cfg: FleetConfig,
    /// Shard-pool workers of the traced pool pass and the check pass; the
    /// timed repetitions run the hosts one after another.
    pub jobs: usize,
}

pub struct DramInput {
    pub cfg: DramConfig,
    pub runs: Vec<DramRun>,
    pub requests: usize,
}

/// One app's evaluation on one seed.
pub struct DramRun {
    pub app: AppProfile,
    pub seed: u64,
}

impl Input {
    /// Operations one timed repetition attempts: a host co-simulation or
    /// an app × interleave-mode DRAM run.
    pub fn ops(&self) -> u64 {
        match self {
            Input::Fleet(f) => f.cfg.hosts as u64,
            Input::Dram(d) => 2 * d.runs.len() as u64,
        }
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Mode {
    Plain,
    Traced,
    Check,
}

impl Mode {
    pub fn name(self) -> &'static str {
        match self {
            Mode::Plain => "plain",
            Mode::Traced => "traced",
            Mode::Check => "check",
        }
    }

    pub fn parse(s: &str) -> Option<Mode> {
        [Mode::Plain, Mode::Traced, Mode::Check]
            .into_iter()
            .find(|m| m.name() == s)
    }
}

/// Called before the first timed operation and after each segment; the
/// parent takes a reference reading while the child waits in it.
pub type Pause<'a> = &'a mut dyn FnMut() -> Result<(), String>;

/// Operation time after which a segment ends and the child pauses. The
/// machine's speed changes within a second, so segments are short; a
/// reading takes a few milliseconds, so they add little to a repetition.
const SEGMENT_S: f64 = 0.1;

/// Times operations run one after another, in segments with a pause
/// before the first and after each.
struct OpClock<'a> {
    pause: Pause<'a>,
    segments: Vec<f64>,
    open_s: f64,
}

impl<'a> OpClock<'a> {
    fn new(pause: Pause<'a>) -> Result<OpClock<'a>, String> {
        pause()?;
        Ok(OpClock {
            pause,
            segments: Vec::new(),
            open_s: 0.0,
        })
    }

    fn op<R>(&mut self, f: impl FnOnce() -> R) -> Result<R, String> {
        let t0 = Instant::now();
        let r = f();
        self.open_s += t0.elapsed().as_secs_f64();
        if self.open_s >= SEGMENT_S {
            self.end_segment()?;
        }
        Ok(r)
    }

    fn end_segment(&mut self) -> Result<(), String> {
        self.segments.push(std::mem::take(&mut self.open_s));
        (self.pause)()
    }

    /// The segment times, once the last segment has ended.
    fn finish(mut self) -> Result<Vec<f64>, String> {
        if self.open_s > 0.0 {
            self.end_segment()?;
        }
        Ok(self.segments)
    }
}

/// What one repetition reports back to the parent.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct RepOut {
    /// Operation time of each segment, in input order (`Plain` only).
    pub segments: Vec<f64>,
    /// Wall time of the operations (`Plain`) or of the traced primary
    /// path (`Traced`); 0 for `Check`.
    pub wall_s: f64,
    pub peak_rss_mib: f64,
    /// Simulated seconds the timed work covered.
    pub sim_s: f64,
    pub digest: u64,
    /// Correctness checks run, and a line for each that failed.
    pub checks: u64,
    pub failures: Vec<String>,
    /// Per-layer metrics (`Traced` only).
    pub layers: BTreeMap<&'static str, f64>,
    pub spans: Vec<Span>,
}

impl RepOut {
    fn timed(clock: OpClock) -> Result<RepOut, String> {
        let segments = clock.finish()?;
        Ok(RepOut {
            wall_s: segments.iter().sum(),
            segments,
            ..RepOut::default()
        })
    }

    fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.checks += 1;
        if !ok {
            self.failures.push(what());
        }
    }
}

/// Runs one repetition of `input` in `mode`. Only `Plain` pauses.
pub fn run(input: &Input, mode: Mode, pause: Pause) -> Result<RepOut, String> {
    let mut out = match (input, mode) {
        (Input::Fleet(f), Mode::Plain) => fleet_plain(f, OpClock::new(pause)?)?,
        (Input::Dram(d), Mode::Plain) => dram_plain(d, OpClock::new(pause)?)?,
        (Input::Fleet(f), Mode::Traced) => fleet_traced(f)?,
        (Input::Dram(d), Mode::Traced) => dram_traced(d)?,
        (Input::Fleet(f), Mode::Check) => fleet_check(f)?,
        (Input::Dram(d), Mode::Check) => dram_check(d)?,
    };
    out.peak_rss_mib = crate::sys::peak_rss_mib()?;
    Ok(out)
}

fn err(e: impl std::fmt::Display) -> String {
    e.to_string()
}

/// FNV-1a over the bits of the simulated results.
struct Digest(u64);

impl Digest {
    fn new() -> Digest {
        Digest(0xcbf2_9ce4_8422_2325)
    }

    fn bytes(&mut self, b: &[u8]) {
        for &x in b {
            self.0 ^= u64::from(x);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    fn u64(&mut self, v: u64) {
        self.bytes(&v.to_le_bytes());
    }

    fn f64(&mut self, v: f64) {
        self.u64(v.to_bits());
    }
}

fn fleet_digest(hosts: &[HostSummary], stats: &FleetStats) -> u64 {
    let mut d = Digest::new();
    for h in hosts {
        d.u64(h.host as u64);
        d.u64(u64::from(h.exact));
        d.f64(h.mean_used_fraction);
        d.f64(h.mean_deep_pd_fraction);
        d.u64(h.hotplug_events);
        d.u64(h.ksm_released_pages);
        d.u64(h.replayed_ticks);
    }
    for v in [
        stats.arrivals,
        stats.placed,
        stats.retired,
        stats.abandoned,
        stats.running_at_end,
        stats.queued_at_end,
        stats.peak_running,
        stats.peak_hosts_used as u64,
    ] {
        d.u64(v);
    }
    d.0
}

fn rows_digest(rows: &[EnergyRow]) -> u64 {
    let mut d = Digest::new();
    for r in rows {
        d.bytes(r.app.as_bytes());
        d.bytes(r.policy.as_bytes());
        d.u64(u64::from(r.interleaved));
        for v in [
            r.runtime_s,
            r.dram_j,
            r.system_j,
            r.dram_norm,
            r.system_norm,
        ] {
            d.f64(v);
        }
    }
    d.0
}

// ---------------------------------------------------------------- fleet

/// The host configuration `run_fleet` gives host `host` under the exact
/// event-driven engine.
fn host_cfg(cfg: &FleetConfig, host: usize) -> HostSimConfig {
    HostSimConfig {
        capacity_gb: cfg.host_capacity_gb,
        block_gb: cfg.block_gb,
        ksm: cfg.ksm,
        greendimm: cfg.greendimm,
        duration_s: cfg.duration_s,
        schedule_period_s: cfg.schedule_period_s,
        seed: sweep_point_seed(cfg.seed, host),
        ..HostSimConfig::paper_256gb()
    }
}

/// The roll-up `run_fleet` makes of an exactly simulated host.
fn summary(host: usize, run: &HostRun) -> HostSummary {
    HostSummary {
        host,
        exact: true,
        mean_used_fraction: run.mean_used_fraction(),
        mean_deep_pd_fraction: run.mean_deep_pd_fraction(),
        hotplug_events: run.daemon.hotplug_events(),
        ksm_released_pages: run.ksm_released_pages,
        replayed_ticks: run.daemon.replayed_ticks,
    }
}

fn fleet_sim_s(cfg: &FleetConfig) -> f64 {
    cfg.hosts as f64 * cfg.duration_s as f64
}

/// What `run_fleet` does under the exact event-driven engine with one
/// worker, one timed operation at a time: the schedule, then each host.
fn fleet_plain(f: &FleetInput, mut clock: OpClock) -> Result<RepOut, String> {
    let cfg = &f.cfg;
    let schedule = clock.op(|| schedule_fleet(cfg, None))?.map_err(err)?;
    let mut hosts = Vec::with_capacity(cfg.hosts);
    for (host, events) in schedule.host_events.iter().enumerate() {
        let (run, _) = clock
            .op(|| run_host(&host_cfg(cfg, host), events, false))?
            .map_err(err)?;
        hosts.push(summary(host, &run));
    }
    Ok(RepOut {
        sim_s: fleet_sim_s(cfg),
        digest: fleet_digest(&hosts, &schedule.stats),
        ..RepOut::timed(clock)?
    })
}

/// Hosts rerun with telemetry on for the mm and KSM books.
const TELEMETRY_HOSTS: usize = 8;

fn fleet_traced(f: &FleetInput) -> Result<RepOut, String> {
    let cfg = &f.cfg;
    let tr = Tracer::default();

    // The primary path: what the plain repetition runs, one layer call at
    // a time.
    let root = tr.open("fleet", None);
    let root_id = root.id();
    let sched = tr.open("scheduler", Some(root_id));
    let schedule = schedule_fleet(cfg, None).map_err(err)?;
    let vm_events: usize = schedule.host_events.iter().map(Vec::len).sum();
    tr.close(
        sched,
        &[
            ("vm_events", vm_events as f64),
            ("placed", schedule.stats.placed as f64),
        ],
    );
    let mut runs = Vec::with_capacity(cfg.hosts);
    for (host, events) in schedule.host_events.iter().enumerate() {
        let span = tr.open("host", Some(root_id));
        let (run, _) = run_host(&host_cfg(cfg, host), events, false).map_err(err)?;
        tr.close(
            span,
            &[("host", host as f64), ("ticks", run.daemon.ticks as f64)],
        );
        runs.push(run);
    }
    let hosts: Vec<HostSummary> = runs
        .iter()
        .enumerate()
        .map(|(h, r)| summary(h, r))
        .collect();
    let primary_s = tr.close(root, &[]);

    let mut out = RepOut {
        wall_s: primary_s,
        sim_s: fleet_sim_s(cfg),
        digest: fleet_digest(&hosts, &schedule.stats),
        ..RepOut::default()
    };

    // The shard pool: the same hosts again on `jobs` workers.
    let mut pool_s = 0.0;
    if f.jobs > 1 {
        let pool = tr.open("pool", None);
        let pool_id = pool.id();
        let pooled = shard_map(&schedule.host_events, f.jobs, |host, events| {
            tr.span("host.pool", Some(pool_id), |_| {
                run_host(&host_cfg(cfg, host), events, false).map(|(run, _)| summary(host, &run))
            })
        });
        pool_s = tr.close(pool, &[("jobs", f.jobs as f64)]);
        let pooled: Vec<HostSummary> = pooled.into_iter().collect::<Result<_, _>>().map_err(err)?;
        out.check(pooled == hosts, || {
            format!("the {}-worker pool changed a host's result", f.jobs)
        });
    }

    // KSM's cost: the same hosts' events again with KSM off.
    let mut ksm_off_s = 0.0;
    if cfg.ksm {
        let off = tr.open("ksm_off", None);
        let off_id = off.id();
        for (host, events) in schedule.host_events.iter().enumerate() {
            let span = tr.open("host.ksm_off", Some(off_id));
            let hc = HostSimConfig {
                ksm: false,
                ..host_cfg(cfg, host)
            };
            run_host(&hc, events, false).map_err(err)?;
            ksm_off_s += tr.close(span, &[("host", host as f64)]);
        }
        tr.close(off, &[]);
    }

    // The mm and KSM books, from a telemetry pass over the first hosts.
    // Telemetry must not move a simulated number.
    let mut books: BTreeMap<&str, f64> = BTreeMap::new();
    tr.span("telemetry", None, |id| -> Result<(), String> {
        for (host, events) in schedule
            .host_events
            .iter()
            .enumerate()
            .take(TELEMETRY_HOSTS)
        {
            let (run, tele) = tr
                .span("host.telemetry", Some(id), |_| {
                    run_host(&host_cfg(cfg, host), events, true)
                })
                .map_err(err)?;
            out.check(summary(host, &run) == hosts[host], || {
                format!("host {host}: telemetry changed the simulated result")
            });
            let reg = tele.ok_or("telemetry requested but not returned")?.registry;
            for key in [
                "mm.offline_success",
                "mm.offline_ebusy",
                "mm.offline_eagain",
                "mm.online_count",
                "mm.migrated_pages",
                "mm.rollbacks",
                "ksm.pages_scanned",
                "ksm.pages_sharing",
                "ksm.full_passes",
                "ksm.cow_breaks",
            ] {
                *books.entry(key).or_default() += reg.counter(&format!("vm.{key}")) as f64;
            }
        }
        Ok(())
    })?;

    let spans = tr.into_spans();
    let host_ms: Vec<f64> = trace::named(&spans, "host")
        .map(|s| s.secs() * 1e3)
        .collect();
    let host_busy = trace::total_secs(&spans, "host");
    let ticks: u64 = runs.iter().map(|r| r.daemon.ticks).sum();
    // Per worker, when its last host ended: the pool's tail is the time
    // from the first worker going idle to the last.
    let mut last_end: BTreeMap<u64, u64> = BTreeMap::new();
    for s in trace::named(&spans, "host.pool") {
        let e = last_end.entry(s.thread).or_default();
        *e = (*e).max(s.end_ns);
    }
    let tail_ns = last_end.values().max().unwrap_or(&0) - last_end.values().min().unwrap_or(&0);
    let workers = f.jobs.clamp(1, cfg.hosts.max(1));
    let ksm_cost = if cfg.ksm { host_busy - ksm_off_s } else { 0.0 };
    let per_tick_us = |s: f64| {
        if ticks == 0 {
            0.0
        } else {
            s * 1e6 / ticks as f64
        }
    };
    let daemon = |get: fn(&HostRun) -> u64| runs.iter().map(get).sum::<u64>() as f64;
    let failures = daemon(|r| r.daemon.failures());
    let attempts = failures + daemon(|r| r.daemon.offline_events);

    let l = &mut out.layers;
    l.insert("scheduler.busy_s", trace::total_secs(&spans, "scheduler"));
    l.insert("scheduler.placement_rate", schedule.stats.placement_rate());
    l.insert("scheduler.vm_events", vm_events as f64);
    l.insert("host.busy_s", host_busy);
    l.insert("host.p50_ms", stats::percentile(&host_ms, 50.0));
    l.insert("host.p95_ms", stats::percentile(&host_ms, 95.0));
    l.insert("host.max_ms", stats::percentile(&host_ms, 100.0));
    l.insert("host.us_per_tick", per_tick_us(host_busy));
    l.insert(
        "pool.efficiency",
        ratio(
            trace::total_secs(&spans, "host.pool"),
            workers as f64 * pool_s,
        ),
    );
    l.insert("pool.tail_s", tail_ns as f64 / 1e9);
    l.insert("daemon.ticks", ticks as f64);
    l.insert(
        "daemon.hotplug_events",
        daemon(|r| r.daemon.hotplug_events()),
    );
    l.insert(
        "daemon.allocation_stalls",
        daemon(|r| r.daemon.allocation_stalls),
    );
    l.insert("daemon.failures", failures);
    l.insert("daemon.failure_ratio", ratio(failures, attempts));
    for (key, v) in &books {
        l.insert(key, *v);
    }
    l.insert("ksm.cost_s", ksm_cost);
    l.insert("ksm.share", ratio(ksm_cost, host_busy));
    l.insert("ksm.us_per_tick", per_tick_us(ksm_cost));
    l.insert(
        "ksm.merge_yield",
        ratio(books["ksm.pages_sharing"], books["ksm.pages_scanned"]),
    );
    l.insert(
        "ksm.frames_released",
        runs.iter().map(|r| r.ksm_released_pages).sum::<u64>() as f64,
    );
    out.spans = spans;
    Ok(out)
}

fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// The schedule under strict verification, and `run_fleet` itself on
/// `jobs` workers. Its digest must equal the timed repetitions', which
/// run the hosts one after another.
fn fleet_check(f: &FleetInput) -> Result<RepOut, String> {
    let cfg = &f.cfg;
    let mut out = RepOut::default();
    let plain = schedule_fleet(cfg, None).map_err(err)?;
    let strict = schedule_fleet(cfg, Some(gd_verify::Mode::Strict));
    out.check(strict.is_ok(), || {
        format!(
            "strict schedule failed: {}",
            strict.as_ref().err().map(err).unwrap_or_default()
        )
    });
    if let Ok(strict) = &strict {
        out.check(
            strict.host_events == plain.host_events && strict.stats == plain.stats,
            || "verification changed the schedule".into(),
        );
    }
    let fleet = run_fleet(cfg, EngineMode::EventDriven, f.jobs, None, false).map_err(err)?;
    out.digest = fleet_digest(&fleet.hosts, &fleet.stats);
    out.check(fleet.stats.conserved(), || {
        format!("VM conservation broken: {:?}", fleet.stats)
    });
    out.check(
        fleet.hosts.iter().all(|h| {
            (0.0..=1.0).contains(&h.mean_deep_pd_fraction)
                && (0.0..=1.0).contains(&h.mean_used_fraction)
        }),
        || "a deep power-down or used fraction left [0, 1]".into(),
    );
    Ok(out)
}

// ----------------------------------------------------------------- dram

const MODES: [InterleaveMode; 2] = [InterleaveMode::Interleaved, InterleaveMode::Linear];

fn scope(mode: InterleaveMode) -> &'static str {
    if mode.is_interleaved() {
        "interleaved"
    } else {
        "linear"
    }
}

/// One run through `evaluate_app_tele`, returning its rows and the DRAM
/// books both interleave modes exported.
fn evaluate(d: &DramInput, run: &DramRun) -> Result<(Vec<EnergyRow>, gd_obs::Telemetry), String> {
    let mut tele = gd_obs::Telemetry::new();
    let rows = evaluate_app_tele(
        &run.app,
        d.cfg,
        d.requests,
        run.seed,
        MeasureOpts::default(),
        Some(&mut tele),
    )
    .map_err(err)?;
    Ok((rows, tele))
}

fn cycles(tele: &gd_obs::Telemetry) -> u64 {
    MODES
        .iter()
        .map(|m| tele.registry.counter(&format!("{}.dram.cycles", scope(*m))))
        .sum()
}

fn dram_plain(d: &DramInput, mut clock: OpClock) -> Result<RepOut, String> {
    let mut rows = Vec::new();
    let mut simulated = 0;
    for run in &d.runs {
        let (r, tele) = clock.op(|| evaluate(d, run))??;
        rows.extend(r);
        simulated += cycles(&tele);
    }
    Ok(RepOut {
        sim_s: simulated as f64 / clock_hz(&d.cfg),
        digest: rows_digest(&rows),
        ..RepOut::timed(clock)?
    })
}

fn clock_hz(cfg: &DramConfig) -> f64 {
    cfg.timing.clock_mhz * 1e6
}

/// The `RunStats` counters that telemetry also exports, summed over
/// channels.
fn exported(tele: &gd_obs::Telemetry, cfg: &DramConfig, mode: InterleaveMode) -> [u64; 8] {
    let s = scope(mode);
    let sum = |field: &str| -> u64 {
        (0..cfg.org.channels)
            .map(|c| tele.registry.counter(&format!("{s}.dram.ch{c}.{field}")))
            .sum()
    };
    [
        tele.registry.counter(&format!("{s}.dram.cycles")),
        sum("reads"),
        sum("writes"),
        sum("activates"),
        sum("refreshes"),
        sum("row_hits"),
        sum("pd_entries"),
        sum("sr_entries"),
    ]
}

fn counters(s: &RunStats) -> [u64; 8] {
    [
        s.cycles,
        s.reads,
        s.writes,
        s.activates,
        s.refreshes,
        s.row_hits,
        s.pd_entries,
        s.sr_entries,
    ]
}

fn dram_traced(d: &DramInput) -> Result<RepOut, String> {
    let tr = Tracer::default();
    let cap = d.cfg.total_capacity_bytes();
    let mut out = RepOut::default();
    let mut rows = Vec::new();
    let mut primary_s = 0.0;
    let mut simulated = 0;
    let mut totals = [0u64; 8];
    for run in &d.runs {
        let app_span = tr.open("app", None);
        let app_id = app_span.id();
        // The primary path, as the plain repetition runs it.
        let energy = tr.open("energy", Some(app_id));
        let (r, tele) = evaluate(d, run)?;
        primary_s += tr.close(energy, &[]);
        rows.extend(r);
        simulated += cycles(&tele);
        // The same two runs split into synthesis and the DRAM model, built
        // as `measure_app` builds them.
        for mode in MODES {
            let synth = tr.open("workloads.synth", Some(app_id));
            let trace: Vec<_> = TraceGenerator::new(run.app.clone(), run.seed)
                .take(d.requests)
                .into_iter()
                .map(|mut r| {
                    r.addr %= cap;
                    r
                })
                .collect();
            tr.close(synth, &[("requests", trace.len() as f64)]);
            let span = tr.open("dram.run_trace", Some(app_id));
            let cfg = d.cfg.with_interleave(mode);
            let stats = MemorySystem::new(cfg, LowPowerPolicy::srf_default())
                .map_err(err)?
                .with_engine_mode(MeasureOpts::default().engine)
                .run_trace(trace)
                .map_err(err)?;
            tr.close(span, &[("cycles", stats.cycles as f64)]);
            let mine = counters(&stats);
            out.check(mine == exported(&tele, &d.cfg, mode), || {
                format!(
                    "{} {}: run_trace counters differ from evaluate_app_tele's",
                    run.app.name,
                    scope(mode)
                )
            });
            for (t, v) in totals.iter_mut().zip(mine) {
                *t += v;
            }
        }
        tr.close(app_span, &[]);
    }
    let spans = tr.into_spans();
    let [cycles_total, reads, writes, activates, refreshes, row_hits, pd, sr] = totals;
    let requests = reads + writes;
    let dram_busy = trace::total_secs(&spans, "dram.run_trace");
    let synth = trace::total_secs(&spans, "workloads.synth");
    let run_ms: Vec<f64> = trace::named(&spans, "dram.run_trace")
        .map(|s| s.secs() * 1e3)
        .collect();
    let l = &mut out.layers;
    l.insert("workloads.synth_s", synth);
    l.insert("dram.busy_s", dram_busy);
    l.insert("dram.run_p50_ms", stats::percentile(&run_ms, 50.0));
    l.insert("dram.run_max_ms", stats::percentile(&run_ms, 100.0));
    l.insert(
        "dram.ns_per_request",
        ratio(dram_busy * 1e9, requests as f64),
    );
    l.insert(
        "dram.ns_per_cycle",
        ratio(dram_busy * 1e9, cycles_total as f64),
    );
    l.insert("dram.cycles", cycles_total as f64);
    l.insert("dram.requests", requests as f64);
    l.insert("dram.activates", activates as f64);
    l.insert("dram.refreshes", refreshes as f64);
    l.insert("dram.row_hit_rate", ratio(row_hits as f64, requests as f64));
    l.insert("dram.pd_entries", pd as f64);
    l.insert("dram.sr_entries", sr as f64);
    l.insert("energy.residual_s", primary_s - synth - dram_busy);
    out.wall_s = primary_s;
    out.sim_s = simulated as f64 / clock_hz(&d.cfg);
    out.digest = rows_digest(&rows);
    out.spans = spans;
    Ok(out)
}

/// Runs whose command streams the strict pass replays through the
/// protocol validator.
const STRICT_RUNS: usize = 2;

fn dram_check(d: &DramInput) -> Result<RepOut, String> {
    let mut out = RepOut::default();
    let mut rows = Vec::new();
    for (i, run) in d.runs.iter().enumerate() {
        let app = &run.app;
        let plain = evaluate_app_opts(app, d.cfg, d.requests, run.seed, MeasureOpts::default())
            .map_err(err)?;
        let sane = plain.len() == 8
            && plain.iter().all(|r| {
                [
                    r.runtime_s,
                    r.dram_j,
                    r.system_j,
                    r.dram_norm,
                    r.system_norm,
                ]
                .iter()
                .all(|v| v.is_finite() && *v > 0.0)
            })
            && plain
                .iter()
                .any(|r| r.policy == "srf_only" && !r.interleaved && r.dram_norm == 1.0);
        out.check(sane, || format!("{}: energy rows out of range", app.name));
        if i < STRICT_RUNS {
            let opts = MeasureOpts {
                strict_validate: true,
                ..MeasureOpts::default()
            };
            match evaluate_app_opts(app, d.cfg, d.requests, run.seed, opts) {
                Ok(strict) => out.check(rows_digest(&strict) == rows_digest(&plain), || {
                    format!("{}: strict validation changed the rows", app.name)
                }),
                Err(e) => out.check(false, || format!("{}: strict validation: {e}", app.name)),
            }
        }
        rows.extend(plain);
    }
    out.digest = rows_digest(&rows);
    Ok(out)
}
