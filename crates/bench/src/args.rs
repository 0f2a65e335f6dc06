//! The one command line of the figure/table binaries.
//!
//! Every binary builds a [`BenchArgs`] from its name and arguments, takes
//! the flags it reads, and calls [`BenchArgs::finish`] before it prints
//! anything:
//!
//! ```no_run
//! let mut args = gd_bench::BenchArgs::from_env("fig99_example"); // --jobs, --telemetry
//! let mopts = args.measure(); // --strict-validate, --engine, --memspec
//! let requests = args.requests();
//! let hosts = args.count("hosts", 1_000, 10_000);
//! args.finish(); // exit 2 on a bad value or on a flag nothing took
//! # let _ = (mopts, requests, hosts);
//! ```
//!
//! Taking a flag removes it from the pending set. A value that does not
//! parse, or is out of range, records an error and yields the default.
//! `finish` then exits 2, with one `error:` line on stderr, on the first
//! error or on any flag the binary never took, so a misspelled, repeated
//! or unread flag never runs a figure with a setting nobody asked for.
//! [`BenchArgs::parse`] takes an explicit argv, so unit tests need no
//! process.
//!
//! The name given to [`BenchArgs::from_env`] is the only place a binary
//! names itself: [`BenchArgs::sweep`] writes the `results/BENCH_<fig>.json`
//! sidecar under it, and [`BenchArgs::provenance`] prints it in the
//! `# provenance:` first line of every `results/*.txt` snapshot, so a
//! stale snapshot is mechanically detectable. The line must be deterministic across machines: the config
//! is identified by an FNV-1a hash of its canonical description, the
//! engine is named explicitly, and `jobs` renders as `auto` unless the user
//! pinned it (sweep output is jobs-invariant, so the machine's core count
//! must not leak into the snapshot).

use crate::energy::MeasureOpts;
use crate::sweep::default_jobs;
use gd_dram::EngineMode;
use gd_types::config::MemSpecKind;
use gd_types::Fraction;
use std::collections::BTreeMap;
use std::path::PathBuf;

/// Every flag a figure binary can read, and whether it takes a value.
const FLAGS: [(&str, bool); 9] = [
    ("jobs", true),
    ("requests", true),
    ("telemetry", true),
    ("strict-validate", false),
    ("engine", true),
    ("memspec", true),
    ("hosts", true),
    ("stride", true),
    ("fault-rate", true),
];

/// The parsed command line of a figure binary.
#[derive(Debug)]
pub struct BenchArgs {
    /// The binary's name: the provenance header's `fig=` and the timing
    /// sidecar's file name.
    pub(crate) fig: &'static str,
    /// Worker threads (`--jobs N`); defaults to the machine's available
    /// parallelism. `1` runs the plain serial path.
    pub jobs: usize,
    /// True when the user pinned `jobs` with `--jobs`. Provenance headers
    /// render `jobs=auto` otherwise.
    pub jobs_explicit: bool,
    /// `--requests N` once the binary took it; the provenance header
    /// renders `requests=default` otherwise.
    requests: Option<usize>,
    /// Where `--telemetry PATH` writes the merged JSONL trace; `None`
    /// disables telemetry.
    pub(crate) telemetry: Option<PathBuf>,
    /// The engine the provenance header names: `--engine` when the binary
    /// took it, else the default event-driven engine.
    engine: EngineMode,
    /// The backend the provenance header names when it is not DDR4.
    memspec: MemSpecKind,
    /// Flags given but not yet taken, with their values.
    pending: BTreeMap<&'static str, Option<String>>,
    /// The first error met; [`BenchArgs::finish`] reports it.
    error: Option<String>,
}

impl BenchArgs {
    /// Parses the process arguments of the binary `fig` (pass
    /// `env!("CARGO_BIN_NAME")`); see [`BenchArgs::parse`].
    #[must_use]
    pub fn from_env(fig: &'static str) -> Self {
        Self::parse(fig, std::env::args().skip(1))
    }

    /// Parses `argv` (without the program name) and takes the flags every
    /// binary reads: `--jobs` and `--telemetry`.
    pub fn parse(fig: &'static str, argv: impl IntoIterator<Item = String>) -> Self {
        let mut args = BenchArgs {
            fig,
            jobs: default_jobs(),
            jobs_explicit: false,
            requests: None,
            telemetry: None,
            engine: EngineMode::default(),
            memspec: MemSpecKind::default(),
            pending: BTreeMap::new(),
            error: None,
        };
        let mut argv = argv.into_iter();
        while let Some(arg) = argv.next() {
            let flag = arg
                .strip_prefix("--")
                .and_then(|name| FLAGS.iter().find(|(f, _)| *f == name));
            let Some(&(name, takes_value)) = flag else {
                args.fail(format!("unknown argument {arg:?}"));
                break;
            };
            let value = if takes_value {
                match argv.next() {
                    Some(v) if !v.starts_with("--") => Some(v),
                    got => {
                        let got = got.map_or(String::new(), |v| format!(", got {v:?}"));
                        args.fail(format!("--{name} needs a value{got}"));
                        break;
                    }
                }
            } else {
                None
            };
            if args.pending.insert(name, value).is_some() {
                args.fail(format!("--{name} given more than once"));
                break;
            }
        }
        if let Some(jobs) = args.whole("jobs", 1, usize::MAX) {
            args.jobs = jobs;
            args.jobs_explicit = true;
        }
        args.telemetry = args
            .pending
            .remove("telemetry")
            .flatten()
            .map(PathBuf::from);
        args
    }

    /// `--strict-validate`: whether to run the figure's invariant checks.
    pub fn strict_validate(&mut self) -> bool {
        self.pending.remove("strict-validate").is_some()
    }

    /// `--strict-validate`, `--engine` and `--memspec`, for the figures
    /// that run the measurement pipeline on a chosen memory generation.
    pub fn measure(&mut self) -> MeasureOpts {
        MeasureOpts {
            strict_validate: self.strict_validate(),
            engine: self.engine(),
            memspec: self.memspec(),
        }
    }

    /// [`BenchArgs::measure`] for figures whose memory platform is fixed:
    /// a `--memspec` other than DDR4 is an error, rather than a flag that
    /// prints numbers it did not select.
    pub fn measure_ddr4(&mut self) -> MeasureOpts {
        let opts = self.measure();
        if opts.memspec != MemSpecKind::Ddr4 {
            self.fail(format!(
                "--memspec {} is not supported here: this figure fixes its own memory platform",
                opts.memspec.name()
            ));
        }
        opts
    }

    /// `--engine stepped|event`; the provenance header names the result.
    pub fn engine(&mut self) -> EngineMode {
        self.engine = self
            .value("engine", "one of stepped, event", |v| match v {
                "stepped" => Some(EngineMode::Stepped),
                "event" => Some(EngineMode::EventDriven),
                _ => None,
            })
            .unwrap_or_default();
        self.engine
    }

    /// `--memspec ddr4|ddr5|lpddr4-pasr`; the provenance header names a
    /// non-DDR4 result.
    pub fn memspec(&mut self) -> MemSpecKind {
        self.memspec = self
            .value(
                "memspec",
                "one of ddr4, ddr5, lpddr4-pasr",
                MemSpecKind::parse,
            )
            .unwrap_or_default();
        self.memspec
    }

    /// `--<name> N`: a whole number in `1..=max`, or `default` when absent.
    pub fn count(&mut self, name: &str, default: usize, max: usize) -> usize {
        self.whole(name, 1, max).unwrap_or(default)
    }

    /// `--requests N`: the figure's request or iteration count for smoke
    /// runs, or `None` for its paper-scale default. The provenance
    /// header records it.
    pub fn requests(&mut self) -> Option<usize> {
        self.requests = self.whole("requests", 1, usize::MAX);
        self.requests
    }

    /// `--requests N` read as a count in `1..=max` (fig08 and `fig_faults`
    /// read it as a seed count), or `default` when absent. A larger value
    /// is an error, not a clamp.
    pub fn requests_count(&mut self, default: usize, max: usize) -> usize {
        self.requests = self.whole("requests", 1, max);
        self.requests.unwrap_or(default)
    }

    /// `--requests N` read as the length of a VM-trace figure's day in
    /// 5-minute scheduler samples (fig01, fig12, fig13, fig14): `N` in
    /// `12..=288`, one hour to 24 hours. Returns the simulated seconds,
    /// 86 400 when absent. A value outside the range is an error, not a
    /// clamp.
    pub fn trace_duration_s(&mut self) -> u64 {
        const SAMPLE_S: u64 = 300;
        const DAY_SAMPLES: usize = 288;
        self.requests = self.whole("requests", 12, DAY_SAMPLES);
        self.requests.unwrap_or(DAY_SAMPLES) as u64 * SAMPLE_S
    }

    /// `--fault-rate R`: a probability in `[0, 1]`, or `None` when absent.
    pub fn fault_rate(&mut self) -> Option<Fraction> {
        self.value("fault-rate", "a number in [0, 1]", |v| {
            v.parse().ok().and_then(|r| Fraction::new(r).ok())
        })
    }

    /// Exits 2, with one `error:` line on stderr, on the first error met
    /// or on any flag this binary did not take. Call it after taking every
    /// flag and before printing anything.
    pub fn finish(&self) {
        if let Err(e) = self.check() {
            eprintln!("error: {e}");
            std::process::exit(2);
        }
    }

    /// Prints the provenance header, the first line of a figure snapshot.
    /// `config_desc` is a canonical description of everything that
    /// determines the figure's numbers (platform, seeds, durations); only
    /// its hash lands in the header.
    pub fn provenance(&self, config_desc: &str) {
        println!("{}", self.provenance_header(config_desc));
    }

    fn provenance_header(&self, config_desc: &str) -> String {
        let fig = self.fig;
        let jobs = if self.jobs_explicit {
            self.jobs.to_string()
        } else {
            "auto".to_string()
        };
        let requests = self
            .requests
            .map_or_else(|| "default".to_string(), |r| r.to_string());
        let engine = match self.engine {
            EngineMode::Stepped => "stepped",
            EngineMode::EventDriven => "event-driven",
        };
        // DDR4 adds nothing, so DDR4 headers keep their pre-backend bytes.
        let memspec = match self.memspec {
            MemSpecKind::Ddr4 => String::new(),
            other => format!(" memspec={}", other.name()),
        };
        format!(
            "# provenance: fig={fig} config={:016x} engine={engine} jobs={jobs} \
             requests={requests} version={}{memspec}",
            fnv1a(config_desc),
            env!("CARGO_PKG_VERSION")
        )
    }

    /// The first error, else an error naming the first flag nothing took.
    fn check(&self) -> Result<(), String> {
        if let Some(e) = &self.error {
            return Err(e.clone());
        }
        match self.pending.keys().next() {
            Some(name) => Err(format!("--{name} is not read by this binary")),
            None => Ok(()),
        }
    }

    fn fail(&mut self, message: String) {
        self.error.get_or_insert(message);
    }

    /// Takes `--<name>` and parses its value; a value `parse` rejects
    /// records an error naming what was `expected`.
    fn value<T>(
        &mut self,
        name: &str,
        expected: &str,
        parse: impl FnOnce(&str) -> Option<T>,
    ) -> Option<T> {
        let v = self.pending.remove(name).flatten()?;
        let parsed = parse(&v);
        if parsed.is_none() {
            self.fail(format!("--{name} {v:?} must be {expected}"));
        }
        parsed
    }

    /// Takes `--<name>` as a whole number in `min..=max`.
    fn whole(&mut self, name: &str, min: usize, max: usize) -> Option<usize> {
        let expected = if max == usize::MAX {
            format!("a whole number >= {min}")
        } else {
            format!("a whole number in {min}..={max}")
        };
        self.value(name, &expected, |v| {
            v.parse().ok().filter(|n| (min..=max).contains(n))
        })
    }
}

/// 64-bit FNV-1a over a string: stable across platforms and runs, good
/// enough to fingerprint a config description.
fn fnv1a(data: &str) -> u64 {
    const OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
    const PRIME: u64 = 0x0000_0100_0000_01b3;
    let mut h = OFFSET;
    for b in data.as_bytes() {
        h ^= u64::from(*b);
        h = h.wrapping_mul(PRIME);
    }
    h
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(argv: &[&str]) -> BenchArgs {
        BenchArgs::parse("fig_test", argv.iter().map(|a| (*a).to_string()))
    }

    /// The error `finish` would exit 2 with, after `take` takes flags.
    fn error_of(argv: &[&str], take: impl FnOnce(&mut BenchArgs)) -> String {
        let mut args = parse(argv);
        take(&mut args);
        args.check().expect_err("expected an exit-2 error")
    }

    #[test]
    fn defaults() {
        let mut args = parse(&[]);
        assert_eq!(args.jobs, default_jobs());
        assert!(!args.jobs_explicit);
        assert_eq!(args.requests(), None);
        assert_eq!(args.telemetry, None);
        let m = args.measure();
        assert!(!m.strict_validate);
        assert_eq!(m.engine, EngineMode::EventDriven);
        assert_eq!(m.memspec, MemSpecKind::Ddr4);
        assert_eq!(args.count("hosts", 1_000, 10_000), 1_000);
        assert_eq!(args.fault_rate(), None);
        assert_eq!(args.check(), Ok(()));
    }

    #[test]
    fn every_flag_parses() {
        let mut args = parse(&[
            "--jobs",
            "3",
            "--requests",
            "8",
            "--telemetry",
            "t.jsonl",
            "--strict-validate",
            "--engine",
            "stepped",
            "--memspec",
            "lpddr4-pasr",
            "--hosts",
            "12",
            "--stride",
            "1",
            "--fault-rate",
            "0.25",
        ]);
        assert_eq!((args.jobs, args.jobs_explicit), (3, true));
        assert_eq!(args.requests(), Some(8));
        assert_eq!(args.telemetry, Some(PathBuf::from("t.jsonl")));
        let m = args.measure();
        assert!(m.strict_validate);
        assert_eq!(m.engine, EngineMode::Stepped);
        assert_eq!(m.memspec, MemSpecKind::Lpddr4Pasr);
        assert_eq!(args.count("hosts", 1_000, 10_000), 12);
        assert_eq!(args.count("stride", 16, usize::MAX), 1);
        assert_eq!(args.fault_rate(), Some(Fraction::lit(0.25)));
        assert_eq!(args.check(), Ok(()));
    }

    #[test]
    fn engine_accepts_only_the_two_exact_engines() {
        for (v, mode) in [
            ("stepped", EngineMode::Stepped),
            ("event", EngineMode::EventDriven),
        ] {
            let mut args = parse(&["--engine", v]);
            assert_eq!(args.engine(), mode);
            assert_eq!(args.check(), Ok(()));
        }
        for bad in ["epoch-replay", "sampled", "", "Stepped", "event-driven"] {
            let e = error_of(&["--engine", bad], |a| {
                a.engine();
            });
            assert!(e.starts_with("--engine"), "{bad:?}: {e}");
        }
    }

    #[test]
    fn unknown_flags_and_arguments_fail() {
        for argv in [
            &["--bogus"][..],
            &["--jobs", "2", "x"],
            &["-j", "2"],
            &["--jobs=2"],
        ] {
            let e = error_of(argv, |_| {});
            assert!(e.starts_with("unknown argument"), "{argv:?}: {e}");
        }
    }

    #[test]
    fn a_flag_the_binary_did_not_take_fails() {
        let e = error_of(&["--engine", "stepped"], |_| {});
        assert_eq!(e, "--engine is not read by this binary");
        let e = error_of(&["--requests", "8"], |_| {});
        assert_eq!(e, "--requests is not read by this binary");
        let e = error_of(&["--strict-validate"], |a| {
            a.engine();
        });
        assert_eq!(e, "--strict-validate is not read by this binary");
    }

    #[test]
    fn repeated_flags_fail() {
        let e = error_of(&["--jobs", "2", "--jobs", "3"], |_| {});
        assert_eq!(e, "--jobs given more than once");
        let e = error_of(&["--strict-validate", "--strict-validate"], |a| {
            a.measure();
        });
        assert_eq!(e, "--strict-validate given more than once");
    }

    #[test]
    fn missing_values_fail() {
        assert_eq!(error_of(&["--jobs"], |_| {}), "--jobs needs a value");
        let e = error_of(&["--telemetry", "--requests", "8"], |_| {});
        assert_eq!(e, "--telemetry needs a value, got \"--requests\"");
    }

    #[test]
    fn bad_values_fail() {
        for argv in [
            &["--jobs", "0"][..],
            &["--jobs", "x"],
            &["--jobs", "-1"],
            &["--requests", "0"],
        ] {
            let e = error_of(argv, |a| {
                a.requests();
            });
            assert!(e.ends_with("must be a whole number >= 1"), "{argv:?}: {e}");
        }
        for rate in ["2", "-0.5", "abc", "NaN"] {
            let e = error_of(&["--fault-rate", rate], |a| {
                a.fault_rate();
            });
            assert!(e.ends_with("must be a number in [0, 1]"), "{rate}: {e}");
        }
        let e = error_of(&["--memspec", "ddr3"], |a| {
            a.measure();
        });
        assert_eq!(
            e,
            "--memspec \"ddr3\" must be one of ddr4, ddr5, lpddr4-pasr"
        );
        for hosts in ["0", "abc", "50000"] {
            let e = error_of(&["--hosts", hosts], |a| {
                a.count("hosts", 1_000, 10_000);
            });
            assert!(e.ends_with("must be a whole number in 1..=10000"), "{e}");
        }
        let e = error_of(&["--requests", "65"], |a| {
            a.requests_count(5, 64);
        });
        assert_eq!(e, "--requests \"65\" must be a whole number in 1..=64");
    }

    #[test]
    fn requests_count_is_capped_not_clamped() {
        assert_eq!(parse(&[]).requests_count(5, 64), 5);
        let mut args = parse(&["--requests", "64"]);
        assert_eq!(args.requests_count(5, 64), 64);
        assert_eq!(args.check(), Ok(()));
    }

    #[test]
    fn trace_duration_takes_one_hour_to_a_day_of_samples() {
        assert_eq!(parse(&[]).trace_duration_s(), 86_400);
        for (n, secs) in [("12", 3_600), ("288", 86_400)] {
            let mut args = parse(&["--requests", n]);
            assert_eq!(args.trace_duration_s(), secs);
            assert_eq!(args.check(), Ok(()));
        }
        for n in ["11", "289", "0"] {
            let e = error_of(&["--requests", n], |a| {
                a.trace_duration_s();
            });
            assert_eq!(
                e,
                format!("--requests {n:?} must be a whole number in 12..=288")
            );
        }
    }

    #[test]
    fn fixed_platforms_reject_other_generations() {
        let e = error_of(&["--memspec", "ddr5"], |a| {
            a.measure_ddr4();
        });
        assert!(e.starts_with("--memspec ddr5 is not supported here"), "{e}");
        let mut args = parse(&["--memspec", "ddr4"]);
        assert_eq!(args.measure_ddr4().memspec, MemSpecKind::Ddr4);
        assert_eq!(args.check(), Ok(()));
    }

    #[test]
    fn the_first_error_is_the_one_reported() {
        let e = error_of(&["--jobs", "0", "--bogus"], |_| {});
        assert_eq!(e, "unknown argument \"--bogus\"");
        let e = error_of(&["--engine", "x", "--memspec", "y"], |a| {
            a.measure();
        });
        assert!(e.starts_with("--engine"), "{e}");
    }

    #[test]
    fn jobs_explicit_tracks_the_flag_not_the_value() {
        let args = parse(&["--jobs", &default_jobs().to_string()]);
        assert!(args.jobs_explicit);
        assert!(args
            .provenance_header("c")
            .contains(&format!("jobs={}", default_jobs())));
    }

    #[test]
    fn fnv1a_reference_vectors() {
        // Standard FNV-1a test vectors.
        assert_eq!(fnv1a(""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a("a"), 0xaf63_dc4c_8601_ec8c);
        assert_ne!(fnv1a("config-a"), fnv1a("config-b"));
    }

    #[test]
    fn default_provenance_bytes() {
        // The exact committed header of results/fig05_addrmap.txt: no
        // machine detail (core count, paths) may appear, CI diffs it.
        assert_eq!(
            BenchArgs::parse("fig05_addrmap", [])
                .provenance_header("ddr4-2133 64GB 4ch x 4rank x8"),
            format!(
                "# provenance: fig=fig05_addrmap config={:016x} engine=event-driven jobs=auto \
                 requests=default version={}",
                fnv1a("ddr4-2133 64GB 4ch x 4rank x8"),
                env!("CARGO_PKG_VERSION")
            )
        );
    }

    #[test]
    fn explicit_settings_are_recorded() {
        let mut args = parse(&["--jobs", "4", "--requests", "1000"]);
        args.engine();
        args.requests();
        assert!(args.provenance_header("cfg").ends_with(&format!(
            "engine=event-driven jobs=4 requests=1000 version={}",
            env!("CARGO_PKG_VERSION")
        )));
        let mut args = parse(&["--engine", "stepped", "--memspec", "ddr5"]);
        args.measure();
        let line = args.provenance_header("cfg");
        assert!(line.contains(" engine=stepped jobs=auto "), "{line}");
        assert!(line.ends_with(" memspec=ddr5"), "{line}");
    }

    #[test]
    fn config_changes_change_the_hash() {
        let args = parse(&[]);
        assert_ne!(
            args.provenance_header("seed=1"),
            args.provenance_header("seed=2")
        );
    }
}
