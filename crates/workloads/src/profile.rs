//! Benchmark profiles: the published memory characteristics of the paper's
//! workloads, used to synthesize both request traces (for the cycle-level
//! DRAM simulator) and footprint-over-time series (for the epoch-level
//! co-simulation).
//!
//! The evaluation distinguishes workloads along exactly two axes — memory
//! intensity (MPKI) and footprint dynamics (stable vs. churning) — so the
//! profiles pin those published characteristics per benchmark.

use gd_types::Fraction;

/// Benchmark suite, for grouping in figures.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Suite {
    /// SPEC CPU2006.
    Spec2006,
    /// SPEC CPU2017.
    Spec2017,
    /// HiBench (MapReduce-style data analytics).
    HiBench,
    /// CloudSuite (latency-critical scale-out services).
    CloudSuite,
}

/// How an application's resident footprint evolves over its run (drives
/// how often GreenDIMM must on/off-line blocks: Figs. 6–8).
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum FootprintDynamics {
    /// Allocates its working set at start and keeps it (mcf, lbm,
    /// libquantum, the CloudSuite services).
    Stable,
    /// Repeatedly grows toward the peak and shrinks back to `min_fraction`
    /// of it with the given period (gcc and soplex: per-function/per-LP
    /// allocation churn).
    Churn {
        /// Fraction of the peak footprint retained at the trough.
        min_fraction: f64,
        /// Grow/shrink cycle period in seconds.
        period_s: f64,
    },
    /// Grows linearly from near zero to the peak over the run (HiBench-style
    /// data loading).
    Ramp,
}

/// One benchmark's memory behaviour.
#[derive(Debug, Clone, PartialEq)]
pub struct AppProfile {
    /// Canonical name (e.g. "mcf", "403.gcc", "data-caching").
    pub name: &'static str,
    /// Suite the benchmark belongs to.
    pub suite: Suite,
    /// Peak resident footprint in MiB.
    pub footprint_mib: u64,
    /// Last-level-cache misses per kilo-instruction (memory intensity).
    pub mpki: f64,
    /// Fraction of memory traffic that is reads.
    pub read_fraction: Fraction,
    /// Probability that an access falls in an open row (spatial locality).
    pub row_locality: Fraction,
    /// Memory-level parallelism: average outstanding misses.
    pub mlp: f64,
    /// Base (non-memory) cycles per instruction.
    pub cpi_base: f64,
    /// Instruction count for one run, in billions (sets nominal runtime).
    pub giga_instructions: f64,
    /// Footprint dynamics.
    pub dynamics: FootprintDynamics,
    /// Whether the workload is latency-critical (tail-latency checks).
    pub latency_critical: bool,
}

impl AppProfile {
    /// Peak footprint in bytes.
    pub fn footprint_bytes(&self) -> u64 {
        self.footprint_mib << 20
    }

    /// DRAM traffic amplification from hardware stream prefetchers, which
    /// demand-miss MPKI does not include. Streaming memory-intensive
    /// workloads (high locality, high MPKI) see substantial prefetch
    /// traffic — the reason a single un-interleaved channel saturates so
    /// badly on real hardware (Fig. 3a's 3.8× for lbm).
    pub fn prefetch_factor(&self) -> f64 {
        if self.mpki >= 20.0 && self.row_locality.get() >= 0.7 {
            2.5
        } else if self.mpki >= 20.0 {
            1.5
        } else {
            1.0
        }
    }

    /// The resident footprint fraction (of peak) at time `t` seconds into
    /// the run.
    pub fn footprint_fraction_at(&self, t_s: f64) -> f64 {
        match self.dynamics {
            FootprintDynamics::Stable => 1.0,
            FootprintDynamics::Churn {
                min_fraction,
                period_s,
            } => {
                // Triangle wave between min_fraction and 1.0.
                let phase = (t_s / period_s).fract();
                let tri = if phase < 0.5 {
                    phase * 2.0
                } else {
                    2.0 - phase * 2.0
                };
                min_fraction + (1.0 - min_fraction) * tri
            }
            FootprintDynamics::Ramp => (t_s / 60.0).clamp(0.05, 1.0),
        }
    }
}

/// The six SPEC CPU2006 benchmarks used in Figs. 6–8 (block-size and
/// off-lining-failure studies).
pub fn spec2006_offlining_set() -> Vec<AppProfile> {
    ["mcf", "gcc", "soplex", "lbm", "libquantum", "povray"]
        .iter()
        .map(|n| by_name(n).expect("built-in profile"))
        .collect()
}

/// The full workload set of Figs. 9–11 (SPEC CPU2006/2017 + data-center).
pub fn energy_figure_set() -> Vec<AppProfile> {
    [
        "mcf",
        "403.gcc",
        "soplex",
        "462.libquantum",
        "470.lbm",
        "povray",
        "500.perlbench",
        "502.gcc",
        "519.lbm",
        "ml_linear",
        "data-caching",
        "data-serving",
        "web-serving",
    ]
    .iter()
    .map(|n| by_name(n).expect("built-in profile"))
    .collect()
}

/// Looks up a built-in profile by name. `"gcc"` and `"403.gcc"` (etc.) are
/// synonyms for the 2006 editions.
pub fn by_name(name: &str) -> Option<AppProfile> {
    let p = |name,
             suite,
             footprint_mib,
             mpki,
             read_fraction,
             row_locality,
             mlp,
             cpi_base,
             giga_instructions,
             dynamics,
             latency_critical| AppProfile {
        name,
        suite,
        footprint_mib,
        mpki,
        read_fraction: Fraction::lit(read_fraction),
        row_locality: Fraction::lit(row_locality),
        mlp,
        cpi_base,
        giga_instructions,
        dynamics,
        latency_critical,
    };
    use FootprintDynamics::{Churn, Ramp, Stable};
    use Suite::{CloudSuite, HiBench, Spec2006, Spec2017};
    let prof = match name {
        "mcf" | "429.mcf" => p(
            "mcf", Spec2006, 1700, 68.0, 0.75, 0.45, 6.0, 0.9, 350.0, Stable, false,
        ),
        "gcc" | "403.gcc" => p(
            "403.gcc",
            Spec2006,
            900,
            14.0,
            0.70,
            0.60,
            3.0,
            0.8,
            120.0,
            Churn {
                min_fraction: 0.25,
                period_s: 12.0,
            },
            false,
        ),
        "soplex" | "450.soplex" => p(
            "soplex",
            Spec2006,
            600,
            28.0,
            0.80,
            0.55,
            4.0,
            0.8,
            180.0,
            Churn {
                min_fraction: 0.35,
                period_s: 20.0,
            },
            false,
        ),
        "lbm" | "470.lbm" => p(
            "470.lbm", Spec2006, 410, 45.0, 0.60, 0.75, 8.0, 0.7, 280.0, Stable, false,
        ),
        "libquantum" | "462.libquantum" => p(
            // The paper highlights its 64 MB footprint defeating
            // rank-granularity power management under interleaving.
            "462.libquantum",
            Spec2006,
            64,
            26.0,
            0.85,
            0.90,
            10.0,
            0.6,
            420.0,
            Stable,
            false,
        ),
        "povray" | "453.povray" => p(
            "povray", Spec2006, 30, 0.1, 0.80, 0.70, 2.0, 1.1, 300.0, Stable, false,
        ),
        "500.perlbench" | "perlbench" => p(
            "500.perlbench",
            Spec2017,
            210,
            1.2,
            0.75,
            0.65,
            2.5,
            1.0,
            330.0,
            Churn {
                min_fraction: 0.5,
                period_s: 15.0,
            },
            false,
        ),
        "502.gcc" => p(
            "502.gcc",
            Spec2017,
            1350,
            9.0,
            0.70,
            0.60,
            3.0,
            0.85,
            200.0,
            Churn {
                min_fraction: 0.2,
                period_s: 10.0,
            },
            false,
        ),
        "519.lbm" => p(
            "519.lbm", Spec2017, 3200, 42.0, 0.60, 0.75, 8.0, 0.7, 320.0, Stable, false,
        ),
        "ml_linear" | "ml-linear" => p(
            "ml_linear",
            HiBench,
            4800,
            38.0,
            0.72,
            0.65,
            6.0,
            0.8,
            400.0,
            Ramp,
            false,
        ),
        "data-caching" => p(
            "data-caching",
            CloudSuite,
            2600,
            6.0,
            0.85,
            0.50,
            3.0,
            1.2,
            250.0,
            Stable,
            true,
        ),
        "data-serving" => p(
            "data-serving",
            CloudSuite,
            3100,
            8.0,
            0.70,
            0.45,
            3.0,
            1.2,
            250.0,
            Stable,
            true,
        ),
        "web-serving" => p(
            "web-serving",
            CloudSuite,
            1900,
            3.5,
            0.80,
            0.55,
            2.5,
            1.3,
            250.0,
            Stable,
            true,
        ),
        // Additional SPEC CPU2006 profiles for wider sweeps.
        "milc" | "433.milc" => p(
            "433.milc", Spec2006, 680, 30.0, 0.75, 0.70, 6.0, 0.8, 260.0, Stable, false,
        ),
        "omnetpp" | "471.omnetpp" => p(
            "471.omnetpp",
            Spec2006,
            170,
            21.0,
            0.80,
            0.40,
            3.0,
            1.0,
            250.0,
            Stable,
            false,
        ),
        "xalancbmk" | "483.xalancbmk" => p(
            "483.xalancbmk",
            Spec2006,
            430,
            24.0,
            0.85,
            0.45,
            3.5,
            0.9,
            280.0,
            Churn {
                min_fraction: 0.5,
                period_s: 8.0,
            },
            false,
        ),
        "bwaves" | "410.bwaves" => p(
            "410.bwaves",
            Spec2006,
            870,
            19.0,
            0.65,
            0.85,
            7.0,
            0.7,
            300.0,
            Stable,
            false,
        ),
        "gems" | "459.GemsFDTD" => p(
            "459.GemsFDTD",
            Spec2006,
            840,
            25.0,
            0.70,
            0.80,
            7.0,
            0.7,
            290.0,
            Stable,
            false,
        ),
        "sphinx3" | "482.sphinx3" => p(
            "482.sphinx3",
            Spec2006,
            45,
            12.0,
            0.90,
            0.60,
            3.0,
            0.9,
            310.0,
            Stable,
            false,
        ),
        "astar" | "473.astar" => p(
            "473.astar",
            Spec2006,
            330,
            10.0,
            0.85,
            0.40,
            2.5,
            1.0,
            240.0,
            Churn {
                min_fraction: 0.6,
                period_s: 25.0,
            },
            false,
        ),
        "zeusmp" | "434.zeusmp" => p(
            "434.zeusmp",
            Spec2006,
            510,
            8.0,
            0.70,
            0.75,
            5.0,
            0.8,
            270.0,
            Stable,
            false,
        ),
        // Additional SPEC CPU2017 profiles.
        "505.mcf_r" => p(
            "505.mcf_r",
            Spec2017,
            3900,
            55.0,
            0.75,
            0.45,
            6.0,
            0.9,
            380.0,
            Stable,
            false,
        ),
        "520.omnetpp" | "520.omnetpp_r" => p(
            "520.omnetpp",
            Spec2017,
            250,
            18.0,
            0.80,
            0.40,
            3.0,
            1.0,
            260.0,
            Stable,
            false,
        ),
        "523.xalancbmk" | "523.xalancbmk_r" => p(
            "523.xalancbmk",
            Spec2017,
            480,
            20.0,
            0.85,
            0.45,
            3.5,
            0.9,
            290.0,
            Churn {
                min_fraction: 0.5,
                period_s: 8.0,
            },
            false,
        ),
        "549.fotonik3d" | "549.fotonik3d_r" => p(
            "549.fotonik3d",
            Spec2017,
            850,
            35.0,
            0.65,
            0.85,
            8.0,
            0.7,
            310.0,
            Stable,
            false,
        ),
        "554.roms" | "554.roms_r" => p(
            "554.roms", Spec2017, 1050, 28.0, 0.70, 0.80, 7.0, 0.7, 300.0, Stable, false,
        ),
        // Additional HiBench workloads.
        "wordcount" | "hibench-wordcount" => p(
            "wordcount",
            HiBench,
            3200,
            22.0,
            0.80,
            0.70,
            5.0,
            0.9,
            350.0,
            Ramp,
            false,
        ),
        "terasort" | "hibench-terasort" => p(
            "terasort", HiBench, 5600, 33.0, 0.60, 0.65, 6.0, 0.8, 420.0, Ramp, false,
        ),
        "kmeans" | "hibench-kmeans" => p(
            "kmeans",
            HiBench,
            2800,
            26.0,
            0.85,
            0.75,
            6.0,
            0.8,
            380.0,
            Churn {
                min_fraction: 0.7,
                period_s: 30.0,
            },
            false,
        ),
        // Additional CloudSuite services.
        "graph-analytics" => p(
            "graph-analytics",
            CloudSuite,
            4200,
            31.0,
            0.85,
            0.35,
            4.0,
            1.0,
            330.0,
            Ramp,
            false,
        ),
        "media-streaming" => p(
            "media-streaming",
            CloudSuite,
            1400,
            4.0,
            0.90,
            0.80,
            2.5,
            1.2,
            260.0,
            Stable,
            true,
        ),
        _ => return None,
    };
    Some(prof)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lookup_and_synonyms() {
        assert_eq!(by_name("gcc").unwrap().name, "403.gcc");
        assert_eq!(by_name("403.gcc").unwrap().name, "403.gcc");
        assert!(by_name("no-such-bench").is_none());
    }

    #[test]
    fn extended_catalog_is_complete_and_consistent() {
        let names = [
            "milc",
            "omnetpp",
            "xalancbmk",
            "bwaves",
            "gems",
            "sphinx3",
            "astar",
            "zeusmp",
            "505.mcf_r",
            "520.omnetpp",
            "523.xalancbmk",
            "549.fotonik3d",
            "554.roms",
            "wordcount",
            "terasort",
            "kmeans",
            "graph-analytics",
            "media-streaming",
        ];
        for n in names {
            let p = by_name(n).unwrap_or_else(|| panic!("{n} missing"));
            assert!(p.footprint_mib > 0);
            assert!(p.mpki > 0.0);
            assert!(p.mlp >= 1.0);
            assert!(p.cpi_base > 0.0);
        }
    }

    #[test]
    fn prefetch_factor_tiers() {
        // Streaming + intensive: full amplification.
        assert_eq!(by_name("lbm").unwrap().prefetch_factor(), 2.5);
        // Pointer-chasing intensive: partial.
        assert_eq!(by_name("mcf").unwrap().prefetch_factor(), 1.5);
        // CPU-bound: none.
        assert_eq!(by_name("povray").unwrap().prefetch_factor(), 1.0);
    }

    #[test]
    fn latency_critical_extended_services() {
        assert!(by_name("media-streaming").unwrap().latency_critical);
        assert!(!by_name("graph-analytics").unwrap().latency_critical);
    }

    #[test]
    fn libquantum_matches_paper_footprint() {
        let lq = by_name("libquantum").unwrap();
        assert_eq!(lq.footprint_mib, 64);
        assert!(lq.mpki >= 10.0, "libquantum is memory-intensive");
    }

    #[test]
    fn offlining_set_is_the_papers_six() {
        let set = spec2006_offlining_set();
        assert_eq!(set.len(), 6);
        assert!(set.iter().any(|p| p.name == "povray"));
    }

    #[test]
    fn energy_set_covers_all_suites() {
        let set = energy_figure_set();
        assert_eq!(set.len(), 13);
        for suite in [
            Suite::Spec2006,
            Suite::Spec2017,
            Suite::HiBench,
            Suite::CloudSuite,
        ] {
            assert!(set.iter().any(|p| p.suite == suite), "{suite:?} missing");
        }
    }

    #[test]
    fn churn_footprint_oscillates() {
        let gcc = by_name("gcc").unwrap();
        let samples: Vec<f64> = (0..100)
            .map(|i| gcc.footprint_fraction_at(i as f64 * 0.5))
            .collect();
        let max = samples.iter().cloned().fold(0.0, f64::max);
        let min = samples.iter().cloned().fold(1.0, f64::min);
        assert!(max > 0.9, "max {max}");
        assert!(min < 0.35, "min {min}");
    }

    #[test]
    fn stable_footprint_is_constant() {
        let mcf = by_name("mcf").unwrap();
        assert_eq!(mcf.footprint_fraction_at(0.0), 1.0);
        assert_eq!(mcf.footprint_fraction_at(1234.5), 1.0);
    }

    #[test]
    fn ramp_grows_then_saturates() {
        let ml = by_name("ml_linear").unwrap();
        assert!(ml.footprint_fraction_at(5.0) < ml.footprint_fraction_at(30.0));
        assert_eq!(ml.footprint_fraction_at(61.0), 1.0);
    }

    #[test]
    fn cloudsuite_is_latency_critical() {
        for n in ["data-caching", "data-serving", "web-serving"] {
            assert!(by_name(n).unwrap().latency_critical);
        }
        assert!(!by_name("mcf").unwrap().latency_critical);
    }
}
