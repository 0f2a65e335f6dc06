//! Fig. 13: DRAM and system power as capacity scales 256 GB → 1 TB with
//! the same VM load (paper: GreenDIMM −32 %/−9 % at 256 GB rising to
//! −36 %/−20 % at 1 TB; with KSM −55 %/−30 % at 1 TB).
//!
//! Each {capacity × KSM} VM-trace run is one sweep point (`--jobs N`);
//! `--requests N` trims the trace to N 5-minute scheduler samples (12 to
//! 288); `--memspec` picks the power model the dwell fractions feed;
//! `--telemetry PATH` dumps every run's daemon/mm/ksm books as JSONL.

use gd_bench::energy::platform_desc;
use gd_bench::report::{f2, header, pct, row};
use gd_bench::{run_vm_trace, BenchArgs};
use gd_fleet::{HostRun, HostSimConfig};
use gd_power::{ActivityProfile, DramPowerModel, PowerGating, SystemPowerModel};
use gd_types::config::{DramConfig, MemSpecKind};
use gd_types::Fraction;

fn main() {
    let mut args = BenchArgs::from_env(env!("CARGO_BIN_NAME"));
    let memspec = args.memspec();
    let duration_s = args.trace_duration_s();
    args.finish();
    // The VM-trace co-simulation is mm/daemon-level (block off-lining and
    // deep power-down dwell) and memory-generation-independent; the backend
    // only changes the analytic power model the dwell fractions feed. Keep
    // the DDR4 config description verbatim so its provenance hash holds.
    let platform = match memspec {
        MemSpecKind::Ddr4 => String::new(),
        kind => format!("{} ", platform_desc(kind)),
    };
    args.provenance(&format!(
        "{platform}azure-24h block=1GB seed=42 duration_s={duration_s} caps=256..1024 x ksm"
    ));
    let caps = [256u64, 512, 768, 1024];
    // One point per {capacity, ksm} pair; results stitched back per capacity.
    let points: Vec<(u64, bool)> = caps
        .iter()
        .flat_map(|&cap| [(cap, false), (cap, true)])
        .collect();
    let runs = args.sweep(
        &points,
        |(cap, ksm)| format!("{cap}G{}", if *ksm { "+ksm" } else { "" }),
        |&(cap_gb, ksm), sink| {
            let cfg = HostSimConfig {
                capacity_gb: cap_gb,
                ksm,
                duration_s,
                ..HostSimConfig::paper_256gb()
            };
            let (run, tele) = run_vm_trace(&cfg, sink.enabled()).expect("vm trace");
            sink.give("", tele);
            run
        },
    );

    let widths = [9, 9, 9, 9, 9, 10, 10, 10, 10];
    header(
        "Fig. 13: DRAM/system power vs. capacity (24 h VM trace)",
        &[
            "cap", "dram W", "gd W", "ksm W", "sys W", "dram red", "sys red", "ksm dred",
            "ksm sred",
        ],
        &widths,
    );
    let sys_model = SystemPowerModel::default();
    let cpu_util = Fraction::lit(0.3); // consolidated VM server, modest CPU activity
    let base_model = DramPowerModel::new(DramConfig::preset_256gb(memspec)).expect("paper preset");
    let activity = ActivityProfile::busy(Fraction::lit(0.15));
    let p256 = base_model.analytic_power_w(&activity, &PowerGating::none());

    for (i, &cap_gb) in caps.iter().enumerate() {
        let run = &runs[2 * i];
        let ksm_run = &runs[2 * i + 1];
        // Linear capacity scaling of the conventional power (same model the
        // paper fits to its 256 GB measurement).
        let scale = cap_gb as f64 / 256.0;
        let dram_w = p256 * scale;
        let gated_w = |run: &HostRun| {
            let deep_pd = Fraction::new(run.mean_deep_pd_fraction()).expect("deep-PD share");
            base_model.analytic_power_w(&activity, &PowerGating::deep_pd(deep_pd)) * scale
        };
        let gd_w = gated_w(run);
        let ksm_w = gated_w(ksm_run);
        let sys_w = sys_model.system_power_w(dram_w, cpu_util);
        let sys_gd = sys_model.system_power_w(gd_w, cpu_util);
        let sys_ksm = sys_model.system_power_w(ksm_w, cpu_util);
        row(
            &[
                format!("{cap_gb}G"),
                f2(dram_w),
                f2(gd_w),
                f2(ksm_w),
                f2(sys_w),
                pct(1.0 - gd_w / dram_w),
                pct(1.0 - sys_gd / sys_w),
                pct(1.0 - ksm_w / dram_w),
                pct(1.0 - sys_ksm / sys_w),
            ],
            &widths,
        );
    }
    println!("\npaper: -32%/-9% at 256 GB -> -36%/-20% at 1 TB; w/ KSM -55%/-30% at 1 TB");
}
