//! Fig. 13: DRAM and system power as capacity scales 256 GB → 1 TB with
//! the same VM load (paper: GreenDIMM −32 %/−9 % at 256 GB rising to
//! −36 %/−20 % at 1 TB; with KSM −55 %/−30 % at 1 TB).
//!
//! Each {capacity × KSM} VM-trace run is one sweep point (`--jobs N`);
//! `--requests N` trims the trace to N scheduler samples; timing lands in
//! `results/BENCH_fig13_capacity_scaling.json` and `--telemetry PATH`
//! dumps every run's daemon/mm/ksm books as JSONL.

use gd_bench::energy::{engine_name, memspec_suffix, platform_desc, MeasureOpts};
use gd_bench::report::{f2, header, pct, row};
use gd_bench::{
    provenance_line_with_engine, run_vm_trace_tele, timed_sweep, SweepOpts, TelemetryOpts,
    VmTraceConfig,
};
use gd_power::{memspec_for, ActivityProfile, PowerGating, SystemPowerModel};
use gd_types::config::{DramConfig, MemSpecKind};

fn main() {
    let sw = SweepOpts::from_args();
    let topts = TelemetryOpts::from_args();
    let duration_s = sw
        .requests
        .map(|n| (n as u64 * 300).clamp(3_600, 86_400))
        .unwrap_or(86_400);
    let mopts = MeasureOpts::from_args();
    // The VM-trace co-simulation is mm/daemon-level (block off-lining and
    // deep power-down dwell) and memory-generation-independent; the backend
    // only changes the analytic power model the dwell fractions feed. Keep
    // the DDR4 config description verbatim so its provenance hash holds.
    let platform = match mopts.memspec {
        MemSpecKind::Ddr4 => String::new(),
        kind => format!("{} ", platform_desc(kind)),
    };
    println!(
        "{}{}",
        provenance_line_with_engine(
            "fig13_capacity_scaling",
            &format!(
                "{platform}azure-24h block=1GB seed=42 duration_s={duration_s} caps=256..1024 x ksm"
            ),
            engine_name(mopts.engine),
            &sw,
        ),
        memspec_suffix(mopts.memspec)
    );
    let caps = [256u64, 512, 768, 1024];
    // One point per {capacity, ksm} pair; results stitched back per capacity.
    let points: Vec<(u64, bool)> = caps
        .iter()
        .flat_map(|&cap| [(cap, false), (cap, true)])
        .collect();
    let labels: Vec<String> = points
        .iter()
        .map(|(cap, ksm)| format!("{cap}G{}", if *ksm { "+ksm" } else { "" }))
        .collect();
    let mut runs = timed_sweep(
        "fig13_capacity_scaling",
        &points,
        &labels,
        sw.jobs,
        |_ctx, &(cap_gb, ksm)| {
            let cfg = VmTraceConfig {
                capacity_gb: cap_gb,
                ksm,
                duration_s,
                engine: mopts.engine,
                ..VmTraceConfig::paper_256gb()
            };
            run_vm_trace_tele(&cfg, topts.enabled()).expect("vm trace")
        },
    );
    topts.write(
        &labels
            .iter()
            .zip(&mut runs)
            .map(|(l, (_, tele))| (l.clone(), tele.take()))
            .collect::<Vec<_>>(),
    );
    let runs: Vec<_> = runs.into_iter().map(|(r, _)| r).collect();

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
    let cpu_util = 0.3; // consolidated VM server, modest CPU activity
    let base_model = memspec_for(DramConfig::preset_256gb(mopts.memspec)).expect("paper preset");
    let activity = ActivityProfile::busy(0.15);
    let p256 = base_model.analytic_power_w(&activity, &PowerGating::none());

    for (i, &cap_gb) in caps.iter().enumerate() {
        let run = &runs[2 * i];
        let ksm_run = &runs[2 * i + 1];
        // Linear capacity scaling of the conventional power (same model the
        // paper fits to its 256 GB measurement).
        let scale = cap_gb as f64 / 256.0;
        let dram_w = p256 * scale;
        let gd_w = base_model.analytic_power_w(
            &activity,
            &PowerGating::deep_pd(run.mean_deep_pd_fraction()),
        ) * scale;
        let ksm_w = base_model.analytic_power_w(
            &activity,
            &PowerGating::deep_pd(ksm_run.mean_deep_pd_fraction()),
        ) * scale;
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
