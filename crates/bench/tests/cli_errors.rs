//! Bad command lines fail loudly on the real executables: an unknown flag,
//! a flag the figure does not read, or a value outside the figure's range
//! exits 2 before the figure prints anything, with one `error:` line on
//! stderr. Every flag a figure accepts changes its output, so a figure
//! that has no request count or no engine to select rejects `--requests`
//! or `--engine`.

use std::process::Command;

fn assert_exit_2(bin: &str, args: &[&str]) {
    let out = Command::new(bin)
        .args(args)
        .env("GD_BENCH_DIR", std::env::temp_dir())
        .output()
        .unwrap_or_else(|e| panic!("spawning {bin}: {e}"));
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(2), "{bin} {args:?}: {stderr}");
    assert!(out.stdout.is_empty(), "{bin} {args:?} printed to stdout");
    assert!(
        stderr.starts_with("error: ") && stderr.lines().count() == 1,
        "{bin} {args:?}: {stderr}"
    );
}

#[test]
fn unknown_flag_exits_2() {
    assert_exit_2(env!("CARGO_BIN_EXE_fig05_addrmap"), &["--bogus"]);
}

#[test]
fn flag_the_figure_does_not_read_exits_2() {
    assert_exit_2(
        env!("CARGO_BIN_EXE_fig12_vm_offlined_blocks"),
        &["--engine", "stepped"],
    );
    assert_exit_2(
        env!("CARGO_BIN_EXE_ablation_offthr"),
        &["--engine", "stepped"],
    );
}

#[test]
fn seed_count_above_the_cap_exits_2() {
    assert_exit_2(
        env!("CARGO_BIN_EXE_fig08_offlining_failures"),
        &["--requests", "65"],
    );
}

#[test]
fn trace_samples_outside_one_hour_to_a_day_exit_2() {
    for bin in [
        env!("CARGO_BIN_EXE_fig01_vm_utilization"),
        env!("CARGO_BIN_EXE_fig12_vm_offlined_blocks"),
        env!("CARGO_BIN_EXE_fig13_capacity_scaling"),
        env!("CARGO_BIN_EXE_fig14_fleet_energy"),
    ] {
        assert_exit_2(bin, &["--requests", "11"]);
        assert_exit_2(bin, &["--requests", "289"]);
    }
}

#[test]
fn requests_on_a_figure_without_a_request_count_exits_2() {
    for bin in [
        env!("CARGO_BIN_EXE_ablation_adaptive_thr"),
        env!("CARGO_BIN_EXE_ablation_ksm_scan"),
        env!("CARGO_BIN_EXE_ablation_neighbor"),
        env!("CARGO_BIN_EXE_ablation_offthr"),
        env!("CARGO_BIN_EXE_fig02_idle_busy_power"),
        env!("CARGO_BIN_EXE_fig05_addrmap"),
        env!("CARGO_BIN_EXE_fig06_blocksize_capacity"),
        env!("CARGO_BIN_EXE_fig07_blocksize_overhead"),
        env!("CARGO_BIN_EXE_fig11_perf_overhead"),
        env!("CARGO_BIN_EXE_tab01_power_vs_util"),
        env!("CARGO_BIN_EXE_tab02_online_offline_counts"),
    ] {
        assert_exit_2(bin, &["--requests", "8"]);
    }
}

#[test]
fn engine_on_a_figure_without_a_dram_engine_exits_2() {
    for bin in [
        env!("CARGO_BIN_EXE_fig11_perf_overhead"),
        env!("CARGO_BIN_EXE_fig13_capacity_scaling"),
        env!("CARGO_BIN_EXE_ablation_neighbor"),
    ] {
        assert_exit_2(bin, &["--engine", "stepped"]);
    }
}
