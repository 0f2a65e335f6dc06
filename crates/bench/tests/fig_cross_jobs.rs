//! Cross-`--jobs` byte-identity of the figure binaries, checked on the
//! real executables: the sweep pool merges points in index order, so the
//! rendered table below the provenance line must be byte-identical for
//! any worker count, and fig14's for either engine. The provenance line
//! itself records the requested `jobs=` and `engine=` and is stripped
//! before comparison, as `tools/ci.sh` does.

use std::process::Command;

/// Runs a figure binary and returns its stdout minus the provenance line
/// and the timing-sidecar announcement (both mention run-local context).
fn figure_output(bin: &str, args: &[&str]) -> String {
    let out = Command::new(bin)
        .args(args)
        .env("GD_BENCH_DIR", std::env::temp_dir())
        .output()
        .unwrap_or_else(|e| panic!("spawning {bin}: {e}"));
    assert!(
        out.status.success(),
        "{bin} {args:?} failed:\n{}",
        String::from_utf8_lossy(&out.stderr)
    );
    String::from_utf8(out.stdout)
        .expect("figure output is UTF-8")
        .lines()
        .filter(|l| !l.starts_with("# provenance:") && !l.starts_with("[timing ->"))
        .collect::<Vec<_>>()
        .join("\n")
}

#[test]
fn fig01_output_is_byte_identical_across_jobs() {
    let bin = env!("CARGO_BIN_EXE_fig01_vm_utilization");
    let serial = figure_output(bin, &["--requests", "12", "--jobs", "1"]);
    let parallel = figure_output(bin, &["--requests", "12", "--jobs", "4"]);
    assert!(
        serial.contains("mean"),
        "unexpected fig01 output:\n{serial}"
    );
    assert_eq!(serial, parallel, "fig01 diverged between --jobs 1 and 4");
}

#[test]
fn fig14_output_is_byte_identical_across_jobs() {
    let bin = env!("CARGO_BIN_EXE_fig14_fleet_energy");
    let args = ["--hosts", "8", "--requests", "12"];
    let serial = figure_output(bin, &[&args[..], &["--jobs", "1"]].concat());
    let parallel = figure_output(bin, &[&args[..], &["--jobs", "4"]].concat());
    assert!(
        serial.contains("Fig. 14"),
        "unexpected fig14 output:\n{serial}"
    );
    assert_eq!(serial, parallel, "fig14 diverged between --jobs 1 and 4");
}

#[test]
fn fig14_rows_are_byte_identical_across_engines() {
    let bin = env!("CARGO_BIN_EXE_fig14_fleet_energy");
    let args = ["--hosts", "8", "--requests", "12"];
    let stepped = figure_output(bin, &[&args[..], &["--engine", "stepped"]].concat());
    let event = figure_output(bin, &[&args[..], &["--engine", "event"]].concat());
    assert!(
        stepped.contains("Fig. 14"),
        "unexpected fig14 output:\n{stepped}"
    );
    assert_eq!(stepped, event, "fig14 diverged between the two engines");
}
