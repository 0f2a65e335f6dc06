//! Bad command lines fail loudly on the real executables: an unknown flag,
//! a flag the figure does not read, or a value above the figure's cap
//! exits 2 before the figure prints anything, with one `error:` line on
//! stderr.

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
