//! The gd-lint command-line gate.
//!
//! ```text
//! cargo run -p gd-lint                 # lint the whole workspace, human output
//! cargo run -p gd-lint -- --json       # same, one JSON object per finding
//! cargo run -p gd-lint -- <paths…>     # lint specific files or directories
//! ```
//!
//! Exits 0 when clean, 1 when any finding (or a usage error) remains.
//! Explicit fixture files may carry a `// gd-lint-fixture: path=…`
//! header that remaps them into a scoped crate for rule testing.

use gd_lint::{collect_rs_files, lint_files, lint_workspace, lints, workspace_root, Report};
use std::path::PathBuf;
use std::process::ExitCode;

fn main() -> ExitCode {
    let mut json = false;
    let mut paths: Vec<PathBuf> = Vec::new();
    for arg in std::env::args().skip(1) {
        match arg.as_str() {
            "--json" => json = true,
            "--help" | "-h" => {
                let rules: Vec<&str> = lints::all().iter().map(|l| l.id()).collect();
                println!(
                    "gd-lint: AST-level static analysis for the GreenDIMM workspace\n\
                     usage: gd-lint [--json] [paths…]\n\
                     rules: {}\n\
                     suppress with `// gd-lint: allow(<rule>)` on or above the line",
                    rules.join(", ")
                );
                return ExitCode::SUCCESS;
            }
            other if other.starts_with('-') => {
                eprintln!("gd-lint: unknown flag `{other}` (try --help)");
                return ExitCode::FAILURE;
            }
            other => paths.push(PathBuf::from(other)),
        }
    }

    let root = workspace_root();
    let report: Report = if paths.is_empty() {
        lint_workspace(&root)
    } else {
        let mut files = Vec::new();
        for p in &paths {
            let abs = if p.is_absolute() {
                p.clone()
            } else {
                root.join(p)
            };
            if abs.is_dir() {
                collect_rs_files(&abs, &mut files);
            } else {
                files.push(abs);
            }
        }
        files.sort();
        lint_files(&root, &files)
    };

    if json {
        for f in &report.findings {
            println!("{}", f.to_json());
        }
    } else {
        for f in &report.findings {
            println!("{f}");
            println!("    rationale: {}", f.rationale);
        }
        if report.findings.is_empty() {
            println!("gd-lint: {} files clean", report.files_scanned);
        } else {
            println!(
                "gd-lint: {} finding(s) in {} files scanned",
                report.findings.len(),
                report.files_scanned
            );
        }
    }
    if report.findings.is_empty() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
