//! Fixture suite for the gd-lint rule catalog.
//!
//! Every file under `tests/fixtures/<rule>/` is a known-bad or
//! known-good snippet:
//!
//! - `bad_*.rs` carries `//~ <rule>` markers on each line where a
//!   finding is expected; the engine must report *exactly* those
//!   (line, rule) pairs, no more, no fewer.
//! - `good_*.rs` must lint completely clean.
//!
//! Fixtures carry a `// gd-lint-fixture: path=…` header remapping them
//! into the crate whose scoping they exercise (the corpus itself is
//! excluded from workspace walks).

use gd_lint::lint_source;
use std::fs;
use std::path::{Path, PathBuf};

fn fixture_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures")
}

fn fixture_files() -> Vec<PathBuf> {
    let mut out = Vec::new();
    for rule_dir in fs::read_dir(fixture_root())
        .expect("fixture corpus exists")
        .flatten()
    {
        if !rule_dir.path().is_dir() {
            continue;
        }
        for f in fs::read_dir(rule_dir.path())
            .expect("rule dir readable")
            .flatten()
        {
            if f.path().extension().is_some_and(|e| e == "rs") {
                out.push(f.path());
            }
        }
    }
    out.sort();
    out
}

/// `(line, rule)` pairs declared by `//~ <rule>` markers.
fn expected_markers(text: &str) -> Vec<(u32, String)> {
    let mut out = Vec::new();
    for (idx, line) in text.lines().enumerate() {
        if let Some(pos) = line.find("//~") {
            let rule = line[pos + 3..].trim().to_string();
            assert!(!rule.is_empty(), "empty //~ marker on line {}", idx + 1);
            out.push((idx as u32 + 1, rule));
        }
    }
    out
}

#[test]
fn corpus_has_at_least_two_pairs_per_lint() {
    let files = fixture_files();
    for rule in [
        "unit_safety",
        "panic_path",
        "float_order",
        "sim_purity",
        "silent_clamp",
        "map_order",
    ] {
        let bad = files
            .iter()
            .filter(|f| {
                f.parent().is_some_and(|p| p.ends_with(rule))
                    && f.file_name()
                        .and_then(|n| n.to_str())
                        .is_some_and(|n| n.starts_with("bad_"))
            })
            .count();
        let good = files
            .iter()
            .filter(|f| {
                f.parent().is_some_and(|p| p.ends_with(rule))
                    && f.file_name()
                        .and_then(|n| n.to_str())
                        .is_some_and(|n| n.starts_with("good_"))
            })
            .count();
        assert!(bad >= 2, "lint {rule} needs >= 2 bad fixtures, has {bad}");
        assert!(
            good >= 2,
            "lint {rule} needs >= 2 good fixtures, has {good}"
        );
    }
}

#[test]
fn bad_fixtures_produce_exactly_the_marked_findings() {
    for file in fixture_files() {
        let name = file.file_name().and_then(|n| n.to_str()).unwrap_or("");
        if !name.starts_with("bad_") {
            continue;
        }
        let text = fs::read_to_string(&file).expect("fixture readable");
        let mut expected = expected_markers(&text);
        assert!(
            !expected.is_empty(),
            "{} is a bad fixture with no //~ markers",
            file.display()
        );
        let mut got: Vec<(u32, String)> = lint_source(&file, &text)
            .into_iter()
            .map(|f| (f.line, f.rule))
            .collect();
        expected.sort();
        got.sort();
        assert_eq!(
            got,
            expected,
            "{}: findings do not match //~ markers",
            file.display()
        );
    }
}

#[test]
fn good_fixtures_are_clean() {
    for file in fixture_files() {
        let name = file.file_name().and_then(|n| n.to_str()).unwrap_or("");
        if !name.starts_with("good_") {
            continue;
        }
        let text = fs::read_to_string(&file).expect("fixture readable");
        let findings = lint_source(&file, &text);
        assert!(
            findings.is_empty(),
            "{}: expected clean, got:\n{}",
            file.display(),
            findings
                .iter()
                .map(|f| f.to_string())
                .collect::<Vec<_>>()
                .join("\n")
        );
    }
}

#[test]
fn every_fixture_declares_a_scoped_path() {
    for file in fixture_files() {
        let text = fs::read_to_string(&file).expect("fixture readable");
        assert!(
            text.lines()
                .next()
                .is_some_and(|l| l.contains("gd-lint-fixture: path=")),
            "{}: first line must carry a gd-lint-fixture path header",
            file.display()
        );
    }
}
