//! gd-lint: the AST-level static-analysis gate for the GreenDIMM
//! workspace.
//!
//! gd-lint parses every `.rs` file to a token stream with structural
//! context (delimiter matching, test regions, attributes) and runs a
//! pluggable catalog of lints with span-accurate diagnostics:
//!
//! | rule id       | what it enforces                                        |
//! |---------------|---------------------------------------------------------|
//! | `unit-safety` | unit-carrying values convert via gd-types newtypes      |
//! | `panic-path`  | no anonymous panics in the hot simulation crates        |
//! | `float-order` | no float accumulation over hash-order iteration         |
//! | `sim-purity`  | no wall-clock reads or entropy RNGs anywhere            |
//! | `silent-clamp`| no `.max(0.0)` on IDD deltas, no `.clamp(0.0, 1.0)`     |
//! | `map-order`   | no `HashMap` in the sweep/figure and telemetry crates   |
//!
//! A finding is suppressed by `// gd-lint: allow(<rule>)` on the
//! offending line or the line directly above. See DESIGN.md §10 for the
//! catalog, the allow syntax, and how to add a lint.
//!
//! Run the binary with `cargo run -p gd-lint` (human output) or
//! `cargo run -p gd-lint -- --json` (one JSON object per finding).

pub mod lexer;
pub mod lints;
pub mod source;

use source::SourceFile;
use std::fmt;
use std::fs;
use std::path::{Path, PathBuf};

/// One diagnostic: rule, span, message, rationale.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Finding {
    pub rule: String,
    pub file: PathBuf,
    pub line: u32,
    pub col: u32,
    pub message: String,
    pub rationale: String,
}

impl Finding {
    /// Builds a finding anchored at `line:col` of `file`.
    pub fn new(
        rule: &str,
        file: &SourceFile,
        line: u32,
        col: u32,
        message: String,
        rationale: &str,
    ) -> Finding {
        Finding {
            rule: rule.to_string(),
            file: file.rel_path.clone(),
            line,
            col,
            message,
            rationale: rationale.to_string(),
        }
    }

    /// Renders the finding as one JSON object (JSON Lines output). The
    /// encoder is local because the workspace carries no serde.
    pub fn to_json(&self) -> String {
        format!(
            "{{\"rule\":{},\"file\":{},\"line\":{},\"col\":{},\"message\":{},\"rationale\":{}}}",
            json_str(&self.rule),
            json_str(&self.file.display().to_string()),
            self.line,
            self.col,
            json_str(&self.message),
            json_str(&self.rationale),
        )
    }
}

impl fmt::Display for Finding {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}:{}:{}: [{}] {}",
            self.file.display(),
            self.line,
            self.col,
            self.rule,
            self.message
        )
    }
}

/// Minimal JSON string encoder (quotes, backslashes, control chars).
fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            '\r' => out.push_str("\\r"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// Lints one source text under a workspace-relative path. Applies allow
/// directives and sorts findings by (file, line, col, rule).
pub fn lint_source(rel_path: &Path, src: &str) -> Vec<Finding> {
    let file = SourceFile::parse(rel_path, src);
    let mut findings = Vec::new();
    for err in &file.errors {
        findings.push(Finding {
            rule: "parse-error".to_string(),
            file: file.rel_path.clone(),
            line: err.line,
            col: err.col,
            message: err.message.clone(),
            rationale: "gd-lint could not tokenize this file; fix the source or report a lexer gap"
                .to_string(),
        });
    }
    for lint in lints::all() {
        let before = findings.len();
        lint.check(&file, &mut findings);
        // Lints must tag findings with their own id; debug-check it.
        debug_assert!(findings[before..].iter().all(|f| f.rule == lint.id()));
    }
    findings.retain(|f| !file.allowed(f.line, &f.rule));
    findings
        .sort_by(|a, b| (&a.file, a.line, a.col, &a.rule).cmp(&(&b.file, b.line, b.col, &b.rule)));
    findings
}

/// Directories under the workspace root that hold Rust sources.
pub const ROOTS: &[&str] = &["crates", "src", "tests", "examples", "benches"];

/// Recursively collects `.rs` files, skipping build output and the lint
/// fixture corpus (fixtures are deliberately bad code, exercised by the
/// fixture tests with pseudo-paths instead).
pub fn collect_rs_files(dir: &Path, out: &mut Vec<PathBuf>) {
    let Ok(entries) = fs::read_dir(dir) else {
        return;
    };
    for entry in entries.flatten() {
        let path = entry.path();
        if path.is_dir() {
            let name = path.file_name().and_then(|n| n.to_str()).unwrap_or("");
            if name == "target" {
                continue;
            }
            if name == "fixtures" && dir.file_name().is_some_and(|n| n == "tests") {
                continue;
            }
            collect_rs_files(&path, out);
        } else if path.extension().is_some_and(|e| e == "rs") {
            out.push(path);
        }
    }
}

/// Result of a workspace run.
pub struct Report {
    pub findings: Vec<Finding>,
    pub files_scanned: usize,
}

/// Lints every Rust source under `workspace`'s source roots.
pub fn lint_workspace(workspace: &Path) -> Report {
    let mut files = Vec::new();
    for root in ROOTS {
        collect_rs_files(&workspace.join(root), &mut files);
    }
    files.sort();
    lint_files(workspace, &files)
}

/// Lints an explicit file list; paths are made workspace-relative for
/// rule scoping (fixture headers may override further).
pub fn lint_files(workspace: &Path, files: &[PathBuf]) -> Report {
    let mut findings = Vec::new();
    let mut scanned = 0usize;
    for file in files {
        let Ok(text) = fs::read_to_string(file) else {
            continue;
        };
        scanned += 1;
        let rel = file.strip_prefix(workspace).unwrap_or(file);
        findings.extend(lint_source(rel, &text));
    }
    findings
        .sort_by(|a, b| (&a.file, a.line, a.col, &a.rule).cmp(&(&b.file, b.line, b.col, &b.rule)));
    Report {
        findings,
        files_scanned: scanned,
    }
}

/// Locates the workspace root from this crate's manifest directory.
pub fn workspace_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .ancestors()
        .nth(2)
        .expect("crates/lint has the workspace root two levels up")
        .to_path_buf()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn json_escaping() {
        assert_eq!(json_str("a\"b\\c\nd"), "\"a\\\"b\\\\c\\nd\"");
    }

    #[test]
    fn allow_directive_suppresses() {
        let src = "fn f(v: &[u64], i: usize) -> u64 { v[i + 1] }\n";
        let bad = lint_source(Path::new("crates/dram/src/x.rs"), src);
        assert_eq!(bad.len(), 1, "expected one panic-path finding");
        let allowed =
            "fn f(v: &[u64], i: usize) -> u64 { v[i + 1] } // gd-lint: allow(panic-path)\n";
        assert!(lint_source(Path::new("crates/dram/src/x.rs"), allowed).is_empty());
    }

    #[test]
    fn panic_path_covers_the_hot_crates_only() {
        let src = "fn f(m: &std::collections::BTreeMap<u32, u64>) -> u64 { *m.get(&1).unwrap() }\n";
        for krate in ["dram", "mmsim", "ksm", "core", "fleet", "power"] {
            let path = format!("crates/{krate}/src/x.rs");
            let fs = lint_source(Path::new(&path), src);
            assert!(fs.iter().any(|f| f.rule == "panic-path"), "{path}");
        }
        assert!(lint_source(Path::new("crates/bench/src/x.rs"), src).is_empty());
    }

    #[test]
    fn findings_are_sorted_and_spanned() {
        let src = "fn f(m: &std::collections::HashMap<u32, f64>) -> f64 {\n    let a = m.values().sum::<f64>();\n    a\n}\n";
        let fs = lint_source(Path::new("crates/core/src/x.rs"), src);
        assert_eq!(fs.len(), 1);
        assert_eq!(fs[0].rule, "float-order");
        assert_eq!(fs[0].line, 2);
        assert!(fs[0].col > 1);
    }

    #[test]
    fn parse_error_is_reported() {
        let fs = lint_source(
            Path::new("crates/x/src/x.rs"),
            "fn f() { let s = \"oops; }\n",
        );
        assert!(fs.iter().any(|f| f.rule == "parse-error"));
    }
}
