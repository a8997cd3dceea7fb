//! `dr-lint` — the determinism static-analysis pass for this workspace.
//!
//! Everything the repo promises about reproducibility — bit-identical
//! schedule replay (`ReplayAdversary` + `RunReport::fingerprint`),
//! seed-equivalent parallel trials, 1-minimal chaos repros — rests on the
//! simulator and protocols being strictly deterministic. This crate makes
//! that a compiler-grade gate instead of a convention: it walks every
//! `.rs` file under `crates/`, tokenizes it with its own lightweight
//! lexer (no `syn`), and enforces repo-specific rules per crate tier:
//!
//! | rule | deterministic tier | tooling tier |
//! |---|---|---|
//! | `unordered-collections` | always | only in files touching `ScheduleTrace`/`RunReport` |
//! | `wall-clock` | always | — |
//! | `entropy-rng` | always | — |
//! | `missing-forbid-unsafe` | `lib.rs` roots | — |
//! | `bad-allow` | always | always |
//! | `payload-clone` | always | — |
//! | `raw-thread-spawn` | always | always |
//! | `atomic-ordering` | always | always |
//! | `lock-discipline` | always | always |
//! | `sync-primitive-outside-facade` | always | always |
//!
//! The deterministic tier is `core`, `sim`, `protocols`, `oracle`; the
//! tooling tier is `bench`, `cli`, `runtime`, and `lint` itself.
//!
//! The concurrency rules share two carve-outs: the sync facade
//! (`crates/core/src/sync.rs`) is the sanctioned owner of raw primitives,
//! and files driving the vendored `loom` checker are the modelling layer
//! itself. Everywhere else — the trial fan-out in `dr_bench::par`
//! included — an OS thread, an explicit `Ordering::*`, a nested lock
//! guard, or a raw primitive construction needs an anchored
//! `dr-lint: allow(<rule>): <justification>`.
//!
//! Escape hatch: a comment of the form
//! `// dr-lint: allow(<rule>): <justification>` suppresses that rule on
//! its own line (trailing comment) or the next line (standalone comment).
//! The justification is mandatory — an allow without one is itself a
//! diagnostic.
//!
//! Run it with `cargo run -p dr-lint` (or `dr lint`); `--json` emits
//! machine-readable diagnostics with file:line:col spans.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod rules;
pub mod tokenizer;

pub use rules::{
    check_source, ALL_RULES, RULE_ATOMIC_ORDERING, RULE_BAD_ALLOW, RULE_ENTROPY_RNG,
    RULE_FORBID_UNSAFE, RULE_LOCK_DISCIPLINE, RULE_PAYLOAD_CLONE, RULE_RAW_THREAD,
    RULE_SYNC_OUTSIDE_FACADE, RULE_UNORDERED, RULE_WALL_CLOCK,
};

use std::fmt::Write as _;
use std::path::{Path, PathBuf};

/// Crate tier controlling which rules apply.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Tier {
    /// Crates whose behaviour must be a pure function of the seed:
    /// `core`, `sim`, `protocols`, `oracle`. Full rule set.
    Deterministic,
    /// Harness/driver crates (`bench`, `cli`, `runtime`, `lint`):
    /// wall clocks allowed; unordered maps flagged only where they feed
    /// the replay artifacts.
    Tooling,
}

impl Tier {
    /// Stable lowercase name used in reports.
    pub fn name(self) -> &'static str {
        match self {
            Tier::Deterministic => "deterministic",
            Tier::Tooling => "tooling",
        }
    }
}

/// Crates in the deterministic tier (directory names under `crates/`).
pub const DETERMINISTIC_CRATES: &[&str] = &["core", "sim", "protocols", "oracle"];

/// Classifies a crate directory name into its tier.
pub fn tier_of_crate(crate_dir: &str) -> Tier {
    if DETERMINISTIC_CRATES.contains(&crate_dir) {
        Tier::Deterministic
    } else {
        Tier::Tooling
    }
}

/// One finding with a `file:line:col` span.
#[derive(Debug, Clone)]
pub struct Diagnostic {
    /// Path relative to the workspace root.
    pub file: String,
    /// 1-based line.
    pub line: usize,
    /// 1-based column.
    pub col: usize,
    /// Rule name (one of [`ALL_RULES`]).
    pub rule: &'static str,
    /// What is wrong.
    pub message: String,
    /// How to fix it.
    pub suggestion: String,
}

/// Result of linting a workspace.
#[derive(Debug, Default)]
pub struct Report {
    /// Number of `.rs` files scanned.
    pub files_scanned: usize,
    /// All findings, ordered by (file, line, col).
    pub diagnostics: Vec<Diagnostic>,
}

impl Report {
    /// Whether the workspace is clean.
    pub fn is_clean(&self) -> bool {
        self.diagnostics.is_empty()
    }
}

fn is_lib_rs(path: &Path) -> bool {
    path.file_name().is_some_and(|f| f == "lib.rs")
        && path.parent().is_some_and(|p| p.ends_with("src"))
}

fn walk_rs_files(dir: &Path, out: &mut Vec<PathBuf>) -> std::io::Result<()> {
    let mut entries: Vec<PathBuf> = std::fs::read_dir(dir)?
        .filter_map(|e| e.ok().map(|e| e.path()))
        .collect();
    // Deterministic traversal order (the linter practices what it
    // preaches: its own output order must not depend on readdir order).
    entries.sort();
    for path in entries {
        let name = path.file_name().and_then(|n| n.to_str()).unwrap_or("");
        if path.is_dir() {
            // `fixtures/` holds intentional violations for self-tests;
            // `target/` holds build products.
            if name.starts_with('.') || name == "target" || name == "fixtures" {
                continue;
            }
            walk_rs_files(&path, out)?;
        } else if name.ends_with(".rs") {
            out.push(path);
        }
    }
    Ok(())
}

/// Finds the workspace root (a directory containing both `Cargo.toml` and
/// `crates/`) starting from `start` and walking up.
pub fn find_workspace_root(start: &Path) -> Option<PathBuf> {
    let mut dir = Some(start.to_path_buf());
    while let Some(d) = dir {
        if d.join("Cargo.toml").is_file() && d.join("crates").is_dir() {
            return Some(d);
        }
        dir = d.parent().map(Path::to_path_buf);
    }
    None
}

/// Lints every `.rs` file under `<root>/crates/`, classifying each crate
/// into its tier by directory name.
///
/// # Errors
///
/// Propagates I/O errors from walking or reading the tree.
pub fn lint_workspace(root: &Path) -> std::io::Result<Report> {
    let crates_dir = root.join("crates");
    let mut files = Vec::new();
    walk_rs_files(&crates_dir, &mut files)?;
    let mut report = Report::default();
    for path in files {
        let rel = path
            .strip_prefix(root)
            .unwrap_or(&path)
            .to_string_lossy()
            .replace('\\', "/");
        // `crates/<name>/...` → tier of `<name>`.
        let crate_dir = rel
            .strip_prefix("crates/")
            .and_then(|r| r.split('/').next())
            .unwrap_or("");
        let tier = tier_of_crate(crate_dir);
        let source = std::fs::read_to_string(&path)?;
        report.files_scanned += 1;
        report
            .diagnostics
            .extend(check_source(&rel, &source, tier, is_lib_rs(&path)));
    }
    report
        .diagnostics
        .sort_by(|a, b| (&a.file, a.line, a.col).cmp(&(&b.file, b.line, b.col)));
    Ok(report)
}

/// Renders a human-readable report with fix suggestions.
pub fn render_text(report: &Report) -> String {
    let mut out = String::new();
    for d in &report.diagnostics {
        let _ = writeln!(
            out,
            "{}:{}:{}: [{}] {}\n    fix: {}",
            d.file, d.line, d.col, d.rule, d.message, d.suggestion
        );
    }
    let _ = writeln!(
        out,
        "dr-lint: {} file(s) scanned, {} diagnostic(s)",
        report.files_scanned,
        report.diagnostics.len()
    );
    out
}

fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out
}

/// Renders the report as machine-readable JSON (no external JSON crate in
/// the vendored registry, so this is hand-assembled — the shape is stable
/// and covered by tests).
pub fn render_json(report: &Report) -> String {
    let mut out = String::new();
    out.push_str("{\n");
    let _ = writeln!(out, "  \"files_scanned\": {},", report.files_scanned);
    let _ = writeln!(out, "  \"diagnostics\": [");
    for (i, d) in report.diagnostics.iter().enumerate() {
        let comma = if i + 1 == report.diagnostics.len() {
            ""
        } else {
            ","
        };
        let _ = writeln!(
            out,
            "    {{\"file\": \"{}\", \"line\": {}, \"col\": {}, \"rule\": \"{}\", \"message\": \"{}\", \"suggestion\": \"{}\"}}{}",
            json_escape(&d.file),
            d.line,
            d.col,
            d.rule,
            json_escape(&d.message),
            json_escape(&d.suggestion),
            comma
        );
    }
    out.push_str("  ]\n}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tier_classification() {
        for c in ["core", "sim", "protocols", "oracle"] {
            assert_eq!(tier_of_crate(c), Tier::Deterministic);
        }
        for c in ["bench", "cli", "runtime", "lint", "unknown-crate"] {
            assert_eq!(tier_of_crate(c), Tier::Tooling);
        }
    }

    #[test]
    fn json_escaping_is_sound() {
        assert_eq!(json_escape("a\"b\\c\nd"), "a\\\"b\\\\c\\nd");
        assert_eq!(json_escape("\u{1}"), "\\u0001");
    }

    #[test]
    fn lib_rs_detection() {
        assert!(is_lib_rs(Path::new("crates/core/src/lib.rs")));
        assert!(!is_lib_rs(Path::new("crates/core/src/bits.rs")));
        assert!(!is_lib_rs(Path::new("crates/core/tests/lib.rs")));
    }
}
