//! Repo-specific static analysis enforcing the determinism contract.
//!
//! Everything this reproduction claims rests on one invariant: scenario
//! output is byte-identical regardless of thread layout, fault plan,
//! metrics plane, or LPM engine. The digest tests enforce that
//! dynamically, after the fact; `tidy` enforces it statically, at the
//! source level, so a violation fails the build before any digest can
//! drift. It is a plain file/line analyzer in the mold of rust-lang's
//! `tidy` tool — no syn, no crates.io deps — run three ways:
//!
//! * `cargo run -p tidy` (add `--json` for machine-readable findings,
//!   `--fix-baselines` to refresh the unwrap ratchet, `--list` for the
//!   lint catalogue),
//! * the tier-1 integration test `crates/tidy/tests/workspace.rs`, so
//!   `cargo test -q` gates it,
//! * a dedicated CI step.
//!
//! # Lint catalogue
//!
//! | lint | contract |
//! |------|----------|
//! | `nondeterministic-iteration` | no hash-order iteration of std `HashMap`/`HashSet` |
//! | `ambient-rng` | every RNG is seeded from logical coordinates |
//! | `wall-clock` | no `Instant::now`/`SystemTime::now` outside the timing allowlist |
//! | `undocumented-unsafe` | every `unsafe` carries an adjacent `// SAFETY:` comment |
//! | `raw-stderr` | diagnostics go through `obs::log`, not `eprintln!` |
//! | `unchecked-env` | no `std::env::var` outside `obs::log` and the `repro` CLI |
//! | `raw-thread` | no `thread::scope`/`thread::spawn`/`available_parallelism` outside `obs::par` |
//! | `unwrap-ratchet` | per-crate `.unwrap()`/`.expect(` counts may only go down |
//!
//! # Suppression
//!
//! A finding can be waived in place with a justified directive in a plain
//! line comment — trailing the offending line or standing alone on the
//! line(s) just above it:
//!
//! ```text
//! for (name, agg) in spans.iter() { // tidy:allow(nondeterministic-iteration): folded into a commutative sum
//! ```
//!
//! The reason after the colon is mandatory, the lint name must exist, and
//! a directive that suppresses nothing is itself an error
//! (`stale-allow`) — so allows cannot outlive the code they excuse.
//! Directives are only read from plain `//` comments; rustdoc prose (like
//! this page) never creates one.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod lints;
pub mod source;
pub mod walk;

use source::SourceFile;
use std::path::Path;

/// One lint violation (or meta-finding about a directive/baseline).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Finding {
    /// Lint name (`nondeterministic-iteration`, …, or the meta lints
    /// `stale-allow` / `bad-allow`).
    pub lint: &'static str,
    /// Workspace-relative file path.
    pub file: String,
    /// 1-based line, or 0 for file/crate-level findings.
    pub line: usize,
    /// Human-readable explanation naming the fix.
    pub message: String,
}

impl Finding {
    /// `path:line: [lint] message` (line elided when 0).
    pub fn render(&self) -> String {
        if self.line == 0 {
            format!("{}: [{}] {}", self.file, self.lint, self.message)
        } else {
            format!(
                "{}:{}: [{}] {}",
                self.file, self.line, self.lint, self.message
            )
        }
    }

    /// One JSON object, hand-rolled so the engine stays dependency-free.
    pub fn to_json(&self) -> String {
        format!(
            "{{\"lint\":\"{}\",\"file\":\"{}\",\"line\":{},\"message\":\"{}\"}}",
            json_escape(self.lint),
            json_escape(&self.file),
            self.line,
            json_escape(&self.message)
        )
    }
}

/// Result of one engine run.
#[derive(Debug)]
pub struct Outcome {
    /// Surviving findings, sorted by (file, line, lint).
    pub findings: Vec<Finding>,
    /// Number of source files scanned.
    pub files_scanned: usize,
}

impl Outcome {
    /// The whole report as one JSON document.
    pub fn to_json(&self) -> String {
        let rows: Vec<String> = self.findings.iter().map(Finding::to_json).collect();
        format!(
            "{{\"schema\":\"tidy-findings/1\",\"files_scanned\":{},\"total\":{},\
             \"findings\":[{}]}}",
            self.files_scanned,
            self.findings.len(),
            rows.join(",")
        )
    }
}

/// Run every registered lint over the workspace rooted at `root`.
///
/// `fix_baselines` rewrites the unwrap-ratchet baseline to the current
/// counts instead of comparing against it.
pub fn run(root: &Path, fix_baselines: bool) -> Result<Outcome, String> {
    let files = walk::workspace_sources(root)?;
    let mut lints = lints::registry(root, fix_baselines);
    let mut raw: Vec<Finding> = Vec::new();
    let mut parsed: Vec<SourceFile> = Vec::new();
    for rel in &files {
        let text =
            std::fs::read_to_string(root.join(rel)).map_err(|e| format!("read {rel}: {e}"))?;
        let file = SourceFile::parse(rel, &text);
        for lint in lints.iter_mut() {
            lint.check_file(&file, &mut raw);
        }
        parsed.push(file);
    }
    for lint in lints.iter_mut() {
        lint.finish(&mut raw);
    }
    let known: Vec<&'static str> = lints.iter().map(|l| l.name()).collect();
    let mut findings = apply_directives(&parsed, raw, &known);
    findings
        .sort_by(|a, b| (a.file.as_str(), a.line, a.lint).cmp(&(b.file.as_str(), b.line, b.lint)));
    Ok(Outcome {
        findings,
        files_scanned: files.len(),
    })
}

/// Check a single in-memory source against the line lints — the fixture
/// tests' entry point. (The workspace-level unwrap ratchet is excluded:
/// it needs the committed baseline.)
pub fn check_source(rel_path: &str, text: &str) -> Vec<Finding> {
    let file = SourceFile::parse(rel_path, text);
    let mut raw = Vec::new();
    let mut lints = lints::line_registry();
    for lint in lints.iter_mut() {
        lint.check_file(&file, &mut raw);
    }
    let known: Vec<&'static str> = lints.iter().map(|l| l.name()).collect();
    let mut findings = apply_directives(std::slice::from_ref(&file), raw, &known);
    findings
        .sort_by(|a, b| (a.file.as_str(), a.line, a.lint).cmp(&(b.file.as_str(), b.line, b.lint)));
    findings
}

/// Drop findings covered by a well-formed `tidy:allow` directive; report
/// malformed (`bad-allow`) and unused (`stale-allow`) directives.
fn apply_directives(
    files: &[SourceFile],
    raw: Vec<Finding>,
    known: &[&'static str],
) -> Vec<Finding> {
    let mut out = Vec::new();
    // (file, directive index) -> used?
    let mut used: Vec<Vec<bool>> = files
        .iter()
        .map(|f| vec![false; f.directives.len()])
        .collect();
    'finding: for finding in raw {
        for (fi, file) in files.iter().enumerate() {
            if file.rel_path != finding.file {
                continue;
            }
            for (di, d) in file.directives.iter().enumerate() {
                let well_formed =
                    !d.malformed && !d.reason.is_empty() && known.contains(&d.lint.as_str());
                if well_formed && d.lint == finding.lint && d.target == Some(finding.line) {
                    used[fi][di] = true;
                    continue 'finding;
                }
            }
        }
        out.push(finding);
    }
    for (fi, file) in files.iter().enumerate() {
        for (di, d) in file.directives.iter().enumerate() {
            if d.malformed {
                out.push(Finding {
                    lint: "bad-allow",
                    file: file.rel_path.clone(),
                    line: d.line,
                    message: "malformed directive — syntax is \
                              `tidy:allow(lint-name): <reason>`"
                        .to_string(),
                });
            } else if d.reason.is_empty() {
                out.push(Finding {
                    lint: "bad-allow",
                    file: file.rel_path.clone(),
                    line: d.line,
                    message: format!(
                        "tidy:allow({}) has no reason — justify the suppression after a colon",
                        d.lint
                    ),
                });
            } else if !known.contains(&d.lint.as_str()) {
                out.push(Finding {
                    lint: "bad-allow",
                    file: file.rel_path.clone(),
                    line: d.line,
                    message: format!(
                        "tidy:allow({}) names an unknown lint — run `tidy --list` for the \
                         catalogue",
                        d.lint
                    ),
                });
            } else if !used[fi][di] {
                out.push(Finding {
                    lint: "stale-allow",
                    file: file.rel_path.clone(),
                    line: d.line,
                    message: format!(
                        "stale tidy:allow({}) — no matching finding on its target line; \
                         delete the directive",
                        d.lint
                    ),
                });
            }
        }
    }
    out
}

fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
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
    out
}
