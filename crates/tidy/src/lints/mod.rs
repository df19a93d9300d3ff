//! The lint registry.
//!
//! Each lint is a plain-line heuristic over a [`SourceFile`]; the engine
//! feeds every scanned file to every lint, then calls [`Lint::finish`] once
//! for workspace-level checks (the unwrap ratchet). Findings carry the lint
//! name, workspace-relative file, 1-based line, and a human message; the
//! engine handles `tidy:allow` suppression afterwards, so lints report
//! unconditionally.

use crate::source::SourceFile;
use crate::Finding;

pub mod banned;
pub mod envvar;
pub mod iteration;
pub mod ratchet;
pub mod rawthread;
pub mod rng;
pub mod stderr;
pub mod unsafety;
pub mod wallclock;

/// One determinism-contract check.
pub trait Lint {
    /// Registry name, used in findings and `tidy:allow(name)` directives.
    fn name(&self) -> &'static str;
    /// One-line catalogue description (`tidy --list`).
    fn description(&self) -> &'static str;
    /// Scan one file, appending findings.
    fn check_file(&mut self, file: &SourceFile, sink: &mut Vec<Finding>);
    /// Called once after every file has been scanned (workspace-level
    /// lints accumulate in `check_file` and report here).
    fn finish(&mut self, _sink: &mut Vec<Finding>) {}
}

/// All registered lints, in catalogue order.
pub fn registry(root: &std::path::Path, fix_baselines: bool) -> Vec<Box<dyn Lint>> {
    let mut lints = line_registry();
    lints.push(Box::new(ratchet::UnwrapRatchet::new(root, fix_baselines)));
    lints
}

/// The per-line lints only — everything except the workspace-level unwrap
/// ratchet (which needs the committed baseline file).
pub fn line_registry() -> Vec<Box<dyn Lint>> {
    vec![
        Box::new(iteration::NondeterministicIteration),
        Box::new(rng::AmbientRng),
        Box::new(wallclock::WALL_CLOCK),
        Box::new(unsafety::UndocumentedUnsafe),
        Box::new(stderr::RawStderr),
        Box::new(envvar::UNCHECKED_ENV),
        Box::new(rawthread::RAW_THREAD),
    ]
}
