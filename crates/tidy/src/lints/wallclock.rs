//! `wall-clock` — real time observed inside the simulation.
//!
//! Scenario output must be a pure function of the run configuration, so
//! `Instant::now()` / `SystemTime::now()` may not influence anything a
//! digest covers. The built-in allowlist holds the three sanctioned timing
//! surfaces — the `obs` span plane, the bench-snapshot prober, and the
//! `Session` build-time diagnostics — all of which keep elapsed time out
//! of scenario digests. Test and bench files may time freely.

use super::banned::Banned;

/// See the module docs.
pub const WALL_CLOCK: Banned = Banned {
    name: "wall-clock",
    description:
        "Instant::now/SystemTime::now outside the obs-span/bench-snapshot/session allowlist",
    // The diagnostics-only surfaces sanctioned to read the clock.
    allowed_files: &[
        "crates/obs/src/span.rs",
        "crates/experiments/src/bench_snapshot.rs",
        "crates/experiments/src/session.rs",
    ],
    patterns: &["Instant::now", "SystemTime::now"],
    advice: "outside the timing allowlist — route through obs spans or justify with a \
             tidy:allow directive",
};
