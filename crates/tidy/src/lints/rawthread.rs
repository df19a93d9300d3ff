//! `raw-thread` — a thread pool grown outside the one fan-out.
//!
//! Every parallel stage runs on `obs::par`: its workers inherit the
//! caller's span path (so telemetry is layout-invariant), it returns
//! results in task order, and `obs::par::default_threads` is the one
//! default worker count. A hand-rolled `thread::scope`/`thread::spawn`
//! split or an `available_parallelism` probe elsewhere skips all three,
//! and the `--threads` flag stops reaching that stage. Tests may spawn
//! threads freely.

use super::banned::Banned;

/// See the module docs.
pub const RAW_THREAD: Banned = Banned {
    name: "raw-thread",
    description: "thread::scope/thread::spawn/available_parallelism outside obs::par",
    // The fan-out itself — the one sanctioned spawn site.
    allowed_files: &["crates/obs/src/par.rs"],
    patterns: &["thread::scope", "thread::spawn", "available_parallelism"],
    advice: "outside obs::par — fan the work out with obs::par::fan_out (or \
             fan_out_ordered) and size it from the caller's thread count or \
             obs::par::default_threads",
};
