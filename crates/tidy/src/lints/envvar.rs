//! `unchecked-env` — ambient process environment read inside the library.
//!
//! An environment variable is invisible ambient state: two runs with the
//! same `RunConfig` but different environments must still produce
//! byte-identical output. Only two surfaces may consult the environment —
//! the `REPRO_LOG` level probe in `obs::log` (diagnostics volume, never
//! data) and the `repro` CLI entry point (which turns flags and env into
//! an explicit `RunConfig`).

use super::banned::Banned;

/// See the module docs.
pub const UNCHECKED_ENV: Banned = Banned {
    name: "unchecked-env",
    description: "std::env::var outside obs::log and the repro CLI entry point",
    allowed_files: &["crates/obs/src/log.rs", "crates/experiments/src/main.rs"],
    patterns: &["env::var", "env::vars", "env::var_os"],
    advice: "reads ambient environment — thread the value through RunConfig (or read it \
             in the CLI entry point) instead",
};
