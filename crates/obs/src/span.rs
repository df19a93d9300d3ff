//! Scoped span timers with deterministic nesting paths.
//!
//! Each thread keeps a current nesting path (a `/`-joined string of static
//! span names). Opening a span appends its name; dropping the guard records
//! the elapsed wall-clock under the full path and truncates back. Worker
//! threads spawned by a fan-out start with an *empty* path, which would
//! detach their spans from the stage that spawned them — and worse, make the
//! set of observed paths depend on the thread layout. [`current_span_path`] /
//! [`enter_path`] exist for exactly that seam: the spawning side captures its
//! path before the fan-out and each worker re-enters it, so span paths (and
//! per-path counts) are identical whether the work ran inline or on eight
//! threads. [`crate::par::fan_out`] is the one caller of that seam.

use std::cell::RefCell;
use std::time::Instant;

thread_local! {
    static PATH: RefCell<String> = const { RefCell::new(String::new()) };
}

/// RAII guard for an open span; created by [`crate::span!`].
#[must_use = "a span records its duration when the guard drops"]
pub struct SpanGuard {
    start: Option<Instant>,
    prev_len: usize,
}

impl SpanGuard {
    /// Open a span named `name` nested under the thread's current path.
    /// Inert (no clock read, no thread-local touched) while the plane is
    /// disabled.
    pub fn enter(name: &str) -> SpanGuard {
        if !crate::enabled() {
            return SpanGuard {
                start: None,
                prev_len: 0,
            };
        }
        let prev_len = PATH.with(|p| {
            let mut p = p.borrow_mut();
            let len = p.len();
            if !p.is_empty() {
                p.push('/');
            }
            p.push_str(name);
            len
        });
        SpanGuard {
            start: Some(Instant::now()),
            prev_len,
        }
    }
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        let Some(start) = self.start else { return };
        let ns = u64::try_from(start.elapsed().as_nanos()).unwrap_or(u64::MAX);
        PATH.with(|p| {
            let mut p = p.borrow_mut();
            crate::metrics::record_span(&p, ns);
            p.truncate(self.prev_len);
        });
    }
}

/// The calling thread's current span nesting path (`""` when no span is
/// open or the plane is disabled). Capture this before a fan-out and hand it
/// to each worker via [`enter_path`].
pub(crate) fn current_span_path() -> String {
    if !crate::enabled() {
        return String::new();
    }
    PATH.with(|p| p.borrow().clone())
}

/// Guard restoring the previous span path on drop; see [`enter_path`].
#[must_use = "the inherited span path is dropped with the guard"]
pub(crate) struct PathGuard {
    prev: Option<String>,
}

/// Adopt `path` as the calling thread's span nesting path, restoring the
/// previous path when the guard drops. Inert when `path` is empty or the
/// plane is disabled.
pub(crate) fn enter_path(path: &str) -> PathGuard {
    if !crate::enabled() || path.is_empty() {
        return PathGuard { prev: None };
    }
    let prev = PATH.with(|p| std::mem::replace(&mut *p.borrow_mut(), path.to_owned()));
    PathGuard { prev: Some(prev) }
}

/// Detach the calling thread to the root span path until the guard drops.
/// For work whose call site depends on the thread layout — a lazily built
/// cache that whichever worker asks first fills — so its spans record
/// under the same top-level path at any layout. Inert while the plane is
/// disabled.
#[must_use = "the root path is left when the guard drops"]
pub fn enter_root() -> impl Drop {
    if !crate::enabled() {
        return PathGuard { prev: None };
    }
    let prev = PATH.with(|p| std::mem::take(&mut *p.borrow_mut()));
    PathGuard { prev: Some(prev) }
}

impl Drop for PathGuard {
    fn drop(&mut self) {
        if let Some(prev) = self.prev.take() {
            PATH.with(|p| *p.borrow_mut() = prev);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn root_path_detaches_and_restores() {
        crate::reset();
        crate::set_enabled(true);

        {
            let _stage = crate::span!("stage");
            {
                let _root = enter_root();
                let _build = crate::span!("cache-build");
            }
            assert_eq!(current_span_path(), "stage", "path restored");
            let _work = crate::span!("work");
        }

        let report = crate::snapshot();
        crate::set_enabled(false);

        let paths: Vec<&str> = report.spans.iter().map(|s| s.path.as_str()).collect();
        assert_eq!(paths, ["cache-build", "stage", "stage/work"]);
    }
}
