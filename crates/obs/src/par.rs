//! Deterministic fan-out over scoped worker threads.
//!
//! Every parallel stage of the suite — the crawl's sites, residences, days
//! inside a residence, ISPs in a provider sweep, subscriber shards — uses
//! this one primitive instead of growing per-call-site thread pools. It
//! lives in `obs` because it is the one place workers must inherit the
//! spawning thread's span path (see the `span` module). The determinism
//! contract is the caller's: a task must derive all randomness from its
//! index argument alone, so the results are byte-identical at any thread
//! count.
//!
//! Scheduling is **work-stealing**: workers claim task indices from one
//! shared atomic counter over the canonical task list, so a worker that
//! drew cheap items keeps pulling instead of idling the way a static split
//! does. Completion order varies run to run; the *output* does not —
//! results are returned (or, in [`fan_out_ordered`], consumed) in task
//! order, and the caller's index-derived seeding makes each result
//! independent of which worker computed it.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

/// The default worker count: the CPUs this process may run on, capped at
/// eight (beyond that the suite's stages stop scaling). One when the
/// platform cannot say.
pub fn default_threads() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get().min(8))
        .unwrap_or(1)
}

/// Fan `items` out over up to `threads` scoped workers, returning results
/// in input order. Workers claim the next unstarted index from a shared
/// atomic queue (work-stealing); `threads <= 1` runs inline.
/// Thread-count invariance is the *caller's* contract: `f` must derive all
/// randomness from its index argument alone.
pub fn fan_out<T: Send, R: Send>(
    items: Vec<T>,
    threads: usize,
    f: impl Fn(usize, T) -> R + Sync,
) -> Vec<R> {
    let threads = threads.max(1).min(items.len().max(1));
    if threads == 1 {
        return items
            .into_iter()
            .enumerate()
            .map(|(i, x)| f(i, x))
            .collect();
    }
    let n = items.len();
    // The task queue: each slot holds one input item; the atomic cursor is
    // the next unclaimed index. `Mutex<Option<T>>` hands the item to exactly
    // one worker without unsafe code; the lock is uncontended by construction
    // (an index is claimed once) so the cost is one CAS per task.
    let tasks: Vec<Mutex<Option<T>>> = items.into_iter().map(|x| Mutex::new(Some(x))).collect();
    let next = AtomicUsize::new(0);
    let tasks = &tasks;
    let next = &next;
    let f = &f;
    // Telemetry spans opened inside `f` must nest under the caller's span
    // path, not start fresh per worker thread — otherwise the set of span
    // paths (and per-path counts) would depend on the thread layout.
    let span_parent = crate::span::current_span_path();
    let span_parent = &span_parent;
    let results: Vec<Vec<(usize, R)>> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..threads)
            .map(|worker| {
                scope.spawn(move || {
                    let _span_path = crate::span::enter_path(span_parent);
                    let mut done: Vec<(usize, R)> = Vec::with_capacity(n / threads + 1);
                    // Tasks a static split would have given other workers.
                    // Diagnostic only: steal counts are scheduling-dependent,
                    // so they go to the debug log, never into `obs` metrics
                    // (the metrics fingerprint is layout-invariant by test).
                    let mut stolen = 0usize;
                    loop {
                        let i = next.fetch_add(1, Ordering::Relaxed);
                        if i >= n {
                            break;
                        }
                        let Some(x) = tasks[i].lock().ok().and_then(|mut slot| slot.take())
                        else {
                            continue;
                        };
                        if i % threads != worker {
                            stolen += 1;
                        }
                        done.push((i, f(i, x)));
                    }
                    crate::debug!(
                        "fan_out worker {worker}/{threads}: {} tasks ({stolen} stolen vs static split)",
                        done.len()
                    );
                    done
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| match h.join() {
                Ok(done) => done,
                Err(payload) => std::panic::resume_unwind(payload),
            })
            .collect()
    });
    // Put the per-worker completions back into input order.
    let mut done: Vec<(usize, R)> = results.into_iter().flatten().collect();
    done.sort_unstable_by_key(|&(i, _)| i);
    done.into_iter().map(|(_, r)| r).collect()
}

/// Fan `tasks` out like [`fan_out`], but hand each result to `consume` in
/// task order as soon as its window completes, so at most `2 × threads`
/// results are alive at once however long the task list is. Streaming
/// stages use this to flush buffered work (days, shards) to a sink in
/// canonical order with memory bounded by the window, not the run.
/// `threads <= 1` produces and consumes one task at a time, inline.
pub fn fan_out_ordered<T: Send, R: Send>(
    tasks: Vec<T>,
    threads: usize,
    produce: impl Fn(usize, T) -> R + Sync,
    mut consume: impl FnMut(usize, R),
) {
    let threads = threads.max(1);
    let window = if threads == 1 { 1 } else { 2 * threads };
    let mut tasks = tasks.into_iter().enumerate().peekable();
    while tasks.peek().is_some() {
        let chunk: Vec<(usize, T)> = tasks.by_ref().take(window).collect();
        for (i, r) in fan_out(chunk, threads, |_, (i, t)| (i, produce(i, t))) {
            consume(i, r);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn preserves_input_order() {
        for threads in [1, 2, 3, 7, 64] {
            let out = fan_out((0..50).collect(), threads, |i, x: i32| (i, x * 2));
            assert_eq!(out.len(), 50);
            for (i, (idx, doubled)) in out.iter().enumerate() {
                assert_eq!(*idx, i);
                assert_eq!(*doubled, i as i32 * 2);
            }
        }
    }

    #[test]
    fn empty_and_oversubscribed() {
        let out: Vec<u32> = fan_out(Vec::<u32>::new(), 8, |_, x| x);
        assert!(out.is_empty());
        let out = fan_out(vec![42], 8, |i, x: u32| x + i as u32);
        assert_eq!(out, vec![42]);
    }

    #[test]
    fn identical_at_any_thread_count() {
        let work = |i: usize, seed: u64| -> u64 {
            // All "randomness" derives from the index — the contract.
            let mut h = seed.wrapping_add(i as u64).wrapping_mul(0x9e3779b97f4a7c15);
            h ^= h >> 31;
            h
        };
        let items: Vec<u64> = (0..100).map(|i| i * 3).collect();
        let seq = fan_out(items.clone(), 1, work);
        for threads in [2, 5, 16] {
            assert_eq!(fan_out(items.clone(), threads, work), seq);
        }
    }

    #[test]
    fn uneven_task_costs_still_order_correctly() {
        // Heavily skewed costs exercise actual stealing: worker 0's static
        // share would be the slow half. Output must stay input-ordered.
        let out = fan_out((0..40).collect(), 4, |i, x: u64| {
            if i % 4 == 0 {
                std::thread::sleep(std::time::Duration::from_millis(2));
            }
            x * 10
        });
        assert_eq!(out, (0..40).map(|x| x * 10).collect::<Vec<u64>>());
    }

    #[test]
    fn panics_propagate() {
        let result = std::panic::catch_unwind(|| {
            fan_out((0..8).collect(), 3, |i, _x: u32| {
                assert!(i != 5, "boom");
                i
            })
        });
        assert!(result.is_err());
    }

    #[test]
    fn ordered_fan_out_keeps_order_and_bounds_in_flight() {
        for threads in [1, 3, 8] {
            // Produced but not yet consumed; the high-water mark is the
            // window the ordered fan-out promises.
            let in_flight = AtomicUsize::new(0);
            let peak = AtomicUsize::new(0);
            let mut seen = Vec::new();
            fan_out_ordered(
                (0..50u64).collect(),
                threads,
                |i, x| {
                    let now = in_flight.fetch_add(1, Ordering::SeqCst) + 1;
                    peak.fetch_max(now, Ordering::SeqCst);
                    (i, x * 3)
                },
                |i, (idx, tripled)| {
                    in_flight.fetch_sub(1, Ordering::SeqCst);
                    assert_eq!(i, idx);
                    seen.push(tripled);
                },
            );
            assert_eq!(seen, (0..50).map(|x| x * 3).collect::<Vec<u64>>());
            let peak = peak.load(Ordering::SeqCst);
            assert!(
                (1..=2 * threads).contains(&peak),
                "{peak} results in flight at {threads} threads"
            );
        }
    }
}
