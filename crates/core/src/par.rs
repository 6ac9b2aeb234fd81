//! Minimal std-only fork-join helper for batch extraction's page-level
//! fan-out (wrapper build runs on one thread; see DESIGN.md §9).
//!
//! Scheduling is **work-stealing by atomic counter**: every worker claims
//! the next unprocessed index with a `fetch_add`, so a thread that drew a
//! cheap page immediately moves on to the next one instead of idling while
//! a sibling grinds through a pathological page — the failure mode of the
//! previous fixed contiguous chunking (kept as [`par_map_chunked`] for
//! benchmark comparison). Results are written back by item index, so the
//! output order is the input order and results are **identical for any
//! thread count and any scheduling interleaving** (determinism is part of
//! the pipeline's contract, see DESIGN.md "Performance architecture").
//! With `threads <= 1` (or a single item) no thread is spawned at all,
//! reproducing the serial execution path exactly.

use std::sync::atomic::{AtomicUsize, Ordering};

/// Resolve a thread-count knob: `0` means "use all available cores".
pub fn effective_threads(requested: usize) -> usize {
    if requested == 0 {
        std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1)
    } else {
        requested
    }
}

/// Map `f` over `items` with up to `threads` workers (0 = all cores),
/// preserving input order in the output.
pub fn par_map<T, R, F>(items: &[T], threads: usize, f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(usize, &T) -> R + Sync,
{
    par_map_with(items, threads, || (), |_, i, t| f(i, t))
}

/// [`par_map`] with per-worker state: `init` runs once on each worker
/// thread and the resulting value is threaded through every call that
/// worker executes — the hook the extraction serving path uses to reuse
/// one [`ExtractScratch`](crate::compiled::ExtractScratch) arena per
/// thread instead of reallocating per page.
///
/// The state must be pure scratch: because the scheduler assigns items
/// dynamically, results must not depend on which worker (or in what
/// order) an item was processed.
pub fn par_map_with<T, R, S, I, F>(items: &[T], threads: usize, init: I, f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    I: Fn() -> S + Sync,
    F: Fn(&mut S, usize, &T) -> R + Sync,
{
    let threads = effective_threads(threads).min(items.len());
    if threads <= 1 {
        let mut state = init();
        return items
            .iter()
            .enumerate()
            .map(|(i, t)| f(&mut state, i, t))
            .collect();
    }
    let counter = AtomicUsize::new(0);
    let mut parts: Vec<Vec<(usize, R)>> = Vec::with_capacity(threads);
    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..threads)
            .map(|_| {
                let counter = &counter;
                let init = &init;
                let f = &f;
                scope.spawn(move || {
                    let mut state = init();
                    let mut got: Vec<(usize, R)> = Vec::new();
                    // mse:hot begin(steal-claim-loop)
                    loop {
                        // Claim the next item; Relaxed suffices — the only
                        // shared mutation is the counter itself, and the
                        // scope join publishes every worker's results.
                        let i = counter.fetch_add(1, Ordering::Relaxed);
                        if i >= items.len() {
                            break;
                        }
                        // mse:allow(index): i < items.len() checked above
                        got.push((i, f(&mut state, i, &items[i])));
                    }
                    // mse:hot end(steal-claim-loop)
                    got
                })
            })
            .collect();
        for h in handles {
            match h.join() {
                Ok(part) => parts.push(part),
                Err(payload) => std::panic::resume_unwind(payload),
            }
        }
    });
    // Place results by item index: deterministic regardless of which
    // worker claimed what.
    let mut out: Vec<Option<R>> = (0..items.len()).map(|_| None).collect();
    for (i, r) in parts.into_iter().flatten() {
        if let Some(slot) = out.get_mut(i) {
            *slot = Some(r);
        }
    }
    let res: Vec<R> = out.into_iter().flatten().collect();
    debug_assert_eq!(res.len(), items.len());
    res
}

/// The previous scheduler: contiguous index chunks, one scoped thread per
/// chunk. Kept (unused by the pipeline) so the `serve` benchmark can
/// measure what work-stealing buys on skewed workloads.
pub fn par_map_chunked<T, R, F>(items: &[T], threads: usize, f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(usize, &T) -> R + Sync,
{
    let threads = effective_threads(threads).min(items.len());
    if threads <= 1 {
        return items.iter().enumerate().map(|(i, t)| f(i, t)).collect();
    }
    let chunk = items.len().div_ceil(threads);
    let mut out: Vec<Option<R>> = (0..items.len()).map(|_| None).collect();
    std::thread::scope(|scope| {
        for (c, slots) in out.chunks_mut(chunk).enumerate() {
            let base = c * chunk;
            let f = &f;
            scope.spawn(move || {
                for (k, slot) in slots.iter_mut().enumerate() {
                    *slot = Some(f(base + k, &items[base + k]));
                }
            });
        }
    });
    let res: Vec<R> = out.into_iter().flatten().collect();
    debug_assert_eq!(res.len(), items.len());
    res
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn preserves_order_for_any_thread_count() {
        let items: Vec<usize> = (0..37).collect();
        let expect: Vec<usize> = items.iter().map(|x| x * x).collect();
        for threads in [1, 2, 3, 8, 64] {
            let got = par_map(&items, threads, |i, x| {
                assert_eq!(i, *x);
                x * x
            });
            assert_eq!(got, expect);
        }
    }

    #[test]
    fn chunked_matches_stealing() {
        let items: Vec<usize> = (0..101).collect();
        for threads in [1, 2, 5, 16] {
            assert_eq!(
                par_map(&items, threads, |_, x| x + 7),
                par_map_chunked(&items, threads, |_, x| x + 7),
            );
        }
    }

    #[test]
    fn empty_and_single() {
        let none: Vec<u8> = vec![];
        assert!(par_map(&none, 4, |_, x| *x).is_empty());
        assert_eq!(par_map(&[5u8], 4, |_, x| *x + 1), vec![6]);
    }

    #[test]
    fn skewed_items_all_processed() {
        // Items with wildly uneven cost: every index still comes back in
        // place (the stealing loop must not drop or duplicate claims).
        let items: Vec<u64> = (0..50)
            .map(|i| if i % 13 == 0 { 200_000 } else { 10 })
            .collect();
        let got = par_map(&items, 8, |i, &spin| {
            let mut acc = 0u64;
            for k in 0..spin {
                acc = acc.wrapping_add(k ^ i as u64);
            }
            (i as u64, acc)
        });
        assert_eq!(got.len(), items.len());
        for (i, (idx, _)) in got.iter().enumerate() {
            assert_eq!(*idx, i as u64);
        }
    }

    #[test]
    fn per_worker_state_reused() {
        use std::sync::atomic::{AtomicUsize, Ordering};
        let inits = AtomicUsize::new(0);
        let items: Vec<usize> = (0..64).collect();
        let got = par_map_with(
            &items,
            4,
            || {
                inits.fetch_add(1, Ordering::Relaxed);
                Vec::<usize>::new()
            },
            |scratch, _, &x| {
                scratch.push(x);
                x * 2
            },
        );
        assert_eq!(got, items.iter().map(|x| x * 2).collect::<Vec<_>>());
        // One init per worker, not per item.
        assert!(inits.load(Ordering::Relaxed) <= 4, "{inits:?}");
    }

    #[test]
    fn zero_means_auto() {
        assert!(effective_threads(0) >= 1);
        assert_eq!(effective_threads(3), 3);
    }
}
