//! Order-preserving parallel map over scoped worker threads — the one
//! fan-out primitive behind DSE sweeps, fault campaigns and the batch
//! engine's de-opt replays.

use std::sync::atomic::{AtomicUsize, Ordering};

/// Evaluates `f` over `items` on scoped worker threads and returns the
/// results in input order.
///
/// Workers claim the next unclaimed index as they finish their current
/// one, so one item a hundred times dearer than the rest (a hung fault
/// lane waiting out its watchdog) occupies one worker while the others
/// drain the remainder. The calling thread is one of the workers.
/// Reassembly by index restores exact input order regardless of
/// completion order, so the output is bit-identical to a serial
/// `items.iter().enumerate().map(f)`.
///
/// `f` receives the item index alongside the item (for seeding).
/// Evaluations must be independent; per-item state that is not `Send`
/// (simulators, `Rc` graphs) should be built inside `f`.
///
/// # Panics
/// Propagates a panic from `f`.
pub fn par_map<T, R, F>(items: &[T], f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(usize, &T) -> R + Sync,
{
    // Zero or one item runs on the caller whatever the host has: skip
    // the affinity syscall and cgroup reads that would tell us so.
    let workers = if items.len() < 2 {
        1
    } else {
        std::thread::available_parallelism().map_or(1, |n| n.get())
    };
    par_map_with_workers(items, workers, f)
}

/// [`par_map`] on at most `workers` threads (clamped to the item
/// count; 0 or 1 runs serially on the caller).
pub fn par_map_with_workers<T, R, F>(items: &[T], workers: usize, f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(usize, &T) -> R + Sync,
{
    let workers = workers.min(items.len());
    if workers <= 1 {
        return items.iter().enumerate().map(|(i, t)| f(i, t)).collect();
    }
    // Relaxed: the counter only hands out indices. `items` was written
    // before the scope opened and results travel back through `join`.
    let next = AtomicUsize::new(0);
    let work = || {
        let mut done = Vec::new();
        loop {
            let i = next.fetch_add(1, Ordering::Relaxed);
            let Some(t) = items.get(i) else { break };
            done.push((i, f(i, t)));
        }
        done
    };
    let mut done = std::thread::scope(|s| {
        let others: Vec<_> = (1..workers).map(|_| s.spawn(work)).collect();
        let mut done = work();
        for h in others {
            done.extend(h.join().unwrap_or_else(|e| std::panic::resume_unwind(e)));
        }
        done
    });
    // Every index was claimed exactly once: sorting restores input order.
    done.sort_unstable_by_key(|&(i, _)| i);
    done.into_iter().map(|(_, r)| r).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::{Duration, Instant};

    /// Results come back in input order at both extremes of the worker
    /// cap — a single worker (the serial path) and one worker per item
    /// (maximum interleaving) — and in between.
    #[test]
    fn par_map_order_is_pinned_at_worker_cap_one_and_n() {
        let items: Vec<u64> = (0..17).map(|i| (i * 37 + 11) % 97).collect();
        let expect: Vec<(usize, u64)> =
            items.iter().enumerate().map(|(i, &v)| (i, v * v)).collect();
        for workers in [0, 1, 3, items.len(), items.len() + 5] {
            let got = par_map_with_workers(&items, workers, |i, &v| {
                // Skew per-item latency so completion order differs
                // from input order unless reassembly restores it.
                std::thread::sleep(Duration::from_micros(((items.len() - i) as u64) * 100));
                (i, v * v)
            });
            assert_eq!(got, expect, "workers={workers}");
        }
    }

    /// One item far dearer than the rest must not hold cheap items
    /// hostage: here item 0 cannot finish until every other item has,
    /// so the map completes only if the worker stuck on it owns no
    /// other work — total time max(item, rest / other workers), where
    /// strided assignment would park half the cheap items behind it.
    #[test]
    fn a_dear_item_occupies_one_worker_and_no_share_of_the_rest() {
        let items: Vec<usize> = (0..101).collect();
        let cheap_done = AtomicUsize::new(0);
        let got = par_map_with_workers(&items, 2, |i, &v| {
            if i == 0 {
                let t0 = Instant::now();
                while cheap_done.load(Ordering::SeqCst) < items.len() - 1 {
                    assert!(
                        t0.elapsed() < Duration::from_secs(20),
                        "cheap items are queued behind the dear one"
                    );
                    std::thread::yield_now();
                }
            } else {
                cheap_done.fetch_add(1, Ordering::SeqCst);
            }
            v
        });
        assert_eq!(got, items);
    }

    #[test]
    #[should_panic(expected = "boom")]
    fn a_panicking_item_propagates() {
        par_map_with_workers(&[1, 2, 3, 4], 2, |_, &v| {
            assert!(v != 1, "boom");
            v
        });
    }
}
