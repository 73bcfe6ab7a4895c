//! Deterministic scoped fork-join pool for independent simulation jobs.
//!
//! [`run`] maps a function over a slice on up to `jobs` worker threads and
//! returns the results **in submission order**, regardless of which worker
//! finished first. Workers claim items from a shared atomic counter, so the
//! set of items each worker processes is racy — but every result is written
//! into the slot of the item that produced it, and the caller observes only
//! the ordered vector. Combined with jobs whose own computation is
//! deterministic (every simulator run is), the output is bit-identical for
//! any worker count, including 1.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

/// Map `f` over `items` on up to `jobs` scoped threads (`0` = one per
/// available core), collecting results in submission order.
///
/// Panics in `f` propagate to the caller once all workers have stopped.
pub fn run<T, R, F>(jobs: usize, items: &[T], f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(&T) -> R + Sync,
{
    let jobs = match jobs {
        0 => std::thread::available_parallelism().map_or(1, |n| n.get()),
        n => n,
    };
    let threads = jobs.max(1).min(items.len());
    if threads <= 1 {
        return items.iter().map(f).collect();
    }

    let mut slots: Vec<Option<R>> = Vec::with_capacity(items.len());
    slots.resize_with(items.len(), || None);
    let next = AtomicUsize::new(0);
    let slots_mx = Mutex::new(&mut slots);

    std::thread::scope(|scope| {
        for _ in 0..threads {
            scope.spawn(|| loop {
                let i = next.fetch_add(1, Ordering::Relaxed);
                if i >= items.len() {
                    break;
                }
                let r = f(&items[i]);
                slots_mx.lock().unwrap()[i] = Some(r);
            });
        }
    });

    slots
        .into_iter()
        .map(|s| s.expect("pool: worker skipped a slot"))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn preserves_submission_order() {
        let items: Vec<u64> = (0..64).collect();
        // Skew per-item cost so completion order differs from submission
        // order; results must still come back ordered.
        let out = run(4, &items, |&i| {
            let mut acc = i;
            for _ in 0..(64 - i) * 1000 {
                acc = acc.wrapping_mul(6364136223846793005).wrapping_add(1);
            }
            (i, acc)
        });
        for (k, (i, _)) in out.iter().enumerate() {
            assert_eq!(*i, k as u64);
        }
    }

    #[test]
    fn identical_across_worker_counts() {
        let items: Vec<u32> = (0..37).collect();
        let f = |&i: &u32| i.wrapping_mul(0x9e3779b9) ^ (i << 3);
        let serial = run(1, &items, f);
        for jobs in [2, 3, 4, 8] {
            assert_eq!(run(jobs, &items, f), serial, "jobs={jobs}");
        }
    }

    #[test]
    fn empty_input() {
        let out: Vec<u32> = run(4, &[] as &[u32], |_| unreachable!());
        assert!(out.is_empty());
    }

    #[test]
    fn single_item_runs_inline() {
        let out = run(8, &[41u32], |&x| x + 1);
        assert_eq!(out, vec![42]);
    }
}
