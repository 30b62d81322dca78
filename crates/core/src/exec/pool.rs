//! A small scoped worker pool: dynamic self-scheduling over a task
//! sequence, with deterministic result ordering.
//!
//! Workers claim the next task from a shared queue — the classic
//! self-scheduling loop, which load-balances skewed per-strip work the
//! same way rayon's work stealing would for this flat fan-out shape —
//! and each worker owns private scratch state (the executor passes its
//! `StripScanner`s, so crossbar scratch and sALUs are never shared).
//! Results are handed back in task order, which is what makes the
//! executor's metrics merge deterministic for any worker count.
//!
//! This is the one place that chooses between running inline and fanning
//! out: with one worker (or at most one task) every task runs on the
//! calling thread and each result is merged as soon as its task finishes.
//!
//! The pool is scoped (`std::thread::scope`), so tasks may freely borrow
//! from the caller's stack; no `'static` bounds, no channels, no unsafe.

use std::sync::Mutex;

/// Host parallelism available to the runtime (at least 1).
#[must_use]
pub fn available_threads() -> usize {
    std::thread::available_parallelism()
        .map(std::num::NonZeroUsize::get)
        .unwrap_or(1)
}

/// Runs `step` over every item of `items` on up to `threads` workers and
/// hands each result to `merge` in item order.
///
/// `workers` holds the per-worker scratch states and persists across
/// calls: a call grows it with `init` to the number of workers it uses,
/// which is `threads` capped by the item count. With one worker every
/// item runs inline on the calling thread with `workers[0]`, and each
/// result is merged before the next item starts, so no result is held.
/// Otherwise the workers run on scoped threads and the results are merged
/// in item order once all of them are done.
///
/// # Panics
///
/// Propagates panics from worker tasks.
pub(crate) fn run_ordered<S, T, R>(
    workers: &mut Vec<S>,
    threads: usize,
    init: impl FnMut() -> S,
    items: impl ExactSizeIterator<Item = T> + Send,
    step: impl Fn(&mut S, T) -> R + Sync,
    mut merge: impl FnMut(R),
) where
    S: Send,
    R: Send,
{
    let used = threads.max(1).min(items.len().max(1));
    if workers.len() < used {
        workers.resize_with(used, init);
    }
    if used == 1 {
        let state = &mut workers[0];
        for item in items {
            merge(step(state, item));
        }
        return;
    }
    let queue = Mutex::new(items.enumerate());
    let mut done: Vec<(usize, R)> = std::thread::scope(|scope| {
        let handles: Vec<_> = workers[..used]
            .iter_mut()
            .map(|state| {
                let (queue, step) = (&queue, &step);
                scope.spawn(move || {
                    let mut out = Vec::new();
                    loop {
                        let next = queue.lock().expect("task queue poisoned").next();
                        let Some((idx, item)) = next else { break };
                        out.push((idx, step(state, item)));
                    }
                    out
                })
            })
            .collect();
        handles
            .into_iter()
            .flat_map(|h| h.join().expect("runtime worker panicked"))
            .collect()
    });
    done.sort_unstable_by_key(|&(idx, _)| idx);
    for (_, result) in done {
        merge(result);
    }
}

/// Runs `tasks` indexed tasks on up to `threads` workers and returns the
/// results in index order, with fresh worker states from `init` (one
/// worker runs every task inline on the calling thread).
///
/// # Panics
///
/// Propagates panics from worker tasks.
pub fn run_indexed<S, T>(
    tasks: usize,
    threads: usize,
    init: impl FnMut() -> S,
    step: impl Fn(&mut S, usize) -> T + Sync,
) -> Vec<T>
where
    S: Send,
    T: Send,
{
    let mut out = Vec::with_capacity(tasks);
    run_ordered(&mut Vec::new(), threads, init, 0..tasks, step, |t| {
        out.push(t);
    });
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn results_come_back_in_index_order() {
        for threads in [1, 2, 8] {
            let out = run_indexed(
                100,
                threads,
                || 0u64,
                |state, i| {
                    *state += 1;
                    i * i
                },
            );
            assert_eq!(out, (0..100).map(|i| i * i).collect::<Vec<_>>());
        }
    }

    #[test]
    fn workers_share_no_state() {
        // Each worker's init state counts its own tasks; totals must cover
        // exactly the task range.
        let seen: Vec<usize> = run_indexed(64, 4, || (), |(), i| i);
        let mut sorted = seen.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..64).collect::<Vec<_>>());
    }

    #[test]
    fn zero_tasks_is_fine() {
        let out: Vec<usize> = run_indexed(0, 4, || (), |(), i| i);
        assert!(out.is_empty());
    }

    #[test]
    fn worker_states_persist_and_never_outnumber_tasks() {
        let mut workers: Vec<u64> = Vec::new();
        let mut merged = Vec::new();
        run_ordered(
            &mut workers,
            8,
            || 0,
            0..3,
            |s, i| {
                *s += 1;
                i
            },
            |i| merged.push(i),
        );
        assert_eq!(merged, [0, 1, 2]);
        assert_eq!(workers.len(), 3, "three tasks use at most three workers");
        run_ordered(
            &mut workers,
            1,
            || 0,
            0..5,
            |s, i| {
                *s += 1;
                i
            },
            |_| {},
        );
        assert_eq!(workers.len(), 3, "existing states are reused, not rebuilt");
        assert_eq!(workers.iter().sum::<u64>(), 8);
    }

    #[test]
    fn borrows_from_caller_stack() {
        let data: Vec<usize> = (0..32).collect();
        let doubled = run_indexed(data.len(), 3, || (), |(), i| data[i] * 2);
        assert_eq!(doubled[31], 62);
    }
}
