//! Parallel experiment execution over the local cores.
//!
//! The paper's artifact farms ~500 Ramulator jobs onto a Slurm cluster;
//! here a `std::thread::scope` worker pool runs the (workload × mechanism ×
//! N_RH) grid on the local machine. Workers self-schedule: an idle worker
//! takes the next unclaimed item from a shared queue, so one slow item
//! never holds back the items behind it. Each worker streams
//! `(index, result)` pairs back over an mpsc channel, which preserves
//! input order in the output without slot-level locking or `unsafe`.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::{mpsc, Mutex};

/// Renders a panic payload as text for error reporting.
fn panic_text(payload: Box<dyn std::any::Any + Send>) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "panic with non-string payload".to_string()
    }
}

/// Applies `f` to every item on `threads` worker threads, preserving input
/// order in the output. A panicking `f` aborts the whole call — callers
/// that must survive per-item panics use [`try_run_parallel`].
pub fn run_parallel<T, R, F>(items: Vec<T>, threads: usize, f: F) -> Vec<R>
where
    T: Send,
    R: Send,
    F: Fn(T) -> R + Sync,
{
    try_run_parallel(items, threads, f)
        .into_iter()
        .map(|r| r.unwrap_or_else(|msg| panic!("parallel worker panicked: {msg}")))
        .collect()
}

/// Panic-isolated [`run_parallel`]: each item's `f` runs under
/// `catch_unwind`, so one panicking item becomes `Err(panic message)` in
/// its output slot while every other item still completes. Input order is
/// preserved.
pub fn try_run_parallel<T, R, F>(items: Vec<T>, threads: usize, f: F) -> Vec<Result<R, String>>
where
    T: Send,
    R: Send,
    F: Fn(T) -> R + Sync,
{
    let n = items.len();
    if n == 0 {
        return Vec::new();
    }
    let guarded = |item: T| catch_unwind(AssertUnwindSafe(|| f(item))).map_err(panic_text);
    let threads = threads.max(1).min(n);
    if threads == 1 {
        return items.into_iter().map(guarded).collect();
    }

    // The lock is held only to take the next item, never while `f` runs,
    // so it cannot be poisoned.
    let queue = Mutex::new(items.into_iter().enumerate());
    let next = || queue.lock().expect("work queue lock").next();
    let (tx, rx) = mpsc::channel::<(usize, Result<R, String>)>();
    let (guarded, next) = (&guarded, &next);
    std::thread::scope(|s| {
        for _ in 0..threads {
            let tx = tx.clone();
            s.spawn(move || {
                while let Some((i, item)) = next() {
                    if tx.send((i, guarded(item))).is_err() {
                        // Receiver gone: the main thread is unwinding.
                        return;
                    }
                }
            });
        }
        drop(tx);
        let mut out: Vec<Option<Result<R, String>>> = (0..n).map(|_| None).collect();
        for (i, r) in rx {
            debug_assert!(out[i].is_none(), "result {i} delivered twice");
            out[i] = Some(r);
        }
        out.into_iter()
            .map(|r| r.expect("worker delivered every result"))
            .collect()
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn preserves_order() {
        let out = run_parallel((0..100).collect(), 8, |x: i32| x * 2);
        assert_eq!(out, (0..100).map(|x| x * 2).collect::<Vec<_>>());
    }

    #[test]
    fn works_single_threaded() {
        let out = run_parallel(vec!["a", "bb", "ccc"], 1, |s: &str| s.len());
        assert_eq!(out, vec![1, 2, 3]);
    }

    #[test]
    fn empty_input() {
        let out: Vec<i32> = run_parallel(Vec::<i32>::new(), 4, |x| x);
        assert!(out.is_empty());
    }

    #[test]
    fn more_threads_than_items() {
        let out = run_parallel(vec![1, 2], 16, |x: i32| x + 1);
        assert_eq!(out, vec![2, 3]);
    }

    #[test]
    fn uneven_items_balance_across_workers() {
        let out = run_parallel((0..37).collect(), 5, |x: u64| x * x);
        assert_eq!(out, (0..37).map(|x| x * x).collect::<Vec<_>>());
    }

    #[test]
    fn idle_workers_take_the_next_item() {
        // Item 0 finishes only after every other item has. Had items been
        // dealt to workers up front, those queued behind item 0 on its
        // worker could never run.
        let (done_tx, done_rx) = mpsc::channel();
        let done_rx = Mutex::new(done_rx);
        let out = run_parallel((0..9).collect(), 2, |x: u32| {
            if x == 0 {
                let rx = done_rx.lock().unwrap();
                for _ in 1..9 {
                    rx.recv_timeout(std::time::Duration::from_secs(30))
                        .expect("the other worker ran every other item");
                }
            } else {
                done_tx.send(()).unwrap();
            }
            x
        });
        assert_eq!(out, (0..9).collect::<Vec<_>>());
    }

    #[test]
    fn try_variant_isolates_panics_per_item() {
        let out = try_run_parallel((0..10).collect(), 4, |x: i32| {
            if x % 3 == 0 {
                panic!("boom at {x}");
            }
            x * 2
        });
        assert_eq!(out.len(), 10);
        for (i, slot) in out.iter().enumerate() {
            if i % 3 == 0 {
                assert_eq!(slot.as_ref().unwrap_err(), &format!("boom at {i}"));
            } else {
                assert_eq!(slot.as_ref().unwrap(), &(i as i32 * 2));
            }
        }
    }

    #[test]
    fn try_variant_isolates_panics_single_threaded() {
        let out = try_run_parallel(vec![1, 2, 3], 1, |x: i32| {
            if x == 2 {
                panic!("two");
            }
            x
        });
        assert_eq!(out[0], Ok(1));
        assert_eq!(out[1], Err("two".to_string()));
        assert_eq!(out[2], Ok(3));
    }

    #[test]
    #[should_panic(expected = "parallel worker panicked: unlucky")]
    fn plain_variant_propagates_panics() {
        let _ = run_parallel(vec![0, 7], 2, |x: i32| {
            if x == 7 {
                panic!("unlucky");
            }
            x
        });
    }
}
