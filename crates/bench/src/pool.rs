//! Deterministic parallel execution for the experiment suite.
//!
//! Every experiment in this workspace — the 15×6 benchmark matrix, the
//! associativity sweeps, the fault-injection corpus, the checked-mode
//! audits — is embarrassingly parallel: independent caches replaying
//! shared, immutable traces. This module provides the one primitive they
//! all share: a scoped work-stealing pool that runs a batch of jobs on
//! `STEM_THREADS` workers and returns the results **in input order**, so
//! every table, CSV and report rendered from them is byte-identical to a
//! serial run at any thread count.
//!
//! The pool is hermetic (std-only): `std::thread::scope` workers pull job
//! indices from one atomic counter (work stealing by index), each job runs
//! under `catch_unwind`, and results land in per-index slots. Nothing
//! about scheduling order can leak into the output order.
//!
//! [`ExperimentRunner::run_batch`](crate::resilience::ExperimentRunner::run_batch)
//! layers per-experiment panic/budget isolation on top for the
//! long-running drivers; use the plain [`run_ordered`] here when borrowing local data (scoped threads do not require
//! `'static` jobs).

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::thread;

/// Environment variable overriding the worker count (`STEM_THREADS`).
pub use crate::config::THREADS_ENV;

/// The worker count to use: `STEM_THREADS` when set to a positive
/// integer, otherwise [`std::thread::available_parallelism`] (1 if even
/// that is unavailable). Reads the process-wide
/// [`Config::cached`](crate::config::Config::cached) snapshot — the
/// environment is parsed once, not on every call (this sits on serve's
/// request path).
///
/// # Panics
///
/// The *first* `Config::cached` call in the process panics with the
/// [`ConfigError`](crate::config::ConfigError) message when `STEM_THREADS`
/// is set to something other than a positive integer (the old behaviour
/// silently fell back to all cores).
pub fn configured_threads() -> usize {
    crate::config::Config::cached().threads()
}

/// Extracts the human-readable message from a panic payload.
pub fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_owned()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_owned()
    }
}

/// Runs `jobs` on up to `threads` scoped workers and returns one
/// [`thread::Result`] per job, **in input order** regardless of thread
/// count or scheduling. Each job runs under `catch_unwind`, so one
/// panicking job neither aborts its worker's remaining share nor poisons
/// any other job's slot.
///
/// Jobs may borrow from the caller's stack (the workers are scoped); use
/// this for fan-outs over shared traces. With `threads <= 1` the jobs run
/// inline on the calling thread — identical results, no spawns.
///
/// # Examples
///
/// ```
/// use stem_bench::pool::run_ordered;
///
/// let data = vec![3u64, 1, 2];
/// let jobs: Vec<_> = data.iter().map(|&x| move || x * 10).collect();
/// let out: Vec<u64> = run_ordered(8, jobs)
///     .into_iter()
///     .map(|r| r.expect("no job panicked"))
///     .collect();
/// assert_eq!(out, vec![30, 10, 20]); // input order, not completion order
/// ```
pub fn run_ordered<T, F>(threads: usize, jobs: Vec<F>) -> Vec<thread::Result<T>>
where
    T: Send,
    F: FnOnce() -> T + Send,
{
    let n = jobs.len();
    if n == 0 {
        return Vec::new();
    }
    let slots: Vec<Mutex<Option<F>>> = jobs.into_iter().map(|f| Mutex::new(Some(f))).collect();
    let results: Vec<Mutex<Option<thread::Result<T>>>> = (0..n).map(|_| Mutex::new(None)).collect();
    let next = AtomicUsize::new(0);

    let work = |next: &AtomicUsize| loop {
        let i = next.fetch_add(1, Ordering::Relaxed);
        if i >= n {
            break;
        }
        let f = slots[i]
            .lock()
            .expect("job slot lock")
            .take()
            .expect("each job index is claimed exactly once");
        let outcome = catch_unwind(AssertUnwindSafe(f));
        *results[i].lock().expect("result slot lock") = Some(outcome);
    };

    let workers = threads.clamp(1, n);
    if workers == 1 {
        work(&next);
    } else {
        thread::scope(|s| {
            for _ in 0..workers {
                s.spawn(|| work(&next));
            }
        });
    }

    results
        .into_iter()
        .map(|m| {
            m.into_inner()
                .expect("result slot lock")
                .expect("every claimed job stores a result")
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicU64;
    use std::time::Duration;

    #[test]
    fn results_come_back_in_input_order_at_any_thread_count() {
        // Jobs finish in scrambled order (later jobs sleep less); the
        // result vector must still be input-ordered for every count.
        for threads in [1, 2, 4, 8] {
            let jobs: Vec<_> = (0..16u64)
                .map(|i| {
                    move || {
                        std::thread::sleep(Duration::from_millis((16 - i) % 5));
                        i * i
                    }
                })
                .collect();
            let out: Vec<u64> = run_ordered(threads, jobs)
                .into_iter()
                .map(|r| r.expect("no panics"))
                .collect();
            let expect: Vec<u64> = (0..16u64).map(|i| i * i).collect();
            assert_eq!(out, expect, "threads={threads}");
        }
    }

    #[test]
    fn a_panicking_job_fails_only_its_own_slot() {
        let jobs: Vec<Box<dyn FnOnce() -> u32 + Send>> = (0..8u32)
            .map(|i| {
                Box::new(move || {
                    if i == 3 {
                        panic!("job three exploded");
                    }
                    i
                }) as Box<dyn FnOnce() -> u32 + Send>
            })
            .collect();
        let results = run_ordered(4, jobs);
        for (i, r) in results.into_iter().enumerate() {
            if i == 3 {
                let payload = r.expect_err("job 3 panicked");
                assert!(panic_message(payload.as_ref()).contains("exploded"));
            } else {
                assert_eq!(r.expect("other jobs unaffected"), i as u32);
            }
        }
    }

    #[test]
    fn every_job_runs_exactly_once() {
        let counter = AtomicU64::new(0);
        let jobs: Vec<_> = (0..100)
            .map(|_| || counter.fetch_add(1, Ordering::Relaxed))
            .collect();
        let results = run_ordered(7, jobs);
        assert_eq!(results.len(), 100);
        assert_eq!(counter.load(Ordering::Relaxed), 100);
    }

    #[test]
    fn empty_batch_is_fine() {
        let jobs: Vec<fn() -> ()> = Vec::new();
        assert!(run_ordered(4, jobs).is_empty());
    }

    #[test]
    fn parallel_and_serial_agree_bit_for_bit() {
        let mk_jobs = || {
            (0..24u64)
                .map(|i| move || (0..1000u64).fold(i, |a, b| a.wrapping_mul(31).wrapping_add(b)))
                .collect::<Vec<_>>()
        };
        let serial: Vec<u64> = run_ordered(1, mk_jobs())
            .into_iter()
            .map(|r| r.unwrap())
            .collect();
        let parallel: Vec<u64> = run_ordered(6, mk_jobs())
            .into_iter()
            .map(|r| r.unwrap())
            .collect();
        assert_eq!(serial, parallel);
    }

    #[test]
    fn panic_messages_cover_str_string_and_other() {
        assert_eq!(panic_message(&"boom"), "boom");
        assert_eq!(panic_message(&"boom".to_owned()), "boom");
        assert_eq!(panic_message(&42i32), "non-string panic payload");
    }
}
