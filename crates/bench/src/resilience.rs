//! Panic- and hang-isolated experiment execution for the long-running
//! drivers (`run_all` in particular).
//!
//! Experiments run on detached worker threads under `catch_unwind` with a
//! per-experiment wall-clock budget. A panicking or overrunning experiment
//! is recorded as a failure and the driver moves on, so one broken figure
//! cannot take down a multi-hour reproduction run. The driver prints a
//! failure report at the end and exits nonzero if anything failed.
//!
//! [`ExperimentRunner::run_batch`] is the parallel form: a whole batch of
//! named experiment cells (e.g. every (benchmark, scheme) pair of the
//! Fig. 7–9 matrix) shares a work queue drained by `threads` workers.
//! Results and recorded outcomes come back **in input order** — the
//! determinism contract of [`pool`](crate::pool) — and each cell keeps its
//! own isolation: a panicking cell fails only itself, attributed to its
//! own name, and a cell that overruns the budget is abandoned (its wedged
//! worker is replaced so the rest of the queue still drains).

use std::collections::VecDeque;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::{mpsc, Arc, Mutex};
use std::time::{Duration, Instant};

use crate::pool::panic_message;

/// Environment variable naming an experiment that should deliberately
/// panic, for exercising the isolation machinery end-to-end
/// (`STEM_INJECT_PANIC=<experiment name>`).
pub use crate::config::INJECT_PANIC_ENV;

/// The per-experiment wall-clock budget of [`ExperimentRunner::new`]:
/// four hours, far above any archive-scale cell, so only a hang trips it.
const DEFAULT_BUDGET: Duration = Duration::from_secs(4 * 60 * 60);

/// How often the collector checks running experiments against the budget.
const BUDGET_POLL: Duration = Duration::from_millis(25);

/// Why an experiment did not produce a result.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ExperimentFailure {
    /// The experiment panicked; the payload message is preserved.
    Panicked(String),
    /// The experiment exceeded its wall-clock budget and was abandoned
    /// (its thread is detached and ignored).
    TimedOut(Duration),
}

impl std::fmt::Display for ExperimentFailure {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ExperimentFailure::Panicked(msg) => write!(f, "panicked: {msg}"),
            ExperimentFailure::TimedOut(budget) => {
                write!(f, "exceeded its {:.0}s budget", budget.as_secs_f64())
            }
        }
    }
}

/// The record of one completed or failed experiment.
#[derive(Debug, Clone)]
pub struct ExperimentOutcome {
    /// Experiment name as passed to [`ExperimentRunner::run_value`] /
    /// [`ExperimentRunner::run_batch`].
    pub name: String,
    /// `None` on success, the failure otherwise.
    pub failure: Option<ExperimentFailure>,
    /// Wall-clock time until the result (or the abandonment).
    pub elapsed: Duration,
}

/// One named job queued for a batch: its input index, whether the
/// `STEM_INJECT_PANIC` negative test targets it, and the work itself.
struct QueuedJob<F> {
    index: usize,
    inject: bool,
    f: F,
}

/// Runs experiments in isolation and accumulates their outcomes.
///
/// # Examples
///
/// ```
/// use stem_bench::resilience::ExperimentRunner;
///
/// let mut runner = ExperimentRunner::new();
/// let two = runner.run_value("arithmetic", || 1 + 1);
/// assert_eq!(two, Some(2));
/// let boom: Option<()> = runner.run_value("explosive", || panic!("boom"));
/// assert_eq!(boom, None);
/// assert!(!runner.all_passed());
/// assert!(runner.failure_report().unwrap().contains("explosive"));
/// ```
#[derive(Debug)]
pub struct ExperimentRunner {
    budget: Duration,
    outcomes: Vec<ExperimentOutcome>,
}

impl ExperimentRunner {
    /// Creates a runner with the default four-hour per-experiment budget.
    pub fn new() -> Self {
        ExperimentRunner::with_budget(DEFAULT_BUDGET)
    }

    /// Creates a runner with an explicit per-experiment budget.
    pub fn with_budget(budget: Duration) -> Self {
        ExperimentRunner {
            budget,
            outcomes: Vec::new(),
        }
    }

    /// The per-experiment wall-clock budget.
    pub fn budget(&self) -> Duration {
        self.budget
    }

    /// Runs `f` in isolation with the wall-clock budget. Returns the value
    /// on success; on panic or timeout, records the failure and returns
    /// `None`.
    ///
    /// When `STEM_INJECT_PANIC` names this experiment, a panic is injected
    /// before `f` runs (the negative test of the isolation machinery).
    pub fn run_value<T, F>(&mut self, name: &str, f: F) -> Option<T>
    where
        T: Send + 'static,
        F: FnOnce() -> T + Send + 'static,
    {
        self.run_batch(1, vec![(name.to_owned(), f)])
            .pop()
            .flatten()
    }

    /// Like [`run_value`](Self::run_value) for unit experiments; returns
    /// whether it succeeded.
    pub fn run<F>(&mut self, name: &str, f: F) -> bool
    where
        F: FnOnce() + Send + 'static,
    {
        self.run_value(name, f).is_some()
    }

    /// Runs a batch of named experiment cells on up to `threads` detached
    /// workers sharing one work queue, and returns one `Option<T>` per
    /// cell **in input order** (so any output rendered from the results is
    /// independent of the thread count — the determinism contract).
    ///
    /// Isolation is per cell, exactly as in [`run_value`](Self::run_value):
    ///
    /// * a panicking cell yields `None` for itself only, recorded as
    ///   [`ExperimentFailure::Panicked`] under its own name;
    /// * a cell exceeding the per-experiment budget (measured from the
    ///   moment a worker picks it up, not from enqueue) is abandoned as
    ///   [`ExperimentFailure::TimedOut`] and its wedged worker is replaced
    ///   so the remaining queue still drains at full width;
    /// * `STEM_INJECT_PANIC=<cell name>` crashes exactly that cell.
    ///
    /// Outcomes are recorded in input order once the whole batch settles.
    pub fn run_batch<T, F>(&mut self, threads: usize, jobs: Vec<(String, F)>) -> Vec<Option<T>>
    where
        T: Send + 'static,
        F: FnOnce() -> T + Send + 'static,
    {
        let n = jobs.len();
        if n == 0 {
            return Vec::new();
        }
        let inject_target = crate::config::Config::cached().inject_panic.clone();
        let mut names = Vec::with_capacity(n);
        let mut queue = VecDeque::with_capacity(n);
        for (index, (name, f)) in jobs.into_iter().enumerate() {
            let inject = inject_target.as_deref() == Some(name.as_str());
            names.push(name);
            queue.push_back(QueuedJob { index, inject, f });
        }
        let queue = Arc::new(Mutex::new(queue));
        // `started[i]` is stamped when a worker picks cell `i` up; the
        // collector measures budgets against it.
        let started: Arc<Vec<Mutex<Option<Instant>>>> =
            Arc::new((0..n).map(|_| Mutex::new(None)).collect());
        let (tx, rx) = mpsc::channel::<(usize, Result<T, String>, Duration)>();

        let workers = threads.clamp(1, n);
        for _ in 0..workers {
            spawn_worker(Arc::clone(&queue), Arc::clone(&started), tx.clone());
        }
        // `tx` stays alive in the collector: replacement workers for
        // timed-out cells need a sender to clone. Completion is tracked by
        // counting (every popped cell either sends or times out), so the
        // channel never needs to disconnect.

        let mut results: Vec<Option<T>> = (0..n).map(|_| None).collect();
        let mut failures: Vec<Option<ExperimentFailure>> = vec![None; n];
        let mut elapsed: Vec<Duration> = vec![Duration::ZERO; n];
        let mut settled = vec![false; n];
        let mut remaining = n;
        while remaining > 0 {
            match rx.recv_timeout(BUDGET_POLL) {
                Ok((i, outcome, dt)) => {
                    if settled[i] {
                        continue; // late result of an already-abandoned cell
                    }
                    settled[i] = true;
                    remaining -= 1;
                    elapsed[i] = dt;
                    match outcome {
                        // The budget is a hard deadline even for a cell
                        // that finishes before the poll notices: with a
                        // zero budget every cell must time out
                        // deterministically, not race the 25ms collector
                        // poll.
                        Ok(_) if dt >= self.budget => {
                            failures[i] = Some(ExperimentFailure::TimedOut(self.budget));
                        }
                        Ok(v) => results[i] = Some(v),
                        Err(msg) => failures[i] = Some(ExperimentFailure::Panicked(msg)),
                    }
                }
                Err(mpsc::RecvTimeoutError::Timeout) => {
                    for i in 0..n {
                        if settled[i] {
                            continue;
                        }
                        let since = started[i]
                            .lock()
                            .expect("start stamp lock")
                            .map(|t0| t0.elapsed());
                        if let Some(dt) = since {
                            if dt >= self.budget {
                                settled[i] = true;
                                remaining -= 1;
                                elapsed[i] = dt;
                                failures[i] = Some(ExperimentFailure::TimedOut(self.budget));
                                // The wedged worker is abandoned; restore
                                // the pool's width so queued cells still
                                // run. A replacement finding an empty
                                // queue exits immediately.
                                spawn_worker(Arc::clone(&queue), Arc::clone(&started), tx.clone());
                            }
                        }
                    }
                }
                Err(mpsc::RecvTimeoutError::Disconnected) => {
                    unreachable!("the collector holds a live sender")
                }
            }
        }

        for (i, name) in names.into_iter().enumerate() {
            self.outcomes.push(ExperimentOutcome {
                name,
                failure: failures[i].take(),
                elapsed: elapsed[i],
            });
        }
        results
    }

    /// All outcomes so far, in execution order (input order within each
    /// batch).
    pub fn outcomes(&self) -> &[ExperimentOutcome] {
        &self.outcomes
    }

    /// Removes and returns every outcome recorded so far, leaving the
    /// log empty. Long-lived callers (the serve executor) drain after each
    /// experiment so the log does not grow with every job ever run.
    pub fn take_outcomes(&mut self) -> Vec<ExperimentOutcome> {
        std::mem::take(&mut self.outcomes)
    }

    /// Whether every experiment so far succeeded.
    pub fn all_passed(&self) -> bool {
        self.outcomes.iter().all(|o| o.failure.is_none())
    }

    /// A human-readable failure report, or `None` when everything passed.
    pub fn failure_report(&self) -> Option<String> {
        let failed: Vec<&ExperimentOutcome> = self
            .outcomes
            .iter()
            .filter(|o| o.failure.is_some())
            .collect();
        if failed.is_empty() {
            return None;
        }
        let mut report = format!(
            "{} of {} experiments failed:\n",
            failed.len(),
            self.outcomes.len()
        );
        for o in failed {
            let failure = o.failure.as_ref().expect("filtered on failure");
            report.push_str(&format!(
                "  - {} ({:.1}s): {}\n",
                o.name,
                o.elapsed.as_secs_f64(),
                failure
            ));
        }
        Some(report)
    }

    /// The driver exit code: 0 when all experiments passed, 1 otherwise.
    pub fn exit_code(&self) -> u8 {
        u8::from(!self.all_passed())
    }
}

impl Default for ExperimentRunner {
    fn default() -> Self {
        ExperimentRunner::new()
    }
}

/// Spawns one detached batch worker: pop a cell, stamp its start, run it
/// under `catch_unwind`, send the result, repeat until the queue is empty.
/// Send errors are ignored — the collector may have given up on the batch
/// (or on this worker) already.
fn spawn_worker<T, F>(
    queue: Arc<Mutex<VecDeque<QueuedJob<F>>>>,
    started: Arc<Vec<Mutex<Option<Instant>>>>,
    tx: mpsc::Sender<(usize, Result<T, String>, Duration)>,
) where
    T: Send + 'static,
    F: FnOnce() -> T + Send + 'static,
{
    std::thread::Builder::new()
        .name("stem-experiment-worker".to_owned())
        .spawn(move || loop {
            let job = match queue.lock().expect("work queue lock").pop_front() {
                Some(job) => job,
                None => break,
            };
            let t0 = Instant::now();
            *started[job.index].lock().expect("start stamp lock") = Some(t0);
            let inject = job.inject;
            let f = job.f;
            let outcome = catch_unwind(AssertUnwindSafe(move || {
                if inject {
                    panic!("injected panic ({INJECT_PANIC_ENV})");
                }
                f()
            }))
            // `as_ref` matters: `&payload` would coerce the Box itself
            // into `dyn Any` and every downcast would miss.
            .map_err(|payload| panic_message(payload.as_ref()));
            let _ = tx.send((job.index, outcome, t0.elapsed()));
        })
        .expect("spawning an experiment worker thread");
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn successful_experiment_returns_value() {
        let mut r = ExperimentRunner::with_budget(Duration::from_secs(30));
        assert_eq!(r.run_value("ok", || 7u64), Some(7));
        assert!(r.all_passed());
        assert!(r.failure_report().is_none());
        assert_eq!(r.exit_code(), 0);
    }

    #[test]
    fn panicking_experiment_is_contained_and_reported() {
        let mut r = ExperimentRunner::with_budget(Duration::from_secs(30));
        let v: Option<u64> = r.run_value("boomer", || panic!("the sky fell"));
        assert_eq!(v, None);
        assert!(!r.all_passed());
        let report = r.failure_report().expect("a failure is reported");
        assert!(report.contains("boomer"));
        assert!(report.contains("the sky fell"));
        assert_eq!(r.exit_code(), 1);
    }

    #[test]
    fn later_experiments_survive_an_earlier_panic() {
        let mut r = ExperimentRunner::with_budget(Duration::from_secs(30));
        let _: Option<()> = r.run_value("first-fails", || panic!("nope"));
        assert_eq!(r.run_value("second-succeeds", || 3i32), Some(3));
        assert_eq!(r.outcomes().len(), 2);
        assert!(r.outcomes()[0].failure.is_some());
        assert!(r.outcomes()[1].failure.is_none());
    }

    #[test]
    fn overrunning_experiment_times_out() {
        let mut r = ExperimentRunner::with_budget(Duration::from_millis(50));
        let v = r.run_value("sleeper", || {
            std::thread::sleep(Duration::from_secs(10));
            1u8
        });
        assert_eq!(v, None);
        assert!(matches!(
            r.outcomes()[0].failure,
            Some(ExperimentFailure::TimedOut(_))
        ));
        assert!(r.failure_report().unwrap().contains("budget"));
    }

    #[test]
    fn non_string_payload_is_survivable() {
        let mut r = ExperimentRunner::with_budget(Duration::from_secs(30));
        let v: Option<()> = r.run_value("odd-payload", || std::panic::panic_any(42i32));
        assert_eq!(v, None);
        assert!(r.failure_report().unwrap().contains("non-string"));
    }

    #[test]
    fn batch_results_come_back_in_input_order() {
        let mut r = ExperimentRunner::with_budget(Duration::from_secs(30));
        let jobs: Vec<(String, _)> = (0..12u64)
            .map(|i| {
                (format!("cell-{i}"), move || {
                    std::thread::sleep(Duration::from_millis((12 - i) % 4));
                    i * 3
                })
            })
            .collect();
        let out = r.run_batch(4, jobs);
        let expect: Vec<Option<u64>> = (0..12u64).map(|i| Some(i * 3)).collect();
        assert_eq!(out, expect);
        assert!(r.all_passed());
        // Outcomes recorded in input order too.
        let names: Vec<&str> = r.outcomes().iter().map(|o| o.name.as_str()).collect();
        let expect_names: Vec<String> = (0..12).map(|i| format!("cell-{i}")).collect();
        assert_eq!(
            names,
            expect_names.iter().map(String::as_str).collect::<Vec<_>>()
        );
    }

    #[test]
    fn batch_panic_fails_only_its_own_cell_with_the_right_name() {
        let mut r = ExperimentRunner::with_budget(Duration::from_secs(30));
        let jobs: Vec<(String, Box<dyn FnOnce() -> u32 + Send>)> = (0..6u32)
            .map(|i| {
                let f: Box<dyn FnOnce() -> u32 + Send> = Box::new(move || {
                    if i == 2 {
                        panic!("cell two is cursed");
                    }
                    i
                });
                (format!("batch/{i}"), f)
            })
            .collect();
        let out = r.run_batch(3, jobs);
        for (i, v) in out.iter().enumerate() {
            if i == 2 {
                assert_eq!(*v, None);
            } else {
                assert_eq!(*v, Some(i as u32));
            }
        }
        let failed: Vec<&ExperimentOutcome> = r
            .outcomes()
            .iter()
            .filter(|o| o.failure.is_some())
            .collect();
        assert_eq!(failed.len(), 1);
        assert_eq!(failed[0].name, "batch/2");
        assert!(r.failure_report().unwrap().contains("cursed"));
    }

    #[test]
    fn batch_timeout_abandons_one_cell_and_drains_the_rest() {
        // One worker, four cells; the first cell wedges. The budget must
        // abandon it, replace the worker, and still complete cells 1–3.
        let mut r = ExperimentRunner::with_budget(Duration::from_millis(80));
        let jobs: Vec<(String, Box<dyn FnOnce() -> u32 + Send>)> = (0..4u32)
            .map(|i| {
                let f: Box<dyn FnOnce() -> u32 + Send> = Box::new(move || {
                    if i == 0 {
                        std::thread::sleep(Duration::from_secs(30));
                    }
                    i + 10
                });
                (format!("t/{i}"), f)
            })
            .collect();
        let out = r.run_batch(1, jobs);
        assert_eq!(out, vec![None, Some(11), Some(12), Some(13)]);
        assert!(matches!(
            r.outcomes()[0].failure,
            Some(ExperimentFailure::TimedOut(_))
        ));
        for o in &r.outcomes()[1..] {
            assert!(o.failure.is_none(), "{} should have completed", o.name);
        }
    }

    #[test]
    fn zero_budget_times_out_every_cell_deterministically() {
        // The budget is a hard deadline: even a cell that completes before
        // the collector's poll notices must count as over budget. With a
        // zero budget nothing may race through as "ok".
        let mut r = ExperimentRunner::with_budget(Duration::ZERO);
        let jobs: Vec<(String, Box<dyn FnOnce() -> u32 + Send>)> = (0..4u32)
            .map(|i| {
                let f: Box<dyn FnOnce() -> u32 + Send> = Box::new(move || i);
                (format!("z/{i}"), f)
            })
            .collect();
        let out = r.run_batch(2, jobs);
        assert_eq!(out, vec![None, None, None, None]);
        assert!(!r.all_passed());
        for o in r.outcomes() {
            assert!(
                matches!(o.failure, Some(ExperimentFailure::TimedOut(_))),
                "{} must be over budget",
                o.name
            );
        }
    }

    #[test]
    fn empty_batch_is_a_noop() {
        let mut r = ExperimentRunner::with_budget(Duration::from_secs(1));
        let jobs: Vec<(String, fn() -> u8)> = Vec::new();
        let out = r.run_batch(4, jobs);
        assert!(out.is_empty());
        assert!(r.outcomes().is_empty());
    }
}
