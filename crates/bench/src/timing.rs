//! Minimal wall-clock measurement for the plain (non-Criterion) benches.
//!
//! The workspace builds offline with no benchmarking dependency, so the
//! `benches/` binaries time themselves with `std::time`: warm up once,
//! then report the best of a few repetitions (the least noisy simple
//! estimator on a shared machine).

use std::time::{Duration, Instant};

use stem_sim_core::Json;

/// The `"available_parallelism"` entry every `BENCH_*.json` artifact
/// carries: the host's core count
/// ([`available_cores`](crate::pool::available_cores)), so no timing is
/// read without the parallelism it ran on.
pub fn cores_entry() -> (String, Json) {
    (
        "available_parallelism".into(),
        Json::Int(crate::pool::available_cores() as i64),
    )
}

/// This process's peak resident set size so far, in MB (MiB): the
/// `VmHWM` line of `/proc/self/status`, in the unit the repo benchmark
/// reports a child's peak in. `None` where that file is not available.
pub fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let kb: u64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))?
        .trim()
        .strip_suffix("kB")?
        .trim()
        .parse()
        .ok()?;
    Some(kb as f64 / 1024.0)
}

/// Runs `f` once for warm-up, then `reps` measured times, returning the
/// minimum duration. The warm-up result is discarded; every measured
/// result is passed through `std::hint::black_box` so the work is not
/// optimised away.
pub fn best_of<T>(reps: usize, mut f: impl FnMut() -> T) -> Duration {
    std::hint::black_box(f());
    let mut best = Duration::MAX;
    for _ in 0..reps.max(1) {
        let t0 = Instant::now();
        std::hint::black_box(f());
        best = best.min(t0.elapsed());
    }
    best
}

/// Times two alternative implementations of the same work *interleaved*:
/// one warm-up of each, then `reps` rounds of `a` then `b`, returning each
/// side's minimum. On a shared machine the host's speed drifts over
/// seconds, so timing all of `a`'s repetitions before all of `b`'s (two
/// `best_of` calls) systematically biases whichever side runs during the
/// slower window; alternating gives both sides the same conditions.
pub fn best_of_paired<T, U>(
    reps: usize,
    mut a: impl FnMut() -> T,
    mut b: impl FnMut() -> U,
) -> (Duration, Duration) {
    std::hint::black_box(a());
    std::hint::black_box(b());
    let mut best_a = Duration::MAX;
    let mut best_b = Duration::MAX;
    for _ in 0..reps.max(1) {
        let t0 = Instant::now();
        std::hint::black_box(a());
        best_a = best_a.min(t0.elapsed());
        let t1 = Instant::now();
        std::hint::black_box(b());
        best_b = best_b.min(t1.elapsed());
    }
    (best_a, best_b)
}

/// Formats an element-throughput line: `label: N elems in D (R Melem/s)`.
pub fn throughput_line(label: &str, elements: u64, d: Duration) -> String {
    let secs = d.as_secs_f64().max(1e-12);
    format!(
        "{label}: {elements} elems in {:.3} ms ({:.2} Melem/s)",
        d.as_secs_f64() * 1e3,
        elements as f64 / secs / 1e6
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn best_of_is_finite() {
        let d = best_of(3, || (0..1000u64).sum::<u64>());
        assert!(d >= Duration::ZERO);
        assert!(d < Duration::from_secs(5));
    }

    #[test]
    fn throughput_line_mentions_label() {
        let s = throughput_line("x", 1_000_000, Duration::from_millis(100));
        assert!(s.starts_with("x:"));
        assert!(s.contains("Melem/s"));
    }
}
