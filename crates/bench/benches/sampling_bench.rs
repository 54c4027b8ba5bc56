//! Sampled-fidelity error/speedup bench: for each benchmark × eligible
//! scheme × rate ∈ {1/8, 1/16, 1/32}, measures the exact warmed MPKI, the
//! strided-sample estimate ([`SampledTrace`]), the relative error between
//! them, and the wall-clock speedup of the sampled tier. This is the
//! instrument behind the EXPERIMENTS.md error-bound table and the
//! committed `BENCH_sampling.json` artifact.
//!
//! A plain `harness = false` binary timed with `std::time`. Run with
//! `cargo bench -p stem-bench --bench sampling_bench`.
//!
//! Determinism: stdout carries only MPKIs and relative errors — pure
//! functions of `(benchmark, scheme, rate, seed)` — so it is
//! byte-identical at any `STEM_THREADS` setting (replay is
//! serial by construction; the knob is never consulted). Timings and
//! speedups go to stderr and the JSON artifact only.
//!
//! Knobs: `STEM_BENCH_ACCESSES` scales the per-benchmark trace length
//! (default 400 000), `STEM_SAMPLING_BENCHMARKS` a comma-separated
//! benchmark subset (default `omnetpp,ammp,mcf`), and
//! `STEM_SAMPLING_ERROR_BOUND` (a float) makes
//! the run *gate*: exit nonzero if any cell's MPKI relative error exceeds
//! the bound, or if no cell was measured. An unknown benchmark name or a
//! malformed bound exits 2 before anything runs. When `STEM_CSV_DIR` is
//! set the full record lands in `$STEM_CSV_DIR/BENCH_sampling.json`.

use std::time::Duration;

use stem_analysis::{build_cache, Scheme};
use stem_bench::config::Config;
use stem_bench::engine::{Exec, RunPlan};
use stem_bench::harness::{prepare_trace, WARMUP_FRACTION};
use stem_bench::timing::{best_of, best_of_paired};
use stem_sim_core::{CacheGeometry, Json, SampledTrace};
use stem_workloads::BenchmarkProfile;

/// The sampling rates the trajectory tracks (EXPERIMENTS.md table schema).
const RATES: [u32; 3] = [8, 16, 32];
const REPS: usize = 3;
/// The sampled-set selection seed (serve's default seed too).
const SEED: u64 = 0;

/// One (benchmark, scheme, rate) measurement.
struct Cell {
    benchmark: &'static str,
    scheme: &'static str,
    rate: u32,
    exact_mpki: f64,
    sampled_mpki: f64,
    exact_secs: f64,
    select_secs: f64,
    replay_secs: f64,
}

impl Cell {
    fn rel_error(&self) -> f64 {
        if self.exact_mpki == 0.0 {
            0.0
        } else {
            (self.sampled_mpki - self.exact_mpki).abs() / self.exact_mpki
        }
    }

    /// Exact replay time over sampled replay time (selection excluded:
    /// one sample serves every scheme, as one decode serves every cell).
    fn replay_speedup(&self) -> f64 {
        self.exact_secs / self.replay_secs.max(1e-12)
    }

    /// Exact replay time over the full sampled pipeline (selection
    /// amortized over the eligible schemes that share the sample).
    fn end_to_end_speedup(&self, schemes_sharing: usize) -> f64 {
        let amortized = self.select_secs / schemes_sharing.max(1) as f64;
        self.exact_secs / (self.replay_secs + amortized).max(1e-12)
    }
}

/// `STEM_SAMPLING_BENCHMARKS`, resolved to profiles. An unknown name
/// exits 2, like a malformed bound: a typo must not shrink the gate.
fn benchmarks_under_test() -> Vec<BenchmarkProfile> {
    let raw = std::env::var("STEM_SAMPLING_BENCHMARKS")
        .ok()
        .filter(|v| !v.is_empty())
        .unwrap_or_else(|| "omnetpp,ammp,mcf".to_owned());
    raw.split(',')
        .map(str::trim)
        .filter(|s| !s.is_empty())
        .map(|name| {
            BenchmarkProfile::by_name(name).unwrap_or_else(|| {
                eprintln!(
                    "STEM_SAMPLING_BENCHMARKS={raw:?} is malformed: \
                     {name:?} is not a suite benchmark"
                );
                std::process::exit(2);
            })
        })
        .collect()
}

/// `STEM_SAMPLING_ERROR_BOUND`: parsed here rather than in `Config`
/// (which is `Eq` and deliberately holds no floats).
fn error_bound() -> Option<f64> {
    let raw = std::env::var("STEM_SAMPLING_ERROR_BOUND").ok()?;
    if raw.is_empty() {
        return None;
    }
    match raw.parse::<f64>() {
        Ok(b) if b >= 0.0 && b.is_finite() => Some(b),
        _ => {
            eprintln!(
                "STEM_SAMPLING_ERROR_BOUND={raw:?} is malformed: expected a non-negative float"
            );
            std::process::exit(2);
        }
    }
}

fn maybe_json(cfg: &Config, accesses: usize, cells: &[Cell], schemes_sharing: usize) {
    let Some(dir) = cfg.csv_dir.as_deref() else {
        return;
    };
    let rows: Vec<Json> = cells
        .iter()
        .map(|c| {
            Json::Obj(vec![
                ("benchmark".into(), Json::str(c.benchmark)),
                ("scheme".into(), Json::str(c.scheme)),
                ("rate".into(), Json::Int(i64::from(c.rate))),
                ("exact_mpki".into(), Json::float_rounded(c.exact_mpki, 6)),
                (
                    "sampled_mpki".into(),
                    Json::float_rounded(c.sampled_mpki, 6),
                ),
                ("rel_error".into(), Json::float_rounded(c.rel_error(), 6)),
                ("exact_secs".into(), Json::float_rounded(c.exact_secs, 6)),
                ("select_secs".into(), Json::float_rounded(c.select_secs, 6)),
                ("replay_secs".into(), Json::float_rounded(c.replay_secs, 6)),
                (
                    "replay_speedup".into(),
                    Json::float_rounded(c.replay_speedup(), 2),
                ),
                (
                    "end_to_end_speedup".into(),
                    Json::float_rounded(c.end_to_end_speedup(schemes_sharing), 2),
                ),
            ])
        })
        .collect();
    let max_err = cells.iter().map(Cell::rel_error).fold(0.0f64, f64::max);
    let best_16 = cells
        .iter()
        .filter(|c| c.rate == 16)
        .map(Cell::replay_speedup)
        .fold(0.0f64, f64::max);
    let doc = Json::Obj(vec![
        ("accesses_per_benchmark".into(), Json::Int(accesses as i64)),
        ("seed".into(), Json::Int(SEED as i64)),
        ("best_of".into(), Json::Int(REPS as i64)),
        ("max_rel_error".into(), Json::float_rounded(max_err, 6)),
        (
            "best_replay_speedup_rate16".into(),
            Json::float_rounded(best_16, 2),
        ),
        ("cells".into(), Json::Arr(rows)),
    ]);
    let path = dir.join("BENCH_sampling.json");
    if let Err(e) = std::fs::create_dir_all(dir).and_then(|_| std::fs::write(&path, doc.pretty())) {
        eprintln!("warning: could not write {}: {e}", path.display());
    }
}

fn main() {
    let cfg = Config::from_env_or_panic();
    let geom = CacheGeometry::micro2010_l2();
    let accesses = cfg.bench_accesses.unwrap_or(400_000);
    let bound = error_bound();
    let benchmarks = benchmarks_under_test();

    let eligible: Vec<Scheme> = Scheme::ALL
        .iter()
        .copied()
        .filter(|&s| build_cache(s, geom).supports_set_sampling())
        .collect();

    println!(
        "# sampling_bench ({accesses} accesses/benchmark, seed {SEED}, rates {:?}, best of {REPS})",
        RATES
    );
    println!("# benchmark scheme rate exact_mpki sampled_mpki rel_error");

    let mut cells: Vec<Cell> = Vec::new();
    for bench in &benchmarks {
        let name = bench.name();
        let prepared = prepare_trace(bench, geom, accesses);
        let source = &*prepared.trace;
        for &rate in &RATES {
            // Selection is timed separately: one sample serves every
            // eligible scheme at this rate.
            let mut select_secs = f64::INFINITY;
            let mut sample = None;
            for _ in 0..REPS {
                let t = std::time::Instant::now();
                let s = SampledTrace::select(source, rate, SEED);
                select_secs = select_secs.min(t.elapsed().as_secs_f64());
                sample = Some(s);
            }
            let sample = sample.expect("REPS > 0");
            for &scheme in &eligible {
                // Exact and sampled replay timed interleaved (the
                // best_of_paired rationale: clock drift on shared hosts),
                // with MPKIs captured from the same closures.
                let exact = RunPlan::serial(scheme, geom, WARMUP_FRACTION);
                let sampled = RunPlan {
                    exec: Exec::Sampled(&sample),
                    ..exact
                };
                let mpki = |plan: &RunPlan<'_>| {
                    plan.run(source)
                        .expect("eligible schemes opt into sampling")
                        .mpki()
                };
                let mut exact_mpki = 0.0;
                let mut sampled_mpki = 0.0;
                let (de, ds): (Duration, Duration) = best_of_paired(
                    REPS,
                    || {
                        exact_mpki = mpki(&exact);
                        exact_mpki.to_bits()
                    },
                    || {
                        sampled_mpki = mpki(&sampled);
                        sampled_mpki.to_bits()
                    },
                );
                let cell = Cell {
                    benchmark: name,
                    scheme: scheme.label(),
                    rate,
                    exact_mpki,
                    sampled_mpki,
                    exact_secs: de.as_secs_f64(),
                    select_secs,
                    replay_secs: ds.as_secs_f64(),
                };
                println!(
                    "{} {} 1/{} {:.6} {:.6} {:.6}",
                    cell.benchmark,
                    cell.scheme,
                    cell.rate,
                    cell.exact_mpki,
                    cell.sampled_mpki,
                    cell.rel_error()
                );
                eprintln!(
                    "  {name}/{}/1-{rate}: exact {:.3}s, sampled replay {:.3}s \
                     ({:.1}x replay, {:.1}x end-to-end), rel err {:.2}%",
                    cell.scheme,
                    cell.exact_secs,
                    cell.replay_secs,
                    cell.replay_speedup(),
                    cell.end_to_end_speedup(eligible.len()),
                    cell.rel_error() * 100.0
                );
                cells.push(cell);
            }
        }
    }

    // Timing smoke for trace selection alone (stderr only).
    if let Some(bench) = benchmarks.first() {
        let prepared = prepare_trace(bench, geom, accesses);
        let d = best_of(REPS, || {
            SampledTrace::select(&prepared.trace, 16, SEED).len()
        });
        eprintln!(
            "select(rate 16) over {} accesses: {:.3}s best-of-{REPS}",
            prepared.trace.len(),
            d.as_secs_f64()
        );
    }

    let max_err = cells.iter().map(Cell::rel_error).fold(0.0f64, f64::max);
    println!("max_rel_error {max_err:.6}");
    maybe_json(&cfg, accesses, &cells, eligible.len());

    if let Some(bound) = bound {
        if cells.is_empty() {
            eprintln!("ERROR: no cell was measured, so the rel-error bound {bound} gates nothing");
            std::process::exit(1);
        }
        let violations: Vec<&Cell> = cells.iter().filter(|c| c.rel_error() > bound).collect();
        if !violations.is_empty() {
            eprintln!(
                "ERROR: {} cell(s) exceed the MPKI relative-error bound {bound}:",
                violations.len()
            );
            for c in violations {
                eprintln!(
                    "  {}/{}/1-{}: rel error {:.4} (exact {:.4}, sampled {:.4})",
                    c.benchmark,
                    c.scheme,
                    c.rate,
                    c.rel_error(),
                    c.exact_mpki,
                    c.sampled_mpki
                );
            }
            std::process::exit(1);
        }
        eprintln!(
            "all {} cells within the rel-error bound {bound}",
            cells.len()
        );
    }
}
