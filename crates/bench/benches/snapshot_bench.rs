//! Warm-state snapshot speedup bench: for each benchmark × snapshot-capable
//! scheme, measures cold warm-then-measure replay against warm-once,
//! checkpoint, restore-per-point replay, after proving the two paths
//! produce bit-identical MPKI. This is the instrument behind the committed
//! `BENCH_snapshot.json` artifact and the EXPERIMENTS.md schema.
//!
//! A plain `harness = false` binary timed with `std::time`. Run with
//! `cargo bench -p stem-bench --bench snapshot_bench`.
//!
//! The honest framing, stated up front: one restored point saves at most
//! the warm fraction (20%) of one cold replay, an asymptotic ceiling of
//! 1/(1 − 0.2) = 1.25x. The structural win is *amortization* — a family of
//! K sweep points sharing one warm prefix pays the warm replay once
//! instead of K times — so the artifact records the per-point speedup AND
//! the family speedup at K ∈ {2, 8} (K = 2 is what `run_all`'s paired
//! associativity/capacity sweeps actually reuse today).
//!
//! Determinism: stdout carries only MPKIs — pure functions of
//! `(benchmark, scheme)`, identical cold or restored — so it is
//! byte-identical at any `STEM_THREADS`/`STEM_SNAPSHOTS`
//! setting. Timings go to stderr and the JSON artifact only.
//!
//! Knobs: `STEM_BENCH_ACCESSES` scales the per-benchmark trace length
//! (default 400 000) and `STEM_SNAPSHOT_BENCHMARKS` picks a
//! comma-separated benchmark subset (default `omnetpp,ammp,mcf`). When
//! `STEM_CSV_DIR` is set the full record lands in
//! `$STEM_CSV_DIR/BENCH_snapshot.json`.

use stem_analysis::{build_cache, warm_scheme_snapshot, warm_split, Scheme};
use stem_bench::config::Config;
use stem_bench::engine::{Exec, RunPlan};
use stem_bench::harness::{prepare_trace, WARMUP_FRACTION};
use stem_sim_core::{CacheGeometry, Json};
use stem_workloads::BenchmarkProfile;

const REPS: usize = 3;
/// Family sizes the amortized record tracks: 2 is the pair of sweep
/// points `run_all` restores today; 8 shows the headroom of a denser
/// sweep sharing the same warm capture.
const FAMILY_SIZES: [usize; 2] = [2, 8];

/// One (benchmark, scheme) measurement, best-of-[`REPS`] per phase.
struct Cell {
    benchmark: String,
    scheme: &'static str,
    mpki: f64,
    cold_secs: f64,
    warm_snapshot_secs: f64,
    restore_secs: f64,
}

impl Cell {
    /// Per-point speedup: one cold replay over one restore-and-measure.
    /// Bounded above by 1/(1 − warm fraction) = 1.25x.
    fn restore_speedup(&self) -> f64 {
        self.cold_secs / self.restore_secs.max(1e-12)
    }

    /// Amortized speedup for a family of `k` points sharing one warm
    /// capture: k cold replays against one warm+snapshot plus k restores.
    fn family_speedup(&self, k: usize) -> f64 {
        let k = k.max(1) as f64;
        (k * self.cold_secs) / (self.warm_snapshot_secs + k * self.restore_secs).max(1e-12)
    }
}

fn benchmarks_under_test() -> Vec<String> {
    std::env::var("STEM_SNAPSHOT_BENCHMARKS")
        .ok()
        .filter(|v| !v.is_empty())
        .unwrap_or_else(|| "omnetpp,ammp,mcf".to_owned())
        .split(',')
        .map(|s| s.trim().to_owned())
        .filter(|s| !s.is_empty())
        .collect()
}

fn maybe_json(cfg: &Config, accesses: usize, cells: &[Cell]) {
    let Some(dir) = cfg.csv_dir.as_deref() else {
        return;
    };
    let rows: Vec<Json> = cells
        .iter()
        .map(|c| {
            let mut fields = vec![
                ("benchmark".into(), Json::str(c.benchmark.clone())),
                ("scheme".into(), Json::str(c.scheme)),
                ("mpki".into(), Json::float_rounded(c.mpki, 6)),
                ("cold_secs".into(), Json::float_rounded(c.cold_secs, 6)),
                (
                    "warm_snapshot_secs".into(),
                    Json::float_rounded(c.warm_snapshot_secs, 6),
                ),
                (
                    "restore_secs".into(),
                    Json::float_rounded(c.restore_secs, 6),
                ),
                (
                    "restore_speedup".into(),
                    Json::float_rounded(c.restore_speedup(), 2),
                ),
            ];
            for &k in &FAMILY_SIZES {
                fields.push((
                    format!("family_speedup_k{k}"),
                    Json::float_rounded(c.family_speedup(k), 2),
                ));
            }
            Json::Obj(fields)
        })
        .collect();
    let best = cells
        .iter()
        .map(Cell::restore_speedup)
        .fold(0.0f64, f64::max);
    let doc = Json::Obj(vec![
        ("accesses_per_benchmark".into(), Json::Int(accesses as i64)),
        (
            "warm_fraction".into(),
            Json::float_rounded(WARMUP_FRACTION, 2),
        ),
        ("best_of".into(), Json::Int(REPS as i64)),
        (
            "speedup_ceiling".into(),
            Json::float_rounded(1.0 / (1.0 - WARMUP_FRACTION), 2),
        ),
        ("best_restore_speedup".into(), Json::float_rounded(best, 2)),
        ("cells".into(), Json::Arr(rows)),
    ]);
    let path = dir.join("BENCH_snapshot.json");
    if let Err(e) = std::fs::create_dir_all(dir).and_then(|_| std::fs::write(&path, doc.pretty())) {
        eprintln!("warning: could not write {}: {e}", path.display());
    }
}

fn main() {
    let cfg = Config::from_env_or_panic();
    let geom = CacheGeometry::micro2010_l2();
    let accesses = cfg.bench_accesses.unwrap_or(400_000);
    let benchmarks = benchmarks_under_test();

    let eligible: Vec<Scheme> = Scheme::ALL
        .iter()
        .copied()
        .filter(|&s| build_cache(s, geom).supports_snapshot())
        .collect();

    println!(
        "# snapshot_bench ({accesses} accesses/benchmark, warm fraction {WARMUP_FRACTION}, \
         best of {REPS})"
    );
    println!("# benchmark scheme mpki (cold == restored, asserted per cell)");

    let mut cells: Vec<Cell> = Vec::new();
    let mut divergences = 0usize;
    for name in &benchmarks {
        let Some(bench) = BenchmarkProfile::by_name(name) else {
            eprintln!("unknown benchmark {name:?}; skipping");
            continue;
        };
        let prepared = prepare_trace(&bench, geom, accesses);
        let source = &*prepared.trace;
        let warm_len = warm_split(source.len(), WARMUP_FRACTION);
        for &scheme in &eligible {
            let cold = RunPlan::serial(scheme, geom, WARMUP_FRACTION);
            let mut cold_secs = f64::INFINITY;
            let mut warm_snapshot_secs = f64::INFINITY;
            let mut restore_secs = f64::INFINITY;
            let mut cold_mpki = 0.0;
            let mut restored_mpki = 0.0;
            for _ in 0..REPS {
                // Phases interleaved within each rep (the best_of_paired
                // rationale: clock drift on shared hosts).
                let t = std::time::Instant::now();
                cold_mpki = cold.run(source).expect("serial replay").mpki();
                cold_secs = cold_secs.min(t.elapsed().as_secs_f64());
                let t = std::time::Instant::now();
                let snap = warm_scheme_snapshot(scheme, geom, source, warm_len)
                    .expect("scheme opted into snapshots");
                warm_snapshot_secs = warm_snapshot_secs.min(t.elapsed().as_secs_f64());
                let t = std::time::Instant::now();
                let restored = RunPlan {
                    exec: Exec::Restore(&snap),
                    ..cold
                };
                restored_mpki = restored
                    .run(source)
                    .expect("snapshot restores into its own (scheme, geometry)")
                    .mpki();
                restore_secs = restore_secs.min(t.elapsed().as_secs_f64());
            }
            if cold_mpki.to_bits() != restored_mpki.to_bits() {
                eprintln!(
                    "ERROR: {name}/{}: restored MPKI {restored_mpki} != cold {cold_mpki}",
                    scheme.label()
                );
                divergences += 1;
                continue;
            }
            let cell = Cell {
                benchmark: name.clone(),
                scheme: scheme.label(),
                mpki: cold_mpki,
                cold_secs,
                warm_snapshot_secs,
                restore_secs,
            };
            println!("{} {} {:.6}", cell.benchmark, cell.scheme, cell.mpki);
            eprintln!(
                "  {name}/{}: cold {:.3}s, warm+snapshot {:.3}s, restore {:.3}s \
                 ({:.2}x per point, {:.2}x at k=2, {:.2}x at k=8; ceiling {:.2}x)",
                cell.scheme,
                cell.cold_secs,
                cell.warm_snapshot_secs,
                cell.restore_secs,
                cell.restore_speedup(),
                cell.family_speedup(2),
                cell.family_speedup(8),
                1.0 / (1.0 - WARMUP_FRACTION),
            );
            cells.push(cell);
        }
    }

    maybe_json(&cfg, accesses, &cells);

    if divergences > 0 {
        eprintln!("ERROR: {divergences} cell(s) diverged between cold and restored replay");
        std::process::exit(1);
    }
    eprintln!("all {} cells bit-identical cold vs restored", cells.len());
}
