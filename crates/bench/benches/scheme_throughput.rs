//! Simulation-throughput bench: every paper scheme replays a fixed
//! omnetpp-analog decoded stream at the paper's L2 geometry through its
//! `replay_decoded` kernel — the one path every run takes — so the numbers
//! compare the *cost of the management machinery* (shadow sets, heaps,
//! pointer chasing), not the workload. A second series, `decoded_wide`,
//! replays the same stream at 2048 sets × 32 ways, the widest point of the
//! associativity sweeps, where every recency stack is wider than 16 ways.
//!
//! A plain `harness = false` binary timed with `std::time` — the
//! workspace builds offline with no benchmarking dependency. Run with
//! `cargo bench -p stem-bench --bench scheme_throughput`.
//!
//! A last series times trace synthesis: every suite profile generated
//! straight into a `DecodedTrace` (`BenchmarkProfile::decoded`, the path
//! run_all and serve use).
//!
//! `STEM_BENCH_ACCESSES` scales the trace length (default 100 000; CI's
//! smoke mode uses a fraction of that), and when `STEM_CSV_DIR` is set the
//! per-scheme Melem/s and the per-profile synthesis Maccess/s land in
//! `$STEM_CSV_DIR/BENCH_throughput.json` next to the correctness
//! artifacts, so every PR records its accesses/second.

use std::time::Duration;

use stem_analysis::{build_cache, geomean, Scheme};
use stem_bench::config::Config;
use stem_bench::timing::{best_of, throughput_line};
use stem_sim_core::{CacheGeometry, DecodedTrace, Json};
use stem_workloads::{spec2010_suite, BenchmarkProfile};

/// A per-scheme replay JSON series (`"decoded"`, `"decoded_wide"`).
fn series(accesses: u64, results: &[(&str, Duration)]) -> Json {
    Json::Arr(
        results
            .iter()
            .map(|(label, d)| {
                let melems = accesses as f64 / d.as_secs_f64().max(1e-12) / 1e6;
                Json::Obj(vec![
                    ("scheme".into(), Json::str(*label)),
                    ("best_secs".into(), Json::float_rounded(d.as_secs_f64(), 6)),
                    ("melem_per_s".into(), Json::float_rounded(melems, 4)),
                ])
            })
            .collect(),
    )
}

/// The `"generate"` section: synthesis Maccess/s per suite profile and
/// their geomean.
fn generate_section(accesses: u64, results: &[(&str, Duration)], geomean_maccess: f64) -> Json {
    let profiles = results
        .iter()
        .map(|(name, d)| {
            let maccess = accesses as f64 / d.as_secs_f64().max(1e-12) / 1e6;
            Json::Obj(vec![
                ("benchmark".into(), Json::str(*name)),
                ("best_secs".into(), Json::float_rounded(d.as_secs_f64(), 6)),
                ("maccess_per_s".into(), Json::float_rounded(maccess, 4)),
            ])
        })
        .collect();
    Json::Obj(vec![
        (
            "geomean_maccess_per_s".into(),
            Json::float_rounded(geomean_maccess, 4),
        ),
        ("profiles".into(), Json::Arr(profiles)),
    ])
}

/// Writes the machine-readable summary to
/// `$STEM_CSV_DIR/BENCH_throughput.json` when the variable is set.
fn maybe_json(csv_dir: Option<&std::path::Path>, doc: &Json) {
    let Some(dir) = csv_dir else {
        return;
    };
    let path = dir.join("BENCH_throughput.json");
    if let Err(e) = std::fs::create_dir_all(dir).and_then(|_| std::fs::write(&path, doc.pretty())) {
        eprintln!("warning: could not write {}: {e}", path.display());
    }
}

/// Best-of-`reps` replay time of every paper scheme over `dtrace` at
/// `geom`, printed under `title` with the geomean Melem/s, which it returns
/// alongside the timings. Decode cost is excluded: run_all amortizes one
/// stream per benchmark over all scheme cells.
fn replay_series(
    title: &str,
    reps: usize,
    geom: CacheGeometry,
    dtrace: &DecodedTrace,
) -> (Vec<(&'static str, Duration)>, f64) {
    let results: Vec<(&str, Duration)> = Scheme::PAPER
        .iter()
        .map(|&scheme| {
            let d = best_of(reps, || {
                let mut cache = build_cache(scheme, geom);
                cache.run_decoded(dtrace);
                cache.stats().misses()
            });
            (scheme.label(), d)
        })
        .collect();
    println!(
        "# {title} ({} accesses/iteration, {}x{} geometry, best of {reps})",
        dtrace.len(),
        geom.sets(),
        geom.ways()
    );
    for (label, d) in &results {
        println!("{}", throughput_line(label, dtrace.len() as u64, *d));
    }
    let melems: Vec<f64> = results
        .iter()
        .map(|(_, d)| dtrace.len() as f64 / d.as_secs_f64().max(1e-12) / 1e6)
        .collect();
    let gm = geomean(&melems);
    println!("geomean: {gm:.2} Melem/s");
    (results, gm)
}

fn main() {
    const REPS: usize = 5;
    let cfg = Config::from_env_or_panic();
    let geom = CacheGeometry::micro2010_l2();
    let wide = CacheGeometry::new(geom.sets(), 32, geom.line_bytes()).expect("valid geometry");
    let accesses = cfg.bench_accesses.unwrap_or(100_000);
    let dtrace = BenchmarkProfile::by_name("omnetpp")
        .expect("suite benchmark")
        .decoded(geom, accesses);

    let (decoded, dgm) = replay_series("scheme_replay_decoded", REPS, geom, &dtrace);
    println!();
    let (decoded_wide, wgm) = replay_series("scheme_replay_decoded_wide", REPS, wide, &dtrace);

    let generated: Vec<(&str, Duration)> = spec2010_suite()
        .iter()
        .map(|p| (p.name(), best_of(REPS, || p.decoded(geom, accesses).len())))
        .collect();
    println!("\n# generate_decoded ({accesses} accesses/iteration, best of {REPS})");
    for (name, d) in &generated {
        println!("{}", throughput_line(name, accesses as u64, *d));
    }
    let generate_maccess: Vec<f64> = generated
        .iter()
        .map(|(_, d)| accesses as f64 / d.as_secs_f64().max(1e-12) / 1e6)
        .collect();
    let ggm = geomean(&generate_maccess);
    println!("geomean: {ggm:.2} Maccess/s");

    let accesses = accesses as u64;
    let doc = Json::Obj(vec![
        ("accesses_per_iteration".into(), Json::Int(accesses as i64)),
        ("best_of".into(), Json::Int(REPS as i64)),
        (
            "decoded_geomean_melem_per_s".into(),
            Json::float_rounded(dgm, 4),
        ),
        ("decoded".into(), series(accesses, &decoded)),
        ("decoded_wide_ways".into(), Json::Int(wide.ways() as i64)),
        (
            "decoded_wide_geomean_melem_per_s".into(),
            Json::float_rounded(wgm, 4),
        ),
        ("decoded_wide".into(), series(accesses, &decoded_wide)),
        (
            "generate".into(),
            generate_section(accesses, &generated, ggm),
        ),
    ]);
    maybe_json(cfg.csv_dir.as_deref(), &doc);
}
