//! Simulation-throughput bench: every LLC scheme replays a fixed
//! omnetpp-analog trace slice at the paper's L2 geometry, so the numbers
//! compare the *cost of the management machinery* (shadow sets, heaps,
//! pointer chasing), not the workload.
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
use stem_bench::timing::{best_of, best_of_paired, throughput_line};
use stem_sim_core::{CacheGeometry, DecodedTrace, Json};
use stem_workloads::{spec2010_suite, BenchmarkProfile};

/// One per-scheme JSON series (`"schemes"` or `"decoded"`).
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

fn main() {
    const REPS: usize = 5;
    let cfg = Config::from_env_or_panic();
    let geom = CacheGeometry::micro2010_l2();
    let trace = BenchmarkProfile::by_name("omnetpp")
        .expect("suite benchmark")
        .trace(geom, cfg.bench_accesses.unwrap_or(100_000));

    // The byte-`Access` path and the pre-decoded SoA stream are timed
    // *interleaved* per scheme (see `best_of_paired`): on a shared host the
    // clock drifts over seconds, and timing one whole series before the
    // other would hand the faster window to whichever ran first. Decode
    // cost is excluded from the decoded series: run_all amortizes one
    // decode per benchmark over all scheme cells.
    let dtrace = DecodedTrace::decode(&trace, geom);
    let mut results: Vec<(&str, Duration)> = Vec::new();
    let mut decoded: Vec<(&str, Duration)> = Vec::new();
    for scheme in Scheme::PAPER {
        let (da, dd) = best_of_paired(
            REPS,
            || {
                let mut cache = build_cache(scheme, geom);
                for a in &trace {
                    cache.access(a.addr, a.kind);
                }
                cache.stats().misses()
            },
            || {
                let mut cache = build_cache(scheme, geom);
                cache.run_decoded(&dtrace);
                cache.stats().misses()
            },
        );
        results.push((scheme.label(), da));
        decoded.push((scheme.label(), dd));
    }

    println!(
        "# scheme_access ({} accesses/iteration, best of {REPS})",
        trace.len()
    );
    for (label, d) in &results {
        println!("{}", throughput_line(label, trace.len() as u64, *d));
    }
    let melems: Vec<f64> = results
        .iter()
        .map(|(_, d)| trace.len() as f64 / d.as_secs_f64().max(1e-12) / 1e6)
        .collect();
    let gm = geomean(&melems);
    println!("geomean: {gm:.2} Melem/s");

    println!(
        "\n# scheme_replay_decoded ({} accesses/iteration, best of {REPS})",
        dtrace.len()
    );
    for (label, d) in &decoded {
        println!("{}", throughput_line(label, dtrace.len() as u64, *d));
    }
    let decoded_melems: Vec<f64> = decoded
        .iter()
        .map(|(_, d)| dtrace.len() as f64 / d.as_secs_f64().max(1e-12) / 1e6)
        .collect();
    let dgm = geomean(&decoded_melems);
    println!("geomean: {dgm:.2} Melem/s ({:.2}x access path)", dgm / gm);

    let generated: Vec<(&str, Duration)> = spec2010_suite()
        .iter()
        .map(|p| {
            (
                p.name(),
                best_of(REPS, || p.decoded(geom, trace.len()).len()),
            )
        })
        .collect();
    println!(
        "\n# generate_decoded ({} accesses/iteration, best of {REPS})",
        trace.len()
    );
    for (name, d) in &generated {
        println!("{}", throughput_line(name, trace.len() as u64, *d));
    }
    let generate_maccess: Vec<f64> = generated
        .iter()
        .map(|(_, d)| trace.len() as f64 / d.as_secs_f64().max(1e-12) / 1e6)
        .collect();
    let ggm = geomean(&generate_maccess);
    println!("geomean: {ggm:.2} Maccess/s");

    let accesses = trace.len() as u64;
    let doc = Json::Obj(vec![
        ("accesses_per_iteration".into(), Json::Int(accesses as i64)),
        ("best_of".into(), Json::Int(REPS as i64)),
        ("geomean_melem_per_s".into(), Json::float_rounded(gm, 4)),
        (
            "decoded_geomean_melem_per_s".into(),
            Json::float_rounded(dgm, 4),
        ),
        (
            "decoded_vs_access_speedup".into(),
            Json::float_rounded(dgm / gm.max(1e-12), 4),
        ),
        ("schemes".into(), series(accesses, &results)),
        ("decoded".into(), series(accesses, &decoded)),
        (
            "generate".into(),
            generate_section(accesses, &generated, ggm),
        ),
    ]);
    maybe_json(cfg.csv_dir.as_deref(), &doc);
}
