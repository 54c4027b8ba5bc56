//! Runs the complete experiment suite — every table and figure of the
//! paper — and prints a combined report. This is the one-shot
//! reproduction driver; see `EXPERIMENTS.md` for the archived output and
//! the paper-vs-measured discussion.
//!
//! Run with `cargo run --release -p stem-bench --bin run_all`.
//! `STEM_ACCESSES` scales the per-benchmark trace length,
//! `STEM_SWEEP_ACCESSES` the associativity sweeps, `STEM_PERIODS` the
//! Fig. 1 sampling periods, and `STEM_CSV_DIR` (optional) a directory to
//! also write each table as a CSV file for plotting (plus the full Fig. 1
//! band distributions, `fig1_<benchmark>.csv`, which stdout summarises in
//! one line each, and a `BENCH_run_all.json` wall-clock summary).
//!
//! The suite fans out over `STEM_THREADS` workers (default: all cores).
//! Every experiment cell — each (benchmark, scheme) pair of the matrix,
//! each sweep point — runs isolated under `catch_unwind` with a four-hour
//! wall-clock budget: a panicking or hanging cell is reported and
//! skipped, the remaining tables still print, and the process exits
//! nonzero. Results are collected in input order, so stdout and every
//! CSV are **byte-identical at any thread count**; progress and timing
//! go to stderr.
//! `STEM_INJECT_PANIC=<experiment>` deliberately crashes one cell to
//! exercise that path.

use std::path::Path;
use std::process::ExitCode;
use std::sync::Arc;

use stem_analysis::{geomean, run_mix_decoded, CapacityDemandProfiler, MixOutcome, Scheme, Table};
use stem_bench::config::Config;
use stem_bench::engine::RunPlan;
use stem_bench::harness::{
    capacity_sweep_sets, normalized_table, prepare_trace, run_benchmark_matrix_isolated,
    sensitivity_benchmarks, sweep_ways, PrepTimings, WARMUP_FRACTION,
};
use stem_bench::resilience::{ExperimentOutcome, ExperimentRunner};
use stem_bench::timing::cores_entry;
use stem_hierarchy::SystemConfig;
use stem_llc::{overhead, StemConfig};
use stem_sim_core::{CacheGeometry, DecodedTrace, Json};

/// Writes `table` to `<dir>/<name>.csv` when an artifact directory is
/// configured.
fn maybe_csv(csv_dir: Option<&Path>, name: &str, table: &Table) {
    if let Some(dir) = csv_dir {
        let path = dir.join(format!("{name}.csv"));
        if let Err(e) =
            std::fs::create_dir_all(dir).and_then(|_| std::fs::write(&path, table.to_csv()))
        {
            eprintln!("warning: could not write {}: {e}", path.display());
        }
    }
}

/// The end-to-end pipeline stage breakdown recorded alongside the
/// per-experiment timings: wall clock spent synthesizing accesses,
/// decoding raw traces into shared [`DecodedTrace`]s (the mix streams;
/// the matrix, Fig. 1 and sweep traces are generated straight into
/// decoded columns, so their decode time is inside generate), replaying
/// decoded streams
/// through the scheme models (matrix cells and sweep points), and running
/// the remaining analyses (Fig. 1 profiling net of its trace preparation,
/// plus Table 3).
struct StageBreakdown {
    generate_secs: f64,
    decode_secs: f64,
    replay_secs: f64,
    analysis_secs: f64,
}

impl StageBreakdown {
    /// Derives the breakdown from the prep accumulator and the recorded
    /// outcomes. `fig1_prep_secs` is the generate+decode share of the
    /// `fig1_*` cells (already inside `prep`), subtracted from their cell
    /// time so it is not double-counted as analysis.
    fn from_outcomes(
        prep: PrepTimings,
        fig1_prep_secs: f64,
        outcomes: &[ExperimentOutcome],
    ) -> Self {
        let sum_where = |f: &dyn Fn(&str) -> bool| -> f64 {
            outcomes
                .iter()
                .filter(|o| f(&o.name))
                .map(|o| o.elapsed.as_secs_f64())
                .sum()
        };
        let replay_secs = sum_where(&|n: &str| {
            n.starts_with("matrix/")
                || (n.starts_with("sweep_") && !n.starts_with("sweep_trace_"))
                || (n.starts_with("mix_") && !n.starts_with("mix_trace_"))
        });
        let analysis_cells = sum_where(&|n: &str| n.starts_with("fig1_") || n == "table3_overhead");
        StageBreakdown {
            generate_secs: prep.generate.as_secs_f64(),
            decode_secs: prep.decode.as_secs_f64(),
            replay_secs,
            analysis_secs: (analysis_cells - fig1_prep_secs).max(0.0),
        }
    }
}

/// The MPKI of one sweep point: a warmed serial replay of `trace`.
fn sweep_point(scheme: Scheme, geom: CacheGeometry, trace: &DecodedTrace) -> f64 {
    RunPlan::serial(scheme, geom, WARMUP_FRACTION)
        .run(trace)
        .unwrap_or_else(|e| panic!("{scheme} sweep point: {e}"))
        .mpki()
}

/// Emits the per-experiment wall-clock summary: always to stderr (stdout
/// stays byte-stable across thread counts), and as
/// `<csv_dir>/BENCH_run_all.json` when the artifact directory is set —
/// the seed of the performance trajectory across PRs. The document is
/// built as a [`Json`] value and serialized by the shared writer in
/// `stem-sim-core`, the same code path the serve responses use.
fn emit_timing_summary(
    csv_dir: Option<&Path>,
    threads: usize,
    outcomes: &[ExperimentOutcome],
    stages: &StageBreakdown,
) {
    let total: f64 = outcomes.iter().map(|o| o.elapsed.as_secs_f64()).sum();
    eprintln!(
        "\nper-experiment wall clock ({} cells on {} threads, {:.1}s of work):",
        outcomes.len(),
        threads,
        total
    );
    for o in outcomes {
        let status = match &o.failure {
            None => "ok",
            Some(_) => "FAILED",
        };
        eprintln!(
            "  {:>8.2}s  {:<6} {}",
            o.elapsed.as_secs_f64(),
            status,
            o.name
        );
    }
    eprintln!(
        "stage breakdown: generate {:.2}s, decode {:.2}s, replay {:.2}s, analysis {:.2}s",
        stages.generate_secs, stages.decode_secs, stages.replay_secs, stages.analysis_secs
    );

    if let Some(dir) = csv_dir {
        let secs3 = |s: f64| Json::float_rounded(s, 3);
        let experiments: Vec<Json> = outcomes
            .iter()
            .map(|o| {
                let status = match &o.failure {
                    None => "ok".to_owned(),
                    Some(f) => f.to_string(),
                };
                Json::Obj(vec![
                    ("name".into(), Json::str(o.name.clone())),
                    ("elapsed_secs".into(), secs3(o.elapsed.as_secs_f64())),
                    ("status".into(), Json::str(status)),
                ])
            })
            .collect();
        let doc = Json::Obj(vec![
            ("threads".into(), Json::Int(threads as i64)),
            cores_entry(),
            ("total_cell_seconds".into(), secs3(total)),
            (
                "stages".into(),
                Json::Obj(vec![
                    ("generate_secs".into(), secs3(stages.generate_secs)),
                    ("decode_secs".into(), secs3(stages.decode_secs)),
                    ("replay_secs".into(), secs3(stages.replay_secs)),
                    ("analysis_secs".into(), secs3(stages.analysis_secs)),
                ]),
            ),
            ("experiments".into(), Json::Arr(experiments)),
        ]);
        let path = dir.join("BENCH_run_all.json");
        if let Err(e) =
            std::fs::create_dir_all(dir).and_then(|_| std::fs::write(&path, doc.pretty()))
        {
            eprintln!("warning: could not write {}: {e}", path.display());
        }
    }
}

/// The deterministic interleave seed of the run_all mix stage (fixed so
/// the committed `BENCH_mix.json` is reproducible byte-for-byte).
const MIX_SEED: u64 = 42;

/// The 2-core mix pairings of the run_all mix stage: one Class I + Class
/// III pairing (capacity-hungry vs streaming) and one Class II + Class I.
const MIX_DEFS: [(&str, &str); 2] = [("omnetpp", "gromacs"), ("mcf", "ammp")];

/// Writes `<csv_dir>/BENCH_mix.json`: the shared-LLC mix stage's full
/// record — per (mix, scheme) the weighted speedup, fairness, and
/// per-core solo-vs-shared metrics, plus replay wall clock. Schema
/// documented in `EXPERIMENTS.md`.
fn emit_mix_artifact(
    csv_dir: Option<&Path>,
    accesses: usize,
    results: &[Vec<Option<(MixOutcome, f64)>>],
) {
    let Some(dir) = csv_dir else { return };
    let f6 = |v: f64| Json::float_rounded(v, 6);
    let mixes: Vec<Json> = MIX_DEFS
        .iter()
        .zip(results)
        .map(|(&(a, b), per_scheme)| {
            let schemes: Vec<Json> = Scheme::PAPER
                .iter()
                .zip(per_scheme)
                .filter_map(|(scheme, cell)| {
                    let (o, secs) = cell.as_ref()?;
                    let cores: Vec<Json> = [a, b]
                        .iter()
                        .enumerate()
                        .map(|(i, &bench)| {
                            Json::Obj(vec![
                                ("benchmark".into(), Json::str(bench)),
                                ("solo_mpki".into(), f6(o.solo[i].mpki)),
                                ("shared_mpki".into(), f6(o.mix.per_core[i].mpki)),
                                ("solo_cpi".into(), f6(o.solo[i].cpi)),
                                ("shared_cpi".into(), f6(o.mix.per_core[i].cpi)),
                                ("speedup".into(), f6(o.speedups[i])),
                            ])
                        })
                        .collect();
                    Some(Json::Obj(vec![
                        ("scheme".into(), Json::str(scheme.label())),
                        ("weighted_speedup".into(), f6(o.weighted_speedup)),
                        ("fairness".into(), f6(o.fairness)),
                        ("combined_mpki".into(), f6(o.mix.combined.mpki)),
                        ("elapsed_secs".into(), Json::float_rounded(*secs, 3)),
                        ("cores".into(), Json::Arr(cores)),
                    ]))
                })
                .collect();
            Json::Obj(vec![
                ("name".into(), Json::str(format!("{a}+{b}"))),
                (
                    "benchmarks".into(),
                    Json::Arr(vec![Json::str(a), Json::str(b)]),
                ),
                ("schemes".into(), Json::Arr(schemes)),
            ])
        })
        .collect();
    let doc = Json::Obj(vec![
        cores_entry(),
        ("accesses_per_mix".into(), Json::Int(accesses as i64)),
        ("seed".into(), Json::Int(MIX_SEED as i64)),
        (
            "warm_fraction".into(),
            Json::float_rounded(WARMUP_FRACTION, 2),
        ),
        (
            "weights".into(),
            Json::Arr(vec![
                Json::float_rounded(1.0, 1),
                Json::float_rounded(1.0, 1),
            ]),
        ),
        ("mixes".into(), Json::Arr(mixes)),
    ]);
    let path = dir.join("BENCH_mix.json");
    if let Err(e) = std::fs::create_dir_all(dir).and_then(|_| std::fs::write(&path, doc.pretty())) {
        eprintln!("warning: could not write {}: {e}", path.display());
    }
}

fn main() -> ExitCode {
    let cfg = match Config::from_env() {
        Ok(cfg) => cfg,
        Err(e) => {
            eprintln!("configuration error: {e}");
            return ExitCode::from(2);
        }
    };
    let geom = CacheGeometry::micro2010_l2();
    let accesses = cfg.accesses();
    let sweep_accesses = cfg.sweep_accesses();
    let periods = cfg.periods.unwrap_or(20);
    let threads = cfg.threads();
    let csv_dir = cfg.csv_dir.as_deref();

    let mut runner = ExperimentRunner::new();
    // Accumulated generate/decode wall clock across every trace-preparing
    // cell, and the share of it that happened inside `fig1_*` cells.
    let mut prep = PrepTimings::default();
    let mut fig1_prep_secs = 0.0f64;

    println!("# STEM reproduction — full experiment run");
    println!(
        "\nconfig: {} accesses/benchmark, {} accesses/sweep-point, {} Fig.1 periods, {}s/experiment budget\n",
        accesses,
        sweep_accesses,
        periods,
        runner.budget().as_secs()
    );
    eprintln!("fanning out on {threads} worker thread(s) (STEM_THREADS to override)");

    // ---- Fig. 1 -----------------------------------------------------
    let fig1_names = ["omnetpp", "ammp"];
    let fig1_jobs: Vec<(String, _)> = fig1_names
        .iter()
        .map(|&name| {
            (format!("fig1_{name}"), move || {
                let bench =
                    stem_workloads::BenchmarkProfile::by_name(name).expect("suite benchmark");
                let prepared = prepare_trace(&bench, geom, periods * 50_000);
                let hists =
                    CapacityDemandProfiler::micro2010(geom).profile_decoded(&prepared.trace);
                let agg = CapacityDemandProfiler::aggregate(&hists);
                (
                    (
                        agg.fraction_at_most(4),
                        agg.fraction_at_most(16),
                        agg.fraction_at_most(0),
                        agg.banded(),
                    ),
                    prepared.prep,
                )
            })
        })
        .collect();
    for (name, outcome) in fig1_names.iter().zip(runner.run_batch(threads, fig1_jobs)) {
        if let Some(((le4, le16, zero, banded), cell_prep)) = outcome {
            prep.absorb(cell_prep);
            fig1_prep_secs += (cell_prep.generate + cell_prep.decode).as_secs_f64();
            println!(
                "## Fig. 1 ({name}): demand <= 4 ways: {le4:.2}, <= 16 ways: {le16:.2}, \
                 zero-demand: {zero:.2}",
            );
            // The full distribution (band 0, then 1-2 … 31-32 ways) goes
            // to the CSV only; stdout keeps the one-line summary.
            let mut bands = Table::new(vec!["band (ways)".into(), "fraction".into()]);
            let labels = std::iter::once("0".to_owned())
                .chain((0..16).map(|i| format!("{}-{}", 2 * i + 1, 2 * i + 2)));
            for (label, frac) in labels.zip(&banded) {
                bands.row(vec![label, format!("{frac:.3}")]);
            }
            maybe_csv(csv_dir, &format!("fig1_{name}"), &bands);
        }
    }

    // ---- Fig. 7/8/9 + Table 2 --------------------------------------
    eprintln!("running the 15-benchmark x 6-scheme matrix...");
    let rows = run_benchmark_matrix_isolated(&mut runner, geom, accesses, threads, &mut prep);

    if !rows.is_empty() {
        let mut t2 = Table::new(vec!["benchmark".into(), "LRU MPKI".into()]);
        for row in &rows {
            t2.row(vec![row.name.into(), format!("{:.3}", row.metrics[0].mpki)]);
        }
        println!("\n## Table 2 — LRU MPKI\n\n{t2}");
        maybe_csv(csv_dir, "table2_mpki", &t2);
        let fig7 = normalized_table(&rows, 0);
        let fig8 = normalized_table(&rows, 1);
        let fig9 = normalized_table(&rows, 2);
        println!("## Fig. 7 — normalized MPKI\n\n{fig7}");
        println!("## Fig. 8 — normalized AMAT\n\n{fig8}");
        println!("## Fig. 9 — normalized CPI\n\n{fig9}");
        maybe_csv(csv_dir, "fig7_mpki", &fig7);
        maybe_csv(csv_dir, "fig8_amat", &fig8);
        maybe_csv(csv_dir, "fig9_cpi", &fig9);

        // Headline numbers (paper abstract: 21.4% / 13.5% / 6.3% over LRU).
        let mut stem_gains = [Vec::new(), Vec::new(), Vec::new()];
        for row in &rows {
            let (m, a, c) = row.normalized(5); // STEM index in Scheme::PAPER
            stem_gains[0].push(m);
            stem_gains[1].push(a);
            stem_gains[2].push(c);
        }
        println!(
            "## Headline — STEM improvement over LRU: MPKI {:.1}% (paper 21.4%), AMAT {:.1}% (paper 13.5%), CPI {:.1}% (paper 6.3%)\n",
            (1.0 - geomean(&stem_gains[0])) * 100.0,
            (1.0 - geomean(&stem_gains[1])) * 100.0,
            (1.0 - geomean(&stem_gains[2])) * 100.0,
        );
    } else {
        eprintln!("skipping Table 2 / Fig. 7-9 / headline: the benchmark matrix failed");
    }

    // ---- Fig. 3 / Fig. 10 -------------------------------------------
    let ways = sweep_ways();
    let sens = sensitivity_benchmarks();

    // The two sensitivity traces, generated once each straight into a
    // line-granular stream. Every associativity point and every
    // capacity-sweep set count replays the same shared stream — each
    // cache derives its own set index from the line — so the capacity
    // comparison is never confounded with trace differences.
    let sweep_trace_jobs: Vec<(String, _)> = sens
        .iter()
        .map(|bench| {
            let bench = bench.clone();
            (format!("sweep_trace_{}", bench.name()), move || {
                prepare_trace(&bench, geom, sweep_accesses)
            })
        })
        .collect();
    let sweep_traces: Vec<Option<Arc<DecodedTrace>>> = runner
        .run_batch(threads, sweep_trace_jobs)
        .into_iter()
        .map(|p| {
            p.map(|p| {
                prep.absorb(p.prep);
                p.trace
            })
        })
        .collect();
    let cap_sets = capacity_sweep_sets();

    // Every (benchmark, scheme, ways) associativity point and every
    // non-base (benchmark, scheme, sets) capacity point is one cell.
    enum PointKey {
        Assoc(usize, usize, usize),
        Cap(usize, usize, usize),
    }
    let mut point_jobs: Vec<(String, Box<dyn FnOnce() -> f64 + Send>)> = Vec::new();
    let mut point_keys: Vec<PointKey> = Vec::new();
    for (bi, trace) in sweep_traces.iter().enumerate() {
        let Some(trace) = trace else { continue };
        eprintln!(
            "sweeping {} (Fig. 3 / Fig. 10 + capacity)...",
            sens[bi].name()
        );
        for (si, &scheme) in Scheme::PAPER.iter().enumerate() {
            for (wi, &w) in ways.iter().enumerate() {
                let trace = Arc::clone(trace);
                point_jobs.push((
                    format!("sweep_{}/{}/{}w", sens[bi].name(), scheme.label(), w),
                    Box::new(move || {
                        let point = CacheGeometry::new(geom.sets(), w, geom.line_bytes())
                            .expect("sweep geometry is valid");
                        sweep_point(scheme, point, &trace)
                    }),
                ));
                point_keys.push(PointKey::Assoc(bi, si, wi));
            }
            for (ci, &sets) in cap_sets.iter().enumerate() {
                // The base set count gets no cell: its point is the
                // associativity sweep's point at the base ways.
                if sets == geom.sets() {
                    continue;
                }
                let trace = Arc::clone(trace);
                let cap_geom = CacheGeometry::new(sets, geom.ways(), geom.line_bytes())
                    .expect("capacity geometry is valid");
                point_jobs.push((
                    format!("sweep_cap_{}/{}/{}s", sens[bi].name(), scheme.label(), sets),
                    Box::new(move || sweep_point(scheme, cap_geom, &trace)),
                ));
                point_keys.push(PointKey::Cap(bi, si, ci));
            }
        }
    }
    let point_results = runner.run_batch(threads, point_jobs);
    let mut series: Vec<Vec<Vec<Option<f64>>>> =
        vec![vec![vec![None; ways.len()]; Scheme::PAPER.len()]; sens.len()];
    let mut cap_series: Vec<Vec<Vec<Option<f64>>>> =
        vec![vec![vec![None; cap_sets.len()]; Scheme::PAPER.len()]; sens.len()];
    for (key, v) in point_keys.into_iter().zip(point_results) {
        match key {
            PointKey::Assoc(bi, si, wi) => series[bi][si][wi] = v,
            PointKey::Cap(bi, si, ci) => cap_series[bi][si][ci] = v,
        }
    }
    // The base operating point is one geometry replaying one decoded
    // trace in both sweeps, so the capacity table takes the associativity
    // sweep's value.
    let base_wi = ways
        .iter()
        .position(|&w| w == geom.ways())
        .expect("the associativity sweep covers the base ways");
    let base_ci = cap_sets
        .iter()
        .position(|&s| s == geom.sets())
        .expect("the capacity sweep covers the base sets");
    for (bench_series, bench_cap) in series.iter().zip(&mut cap_series) {
        for (per_scheme, cap) in bench_series.iter().zip(bench_cap) {
            cap[base_ci] = per_scheme[base_wi];
        }
    }
    for (bi, bench_series) in series.into_iter().enumerate() {
        let name = sens[bi].name();
        if sweep_traces[bi].is_none() {
            eprintln!("skipping Fig. 3/10 ({name}): trace generation failed");
            continue;
        }
        let complete: Option<Vec<Vec<f64>>> = bench_series
            .into_iter()
            .map(|per_scheme| per_scheme.into_iter().collect())
            .collect();
        let Some(bench_series) = complete else {
            eprintln!("skipping Fig. 3/10 ({name}): a sweep point failed; see final report");
            continue;
        };
        let mut headers = vec!["assoc".to_owned()];
        headers.extend(Scheme::PAPER.iter().map(|s| s.label().to_owned()));
        let mut t = Table::new(headers);
        for (wi, &w) in ways.iter().enumerate() {
            let values: Vec<f64> = bench_series
                .iter()
                .map(|per_scheme| per_scheme[wi])
                .collect();
            t.row_f64(&w.to_string(), &values);
        }
        println!("## Fig. 3/10 ({name}) — MPKI vs associativity\n\n{t}");
        maybe_csv(csv_dir, &format!("fig10_{name}"), &t);
    }

    // ---- Capacity sweep ---------------------------------------------
    // Same traces, set count swept at the paper associativity; the base
    // operating point (2048 sets, 16 ways) appears in both tables.
    for (bi, bench_series) in cap_series.into_iter().enumerate() {
        let name = sens[bi].name();
        if sweep_traces[bi].is_none() {
            eprintln!("skipping capacity sweep ({name}): trace generation failed");
            continue;
        }
        let complete: Option<Vec<Vec<f64>>> = bench_series
            .into_iter()
            .map(|per_scheme| per_scheme.into_iter().collect())
            .collect();
        let Some(bench_series) = complete else {
            eprintln!("skipping capacity sweep ({name}): a point failed; see final report");
            continue;
        };
        let mut headers = vec!["capacity".to_owned()];
        headers.extend(Scheme::PAPER.iter().map(|s| s.label().to_owned()));
        let mut t = Table::new(headers);
        for (ci, &sets) in cap_sets.iter().enumerate() {
            let cap_geom = CacheGeometry::new(sets, geom.ways(), geom.line_bytes())
                .expect("capacity geometry is valid");
            let values: Vec<f64> = bench_series
                .iter()
                .map(|per_scheme| per_scheme[ci])
                .collect();
            t.row_f64(&format!("{}KB", cap_geom.capacity_bytes() / 1024), &values);
        }
        println!("## Capacity ({name}) — MPKI at 16 ways\n\n{t}");
        maybe_csv(csv_dir, &format!("capacity_{name}"), &t);
    }

    // ---- Table 3 -----------------------------------------------------
    if let Some(overhead_pct) = runner.run_value("table3_overhead", move || {
        let base = overhead::lru_baseline(geom);
        let stem = overhead::stem(geom, &StemConfig::micro2010());
        stem.overhead_vs(&base) * 100.0
    }) {
        println!("## Table 3 — STEM storage overhead vs LRU: {overhead_pct:+.2}% (paper: +3.1%)");
    }

    // ---- Mix stage (stderr + CSV + JSON only) -----------------------
    // Two-core shared-LLC mixes through the mix subsystem: per-core
    // streams interleaved by a seeded schedule, solo baselines, weighted
    // speedup + fairness per scheme. stdout is never touched — the
    // archived run_all_output.txt stays valid — and the results land in
    // mix.csv + BENCH_mix.json (schema in EXPERIMENTS.md), both
    // byte-identical at any thread count.
    eprintln!("\nrunning the 2-core shared-LLC mix stage...");
    let sys_cfg = SystemConfig::micro2010();
    type MixStreams = Arc<Vec<DecodedTrace>>;
    type MixTraceJob = Box<dyn FnOnce() -> (MixStreams, PrepTimings) + Send>;
    let mix_trace_jobs: Vec<(String, MixTraceJob)> = MIX_DEFS
        .iter()
        .map(|&(a, b)| {
            let job: MixTraceJob = Box::new(move || {
                let mix = stem_workloads::WorkloadMix::new(vec![
                    (
                        stem_workloads::BenchmarkProfile::by_name(a).expect("suite benchmark"),
                        1.0,
                    ),
                    (
                        stem_workloads::BenchmarkProfile::by_name(b).expect("suite benchmark"),
                        1.0,
                    ),
                ]);
                let t0 = std::time::Instant::now();
                let raw = mix.core_traces(geom, accesses);
                let generate = t0.elapsed();
                let t0 = std::time::Instant::now();
                let streams: Vec<DecodedTrace> =
                    raw.iter().map(|t| DecodedTrace::decode(t, geom)).collect();
                let decode = t0.elapsed();
                (Arc::new(streams), PrepTimings { generate, decode })
            });
            (format!("mix_trace_{a}+{b}"), job)
        })
        .collect();
    let mix_streams: Vec<Option<MixStreams>> = runner
        .run_batch(threads, mix_trace_jobs)
        .into_iter()
        .map(|o| {
            o.map(|(s, p)| {
                prep.absorb(p);
                s
            })
        })
        .collect();

    type MixJob = Box<dyn FnOnce() -> (MixOutcome, f64) + Send>;
    let mut mix_jobs: Vec<(String, MixJob)> = Vec::new();
    let mut mix_keys: Vec<(usize, usize)> = Vec::new();
    for (mi, streams) in mix_streams.iter().enumerate() {
        let Some(streams) = streams else { continue };
        for (si, &scheme) in Scheme::PAPER.iter().enumerate() {
            let streams = Arc::clone(streams);
            let job: MixJob = Box::new(move || {
                let t0 = std::time::Instant::now();
                let o = run_mix_decoded(
                    scheme,
                    geom,
                    sys_cfg,
                    &streams,
                    &[1.0, 1.0],
                    MIX_SEED,
                    WARMUP_FRACTION,
                );
                (o, t0.elapsed().as_secs_f64())
            });
            mix_jobs.push((
                format!(
                    "mix_{}+{}/{}",
                    MIX_DEFS[mi].0,
                    MIX_DEFS[mi].1,
                    scheme.label()
                ),
                job,
            ));
            mix_keys.push((mi, si));
        }
    }
    let mut mix_results: Vec<Vec<Option<(MixOutcome, f64)>>> =
        vec![vec![None; Scheme::PAPER.len()]; MIX_DEFS.len()];
    for ((mi, si), r) in mix_keys
        .into_iter()
        .zip(runner.run_batch(threads, mix_jobs))
    {
        mix_results[mi][si] = r;
    }

    let mut mix_table = Table::new(vec![
        "mix".into(),
        "scheme".into(),
        "weighted_speedup".into(),
        "fairness".into(),
        "core0_mpki".into(),
        "core1_mpki".into(),
        "core0_speedup".into(),
        "core1_speedup".into(),
    ]);
    for (mi, per_scheme) in mix_results.iter().enumerate() {
        let (a, b) = MIX_DEFS[mi];
        for (scheme, cell) in Scheme::PAPER.iter().zip(per_scheme) {
            let Some((o, _)) = cell else { continue };
            eprintln!(
                "  {a}+{b} {:<8} WS {:.3}, fairness {:.3}, MPKI {:.3}/{:.3}",
                scheme.label(),
                o.weighted_speedup,
                o.fairness,
                o.mix.per_core[0].mpki,
                o.mix.per_core[1].mpki,
            );
            mix_table.row(vec![
                format!("{a}+{b}"),
                scheme.label().into(),
                format!("{:.6}", o.weighted_speedup),
                format!("{:.6}", o.fairness),
                format!("{:.6}", o.mix.per_core[0].mpki),
                format!("{:.6}", o.mix.per_core[1].mpki),
                format!("{:.6}", o.speedups[0]),
                format!("{:.6}", o.speedups[1]),
            ]);
        }
    }
    maybe_csv(csv_dir, "mix", &mix_table);
    emit_mix_artifact(csv_dir, accesses, &mix_results);

    // ---- Outcome ----------------------------------------------------
    let stages = StageBreakdown::from_outcomes(prep, fig1_prep_secs, runner.outcomes());
    emit_timing_summary(csv_dir, threads, runner.outcomes(), &stages);
    match runner.failure_report() {
        None => {
            eprintln!("\nall {} experiments completed", runner.outcomes().len());
            ExitCode::SUCCESS
        }
        Some(report) => {
            eprintln!("\n{report}");
            eprintln!("partial results above are valid; rerun the failed experiments individually");
            ExitCode::from(runner.exit_code())
        }
    }
}
