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
use std::time::{Duration, Instant};

use stem_analysis::{
    build_cache, geomean, CapacityDemandProfiler, MixOutcome, MixStreams, Scheme, Table,
};
use stem_bench::config::Config;
use stem_bench::engine::RunPlan;
use stem_bench::harness::{
    capacity_sweep_sets, normalized_table, prepare_llc_stream, run_stage, sensitivity_benchmarks,
    sweep_ways, BenchmarkRow, PrepTimings, StageCell, WARMUP_FRACTION,
};
use stem_bench::resilience::{ExperimentOutcome, ExperimentRunner};
use stem_bench::timing::{cores_entry, peak_rss_mb};
use stem_hierarchy::SystemConfig;
use stem_llc::{overhead, StemConfig};
use stem_sim_core::{CacheGeometry, DecodedTrace, Json};
use stem_workloads::{spec2010_suite, BenchmarkProfile, WorkloadMix};

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
/// per-experiment timings, each total added by the stage that spends it:
/// `prep` holds the wall clock spent synthesizing accesses, decoding raw
/// traces (the mix streams; every other trace is generated straight into
/// decoded columns, so its decode time is inside generate) and filtering
/// streams through the L1s (a mix's interleave schedule included);
/// `replay` the summed wall clock of the cells that replay a stream
/// through a scheme (matrix cells, sweep points and mix cells); and
/// `analysis` the Fig. 1 profiling and Table 3.
#[derive(Default)]
struct StageBreakdown {
    prep: PrepTimings,
    replay: Duration,
    analysis: Duration,
}

/// Names one stage cell.
fn cell<T>(name: String, f: impl FnOnce() -> T + Send + 'static) -> StageCell<T> {
    (name, Box::new(f))
}

/// One sweep point: the MPKI of a warmed serial replay of `trace` at
/// `geom`.
fn sweep_cell(
    name: String,
    scheme: Scheme,
    geom: CacheGeometry,
    trace: &Arc<DecodedTrace>,
) -> StageCell<f64> {
    let trace = Arc::clone(trace);
    cell(name, move || {
        RunPlan::serial(scheme, geom, WARMUP_FRACTION)
            .run(&trace)
            .unwrap_or_else(|e| panic!("{scheme} sweep point: {e}"))
            .mpki()
    })
}

/// Renders one sweep table: a row per `(label, index)` point, and a
/// column per paper scheme holding the MPKI at `index` of that scheme's
/// run of cells; `None` when any of its points failed.
fn sweep_table(
    axis: &str,
    points: &[(String, usize)],
    columns: &[&[Option<f64>]],
) -> Option<Table> {
    let mut headers = vec![axis.to_owned()];
    headers.extend(Scheme::PAPER.iter().map(|s| s.label().to_owned()));
    let mut table = Table::new(headers);
    for (label, i) in points {
        let values: Vec<f64> = columns.iter().map(|c| c[*i]).collect::<Option<_>>()?;
        table.row_f64(label, &values);
    }
    Some(table)
}

/// Emits the per-experiment wall-clock summary and the process's peak RSS
/// (read here, at the end of the run): always to stderr (stdout
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
        "stage breakdown: generate {:.2}s, l1_filter {:.2}s, replay {:.2}s, analysis {:.2}s",
        stages.prep.generate.as_secs_f64(),
        stages.prep.l1_filter.as_secs_f64(),
        stages.replay.as_secs_f64(),
        stages.analysis.as_secs_f64()
    );

    let peak_rss = peak_rss_mb();
    if let Some(mb) = peak_rss {
        eprintln!("peak RSS: {mb:.1} MB");
    }

    if let Some(dir) = csv_dir {
        let secs3 = |s: f64| Json::float_rounded(s, 3);
        let stage = |d: Duration| secs3(d.as_secs_f64());
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
                "peak_rss_mb".into(),
                peak_rss.map_or(Json::Null, |mb| Json::float_rounded(mb, 1)),
            ),
            (
                "stages".into(),
                Json::Obj(vec![
                    ("generate_secs".into(), stage(stages.prep.generate)),
                    ("l1_filter_secs".into(), stage(stages.prep.l1_filter)),
                    ("replay_secs".into(), stage(stages.replay)),
                    ("analysis_secs".into(), stage(stages.analysis)),
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

/// One mix scheme cell's result: the outcome and its replay seconds.
type MixCell = (MixOutcome, f64);

/// Writes `<csv_dir>/BENCH_mix.json`: the shared-LLC mix stage's full
/// record — per (mix, scheme) the weighted speedup, fairness, and
/// per-core solo-vs-shared metrics, plus replay wall clock. Schema
/// documented in `EXPERIMENTS.md`.
fn emit_mix_artifact(
    csv_dir: Option<&Path>,
    accesses: usize,
    results: &[Option<Vec<Option<MixCell>>>],
) {
    let Some(dir) = csv_dir else { return };
    let f6 = |v: f64| Json::float_rounded(v, 6);
    let mixes: Vec<Json> = MIX_DEFS
        .iter()
        .zip(results)
        .map(|(&(a, b), per_scheme)| {
            let schemes: Vec<Json> = Scheme::PAPER
                .iter()
                .zip(per_scheme.as_deref().unwrap_or_default())
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
    let mut stages = StageBreakdown::default();

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
                let t0 = Instant::now();
                let bench = BenchmarkProfile::by_name(name).expect("suite benchmark");
                let trace = bench.decoded(geom, periods * 50_000);
                let generate = t0.elapsed();
                let hists = CapacityDemandProfiler::micro2010(geom).profile_decoded(&trace);
                let agg = CapacityDemandProfiler::aggregate(&hists);
                let summary = (
                    agg.fraction_at_most(4),
                    agg.fraction_at_most(16),
                    agg.fraction_at_most(0),
                    agg.banded(),
                );
                (summary, generate, t0.elapsed() - generate)
            })
        })
        .collect();
    for (name, outcome) in fig1_names.iter().zip(runner.run_batch(threads, fig1_jobs)) {
        if let Some(((le4, le16, zero, banded), generate, analysis)) = outcome {
            stages.prep.generate += generate;
            stages.analysis += analysis;
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
    // Each `trace/<bench>` cell generates its trace straight through the
    // L1 once; the six `matrix/<bench>/<scheme>` cells of the row only
    // replay the shared LLC stream.
    eprintln!("running the 15-benchmark x 6-scheme matrix...");
    let suite = spec2010_suite();
    let trace_jobs: Vec<(String, _)> = suite
        .iter()
        .map(|bench| {
            let bench = bench.clone();
            (format!("trace/{}", bench.name()), move || {
                prepare_llc_stream(&bench, geom, accesses)
            })
        })
        .collect();
    let matrix = run_stage(
        &mut runner,
        threads,
        trace_jobs,
        |bi, stream| {
            Scheme::PAPER
                .iter()
                .map(|&scheme| {
                    let stream = Arc::clone(stream);
                    cell(
                        format!("matrix/{}/{}", suite[bi].name(), scheme.label()),
                        move || stream.replay(build_cache(scheme, geom).as_mut()),
                    )
                })
                .collect()
        },
        &mut stages.prep,
        &mut stages.replay,
    );
    // A row needs all of its scheme cells: normalization is relative to
    // its own LRU column.
    let mut rows = Vec::new();
    for (bench, cells) in suite.iter().zip(matrix) {
        let name = bench.name();
        match cells.map(|cells| cells.into_iter().collect::<Option<Vec<_>>>()) {
            None => eprintln!("  {name:<10} SKIPPED (trace generation failed)"),
            Some(None) => {
                eprintln!("  {name:<10} SKIPPED (a scheme cell failed; see final report)")
            }
            Some(Some(metrics)) => {
                eprintln!("  {:<10} done (LRU MPKI {:.2})", name, metrics[0].mpki);
                rows.push(BenchmarkRow { name, metrics });
            }
        }
    }

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

    // ---- Fig. 3 / Fig. 10 + capacity sweep --------------------------
    // The two sensitivity traces, generated once each straight into a
    // line-granular stream. Every associativity point and every
    // capacity-sweep set count replays the same shared stream — each
    // cache derives its own set index from the line — so the capacity
    // comparison is never confounded with trace differences. Each scheme
    // gets a run of cells: the associativity points, then the capacity
    // points other than the base set count, whose point is the
    // associativity sweep's point at the base ways.
    let ways = sweep_ways();
    let sens = sensitivity_benchmarks();
    let cap_sets = capacity_sweep_sets();
    let extra_sets: Vec<usize> = cap_sets
        .iter()
        .copied()
        .filter(|&sets| sets != geom.sets())
        .collect();
    let sweep_trace_jobs: Vec<(String, _)> = sens
        .iter()
        .map(|bench| {
            let bench = bench.clone();
            (format!("sweep_trace_{}", bench.name()), move || {
                let t0 = Instant::now();
                let trace = bench.decoded(geom, sweep_accesses);
                let prep = PrepTimings {
                    generate: t0.elapsed(),
                    ..PrepTimings::default()
                };
                (trace, prep)
            })
        })
        .collect();
    let sweeps = run_stage(
        &mut runner,
        threads,
        sweep_trace_jobs,
        |bi, trace| {
            let name = sens[bi].name();
            eprintln!("sweeping {name} (Fig. 3 / Fig. 10 + capacity)...");
            let mut cells = Vec::new();
            for &scheme in &Scheme::PAPER {
                let label = scheme.label();
                for &w in &ways {
                    let point = CacheGeometry::new(geom.sets(), w, geom.line_bytes())
                        .expect("sweep geometry is valid");
                    let name = format!("sweep_{name}/{label}/{w}w");
                    cells.push(sweep_cell(name, scheme, point, trace));
                }
                for &sets in &extra_sets {
                    let point = CacheGeometry::new(sets, geom.ways(), geom.line_bytes())
                        .expect("capacity geometry is valid");
                    let name = format!("sweep_cap_{name}/{label}/{sets}s");
                    cells.push(sweep_cell(name, scheme, point, trace));
                }
            }
            cells
        },
        &mut stages.prep,
        &mut stages.replay,
    );

    // Each table row is an axis label and its index in a scheme's run of
    // cells. The base operating point is one geometry replaying one
    // trace in both sweeps, so the capacity table reads the associativity
    // sweep's value there.
    let assoc_points: Vec<(String, usize)> = ways
        .iter()
        .enumerate()
        .map(|(i, w)| (w.to_string(), i))
        .collect();
    let base_way = ways
        .iter()
        .position(|&w| w == geom.ways())
        .expect("the associativity sweep covers the base ways");
    let cap_points: Vec<(String, usize)> = cap_sets
        .iter()
        .map(|&sets| {
            let cap_geom = CacheGeometry::new(sets, geom.ways(), geom.line_bytes())
                .expect("capacity geometry is valid");
            let i = match extra_sets.iter().position(|&s| s == sets) {
                Some(k) => ways.len() + k,
                None => base_way,
            };
            (format!("{}KB", cap_geom.capacity_bytes() / 1024), i)
        })
        .collect();
    let per_scheme = ways.len() + extra_sets.len();
    let sweep_tables = [
        (
            "assoc",
            &assoc_points,
            "Fig. 3/10",
            "MPKI vs associativity",
            "fig10",
        ),
        (
            "capacity",
            &cap_points,
            "Capacity",
            "MPKI at 16 ways",
            "capacity",
        ),
    ];
    for (axis, points, title, what, csv) in sweep_tables {
        for (bench, sweep) in sens.iter().zip(&sweeps) {
            let name = bench.name();
            let columns: Option<Vec<&[Option<f64>]>> = sweep
                .as_ref()
                .map(|cells| cells.chunks(per_scheme).collect());
            match columns.and_then(|columns| sweep_table(axis, points, &columns)) {
                Some(t) => {
                    println!("## {title} ({name}) — {what}\n\n{t}");
                    maybe_csv(csv_dir, &format!("{csv}_{name}"), &t);
                }
                None => eprintln!("skipping {title} ({name}): its trace or a point failed"),
            }
        }
    }

    // ---- Table 3 -----------------------------------------------------
    if let Some((overhead_pct, spent)) = runner.run_value("table3_overhead", move || {
        let t0 = Instant::now();
        let base = overhead::lru_baseline(geom);
        let stem = overhead::stem(geom, &StemConfig::micro2010());
        (stem.overhead_vs(&base) * 100.0, t0.elapsed())
    }) {
        stages.analysis += spent;
        println!("## Table 3 — STEM storage overhead vs LRU: {overhead_pct:+.2}% (paper: +3.1%)");
    }

    // ---- Mix stage (stderr + CSV + JSON only) -----------------------
    // Two-core shared-LLC mixes through the mix subsystem: per-core
    // streams interleaved by a seeded schedule, solo baselines, weighted
    // speedup + fairness per scheme. Each `mix_trace_*` cell filters the
    // mix and both solo streams through the L1s once; each scheme cell
    // only replays those LLC streams. stdout is never touched — the
    // archived run_all_output.txt stays valid — and the results land in
    // mix.csv + BENCH_mix.json (schema in EXPERIMENTS.md), both
    // byte-identical at any thread count.
    eprintln!("\nrunning the 2-core shared-LLC mix stage...");
    let mix_trace_jobs: Vec<(String, _)> = MIX_DEFS
        .iter()
        .map(|&(a, b)| {
            (format!("mix_trace_{a}+{b}"), move || {
                let core = |name| {
                    (
                        BenchmarkProfile::by_name(name).expect("suite benchmark"),
                        1.0,
                    )
                };
                let mix = WorkloadMix::new(vec![core(a), core(b)]);
                let t0 = Instant::now();
                let streams = mix.core_traces(geom, accesses);
                let generate = t0.elapsed();
                let t0 = Instant::now();
                let shared = MixStreams::new(
                    SystemConfig::micro2010(),
                    &streams,
                    &mix.weights(),
                    MIX_SEED,
                    WARMUP_FRACTION,
                );
                let prep = PrepTimings {
                    generate,
                    l1_filter: t0.elapsed(),
                };
                (shared, prep)
            })
        })
        .collect();
    let mix_results = run_stage(
        &mut runner,
        threads,
        mix_trace_jobs,
        |mi, streams: &Arc<MixStreams>| {
            let (a, b) = MIX_DEFS[mi];
            Scheme::PAPER
                .iter()
                .map(|&scheme| {
                    let streams = Arc::clone(streams);
                    cell(format!("mix_{a}+{b}/{}", scheme.label()), move || {
                        let t0 = Instant::now();
                        let o = streams.run(scheme, geom);
                        (o, t0.elapsed().as_secs_f64())
                    })
                })
                .collect()
        },
        &mut stages.prep,
        &mut stages.replay,
    );

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
    for (&(a, b), per_scheme) in MIX_DEFS.iter().zip(&mix_results) {
        for (scheme, cell) in Scheme::PAPER
            .iter()
            .zip(per_scheme.as_deref().unwrap_or_default())
        {
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
