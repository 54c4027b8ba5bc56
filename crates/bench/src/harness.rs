//! Experiment-harness plumbing shared by the figure/table binaries.

use std::sync::Arc;
use std::time::{Duration, Instant};

use stem_analysis::{build_cache, geomean, warm_split, Scheme, SystemMetrics, Table};
use stem_hierarchy::{LlcStream, LlcStreamBuilder, SystemConfig, FILTER_CHUNK};
use stem_sim_core::{CacheGeometry, DecodedTrace};
use stem_workloads::{spec2010_suite, BenchmarkProfile};

use crate::resilience::ExperimentRunner;

/// Trace length (accesses) per benchmark, overridable with the
/// `STEM_ACCESSES` environment variable. The default keeps the full
/// benchmark matrix a few minutes of wall clock; the paper's 3B-instruction
/// windows correspond to larger values with identical steady-state shapes.
///
/// # Panics
///
/// The first [`Config::cached`](crate::config::Config::cached) call in the
/// process panics with the [`ConfigError`](crate::config::ConfigError)
/// message when `STEM_ACCESSES` is set but malformed.
pub fn accesses_per_benchmark() -> usize {
    crate::config::Config::cached().accesses()
}

/// Warm-up fraction of every trace (discarded from measurement), matching
/// the paper's cache-warming protocol.
pub const WARMUP_FRACTION: f64 = 0.2;

/// Wall-clock split of one trace-preparation cell: synthesizing the
/// access stream, decoding a raw [`Trace`](stem_sim_core::Trace) into the
/// shared [`DecodedTrace`] representation, and filtering the stream
/// through the L1s into an [`LlcStream`]. [`prepare_trace`] and
/// [`prepare_llc_stream`] generate straight into decoded columns, so
/// their decode work is inside `generate` and their `decode` is zero;
/// only paths that ingest a raw trace (run_all's mix streams) record a
/// separate decode. Drivers accumulate these into the
/// `BENCH_run_all.json` stage breakdown.
#[derive(Debug, Clone, Copy, Default)]
pub struct PrepTimings {
    /// Time spent synthesizing accesses (decoding included when fused).
    pub generate: Duration,
    /// Time spent decoding a raw trace into the structure-of-arrays stream.
    pub decode: Duration,
    /// Time spent filtering streams through the L1s (for a mix, building
    /// its interleave schedule too).
    pub l1_filter: Duration,
}

impl PrepTimings {
    /// Accumulates another cell's split into this one.
    pub fn absorb(&mut self, other: PrepTimings) {
        self.generate += other.generate;
        self.decode += other.decode;
        self.l1_filter += other.l1_filter;
    }
}

/// A trace generated and decoded once, ready to fan out across scheme
/// cells, with the preparation timing split.
#[derive(Debug, Clone)]
pub struct PreparedTrace {
    /// The shared decoded stream.
    pub trace: Arc<DecodedTrace>,
    /// How long generation (decoding included) took.
    pub prep: PrepTimings,
}

/// Generates `bench`'s trace at `geom` straight into a [`DecodedTrace`]
/// ([`BenchmarkProfile::decoded`]): no raw trace is ever built, and the
/// stream is bit-identical to decoding [`BenchmarkProfile::trace`].
pub fn prepare_trace(
    bench: &BenchmarkProfile,
    geom: CacheGeometry,
    accesses: usize,
) -> PreparedTrace {
    let t0 = Instant::now();
    let trace = Arc::new(bench.decoded(geom, accesses));
    PreparedTrace {
        trace,
        prep: PrepTimings {
            generate: t0.elapsed(),
            ..PrepTimings::default()
        },
    }
}

/// A trace's L1-miss stream, built once and replayed by every scheme
/// cell, with the preparation timing split.
#[derive(Debug, Clone)]
pub struct PreparedStream {
    /// The shared LLC stream.
    pub stream: Arc<LlcStream>,
    /// How long generation and the L1 pass took.
    pub prep: PrepTimings,
}

/// Generates `bench`'s trace at `geom` straight through the Table 1
/// system's L1 into its [`LlcStream`], warmed on the first
/// [`WARMUP_FRACTION`] of the trace: the generator hands the trace over a
/// [`FILTER_CHUNK`] at a time, so it is never held whole. The stream is
/// bit-identical to [`LlcStream::solo`] over [`BenchmarkProfile::decoded`].
pub fn prepare_llc_stream(
    bench: &BenchmarkProfile,
    geom: CacheGeometry,
    accesses: usize,
) -> PreparedStream {
    let t0 = Instant::now();
    let warm = warm_split(accesses, WARMUP_FRACTION);
    let mut builder = LlcStreamBuilder::new(SystemConfig::micro2010(), warm, accesses);
    let mut l1_filter = Duration::ZERO;
    bench.decoded_chunks(geom, accesses, FILTER_CHUNK, |chunk| {
        let t = Instant::now();
        builder.push_stream(chunk);
        l1_filter += t.elapsed();
    });
    let stream = Arc::new(builder.finish());
    PreparedStream {
        stream,
        prep: PrepTimings {
            generate: t0.elapsed().saturating_sub(l1_filter),
            decode: Duration::ZERO,
            l1_filter,
        },
    }
}

/// One benchmark row of the Fig. 7/8/9 matrix: metrics for every paper
/// scheme, normalized to LRU.
#[derive(Debug, Clone)]
pub struct BenchmarkRow {
    /// Benchmark name.
    pub name: &'static str,
    /// Raw metrics per scheme, in [`Scheme::PAPER`] order.
    pub metrics: Vec<SystemMetrics>,
}

impl BenchmarkRow {
    /// Normalized (MPKI, AMAT, CPI) for scheme index `i` relative to LRU
    /// (index 0).
    pub fn normalized(&self, i: usize) -> (f64, f64, f64) {
        self.metrics[i].normalized_to(&self.metrics[0])
    }
}

/// Runs the whole 15-benchmark × 6-scheme matrix at the paper's L2
/// configuration. Every trace preparation and every (benchmark, scheme)
/// cell runs as its own named experiment on `runner`'s budgeted worker
/// pool (`trace/<bench>` and `matrix/<bench>/<scheme>`). A failing cell
/// is recorded on the runner under that name and drops only its own
/// benchmark's row — the other rows still come back, in suite order,
/// byte-identical to a serial run at any thread count.
///
/// Each `trace/<bench>` cell generates its trace straight through the L1
/// exactly once ([`prepare_llc_stream`]); the six scheme cells of the row
/// share the resulting [`LlcStream`] through an `Arc` and only replay it.
/// The generation/L1-filter wall-clock split of every trace cell is
/// accumulated into `prep` for the stage breakdown.
pub fn run_benchmark_matrix_isolated(
    runner: &mut ExperimentRunner,
    geom: CacheGeometry,
    accesses: usize,
    threads: usize,
    prep: &mut PrepTimings,
) -> Vec<BenchmarkRow> {
    let suite = spec2010_suite();

    // Stage 1: generate each benchmark's trace through the L1 once; all
    // six scheme cells of the row share its LLC stream.
    let trace_jobs: Vec<(String, _)> = suite
        .iter()
        .map(|bench| {
            let bench = bench.clone();
            (format!("trace/{}", bench.name()), move || {
                prepare_llc_stream(&bench, geom, accesses)
            })
        })
        .collect();
    let traces: Vec<Option<Arc<LlcStream>>> = runner
        .run_batch(threads, trace_jobs)
        .into_iter()
        .map(|p| {
            p.map(|p| {
                prep.absorb(p.prep);
                p.stream
            })
        })
        .collect();

    // Stage 2: one cell per (benchmark, scheme) pair, all in one batch so
    // the pool stays full across benchmark boundaries.
    let mut cell_jobs: Vec<(String, Box<dyn FnOnce() -> SystemMetrics + Send>)> = Vec::new();
    let mut cell_keys: Vec<(usize, usize)> = Vec::new();
    for (bi, stream) in traces.iter().enumerate() {
        let Some(stream) = stream else { continue };
        for (si, &scheme) in Scheme::PAPER.iter().enumerate() {
            let stream = Arc::clone(stream);
            cell_jobs.push((
                format!("matrix/{}/{}", suite[bi].name(), scheme.label()),
                Box::new(move || stream.replay(build_cache(scheme, geom).as_mut())),
            ));
            cell_keys.push((bi, si));
        }
    }
    let cell_results = runner.run_batch(threads, cell_jobs);

    // Assemble rows in suite order; a benchmark needs all of its scheme
    // cells (normalization is relative to its own LRU column).
    let mut per_bench: Vec<Vec<Option<SystemMetrics>>> =
        vec![vec![None; Scheme::PAPER.len()]; suite.len()];
    for ((bi, si), result) in cell_keys.into_iter().zip(cell_results) {
        per_bench[bi][si] = result;
    }
    let mut rows = Vec::new();
    for (bi, cells) in per_bench.into_iter().enumerate() {
        let name = suite[bi].name();
        if traces[bi].is_none() {
            eprintln!("  {name:<10} SKIPPED (trace generation failed)");
            continue;
        }
        let complete: Option<Vec<SystemMetrics>> = cells.into_iter().collect();
        match complete {
            Some(metrics) => {
                eprintln!("  {:<10} done (LRU MPKI {:.2})", name, metrics[0].mpki);
                rows.push(BenchmarkRow { name, metrics });
            }
            None => eprintln!("  {name:<10} SKIPPED (a scheme cell failed; see final report)"),
        }
    }
    rows
}

/// Renders one normalized-metric table (the shape of Fig. 7, 8 and 9):
/// benchmarks as rows, schemes as columns, plus the geomean row.
/// `select` picks which of the three normalized metrics to print
/// (0 = MPKI, 1 = AMAT, 2 = CPI).
pub fn normalized_table(rows: &[BenchmarkRow], select: usize) -> Table {
    let mut headers = vec!["benchmark".to_owned()];
    headers.extend(Scheme::PAPER.iter().skip(1).map(|s| s.label().to_owned()));
    let mut table = Table::new(headers);
    let mut per_scheme: Vec<Vec<f64>> = vec![Vec::new(); Scheme::PAPER.len() - 1];
    for row in rows {
        let mut values = Vec::new();
        for i in 1..Scheme::PAPER.len() {
            let (m, a, c) = row.normalized(i);
            let v = [m, a, c][select];
            values.push(v);
            per_scheme[i - 1].push(v);
        }
        table.row_f64(row.name, &values);
    }
    let means: Vec<f64> = per_scheme.iter().map(|v| geomean(v)).collect();
    table.row_f64("Geomean", &means);
    table
}

/// Returns the Fig. 3 / Fig. 10 associativity sweep points used by the
/// paper (1 plus the even associativities 2–32).
pub fn sweep_ways() -> Vec<usize> {
    let mut v = vec![1usize];
    v.extend((1..=16).map(|i| i * 2));
    v
}

/// The `run_all` capacity-sweep set counts (16 ways fixed — 512KB to 4MB
/// around the paper's 2MB operating point). The base configuration's own
/// 2048 sets is always a member, so the capacity sweep and the
/// associativity sweep share one (sets, ways) geometry, which run_all
/// computes once for both tables. One stream replays at every set count.
pub fn capacity_sweep_sets() -> Vec<usize> {
    vec![512, 1024, 2048, 4096]
}

/// The two sensitivity-study benchmarks of §3.3/§5.3.
pub fn sensitivity_benchmarks() -> Vec<BenchmarkProfile> {
    ["omnetpp", "ammp"]
        .iter()
        .map(|n| BenchmarkProfile::by_name(n).expect("suite contains the sensitivity benchmarks"))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sweep_ways_match_figure_axis() {
        let w = sweep_ways();
        assert_eq!(w.first(), Some(&1));
        assert_eq!(w.last(), Some(&32));
        assert_eq!(w.len(), 17);
    }

    #[test]
    fn capacity_sweep_includes_the_base_operating_point() {
        let sets = capacity_sweep_sets();
        assert!(
            sets.contains(&CacheGeometry::micro2010_l2().sets()),
            "the shared warm-prefix family needs the base geometry in both sweeps"
        );
        assert!(sets.windows(2).all(|w| w[0] < w[1]), "axis must ascend");
    }

    #[test]
    fn sensitivity_benchmarks_present() {
        let b = sensitivity_benchmarks();
        assert_eq!(b.len(), 2);
        assert_eq!(b[0].name(), "omnetpp");
        assert_eq!(b[1].name(), "ammp");
    }

    #[test]
    fn normalized_table_has_geomean_row() {
        use stem_sim_core::CacheStats;
        let metrics = |mpki: f64| SystemMetrics {
            mpki,
            amat: 10.0,
            cpi: 1.0,
            l1_miss_rate: 0.1,
            l2: CacheStats::default(),
            instructions: 1,
            accesses: 1,
        };
        let rows = vec![BenchmarkRow {
            name: "fake",
            metrics: (0..6).map(|i| metrics(10.0 - i as f64)).collect(),
        }];
        let t = normalized_table(&rows, 0);
        let s = t.to_string();
        assert!(s.contains("Geomean"));
        assert!(s.contains("fake"));
    }
}
