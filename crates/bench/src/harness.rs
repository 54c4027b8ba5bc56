//! Experiment-harness plumbing shared by the figure/table binaries.

use std::sync::Arc;
use std::time::{Duration, Instant};

use stem_analysis::{geomean, warm_split, Scheme, SystemMetrics, Table};
use stem_hierarchy::{LlcStream, LlcStreamBuilder, SystemConfig, FILTER_CHUNK};
use stem_sim_core::CacheGeometry;
use stem_workloads::BenchmarkProfile;

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

/// Wall-clock split of one preparation cell: synthesizing the access
/// stream and filtering it through the L1s into an [`LlcStream`]. Every
/// run_all stream is generated straight into decoded columns, so decoding
/// is inside `generate`. [`run_stage`] adds each preparation's split to
/// its caller's totals.
#[derive(Debug, Clone, Copy, Default)]
pub struct PrepTimings {
    /// Time spent synthesizing accesses, decoding included.
    pub generate: Duration,
    /// Time spent filtering streams through the L1s (for a mix, building
    /// its interleave schedule too).
    pub l1_filter: Duration,
}

impl PrepTimings {
    /// Accumulates another cell's split into this one.
    pub fn absorb(&mut self, other: PrepTimings) {
        self.generate += other.generate;
        self.l1_filter += other.l1_filter;
    }
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
) -> (LlcStream, PrepTimings) {
    let t0 = Instant::now();
    let warm = warm_split(accesses, WARMUP_FRACTION);
    let mut builder = LlcStreamBuilder::new(SystemConfig::micro2010(), warm, accesses);
    let mut l1_filter = Duration::ZERO;
    bench.decoded_chunks(geom, accesses, FILTER_CHUNK, |chunk| {
        let t = Instant::now();
        builder.push_stream(chunk);
        l1_filter += t.elapsed();
    });
    let stream = builder.finish();
    let prep = PrepTimings {
        generate: t0.elapsed().saturating_sub(l1_filter),
        l1_filter,
    };
    (stream, prep)
}

/// One named experiment cell of a [`run_stage`] row: its name and its work.
pub type StageCell<T> = (String, Box<dyn FnOnce() -> T + Send>);

/// Runs one stage of an experiment binary on `runner`'s budgeted pool: first
/// one batch of named preparation cells, one per row, each returning the
/// row's shared input and its [`PrepTimings`]; then, as a single batch so
/// the pool stays full across row boundaries, every prepared row's cells,
/// built by `cells(row, &input)`.
///
/// Returns one entry per row in input order: `None` when the row's
/// preparation failed, else one `Option<T>` per cell (`None` for a cell
/// that failed). Failures are recorded on the runner under the cell's
/// name, so one broken cell drops only what depends on it. Each
/// preparation's split is added to `prep` and the cells' summed wall
/// clock to `replay`.
pub fn run_stage<R, T, P>(
    runner: &mut ExperimentRunner,
    threads: usize,
    preps: Vec<(String, P)>,
    mut cells: impl FnMut(usize, &Arc<R>) -> Vec<StageCell<T>>,
    prep: &mut PrepTimings,
    replay: &mut Duration,
) -> Vec<Option<Vec<Option<T>>>>
where
    R: Send + Sync + 'static,
    T: Send + 'static,
    P: FnOnce() -> (R, PrepTimings) + Send + 'static,
{
    let inputs: Vec<Option<Arc<R>>> = runner
        .run_batch(threads, preps)
        .into_iter()
        .map(|p| {
            p.map(|(input, timings)| {
                prep.absorb(timings);
                Arc::new(input)
            })
        })
        .collect();

    let mut jobs = Vec::new();
    let mut counts = Vec::with_capacity(inputs.len());
    for (row, input) in inputs.iter().enumerate() {
        let Some(input) = input else { continue };
        let row_cells = cells(row, input);
        counts.push(row_cells.len());
        jobs.extend(row_cells);
    }
    let first = runner.outcomes().len();
    let mut results = runner.run_batch(threads, jobs).into_iter();
    *replay += runner.outcomes()[first..]
        .iter()
        .map(|o| o.elapsed)
        .sum::<Duration>();

    let mut counts = counts.into_iter();
    inputs
        .iter()
        .map(|input| {
            input.as_ref()?;
            let n = counts.next().expect("one count per prepared row");
            Some(results.by_ref().take(n).collect())
        })
        .collect()
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
