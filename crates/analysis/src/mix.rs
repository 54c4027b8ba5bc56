//! Multi-programmed mix experiments: shared-LLC runs with solo-run
//! baselines and the mix-level metrics the co-scheduling literature
//! reports (weighted speedup, fairness).
//!
//! Per *Validating Simplified Processor Models in Architectural Studies*
//! (see PAPERS.md), per-core speedups against solo runs are what make a
//! simplified-model claim about a mix checkable — a mix that raises
//! combined IPC while starving one core shows up in fairness, not in any
//! aggregate.

use stem_hierarchy::{interleave_schedule, LlcStream, MixMetrics, SystemConfig, SystemMetrics};
use stem_sim_core::{CacheGeometry, DecodedTrace};

use crate::scheme::{build_cache, warm_split, Scheme};

/// The outcome of one shared-LLC mix experiment: the shared run, the solo
/// baselines, and the derived co-scheduling metrics.
#[derive(Debug, Clone, PartialEq)]
pub struct MixOutcome {
    /// Per-core + combined metrics of the shared-LLC run.
    pub mix: MixMetrics,
    /// Each core's metrics when running *alone* on an identical (fresh)
    /// system — the baseline the speedups are computed against.
    pub solo: Vec<SystemMetrics>,
    /// Per-core speedup under sharing, `CPI_solo / CPI_shared` (≤ 1 when
    /// contention hurts, by construction of the analytic model).
    pub speedups: Vec<f64>,
    /// Weighted speedup: `Σ_i CPI_solo,i / CPI_shared,i`. Equals the core
    /// count under zero contention.
    pub weighted_speedup: f64,
    /// Fairness: `min_i speedup_i / max_i speedup_i` ∈ (0, 1], 1 meaning
    /// every core suffers (or doesn't) equally.
    pub fairness: f64,
}

/// The scheme-independent half of a mix experiment: the shared run's LLC
/// stream and each core's solo LLC stream, each built by one L1 pass.
/// Every scheme's outcome is a replay of them ([`run`](MixStreams::run)).
#[derive(Debug, Clone)]
pub struct MixStreams {
    shared: LlcStream,
    solo: Vec<LlcStream>,
}

impl MixStreams {
    /// Interleaves `streams` (one decoded stream per core) by
    /// [`interleave_schedule`]`(lens, weights, seed)` — fully
    /// deterministic — and filters the schedule, and each stream alone,
    /// through the L1s. The shared run's warm boundary is the
    /// workspace-standard [`warm_split`] of the schedule length; solo
    /// baselines warm at the same fraction of their own streams.
    ///
    /// # Panics
    ///
    /// Panics if `streams` is empty, `weights` has a different length, or
    /// any weight is not positive (via [`interleave_schedule`]).
    pub fn new(
        cfg: SystemConfig,
        streams: &[DecodedTrace],
        weights: &[f64],
        seed: u64,
        warmup_fraction: f64,
    ) -> Self {
        let lens: Vec<usize> = streams.iter().map(DecodedTrace::len).collect();
        let schedule = interleave_schedule(&lens, weights, seed);
        let warm_steps = warm_split(schedule.len(), warmup_fraction);
        MixStreams {
            shared: LlcStream::mix(cfg, streams, &schedule, warm_steps),
            solo: streams
                .iter()
                .map(|s| LlcStream::solo(cfg, s, warm_split(s.len(), warmup_fraction)))
                .collect(),
        }
    }

    /// Replays the shared run and every solo baseline into fresh LLCs of
    /// `scheme` at `geom`, deriving speedups, weighted speedup, and
    /// fairness.
    pub fn run(&self, scheme: Scheme, geom: CacheGeometry) -> MixOutcome {
        let mix = self.shared.replay_mix(build_cache(scheme, geom).as_mut());
        let solo = self
            .solo
            .iter()
            .map(|s| s.replay(build_cache(scheme, geom).as_mut()))
            .collect();
        MixOutcome::new(mix, solo)
    }
}

impl MixOutcome {
    /// Derives the co-scheduling metrics from a shared run and its solo
    /// baselines.
    fn new(mix: MixMetrics, solo: Vec<SystemMetrics>) -> Self {
        let speedups: Vec<f64> = solo
            .iter()
            .zip(&mix.per_core)
            .map(|(alone, shared)| alone.cpi / shared.cpi)
            .collect();
        let weighted_speedup: f64 = speedups.iter().sum();
        let fairness = match (
            speedups.iter().cloned().reduce(f64::min),
            speedups.iter().cloned().reduce(f64::max),
        ) {
            (Some(min), Some(max)) if max > 0.0 => min / max,
            _ => 1.0,
        };
        MixOutcome {
            mix,
            solo,
            speedups,
            weighted_speedup,
            fairness,
        }
    }
}

/// Runs `streams` (one decoded stream per core) through a shared LLC
/// under `scheme`, and each stream through an identical solo system,
/// deriving speedups, weighted speedup, and fairness: the one-scheme
/// [`MixStreams::run`].
///
/// # Panics
///
/// Panics if `streams` is empty, `weights` has a different length, or any
/// weight is not positive (via [`interleave_schedule`]).
pub fn run_mix_decoded(
    scheme: Scheme,
    geom: CacheGeometry,
    cfg: SystemConfig,
    streams: &[DecodedTrace],
    weights: &[f64],
    seed: u64,
    warmup_fraction: f64,
) -> MixOutcome {
    MixStreams::new(cfg, streams, weights, seed, warmup_fraction).run(scheme, geom)
}

#[cfg(test)]
mod tests {
    use super::*;
    use stem_workloads::WorkloadMix;

    fn two_core_streams(geom: CacheGeometry, accesses: usize) -> Vec<DecodedTrace> {
        let mix = WorkloadMix::new(vec![
            (
                stem_workloads::BenchmarkProfile::by_name("ammp").expect("suite"),
                1.0,
            ),
            (
                stem_workloads::BenchmarkProfile::by_name("mcf").expect("suite"),
                1.0,
            ),
        ]);
        mix.core_traces(geom, accesses)
            .iter()
            .map(|t| DecodedTrace::decode(t, geom))
            .collect()
    }

    #[test]
    fn outcome_is_deterministic_and_metrics_are_coherent() {
        let geom = CacheGeometry::new(64, 8, 64).unwrap();
        let cfg = SystemConfig::micro2010();
        let streams = two_core_streams(geom, 20_000);
        let a = run_mix_decoded(Scheme::Lru, geom, cfg, &streams, &[1.0, 1.0], 42, 0.2);
        let b = run_mix_decoded(Scheme::Lru, geom, cfg, &streams, &[1.0, 1.0], 42, 0.2);
        assert_eq!(a, b, "mix outcomes must be bit-deterministic");

        assert_eq!(a.speedups.len(), 2);
        assert!((a.weighted_speedup - a.speedups.iter().sum::<f64>()).abs() < 1e-12);
        assert!(a.fairness > 0.0 && a.fairness <= 1.0);
        // Sharing a finite LLC cannot speed a core up in this model.
        for (i, &s) in a.speedups.iter().enumerate() {
            assert!(s <= 1.0 + 1e-9, "core {i} sped up under contention: {s}");
        }
        assert!(a.weighted_speedup <= 2.0 + 1e-9);
    }

    #[test]
    fn every_scheme_produces_a_finite_outcome() {
        let geom = CacheGeometry::new(64, 8, 64).unwrap();
        let cfg = SystemConfig::micro2010();
        let streams = two_core_streams(geom, 8_000);
        for scheme in Scheme::ALL {
            let o = run_mix_decoded(scheme, geom, cfg, &streams, &[1.0, 1.0], 7, 0.2);
            assert!(
                o.weighted_speedup.is_finite() && o.fairness.is_finite(),
                "{scheme:?}"
            );
            assert_eq!(o.mix.per_core.len(), 2);
        }
    }
}
