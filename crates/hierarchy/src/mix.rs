//! Multi-programmed shared-LLC execution: N cores, each with a private L1
//! and its own decoded access stream, interleaved deterministically into
//! one shared LLC.
//!
//! # Determinism model
//!
//! A mix run is a pure function of `(streams, schedule, warm boundary,
//! config, scheme)`. The schedule — which core issues at each global step — is
//! materialized *up front* by [`interleave_schedule`] from a seeded
//! weighted lottery, so the interleaving never depends on simulated
//! timing, thread count, or anything else that could drift between runs.
//! Replaying the same schedule over the same streams is bit-identical
//! everywhere, which is what lets mix results ride the serve result cache
//! and the byte-compare CI gates.
//!
//! # Accounting model
//!
//! Each core owns its L1 (so L1 metrics are exactly per-core) and the LLC
//! is shared (so its [`CacheStats`](stem_sim_core::CacheStats) mixes all
//! cores' traffic). [`LlcStream::mix`](crate::LlcStream::mix) filters the
//! schedule through the issuing cores' L1s once, giving the LLC stream in
//! schedule order with each miss's core; every scheme then replays that
//! stream ([`LlcStream::replay_mix`](crate::LlcStream::replay_mix)), one
//! call per maximal run of one core's misses, and per-core LLC hit/miss
//! attribution credits each run's core with the outcome counts the run
//! added; capacity-event counters that have no single owner under sharing
//! (evictions, writebacks, spills) are reported only in the combined
//! stats.
//!
//! # Examples
//!
//! ```
//! use stem_hierarchy::{interleave_schedule, LlcStream, SystemConfig};
//! use stem_replacement::{Lru, SetAssocCache};
//! use stem_sim_core::{Access, Address, CacheGeometry, DecodedTrace, Trace};
//!
//! let geom = CacheGeometry::new(64, 4, 64).unwrap();
//! let streams: Vec<DecodedTrace> = (0..2u64)
//!     .map(|c| {
//!         let t: Trace = (0..1000u64)
//!             .map(|i| Access::read(Address::new((c << 41) | (i % 97) * 64)))
//!             .collect();
//!         DecodedTrace::decode(&t, geom)
//!     })
//!     .collect();
//! let schedule = interleave_schedule(&[1000, 1000], &[1.0, 1.0], 7);
//! let stream = LlcStream::mix(SystemConfig::micro2010(), &streams, &schedule, 400);
//! let m = stream.replay_mix(&mut SetAssocCache::new(geom, Lru::new(geom)));
//! assert_eq!(m.per_core.len(), 2);
//! assert_eq!(m.combined.accesses, 1600);
//! ```

use stem_sim_core::SplitMix64;

use crate::SystemMetrics;

/// Builds the deterministic core-interleaving schedule for a mix: entry
/// `k` names the core that issues the `k`-th global access.
///
/// Cores are drawn by a seeded weighted lottery: at each step a core is
/// picked with probability proportional to its weight; a core whose
/// stream has run dry is replaced by the lowest-indexed core with
/// accesses remaining. The schedule has exactly `lens.iter().sum()`
/// entries — every access of every stream is issued once.
///
/// # Panics
///
/// Panics if `lens` and `weights` differ in length, are empty, or any
/// weight is not positive.
pub fn interleave_schedule(lens: &[usize], weights: &[f64], seed: u64) -> Vec<u32> {
    assert_eq!(lens.len(), weights.len(), "one weight per core");
    assert!(!lens.is_empty(), "a mix needs at least one core");
    assert!(
        weights.iter().all(|&w| w > 0.0),
        "mix weights must be positive"
    );

    let total_w: f64 = weights.iter().sum();
    let mut cdf = Vec::with_capacity(weights.len());
    let mut acc = 0.0;
    for w in weights {
        acc += w / total_w;
        cdf.push(acc);
    }

    let total: usize = lens.iter().sum();
    let mut remaining = lens.to_vec();
    let mut schedule = Vec::with_capacity(total);
    let mut rng = SplitMix64::new(seed);
    while schedule.len() < total {
        let u = (rng.next_u64() >> 11) as f64 / (1u64 << 53) as f64;
        let drawn = cdf.iter().position(|&c| u < c).unwrap_or(cdf.len() - 1);
        let core = if remaining[drawn] > 0 {
            drawn
        } else {
            // The drawn core ran dry: issue from the lowest-indexed core
            // with accesses left.
            remaining
                .iter()
                .position(|&r| r > 0)
                .expect("schedule shorter than total stream length")
        };
        remaining[core] -= 1;
        schedule.push(core as u32);
    }
    schedule
}

/// Per-core and combined metrics from one shared-LLC mix run, produced by
/// [`LlcStream::replay_mix`](crate::LlcStream::replay_mix).
#[derive(Debug, Clone, PartialEq)]
pub struct MixMetrics {
    /// One [`SystemMetrics`] per core, in core order. The `l2` stats
    /// inside carry that core's own LLC hit/miss attribution; shared
    /// capacity events (evictions, writebacks, spills) appear only in
    /// [`combined`](MixMetrics::combined).
    pub per_core: Vec<SystemMetrics>,
    /// The whole-system view: totals over every core plus the shared
    /// LLC's full [`CacheStats`](stem_sim_core::CacheStats).
    pub combined: SystemMetrics,
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{LlcStream, MixMetrics, System, SystemConfig};
    use stem_replacement::{Lru, SetAssocCache};
    use stem_sim_core::{Access, Address, CacheGeometry, CacheModel, DecodedTrace, Trace};

    fn lru_l2(geom: CacheGeometry) -> Box<dyn CacheModel> {
        Box::new(SetAssocCache::new(geom, Lru::new(geom)))
    }

    /// A fresh LRU shared-LLC run of `schedule` over `streams`.
    fn run_mix(
        geom: CacheGeometry,
        streams: &[DecodedTrace],
        schedule: &[u32],
        warm_steps: usize,
    ) -> MixMetrics {
        LlcStream::mix(SystemConfig::micro2010(), streams, schedule, warm_steps)
            .replay_mix(lru_l2(geom).as_mut())
    }

    fn stream(core: u64, len: u64, stride: u64, geom: CacheGeometry) -> DecodedTrace {
        let t: Trace = (0..len)
            .map(|i| {
                let a = Address::new((core << 41) | ((i % 131) * stride + i % 64));
                if i % 6 == 0 {
                    Access::write(a).with_inst_gap((i % 5 + 1) as u32)
                } else {
                    Access::read(a).with_inst_gap((i % 5 + 1) as u32)
                }
            })
            .collect();
        DecodedTrace::decode(&t, geom)
    }

    #[test]
    fn schedule_is_deterministic_and_exhaustive() {
        let a = interleave_schedule(&[300, 200], &[2.0, 1.0], 9);
        let b = interleave_schedule(&[300, 200], &[2.0, 1.0], 9);
        assert_eq!(a, b);
        assert_eq!(a.len(), 500);
        assert_eq!(a.iter().filter(|&&c| c == 0).count(), 300);
        assert_eq!(a.iter().filter(|&&c| c == 1).count(), 200);
    }

    #[test]
    fn schedule_weights_shape_the_front_of_the_interleave() {
        // With 2:1 weights and plenty of both streams left, the first
        // quarter of the schedule should lean toward core 0.
        let s = interleave_schedule(&[6000, 3000], &[2.0, 1.0], 3);
        let head = &s[..s.len() / 4];
        let zeros = head.iter().filter(|&&c| c == 0).count();
        let ratio = zeros as f64 / head.len() as f64;
        assert!(
            (ratio - 2.0 / 3.0).abs() < 0.05,
            "2:1 weighting off: {ratio}"
        );
    }

    #[test]
    fn one_core_mix_is_bit_identical_to_a_solo_system() {
        let geom = CacheGeometry::new(64, 4, 64).unwrap();
        let cfg = SystemConfig::micro2010();
        let s = stream(0, 3000, 192, geom);
        let warm = 600;

        let mut solo = System::new(cfg, lru_l2(geom));
        let expect = solo.warm_then_run_decoded(&s, warm);

        let schedule = vec![0u32; s.len()];
        let got = run_mix(geom, std::slice::from_ref(&s), &schedule, warm);

        assert_eq!(got.per_core.len(), 1);
        let core0 = &got.per_core[0];
        assert_eq!(core0.l2, expect.l2);
        assert_eq!(core0.mpki, expect.mpki);
        assert_eq!(core0.amat, expect.amat);
        assert_eq!(core0.cpi, expect.cpi);
        assert_eq!(core0.l1_miss_rate, expect.l1_miss_rate);
        assert_eq!(core0.instructions, expect.instructions);
        assert_eq!(core0.accesses, expect.accesses);
        // Combined equals the single core except for the LLC stats, which
        // carry the full shared-cache counter set.
        assert_eq!(got.combined.cpi, expect.cpi);
        assert_eq!(got.combined.l2.hits(), expect.l2.hits());
        assert_eq!(got.combined.l2.misses(), expect.l2.misses());
    }

    #[test]
    fn per_core_attribution_sums_to_the_shared_llc_counters() {
        let geom = CacheGeometry::new(64, 4, 64).unwrap();
        let streams = [stream(0, 2000, 192, geom), stream(1, 1000, 320, geom)];
        let schedule = interleave_schedule(&[2000, 1000], &[1.0, 1.0], 11);
        let m = run_mix(geom, &streams, &schedule, 600);

        let hits: u64 = m.per_core.iter().map(|c| c.l2.hits()).sum();
        let misses: u64 = m.per_core.iter().map(|c| c.l2.misses()).sum();
        assert_eq!(hits, m.combined.l2.hits());
        assert_eq!(misses, m.combined.l2.misses());
        assert_eq!(
            m.per_core.iter().map(|c| c.accesses).sum::<u64>(),
            m.combined.accesses
        );
        assert_eq!(
            m.per_core.iter().map(|c| c.instructions).sum::<u64>(),
            m.combined.instructions
        );
        // 2000 + 1000 accesses minus the 600 warmed ones are measured.
        assert_eq!(m.combined.accesses, 2400);
    }

    #[test]
    fn shared_llc_contention_hurts_a_core_versus_running_alone() {
        // A small LLC: core 1's thrashing stream must evict core 0's
        // working set, so core 0's shared-run MPKI is at least its solo
        // MPKI.
        let geom = CacheGeometry::new(16, 4, 64).unwrap();
        let cfg = SystemConfig::micro2010();
        let victim = stream(0, 4000, 64, geom);
        let thrasher = stream(1, 4000, 4096, geom);

        let mut solo = System::new(cfg, lru_l2(geom));
        let alone = solo.warm_then_run_decoded(&victim, 800);

        let schedule = interleave_schedule(&[4000, 4000], &[1.0, 1.0], 5);
        let shared = run_mix(geom, &[victim, thrasher], &schedule, 1600);

        assert!(
            shared.per_core[0].mpki >= alone.mpki,
            "contention cannot reduce misses: shared {} vs solo {}",
            shared.per_core[0].mpki,
            alone.mpki
        );
    }

    #[test]
    #[should_panic(expected = "a schedule entry names a core past the 1 streams")]
    fn a_schedule_naming_a_missing_core_panics() {
        let geom = CacheGeometry::new(64, 4, 64).unwrap();
        let s = stream(0, 100, 64, geom);
        let _ = run_mix(geom, std::slice::from_ref(&s), &[0, 1], 0);
    }
}
