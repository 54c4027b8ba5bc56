//! The bare-LLC replay engine.
//!
//! Every bare-LLC measurement in the workspace is the same operation:
//! replay a decoded trace through a fresh cache of one scheme, replay the
//! first `warmup` fraction unmeasured, reset the counters at that
//! boundary, and measure the rest. The Fig. 3/10 and capacity sweeps,
//! run_all's measurement stages, the sampling and snapshot benches and
//! serve's sampled tier all describe that operation as a [`RunPlan`], and
//! [`RunPlan::run`] is the only code that executes it.
//!
//! [`Exec`] chooses *how* the plan replays. Every strategy measures the
//! same thing, and each one is gated by the capability the scheme's own
//! cache declares (the
//! [`CacheModel`] `supports_*` methods). The
//! engine reads the capability from the cache it builds for the run:
//!
//! * [`Exec::Sharded`] on a scheme that declines set sharding replays
//!   serially, so offering a shard plan can never change a result;
//! * [`Exec::Sampled`] on a scheme that declines set sampling returns
//!   [`RunError::SamplingDeclined`] instead of a distorted estimate;
//! * [`Exec::Restore`] into a scheme that declines snapshots, or with a
//!   snapshot of another scheme or geometry, returns the
//!   [`SnapshotError`] the restore reports.

use std::fmt;
use std::panic::resume_unwind;

use stem_analysis::{build_cache, warm_split, Scheme};
use stem_sim_core::{
    CacheGeometry, CacheModel, CacheStats, DecodedTrace, SampledTrace, ShardedTrace, Snapshot,
    SnapshotError,
};

use crate::pool;

/// How a [`RunPlan`] replays its trace.
#[derive(Debug, Clone, Copy)]
pub enum Exec<'a> {
    /// One cache replays the whole trace in order.
    Serial,
    /// One fresh cache per shard of a pair-folded set partition
    /// ([`ShardedTrace`]), fanned over up to `threads` [`pool`] workers,
    /// with the per-shard stats summed. Bit-identical to `Serial`. A
    /// scheme that declines set sharding replays serially.
    Sharded {
        /// The partition of the run's source trace at the plan's set
        /// count. The engine replays the shards as given and does not
        /// check that they came from the source.
        plan: &'a ShardedTrace,
        /// Worker cap for the shard fan-out (`<= 1` replays inline).
        threads: usize,
    },
    /// Replays only a strided-set sample ([`SampledTrace`]) and scales the
    /// result back up by the sample's `domains / selected` factor. At
    /// rate 1 the estimate is bit-identical to `Serial`.
    Sampled(&'a SampledTrace),
    /// Restores a warm checkpoint and measures only the suffix. The
    /// snapshot must have been captured at this plan's warm boundary
    /// ([`warm_scheme_snapshot`](stem_analysis::warm_scheme_snapshot)
    /// with [`warm_split`] of the same trace and warm-up), which makes the
    /// result bit-identical to `Serial`.
    Restore(&'a Snapshot),
}

/// One bare-LLC measurement: which scheme, at which geometry, warmed over
/// which fraction of the trace, replayed how.
#[derive(Debug, Clone, Copy)]
pub struct RunPlan<'a> {
    /// The LLC scheme under test.
    pub scheme: Scheme,
    /// The cache geometry. A sweep point is just another geometry, e.g.
    /// `CacheGeometry::new(base.sets(), ways, base.line_bytes())`.
    pub geom: CacheGeometry,
    /// Fraction of the trace replayed unmeasured first (clamped to
    /// `[0, 0.9]` by [`warm_split`]).
    pub warmup: f64,
    /// The execution strategy.
    pub exec: Exec<'a>,
}

/// The measured result of a [`RunPlan`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Measured {
    /// Cache statistics over the measured range (summed over shards, or
    /// the sample's raw, unscaled counts).
    pub stats: CacheStats,
    /// Instructions in the source trace's measured range.
    pub instructions: u64,
    /// Factor that extrapolates `stats` to the whole cache: 1.0 except
    /// for a sampled run, where it is the sample's
    /// [`scale_factor`](SampledTrace::scale_factor).
    pub scale: f64,
}

impl Measured {
    /// Misses per thousand measured instructions, scaled to the whole
    /// cache.
    pub fn mpki(&self) -> f64 {
        self.stats.mpki(self.instructions.max(1)) * self.scale
    }
}

/// Why the engine refused a [`RunPlan`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RunError {
    /// The scheme holds cross-set state, so a set sample would distort it.
    SamplingDeclined(Scheme),
    /// The snapshot does not restore into the plan's scheme and geometry.
    Snapshot(SnapshotError),
}

impl fmt::Display for RunError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RunError::SamplingDeclined(scheme) => {
                write!(f, "scheme {scheme} does not support sampled replay")
            }
            RunError::Snapshot(e) => write!(f, "warm snapshot restore failed: {e}"),
        }
    }
}

impl std::error::Error for RunError {}

impl From<SnapshotError> for RunError {
    fn from(e: SnapshotError) -> Self {
        RunError::Snapshot(e)
    }
}

impl RunPlan<'static> {
    /// The plan every other strategy is measured against: one cache
    /// replaying the whole trace in order.
    pub fn serial(scheme: Scheme, geom: CacheGeometry, warmup: f64) -> Self {
        RunPlan {
            scheme,
            geom,
            warmup,
            exec: Exec::Serial,
        }
    }
}

impl RunPlan<'_> {
    /// Executes the plan over `source`: warm, reset, measure.
    ///
    /// # Errors
    ///
    /// [`RunError::SamplingDeclined`] for a sampled plan on a scheme that
    /// declines set sampling, and [`RunError::Snapshot`] for a restore the
    /// cache refuses. Serial and sharded plans always succeed.
    ///
    /// # Panics
    ///
    /// Propagates the first (in shard order) panicking shard job.
    pub fn run(&self, source: &DecodedTrace) -> Result<Measured, RunError> {
        let warm_len = warm_split(source.len(), self.warmup);
        let measured = |stats, scale| Measured {
            stats,
            instructions: source.instructions_in(warm_len..source.len()),
            scale,
        };
        let mut cache = build_cache(self.scheme, self.geom);
        match self.exec {
            Exec::Sharded { plan, threads } if cache.supports_set_sharding() => {
                let (scheme, geom) = (self.scheme, self.geom);
                let jobs: Vec<_> = plan
                    .shards()
                    .iter()
                    .map(|shard| {
                        move || {
                            let mut cache = build_cache(scheme, geom);
                            warm_then_measure(
                                cache.as_mut(),
                                shard.trace(),
                                shard.split_before(warm_len),
                            )
                        }
                    })
                    .collect();
                let stats = pool::run_ordered(threads, jobs)
                    .into_iter()
                    .map(|r| r.unwrap_or_else(|payload| resume_unwind(payload)))
                    .fold(CacheStats::default(), |acc, s| acc + s);
                Ok(measured(stats, 1.0))
            }
            Exec::Serial | Exec::Sharded { .. } => Ok(measured(
                warm_then_measure(cache.as_mut(), source, warm_len),
                1.0,
            )),
            Exec::Sampled(sample) => {
                if !cache.supports_set_sampling() {
                    return Err(RunError::SamplingDeclined(self.scheme));
                }
                let local_warm = sample.split_before(warm_len);
                let stats = warm_then_measure(cache.as_mut(), sample.trace(), local_warm);
                Ok(measured(stats, sample.scale_factor()))
            }
            Exec::Restore(snapshot) => {
                cache.restore(snapshot)?;
                cache.replay_decoded(source, warm_len..source.len());
                Ok(measured(*cache.stats(), 1.0))
            }
        }
    }
}

/// The warm/reset/measure protocol: replays `trace[..warm_len]`
/// unmeasured, zeroes the counters, replays the rest, and returns the
/// measured stats.
fn warm_then_measure(
    cache: &mut dyn CacheModel,
    trace: &DecodedTrace,
    warm_len: usize,
) -> CacheStats {
    cache.replay_decoded(trace, 0..warm_len);
    cache.reset_stats();
    cache.replay_decoded(trace, warm_len..trace.len());
    *cache.stats()
}

#[cfg(test)]
mod tests {
    use super::*;
    use stem_analysis::warm_scheme_snapshot;
    use stem_workloads::BenchmarkProfile;

    fn decoded(bench: &str, n: usize) -> (CacheGeometry, DecodedTrace) {
        let geom = CacheGeometry::new(64, 4, 64).unwrap();
        let trace = BenchmarkProfile::by_name(bench).unwrap().trace(geom, n);
        (geom, DecodedTrace::decode(&trace, geom))
    }

    fn plan(scheme: Scheme, geom: CacheGeometry, exec: Exec<'_>) -> RunPlan<'_> {
        RunPlan {
            exec,
            ..RunPlan::serial(scheme, geom, 0.2)
        }
    }

    /// Every execution strategy, for every scheme, either reproduces the
    /// serial measurement bit for bit or refuses with a typed error.
    #[test]
    fn every_plan_matches_serial_or_refuses() {
        let (geom, d) = decoded("omnetpp", 20_000);
        let plans: Vec<ShardedTrace> = [1, 2, 4, 7]
            .iter()
            .map(|&n| ShardedTrace::partition(&d, n))
            .collect();
        let sample = SampledTrace::select(&d, 1, 99);
        let warm_len = warm_split(d.len(), 0.2);
        let donor = warm_scheme_snapshot(Scheme::Lru, geom, &d, warm_len).unwrap();
        for scheme in Scheme::ALL {
            let probe = build_cache(scheme, geom);
            let serial = plan(scheme, geom, Exec::Serial).run(&d).unwrap();
            let same = |m: Measured, what: &str| {
                assert_eq!(m.stats, serial.stats, "{scheme} {what}: CacheStats");
                assert_eq!(
                    m.mpki().to_bits(),
                    serial.mpki().to_bits(),
                    "{scheme} {what}: MPKI"
                );
            };

            // Sharded: accepted or declined, the result is the serial one.
            for p in &plans {
                for threads in [1, 2] {
                    let exec = Exec::Sharded { plan: p, threads };
                    let what = format!("{} shards x {threads} threads", p.shard_count());
                    same(plan(scheme, geom, exec).run(&d).unwrap(), &what);
                }
            }

            // Sampled at rate 1: exact for opt-ins, a refusal otherwise.
            let sampled = plan(scheme, geom, Exec::Sampled(&sample)).run(&d);
            if probe.supports_set_sampling() {
                same(sampled.unwrap(), "sampled at rate 1");
            } else {
                assert_eq!(sampled, Err(RunError::SamplingDeclined(scheme)));
            }

            // Restore: exact for opt-ins, a named refusal otherwise.
            match warm_scheme_snapshot(scheme, geom, &d, warm_len) {
                Some(snap) => {
                    assert!(probe.supports_snapshot(), "{scheme}");
                    same(
                        plan(scheme, geom, Exec::Restore(&snap)).run(&d).unwrap(),
                        "restored",
                    );
                }
                None => {
                    assert!(!probe.supports_snapshot(), "{scheme}");
                    assert!(matches!(
                        plan(scheme, geom, Exec::Restore(&donor)).run(&d),
                        Err(RunError::Snapshot(SnapshotError::Unsupported { .. }))
                    ));
                }
            }
        }
        // The refusal surface the serve parser and run_all filters rely on.
        for scheme in [Scheme::Stem, Scheme::VWay, Scheme::Sbc] {
            assert_eq!(
                plan(scheme, geom, Exec::Sampled(&sample)).run(&d),
                Err(RunError::SamplingDeclined(scheme))
            );
        }
    }

    #[test]
    fn opt_ins_replay_the_shards_and_decliners_the_source() {
        // A plan cut from a *different* trace of the same length and
        // geometry tells the two routes apart: replaying its shards gives
        // the other trace's numbers, the serial fallback the source's.
        let (geom, d) = decoded("omnetpp", 20_000);
        let (_, other) = decoded("mcf", 20_000);
        let foreign = ShardedTrace::partition(&other, 4);
        for scheme in Scheme::ALL {
            let exec = Exec::Sharded {
                plan: &foreign,
                threads: 2,
            };
            let got = plan(scheme, geom, exec).run(&d).unwrap();
            let route = if build_cache(scheme, geom).supports_set_sharding() {
                &other
            } else {
                &d
            };
            let want = plan(scheme, geom, Exec::Serial).run(route).unwrap();
            assert_eq!(got.stats, want.stats, "{scheme}");
        }
    }

    #[test]
    fn restore_rejects_the_wrong_target() {
        let (geom, d) = decoded("gromacs", 5_000);
        let warm_len = warm_split(d.len(), 0.2);
        let snap = warm_scheme_snapshot(Scheme::Lru, geom, &d, warm_len).unwrap();
        assert!(matches!(
            plan(Scheme::Dip, geom, Exec::Restore(&snap)).run(&d),
            Err(RunError::Snapshot(SnapshotError::SchemeMismatch { .. }))
        ));
        let other = CacheGeometry::new(64, 8, 64).unwrap();
        assert!(matches!(
            plan(Scheme::Lru, other, Exec::Restore(&snap)).run(&d),
            Err(RunError::Snapshot(SnapshotError::GeometryMismatch { .. }))
        ));
    }

    #[test]
    fn sampled_estimates_are_deterministic_and_in_the_right_ballpark() {
        let (geom, d) = decoded("omnetpp", 40_000);
        let sample = SampledTrace::select(&d, 8, 1);
        for scheme in Scheme::ALL {
            let Ok(a) = plan(scheme, geom, Exec::Sampled(&sample)).run(&d) else {
                continue;
            };
            let b = plan(scheme, geom, Exec::Sampled(&sample)).run(&d).unwrap();
            let (a, b) = (a.mpki(), b.mpki());
            assert_eq!(a.to_bits(), b.to_bits(), "{scheme} sampled MPKI not pure");
            assert!(a.is_finite() && a >= 0.0, "{scheme} sampled MPKI = {a}");
            // Not a tight bound — just that the estimator isn't nonsense.
            let exact = plan(scheme, geom, Exec::Serial).run(&d).unwrap().mpki();
            if exact > 1.0 {
                let rel = (a - exact).abs() / exact;
                assert!(
                    rel < 1.0,
                    "{scheme} sampled MPKI {a} is off exact {exact} by {rel:.2}"
                );
            }
        }
    }

    #[test]
    fn streaming_trace_misses_every_access() {
        use stem_sim_core::{Access, Address, Trace};
        let geom = CacheGeometry::new(64, 4, 64).unwrap();
        // Every access misses → MPKI == 1000 (instruction gap 1).
        let trace: Trace = (0..1000u64)
            .map(|i| Access::read(Address::new(i * 64)))
            .collect();
        let d = DecodedTrace::decode(&trace, geom);
        let p = RunPlan::serial(Scheme::Lru, geom, 0.0);
        assert!((p.run(&d).unwrap().mpki() - 1000.0).abs() < 1e-9);
    }
}
