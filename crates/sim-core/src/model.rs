//! The trait every LLC scheme implements, and the four access outcomes the
//! paper prices differently.

use std::any::Any;
use std::fmt;
use std::ops::Range;

use crate::{
    AccessKind, Address, CacheGeometry, CacheStats, DecodedTrace, LineAddr, Snapshot, SnapshotError,
};

/// The outcome of one cache access, at the granularity the paper's timing
/// model distinguishes (§5.1).
///
/// Conventional schemes (LRU, DIP, PeLIFO, V-Way) only produce
/// [`HitLocal`](AccessResult::HitLocal) and
/// [`MissLocal`](AccessResult::MissLocal); SBC and STEM may additionally
/// probe a cooperative set, producing the two `Cooperative` variants with
/// their extra tag-store access.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum AccessResult {
    /// Hit in the block's home set (one tag + one data access).
    HitLocal,
    /// Hit in the coupled/cooperative set (two tag + one data access).
    HitCooperative,
    /// Miss after probing only the home set (one tag access).
    MissLocal,
    /// Miss after probing the home set and the cooperative set (two tag
    /// accesses).
    MissCooperative,
}

impl AccessResult {
    /// Whether the access hit anywhere on chip.
    #[inline]
    pub fn is_hit(self) -> bool {
        matches!(self, AccessResult::HitLocal | AccessResult::HitCooperative)
    }

    /// Whether the access missed the LLC entirely.
    #[inline]
    pub fn is_miss(self) -> bool {
        !self.is_hit()
    }

    /// Whether a second (cooperative) set was probed.
    #[inline]
    pub fn probed_cooperative(self) -> bool {
        matches!(
            self,
            AccessResult::HitCooperative | AccessResult::MissCooperative
        )
    }
}

impl fmt::Display for AccessResult {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            AccessResult::HitLocal => "local hit",
            AccessResult::HitCooperative => "cooperative hit",
            AccessResult::MissLocal => "miss",
            AccessResult::MissCooperative => "miss after cooperative probe",
        };
        f.write_str(s)
    }
}

/// A last-level cache scheme under trace-driven simulation.
///
/// The trait is object-safe so experiments can hold heterogeneous scheme
/// collections as `Box<dyn CacheModel>` ([C-OBJECT]), and every
/// implementor is `Clone` through [`CacheModelClone`], so such a box
/// clones too.
///
/// # Examples
///
/// Run a decoded stream through any scheme and read its statistics:
///
/// ```no_run
/// use stem_sim_core::{CacheModel, DecodedTrace};
///
/// fn mpki(cache: &mut dyn CacheModel, trace: &DecodedTrace) -> f64 {
///     cache.run_decoded(trace);
///     cache.stats().mpki(trace.instructions())
/// }
/// ```
///
/// [C-OBJECT]: https://rust-lang.github.io/api-guidelines/flexibility.html
pub trait CacheModel: CacheModelClone {
    /// Processes one access and reports its outcome.
    fn access(&mut self, addr: Address, kind: AccessKind) -> AccessResult;

    /// Aggregate statistics since construction (or the last
    /// [`reset_stats`](CacheModel::reset_stats)).
    fn stats(&self) -> &CacheStats;

    /// Mutable access to the statistics, through which the provided
    /// [`reset_stats`](CacheModel::reset_stats) zeroes them.
    fn stats_mut(&mut self) -> &mut CacheStats;

    /// Clears the statistics without disturbing cache contents — used to
    /// exclude warm-up from measurement, mirroring the paper's
    /// cache-warming phase (§5.1).
    fn reset_stats(&mut self) {
        *self.stats_mut() = CacheStats::default();
    }

    /// The data-store geometry of this cache.
    fn geometry(&self) -> CacheGeometry;

    /// A short scheme name for reports (e.g. `"LRU"`, `"STEM"`).
    fn name(&self) -> &str;

    /// Replays the decoded accesses in `range`, in order.
    ///
    /// The provided loop feeds each access, as a line-aligned byte address,
    /// to [`access`](CacheModel::access); schemes override it with a
    /// monomorphic kernel over the line column that derives the set from
    /// each line under their own geometry. Either way the per-access
    /// outcomes are identical to replaying the original `Trace`, at any
    /// set count.
    ///
    /// # Panics
    ///
    /// Panics if `range` is out of bounds for `trace`, or if the trace's
    /// line size differs from this cache's
    /// ([`DecodedTrace::lines_for`]).
    fn replay_decoded(&mut self, trace: &DecodedTrace, range: Range<usize>) {
        let geom = self.geometry();
        let lines = &trace.lines_for(geom)[range.clone()];
        for (i, &line) in range.zip(lines) {
            let addr = LineAddr::new(line).to_address(geom.line_bytes());
            self.access(addr, AccessKind::from_write(trace.is_write(i)));
        }
    }

    /// Replays an entire decoded trace
    /// (see [`replay_decoded`](CacheModel::replay_decoded)).
    fn run_decoded(&mut self, trace: &DecodedTrace) {
        self.replay_decoded(trace, 0..trace.len());
    }

    /// Whether sampled (strided-subset) replay of this cache is a valid
    /// estimator of its serial behaviour.
    ///
    /// # Contract
    ///
    /// Returning `true` asserts: replaying only the accesses of a
    /// pair-preserving subset of the set space (see
    /// [`SampledTrace`](crate::SampledTrace)) against a fresh instance of
    /// this cache reproduces, for every *selected* set, exactly the
    /// per-access outcomes of the serial full-trace replay — or, for a
    /// scheme that opts in with global state (DIP), a documented
    /// approximation whose error is measured and bounded in the bench
    /// artifacts. Scaling the measured counts by
    /// [`SampledTrace::scale_factor`](crate::SampledTrace::scale_factor)
    /// then estimates the full-cache counts, with error coming only from
    /// the extrapolation (per-set behaviour is not distorted).
    ///
    /// The exact form holds precisely when every piece of mutable state
    /// the access path reads or writes is local to one set (or one partner
    /// pair `(s, s ^ sets/2)`): no global PSEL or election counters, no
    /// shared victim buffer or data store, no RNG consumed on a
    /// data-dependent subset of accesses. Dropped sets are then invisible
    /// to the kept ones, so replaying every residue class of the stride
    /// through its own fresh cache and summing the unscaled
    /// [`CacheStats`](crate::CacheStats) gives the serial totals.
    ///
    /// The default is `false` — exact replay is always correct, so a
    /// scheme must opt in explicitly. Schemes whose global state observes
    /// all sets (PeLIFO's election, V-Way's shared tag/data store, STEM's
    /// shadow machinery, a global RNG) refuse; DIP opts in because set
    /// dueling *is* a sampling estimator (see its policy override).
    fn supports_set_sampling(&self) -> bool {
        false
    }

    /// Whether this cache can checkpoint and restore its complete replay
    /// state: always `true`, since every cache is a [`CacheModelClone`].
    fn supports_snapshot(&self) -> bool {
        true
    }

    /// Checkpoints the complete replay state: a clone of this cache with
    /// zeroed statistics (see [`Snapshot`]). Always `Some`.
    ///
    /// The capture is deep: the snapshot stays valid however the live
    /// cache is mutated afterwards.
    fn snapshot(&self) -> Option<Snapshot> {
        Some(Snapshot::new(self.clone_box()))
    }

    /// Replaces this cache's complete replay state with a clone of
    /// `snapshot`'s cache, after which it replays exactly like the cache
    /// the snapshot was taken from, measuring from zeroed counters.
    ///
    /// # Errors
    ///
    /// The scheme and geometry mismatches of [`Snapshot::verify_target`],
    /// or [`SnapshotError::StateMismatch`] when the snapshot's cache is
    /// another concrete type. On any error the cache is left unmodified.
    fn restore(&mut self, snapshot: &Snapshot) -> Result<(), SnapshotError> {
        snapshot.verify_target(self.name(), self.geometry())?;
        if self.clone_from_dyn(snapshot.cache()) {
            Ok(())
        } else {
            Err(SnapshotError::StateMismatch {
                scheme: self.name().to_owned(),
            })
        }
    }
}

/// The clone-behind-`dyn` half of [`CacheModel`].
///
/// Blanket-implemented for every `Clone + Send + Sync + 'static` cache,
/// so a scheme gets checkpointing by deriving `Clone` and writes no clone
/// code of its own. It is what makes `Box<dyn CacheModel>` `Clone`.
pub trait CacheModelClone: Any + Send + Sync {
    /// Clones the cache behind the trait object.
    fn clone_box(&self) -> Box<dyn CacheModel>;

    /// Overwrites `self` with a clone of `other` when `other` is the same
    /// concrete type; returns whether it was (`self` is untouched if not).
    fn clone_from_dyn(&mut self, other: &dyn CacheModel) -> bool;
}

impl<T: CacheModel + Clone + Send + Sync + 'static> CacheModelClone for T {
    fn clone_box(&self) -> Box<dyn CacheModel> {
        Box::new(self.clone())
    }

    fn clone_from_dyn(&mut self, other: &dyn CacheModel) -> bool {
        match (other as &dyn Any).downcast_ref::<T>() {
            Some(other) => {
                self.clone_from(other);
                true
            }
            None => false,
        }
    }
}

impl Clone for Box<dyn CacheModel> {
    fn clone(&self) -> Self {
        (**self).clone_box()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Access;

    #[test]
    fn result_predicates() {
        assert!(AccessResult::HitLocal.is_hit());
        assert!(AccessResult::HitCooperative.is_hit());
        assert!(AccessResult::MissLocal.is_miss());
        assert!(AccessResult::MissCooperative.is_miss());
        assert!(!AccessResult::HitLocal.probed_cooperative());
        assert!(AccessResult::HitCooperative.probed_cooperative());
        assert!(!AccessResult::MissLocal.probed_cooperative());
        assert!(AccessResult::MissCooperative.probed_cooperative());
    }

    #[test]
    fn result_display() {
        assert_eq!(AccessResult::HitLocal.to_string(), "local hit");
        assert_eq!(
            AccessResult::MissCooperative.to_string(),
            "miss after cooperative probe"
        );
    }

    /// A trivial always-miss cache that records what reaches `access`, to
    /// exercise the trait's default methods.
    #[derive(Clone)]
    struct NullCache {
        stats: CacheStats,
        geom: CacheGeometry,
        seen: Vec<(Address, AccessKind)>,
    }

    impl NullCache {
        fn new(geom: CacheGeometry) -> Self {
            NullCache {
                stats: CacheStats::default(),
                geom,
                seen: Vec::new(),
            }
        }
    }

    impl CacheModel for NullCache {
        fn access(&mut self, addr: Address, kind: AccessKind) -> AccessResult {
            self.stats.record_local_miss();
            self.seen.push((addr, kind));
            AccessResult::MissLocal
        }
        fn stats(&self) -> &CacheStats {
            &self.stats
        }
        fn stats_mut(&mut self) -> &mut CacheStats {
            &mut self.stats
        }
        fn geometry(&self) -> CacheGeometry {
            self.geom
        }
        fn name(&self) -> &str {
            "null"
        }
    }

    #[test]
    fn default_replay_feeds_line_aligned_accesses_at_any_set_count() {
        let trace: crate::Trace = (0..100u64)
            .map(|i| {
                let addr = Address::new(i * 64 + i % 64); // unaligned
                if i % 3 == 0 {
                    Access::write(addr)
                } else {
                    Access::read(addr)
                }
            })
            .collect();
        let decoded = DecodedTrace::decode(&trace, CacheGeometry::micro2010_l2());
        for sets in [2048, 64, 1] {
            let mut cache = NullCache::new(CacheGeometry::new(sets, 4, 64).unwrap());
            cache.run_decoded(&decoded);
            assert_eq!(cache.stats().accesses(), 100);
            for (&(addr, kind), a) in cache.seen.iter().zip(&trace) {
                assert_eq!(addr.raw(), a.addr.raw() / 64 * 64);
                assert_eq!(kind, a.kind);
            }
        }

        let mut cache: Box<dyn CacheModel> = Box::new(NullCache::new(decoded.geometry()));
        cache.replay_decoded(&decoded, 10..30);
        assert_eq!(cache.stats().accesses(), 20);
        cache.reset_stats();
        assert_eq!(cache.stats().accesses(), 0);
    }

    #[test]
    #[should_panic(expected = "own line size")]
    fn default_replay_refuses_another_line_size() {
        let trace: crate::Trace = [Access::read(Address::new(0))].into_iter().collect();
        let decoded = DecodedTrace::decode(&trace, CacheGeometry::micro2010_l2());
        NullCache::new(CacheGeometry::new(64, 4, 32).unwrap()).run_decoded(&decoded);
    }
}
