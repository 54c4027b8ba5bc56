//! The trait every LLC scheme implements, and the four access outcomes the
//! paper prices differently.

use std::any::Any;
use std::fmt;
use std::ops::Range;

use crate::{
    AccessKind, Address, CacheGeometry, CacheStats, DecodedTrace, Snapshot, SnapshotError,
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
    /// Replays the decoded accesses in `range`, in order: the scheme's one
    /// per-access path, which every run drives.
    ///
    /// Each scheme implements it as a monomorphic kernel over the line
    /// column that derives the set from each line under its own geometry,
    /// so one stream replays at any set count. Replay composes: replaying
    /// `a..b` and then `b..c` leaves exactly the state and statistics of
    /// replaying `a..c`, which is what lets the hierarchy feed the LLC in
    /// chunks and attribute counts by differencing [`CacheStats`].
    ///
    /// # Panics
    ///
    /// Panics if `range` is out of bounds for `trace`, or if the trace's
    /// line size differs from this cache's
    /// ([`DecodedTrace::lines_for`]).
    fn replay_decoded(&mut self, trace: &DecodedTrace, range: Range<usize>);

    /// Processes one access and reports its outcome.
    ///
    /// A convenience over [`replay_decoded`](CacheModel::replay_decoded):
    /// it replays a one-access stream decoded at this cache's line size
    /// and reads the outcome off the one outcome counter that moved. It
    /// allocates that stream on every call, so runs over many accesses
    /// replay a [`DecodedTrace`] instead.
    fn access(&mut self, addr: Address, kind: AccessKind) -> AccessResult {
        let geom = self.geometry();
        let mut one = DecodedTrace::gap_free(geom, 1);
        one.push_line(addr.line(geom.line_bytes()).raw(), kind.is_write());
        let before = *self.stats();
        self.replay_decoded(&one, 0..1);
        let moved = self.stats().outcomes_since(&before);
        debug_assert_eq!(moved.accesses(), 1, "one access replayed");
        if moved.local_hits() > 0 {
            AccessResult::HitLocal
        } else if moved.coop_hits() > 0 {
            AccessResult::HitCooperative
        } else if moved.local_misses() > 0 {
            AccessResult::MissLocal
        } else {
            AccessResult::MissCooperative
        }
    }

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

    /// A cache that records every replayed line and write flag, and
    /// reports the four outcomes in rotation, to exercise the trait's
    /// provided methods.
    #[derive(Clone)]
    struct RecordingCache {
        stats: CacheStats,
        geom: CacheGeometry,
        seen: Vec<(u64, bool)>,
    }

    impl RecordingCache {
        fn new(geom: CacheGeometry) -> Self {
            RecordingCache {
                stats: CacheStats::default(),
                geom,
                seen: Vec::new(),
            }
        }
    }

    impl CacheModel for RecordingCache {
        fn replay_decoded(&mut self, trace: &DecodedTrace, range: Range<usize>) {
            let lines = &trace.lines_for(self.geom)[range.clone()];
            for (i, &line) in range.zip(lines) {
                match self.seen.len() % 4 {
                    0 => self.stats.record_local_hit(),
                    1 => self.stats.record_coop_hit(),
                    2 => self.stats.record_local_miss(),
                    _ => self.stats.record_coop_miss(),
                }
                self.seen.push((line, trace.is_write(i)));
            }
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
            "recording"
        }
    }

    #[test]
    fn access_replays_one_line_aligned_access_and_reads_its_outcome() {
        let mut cache = RecordingCache::new(CacheGeometry::new(64, 4, 64).unwrap());
        let outcomes: Vec<AccessResult> = (0..8u64)
            .map(|i| {
                let addr = Address::new(i * 64 + i % 64); // unaligned
                cache.access(addr, AccessKind::from_write(i % 3 == 0))
            })
            .collect();
        use AccessResult::*;
        let rotation = [HitLocal, HitCooperative, MissLocal, MissCooperative];
        assert_eq!(outcomes, [rotation, rotation].concat());
        let expect: Vec<(u64, bool)> = (0..8u64).map(|i| (i, i % 3 == 0)).collect();
        assert_eq!(cache.seen, expect);
        assert_eq!(cache.stats().accesses(), 8);
    }

    #[test]
    fn run_decoded_replays_every_access_through_the_trait_object() {
        let trace: crate::Trace = (0..100u64)
            .map(|i| Access::read(Address::new(i * 64)))
            .collect();
        let decoded = DecodedTrace::decode(&trace, CacheGeometry::micro2010_l2());
        let mut cache: Box<dyn CacheModel> =
            Box::new(RecordingCache::new(CacheGeometry::new(1, 4, 64).unwrap()));
        cache.replay_decoded(&decoded, 10..30);
        assert_eq!(cache.stats().accesses(), 20);
        cache.reset_stats();
        cache.run_decoded(&decoded);
        assert_eq!(cache.stats().accesses(), 100);
    }

    #[test]
    #[should_panic(expected = "own line size")]
    fn replay_refuses_another_line_size() {
        let trace: crate::Trace = [Access::read(Address::new(0))].into_iter().collect();
        let decoded = DecodedTrace::decode(&trace, CacheGeometry::micro2010_l2());
        RecordingCache::new(CacheGeometry::new(64, 4, 32).unwrap()).run_decoded(&decoded);
    }
}
