//! The trait every LLC scheme implements, and the four access outcomes the
//! paper prices differently.

use std::fmt;
use std::ops::Range;

use crate::{
    AccessKind, Address, CacheGeometry, CacheStats, DecodedAccess, DecodedTrace, Snapshot,
    SnapshotError, Trace,
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
/// collections as `Box<dyn CacheModel>` ([C-OBJECT]).
///
/// # Examples
///
/// Run a trace through any scheme and read its statistics:
///
/// ```no_run
/// use stem_sim_core::{Access, Address, CacheModel, Trace};
///
/// fn mpki(cache: &mut dyn CacheModel, trace: &Trace) -> f64 {
///     cache.run(trace);
///     cache.stats().mpki(trace.instructions())
/// }
/// ```
///
/// [C-OBJECT]: https://rust-lang.github.io/api-guidelines/flexibility.html
pub trait CacheModel {
    /// Processes one access and reports its outcome.
    fn access(&mut self, addr: Address, kind: AccessKind) -> AccessResult;

    /// Aggregate statistics since construction (or the last
    /// [`reset_stats`](CacheModel::reset_stats)).
    fn stats(&self) -> &CacheStats;

    /// Mutable access to the statistics, so non-demand traffic (prefetch
    /// fills, diagnostics) can snapshot and restore the counters around an
    /// access instead of polluting the demand view. See
    /// [`access_non_demand`](CacheModel::access_non_demand).
    fn stats_mut(&mut self) -> &mut CacheStats;

    /// Clears the statistics without disturbing cache contents — used to
    /// exclude warm-up from measurement, mirroring the paper's
    /// cache-warming phase (§5.1).
    fn reset_stats(&mut self) {
        *self.stats_mut() = CacheStats::default();
    }

    /// Processes one access *without* perturbing the statistics: the cache
    /// contents update normally (fills, evictions, replacement state) but
    /// every counter is restored to its pre-access value. This is the
    /// insertion path for prefetches and other non-demand traffic, which
    /// the paper's MPKI/AMAT metrics must exclude.
    fn access_non_demand(&mut self, addr: Address, kind: AccessKind) -> AccessResult {
        let before = *self.stats();
        let result = self.access(addr, kind);
        *self.stats_mut() = before;
        result
    }

    /// The data-store geometry of this cache.
    fn geometry(&self) -> CacheGeometry;

    /// A short scheme name for reports (e.g. `"LRU"`, `"STEM"`).
    fn name(&self) -> &str;

    /// Processes every access of a trace in order.
    fn run(&mut self, trace: &Trace) {
        for a in trace {
            self.access(a.addr, a.kind);
        }
    }

    /// Processes one pre-decoded access.
    ///
    /// # Contract
    ///
    /// Callers must only invoke this when the access was decoded at this
    /// cache's set count and line size
    /// ([`DecodedTrace::compatible_with`]); under that contract the
    /// pre-extracted `set`/`line` fields are exactly what
    /// [`access`](CacheModel::access) would re-derive, and overriding
    /// implementations may consume them directly. The provided default is
    /// the documented *fallback through the existing `Access` path*: it
    /// reconstructs the line-aligned byte address and calls
    /// [`access`](CacheModel::access), so schemes whose probe geometry
    /// differs from the decode geometry (e.g. V-Way's tag-store lookup)
    /// need no override and still behave identically.
    fn access_decoded(&mut self, a: DecodedAccess) -> AccessResult {
        self.access(a.address(self.geometry().line_bytes()), a.kind())
    }

    /// Replays the decoded accesses in `range`, in order.
    ///
    /// When the decode geometry is compatible with this cache
    /// ([`DecodedTrace::compatible_with`]) each access goes through
    /// [`access_decoded`](CacheModel::access_decoded); otherwise every
    /// access falls back to the byte-address [`access`](CacheModel::access)
    /// path, reconstructed at the *trace's* line granularity so the stream
    /// of line addresses the cache observes is unchanged. Both arms produce
    /// per-access outcomes identical to replaying the original `Trace`.
    ///
    /// # Panics
    ///
    /// Panics if `range` is out of bounds for `trace`.
    fn replay_decoded(&mut self, trace: &DecodedTrace, range: Range<usize>) {
        if trace.compatible_with(self.geometry()) {
            for a in trace.iter_range(range) {
                self.access_decoded(a);
            }
        } else {
            replay_decoded_via_access(self, trace, range);
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
    /// state.
    ///
    /// # Contract
    ///
    /// Returning `true` asserts: [`snapshot`](CacheModel::snapshot) returns
    /// `Some` capture of **every** piece of mutable state the access path
    /// reads or writes — tag store, replacement metadata, statistics, any
    /// global counters or RNG — and [`restore`](CacheModel::restore) of
    /// that capture into a fresh instance of the same scheme and geometry
    /// makes the instance produce, per subsequent access, exactly the
    /// [`AccessResult`] stream and [`CacheStats`] the captured instance
    /// would have produced. Restore is exact or refused; there is no
    /// approximate tier.
    ///
    /// The default is `false` — a cold run is always correct, so a scheme
    /// must opt in explicitly, and dispatchers silently run anything that
    /// declines from cold (a declined offer changes no results). Refusing
    /// overrides document the disqualifying state they cannot capture
    /// cheaply, mirroring the sampling boundary above.
    fn supports_snapshot(&self) -> bool {
        false
    }

    /// Checkpoints the complete replay state, or `None` when the scheme
    /// declines ([`supports_snapshot`](CacheModel::supports_snapshot) is
    /// `false`).
    ///
    /// The capture is deep: the snapshot stays valid however the live
    /// cache is mutated afterwards.
    fn snapshot(&self) -> Option<Snapshot> {
        None
    }

    /// Replaces this cache's complete replay state with `snapshot`'s.
    ///
    /// Implementations verify the target first
    /// ([`Snapshot::verify_target`]): a snapshot of another scheme or
    /// geometry is an error, never a silent partial restore. On any error
    /// the cache is left unmodified.
    ///
    /// # Errors
    ///
    /// [`SnapshotError::Unsupported`] (the default — the scheme declines
    /// the capability), or the scheme/geometry/state mismatches named in
    /// [`SnapshotError`].
    fn restore(&mut self, snapshot: &Snapshot) -> Result<(), SnapshotError> {
        let _ = snapshot;
        Err(crate::snapshot::unsupported(self.name()))
    }
}

/// The documented incompatible-geometry fallback for
/// [`CacheModel::replay_decoded`]: re-materializes each access as a
/// line-aligned byte address at the *trace's* line granularity and feeds it
/// to [`CacheModel::access`], so the stream of line addresses the cache
/// observes is exactly what the original `Trace` would have produced.
/// Scheme-specific `replay_decoded` overrides delegate their incompatible
/// arm here so the fallback semantics stay in one place.
pub fn replay_decoded_via_access<C: CacheModel + ?Sized>(
    cache: &mut C,
    trace: &DecodedTrace,
    range: Range<usize>,
) {
    let line_bytes = trace.geometry().line_bytes();
    for a in trace.iter_range(range) {
        cache.access(a.address(line_bytes), a.kind());
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

    /// A trivial always-miss cache to exercise the trait's default methods.
    struct NullCache {
        stats: CacheStats,
        geom: CacheGeometry,
    }

    impl CacheModel for NullCache {
        fn access(&mut self, _addr: Address, _kind: AccessKind) -> AccessResult {
            self.stats.record_local_miss();
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
    fn run_processes_whole_trace_and_is_object_safe() {
        let mut cache: Box<dyn CacheModel> = Box::new(NullCache {
            stats: CacheStats::default(),
            geom: CacheGeometry::micro2010_l2(),
        });
        let trace: Trace = (0..10u64)
            .map(|i| Access::read(Address::new(i * 64)))
            .collect();
        cache.run(&trace);
        assert_eq!(cache.stats().accesses(), 10);
        cache.reset_stats();
        assert_eq!(cache.stats().accesses(), 0);
        let r = cache.access(Address::new(0), AccessKind::Write);
        assert!(r.is_miss());
    }

    #[test]
    fn decoded_defaults_replay_through_access_path() {
        let geom = CacheGeometry::micro2010_l2();
        let trace: Trace = (0..100u64)
            .map(|i| Access::read(Address::new(i * 64 + i % 64))) // unaligned
            .collect();
        let decoded = crate::DecodedTrace::decode(&trace, geom);

        let mut cache: Box<dyn CacheModel> = Box::new(NullCache {
            stats: CacheStats::default(),
            geom,
        });
        cache.run_decoded(&decoded);
        assert_eq!(cache.stats().accesses(), 100);

        cache.reset_stats();
        cache.replay_decoded(&decoded, 10..30);
        assert_eq!(cache.stats().accesses(), 20);

        // Incompatible geometry exercises the fallback arm.
        let mut small = NullCache {
            stats: CacheStats::default(),
            geom: CacheGeometry::new(64, 4, 64).unwrap(),
        };
        assert!(!decoded.compatible_with(small.geom));
        small.run_decoded(&decoded);
        assert_eq!(small.stats.accesses(), 100);

        let r = cache.access_decoded(decoded.get(0));
        assert!(r.is_miss());
    }

    #[test]
    fn non_demand_access_leaves_stats_untouched() {
        let mut cache = NullCache {
            stats: CacheStats::default(),
            geom: CacheGeometry::micro2010_l2(),
        };
        cache.access(Address::new(0), AccessKind::Read);
        let before = *cache.stats();
        let r = cache.access_non_demand(Address::new(64), AccessKind::Read);
        assert!(r.is_miss());
        assert_eq!(*cache.stats(), before, "non-demand traffic must not count");
    }
}
