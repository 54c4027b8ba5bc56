//! A conventional set-associative cache driven by any replacement policy.

use std::ops::Range;

use stem_sim_core::{
    AccessResult, AuditError, CacheGeometry, CacheModel, CacheStats, DecodedTrace,
    InvariantAuditor, LineAddr, SetFrames,
};

use crate::ReplacementPolicy;

/// A conventional set-associative LLC (§2.1's three-tier organization) whose
/// temporal behaviour is delegated to a [`ReplacementPolicy`].
///
/// This is the vehicle for the paper's temporal schemes: construct it with
/// [`Lru`](crate::Lru), [`Bip`](crate::Bip), [`Dip`](crate::Dip),
/// [`PeLifo`](crate::PeLifo), etc. The policy is held by value, so every
/// policy compiles into one statically dispatched lookup/replacement
/// kernel shared by [`access_line`](Self::access_line) and
/// [`replay_decoded`](CacheModel::replay_decoded).
///
/// # Examples
///
/// ```
/// use stem_replacement::{Dip, SetAssocCache};
/// use stem_sim_core::{Access, Address, CacheGeometry, CacheModel, DecodedTrace, Trace};
///
/// # fn main() -> Result<(), stem_sim_core::GeometryError> {
/// let geom = CacheGeometry::new(256, 8, 64)?;
/// let mut cache = SetAssocCache::new(geom, Dip::new(geom));
/// let trace: Trace = (0..100u64).map(|i| Access::read(Address::new(i * 64))).collect();
/// cache.run_decoded(&DecodedTrace::decode(&trace, geom));
/// assert_eq!(cache.stats().accesses(), 100);
/// # Ok(())
/// # }
/// ```
#[derive(Clone)]
pub struct SetAssocCache<P> {
    geom: CacheGeometry,
    /// Flat tag store; the tag word is [`CacheGeometry::tag_of_line`].
    frames: SetFrames,
    policy: P,
    stats: CacheStats,
}

impl<P: ReplacementPolicy> SetAssocCache<P> {
    /// Creates an empty cache using `policy` for replacement. The cache's
    /// [`name`](CacheModel::name) is the policy's.
    pub fn new(geom: CacheGeometry, policy: P) -> Self {
        SetAssocCache {
            geom,
            frames: SetFrames::new(geom.sets(), geom.ways()),
            policy,
            stats: CacheStats::default(),
        }
    }

    /// Processes one line-granular access, deriving set and tag from this
    /// cache's own geometry: the per-access entry point of a
    /// [`DecodedTrace`]-driven hierarchy run's L1.
    #[inline]
    pub fn access_line(&mut self, line: LineAddr, write: bool) -> AccessResult {
        self.access_at(
            self.geom.set_index_of_line(line),
            self.geom.tag_of_line(line),
            write,
        )
    }

    /// The lookup/replacement kernel behind both
    /// [`access_line`](Self::access_line) and the decoded replay loop: set
    /// index and tag word are already extracted.
    #[inline]
    fn access_at(&mut self, set: usize, tag: u64, write: bool) -> AccessResult {
        if let Some(way) = self.frames.find(set, tag) {
            self.stats.record_local_hit();
            self.policy.on_hit(set, way);
            if write {
                self.frames.mark_dirty(set, way);
            }
            return AccessResult::HitLocal;
        }

        self.stats.record_local_miss();
        self.policy.on_miss(set);

        let way = match self.frames.first_free(set) {
            Some(w) => w,
            None => {
                let victim = self.policy.victim(set);
                debug_assert!(victim < self.geom.ways());
                let old = self
                    .frames
                    .take(set, victim)
                    .expect("victim way must be valid");
                self.stats.record_eviction();
                if old.dirty {
                    self.stats.record_writeback();
                }
                victim
            }
        };
        self.frames.fill(set, way, tag, write, false);
        self.policy.on_fill(set, way);
        AccessResult::MissLocal
    }
}

impl<P: ReplacementPolicy + Clone + 'static> CacheModel for SetAssocCache<P> {
    /// Streams the line column straight into the lookup/replacement
    /// kernel, monomorphized for `P`.
    fn replay_decoded(&mut self, trace: &DecodedTrace, range: Range<usize>) {
        let geom = self.geom;
        let lines = &trace.lines_for(geom)[range.clone()];
        for (i, &line) in range.zip(lines) {
            let line = LineAddr::new(line);
            self.access_at(
                geom.set_index_of_line(line),
                geom.tag_of_line(line),
                trace.is_write(i),
            );
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
        self.policy.name()
    }

    /// The frames and stats are per-set by construction, so the cache
    /// structure adds no cross-set state and sampled-replay eligibility is
    /// exactly the policy's call
    /// ([`ReplacementPolicy::supports_set_sampling`]).
    fn supports_set_sampling(&self) -> bool {
        self.policy.supports_set_sampling()
    }
}

impl<P: ReplacementPolicy> InvariantAuditor for SetAssocCache<P> {
    /// Checks, for every set: no duplicate valid tags, occupancy within the
    /// associativity, and the policy's own per-set bookkeeping (recency
    /// stacks stay permutations).
    fn audit(&self) -> Result<(), AuditError> {
        let name = self.policy.name();
        for set in 0..self.geom.sets() {
            let mut seen = std::collections::HashSet::new();
            for way in self.frames.valid_ways(set) {
                let tag = self.frames.tag(set, way).expect("valid way has a tag");
                if !seen.insert(tag) {
                    return Err(AuditError::new(
                        name,
                        format!("duplicate tag {tag:#x} in set {set}"),
                    ));
                }
            }
            if self.frames.valid_count(set) > self.geom.ways() {
                return Err(AuditError::new(
                    name,
                    format!(
                        "set {set} holds {} valid lines, geometry says {}",
                        self.frames.valid_count(set),
                        self.geom.ways()
                    ),
                ));
            }
            self.policy
                .audit_set(set)
                .map_err(|detail| AuditError::new(name, detail))?;
        }
        Ok(())
    }
}

impl<P: ReplacementPolicy> std::fmt::Debug for SetAssocCache<P> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SetAssocCache")
            .field("geom", &self.geom)
            .field("policy", &self.policy.name())
            .field("stats", &self.stats)
            .finish_non_exhaustive()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Bip, Lru};
    use stem_sim_core::{prop, Access, AccessKind, Address, Trace};

    fn small() -> CacheGeometry {
        CacheGeometry::new(2, 2, 64).unwrap()
    }

    fn lru_cache(geom: CacheGeometry) -> SetAssocCache<Lru> {
        SetAssocCache::new(geom, Lru::new(geom))
    }

    /// Whether the line containing `addr` is resident, read off the frames
    /// without touching the policy.
    fn resident(c: &SetAssocCache<Lru>, addr: Address) -> bool {
        let line = addr.line(c.geom.line_bytes());
        c.frames
            .find(c.geom.set_index_of_line(line), c.geom.tag_of_line(line))
            .is_some()
    }

    #[test]
    fn cold_miss_then_hit() {
        let mut c = lru_cache(small());
        let a = Address::new(0);
        assert_eq!(c.access(a, AccessKind::Read), AccessResult::MissLocal);
        assert_eq!(c.access(a, AccessKind::Read), AccessResult::HitLocal);
        assert_eq!(c.stats().hits(), 1);
        assert_eq!(c.stats().misses(), 1);
    }

    #[test]
    fn lru_eviction_order() {
        // 2-way set: A, B, C (same set) -> A evicted; A misses again.
        let geom = small();
        let mut c = lru_cache(geom);
        let a = geom.address_of(1, 0);
        let b = geom.address_of(2, 0);
        let d = geom.address_of(3, 0);
        c.access(a, AccessKind::Read);
        c.access(b, AccessKind::Read);
        c.access(d, AccessKind::Read); // evicts a
        assert!(!resident(&c, a));
        assert!(resident(&c, b));
        assert!(resident(&c, d));
        assert_eq!(c.stats().evictions(), 1);
    }

    #[test]
    fn writeback_on_dirty_eviction() {
        let geom = CacheGeometry::new(2, 1, 64).unwrap();
        let mut c = lru_cache(geom);
        c.access(geom.address_of(1, 0), AccessKind::Write);
        c.access(geom.address_of(2, 0), AccessKind::Read); // evicts dirty
        assert_eq!(c.stats().writebacks(), 1);
        c.access(geom.address_of(3, 0), AccessKind::Read); // evicts clean
        assert_eq!(c.stats().writebacks(), 1);
    }

    #[test]
    fn write_hit_marks_dirty() {
        let geom = CacheGeometry::new(2, 1, 64).unwrap();
        let mut c = lru_cache(geom);
        c.access(geom.address_of(1, 0), AccessKind::Read);
        c.access(geom.address_of(1, 0), AccessKind::Write); // hit, dirties
        c.access(geom.address_of(2, 0), AccessKind::Read); // evicts dirty
        assert_eq!(c.stats().writebacks(), 1);
    }

    #[test]
    fn fills_use_free_ways_before_evicting() {
        let geom = CacheGeometry::new(1, 4, 64).unwrap();
        let mut c = lru_cache(geom);
        for t in 0..4 {
            c.access(geom.address_of(t, 0), AccessKind::Read);
        }
        assert_eq!(c.stats().evictions(), 0);
        assert_eq!(c.frames.valid_count(0), 4);
        c.access(geom.address_of(9, 0), AccessKind::Read);
        assert_eq!(c.stats().evictions(), 1);
    }

    #[test]
    fn reset_stats_keeps_contents() {
        let geom = small();
        let mut c = lru_cache(geom);
        let a = geom.address_of(1, 0);
        c.access(a, AccessKind::Read);
        c.reset_stats();
        assert_eq!(c.stats().accesses(), 0);
        assert_eq!(c.access(a, AccessKind::Read), AccessResult::HitLocal);
    }

    #[test]
    fn cyclic_thrash_lru_vs_bip() {
        // The classic motivation: a cyclic working set one block larger
        // than the set thrashes LRU (0 hits) but BIP retains most of it.
        let geom = CacheGeometry::new(1, 4, 64).unwrap();
        let pattern: Vec<Address> = (0..5).map(|t| geom.address_of(t, 0)).collect();
        let mut trace = Trace::new();
        for _ in 0..200 {
            for &a in &pattern {
                trace.push(Access::read(a));
            }
        }
        let trace = DecodedTrace::decode(&trace, geom);
        let mut lru = lru_cache(geom);
        lru.run_decoded(&trace);
        let mut bip = SetAssocCache::new(geom, Bip::new(geom));
        bip.run_decoded(&trace);
        assert_eq!(
            lru.stats().hits(),
            0,
            "LRU must thrash on a 5-block cycle in 4 ways"
        );
        assert!(
            bip.stats().hits() > trace.len() as u64 / 2,
            "BIP should retain most of the cycle: {} hits of {}",
            bip.stats().hits(),
            trace.len()
        );
    }

    /// The cache never reports more hits+misses than accesses fed, and
    /// the number of valid lines never exceeds the geometry.
    #[test]
    fn stats_and_occupancy_invariants() {
        prop::check(128, |g| {
            let addrs = g.vec_u64(1, 300, 0, 4096);
            let geom = CacheGeometry::new(4, 2, 64).unwrap();
            let mut c = lru_cache(geom);
            for (i, &a) in addrs.iter().enumerate() {
                c.access(
                    Address::new(a * 64),
                    if a % 3 == 0 {
                        AccessKind::Write
                    } else {
                        AccessKind::Read
                    },
                );
                assert_eq!(c.stats().accesses(), (i + 1) as u64);
            }
            for s in 0..geom.sets() {
                assert!(c.frames.valid_count(s) <= geom.ways());
            }
            c.audit().expect("LRU cache invariants hold");
            // Re-accessing anything just accessed is a hit.
            let last = Address::new(addrs[addrs.len() - 1] * 64);
            assert!(resident(&c, last));
        });
    }

    /// A restored cache replays the post-snapshot suffix exactly like the
    /// uninterrupted original — per-access outcomes, and stats once the
    /// original zeroes its counters at the snapshot point — and
    /// the snapshot survives arbitrary mutation of the live cache between
    /// capture and restore.
    #[test]
    fn snapshot_restore_resumes_the_identical_trajectory() {
        let geom = CacheGeometry::new(4, 2, 64).unwrap();
        prop::check(64, |g| {
            let prefix: Vec<u64> = g.vec_u64(1, 80, 0, 64);
            let suffix: Vec<u64> = g.vec_u64(1, 80, 0, 64);
            let mut original = lru_cache(geom);
            for &a in &prefix {
                original.access(Address::new(a * 64), AccessKind::Read);
            }
            assert!(original.supports_snapshot());
            let snap = original.snapshot().expect("LRU snapshots");

            // Mutate the live cache: the capture must be deep.
            for &a in &suffix {
                original.access(Address::new(a * 64 + 7), AccessKind::Write);
            }

            let mut restored = lru_cache(geom);
            restored.restore(&snap).expect("restore onto same scheme");
            let mut cold = lru_cache(geom);
            for &a in &prefix {
                cold.access(Address::new(a * 64), AccessKind::Read);
            }
            cold.reset_stats();
            for &a in &suffix {
                let addr = Address::new(a * 64);
                assert_eq!(
                    restored.access(addr, AccessKind::Read),
                    cold.access(addr, AccessKind::Read),
                    "restored run diverged from cold"
                );
            }
            assert_eq!(*restored.stats(), *cold.stats());
        });
    }

    /// Restore refuses the wrong scheme or geometry and leaves the target
    /// untouched.
    #[test]
    fn restore_guards_scheme_and_geometry() {
        let geom = small();
        let mut src = lru_cache(geom);
        src.access(Address::new(0), AccessKind::Read);
        let snap = src.snapshot().expect("LRU snapshots");

        let mut wrong_scheme = SetAssocCache::new(geom, Bip::new(geom));
        assert!(wrong_scheme.restore(&snap).is_err());
        assert_eq!(wrong_scheme.stats().accesses(), 0, "untouched on error");

        let other = CacheGeometry::new(4, 4, 64).unwrap();
        let mut wrong_geom = lru_cache(other);
        assert!(wrong_geom.restore(&snap).is_err());
        assert_eq!(wrong_geom.stats().accesses(), 0, "untouched on error");

        let mut right = lru_cache(geom);
        right.restore(&snap).expect("matching target restores");
        assert_eq!(right.stats().accesses(), 0, "snapshots carry zeroed stats");
        assert!(resident(&right, Address::new(0)));
    }

    /// An infinite-capacity-equivalent cache (more ways than distinct
    /// lines) never evicts: every line misses exactly once.
    #[test]
    fn no_capacity_misses_when_everything_fits() {
        prop::check(128, |g| {
            let addrs = g.vec_u64(1, 200, 0, 16);
            let geom = CacheGeometry::new(1, 16, 64).unwrap();
            let mut c = lru_cache(geom);
            for &a in &addrs {
                c.access(Address::new(a * 64), AccessKind::Read);
            }
            let distinct: std::collections::HashSet<_> = addrs.iter().collect();
            assert_eq!(c.stats().misses(), distinct.len() as u64);
            assert_eq!(c.stats().evictions(), 0);
        });
    }
}
