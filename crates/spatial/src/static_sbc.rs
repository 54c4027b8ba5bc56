//! Static Set Balancing Cache: the simpler variant of Rolán et al., where
//! pairs are fixed at design time by *index complement* instead of being
//! chosen dynamically by saturation levels.
//!
//! Set `s` is permanently married to set `s XOR (sets/2)` (complementing
//! the top index bit). When one side of a marriage is saturated and the
//! other is not, the saturated side spills victims into its partner. The
//! STEM paper evaluates only the dynamic variant; the static one is
//! included here as the natural ablation between "no spatial management"
//! and the full DSS machinery.

use stem_replacement::RecencyStack;
use stem_sim_core::{
    AccessKind, AccessResult, Address, AuditError, CacheGeometry, CacheModel, CacheStats,
    DecodedTrace, InvariantAuditor, LineAddr, SetFrames, SimError,
};

/// The static Set Balancing Cache.
///
/// # Examples
///
/// ```
/// use stem_spatial::StaticSbcCache;
/// use stem_sim_core::{CacheGeometry, CacheModel};
///
/// # fn main() -> Result<(), stem_sim_core::GeometryError> {
/// let geom = CacheGeometry::new(64, 4, 64)?;
/// let cache = StaticSbcCache::new(geom);
/// assert_eq!(cache.name(), "SBC-static");
/// # Ok(())
/// # }
/// ```
#[derive(Clone)]
pub struct StaticSbcCache {
    geom: CacheGeometry,
    /// Flat tag store; the tag word is the full line address and the flag
    /// bit marks *foreign* blocks.
    frames: SetFrames,
    ranks: Vec<RecencyStack>,
    /// Saturation level per set (misses − hits, clamped).
    sat: Vec<u32>,
    sat_max: u32,
    stats: CacheStats,
}

impl StaticSbcCache {
    /// Creates a static SBC with the standard `2 × ways` saturation bound.
    ///
    /// # Panics
    ///
    /// Panics if the cache has fewer than 2 sets (no partner exists).
    pub fn new(geom: CacheGeometry) -> Self {
        match Self::try_new(geom) {
            Ok(c) => c,
            Err(e) => panic!("static SBC needs at least two sets: {e}"),
        }
    }

    /// Fallible constructor: rejects geometries with fewer than 2 sets
    /// (no design-time partner exists) with a typed error.
    pub fn try_new(geom: CacheGeometry) -> Result<Self, SimError> {
        if geom.sets() < 2 {
            return Err(SimError::config(
                "SBC-static",
                format!("needs at least two sets, got {}", geom.sets()),
            ));
        }
        Ok(StaticSbcCache {
            geom,
            frames: SetFrames::new(geom.sets(), geom.ways()),
            ranks: vec![RecencyStack::new(geom.ways()); geom.sets()],
            sat: vec![0; geom.sets()],
            sat_max: 2 * geom.ways() as u32,
            stats: CacheStats::default(),
        })
    }

    /// The design-time partner of `set`: complement of the top index bit.
    pub fn partner_of(&self, set: usize) -> usize {
        set ^ (self.geom.sets() / 2)
    }

    /// Current saturation level of `set` (analysis hook).
    pub fn saturation(&self, set: usize) -> u32 {
        self.sat[set]
    }

    #[inline]
    fn find_way(&self, set: usize, line: LineAddr) -> Option<usize> {
        self.frames.find(set, line.raw())
    }

    /// Whether `set` currently spills: it must be saturated while its
    /// partner is comfortably unsaturated.
    fn spills(&self, set: usize) -> bool {
        let p = self.partner_of(set);
        self.sat[set] == self.sat_max && self.sat[p] < self.sat_max / 2
    }

    fn evict_off_chip(&mut self, set: usize, way: usize) {
        let old = self.frames.take(set, way).expect("eviction of invalid way");
        self.stats.record_eviction();
        if old.dirty {
            self.stats.record_writeback();
        }
    }

    /// The single lookup/spill path behind both access entry points: the
    /// line address and its home set are already extracted.
    #[inline]
    fn access_at(&mut self, line: LineAddr, home: usize, write: bool) -> AccessResult {
        let partner = self.partner_of(home);

        if let Some(way) = self.find_way(home, line) {
            self.stats.record_local_hit();
            self.ranks[home].touch_mru(way);
            if write {
                self.frames.mark_dirty(home, way);
            }
            self.sat[home] = self.sat[home].saturating_sub(1);
            return AccessResult::HitLocal;
        }

        // A spilling set probes its partner for displaced blocks.
        let probes_partner = self.spills(home);
        if probes_partner {
            if let Some(way) = self.find_way(partner, line) {
                self.stats.record_coop_hit();
                self.ranks[partner].touch_mru(way);
                if write {
                    self.frames.mark_dirty(partner, way);
                }
                self.sat[home] = self.sat[home].saturating_sub(1);
                return AccessResult::HitCooperative;
            }
        }

        if probes_partner {
            self.stats.record_coop_miss();
        } else {
            self.stats.record_local_miss();
        }
        self.sat[home] = (self.sat[home] + 1).min(self.sat_max);

        let way = match self.frames.first_free(home) {
            Some(w) => w,
            None => {
                let victim_way = self.ranks[home].lru_way();
                let victim_foreign = self.frames.is_flagged(home, victim_way);
                if !victim_foreign && self.spills(home) {
                    // Spill into the partner, MRU-inserted.
                    let victim = self
                        .frames
                        .take(home, victim_way)
                        .expect("victim way valid");
                    self.stats.record_spill();
                    let pway = match self.frames.first_free(partner) {
                        Some(w) => w,
                        None => {
                            let pv = self.ranks[partner].lru_way();
                            self.evict_off_chip(partner, pv);
                            pv
                        }
                    };
                    self.frames
                        .fill(partner, pway, victim.tag, victim.dirty, true);
                    self.ranks[partner].touch_mru(pway);
                    self.stats.record_receive();
                } else {
                    self.evict_off_chip(home, victim_way);
                }
                victim_way
            }
        };
        self.frames.fill(home, way, line.raw(), write, false);
        self.ranks[home].touch_mru(way);
        if probes_partner {
            AccessResult::MissCooperative
        } else {
            AccessResult::MissLocal
        }
    }
}

impl CacheModel for StaticSbcCache {
    fn access(&mut self, addr: Address, kind: AccessKind) -> AccessResult {
        let line = addr.line(self.geom.line_bytes());
        let home = self.geom.set_index_of_line(line);
        self.access_at(line, home, kind.is_write())
    }

    /// Monomorphic replay loop: streams the line column straight into
    /// `access_at` with static dispatch, deriving each set under this
    /// cache's own geometry, instead of one virtual `access` call per
    /// access through the trait default.
    fn replay_decoded(&mut self, trace: &DecodedTrace, range: std::ops::Range<usize>) {
        let lines = &trace.lines_for(self.geom)[range.clone()];
        for (i, &line) in range.zip(lines) {
            let line = LineAddr::new(line);
            let set = self.geom.set_index_of_line(line);
            self.access_at(line, set, trace.is_write(i));
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
        "SBC-static"
    }

    /// Sampling-safe under the pair-domain fold: every piece of state —
    /// saturation levels, spill decisions, partner probes and remote fills —
    /// lives inside the static partner pair `(s, s ^ sets/2)`, and
    /// [`SampledTrace`](stem_sim_core::SampledTrace) keeps or drops both
    /// partners together.
    fn supports_set_sampling(&self) -> bool {
        true
    }
}

impl InvariantAuditor for StaticSbcCache {
    fn audit(&self) -> Result<(), AuditError> {
        let err = |detail: String| Err(AuditError::new("SBC-static", detail));
        for set in 0..self.geom.sets() {
            if self.frames.valid_count(set) > self.geom.ways() {
                return err(format!(
                    "set {set} holds {} valid lines, geometry says {}",
                    self.frames.valid_count(set),
                    self.geom.ways()
                ));
            }
            if !self.ranks[set].is_permutation() {
                return err(format!("recency stack of set {set} is not a permutation"));
            }
            if self.sat[set] > self.sat_max {
                return err(format!(
                    "saturation level {} of set {set} exceeds bound {}",
                    self.sat[set], self.sat_max
                ));
            }
            let mut seen = std::collections::HashSet::new();
            for way in self.frames.valid_ways(set) {
                let tag = self.frames.tag(set, way).expect("valid way has a tag");
                if !seen.insert(tag) {
                    return err(format!("duplicate line {tag:#x} in set {set}"));
                }
                let line = LineAddr::new(tag);
                let foreign = self.frames.is_flagged(set, way);
                let home = self.geom.set_index_of_line(line);
                if foreign && home == set {
                    return err(format!(
                        "line {line:?} in its home set {set} is marked foreign"
                    ));
                }
                if !foreign && home != set {
                    return err(format!(
                        "native-marked line {line:?} sits in set {set} but maps to set {home}"
                    ));
                }
                if foreign && self.partner_of(home) != set {
                    return err(format!(
                        "foreign line {line:?} sits in set {set}, not its home's partner {}",
                        self.partner_of(home)
                    ));
                }
            }
        }
        // Note: a foreign copy may coexist with a freshly re-installed
        // native copy (the home set only probes its partner while it is
        // spilling), so cross-pair uniqueness is deliberately NOT an
        // invariant of this model.
        Ok(())
    }
}

impl std::fmt::Debug for StaticSbcCache {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("StaticSbcCache")
            .field("geom", &self.geom)
            .field("stats", &self.stats)
            .finish_non_exhaustive()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use stem_sim_core::{Access, DecodedTrace};

    #[test]
    fn partner_is_top_bit_complement() {
        let geom = CacheGeometry::new(8, 2, 64).unwrap();
        let c = StaticSbcCache::new(geom);
        assert_eq!(c.partner_of(0), 4);
        assert_eq!(c.partner_of(4), 0);
        assert_eq!(c.partner_of(3), 7);
    }

    #[test]
    fn spilling_helps_complementary_pair() {
        use stem_replacement::{Lru, SetAssocCache};
        let geom = CacheGeometry::new(4, 4, 64).unwrap();
        // Set 0 cycles 6 blocks; its partner (set 2) idles on one block.
        let mut trace = DecodedTrace::with_capacity(geom, 0);
        for round in 0..400u64 {
            trace.push(Access::read(geom.address_of(round % 6, 0)));
            trace.push(Access::read(geom.address_of(0, 2)));
        }
        let mut sbc = StaticSbcCache::new(geom);
        sbc.run_decoded(&trace);
        let mut lru = SetAssocCache::new(geom, Box::new(Lru::new(geom)));
        lru.run_decoded(&trace);
        assert!(sbc.stats().spills() > 0);
        assert!(
            sbc.stats().misses() < lru.stats().misses(),
            "static pairing should help: {} vs {}",
            sbc.stats().misses(),
            lru.stats().misses()
        );
    }

    #[test]
    fn no_spilling_when_partner_also_saturated() {
        let geom = CacheGeometry::new(4, 2, 64).unwrap();
        let mut sbc = StaticSbcCache::new(geom);
        // Both partners (0 and 2) thrash.
        for round in 0..300u64 {
            sbc.access(geom.address_of(round % 4, 0), AccessKind::Read);
            sbc.access(geom.address_of(round % 4, 2), AccessKind::Read);
        }
        assert_eq!(sbc.stats().spills(), 0);
        assert_eq!(sbc.stats().coop_hits(), 0);
    }

    #[test]
    fn rehit_after_access() {
        let geom = CacheGeometry::new(4, 2, 64).unwrap();
        let mut sbc = StaticSbcCache::new(geom);
        for t in 0..50u64 {
            let a = geom.address_of(t / 4, (t % 4) as usize);
            sbc.access(a, AccessKind::Read);
            assert!(sbc.access(a, AccessKind::Read).is_hit());
        }
    }

    #[test]
    #[should_panic(expected = "at least two sets")]
    fn single_set_panics() {
        let geom = CacheGeometry::new(1, 2, 64).unwrap();
        let _ = StaticSbcCache::new(geom);
    }
}
