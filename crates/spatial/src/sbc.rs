//! The dynamic Set Balancing Cache (Rolán et al., MICRO'09).
//!
//! SBC measures each set's *saturation level* — "the difference between the
//! miss and hit counts at the set level" (§2.2) — and pairs a highly
//! saturated *source* set with a lowly saturated *destination* set chosen by
//! the Destination Set Selector. While associated, the source places its
//! victim blocks in the destination with MRU insertion, and lookups that
//! miss in the source probe the destination.
//!
//! Two behaviours the STEM paper criticises are reproduced faithfully here
//! because they are exactly what STEM's §4.6 receive constraint improves on:
//!
//! * "receiving … is not dependent on the giver set's saturating level as
//!   long as the two sets are coupled", so a source can pollute its
//!   destination;
//! * disassociation happens only when the destination has evicted every
//!   cooperatively cached block (§4.7).

use stem_replacement::RecencyStack;
use stem_sim_core::{
    AccessKind, AccessResult, Address, AuditError, CacheGeometry, CacheModel, CacheStats,
    DecodedTrace, InvariantAuditor, LineAddr, SetFrames, SimError,
};

use crate::{AssociationTable, DestinationSetSelector};

/// Tuning parameters for [`SbcCache`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SbcConfig {
    /// Capacity of the Destination Set Selector.
    pub dss_capacity: usize,
    /// The saturation counter clamps at `sat_max_factor × ways`.
    pub sat_max_factor: u32,
    /// Random seed (SBC itself is deterministic; kept for config parity).
    pub seed: u64,
}

impl Default for SbcConfig {
    fn default() -> Self {
        SbcConfig {
            dss_capacity: 16,
            sat_max_factor: 2,
            seed: 0x5BC0_5BC0,
        }
    }
}

/// The dynamic Set Balancing Cache.
///
/// # Examples
///
/// ```
/// use stem_spatial::{SbcCache, SbcConfig};
/// use stem_sim_core::{CacheGeometry, CacheModel};
///
/// # fn main() -> Result<(), stem_sim_core::GeometryError> {
/// let geom = CacheGeometry::new(128, 8, 64)?;
/// let sbc = SbcCache::with_config(geom, SbcConfig::default());
/// assert_eq!(sbc.name(), "SBC");
/// # Ok(())
/// # }
/// ```
#[derive(Clone)]
pub struct SbcCache {
    geom: CacheGeometry,
    cfg: SbcConfig,
    /// Flat tag store; the tag word is the full line address
    /// ([`LineAddr::raw`]) and the flag bit marks *foreign* blocks.
    frames: SetFrames,
    ranks: Vec<RecencyStack>,
    /// Saturation level per set, clamped to `[0, sat_max]`.
    sat: Vec<u32>,
    sat_max: u32,
    assoc: AssociationTable,
    /// `true` when the set is the *source* (spilling side) of its pair.
    is_source: Vec<bool>,
    /// Foreign (cooperatively cached) blocks held per destination set.
    foreign_count: Vec<u32>,
    dss: DestinationSetSelector,
    stats: CacheStats,
}

impl SbcCache {
    /// Creates an SBC cache with default parameters.
    pub fn new(geom: CacheGeometry) -> Self {
        SbcCache::with_config(geom, SbcConfig::default())
    }

    /// Creates an SBC cache with explicit parameters.
    ///
    /// # Panics
    ///
    /// Panics on an invalid configuration; use
    /// [`try_with_config`](SbcCache::try_with_config) for a fallible
    /// variant.
    pub fn with_config(geom: CacheGeometry, cfg: SbcConfig) -> Self {
        match SbcCache::try_with_config(geom, cfg) {
            Ok(c) => c,
            Err(e) => panic!("{e}"),
        }
    }

    /// Creates an SBC cache with explicit parameters, rejecting invalid
    /// ones with a typed error.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::Config`] if the Destination Set Selector has no
    /// capacity or the saturation clamp factor is zero (either would make
    /// coupling impossible or panic downstream).
    pub fn try_with_config(geom: CacheGeometry, cfg: SbcConfig) -> Result<Self, SimError> {
        if cfg.dss_capacity == 0 {
            return Err(SimError::config("SBC", "DSS capacity must be at least 1"));
        }
        if cfg.sat_max_factor == 0 {
            return Err(SimError::config(
                "SBC",
                "saturation clamp factor must be at least 1",
            ));
        }
        let sat_max = cfg.sat_max_factor * geom.ways() as u32;
        Ok(SbcCache {
            geom,
            cfg,
            frames: SetFrames::new(geom.sets(), geom.ways()),
            ranks: vec![RecencyStack::new(geom.ways()); geom.sets()],
            sat: vec![0; geom.sets()],
            sat_max,
            assoc: AssociationTable::new(geom.sets()),
            is_source: vec![false; geom.sets()],
            foreign_count: vec![0; geom.sets()],
            dss: DestinationSetSelector::new(cfg.dss_capacity),
            stats: CacheStats::default(),
        })
    }

    /// Current saturation level of `set` (analysis hook).
    pub fn saturation(&self, set: usize) -> u32 {
        self.sat[set]
    }

    /// The association table (analysis hook).
    pub fn associations(&self) -> &AssociationTable {
        &self.assoc
    }

    /// Number of foreign blocks currently cached in `set`.
    pub fn foreign_blocks(&self, set: usize) -> u32 {
        self.foreign_count[set]
    }

    /// Whether `set` is the source side of a pair.
    pub fn is_source(&self, set: usize) -> bool {
        self.is_source[set]
    }

    fn sat_inc(&mut self, set: usize) {
        self.sat[set] = (self.sat[set] + 1).min(self.sat_max);
        // A destination that saturates on its own traffic can no longer
        // help its source: dissolve the pair (evicting the remaining
        // foreign blocks) so both sets can seek better matches. This is
        // the natural reading of SBC's re-association behaviour; without
        // it a polluted destination stays locked to its source forever.
        if self.sat[set] == self.sat_max && self.assoc.is_coupled(set) && !self.is_source[set] {
            self.force_decouple(set);
        }
    }

    /// Evicts every foreign block of `dest` and dissolves its pair.
    fn force_decouple(&mut self, dest: usize) {
        let ways = self.geom.ways();
        for way in 0..ways {
            if self.frames.is_flagged(dest, way) {
                self.evict_off_chip(dest, way, false);
            }
        }
        if let Some(p) = self.assoc.partner(dest) {
            self.is_source[p] = false;
            self.is_source[dest] = false;
            self.assoc.decouple(dest);
            self.stats.record_decoupling();
        }
    }

    fn sat_dec(&mut self, set: usize) {
        self.sat[set] = self.sat[set].saturating_sub(1);
        // A set that proves unsaturated becomes a destination candidate.
        if self.sat[set] < self.sat_max / 2 && !self.assoc.is_coupled(set) {
            self.dss.post(set, self.sat[set]);
        }
    }

    #[inline]
    fn find_way(&self, set: usize, line: LineAddr) -> Option<usize> {
        self.frames.find(set, line.raw())
    }

    /// Evicts the block in `(set, way)` off-chip, maintaining the foreign
    /// count and triggering disassociation when a destination drains.
    ///
    /// `allow_decouple` is `false` while making room for an incoming spill:
    /// the arriving foreign block immediately refills the drain, so the
    /// §4.7 disassociation must not fire in between.
    fn evict_off_chip(&mut self, set: usize, way: usize, allow_decouple: bool) {
        let old = self.frames.take(set, way).expect("eviction of invalid way");
        self.stats.record_eviction();
        if old.dirty {
            self.stats.record_writeback();
        }
        if old.flag {
            self.foreign_count[set] -= 1;
            if allow_decouple && self.foreign_count[set] == 0 {
                // §4.7: the destination evicted its last cooperative block,
                // so the pair disassociates.
                if let Some(p) = self.assoc.partner(set) {
                    self.is_source[p] = false;
                    self.is_source[set] = false;
                    self.assoc.decouple(set);
                    self.stats.record_decoupling();
                }
            }
        }
    }

    /// Inserts a foreign victim into destination set `dest` with MRU
    /// insertion, unconditionally (SBC has no receive constraint).
    fn receive(&mut self, dest: usize, line: LineAddr, dirty: bool) {
        let way = match self.frames.first_free(dest) {
            Some(w) => w,
            None => {
                let victim = self.ranks[dest].lru_way();
                self.evict_off_chip(dest, victim, false);
                victim
            }
        };
        self.frames.fill(dest, way, line.raw(), dirty, true);
        self.ranks[dest].touch_mru(way);
        self.foreign_count[dest] += 1;
        self.stats.record_receive();
    }

    /// Handles the victim of a fill into source set `set`: spill to the
    /// destination while associated as a source, otherwise evict off-chip.
    fn dispose_victim(&mut self, set: usize, way: usize) {
        if self.frames.is_flagged(set, way) {
            // A foreign block evicted from a destination leaves the chip.
            self.evict_off_chip(set, way, true);
            return;
        }
        match self.assoc.partner(set) {
            Some(dest) if self.is_source[set] => {
                let victim = self
                    .frames
                    .take(set, way)
                    .expect("victim way must be valid");
                self.stats.record_spill();
                self.receive(dest, LineAddr::new(victim.tag), victim.dirty);
            }
            _ => self.evict_off_chip(set, way, true),
        }
    }

    /// Attempts to couple saturated source `set` with a destination from
    /// the selector.
    fn try_couple(&mut self, set: usize) {
        if self.assoc.is_coupled(set) || self.sat[set] < self.sat_max {
            return;
        }
        self.dss.remove(set);
        // Pop candidates until a valid one surfaces (entries may be stale:
        // since posted, a candidate may have coupled or saturated).
        while let Some(cand) = self.dss.pop_least() {
            if cand != set && !self.assoc.is_coupled(cand) && self.sat[cand] < self.sat_max / 2 {
                self.assoc.couple(set, cand);
                self.is_source[set] = true;
                self.is_source[cand] = false;
                self.stats.record_coupling();
                return;
            }
        }
    }

    /// The single lookup/balancing path behind both access entry points:
    /// the line address and its home set are already extracted.
    #[inline]
    fn access_at(&mut self, line: LineAddr, home: usize, write: bool) -> AccessResult {
        // Probe the home set (foreign entries there can never match a
        // home-set address, so this finds native blocks only).
        if let Some(way) = self.find_way(home, line) {
            self.stats.record_local_hit();
            self.ranks[home].touch_mru(way);
            if write {
                self.frames.mark_dirty(home, way);
            }
            self.sat_dec(home);
            return AccessResult::HitLocal;
        }

        // Miss in the home set: a coupled source probes its destination.
        let partner = self.assoc.partner(home).filter(|_| self.is_source[home]);
        if let Some(dest) = partner {
            if let Some(way) = self.find_way(dest, line) {
                self.stats.record_coop_hit();
                self.ranks[dest].touch_mru(way);
                if write {
                    self.frames.mark_dirty(dest, way);
                }
                self.sat_dec(home);
                return AccessResult::HitCooperative;
            }
        }

        // Full miss.
        if partner.is_some() {
            self.stats.record_coop_miss();
        } else {
            self.stats.record_local_miss();
        }
        self.sat_inc(home);
        self.try_couple(home);

        let way = match self.frames.first_free(home) {
            Some(w) => w,
            None => {
                let victim = self.ranks[home].lru_way();
                self.dispose_victim(home, victim);
                victim
            }
        };
        self.frames.fill(home, way, line.raw(), write, false);
        self.ranks[home].touch_mru(way);

        if partner.is_some() {
            AccessResult::MissCooperative
        } else {
            AccessResult::MissLocal
        }
    }
}

impl CacheModel for SbcCache {
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
        "SBC"
    }

    /// NOT sampling-safe: the association table couples *dynamically
    /// chosen* set pairs, and the DSS candidate search ranges over *all*
    /// decoupled sets when picking an association partner, so removing
    /// sets changes which pairings exist at all — a sampled SBC couples
    /// different sets than the full cache, not the same sets in a
    /// different order. Explicit refusal (for contrast with the static
    /// variant, which is safe).
    fn supports_set_sampling(&self) -> bool {
        false
    }
}

impl InvariantAuditor for SbcCache {
    /// Checks SBC's cooperative-caching bookkeeping: association-table
    /// symmetry, per-pair source/destination roles, foreign-block counts,
    /// saturation-counter bounds, recency-stack permutations, and per-set
    /// tag uniqueness.
    fn audit(&self) -> Result<(), AuditError> {
        if !self.assoc.is_consistent() {
            return Err(AuditError::new("SBC", "association table is not symmetric"));
        }
        for s in 0..self.geom.sets() {
            if self.sat[s] > self.sat_max {
                return Err(AuditError::new(
                    "SBC",
                    format!(
                        "saturation {} of set {s} exceeds clamp {}",
                        self.sat[s], self.sat_max
                    ),
                ));
            }
            if !self.ranks[s].is_permutation() {
                return Err(AuditError::new(
                    "SBC",
                    format!("recency stack of set {s} is not a permutation"),
                ));
            }
            let mut seen = std::collections::HashSet::new();
            for way in self.frames.valid_ways(s) {
                let tag = self.frames.tag(s, way).expect("valid way has a tag");
                if !seen.insert(tag) {
                    return Err(AuditError::new(
                        "SBC",
                        format!("duplicate line {tag:#x} in set {s}"),
                    ));
                }
            }
            let foreign = self.frames.flagged_count(s) as u32;
            if foreign != self.foreign_count[s] {
                return Err(AuditError::new(
                    "SBC",
                    format!(
                        "set {s} holds {foreign} foreign blocks but the counter says {}",
                        self.foreign_count[s]
                    ),
                ));
            }
            if foreign > 0 && (!self.assoc.is_coupled(s) || self.is_source[s]) {
                return Err(AuditError::new(
                    "SBC",
                    format!("set {s} holds foreign blocks but is not a coupled destination"),
                ));
            }
            if self.is_source[s] && !self.assoc.is_coupled(s) {
                return Err(AuditError::new(
                    "SBC",
                    format!("set {s} is marked source but is not coupled"),
                ));
            }
            if let Some(p) = self.assoc.partner(s) {
                if self.is_source[s] == self.is_source[p] {
                    return Err(AuditError::new(
                        "SBC",
                        format!("pair ({s},{p}) must have exactly one source"),
                    ));
                }
            }
        }
        Ok(())
    }
}

impl std::fmt::Debug for SbcCache {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SbcCache")
            .field("geom", &self.geom)
            .field("cfg", &self.cfg)
            .field("stats", &self.stats)
            .field("coupled_pairs", &self.assoc.coupled_pairs())
            .finish_non_exhaustive()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use stem_sim_core::{prop, Access, DecodedTrace};

    /// A trace that thrashes set 0 (cycle of `2 * ways` blocks) while
    /// leaving set 1 idle after a warm single block — the paper's Example
    /// #1 shape.
    fn example1_trace(geom: CacheGeometry, rounds: usize) -> DecodedTrace {
        let ways = geom.ways() as u64;
        let mut t = DecodedTrace::with_capacity(geom, 0);
        for _ in 0..rounds {
            for tag in 0..(ways + ways / 2) {
                t.push(Access::read(geom.address_of(tag, 0)));
                t.push(Access::read(geom.address_of(tag % 2, 1)));
            }
        }
        t
    }

    #[test]
    fn sbc_couples_thrashed_set_with_idle_set() {
        let geom = CacheGeometry::new(4, 4, 64).unwrap();
        let mut sbc = SbcCache::new(geom);
        sbc.run_decoded(&example1_trace(geom, 100));
        assert!(sbc.stats().couplings() > 0, "SBC never coupled");
        assert!(sbc.stats().spills() > 0, "SBC never spilled");
        assert!(
            sbc.stats().coop_hits() > 0,
            "SBC never hit in a destination set"
        );
    }

    #[test]
    fn sbc_beats_lru_on_complementary_demands() {
        use stem_replacement::{Lru, SetAssocCache};
        let geom = CacheGeometry::new(4, 4, 64).unwrap();
        let trace = example1_trace(geom, 200);
        let mut sbc = SbcCache::new(geom);
        sbc.run_decoded(&trace);
        let mut lru = SetAssocCache::new(geom, Box::new(Lru::new(geom)));
        lru.run_decoded(&trace);
        assert!(
            sbc.stats().misses() < lru.stats().misses(),
            "SBC ({}) should beat LRU ({}) when demands are complementary",
            sbc.stats().misses(),
            lru.stats().misses()
        );
    }

    #[test]
    fn saturation_tracks_miss_hit_difference() {
        let geom = CacheGeometry::new(4, 2, 64).unwrap();
        let mut sbc = SbcCache::new(geom);
        // 3 distinct blocks cycling in 2 ways: all misses.
        for round in 0..4 {
            for tag in 0..3u64 {
                let _ = round;
                sbc.access(geom.address_of(tag, 0), AccessKind::Read);
            }
        }
        assert!(sbc.saturation(0) > 0);
        assert_eq!(sbc.saturation(1), 0);
    }

    #[test]
    fn foreign_blocks_counted_and_drained() {
        let geom = CacheGeometry::new(4, 2, 64).unwrap();
        let mut sbc = SbcCache::new(geom);
        sbc.run_decoded(&example1_trace(geom, 300));
        // Consistency: every foreign count matches the actual lines.
        for s in 0..geom.sets() {
            let actual = sbc.frames.flagged_count(s) as u32;
            assert_eq!(actual, sbc.foreign_blocks(s), "set {s} foreign count");
        }
    }

    #[test]
    fn no_cooperation_when_all_sets_saturated() {
        // Example #3 of Fig. 2: every set thrashes, so SBC finds no
        // destination and behaves like LRU.
        let geom = CacheGeometry::new(2, 2, 64).unwrap();
        let mut sbc = SbcCache::new(geom);
        let mut t = DecodedTrace::with_capacity(geom, 0);
        for _ in 0..200 {
            for tag in 0..4u64 {
                t.push(Access::read(geom.address_of(tag, 0)));
                t.push(Access::read(geom.address_of(tag, 1)));
            }
        }
        sbc.run_decoded(&t);
        assert_eq!(sbc.stats().coop_hits(), 0);
        assert_eq!(sbc.stats().hits(), 0, "both sets must thrash");
    }

    #[test]
    fn invalid_configs_are_rejected_with_typed_errors() {
        let geom = CacheGeometry::new(4, 2, 64).unwrap();
        for cfg in [
            SbcConfig {
                dss_capacity: 0,
                ..SbcConfig::default()
            },
            SbcConfig {
                sat_max_factor: 0,
                ..SbcConfig::default()
            },
        ] {
            let err = SbcCache::try_with_config(geom, cfg).expect_err("must reject");
            assert!(
                matches!(err, SimError::Config { scheme: "SBC", .. }),
                "{err}"
            );
        }
    }

    /// Association symmetry and foreign-count consistency hold under
    /// random access streams (the full auditor runs at the end of each
    /// case).
    #[test]
    fn invariants_under_random_traffic() {
        prop::check(96, |g| {
            let geom = CacheGeometry::new(4, 2, 64).unwrap();
            let mut sbc = SbcCache::new(geom);
            for _ in 0..g.usize(1, 600) {
                let tag = g.u64(0, 24);
                let set = g.usize(0, 4);
                sbc.access(geom.address_of(tag, set), AccessKind::Read);
            }
            sbc.audit()
                .expect("SBC invariants hold under random traffic");
        });
    }

    /// SBC accounting: hits + misses == accesses.
    #[test]
    fn stats_balance() {
        prop::check(96, |g| {
            let geom = CacheGeometry::new(2, 2, 64).unwrap();
            let mut sbc = SbcCache::new(geom);
            for i in 0..g.usize(1, 300) {
                let tag = g.u64(0, 32);
                sbc.access(geom.address_of(tag, (tag % 2) as usize), AccessKind::Read);
                assert_eq!(sbc.stats().accesses(), (i + 1) as u64);
            }
        });
    }
}
