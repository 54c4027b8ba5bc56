//! The STEM LLC cache controller (§4).

use stem_replacement::RecencyStack;
use stem_sim_core::{
    AccessResult, AuditError, CacheGeometry, CacheModel, CacheStats, DecodedTrace,
    InvariantAuditor, LineAddr, SetFrames, SimError, SplitMix64,
};
use stem_spatial::{AssociationTable, DestinationSetSelector};

use crate::{PolicyKind, SetMonitor, StemConfig, TagHasher};

/// The STEM last-level cache.
///
/// Architecture (Fig. 4): a decoupled tag/data store whose tag entries
/// carry a CC bit, a per-set Set-level Capacity Demand Monitor
/// ([`SetMonitor`]: shadow set + SC_S + SC_T), an [`AssociationTable`]
/// pairing takers with givers, and a giver heap
/// ([`DestinationSetSelector`]). See the crate docs for the management
/// policy summary and `DESIGN.md` §3.3 for the full operational semantics.
///
/// # Examples
///
/// ```
/// use stem_llc::{StemCache, StemConfig};
/// use stem_sim_core::{CacheGeometry, CacheModel};
///
/// # fn main() -> Result<(), stem_sim_core::GeometryError> {
/// let geom = CacheGeometry::micro2010_l2();
/// let stem = StemCache::with_config(geom, StemConfig::micro2010());
/// assert_eq!(stem.name(), "STEM");
/// # Ok(())
/// # }
/// ```
#[derive(Clone)]
pub struct StemCache {
    geom: CacheGeometry,
    cfg: StemConfig,
    /// Flat tag store; the tag word is the full line address and the flag
    /// bit is the CC bit of Fig. 4 (`true` when the block is cooperatively
    /// cached, i.e. its home is the coupled taker set).
    frames: SetFrames,
    ranks: Vec<RecencyStack>,
    /// Current replacement policy of each LLC set; the shadow set always
    /// runs the opposite.
    set_policy: Vec<PolicyKind>,
    monitors: Vec<SetMonitor>,
    assoc: AssociationTable,
    /// `true` when the set is the taker (spilling) side of its pair.
    is_taker: Vec<bool>,
    /// Cooperatively cached (CC = 1) blocks held per giver set.
    cc_count: Vec<u32>,
    heap: DestinationSetSelector,
    hasher: TagHasher,
    rng: SplitMix64,
    stats: CacheStats,
}

impl StemCache {
    /// Creates a STEM cache with the paper's Table 3 parameters.
    pub fn new(geom: CacheGeometry) -> Self {
        StemCache::with_config(geom, StemConfig::micro2010())
    }

    /// Creates a STEM cache with explicit parameters.
    ///
    /// # Panics
    ///
    /// Panics if the configuration is invalid; use
    /// [`try_with_config`](Self::try_with_config) for a typed error.
    pub fn with_config(geom: CacheGeometry, cfg: StemConfig) -> Self {
        match Self::try_with_config(geom, cfg) {
            Ok(c) => c,
            Err(e) => panic!("invalid STEM configuration: {e}"),
        }
    }

    /// Fallible constructor: validates every [`StemConfig`] knob against
    /// the ranges the hardware structures can represent.
    pub fn try_with_config(geom: CacheGeometry, cfg: StemConfig) -> Result<Self, SimError> {
        cfg.validate()?;
        Ok(StemCache {
            geom,
            cfg,
            frames: SetFrames::new(geom.sets(), geom.ways()),
            ranks: vec![RecencyStack::new(geom.ways()); geom.sets()],
            set_policy: vec![PolicyKind::Lru; geom.sets()],
            monitors: (0..geom.sets())
                .map(|_| SetMonitor::new(geom.ways(), cfg.counter_bits, cfg.spatial_ratio_log2))
                .collect(),
            assoc: AssociationTable::new(geom.sets()),
            is_taker: vec![false; geom.sets()],
            cc_count: vec![0; geom.sets()],
            heap: DestinationSetSelector::new(cfg.heap_capacity),
            hasher: TagHasher::new(cfg.shadow_tag_bits, cfg.seed ^ 0x4343),
            rng: SplitMix64::new(cfg.seed),
            stats: CacheStats::default(),
        })
    }

    /// The configuration in use.
    pub fn config(&self) -> &StemConfig {
        &self.cfg
    }

    /// The current replacement policy of `set` (analysis hook).
    pub fn policy_of(&self, set: usize) -> PolicyKind {
        self.set_policy[set]
    }

    /// The monitor of `set` (analysis hook).
    pub fn monitor(&self, set: usize) -> &SetMonitor {
        &self.monitors[set]
    }

    /// The association table (analysis hook).
    pub fn associations(&self) -> &AssociationTable {
        &self.assoc
    }

    /// Number of CC (cooperatively cached) blocks held in `set`.
    pub fn cc_blocks(&self, set: usize) -> u32 {
        self.cc_count[set]
    }

    /// Whether `set` is the taker side of a pair.
    pub fn is_taker(&self, set: usize) -> bool {
        self.is_taker[set]
    }

    #[inline]
    fn find_way(&self, set: usize, line: LineAddr) -> Option<usize> {
        self.frames.find(set, line.raw())
    }

    fn sig_of(&self, line: LineAddr) -> u16 {
        self.hasher.hash(self.geom.tag_of_line(line))
    }

    /// Re-ranks `way` as a fresh insertion under `set`'s current policy.
    fn insert_rank(&mut self, set: usize, way: usize) {
        match self.set_policy[set] {
            PolicyKind::Lru => self.ranks[set].touch_mru(way),
            PolicyKind::Bip => {
                if self.rng.one_in_pow2(self.cfg.bip_throttle_log2) {
                    self.ranks[set].touch_mru(way);
                } else {
                    self.ranks[set].demote_lru(way);
                }
            }
        }
    }

    /// Synchronises a set's presence in the giver heap with its monitor
    /// state: uncoupled givers post their (index, saturation level);
    /// anything else is withdrawn (§4.5 / the §4.6 feedback loop).
    fn update_heap_status(&mut self, set: usize) {
        if self.cfg.spatial_coupling && !self.assoc.is_coupled(set) && self.monitors[set].is_giver()
        {
            self.heap.post(set, self.monitors[set].saturation_level());
        } else {
            self.heap.remove(set);
        }
    }

    /// Registers an on-chip hit for `home`'s monitor and refreshes its
    /// heap candidacy.
    fn monitor_hit(&mut self, home: usize) {
        self.monitors[home].on_llc_hit(&mut self.rng);
        self.update_heap_status(home);
    }

    /// Probes `home`'s shadow set on a full miss; a shadow hit bumps both
    /// counters and may trigger the per-set policy swap, while a shadow
    /// miss applies the slow false-positive bleed to SC_S.
    fn probe_shadow(&mut self, home: usize, sig: u16) {
        if self.monitors[home].shadow_mut().probe_invalidate(sig) {
            let ev = self.monitors[home].on_shadow_hit();
            if ev.swap_policy {
                if self.cfg.temporal_adaptation {
                    self.set_policy[home] = self.set_policy[home].opposite();
                    self.stats.record_policy_swap();
                }
                self.monitors[home].acknowledge_swap();
            }
        } else {
            self.monitors[home].on_shadow_miss(&mut self.rng);
        }
        self.update_heap_status(home);
    }

    /// Couples an uncoupled taker with the least-saturated giver from the
    /// heap (§4.5). Stale heap entries (sets that coupled or lost giver
    /// status since posting) are discarded.
    fn try_couple(&mut self, taker: usize) {
        if !self.cfg.spatial_coupling || self.assoc.is_coupled(taker) {
            return;
        }
        self.heap.remove(taker);
        while let Some(cand) = self.heap.pop_least() {
            if cand != taker && !self.assoc.is_coupled(cand) && self.monitors[cand].is_giver() {
                self.assoc.couple(taker, cand);
                self.is_taker[taker] = true;
                self.is_taker[cand] = false;
                self.stats.record_coupling();
                return;
            }
        }
    }

    /// Evicts `(set, way)` off-chip; maintains CC accounting and the §4.7
    /// drain-triggered decoupling. `allow_decouple` is `false` while
    /// making room for an incoming spill (the arriving CC block refills
    /// the drain immediately).
    fn evict_off_chip(
        &mut self,
        set: usize,
        way: usize,
        allow_decouple: bool,
    ) -> Result<(), SimError> {
        let old = self.frames.take(set, way).ok_or_else(|| {
            AuditError::new(
                "STEM",
                format!("eviction of invalid way {way} in set {set}"),
            )
        })?;
        self.stats.record_eviction();
        if old.dirty {
            self.stats.record_writeback();
        }
        if old.flag {
            self.cc_count[set] = self.cc_count[set].checked_sub(1).ok_or_else(|| {
                AuditError::new("STEM", format!("CC accounting of set {set} underflowed"))
            })?;
            if allow_decouple && self.cc_count[set] == 0 {
                if let Some(p) = self.assoc.partner(set) {
                    self.is_taker[p] = false;
                    self.is_taker[set] = false;
                    self.assoc.decouple(set);
                    self.stats.record_decoupling();
                }
            }
        } else {
            self.shadow_native_victim(set, LineAddr::new(old.tag));
        }
        Ok(())
    }

    /// Hashes native victim `line` of `set` into the set's shadow, under the
    /// shadow's (opposite) policy (§4.3): the block has left the set's local
    /// capacity, whether it went off-chip or was spilled to a giver.
    fn shadow_native_victim(&mut self, set: usize, line: LineAddr) {
        let sig = self.sig_of(line);
        let shadow_policy = self.set_policy[set].opposite();
        self.monitors[set].shadow_mut().insert(
            sig,
            shadow_policy,
            self.cfg.bip_throttle_log2,
            &mut self.rng,
        );
    }

    /// Receives taker victim `line` into giver set `giver` as a CC block,
    /// inserted per the giver's current temporal policy (§4.6). Returns
    /// `false` (rejecting the spill) when accepting it would overwhelm the
    /// giver: free ways and older CC blocks are always fair game, but a
    /// *native* giver block may be displaced only while the giver's native
    /// working set demonstrably leaves slack (at least 3 ways not holding
    /// native data). This operationalises §4.6's "still unsaturated even
    /// with receiving" at the data level, complementing the SC_S check.
    fn receive(&mut self, giver: usize, line: LineAddr, dirty: bool) -> Result<bool, SimError> {
        let way = match self.frames.first_free(giver) {
            Some(w) => w,
            None => {
                let victim = self.ranks[giver].lru_way();
                let victim_is_native = !self.frames.is_flagged(giver, victim);
                if victim_is_native {
                    let native = self.frames.valid_count(giver) - self.frames.flagged_count(giver);
                    if native + 3 > self.geom.ways() {
                        return Ok(false);
                    }
                }
                self.evict_off_chip(giver, victim, false)?;
                victim
            }
        };
        self.frames.fill(giver, way, line.raw(), dirty, true);
        self.insert_rank(giver, way);
        self.cc_count[giver] += 1;
        self.stats.record_receive();
        Ok(true)
    }

    /// Whether `giver` may receive a spill right now: the §4.6 receive
    /// constraint — the giver must be "still unsaturated even with
    /// receiving".
    fn can_receive(&self, giver: usize) -> bool {
        !self.cfg.receive_constraint || self.monitors[giver].can_receive()
    }

    /// Disposes of the victim in `(home, way)`: CC victims leave the chip
    /// (possibly decoupling), native victims are hashed into the shadow
    /// and spilled to the coupled giver when permitted.
    fn dispose_victim(&mut self, home: usize, way: usize) -> Result<(), SimError> {
        if !self.frames.is_valid(home, way) {
            return Err(SimError::Audit(AuditError::new(
                "STEM",
                format!("victim way {way} of set {home} is invalid"),
            )));
        }
        if self.frames.is_flagged(home, way) {
            return self.evict_off_chip(home, way, true);
        }
        let victim_line = LineAddr::new(self.frames.tag(home, way).expect("valid way has a tag"));
        let victim_dirty = self.frames.is_dirty(home, way);

        // An uncoupled taker requests coupling at eviction time (§4.5).
        if self.monitors[home].is_taker() {
            self.try_couple(home);
        }

        // Spill only while still the taker with elevated demand, and only
        // into a giver that can receive (§4.6).
        if let Some(giver) = self.assoc.partner(home) {
            if self.is_taker[home]
                && !self.monitors[home].is_giver()
                && self.can_receive(giver)
                && self.receive(giver, victim_line, victim_dirty)?
            {
                self.shadow_native_victim(home, victim_line);
                self.frames.take(home, way);
                self.stats.record_spill();
                return Ok(());
            }
        }

        self.evict_off_chip(home, way, true)
    }

    /// The controller path behind the decoded replay loop, surfacing
    /// internal-state corruption (invalid victim ways, CC accounting
    /// underflow) as typed [`SimError::Audit`] errors: the line address and
    /// its home set are already extracted. The shadow-set
    /// signature is still derived internally (it is a function of the line
    /// address alone).
    #[inline]
    fn try_access_at(
        &mut self,
        line: LineAddr,
        home: usize,
        write: bool,
    ) -> Result<AccessResult, SimError> {
        // 1. Probe the home set (native blocks only: CC blocks stored here
        //    belong to the partner's address space and cannot tag-match).
        if let Some(way) = self.find_way(home, line) {
            self.stats.record_local_hit();
            self.ranks[home].touch_mru(way);
            if write {
                self.frames.mark_dirty(home, way);
            }
            self.monitor_hit(home);
            return Ok(AccessResult::HitLocal);
        }

        // 2. A coupled taker probes its giver for cooperatively cached
        //    blocks (second tag-store access, §5.1 pricing).
        let probe_partner = self.assoc.partner(home).filter(|_| self.is_taker[home]);
        if let Some(giver) = probe_partner {
            if let Some(way) = self.find_way(giver, line) {
                self.stats.record_coop_hit();
                self.ranks[giver].touch_mru(way);
                if write {
                    self.frames.mark_dirty(giver, way);
                }
                // The hit belongs to the home set's working set.
                self.monitor_hit(home);
                return Ok(AccessResult::HitCooperative);
            }
        }

        // 3. Full miss: consult the shadow set (SCDM).
        let sig = self.sig_of(line);
        self.probe_shadow(home, sig);
        if probe_partner.is_some() {
            self.stats.record_coop_miss();
        } else {
            self.stats.record_local_miss();
        }

        // 4. Allocate in the home set.
        let way = match self.frames.first_free(home) {
            Some(w) => w,
            None => {
                let victim = self.ranks[home].lru_way();
                self.dispose_victim(home, victim)?;
                victim
            }
        };
        self.frames.fill(home, way, line.raw(), write, false);
        self.insert_rank(home, way);

        Ok(if probe_partner.is_some() {
            AccessResult::MissCooperative
        } else {
            AccessResult::MissLocal
        })
    }
}

impl CacheModel for StemCache {
    /// Monomorphic replay loop: streams the line column straight into
    /// `try_access_at` with static dispatch, deriving each set under this
    /// cache's own geometry. This is the scheme's single panic site: an
    /// `Err` here means the controller's own state is corrupt, which the
    /// infallible trait surface cannot express.
    fn replay_decoded(&mut self, trace: &DecodedTrace, range: std::ops::Range<usize>) {
        let lines = &trace.lines_for(self.geom)[range.clone()];
        for (i, &line) in range.zip(lines) {
            let line = LineAddr::new(line);
            let set = self.geom.set_index_of_line(line);
            if let Err(e) = self.try_access_at(line, set, trace.is_write(i)) {
                panic!("STEM internal state corrupted: {e}");
            }
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
        "STEM"
    }

    /// NOT sampling-safe: STEM elects donor/receiver couplings from a
    /// *global* ranking of every set's capacity demand (the coupling heap)
    /// on a global epoch clock, so a sampled population elects different
    /// couplings (a set's donor may simply not be in the sample), and the set-dueling miss aggregation shifts with
    /// the surviving leader subset. Unlike DIP — whose only global state is
    /// the duel itself — STEM's couplings *move capacity between sets*, so
    /// the distortion is structural, not just a mistrained knob. Explicit
    /// refusal; a sampled STEM story would need its own validated monitor.
    fn supports_set_sampling(&self) -> bool {
        false
    }
}

impl InvariantAuditor for StemCache {
    fn audit(&self) -> Result<(), AuditError> {
        let err = |detail: String| Err(AuditError::new("STEM", detail));
        if !self.assoc.is_consistent() {
            return err("association table lost its symmetry".into());
        }
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
            let mut seen = std::collections::HashSet::new();
            let mut actual_cc = 0u32;
            for way in self.frames.valid_ways(set) {
                let line = LineAddr::new(self.frames.tag(set, way).expect("valid way has a tag"));
                if !seen.insert(line) {
                    return err(format!("duplicate line {line:?} in set {set}"));
                }
                let home = self.geom.set_index_of_line(line);
                if self.frames.is_flagged(set, way) {
                    actual_cc += 1;
                    if self.assoc.partner(set) != Some(home) {
                        return err(format!(
                            "CC block {line:?} in set {set} maps to set {home}, which is not \
                             the coupled partner"
                        ));
                    }
                } else if home != set {
                    return err(format!(
                        "native block {line:?} sits in set {set} but maps to set {home}"
                    ));
                }
            }
            if actual_cc != self.cc_count[set] {
                return err(format!(
                    "set {set} CC accounting says {} blocks, found {actual_cc}",
                    self.cc_count[set]
                ));
            }
            if actual_cc > 0 {
                if !self.assoc.is_coupled(set) {
                    return err(format!("set {set} holds CC blocks but is uncoupled"));
                }
                if self.is_taker[set] {
                    return err(format!(
                        "taker set {set} holds CC blocks (must be the giver)"
                    ));
                }
            }
            if self.is_taker[set] && !self.assoc.is_coupled(set) {
                return err(format!("set {set} is marked taker but has no partner"));
            }
            if let Some(p) = self.assoc.partner(set) {
                if self.is_taker[set] == self.is_taker[p] {
                    return err(format!(
                        "pair ({set}, {p}) must have exactly one taker side"
                    ));
                }
            }
            self.monitors[set]
                .audit()
                .map_err(|detail| AuditError::new("STEM", format!("set {set}: {detail}")))?;
        }
        Ok(())
    }
}

impl std::fmt::Debug for StemCache {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("StemCache")
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
    use stem_replacement::{Lru, SetAssocCache};
    use stem_sim_core::{prop, Access, AccessKind, DecodedTrace};

    /// Thrash set 0 with a cycle of `1.5 × ways` blocks while set 1 holds a
    /// well-reused pair of blocks (the paper's Example #1 shape).
    fn complementary_trace(geom: CacheGeometry, rounds: usize) -> DecodedTrace {
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

    /// A pure thrashing cycle over one set (BIP-friendly, LRU-hostile).
    fn thrash_trace(geom: CacheGeometry, set: usize, extra: u64, rounds: usize) -> DecodedTrace {
        let n = geom.ways() as u64 + extra;
        let mut t = DecodedTrace::with_capacity(geom, 0);
        for _ in 0..rounds {
            for tag in 0..n {
                t.push(Access::read(geom.address_of(tag, set)));
            }
        }
        t
    }

    #[test]
    fn stem_couples_and_cooperates() {
        let geom = CacheGeometry::new(8, 4, 64).unwrap();
        let mut stem = StemCache::new(geom);
        stem.run_decoded(&complementary_trace(geom, 200));
        assert!(stem.stats().couplings() > 0, "STEM never coupled");
        assert!(stem.stats().spills() > 0, "STEM never spilled");
        assert!(stem.stats().coop_hits() > 0, "STEM never coop-hit");
    }

    #[test]
    fn stem_beats_lru_on_complementary_demands() {
        let geom = CacheGeometry::new(8, 4, 64).unwrap();
        let trace = complementary_trace(geom, 300);
        let mut stem = StemCache::new(geom);
        stem.run_decoded(&trace);
        let mut lru = SetAssocCache::new(geom, Lru::new(geom));
        lru.run_decoded(&trace);
        assert!(
            stem.stats().misses() < lru.stats().misses(),
            "STEM ({}) should beat LRU ({})",
            stem.stats().misses(),
            lru.stats().misses()
        );
    }

    #[test]
    fn stem_beats_lru_on_pure_thrashing_via_policy_swap() {
        // No giver available (every set thrashes) — the temporal half must
        // save the day by swapping sets to BIP.
        let geom = CacheGeometry::new(4, 4, 64).unwrap();
        let mut trace = DecodedTrace::with_capacity(geom, 0);
        for _ in 0..400 {
            for set in 0..4 {
                for tag in 0..6u64 {
                    trace.push(Access::read(geom.address_of(tag, set)));
                }
            }
        }
        let mut stem = StemCache::new(geom);
        stem.run_decoded(&trace);
        let mut lru = SetAssocCache::new(geom, Lru::new(geom));
        lru.run_decoded(&trace);
        assert_eq!(lru.stats().hits(), 0, "LRU must fully thrash");
        assert!(stem.stats().policy_swaps() > 0, "no policy swap happened");
        assert!(
            stem.stats().hits() > trace.len() as u64 / 10,
            "STEM only got {} hits of {}",
            stem.stats().hits(),
            trace.len()
        );
    }

    #[test]
    fn policy_swap_flips_set_policy() {
        let geom = CacheGeometry::new(2, 4, 64).unwrap();
        let mut stem = StemCache::new(geom);
        assert_eq!(stem.policy_of(0), PolicyKind::Lru);
        stem.run_decoded(&thrash_trace(geom, 0, 2, 500));
        // A thrashing set's shadow (running BIP) out-hits it: SC_T
        // saturates and the set swaps to BIP.
        assert!(stem.stats().policy_swaps() > 0);
    }

    #[test]
    fn receive_constraint_limits_pollution() {
        // Compare spills with and without the constraint under heavy
        // pressure on the giver: the constrained config must spill less.
        let geom = CacheGeometry::new(4, 4, 64).unwrap();
        let mut t = DecodedTrace::with_capacity(geom, 0);
        for round in 0..400 {
            for tag in 0..6u64 {
                t.push(Access::read(geom.address_of(tag, 0)));
            }
            // The "giver" set also has moderate traffic that suffers under
            // pollution.
            for tag in 0..3u64 {
                let _ = round;
                t.push(Access::read(geom.address_of(tag, 1)));
            }
        }
        let mut constrained = StemCache::with_config(geom, StemConfig::micro2010());
        constrained.run_decoded(&t);
        let mut unconstrained =
            StemCache::with_config(geom, StemConfig::micro2010().with_receive_constraint(false));
        unconstrained.run_decoded(&t);
        assert!(
            constrained.stats().receives() <= unconstrained.stats().receives(),
            "constraint should not increase receives: {} vs {}",
            constrained.stats().receives(),
            unconstrained.stats().receives()
        );
    }

    #[test]
    fn ablated_stem_without_spatial_never_couples() {
        let geom = CacheGeometry::new(8, 4, 64).unwrap();
        let mut stem =
            StemCache::with_config(geom, StemConfig::micro2010().with_spatial_coupling(false));
        stem.run_decoded(&complementary_trace(geom, 200));
        assert_eq!(stem.stats().couplings(), 0);
        assert_eq!(stem.stats().coop_hits(), 0);
        assert_eq!(stem.stats().spills(), 0);
    }

    #[test]
    fn ablated_stem_without_temporal_never_swaps() {
        let geom = CacheGeometry::new(2, 4, 64).unwrap();
        let mut stem = StemCache::with_config(
            geom,
            StemConfig::micro2010().with_temporal_adaptation(false),
        );
        stem.run_decoded(&thrash_trace(geom, 0, 2, 500));
        assert_eq!(stem.stats().policy_swaps(), 0);
        assert_eq!(stem.policy_of(0), PolicyKind::Lru);
    }

    #[test]
    fn decoupling_follows_cc_drain() {
        let geom = CacheGeometry::new(8, 4, 64).unwrap();
        let mut stem = StemCache::new(geom);
        stem.run_decoded(&complementary_trace(geom, 300));
        // Consistency rather than a specific count: all CC accounting must
        // match reality.
        for s in 0..geom.sets() {
            let actual = stem.frames.flagged_count(s) as u32;
            assert_eq!(actual, stem.cc_blocks(s), "set {s} CC count");
            if actual > 0 {
                assert!(stem.associations().is_coupled(s));
                assert!(!stem.is_taker(s), "CC blocks must live in the giver");
            }
        }
    }

    #[test]
    fn fresh_sets_are_all_lru_and_uncoupled() {
        let geom = CacheGeometry::new(16, 4, 64).unwrap();
        let stem = StemCache::new(geom);
        for s in 0..16 {
            assert_eq!(stem.policy_of(s), PolicyKind::Lru);
            assert!(!stem.associations().is_coupled(s));
            assert_eq!(stem.cc_blocks(s), 0);
        }
    }

    #[test]
    fn invalid_configs_are_rejected_with_typed_errors() {
        let geom = CacheGeometry::new(8, 4, 64).unwrap();
        for bad in [
            StemConfig::micro2010().with_counter_bits(0),
            StemConfig::micro2010().with_shadow_tag_bits(17),
            StemConfig::micro2010().with_heap_capacity(0),
            StemConfig::micro2010().with_spatial_ratio_log2(63),
        ] {
            let err = StemCache::try_with_config(geom, bad)
                .map(|_| ())
                .expect_err("invalid config must be rejected");
            assert!(
                matches!(err, SimError::Config { scheme: "STEM", .. }),
                "{err}"
            );
        }
    }

    /// Structural invariants hold under arbitrary traffic:
    /// association symmetry, CC accounting, taker/giver role
    /// exclusivity, occupancy bounds, and stats balance.
    #[test]
    fn invariants_under_random_traffic() {
        prop::check(64, |g| {
            let geom = CacheGeometry::new(8, 2, 64).unwrap();
            let mut stem = StemCache::new(geom);
            let n = g.usize(1, 800);
            for i in 0..n {
                let tag = g.u64(0, 32);
                let set = g.usize(0, 8);
                let kind = if g.bool() {
                    AccessKind::Write
                } else {
                    AccessKind::Read
                };
                stem.access(geom.address_of(tag, set), kind);
                assert_eq!(stem.stats().accesses(), (i + 1) as u64);
            }
            stem.audit().expect("full invariant audit passes");
            // Spills and receives must balance.
            assert_eq!(stem.stats().spills(), stem.stats().receives());
        });
    }

    /// Rehit property: immediately re-accessing an address always hits
    /// (locally or cooperatively).
    #[test]
    fn rehit_after_access() {
        prop::check(64, |g| {
            let geom = CacheGeometry::new(4, 2, 64).unwrap();
            let mut stem = StemCache::new(geom);
            for _ in 0..g.usize(1, 300) {
                let t = g.u64(0, 64);
                let a = geom.address_of(t / 4, (t % 4) as usize);
                stem.access(a, AccessKind::Read);
                assert!(stem.access(a, AccessKind::Read).is_hit());
            }
        });
    }
}
