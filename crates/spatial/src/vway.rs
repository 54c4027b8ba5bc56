//! The V-Way cache (Qureshi, Thompson & Patt, ISCA'05).
//!
//! "Since the V-Way cache has twice (or multiple times) as many tag entries
//! as data lines, the association between a tag entry and a data line needs
//! to be dynamically established by using a pair of front and backward
//! pointers. In addition, tag entries and data lines are replaced by using
//! LRU and a global frequency-based replacement policy respectively" (§6.2).
//!
//! Sets with high demand naturally accumulate data lines (up to
//! `tag_data_ratio × ways` of them), stealing capacity from cold sets —
//! spatial management driven implicitly by per-set access counts, which the
//! paper argues is a *less accurate* demand metric than STEM's shadow sets
//! (§5.2).

use stem_replacement::RecencyStack;
use stem_sim_core::{
    AccessKind, AccessResult, Address, AuditError, CacheGeometry, CacheModel, CacheStats,
    DecodedTrace, InvariantAuditor, LineAddr, SetFrames, SimError,
};

/// Tuning parameters for [`VWayCache`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct VWayConfig {
    /// Tag-to-data ratio: tag entries per set = `ratio × ways`. The V-Way
    /// paper (and ours) use 2.
    pub tag_data_ratio: usize,
    /// Width of the data-line reuse counters driving global replacement.
    pub reuse_bits: u32,
}

impl Default for VWayConfig {
    fn default() -> Self {
        VWayConfig {
            tag_data_ratio: 2,
            reuse_bits: 2,
        }
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct DataEntry {
    /// Backward pointer: owning (set, tag-way).
    rptr_set: u32,
    rptr_way: u16,
    reuse: u8,
    dirty: bool,
}

/// The V-Way cache: variable per-set associativity via decoupled tag and
/// data stores with global data replacement.
///
/// The [`CacheGeometry`] passed in describes the **data store** (so
/// capacity comparisons against other schemes are apples-to-apples); the
/// tag store holds `tag_data_ratio ×` as many entries.
///
/// # Examples
///
/// ```
/// use stem_spatial::VWayCache;
/// use stem_sim_core::{CacheGeometry, CacheModel};
///
/// # fn main() -> Result<(), stem_sim_core::GeometryError> {
/// let geom = CacheGeometry::new(128, 8, 64)?;
/// let vway = VWayCache::new(geom);
/// assert_eq!(vway.name(), "V-Way");
/// # Ok(())
/// # }
/// ```
#[derive(Clone)]
pub struct VWayCache {
    geom: CacheGeometry,
    cfg: VWayConfig,
    /// Tag entries per set: `ratio × ways`.
    tag_ways: usize,
    /// Flat tag store of `sets × tag_ways` entries; the tag word is the
    /// full line address (dirty lives in the data store, flag is unused).
    tags: SetFrames,
    /// Forward pointers into the global data store, parallel to `tags`
    /// (`fwd[set * tag_ways + tag_way]`, meaningful while the tag is valid).
    fwd: Vec<u32>,
    /// Per-set LRU over the tag ways.
    tag_ranks: Vec<RecencyStack>,
    /// Global data store of `sets × ways` lines.
    data: Vec<Option<DataEntry>>,
    /// Invalid data lines available for allocation.
    free_data: Vec<usize>,
    /// Clock hand of the global reuse replacement.
    clock: usize,
    max_reuse: u8,
    stats: CacheStats,
}

impl VWayCache {
    /// Creates a V-Way cache with the standard ratio of 2 and 2-bit reuse
    /// counters.
    pub fn new(geom: CacheGeometry) -> Self {
        VWayCache::with_config(geom, VWayConfig::default())
    }

    /// Creates a V-Way cache with explicit parameters.
    ///
    /// # Panics
    ///
    /// Panics if `tag_data_ratio` is 0, or `reuse_bits` is 0 or greater
    /// than 7. Use [`try_with_config`](VWayCache::try_with_config) for a
    /// fallible variant.
    pub fn with_config(geom: CacheGeometry, cfg: VWayConfig) -> Self {
        match VWayCache::try_with_config(geom, cfg) {
            Ok(v) => v,
            Err(e) => panic!("{e}"),
        }
    }

    /// Creates a V-Way cache with explicit parameters, rejecting invalid
    /// ones with a typed error.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::Config`] if `tag_data_ratio` is 0 or
    /// `reuse_bits` is outside `1..=7` (the reuse counter lives in a `u8`
    /// alongside a dirty bit in hardware).
    pub fn try_with_config(geom: CacheGeometry, cfg: VWayConfig) -> Result<Self, SimError> {
        if cfg.tag_data_ratio < 1 {
            return Err(SimError::config(
                "V-Way",
                "tag-data ratio must be at least 1",
            ));
        }
        if cfg.reuse_bits < 1 || cfg.reuse_bits > 7 {
            return Err(SimError::config(
                "V-Way",
                format!(
                    "reuse counter width must be in 1..=7, got {}",
                    cfg.reuse_bits
                ),
            ));
        }
        let tag_ways = cfg.tag_data_ratio * geom.ways();
        if tag_ways > 255 {
            return Err(SimError::config(
                "V-Way",
                format!("tag ways per set ({tag_ways}) exceed the 255 the rank stack tracks"),
            ));
        }
        let total = geom.total_lines();
        Ok(VWayCache {
            geom,
            cfg,
            tag_ways,
            tags: SetFrames::new(geom.sets(), tag_ways),
            fwd: vec![0; geom.sets() * tag_ways],
            tag_ranks: vec![RecencyStack::new(tag_ways); geom.sets()],
            data: vec![None; total],
            free_data: (0..total).rev().collect(),
            clock: 0,
            max_reuse: ((1u32 << cfg.reuse_bits) - 1) as u8,
            stats: CacheStats::default(),
        })
    }

    /// Number of data lines currently owned by `set` (the set's *variable*
    /// associativity — analysis hook).
    pub fn data_lines_of(&self, set: usize) -> usize {
        self.tags.valid_count(set)
    }

    /// Verifies forward/backward pointer consistency (test hook): every
    /// valid tag's data line points back at it, and vice versa.
    pub fn pointers_consistent(&self) -> bool {
        self.audit_pointers().is_ok()
    }

    /// Deliberately corrupts one reverse pointer, for negative-testing the
    /// auditor. Returns `false` if no valid data line exists to corrupt.
    #[doc(hidden)]
    pub fn corrupt_reverse_pointer(&mut self) -> bool {
        if let Some(d) = self.data.iter_mut().flatten().next() {
            d.rptr_way ^= 1;
            return true;
        }
        false
    }

    fn audit_pointers(&self) -> Result<(), AuditError> {
        for s in 0..self.geom.sets() {
            for w in self.tags.valid_ways(s) {
                let fwd = self.fwd[s * self.tag_ways + w] as usize;
                match self.data.get(fwd).copied().flatten() {
                    Some(d) => {
                        if d.rptr_set as usize != s || d.rptr_way as usize != w {
                            return Err(AuditError::new(
                                "V-Way",
                                format!(
                                    "tag ({s},{w}) forward pointer {fwd} has reverse \
                                     pointer ({},{})",
                                    d.rptr_set, d.rptr_way
                                ),
                            ));
                        }
                    }
                    None => {
                        return Err(AuditError::new(
                            "V-Way",
                            format!("tag ({s},{w}) points at invalid data line {fwd}"),
                        ))
                    }
                }
            }
        }
        let valid_tags: usize = (0..self.geom.sets())
            .map(|s| self.tags.valid_count(s))
            .sum();
        let valid_data = self.data.iter().flatten().count();
        if valid_tags != valid_data {
            return Err(AuditError::new(
                "V-Way",
                format!("{valid_tags} valid tags but {valid_data} valid data lines"),
            ));
        }
        Ok(())
    }

    fn audit_free_list(&self) -> Result<(), AuditError> {
        let mut on_free_list = vec![false; self.data.len()];
        for &idx in &self.free_data {
            if idx >= self.data.len() {
                return Err(AuditError::new(
                    "V-Way",
                    format!("free list holds out-of-range index {idx}"),
                ));
            }
            if on_free_list[idx] {
                return Err(AuditError::new(
                    "V-Way",
                    format!("free list holds index {idx} twice"),
                ));
            }
            on_free_list[idx] = true;
        }
        for (idx, d) in self.data.iter().enumerate() {
            match d {
                Some(_) if on_free_list[idx] => {
                    return Err(AuditError::new(
                        "V-Way",
                        format!("valid data line {idx} is also on the free list"),
                    ))
                }
                None if !on_free_list[idx] => {
                    return Err(AuditError::new(
                        "V-Way",
                        format!("invalid data line {idx} is missing from the free list"),
                    ))
                }
                _ => {}
            }
        }
        Ok(())
    }

    #[inline]
    fn find_tag_way(&self, set: usize, line: LineAddr) -> Option<usize> {
        self.tags.find(set, line.raw())
    }

    /// Global reuse-counter clock: decrement non-zero counters until a line
    /// with zero reuse is found, evict it, and return its index.
    ///
    /// # Errors
    ///
    /// Returns an error if the store holds no valid line (callers only
    /// invoke this when the free list is empty, i.e. every line is valid)
    /// or if the victim's reverse pointer is corrupt.
    fn global_data_victim(&mut self) -> Result<usize, SimError> {
        let total = self.data.len();
        // Two full revolutions always reach a zero counter: the first
        // decrements every counter at least once per pass.
        let max_steps = total * (usize::from(self.max_reuse) + 2);
        for _ in 0..max_steps {
            let idx = self.clock;
            self.clock = (self.clock + 1) % total;
            if let Some(d) = &mut self.data[idx] {
                if d.reuse == 0 {
                    // Evict: invalidate the owning tag entry.
                    let d = *d;
                    if d.rptr_set as usize >= self.tags.sets()
                        || d.rptr_way as usize >= self.tag_ways
                    {
                        return Err(corrupt_rptr(idx, d.rptr_set, d.rptr_way));
                    }
                    self.tags.take(d.rptr_set as usize, d.rptr_way as usize);
                    self.data[idx] = None;
                    self.stats.record_eviction();
                    if d.dirty {
                        self.stats.record_writeback();
                    }
                    return Ok(idx);
                }
                d.reuse -= 1;
            }
        }
        Err(SimError::Audit(AuditError::new(
            "V-Way",
            "global replacement found no victim: data store is empty or counters corrupt",
        )))
    }

    /// Processes one access, surfacing internal-state corruption as a typed
    /// error instead of panicking.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::Audit`] if the tag/data pointer bijection is
    /// broken mid-access — which cannot happen unless the state was
    /// corrupted externally (see [`InvariantAuditor`]).
    pub fn try_access(
        &mut self,
        addr: Address,
        kind: AccessKind,
    ) -> Result<AccessResult, SimError> {
        let line = addr.line(self.geom.line_bytes());
        let set = self.geom.set_index_of_line(line);
        self.try_access_at(line, set, kind.is_write())
    }

    /// The lookup/replacement path behind [`try_access`](Self::try_access)
    /// and the decoded replay loop: line address and *data-geometry* set
    /// index are already extracted. V-Way's tag store is wider than the
    /// data store (`tag_data_ratio x ways` entries per set) but indexes its
    /// sets identically, so the data-geometry set index addresses the tag
    /// probe directly.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::Audit`] if the tag/data pointer bijection is
    /// broken mid-access (see [`try_access`](Self::try_access)).
    fn try_access_at(
        &mut self,
        line: LineAddr,
        set: usize,
        write: bool,
    ) -> Result<AccessResult, SimError> {
        if let Some(way) = self.find_tag_way(set, line) {
            self.stats.record_local_hit();
            self.tag_ranks[set].touch_mru(way);
            // find_tag_way only returns valid ways, so the forward pointer
            // is meaningful by construction.
            let data_idx = self.fwd[set * self.tag_ways + way] as usize;
            let d = self
                .data
                .get_mut(data_idx)
                .and_then(Option::as_mut)
                .ok_or_else(|| {
                    SimError::Audit(AuditError::new(
                        "V-Way",
                        format!("hit tag ({set},{way}) points at invalid data line {data_idx}"),
                    ))
                })?;
            d.reuse = (d.reuse + 1).min(self.max_reuse);
            if write {
                d.dirty = true;
            }
            return Ok(AccessResult::HitLocal);
        }

        self.stats.record_local_miss();

        let (tag_way, data_idx) = match self.tags.first_free(set) {
            Some(w) => {
                // A spare tag entry exists: take a data line globally.
                let idx = match self.free_data.pop() {
                    Some(i) => i,
                    None => self.global_data_victim()?,
                };
                (w, idx)
            }
            None => {
                // All tag entries valid: local tag replacement, reusing the
                // victim's own data line. first_free returned None, so
                // every way is valid.
                let w = self.tag_ranks[set].lru_way();
                let victim_data = self.fwd[set * self.tag_ways + w] as usize;
                let old = self
                    .data
                    .get(victim_data)
                    .copied()
                    .flatten()
                    .ok_or_else(|| {
                        SimError::Audit(AuditError::new(
                            "V-Way",
                            format!(
                                "victim tag ({set},{w}) points at invalid data line {victim_data}"
                            ),
                        ))
                    })?;
                self.stats.record_eviction();
                if old.dirty {
                    self.stats.record_writeback();
                }
                self.tags.take(set, w);
                self.data[victim_data] = None;
                (w, victim_data)
            }
        };

        self.tags.fill(set, tag_way, line.raw(), false, false);
        self.fwd[set * self.tag_ways + tag_way] = data_idx as u32;
        self.data[data_idx] = Some(DataEntry {
            rptr_set: set as u32,
            rptr_way: tag_way as u16,
            reuse: 0,
            dirty: write,
        });
        self.tag_ranks[set].touch_mru(tag_way);
        Ok(AccessResult::MissLocal)
    }
}

fn corrupt_rptr(idx: usize, set: u32, way: u16) -> SimError {
    SimError::Audit(AuditError::new(
        "V-Way",
        format!("data line {idx} reverse pointer ({set},{way}) is out of range"),
    ))
}

impl CacheModel for VWayCache {
    fn access(&mut self, addr: Address, kind: AccessKind) -> AccessResult {
        // The only panic site of the scheme: CacheModel::access is
        // infallible by contract, so internal corruption (detectable ahead
        // of time via `audit`) escalates here.
        match self.try_access(addr, kind) {
            Ok(r) => r,
            Err(e) => panic!("{e}"),
        }
    }

    /// Monomorphic replay loop: streams the line column straight into
    /// `try_access_at` with static dispatch, deriving each set under this
    /// cache's own geometry, instead of one virtual `access` call per
    /// access through the trait default.
    fn replay_decoded(&mut self, trace: &DecodedTrace, range: std::ops::Range<usize>) {
        let lines = &trace.lines_for(self.geom)[range.clone()];
        for (i, &line) in range.zip(lines) {
            let line = LineAddr::new(line);
            let set = self.geom.set_index_of_line(line);
            if let Err(e) = self.try_access_at(line, set, trace.is_write(i)) {
                panic!("{e}");
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
        "V-Way"
    }

    /// NOT sampling-safe: the data store (frames, free list, reuse
    /// counters, global replacement hand) is shared by every set, and
    /// decoupled tag/data means dropped sets free up *data frames* the
    /// kept sets would have competed for, so a sampled replay simulates a
    /// cache with the full data store but a fraction of the demand —
    /// systematically underestimating misses, not just reordering them.
    /// Explicit refusal; the exact path is the only valid one.
    fn supports_set_sampling(&self) -> bool {
        false
    }
}

impl InvariantAuditor for VWayCache {
    /// Checks the full V-Way bookkeeping: forward/reverse pointer
    /// bijection, free-list ↔ data-store agreement, per-set tag uniqueness,
    /// tag-rank permutations, and reuse-counter bounds.
    fn audit(&self) -> Result<(), AuditError> {
        self.audit_pointers()?;
        self.audit_free_list()?;
        for s in 0..self.geom.sets() {
            let mut seen = std::collections::HashSet::new();
            for w in self.tags.valid_ways(s) {
                let tag = self.tags.tag(s, w).expect("valid way has a tag");
                if !seen.insert(tag) {
                    return Err(AuditError::new(
                        "V-Way",
                        format!("duplicate line {tag:#x} in tag set {s}"),
                    ));
                }
            }
            if !self.tag_ranks[s].is_permutation() {
                return Err(AuditError::new(
                    "V-Way",
                    format!("tag rank stack of set {s} is not a permutation"),
                ));
            }
        }
        for (idx, d) in self.data.iter().enumerate() {
            if let Some(d) = d {
                if d.reuse > self.max_reuse {
                    return Err(AuditError::new(
                        "V-Way",
                        format!(
                            "data line {idx} reuse counter {} exceeds max {}",
                            d.reuse, self.max_reuse
                        ),
                    ));
                }
            }
        }
        Ok(())
    }
}

impl std::fmt::Debug for VWayCache {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("VWayCache")
            .field("geom", &self.geom)
            .field("cfg", &self.cfg)
            .field("stats", &self.stats)
            .finish_non_exhaustive()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use stem_sim_core::{prop, Access, DecodedTrace};

    #[test]
    fn hot_set_exceeds_nominal_associativity() {
        // 2 sets × 2 ways. Hammer set 0 with 3 blocks (needs 3 lines),
        // leave set 1 idle: V-Way should give set 0 three data lines.
        let geom = CacheGeometry::new(2, 2, 64).unwrap();
        let mut v = VWayCache::new(geom);
        for _ in 0..50 {
            for tag in 0..3u64 {
                v.access(geom.address_of(tag, 0), AccessKind::Read);
            }
        }
        assert!(
            v.data_lines_of(0) > geom.ways(),
            "hot set should hold {} > {} lines",
            v.data_lines_of(0),
            geom.ways()
        );
        assert!(v.pointers_consistent());
        // With 3 resident lines the cycle of 3 eventually hits every time.
        let before = v.stats().misses();
        for tag in 0..3u64 {
            v.access(geom.address_of(tag, 0), AccessKind::Read);
        }
        assert_eq!(v.stats().misses(), before, "cycle must now fit");
    }

    #[test]
    fn vway_beats_lru_on_skewed_demand() {
        use stem_replacement::{Lru, SetAssocCache};
        let geom = CacheGeometry::new(4, 2, 64).unwrap();
        let mut trace = DecodedTrace::with_capacity(geom, 0);
        for _ in 0..300 {
            // Set 0 cycles 3 blocks (doesn't fit 2 ways); sets 1-3 idle.
            for tag in 0..3u64 {
                trace.push(Access::read(geom.address_of(tag, 0)));
            }
        }
        let mut v = VWayCache::new(geom);
        v.run_decoded(&trace);
        let mut lru = SetAssocCache::new(geom, Box::new(Lru::new(geom)));
        lru.run_decoded(&trace);
        assert!(
            v.stats().misses() < lru.stats().misses() / 2,
            "V-Way {} vs LRU {}",
            v.stats().misses(),
            lru.stats().misses()
        );
    }

    #[test]
    fn tag_exhaustion_falls_back_to_local_replacement() {
        // One set, 1 way, ratio 2 => 2 tag entries. Cycle 3 blocks: the
        // single data line bounces but pointer consistency must hold.
        let geom = CacheGeometry::new(1, 1, 64).unwrap();
        let mut v = VWayCache::new(geom);
        for round in 0..20 {
            for tag in 0..3u64 {
                let _ = round;
                v.access(geom.address_of(tag, 0), AccessKind::Write);
                assert!(v.pointers_consistent());
            }
        }
        assert!(v.data_lines_of(0) <= 1);
    }

    #[test]
    fn reuse_counters_protect_hot_lines() {
        // Fill the whole data store; repeatedly hit one line so its reuse
        // counter saturates. Then force global replacements from another
        // set: the hot line must survive the first few.
        let geom = CacheGeometry::new(2, 2, 64).unwrap();
        let mut v = VWayCache::new(geom);
        let hot = geom.address_of(0, 0);
        for tag in 0..2u64 {
            v.access(geom.address_of(tag, 0), AccessKind::Read);
            v.access(geom.address_of(tag, 1), AccessKind::Read);
        }
        for _ in 0..8 {
            v.access(hot, AccessKind::Read); // saturate reuse
        }
        // Trigger one global replacement via set 1's spare tag entries.
        v.access(geom.address_of(7, 1), AccessKind::Read);
        assert!(v.pointers_consistent());
        let hot_line = hot.line(64);
        assert!(
            v.find_tag_way(0, hot_line).is_some(),
            "hot line was evicted despite saturated reuse counter"
        );
    }

    #[test]
    fn invalid_configs_are_rejected_with_typed_errors() {
        let geom = CacheGeometry::new(4, 2, 64).unwrap();
        for cfg in [
            VWayConfig {
                tag_data_ratio: 0,
                reuse_bits: 2,
            },
            VWayConfig {
                tag_data_ratio: 2,
                reuse_bits: 0,
            },
            VWayConfig {
                tag_data_ratio: 2,
                reuse_bits: 8,
            },
            VWayConfig {
                tag_data_ratio: 200,
                reuse_bits: 2,
            },
        ] {
            let err = VWayCache::try_with_config(geom, cfg).expect_err("must reject");
            assert!(
                matches!(
                    err,
                    SimError::Config {
                        scheme: "V-Way",
                        ..
                    }
                ),
                "{err}"
            );
        }
    }

    #[test]
    fn auditor_catches_corrupted_reverse_pointer() {
        let geom = CacheGeometry::new(4, 2, 64).unwrap();
        let mut v = VWayCache::new(geom);
        for tag in 0..6u64 {
            v.access(geom.address_of(tag, (tag % 4) as usize), AccessKind::Read);
        }
        v.audit().expect("healthy state passes");
        assert!(v.corrupt_reverse_pointer());
        let err = v.audit().expect_err("corruption must be caught");
        assert_eq!(err.scheme, "V-Way");
        assert!(!v.pointers_consistent());
    }

    /// Pointer bijection holds under arbitrary traffic, and the number
    /// of valid data lines never exceeds the data store.
    #[test]
    fn pointer_consistency_under_random_traffic() {
        prop::check(96, |g| {
            let geom = CacheGeometry::new(4, 2, 64).unwrap();
            let mut v = VWayCache::new(geom);
            for _ in 0..g.usize(1, 500) {
                let tag = g.u64(0, 16);
                let set = g.usize(0, 4);
                v.access(geom.address_of(tag, set), AccessKind::Read);
            }
            v.audit().expect("full audit passes under random traffic");
            let valid: usize = (0..4).map(|s| v.data_lines_of(s)).sum();
            assert!(valid <= geom.total_lines());
            // No set may exceed its tag capacity.
            for s in 0..4 {
                assert!(v.data_lines_of(s) <= 2 * geom.ways());
            }
        });
    }

    /// Immediately re-accessing the last address always hits.
    #[test]
    fn rehit_after_fill() {
        prop::check(96, |g| {
            let geom = CacheGeometry::new(4, 2, 64).unwrap();
            let mut v = VWayCache::new(geom);
            for _ in 0..g.usize(1, 200) {
                let tag = g.u64(0, 64);
                let a = geom.address_of(tag / 4, (tag % 4) as usize);
                v.access(a, AccessKind::Read);
                assert!(v.access(a, AccessKind::Read).is_hit());
            }
        });
    }
}
