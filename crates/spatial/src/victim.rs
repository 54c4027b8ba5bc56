//! A conventional cache backed by a small fully-associative victim cache
//! (Jouppi, ISCA'90) — the classic *global* approach to conflict misses,
//! included as a spatial-management baseline older than V-Way and SBC.
//!
//! Unlike inter-set cooperation, the victim buffer is shared by all sets,
//! so it helps whichever sets are conflicting right now but its capacity
//! (a few dozen lines) cannot absorb sustained non-uniformity the way
//! set pairing can — an instructive contrast in the benchmark harness.

use stem_replacement::RecencyStack;
use stem_sim_core::{
    AccessResult, AuditError, CacheGeometry, CacheModel, CacheStats, DecodedTrace,
    InvariantAuditor, LineAddr, SetFrames, SimError,
};

/// One fully-associative victim-buffer entry.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Line {
    line: LineAddr,
    dirty: bool,
}

/// An LRU set-associative cache with a fully-associative victim buffer.
///
/// A hit in the victim buffer swaps the block back into its home set
/// (displacing that set's LRU block into the buffer) and is priced as a
/// cooperative hit, since it takes a second lookup.
///
/// # Examples
///
/// ```
/// use stem_spatial::VictimCache;
/// use stem_sim_core::{CacheGeometry, CacheModel};
///
/// # fn main() -> Result<(), stem_sim_core::GeometryError> {
/// let geom = CacheGeometry::new(64, 4, 64)?;
/// let cache = VictimCache::new(geom, 16);
/// assert_eq!(cache.name(), "LRU+VC");
/// # Ok(())
/// # }
/// ```
#[derive(Clone)]
pub struct VictimCache {
    geom: CacheGeometry,
    /// Flat tag store for the main array; the tag word is the full line
    /// address (the flag bit is unused).
    frames: SetFrames,
    ranks: Vec<RecencyStack>,
    /// Fully-associative victim entries, most recent first.
    victims: Vec<Line>,
    capacity: usize,
    stats: CacheStats,
}

impl VictimCache {
    /// Creates a cache with a `capacity`-entry victim buffer.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero.
    pub fn new(geom: CacheGeometry, capacity: usize) -> Self {
        match Self::try_new(geom, capacity) {
            Ok(c) => c,
            Err(e) => panic!("victim buffer capacity must be positive: {e}"),
        }
    }

    /// Fallible constructor: rejects a zero-entry victim buffer with a
    /// typed error.
    pub fn try_new(geom: CacheGeometry, capacity: usize) -> Result<Self, SimError> {
        if capacity == 0 {
            return Err(SimError::config(
                "LRU+VC",
                "victim buffer capacity must be positive",
            ));
        }
        Ok(VictimCache {
            geom,
            frames: SetFrames::new(geom.sets(), geom.ways()),
            ranks: vec![RecencyStack::new(geom.ways()); geom.sets()],
            victims: Vec::with_capacity(capacity),
            capacity,
            stats: CacheStats::default(),
        })
    }

    /// Current number of buffered victims (analysis hook).
    pub fn buffered_victims(&self) -> usize {
        self.victims.len()
    }

    #[inline]
    fn find_way(&self, set: usize, line: LineAddr) -> Option<usize> {
        self.frames.find(set, line.raw())
    }

    /// Pushes a victim into the buffer, evicting the oldest entry.
    fn buffer_victim(&mut self, v: Line) {
        if self.victims.len() == self.capacity {
            let old = self.victims.pop().expect("buffer is full");
            self.stats.record_eviction();
            if old.dirty {
                self.stats.record_writeback();
            }
        }
        self.victims.insert(0, v);
    }

    /// Installs `incoming` into `set`, buffering the displaced LRU block.
    fn install(&mut self, set: usize, incoming: Line) {
        let way = match self.frames.first_free(set) {
            Some(w) => w,
            None => {
                let victim_way = self.ranks[set].lru_way();
                let victim = self.frames.take(set, victim_way).expect("victim valid");
                self.stats.record_spill();
                self.buffer_victim(Line {
                    line: LineAddr::new(victim.tag),
                    dirty: victim.dirty,
                });
                victim_way
            }
        };
        self.frames
            .fill(set, way, incoming.line.raw(), incoming.dirty, false);
        self.ranks[set].touch_mru(way);
    }

    /// The single lookup/buffer path behind both access entry points: the
    /// line address and its home set are already extracted.
    #[inline]
    fn access_at(&mut self, line: LineAddr, set: usize, write: bool) -> AccessResult {
        if let Some(way) = self.find_way(set, line) {
            self.stats.record_local_hit();
            self.ranks[set].touch_mru(way);
            if write {
                self.frames.mark_dirty(set, way);
            }
            return AccessResult::HitLocal;
        }

        // Probe the victim buffer (a second, parallel-in-hardware lookup;
        // we price it as cooperative).
        if let Some(pos) = self.victims.iter().position(|v| v.line == line) {
            let mut hit = self.victims.remove(pos);
            self.stats.record_coop_hit();
            self.stats.record_receive();
            if write {
                hit.dirty = true;
            }
            // Swap back into the home set.
            self.install(set, hit);
            return AccessResult::HitCooperative;
        }

        self.stats.record_coop_miss();
        self.install(set, Line { line, dirty: write });
        AccessResult::MissCooperative
    }
}

impl CacheModel for VictimCache {
    /// Monomorphic replay loop: streams the line column straight into
    /// `access_at` with static dispatch, deriving each set under this
    /// cache's own geometry.
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
        "LRU+VC"
    }

    /// NOT sampling-safe: the victim buffer is one global
    /// fully-associative structure shared by evictions from *every* set.
    /// Dropped sets stop contributing evictions to it, so the kept sets see less buffer pressure
    /// than they would serially and their victim-hit rate is inflated.
    /// Explicit refusal.
    fn supports_set_sampling(&self) -> bool {
        false
    }
}

impl InvariantAuditor for VictimCache {
    fn audit(&self) -> Result<(), AuditError> {
        let err = |detail: String| Err(AuditError::new("LRU+VC", detail));
        let mut resident = std::collections::HashSet::new();
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
            for way in self.frames.valid_ways(set) {
                let line = LineAddr::new(self.frames.tag(set, way).expect("valid way has a tag"));
                let home = self.geom.set_index_of_line(line);
                if home != set {
                    return err(format!(
                        "line {line:?} sits in set {set} but maps to set {home}"
                    ));
                }
                if !resident.insert(line) {
                    return err(format!("duplicate line {line:?} in set {set}"));
                }
            }
        }
        if self.victims.len() > self.capacity {
            return err(format!(
                "victim buffer holds {} entries, capacity is {}",
                self.victims.len(),
                self.capacity
            ));
        }
        let mut buffered = std::collections::HashSet::new();
        for v in &self.victims {
            if !buffered.insert(v.line) {
                return err(format!("duplicate line {:?} in the victim buffer", v.line));
            }
            if resident.contains(&v.line) {
                return err(format!(
                    "line {:?} is both resident in a set and buffered as a victim",
                    v.line
                ));
            }
        }
        Ok(())
    }
}

impl std::fmt::Debug for VictimCache {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("VictimCache")
            .field("geom", &self.geom)
            .field("capacity", &self.capacity)
            .field("stats", &self.stats)
            .finish_non_exhaustive()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use stem_sim_core::AccessKind;

    fn geom() -> CacheGeometry {
        CacheGeometry::new(2, 2, 64).unwrap()
    }

    #[test]
    fn victim_buffer_rescues_conflict_misses() {
        let g = geom();
        let mut c = VictimCache::new(g, 4);
        // 3 blocks cycling through a 2-way set: the buffered victim
        // rescues each "miss" after warmup.
        for t in 0..3u64 {
            c.access(g.address_of(t, 0), AccessKind::Read);
        }
        c.reset_stats();
        for round in 0..30u64 {
            c.access(g.address_of(round % 3, 0), AccessKind::Read);
        }
        assert_eq!(c.stats().misses(), 0, "all conflict misses rescued");
        assert!(c.stats().coop_hits() > 0);
    }

    #[test]
    fn buffer_capacity_is_bounded() {
        let g = geom();
        let mut c = VictimCache::new(g, 2);
        for t in 0..50u64 {
            c.access(g.address_of(t, 0), AccessKind::Write);
            assert!(c.buffered_victims() <= 2);
        }
        assert!(
            c.stats().writebacks() > 0,
            "old dirty victims leave the chip"
        );
    }

    #[test]
    fn rehit_after_access() {
        let g = geom();
        let mut c = VictimCache::new(g, 2);
        for t in 0..40u64 {
            let a = g.address_of(t / 2, (t % 2) as usize);
            c.access(a, AccessKind::Read);
            assert!(c.access(a, AccessKind::Read).is_hit());
        }
    }

    #[test]
    #[should_panic(expected = "capacity")]
    fn zero_capacity_panics() {
        let _ = VictimCache::new(geom(), 0);
    }
}
