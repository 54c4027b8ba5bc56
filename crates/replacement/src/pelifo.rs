//! Pseudo-LIFO replacement with a dueling-learned escape position.
//!
//! Chaudhuri's PeLIFO (MICRO'09) ranks the blocks of a set by *fill order*
//! (a fill stack) and learns "the most preferred eviction positions close to
//! the top of the fill stack" instead of always evicting from the bottom
//! like LRU. Evicting near the top retains the blocks that already escaped
//! the top — exactly the blocks a thrashing working set keeps reusing.
//!
//! This implementation learns the escape position by set dueling (see
//! `DESIGN.md` §1 for the substitution note): a small number of leader
//! constituencies are each dedicated to one candidate eviction position
//! (top-of-stack, ways/4, ways/2, and pure LRU-by-recency as fallback);
//! per-candidate miss counters periodically elect the winner that follower
//! sets use.

use stem_sim_core::CacheGeometry;

use crate::{RecencyStack, ReplacementPolicy};

/// How many misses between winner re-elections.
const ELECTION_PERIOD: u64 = 4096;

/// Candidate eviction strategies in the duel.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Candidate {
    /// Evict from fill-stack position `p` (0 = most recently filled).
    FillPosition(u8),
    /// Evict the least-recently-*used* block (classic LRU fallback).
    LruFallback,
}

/// Pseudo-LIFO with dueling-learned escape position.
///
/// # Examples
///
/// ```
/// use stem_replacement::{PeLifo, SetAssocCache};
/// use stem_sim_core::{CacheGeometry, CacheModel};
///
/// # fn main() -> Result<(), stem_sim_core::GeometryError> {
/// let geom = CacheGeometry::new(1024, 16, 64)?;
/// let cache = SetAssocCache::new(geom, PeLifo::new(geom));
/// assert_eq!(cache.name(), "PeLIFO");
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct PeLifo {
    /// Fill-order stacks (touch only on fill).
    fill: Vec<RecencyStack>,
    /// Access-recency stacks (for the LRU candidate and tie-breaking).
    recency: Vec<RecencyStack>,
    candidates: Vec<Candidate>,
    /// Misses accumulated by each candidate's leader sets this period.
    misses: Vec<u64>,
    winner: usize,
    total_misses: u64,
    sets: usize,
}

impl PeLifo {
    /// Creates PeLIFO state for every set of `geom`.
    pub fn new(geom: CacheGeometry) -> Self {
        let ways = geom.ways();
        let mut candidates = vec![Candidate::FillPosition(0)];
        if ways >= 4 {
            candidates.push(Candidate::FillPosition((ways / 4) as u8));
        }
        if ways >= 2 {
            candidates.push(Candidate::FillPosition((ways / 2) as u8));
        }
        candidates.push(Candidate::LruFallback);
        let n = candidates.len();
        PeLifo {
            fill: vec![RecencyStack::new(ways); geom.sets()],
            recency: vec![RecencyStack::new(ways); geom.sets()],
            misses: vec![0; n],
            candidates,
            winner: n - 1, // start from the LRU fallback
            total_misses: 0,
            sets: geom.sets(),
        }
    }

    /// The candidate a set is a leader for, or `None` for followers.
    fn leader_of(&self, set: usize) -> Option<usize> {
        // Constituencies of 64 sets: the first `candidates.len()` offsets of
        // each constituency lead one candidate each.
        if self.sets < 64 {
            return if set < self.candidates.len() {
                Some(set)
            } else {
                None
            };
        }
        let offset = set & 63;
        if offset < self.candidates.len() {
            Some(offset)
        } else {
            None
        }
    }

    /// The eviction strategy currently used by followers (analysis hook).
    fn follower_candidate(&self) -> Candidate {
        self.candidates[self.winner]
    }

    /// Index of the winning candidate (test hook).
    pub fn winner_index(&self) -> usize {
        self.winner
    }

    fn candidate_for(&self, set: usize) -> Candidate {
        match self.leader_of(set) {
            Some(i) => self.candidates[i],
            None => self.follower_candidate(),
        }
    }
}

impl ReplacementPolicy for PeLifo {
    fn on_hit(&mut self, set: usize, way: usize) {
        // Hits promote access recency but never disturb the fill stack —
        // that is what makes it a *fill*-stack policy.
        self.recency[set].touch_mru(way);
    }

    fn victim(&mut self, set: usize) -> usize {
        match self.candidate_for(set) {
            Candidate::FillPosition(p) => self.fill[set].way_at(p),
            Candidate::LruFallback => self.recency[set].lru_way(),
        }
    }

    fn on_fill(&mut self, set: usize, way: usize) {
        self.fill[set].touch_mru(way);
        self.recency[set].touch_mru(way);
    }

    fn on_miss(&mut self, set: usize) {
        if let Some(i) = self.leader_of(set) {
            self.misses[i] += 1;
        }
        self.total_misses += 1;
        if self.total_misses.is_multiple_of(ELECTION_PERIOD) {
            // Elect the candidate with the fewest leader misses, then
            // decay. The LRU fallback (the last candidate) wins ties and
            // near-ties: an escape position must show a clear advantage
            // before followers abandon recency ordering.
            let lru = self.candidates.len() - 1;
            let (best, &best_misses) = self
                .misses
                .iter()
                .enumerate()
                .min_by_key(|&(_, &m)| m)
                .expect("at least one candidate");
            self.winner = if best_misses * 10 >= self.misses[lru] * 9 {
                lru
            } else {
                best
            };
            for m in &mut self.misses {
                *m /= 2;
            }
        }
    }

    fn name(&self) -> &str {
        "PeLIFO"
    }

    // NOT sampling-safe: the probabilistic-escape election (global
    // `misses[]` histogram, `total_misses` period counter, elected winner)
    // aggregates misses across all sets. The period counter advances once
    // per miss *anywhere*, so dropping sets stretches the election period
    // in simulated time and elects from a miss histogram with different
    // mass — unlike DIP's stationary duel, PeLIFO's elected escape depth
    // is driven by the absolute miss volume, which sampling reduces by
    // construction. Explicit refusal.
    fn supports_set_sampling(&self) -> bool {
        false
    }

    fn audit_set(&self, set: usize) -> Result<(), String> {
        if !self.fill[set].is_permutation() {
            return Err(format!(
                "PeLIFO fill stack of set {set} is not a permutation"
            ));
        }
        if !self.recency[set].is_permutation() {
            return Err(format!(
                "PeLIFO recency stack of set {set} is not a permutation"
            ));
        }
        if self.winner >= self.candidates.len() {
            return Err(format!(
                "PeLIFO winner index {} out of range for {} candidates",
                self.winner,
                self.candidates.len()
            ));
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn geom() -> CacheGeometry {
        CacheGeometry::new(256, 8, 64).unwrap()
    }

    #[test]
    fn hit_does_not_move_fill_stack() {
        let mut p = PeLifo::new(geom());
        let follower = 200; // offset 8 ≥ 4 candidates → follower
        p.on_fill(follower, 0);
        p.on_fill(follower, 1);
        let before = p.fill[follower].clone();
        p.on_hit(follower, 0);
        assert_eq!(p.fill[follower], before);
        assert_eq!(p.recency[follower].mru_way(), 0);
    }

    #[test]
    fn top_of_stack_candidate_evicts_most_recent_fill() {
        let mut p = PeLifo::new(geom());
        // Set 0 leads candidate 0 = FillPosition(0).
        assert_eq!(p.leader_of(0), Some(0));
        for w in 0..8 {
            p.on_fill(0, w);
        }
        assert_eq!(p.victim(0), 7); // most recently filled
    }

    #[test]
    fn lru_fallback_candidate_evicts_lru() {
        let mut p = PeLifo::new(geom());
        let lru_leader = p.candidates.len() - 1; // set index == candidate idx
        for w in 0..8 {
            p.on_fill(lru_leader, w);
        }
        p.on_hit(lru_leader, 0);
        assert_eq!(p.victim(lru_leader), 1);
    }

    #[test]
    fn election_picks_low_miss_candidate() {
        let mut p = PeLifo::new(geom());
        // Leaders are sets 0..4 (offsets 0..4 in constituency 0).
        // Hammer misses on every leader except candidate 1.
        for _ in 0..ELECTION_PERIOD {
            p.on_miss(0);
            p.on_miss(2);
            p.on_miss(3);
        }
        assert_eq!(p.winner_index(), 1);
    }

    #[test]
    fn small_cache_leaders() {
        let g = CacheGeometry::new(8, 4, 64).unwrap();
        let p = PeLifo::new(g);
        assert_eq!(p.leader_of(0), Some(0));
        assert!(p.leader_of(7).is_none());
    }
}
