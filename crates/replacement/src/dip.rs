//! Dynamic Insertion Policy (Qureshi et al., ISCA'07) with
//! complement-select set dueling.

use stem_sim_core::{CacheGeometry, SaturatingCounter, SplitMix64};

use crate::{RecencyStack, ReplacementPolicy, BIP_DEFAULT_THROTTLE_LOG2};

/// Which dueling constituency a set belongs to.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum DuelAssignment {
    /// Dedicated to the LRU insertion policy; its misses increment PSEL.
    LeaderLru,
    /// Dedicated to the BIP insertion policy; its misses decrement PSEL.
    LeaderBip,
    /// Follows the currently winning policy (PSEL's MSB).
    Follower,
}

/// The complement-select sampling function that assigns sets to duelists.
///
/// For caches with at least 64 sets this is the constituency scheme of the
/// DIP paper: split the set index into a region (upper bits) and an offset
/// (lower bits); a set leads LRU when `offset == region` and leads BIP when
/// `offset == !region`, giving `sets/32`-ish leaders per policy spread over
/// the whole cache. Small caches (tests, the Fig. 2 synthetic examples)
/// fall back to a modulo assignment.
#[derive(Debug, Clone, Copy)]
pub struct Duelists {
    sets: usize,
    offset_bits: u32,
}

impl Duelists {
    /// Creates the assignment for a cache with `sets` sets.
    pub fn new(sets: usize) -> Self {
        debug_assert!(sets.is_power_of_two());
        let index_bits = sets.trailing_zeros();
        // Use 32-set constituencies when the cache is big enough, i.e.
        // 5 offset bits; otherwise halve as needed.
        let offset_bits = (index_bits / 2).min(5);
        Duelists { sets, offset_bits }
    }

    /// The constituency of `set`.
    pub fn assignment(&self, set: usize) -> DuelAssignment {
        if self.offset_bits == 0 {
            // Degenerate tiny cache: everyone follows (PSEL stays put, so
            // followers act as LRU).
            return DuelAssignment::Follower;
        }
        let mask = (1usize << self.offset_bits) - 1;
        let offset = set & mask;
        let region = (set >> self.offset_bits) & mask;
        if offset == region {
            DuelAssignment::LeaderLru
        } else if offset == (!region & mask) {
            DuelAssignment::LeaderBip
        } else {
            DuelAssignment::Follower
        }
    }

    /// Number of sets covered.
    pub fn sets(&self) -> usize {
        self.sets
    }
}

/// DIP: duel LRU against BIP on dedicated leader sets; follower sets use
/// whichever insertion policy currently wins the 10-bit PSEL counter.
///
/// This is the *application-level* adaptivity the paper contrasts with
/// STEM's per-set adaptivity: "the winning policy of the sample sets is not
/// (necessarily) suitable for the non-sample LLC sets" (§5.2).
///
/// # Examples
///
/// ```
/// use stem_replacement::{Dip, SetAssocCache};
/// use stem_sim_core::{CacheGeometry, CacheModel};
///
/// # fn main() -> Result<(), stem_sim_core::GeometryError> {
/// let geom = CacheGeometry::new(1024, 16, 64)?;
/// let cache = SetAssocCache::new(geom, Box::new(Dip::new(geom)));
/// assert_eq!(cache.name(), "DIP");
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct Dip {
    sets: Vec<RecencyStack>,
    duelists: Duelists,
    psel: SaturatingCounter,
    throttle_log2: u32,
    rng: SplitMix64,
}

/// PSEL width used by the DIP paper.
pub(crate) const PSEL_BITS: u32 = 10;

impl Dip {
    /// Creates DIP state with the standard 10-bit PSEL (initialised to the
    /// midpoint) and 1/32 BIP throttle.
    pub fn new(geom: CacheGeometry) -> Self {
        Dip::with_seed(geom, 0xD1D5_EED5)
    }

    /// Creates DIP with an explicit RNG seed (for the BIP throttle).
    pub fn with_seed(geom: CacheGeometry, seed: u64) -> Self {
        let mut psel = SaturatingCounter::new(PSEL_BITS);
        // Start just below the midpoint so a fresh cache behaves as LRU
        // until the duel produces evidence.
        psel.set(psel.midpoint() - 1);
        Dip {
            sets: vec![RecencyStack::new(geom.ways()); geom.sets()],
            duelists: Duelists::new(geom.sets()),
            psel,
            throttle_log2: BIP_DEFAULT_THROTTLE_LOG2,
            rng: SplitMix64::new(seed),
        }
    }

    /// Whether BIP is currently winning the duel (PSEL MSB set: LRU leaders
    /// have been missing more).
    pub fn bip_winning(&self) -> bool {
        self.psel.msb()
    }

    /// Current PSEL value (test/analysis hook).
    pub fn psel_value(&self) -> u32 {
        self.psel.value()
    }

    /// The dueling constituency of `set`.
    pub fn assignment(&self, set: usize) -> DuelAssignment {
        self.duelists.assignment(set)
    }

    fn uses_bip_insertion(&self, set: usize) -> bool {
        match self.duelists.assignment(set) {
            DuelAssignment::LeaderLru => false,
            DuelAssignment::LeaderBip => true,
            DuelAssignment::Follower => self.bip_winning(),
        }
    }
}

impl ReplacementPolicy for Dip {
    fn on_hit(&mut self, set: usize, way: usize) {
        self.sets[set].touch_mru(way);
    }

    fn victim(&mut self, set: usize) -> usize {
        self.sets[set].lru_way()
    }

    fn on_fill(&mut self, set: usize, way: usize) {
        if self.uses_bip_insertion(set) && !self.rng.one_in_pow2(self.throttle_log2) {
            self.sets[set].demote_lru(way);
        } else {
            self.sets[set].touch_mru(way);
        }
    }

    fn on_miss(&mut self, set: usize) {
        match self.duelists.assignment(set) {
            DuelAssignment::LeaderLru => {
                self.psel.increment();
            }
            DuelAssignment::LeaderBip => {
                self.psel.decrement();
            }
            DuelAssignment::Follower => {}
        }
    }

    fn name(&self) -> &str {
        "DIP"
    }

    // The global PSEL is bumped by leader-set misses and read by every
    // follower fill, so DIP's per-set state is not isolated. Sampled replay
    // is still meaningful for DIP, as a documented approximation:
    // set dueling is itself a sampling estimator ("the behaviour of a few
    // leader sets predicts the whole cache"), so training PSEL on the
    // leader sets that survive a pair-preserving strided sample is the
    // same estimator over a smaller population. The duel's verdict — and
    // therefore follower insertion depth — may differ from the full-cache
    // duel when the surviving leaders are unrepresentative; that error is
    // measured per benchmark/rate and bounded in BENCH_sampling.json
    // (DESIGN.md §14). At rate 1 every leader survives and the replay is
    // bit-identical to serial.
    fn supports_set_sampling(&self) -> bool {
        true
    }

    fn as_any_mut(&mut self) -> Option<&mut dyn std::any::Any> {
        Some(self)
    }

    fn audit_set(&self, set: usize) -> Result<(), String> {
        if !self.sets[set].is_permutation() {
            return Err(format!(
                "DIP recency stack of set {set} is not a permutation"
            ));
        }
        if self.psel.value() > self.psel.max() {
            return Err(format!(
                "DIP PSEL value {} exceeds its {}-bit maximum {}",
                self.psel.value(),
                self.psel.bits(),
                self.psel.max()
            ));
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn geom() -> CacheGeometry {
        CacheGeometry::new(1024, 16, 64).unwrap()
    }

    #[test]
    fn duelists_partition_sanely() {
        let d = Duelists::new(2048);
        let mut lru = 0;
        let mut bip = 0;
        let mut follow = 0;
        for s in 0..2048 {
            match d.assignment(s) {
                DuelAssignment::LeaderLru => lru += 1,
                DuelAssignment::LeaderBip => bip += 1,
                DuelAssignment::Follower => follow += 1,
            }
        }
        assert_eq!(lru, bip, "leader groups must be balanced");
        assert!(lru >= 32, "need a meaningful sample: got {lru}");
        assert!(follow > lru * 10, "followers must dominate");
    }

    #[test]
    fn duelists_disjoint() {
        // No set can lead both policies (offset == region == !region is
        // impossible for offset_bits >= 1).
        let d = Duelists::new(256);
        for s in 0..256 {
            let a = d.assignment(s);
            // assignment is a function, so just ensure it's stable
            assert_eq!(a, d.assignment(s));
        }
    }

    #[test]
    fn psel_moves_toward_bip_on_lru_leader_misses() {
        let mut dip = Dip::new(geom());
        let lru_leader = (0..1024)
            .find(|&s| dip.assignment(s) == DuelAssignment::LeaderLru)
            .unwrap();
        assert!(!dip.bip_winning());
        for _ in 0..600 {
            dip.on_miss(lru_leader);
        }
        assert!(dip.bip_winning(), "PSEL should have saturated toward BIP");
    }

    #[test]
    fn psel_moves_toward_lru_on_bip_leader_misses() {
        let mut dip = Dip::new(geom());
        let bip_leader = (0..1024)
            .find(|&s| dip.assignment(s) == DuelAssignment::LeaderBip)
            .unwrap();
        for _ in 0..600 {
            dip.on_miss(bip_leader);
        }
        assert!(!dip.bip_winning());
        assert_eq!(dip.psel_value(), 0);
    }

    #[test]
    fn follower_misses_leave_psel_alone() {
        let mut dip = Dip::new(geom());
        let follower = (0..1024)
            .find(|&s| dip.assignment(s) == DuelAssignment::Follower)
            .unwrap();
        let before = dip.psel_value();
        for _ in 0..100 {
            dip.on_miss(follower);
        }
        assert_eq!(dip.psel_value(), before);
    }

    #[test]
    fn lru_leader_set_always_mru_inserts() {
        let mut dip = Dip::new(geom());
        let lru_leader = (0..1024)
            .find(|&s| dip.assignment(s) == DuelAssignment::LeaderLru)
            .unwrap();
        for _ in 0..100 {
            dip.on_fill(lru_leader, 5);
            assert_ne!(dip.victim(lru_leader), 5);
        }
    }
}
