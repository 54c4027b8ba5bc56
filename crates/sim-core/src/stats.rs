//! Hit/miss accounting shared by every cache scheme.

use std::fmt;
use std::ops::{Add, AddAssign};

/// Aggregate event counters for one cache.
///
/// Every [`CacheModel`](crate::CacheModel) updates one of these as it
/// processes accesses. The counters cover the events the paper's evaluation
/// needs: plain hits/misses (MPKI), *cooperative* hits and second-lookup
/// misses (the SBC/STEM latency classes of §5.1), spills/receives (inter-set
/// cooperation traffic), evictions and write-backs.
///
/// # Examples
///
/// ```
/// use stem_sim_core::CacheStats;
///
/// let mut s = CacheStats::default();
/// s.record_local_hit();
/// s.record_local_miss();
/// assert_eq!(s.accesses(), 2);
/// assert_eq!(s.miss_rate(), 0.5);
/// ```
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    local_hits: u64,
    coop_hits: u64,
    local_misses: u64,
    coop_misses: u64,
    evictions: u64,
    writebacks: u64,
    spills: u64,
    receives: u64,
    policy_swaps: u64,
    couplings: u64,
    decouplings: u64,
}

impl CacheStats {
    /// Creates zeroed statistics.
    pub fn new() -> Self {
        CacheStats::default()
    }

    /// Records a hit satisfied by the block's home set.
    #[inline]
    pub fn record_local_hit(&mut self) {
        self.local_hits += 1;
    }

    /// Records a hit satisfied by a cooperative (coupled) set.
    #[inline]
    pub fn record_coop_hit(&mut self) {
        self.coop_hits += 1;
    }

    /// Records a miss that probed only the home set.
    #[inline]
    pub fn record_local_miss(&mut self) {
        self.local_misses += 1;
    }

    /// Records a miss that probed the home set and a cooperative set.
    #[inline]
    pub fn record_coop_miss(&mut self) {
        self.coop_misses += 1;
    }

    /// Records an eviction of a valid block.
    #[inline]
    pub fn record_eviction(&mut self) {
        self.evictions += 1;
    }

    /// Records a write-back of a dirty block.
    #[inline]
    pub fn record_writeback(&mut self) {
        self.writebacks += 1;
    }

    /// Records a victim block spilled to a cooperative set.
    #[inline]
    pub fn record_spill(&mut self) {
        self.spills += 1;
    }

    /// Records a victim block received from a coupled set.
    #[inline]
    pub fn record_receive(&mut self) {
        self.receives += 1;
    }

    /// Records a per-set replacement-policy swap (STEM's SC_T event).
    #[inline]
    pub fn record_policy_swap(&mut self) {
        self.policy_swaps += 1;
    }

    /// Records the coupling of a taker/giver (or source/destination) pair.
    #[inline]
    pub fn record_coupling(&mut self) {
        self.couplings += 1;
    }

    /// Records the dissolution of a coupled pair.
    #[inline]
    pub fn record_decoupling(&mut self) {
        self.decouplings += 1;
    }

    /// Total hits (local + cooperative).
    #[inline]
    pub fn hits(&self) -> u64 {
        self.local_hits + self.coop_hits
    }

    /// Total misses (local + after-cooperative-probe).
    #[inline]
    pub fn misses(&self) -> u64 {
        self.local_misses + self.coop_misses
    }

    /// Total accesses.
    #[inline]
    pub fn accesses(&self) -> u64 {
        self.hits() + self.misses()
    }

    /// Hits satisfied by the home set.
    #[inline]
    pub fn local_hits(&self) -> u64 {
        self.local_hits
    }

    /// Hits satisfied by a cooperative set (priced at the paper's
    /// second-access latency).
    #[inline]
    pub fn coop_hits(&self) -> u64 {
        self.coop_hits
    }

    /// Misses that probed only the home set.
    #[inline]
    pub fn local_misses(&self) -> u64 {
        self.local_misses
    }

    /// Misses that also probed a cooperative set.
    #[inline]
    pub fn coop_misses(&self) -> u64 {
        self.coop_misses
    }

    /// Valid-block evictions.
    #[inline]
    pub fn evictions(&self) -> u64 {
        self.evictions
    }

    /// Dirty write-backs.
    #[inline]
    pub fn writebacks(&self) -> u64 {
        self.writebacks
    }

    /// Victims spilled to cooperative sets.
    #[inline]
    pub fn spills(&self) -> u64 {
        self.spills
    }

    /// Victims received from coupled sets.
    #[inline]
    pub fn receives(&self) -> u64 {
        self.receives
    }

    /// Per-set policy swaps.
    #[inline]
    pub fn policy_swaps(&self) -> u64 {
        self.policy_swaps
    }

    /// Pairs formed.
    #[inline]
    pub fn couplings(&self) -> u64 {
        self.couplings
    }

    /// Pairs dissolved.
    #[inline]
    pub fn decouplings(&self) -> u64 {
        self.decouplings
    }

    /// Miss rate in `[0, 1]`; 0 for an untouched cache.
    pub fn miss_rate(&self) -> f64 {
        let acc = self.accesses();
        if acc == 0 {
            0.0
        } else {
            self.misses() as f64 / acc as f64
        }
    }

    /// The four outcome counts (local and cooperative hits and misses)
    /// accumulated since `earlier`, an earlier copy of these statistics;
    /// every other counter of the result is zero.
    ///
    /// This is how a replayed range is measured: copy the statistics,
    /// replay, and difference. The outcome counts are all the §5.1 latency
    /// algebra ([`TimingParams::l2_cycles`](crate::TimingParams::l2_cycles))
    /// needs.
    ///
    /// # Panics
    ///
    /// Panics (in debug builds) if a counter of `earlier` exceeds this
    /// one's, i.e. `earlier` is not an earlier copy.
    ///
    /// # Examples
    ///
    /// ```
    /// use stem_sim_core::CacheStats;
    ///
    /// let mut s = CacheStats::default();
    /// s.record_local_hit();
    /// let before = s;
    /// s.record_coop_miss();
    /// s.record_eviction();
    /// let delta = s.outcomes_since(&before);
    /// assert_eq!((delta.hits(), delta.coop_misses(), delta.evictions()), (0, 1, 0));
    /// ```
    pub fn outcomes_since(&self, earlier: &CacheStats) -> CacheStats {
        CacheStats {
            local_hits: self.local_hits - earlier.local_hits,
            coop_hits: self.coop_hits - earlier.coop_hits,
            local_misses: self.local_misses - earlier.local_misses,
            coop_misses: self.coop_misses - earlier.coop_misses,
            ..CacheStats::default()
        }
    }

    /// Misses per 1000 instructions, the paper's primary metric.
    pub fn mpki(&self, instructions: u64) -> f64 {
        if instructions == 0 {
            0.0
        } else {
            self.misses() as f64 * 1000.0 / instructions as f64
        }
    }
}

impl Add for CacheStats {
    type Output = CacheStats;

    fn add(self, rhs: CacheStats) -> CacheStats {
        CacheStats {
            local_hits: self.local_hits + rhs.local_hits,
            coop_hits: self.coop_hits + rhs.coop_hits,
            local_misses: self.local_misses + rhs.local_misses,
            coop_misses: self.coop_misses + rhs.coop_misses,
            evictions: self.evictions + rhs.evictions,
            writebacks: self.writebacks + rhs.writebacks,
            spills: self.spills + rhs.spills,
            receives: self.receives + rhs.receives,
            policy_swaps: self.policy_swaps + rhs.policy_swaps,
            couplings: self.couplings + rhs.couplings,
            decouplings: self.decouplings + rhs.decouplings,
        }
    }
}

impl AddAssign for CacheStats {
    fn add_assign(&mut self, rhs: CacheStats) {
        *self = *self + rhs;
    }
}

impl fmt::Display for CacheStats {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "accesses={} hits={} (coop {}) misses={} (coop-probed {}) miss-rate={:.4}",
            self.accesses(),
            self.hits(),
            self.coop_hits,
            self.misses(),
            self.coop_misses,
            self.miss_rate()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counting_and_rates() {
        let mut s = CacheStats::new();
        for _ in 0..3 {
            s.record_local_hit();
        }
        s.record_coop_hit();
        s.record_local_miss();
        s.record_coop_miss();
        assert_eq!(s.hits(), 4);
        assert_eq!(s.misses(), 2);
        assert_eq!(s.accesses(), 6);
        assert!((s.miss_rate() - 2.0 / 6.0).abs() < 1e-12);
    }

    #[test]
    fn mpki_per_1k_instructions() {
        let mut s = CacheStats::new();
        for _ in 0..5 {
            s.record_local_miss();
        }
        assert_eq!(s.mpki(1000), 5.0);
        assert_eq!(s.mpki(2000), 2.5);
        assert_eq!(s.mpki(0), 0.0);
    }

    #[test]
    fn empty_stats_have_zero_rates() {
        let s = CacheStats::default();
        assert_eq!(s.miss_rate(), 0.0);
        assert_eq!(s.accesses(), 0);
    }

    #[test]
    fn add_merges_all_fields() {
        let mut a = CacheStats::new();
        a.record_local_hit();
        a.record_spill();
        a.record_coupling();
        let mut b = CacheStats::new();
        b.record_coop_miss();
        b.record_receive();
        b.record_policy_swap();
        b.record_decoupling();
        b.record_eviction();
        b.record_writeback();
        let c = a + b;
        assert_eq!(c.hits(), 1);
        assert_eq!(c.misses(), 1);
        assert_eq!(c.spills(), 1);
        assert_eq!(c.receives(), 1);
        assert_eq!(c.policy_swaps(), 1);
        assert_eq!(c.couplings(), 1);
        assert_eq!(c.decouplings(), 1);
        assert_eq!(c.evictions(), 1);
        assert_eq!(c.writebacks(), 1);
        let mut d = a;
        d += b;
        assert_eq!(d, c);
    }

    #[test]
    fn outcomes_since_differences_only_the_outcome_counters() {
        let mut s = CacheStats::new();
        s.record_local_hit();
        s.record_spill();
        let before = s;
        s.record_local_hit();
        s.record_coop_hit();
        s.record_local_miss();
        s.record_coop_miss();
        s.record_coop_miss();
        s.record_spill();
        s.record_writeback();
        let d = s.outcomes_since(&before);
        assert_eq!(d.local_hits(), 1);
        assert_eq!(d.coop_hits(), 1);
        assert_eq!(d.local_misses(), 1);
        assert_eq!(d.coop_misses(), 2);
        assert_eq!(d.spills() + d.writebacks(), 0);
        assert_eq!(s.outcomes_since(&s), CacheStats::default());
    }

    #[test]
    fn display_is_nonempty() {
        assert!(!CacheStats::default().to_string().is_empty());
    }
}
