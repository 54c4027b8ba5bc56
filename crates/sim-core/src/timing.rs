//! The latency algebra of the paper's evaluation (§5.1, Table 1).
//!
//! The L2 has decoupled tag and data stores. The paper prices L2 outcomes
//! as follows (with the default 6-cycle tag-store and 8-cycle data-store
//! latencies):
//!
//! | outcome | composition | cycles |
//! |---|---|---|
//! | local hit | tag + data | 14 |
//! | local miss | tag | 6 (+ memory) |
//! | cooperative hit | 2 × tag + data | 20 |
//! | cooperative miss | 2 × tag | 12 (+ memory) |
//!
//! Only SBC and STEM can produce the cooperative rows, which is why MPKI
//! alone "is not a direct metric for comparing throughput" (§5.2) and the
//! paper also reports AMAT and CPI.

use crate::model::AccessResult;
use crate::CacheStats;

/// Latencies of the L2 and main memory, in core cycles. The L1 hit
/// latency is the hierarchy's (`SystemConfig`, Table 1: 2 cycles).
///
/// Construct with [`TimingParams::micro2010`], the paper's Table 1
/// values.
///
/// # Examples
///
/// ```
/// use stem_sim_core::{AccessResult, TimingParams};
///
/// let t = TimingParams::micro2010();
/// assert_eq!(t.l2_latency(AccessResult::HitLocal), 14);
/// assert_eq!(t.l2_latency(AccessResult::MissCooperative), 12);
/// assert_eq!(t.memory(), 300);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TimingParams {
    l2_tag: u64,
    l2_data: u64,
    memory: u64,
}

impl TimingParams {
    /// The paper's configuration (Table 1 / §5.1): L2 tag 6, L2 data 8,
    /// memory 300.
    pub fn micro2010() -> Self {
        TimingParams {
            l2_tag: 6,
            l2_data: 8,
            memory: 300,
        }
    }

    /// L2 tag-store latency in cycles.
    #[inline]
    pub fn l2_tag(&self) -> u64 {
        self.l2_tag
    }

    /// L2 data-store latency in cycles.
    #[inline]
    pub fn l2_data(&self) -> u64 {
        self.l2_data
    }

    /// Main-memory latency in cycles.
    #[inline]
    pub fn memory(&self) -> u64 {
        self.memory
    }

    /// Cycles spent inside the L2 for the given access outcome, following
    /// §5.1 exactly (see the module docs for the composition table).
    pub fn l2_latency(&self, result: AccessResult) -> u64 {
        match result {
            AccessResult::HitLocal => self.l2_tag + self.l2_data,
            AccessResult::HitCooperative => 2 * self.l2_tag + self.l2_data,
            AccessResult::MissLocal => self.l2_tag,
            AccessResult::MissCooperative => 2 * self.l2_tag,
        }
    }

    /// Cycles the L2 and main memory add over the L2 accesses counted in
    /// `l2`: each outcome count times its [`l2_latency`](Self::l2_latency),
    /// plus [`memory`](Self::memory) for every miss. Only the four outcome
    /// counters are read, so the result of
    /// [`CacheStats::outcomes_since`] prices a replayed range exactly as
    /// summing the per-access latencies would.
    ///
    /// # Examples
    ///
    /// ```
    /// use stem_sim_core::{CacheStats, TimingParams};
    ///
    /// let mut s = CacheStats::default();
    /// s.record_local_hit(); // 14
    /// s.record_coop_miss(); // 12 + 300
    /// assert_eq!(TimingParams::micro2010().l2_cycles(&s), 326);
    /// ```
    pub fn l2_cycles(&self, l2: &CacheStats) -> u64 {
        l2.local_hits() * self.l2_latency(AccessResult::HitLocal)
            + l2.coop_hits() * self.l2_latency(AccessResult::HitCooperative)
            + l2.local_misses() * self.l2_latency(AccessResult::MissLocal)
            + l2.coop_misses() * self.l2_latency(AccessResult::MissCooperative)
            + l2.misses() * self.memory
    }
}

impl Default for TimingParams {
    fn default() -> Self {
        TimingParams::micro2010()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_latency_table() {
        let t = TimingParams::micro2010();
        // §5.1: hit = one tag + one data = 14; miss = one tag = 6;
        // coop miss = two tags = 12; coop hit = two tags + data = 20.
        assert_eq!(t.l2_latency(AccessResult::HitLocal), 14);
        assert_eq!(t.l2_latency(AccessResult::MissLocal), 6);
        assert_eq!(t.l2_latency(AccessResult::MissCooperative), 12);
        assert_eq!(t.l2_latency(AccessResult::HitCooperative), 20);
    }

    #[test]
    fn l2_cycles_sum_the_per_access_latencies() {
        let t = TimingParams::micro2010();
        let mut s = CacheStats::new();
        let mut per_access = 0;
        for (r, n) in [
            (AccessResult::HitLocal, 5),
            (AccessResult::HitCooperative, 3),
            (AccessResult::MissLocal, 7),
            (AccessResult::MissCooperative, 2),
        ] {
            for _ in 0..n {
                match r {
                    AccessResult::HitLocal => s.record_local_hit(),
                    AccessResult::HitCooperative => s.record_coop_hit(),
                    AccessResult::MissLocal => s.record_local_miss(),
                    AccessResult::MissCooperative => s.record_coop_miss(),
                }
                per_access += t.l2_latency(r) + if r.is_miss() { t.memory() } else { 0 };
            }
            s.record_eviction();
        }
        assert_eq!(t.l2_cycles(&s), per_access);
        assert_eq!(t.l2_cycles(&CacheStats::default()), 0);
    }

    #[test]
    fn latencies_follow_every_field() {
        let t = TimingParams {
            l2_tag: 5,
            l2_data: 9,
            memory: 200,
        };
        assert_eq!(t.l2_tag(), 5);
        assert_eq!(t.l2_data(), 9);
        assert_eq!(t.memory(), 200);
        assert_eq!(t.l2_latency(AccessResult::HitLocal), 14);
        let mut s = CacheStats::new();
        s.record_local_miss();
        assert_eq!(t.l2_cycles(&s), 5 + 200);
    }
}
