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

/// Latencies of the simulated memory system, in core cycles.
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
/// assert_eq!(t.total_latency(AccessResult::MissLocal), 1 + 6 + 300);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TimingParams {
    l1_hit: u64,
    l2_tag: u64,
    l2_data: u64,
    memory: u64,
}

impl TimingParams {
    /// The paper's configuration (Table 1 / §5.1): L1 hit 1 cycle (2 for
    /// data; we use the instruction-side 1 plus model the extra data cycle
    /// in the hierarchy crate), L2 tag 6, L2 data 8, memory 300.
    pub fn micro2010() -> Self {
        TimingParams {
            l1_hit: 1,
            l2_tag: 6,
            l2_data: 8,
            memory: 300,
        }
    }

    /// L1 hit latency in cycles.
    #[inline]
    pub fn l1_hit(&self) -> u64 {
        self.l1_hit
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

    /// Total latency of an L1-missing access: L1 probe + L2 cycles + memory
    /// on an L2 miss.
    pub fn total_latency(&self, result: AccessResult) -> u64 {
        let mem = if result.is_hit() { 0 } else { self.memory };
        self.l1_hit + self.l2_latency(result) + mem
    }
}

impl Default for TimingParams {
    fn default() -> Self {
        TimingParams::micro2010()
    }
}

/// The latency breakdown of one access through the hierarchy.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct AccessLatency {
    /// Cycles to probe the L1.
    pub l1: u64,
    /// Cycles spent in the L2 (0 when the L1 hit).
    pub l2: u64,
    /// Cycles spent in main memory (0 unless the L2 missed).
    pub memory: u64,
}

impl AccessLatency {
    /// Total cycles.
    #[inline]
    pub fn total(&self) -> u64 {
        self.l1 + self.l2 + self.memory
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
    fn total_latency_adds_memory_only_on_miss() {
        let t = TimingParams::micro2010();
        assert_eq!(t.total_latency(AccessResult::HitLocal), 15);
        assert_eq!(t.total_latency(AccessResult::HitCooperative), 21);
        assert_eq!(t.total_latency(AccessResult::MissLocal), 307);
        assert_eq!(t.total_latency(AccessResult::MissCooperative), 313);
    }

    #[test]
    fn latencies_follow_every_field() {
        let t = TimingParams {
            l1_hit: 2,
            l2_tag: 5,
            l2_data: 9,
            memory: 200,
        };
        assert_eq!(t.l1_hit(), 2);
        assert_eq!(t.l2_tag(), 5);
        assert_eq!(t.l2_data(), 9);
        assert_eq!(t.memory(), 200);
        assert_eq!(t.l2_latency(AccessResult::HitLocal), 14);
        assert_eq!(t.total_latency(AccessResult::MissLocal), 2 + 5 + 200);
    }

    #[test]
    fn access_latency_total() {
        let l = AccessLatency {
            l1: 1,
            l2: 14,
            memory: 0,
        };
        assert_eq!(l.total(), 15);
        assert_eq!(AccessLatency::default().total(), 0);
    }
}
