//! The Set-level Capacity Demand Monitor (SCDM, §4.2–§4.4).

use stem_sim_core::{SaturatingCounter, SplitMix64};

use crate::ShadowSet;

/// What a monitor update asks the cache controller to do.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct MonitorEvent {
    /// The temporal counter saturated: swap the LLC set's and shadow set's
    /// replacement policies and reset SC_T (§4.4).
    pub swap_policy: bool,
}

/// Per-set monitor: one shadow set plus the SC_S (spatial) and SC_T
/// (temporal) saturating counters.
///
/// Counter protocol (§4.4):
///
/// * shadow-set hit → both counters increment;
/// * LLC-set hit → SC_T decrements always; SC_S decrements with
///   probability 1/2ⁿ;
/// * SC_S saturated → the set is a **taker**; SC_S MSB = 0 → a **giver**;
/// * SC_T saturated → swap the set/shadow policies and reset SC_T;
/// * SC_S "is reset only on system initialization".
///
/// # Examples
///
/// ```
/// use stem_llc::SetMonitor;
/// use stem_sim_core::SplitMix64;
///
/// let mut rng = SplitMix64::new(3);
/// let mut m = SetMonitor::new(16, 4, 3);
/// assert!(m.is_giver()); // fresh sets have SC_S = 0
/// assert!(!m.is_taker());
/// ```
#[derive(Debug, Clone)]
pub struct SetMonitor {
    shadow: ShadowSet,
    sc_s: SaturatingCounter,
    sc_t: SaturatingCounter,
    spatial_ratio_log2: u32,
}

impl SetMonitor {
    /// Creates a monitor for a set with `ways` ways, `k`-bit counters and
    /// ratio `n`.
    pub fn new(ways: usize, counter_bits: u32, spatial_ratio_log2: u32) -> Self {
        SetMonitor {
            shadow: ShadowSet::new(ways),
            sc_s: SaturatingCounter::new(counter_bits),
            sc_t: SaturatingCounter::new(counter_bits),
            spatial_ratio_log2,
        }
    }

    /// The shadow set (mutable, for victim insertion).
    pub fn shadow_mut(&mut self) -> &mut ShadowSet {
        &mut self.shadow
    }

    /// The shadow set.
    pub fn shadow(&self) -> &ShadowSet {
        &self.shadow
    }

    /// Records a hit in the LLC set (local or cooperative): SC_T always
    /// decrements; SC_S decrements with probability 1/2ⁿ.
    pub fn on_llc_hit(&mut self, rng: &mut SplitMix64) {
        self.sc_t.decrement();
        if rng.one_in_pow2(self.spatial_ratio_log2) {
            self.sc_s.decrement();
        }
    }

    /// Records a hit in the shadow set: both counters increment. Returns
    /// the controller request (a policy swap when SC_T saturates — the
    /// caller must then call [`acknowledge_swap`](Self::acknowledge_swap)).
    pub fn on_shadow_hit(&mut self) -> MonitorEvent {
        self.sc_s.increment();
        let swap = self.sc_t.increment();
        MonitorEvent { swap_policy: swap }
    }

    /// Records a full miss whose shadow probe also missed: SC_S is
    /// decremented with probability 1/2^(n+1).
    ///
    /// This slow bleed is an implementation refinement over the paper's
    /// §4.4 protocol: the m-bit shadow tags have a ~`ways`/2^m false-hit
    /// rate, and a *streaming* set (no hits at all, so the paper's
    /// hits-driven decrement never fires) would otherwise accumulate
    /// false shadow hits until it saturates into a spurious taker that
    /// spills useless blocks. Genuine takers have shadow-hit rates far
    /// above 1/2^(n+1) per miss, so the bleed does not affect them. See
    /// `DESIGN.md` §3.3.
    pub fn on_shadow_miss(&mut self, rng: &mut SplitMix64) {
        if rng.one_in_pow2(self.spatial_ratio_log2 + 1) {
            self.sc_s.decrement();
        }
    }

    /// Resets SC_T after the controller performed the requested swap.
    pub fn acknowledge_swap(&mut self) {
        self.sc_t.reset();
    }

    /// Whether the set is a taker: SC_S saturated, meaning "providing the
    /// LLC set with double capacity can result in at least 1/2ⁿ increase in
    /// the hit rate" (§4.4).
    pub fn is_taker(&self) -> bool {
        self.sc_s.is_saturated()
    }

    /// Whether the set is a giver: SC_S MSB is 0, i.e. "a very high hit
    /// frequency in its local capacity" (§4.4).
    pub fn is_giver(&self) -> bool {
        !self.sc_s.msb()
    }

    /// Whether the set "is still unsaturated even with receiving" (§4.6):
    /// the stricter margin used for actually accepting a spilled block —
    /// SC_S must sit in the bottom quarter of its range, so a giver whose
    /// own tail blocks have started bouncing (rising SC_S) stops
    /// receiving before the pollution feedback loop saturates.
    pub fn can_receive(&self) -> bool {
        self.sc_s.value() < self.sc_s.midpoint() / 2
    }

    /// The giver's saturation level for heap ordering (lower = less
    /// saturated = better giver).
    pub fn saturation_level(&self) -> u32 {
        self.sc_s.value()
    }

    /// Current SC_T value (test/analysis hook).
    pub fn temporal_level(&self) -> u32 {
        self.sc_t.value()
    }

    /// Checks the monitor's invariants: both counters inside their k-bit
    /// range and the shadow set structurally sound (checked mode).
    pub fn audit(&self) -> Result<(), String> {
        if self.sc_s.value() > self.sc_s.max() {
            return Err(format!(
                "SC_S value {} exceeds its {}-bit bound",
                self.sc_s.value(),
                self.sc_s.bits()
            ));
        }
        if self.sc_t.value() > self.sc_t.max() {
            return Err(format!(
                "SC_T value {} exceeds its {}-bit bound",
                self.sc_t.value(),
                self.sc_t.bits()
            ));
        }
        self.shadow.audit()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn monitor() -> SetMonitor {
        SetMonitor::new(4, 4, 3)
    }

    #[test]
    fn fresh_monitor_is_giver() {
        let m = monitor();
        assert!(m.is_giver());
        assert!(!m.is_taker());
        assert_eq!(m.saturation_level(), 0);
    }

    #[test]
    fn shadow_hits_make_taker() {
        let mut m = monitor();
        for _ in 0..15 {
            m.on_shadow_hit();
        }
        assert!(m.is_taker());
        assert!(!m.is_giver());
        assert_eq!(m.saturation_level(), 15);
    }

    #[test]
    fn giver_boundary_is_msb() {
        let mut m = monitor();
        for _ in 0..7 {
            m.on_shadow_hit();
        }
        assert!(m.is_giver()); // 7 < 8 (midpoint of 4-bit counter)
        m.on_shadow_hit();
        assert!(!m.is_giver()); // 8: MSB set
        assert!(!m.is_taker()); // but not saturated either
    }

    #[test]
    fn swap_requested_on_sct_saturation_and_reset() {
        let mut m = monitor();
        let mut swaps = 0;
        for _ in 0..15 {
            if m.on_shadow_hit().swap_policy {
                swaps += 1;
            }
        }
        assert_eq!(swaps, 1, "SC_T saturates exactly once without ack");
        m.acknowledge_swap();
        assert_eq!(m.temporal_level(), 0);
        // SC_S is NOT reset by the swap (§4.4: reset only at init).
        assert_eq!(m.saturation_level(), 15);
    }

    #[test]
    fn llc_hits_decrement_sct_always() {
        let mut m = monitor();
        let mut rng = SplitMix64::new(5);
        for _ in 0..5 {
            m.on_shadow_hit();
        }
        assert_eq!(m.temporal_level(), 5);
        for _ in 0..3 {
            m.on_llc_hit(&mut rng);
        }
        assert_eq!(m.temporal_level(), 2);
    }

    #[test]
    fn llc_hits_decrement_scs_probabilistically() {
        let mut m = monitor();
        let mut rng = SplitMix64::new(5);
        for _ in 0..15 {
            m.on_shadow_hit();
        }
        assert_eq!(m.saturation_level(), 15);
        // 8 * 2^3 = 64 hits should decrement SC_S roughly 8 times.
        for _ in 0..64 {
            m.on_llc_hit(&mut rng);
        }
        let lvl = m.saturation_level();
        assert!(lvl < 15, "SC_S never decremented");
        assert!(lvl > 1, "SC_S decremented far too often: {lvl}");
    }
}
