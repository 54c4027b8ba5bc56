//! k-bit saturating counters.
//!
//! STEM's set-level capacity-demand monitor uses two 4-bit saturating
//! counters per set (`SC_S` and `SC_T`, §4.4, Table 3); SBC's saturation
//! levels and DIP's PSEL are also saturating counters, so the type lives in
//! the shared substrate.

use std::fmt;

/// An unsigned saturating counter of configurable bit width.
///
/// The counter clamps at `0` and `2^bits - 1` instead of wrapping.
///
/// # Examples
///
/// ```
/// use stem_sim_core::SaturatingCounter;
///
/// let mut sc = SaturatingCounter::new(4); // the paper's k = 4
/// assert_eq!(sc.max(), 15);
/// for _ in 0..20 { sc.increment(); }
/// assert!(sc.is_saturated());
/// assert!(sc.msb());
/// sc.reset();
/// assert_eq!(sc.value(), 0);
/// assert!(!sc.msb());
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct SaturatingCounter {
    value: u32,
    bits: u32,
}

impl SaturatingCounter {
    /// Creates a zeroed counter with the given bit width.
    ///
    /// # Panics
    ///
    /// Panics if `bits` is 0 or greater than 31.
    pub fn new(bits: u32) -> Self {
        assert!((1..=31).contains(&bits), "counter width must be in 1..=31");
        SaturatingCounter { value: 0, bits }
    }

    /// The maximum representable value, `2^bits - 1`.
    #[inline]
    pub fn max(&self) -> u32 {
        (1u32 << self.bits) - 1
    }

    /// The midpoint `2^(bits-1)`, i.e. the smallest value whose MSB is set.
    #[inline]
    pub fn midpoint(&self) -> u32 {
        1u32 << (self.bits - 1)
    }

    /// Current value.
    #[inline]
    pub fn value(&self) -> u32 {
        self.value
    }

    /// Bit width.
    #[inline]
    pub fn bits(&self) -> u32 {
        self.bits
    }

    /// Increments, clamping at the maximum. Returns `true` if the counter is
    /// saturated after the update.
    #[inline]
    pub fn increment(&mut self) -> bool {
        if self.value < self.max() {
            self.value += 1;
        }
        self.is_saturated()
    }

    /// Decrements, clamping at zero.
    #[inline]
    pub fn decrement(&mut self) {
        self.value = self.value.saturating_sub(1);
    }

    /// Whether the counter holds its maximum value.
    ///
    /// STEM identifies a set as a *taker* when its spatial counter
    /// saturates, and swaps a set's replacement policy when its temporal
    /// counter saturates (§4.4).
    #[inline]
    pub fn is_saturated(&self) -> bool {
        self.value == self.max()
    }

    /// The most significant bit.
    ///
    /// STEM identifies a set as a *giver* when the MSB of its spatial
    /// counter is 0 (§4.4), and a giver may receive foreign blocks only
    /// while this bit stays 0 (§4.6).
    #[inline]
    pub fn msb(&self) -> bool {
        self.value >= self.midpoint()
    }

    /// Resets to zero.
    #[inline]
    pub fn reset(&mut self) {
        self.value = 0;
    }

    /// Sets the value, clamping to the representable range.
    #[inline]
    pub fn set(&mut self, value: u32) {
        self.value = value.min(self.max());
    }
}

impl Default for SaturatingCounter {
    /// A 4-bit counter, the paper's `k = 4` (Table 3).
    fn default() -> Self {
        SaturatingCounter::new(4)
    }
}

impl fmt::Display for SaturatingCounter {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}/{}", self.value, self.max())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn clamps_at_bounds() {
        let mut c = SaturatingCounter::new(2);
        c.decrement();
        assert_eq!(c.value(), 0);
        for _ in 0..10 {
            c.increment();
        }
        assert_eq!(c.value(), 3);
        assert!(c.is_saturated());
    }

    #[test]
    fn msb_threshold_is_midpoint() {
        let mut c = SaturatingCounter::new(4);
        for _ in 0..7 {
            c.increment();
        }
        assert!(!c.msb());
        c.increment(); // 8 = midpoint of 4-bit counter
        assert!(c.msb());
    }

    #[test]
    fn increment_reports_saturation() {
        let mut c = SaturatingCounter::new(1);
        assert!(c.increment()); // 1-bit counter saturates at 1
        assert!(c.increment());
    }

    #[test]
    fn set_clamps() {
        let mut c = SaturatingCounter::new(4);
        c.set(99);
        assert_eq!(c.value(), 15);
        c.set(3);
        assert_eq!(c.value(), 3);
    }

    #[test]
    #[should_panic(expected = "counter width")]
    fn zero_width_panics() {
        let _ = SaturatingCounter::new(0);
    }

    #[test]
    fn default_is_4_bit() {
        let c = SaturatingCounter::default();
        assert_eq!(c.bits(), 4);
        assert_eq!(c.max(), 15);
    }

    #[test]
    fn display_shows_value_and_max() {
        let mut c = SaturatingCounter::new(4);
        c.set(3);
        assert_eq!(c.to_string(), "3/15");
    }
}
