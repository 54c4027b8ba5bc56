//! Miss-rate curves (MRC): miss rate as a function of associativity, from
//! a single stack-distance pass.
//!
//! An LRU cache of `d` ways hits exactly the accesses whose per-set stack
//! distance is ≤ `d`, so one profiling pass yields the whole Fig. 3-style
//! LRU curve at once — the workhorse behind quick capacity planning and a
//! cross-check for the sweep binaries (the simulated LRU points must land
//! on this curve).

use stem_sim_core::{CacheGeometry, DecodedTrace, LineAddr};

use crate::StackDistance;

/// An LRU miss-rate curve over associativities `1..=max_ways` for a fixed
/// set count.
///
/// # Examples
///
/// ```
/// use stem_analysis::MissRateCurve;
/// use stem_sim_core::{Access, Address, CacheGeometry, DecodedTrace, Trace};
///
/// let geom = CacheGeometry::new(4, 4, 64).unwrap();
/// let trace: Trace = [0u64, 64, 0, 64].iter()
///     .map(|&a| Access::read(Address::new(a))).collect();
/// let mrc = MissRateCurve::profile(geom, 8, &DecodedTrace::decode(&trace, geom));
/// // Two cold misses, two distance-1 hits at any associativity.
/// assert_eq!(mrc.miss_rate(1), 0.5);
/// assert_eq!(mrc.miss_rate(8), 0.5);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct MissRateCurve {
    /// `hits_at[d]` = accesses with stack distance exactly `d+1`.
    hits_at: Vec<u64>,
    /// Accesses with no measurable reuse (cold or beyond `max_ways`).
    cold: u64,
    accesses: u64,
}

impl MissRateCurve {
    /// Profiles `trace` against the set organisation of `geom`, measuring
    /// distances up to `max_ways`.
    ///
    /// # Panics
    ///
    /// Panics if `max_ways` is zero or the trace's line size differs from
    /// `geom`'s.
    pub fn profile(geom: CacheGeometry, max_ways: usize, trace: &DecodedTrace) -> Self {
        assert!(max_ways > 0, "need at least one way");
        let mut sd = StackDistance::new(geom, max_ways);
        let mut hits_at = vec![0u64; max_ways];
        let mut cold = 0u64;
        for &line in trace.lines_for(geom) {
            let line = LineAddr::new(line);
            match sd.access_line(line, geom.set_index_of_line(line)) {
                Some(d) if d <= max_ways => hits_at[d - 1] += 1,
                _ => cold += 1,
            }
        }
        MissRateCurve {
            hits_at,
            cold,
            accesses: trace.len() as u64,
        }
    }

    /// The largest associativity the curve covers.
    pub fn max_ways(&self) -> usize {
        self.hits_at.len()
    }

    /// Total profiled accesses.
    pub fn accesses(&self) -> u64 {
        self.accesses
    }

    /// LRU miss count at associativity `ways` (clamped to the profiled
    /// bound).
    pub fn misses(&self, ways: usize) -> u64 {
        let ways = ways.min(self.max_ways());
        let hits: u64 = self.hits_at[..ways].iter().sum();
        self.accesses - hits
    }

    /// LRU miss rate at associativity `ways`.
    pub fn miss_rate(&self, ways: usize) -> f64 {
        if self.accesses == 0 {
            0.0
        } else {
            self.misses(ways) as f64 / self.accesses as f64
        }
    }

    /// The whole curve as `(ways, miss_rate)` points.
    pub fn points(&self) -> Vec<(usize, f64)> {
        (1..=self.max_ways())
            .map(|w| (w, self.miss_rate(w)))
            .collect()
    }

    /// The smallest associativity whose miss rate is within `epsilon` of
    /// the asymptote (the curve's value at `max_ways`) — a workload-level
    /// "capacity demand" summary.
    pub fn knee(&self, epsilon: f64) -> usize {
        let floor = self.miss_rate(self.max_ways());
        (1..=self.max_ways())
            .find(|&w| self.miss_rate(w) - floor <= epsilon)
            .unwrap_or(self.max_ways())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use stem_sim_core::Access;

    fn cyclic(geom: CacheGeometry, blocks: u64, rounds: usize) -> DecodedTrace {
        let mut t = DecodedTrace::with_capacity(geom, 0);
        for _ in 0..rounds {
            for tag in 0..blocks {
                t.push(Access::read(geom.address_of(tag, 0)));
            }
        }
        t
    }

    #[test]
    fn curve_is_monotone_nonincreasing() {
        let geom = CacheGeometry::new(4, 4, 64).unwrap();
        let t = cyclic(geom, 6, 20);
        let mrc = MissRateCurve::profile(geom, 16, &t);
        let pts = mrc.points();
        for w in pts.windows(2) {
            assert!(w[1].1 <= w[0].1 + 1e-12, "curve must not increase: {pts:?}");
        }
    }

    #[test]
    fn cyclic_knee_is_cycle_length() {
        let geom = CacheGeometry::new(2, 4, 64).unwrap();
        let t = cyclic(geom, 5, 40);
        let mrc = MissRateCurve::profile(geom, 16, &t);
        // Below 5 ways LRU thrashes (miss rate ~1); at 5+ only cold misses.
        assert!(mrc.miss_rate(4) > 0.9);
        assert!(mrc.miss_rate(5) < 0.05);
        assert_eq!(mrc.knee(0.01), 5);
    }

    #[test]
    fn matches_simulated_lru() {
        use stem_replacement::{Lru, SetAssocCache};
        use stem_sim_core::CacheModel;
        let geom = CacheGeometry::new(8, 4, 64).unwrap();
        // Mixed pattern across sets.
        let mut t = DecodedTrace::with_capacity(geom, 0);
        for round in 0..200u64 {
            for set in 0..8usize {
                t.push(Access::read(geom.address_of(round % (set as u64 + 2), set)));
            }
        }
        let mrc = MissRateCurve::profile(geom, 16, &t);
        for ways in [1usize, 2, 4, 8] {
            let g = CacheGeometry::new(8, ways, 64).unwrap();
            let mut lru = SetAssocCache::new(g, Box::new(Lru::new(g)));
            lru.run_decoded(&t);
            assert_eq!(
                lru.stats().misses(),
                mrc.misses(ways),
                "MRC disagrees with simulated LRU at {ways} ways"
            );
        }
    }

    #[test]
    fn empty_trace() {
        let geom = CacheGeometry::new(2, 2, 64).unwrap();
        let mrc = MissRateCurve::profile(geom, 4, &DecodedTrace::with_capacity(geom, 0));
        assert_eq!(mrc.miss_rate(4), 0.0);
        assert_eq!(mrc.accesses(), 0);
    }
}
