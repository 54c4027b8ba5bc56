//! Set-level capacity-demand characterisation (the §3.1 methodology behind
//! Fig. 1).

use stem_sim_core::{CacheGeometry, DecodedTrace, LineAddr};

use crate::StackDistance;

/// A per-sampling-period histogram of set-level capacity demands.
///
/// `buckets[d]` counts the sets whose demand during the period was exactly
/// `d` ways, for `d` in `0..=max_ways`. Fig. 1 groups these into 2-way
/// bands; [`banded`](DemandHistogram::banded) reproduces that view.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DemandHistogram {
    buckets: Vec<usize>,
}

impl DemandHistogram {
    /// Number of sets with demand exactly `d`.
    pub fn count(&self, d: usize) -> usize {
        self.buckets.get(d).copied().unwrap_or(0)
    }

    /// Total sets observed.
    pub fn sets(&self) -> usize {
        self.buckets.iter().sum()
    }

    /// The maximum representable demand.
    pub fn max_ways(&self) -> usize {
        self.buckets.len() - 1
    }

    /// Fig. 1's banded view: `[0, 1–2, 3–4, …, 31–32]` as fractions of all
    /// sets. The first element is the zero-demand ("streaming-like",
    /// Fig. 1 caption) band.
    pub fn banded(&self) -> Vec<f64> {
        let total = self.sets().max(1) as f64;
        let mut out = vec![self.count(0) as f64 / total];
        let mut d = 1;
        while d <= self.max_ways() {
            let band: usize = (d..(d + 2).min(self.max_ways() + 1))
                .map(|x| self.count(x))
                .sum();
            out.push(band as f64 / total);
            d += 2;
        }
        out
    }

    /// Fraction of sets whose demand is at most `d` ways.
    pub fn fraction_at_most(&self, d: usize) -> f64 {
        let total = self.sets().max(1) as f64;
        let le: usize = (0..=d.min(self.max_ways())).map(|x| self.count(x)).sum();
        le as f64 / total
    }
}

/// The §3.1 capacity-demand profiler.
///
/// Within each sampling period (the paper: 50 000 accesses, 1000 periods),
/// the demand of a set is "the minimum number of cache lines required to
/// resolve all conflict misses of the set" relative to a `max_ways`-way
/// bound (the paper: 32). In stack-distance terms: the largest LRU stack
/// distance ≤ `max_ways` observed in the period (0 when the set saw no
/// reuse at all — a streaming set).
///
/// # Examples
///
/// ```
/// use stem_analysis::CapacityDemandProfiler;
/// use stem_sim_core::{Access, Address, CacheGeometry, DecodedTrace, Trace};
///
/// let geom = CacheGeometry::new(4, 4, 64).unwrap();
/// let trace: Trace = [0u64, 64, 0, 64].iter()
///     .map(|&a| Access::read(Address::new(a))).collect();
/// let profiler = CapacityDemandProfiler::new(geom, 32, 4);
/// let periods = profiler.profile_decoded(&DecodedTrace::decode(&trace, geom));
/// assert_eq!(periods.len(), 1);
/// ```
#[derive(Debug, Clone)]
pub struct CapacityDemandProfiler {
    geom: CacheGeometry,
    max_ways: usize,
    period: usize,
}

impl CapacityDemandProfiler {
    /// Creates a profiler with a demand bound of `max_ways` and sampling
    /// periods of `period` accesses.
    ///
    /// # Panics
    ///
    /// Panics if `max_ways` or `period` is zero.
    pub fn new(geom: CacheGeometry, max_ways: usize, period: usize) -> Self {
        assert!(max_ways > 0, "demand bound must be positive");
        assert!(period > 0, "sampling period must be positive");
        CapacityDemandProfiler {
            geom,
            max_ways,
            period,
        }
    }

    /// The paper's Fig. 1 settings: 2048 sets, demand bound 32, 50 000
    /// accesses per period.
    pub fn micro2010(geom: CacheGeometry) -> Self {
        CapacityDemandProfiler::new(geom, 32, 50_000)
    }

    /// Profiles a decoded trace, returning one [`DemandHistogram`] per
    /// complete (or trailing partial) sampling period. Sets are this
    /// profiler's: the trace may have been decoded at any set count.
    ///
    /// # Panics
    ///
    /// Panics if the trace's line size differs from this profiler's
    /// geometry.
    pub fn profile_decoded(&self, trace: &DecodedTrace) -> Vec<DemandHistogram> {
        let mut sd = StackDistance::new(self.geom, self.max_ways);
        let mut periods = Vec::new();
        // Max distance ≤ max_ways seen per set this period (0 = no reuse).
        let mut max_dist = vec![0usize; self.geom.sets()];
        let mut in_period = 0usize;

        let flush = |max_dist: &mut Vec<usize>, periods: &mut Vec<DemandHistogram>| {
            let mut buckets = vec![0usize; self.max_ways + 1];
            for &d in max_dist.iter() {
                buckets[d] += 1;
            }
            periods.push(DemandHistogram { buckets });
            for d in max_dist.iter_mut() {
                *d = 0;
            }
        };

        for &line in trace.lines_for(self.geom) {
            let line = LineAddr::new(line);
            let set = self.geom.set_index_of_line(line);
            if let Some(d) = sd.access_line(line, set) {
                if d <= self.max_ways && d > max_dist[set] {
                    max_dist[set] = d;
                }
            }
            in_period += 1;
            if in_period == self.period {
                flush(&mut max_dist, &mut periods);
                in_period = 0;
            }
        }
        if in_period > 0 {
            flush(&mut max_dist, &mut periods);
        }
        periods
    }

    /// Averages many period histograms into one (used for summary rows).
    pub fn aggregate(periods: &[DemandHistogram]) -> DemandHistogram {
        let max_ways = periods.first().map_or(0, DemandHistogram::max_ways);
        let mut buckets = vec![0usize; max_ways + 1];
        for p in periods {
            for (d, &c) in p.buckets.iter().enumerate() {
                buckets[d] += c;
            }
        }
        DemandHistogram { buckets }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use stem_sim_core::{Access, Trace};

    fn geom() -> CacheGeometry {
        CacheGeometry::new(4, 4, 64).unwrap()
    }

    fn cyclic_trace(geom: CacheGeometry, set: usize, blocks: u64, rounds: usize) -> DecodedTrace {
        let mut t = DecodedTrace::with_capacity(geom, 0);
        for _ in 0..rounds {
            for tag in 0..blocks {
                t.push(Access::read(geom.address_of(tag, set)));
            }
        }
        t
    }

    #[test]
    fn cyclic_set_demands_its_cycle_length() {
        // A cyclic working set of k blocks has max stack distance k, so its
        // demand is exactly k (k ways resolve all conflict misses).
        let g = geom();
        let profiler = CapacityDemandProfiler::new(g, 32, 1_000_000);
        for k in [2u64, 5, 9] {
            let periods = profiler.profile_decoded(&cyclic_trace(g, 0, k, 4));
            assert_eq!(periods.len(), 1);
            let h = &periods[0];
            assert_eq!(
                h.count(k as usize),
                1,
                "cycle of {k} should demand {k} ways"
            );
        }
    }

    #[test]
    fn streaming_set_demands_zero() {
        let g = geom();
        let profiler = CapacityDemandProfiler::new(g, 32, 1_000_000);
        let mut t = DecodedTrace::with_capacity(g, 100);
        for i in 0..100u64 {
            t.push(Access::read(g.address_of(i, 1)));
        }
        let h = &profiler.profile_decoded(&t)[0];
        // Set 1 streams (no reuse): demand 0. All other sets idle: also 0.
        assert_eq!(h.count(0), 4);
    }

    #[test]
    fn untouched_sets_count_as_zero_demand() {
        let g = geom();
        let profiler = CapacityDemandProfiler::new(g, 32, 1_000_000);
        let h = &profiler.profile_decoded(&cyclic_trace(g, 2, 3, 3))[0];
        assert_eq!(h.count(3), 1); // the active set
        assert_eq!(h.count(0), 3); // the three idle sets
        assert_eq!(h.sets(), 4);
    }

    #[test]
    fn periods_split_correctly() {
        let g = geom();
        let profiler = CapacityDemandProfiler::new(g, 32, 10);
        let t = cyclic_trace(g, 0, 2, 12); // 24 accesses → 3 periods (10/10/4)
        let periods = profiler.profile_decoded(&t);
        assert_eq!(periods.len(), 3);
    }

    #[test]
    fn banded_fractions_sum_to_one() {
        let g = geom();
        let profiler = CapacityDemandProfiler::new(g, 32, 1_000_000);
        let h = &profiler.profile_decoded(&cyclic_trace(g, 0, 7, 3))[0];
        let banded = h.banded();
        let sum: f64 = banded.iter().sum();
        assert!((sum - 1.0).abs() < 1e-9);
        assert_eq!(banded.len(), 1 + 16); // 0-band + 16 two-way bands
    }

    #[test]
    fn fraction_at_most_is_monotone() {
        let g = geom();
        let profiler = CapacityDemandProfiler::new(g, 32, 1_000_000);
        let h = &profiler.profile_decoded(&cyclic_trace(g, 0, 7, 3))[0];
        let mut prev = 0.0;
        for d in 0..=32 {
            let f = h.fraction_at_most(d);
            assert!(f >= prev);
            prev = f;
        }
        assert!((prev - 1.0).abs() < 1e-9);
    }

    #[test]
    fn profile_is_independent_of_the_decode_set_count() {
        let g = geom();
        let profiler = CapacityDemandProfiler::new(g, 32, 7);
        let mut t = Trace::new();
        for round in 0..30u64 {
            t.push(Access::read(g.address_of(round % 5, 0)));
            t.push(Access::read(g.address_of(round % 2, 3)));
        }
        let other = CacheGeometry::new(2048, 16, 64).unwrap();
        assert_eq!(
            profiler.profile_decoded(&DecodedTrace::decode(&t, g)),
            profiler.profile_decoded(&DecodedTrace::decode(&t, other))
        );
    }

    #[test]
    fn aggregate_sums_periods() {
        let g = geom();
        let profiler = CapacityDemandProfiler::new(g, 32, 10);
        let periods = profiler.profile_decoded(&cyclic_trace(g, 0, 2, 10));
        let agg = CapacityDemandProfiler::aggregate(&periods);
        assert_eq!(agg.sets(), periods.iter().map(|p| p.sets()).sum::<usize>());
    }
}
