//! Belady's optimal replacement (OPT), computed offline.
//!
//! "Existing HW-replacement policies all use certain criteria to adjust the
//! lifetime values of cached and incoming blocks so as to approximate the
//! ideal Belady's optimal algorithm" (§2.2). The analysis crate uses OPT to
//! characterise capacity demands, and the test suite uses it as a lower
//! bound no online policy may beat.

use std::collections::{HashMap, VecDeque};
use std::ops::Range;

use stem_sim_core::{CacheGeometry, CacheModel, CacheStats, DecodedTrace, LineAddr};

/// A cache with Belady-optimal (farthest-future-use) replacement.
///
/// `OptCache` is constructed from the complete trace it will later be fed,
/// because OPT requires future knowledge. Feed it the *same trace in the
/// same order* (most conveniently via [`CacheModel::run_decoded`]).
///
/// # Examples
///
/// ```
/// use stem_replacement::OptCache;
/// use stem_sim_core::{Access, Address, CacheGeometry, CacheModel, DecodedTrace, Trace};
///
/// # fn main() -> Result<(), stem_sim_core::GeometryError> {
/// let geom = CacheGeometry::new(1, 2, 64)?;
/// let trace: Trace = [0u64, 64, 128, 0, 64, 128]
///     .iter()
///     .map(|&a| Access::read(Address::new(a)))
///     .collect();
/// let trace = DecodedTrace::decode(&trace, geom);
/// let mut opt = OptCache::new(geom, &trace);
/// opt.run_decoded(&trace);
/// // OPT keeps two of the three blocks: 3 cold misses + 1 conflict miss.
/// assert_eq!(opt.stats().misses(), 4);
/// # Ok(())
/// # }
/// ```
#[derive(Clone)]
pub struct OptCache {
    geom: CacheGeometry,
    /// Future use positions of every line, front = earliest.
    future: HashMap<LineAddr, VecDeque<u64>>,
    /// `resident[set]`: (line, next_use) pairs; `next_use == u64::MAX` means
    /// never used again.
    resident: Vec<Vec<(LineAddr, u64)>>,
    step: u64,
    stats: CacheStats,
}

impl OptCache {
    /// Pre-scans `trace` and creates an OPT cache ready to replay it.
    ///
    /// # Panics
    ///
    /// Panics if the trace's line size differs from `geom`'s.
    pub fn new(geom: CacheGeometry, trace: &DecodedTrace) -> Self {
        let mut future: HashMap<LineAddr, VecDeque<u64>> = HashMap::new();
        for (i, &line) in trace.lines_for(geom).iter().enumerate() {
            future
                .entry(LineAddr::new(line))
                .or_default()
                .push_back(i as u64);
        }
        OptCache {
            geom,
            future,
            resident: vec![Vec::new(); geom.sets()],
            step: 0,
            stats: CacheStats::default(),
        }
    }

    /// The minimum achievable misses for `trace` on `geom` — a convenience
    /// that constructs, replays and reads out the miss count.
    pub fn min_misses(geom: CacheGeometry, trace: &DecodedTrace) -> u64 {
        let mut opt = OptCache::new(geom, trace);
        opt.run_decoded(trace);
        opt.stats().misses()
    }

    /// Processes one access: OPT's lookup and farthest-future-use
    /// replacement.
    fn access_line(&mut self, line: LineAddr) {
        let set = self.geom.set_index_of_line(line);
        let next = self.next_use(line);
        self.step += 1;

        if let Some(entry) = self.resident[set].iter_mut().find(|(l, _)| *l == line) {
            entry.1 = next;
            self.stats.record_local_hit();
            return;
        }

        self.stats.record_local_miss();
        if self.resident[set].len() == self.geom.ways() {
            // Evict the resident line used farthest in the future.
            let victim = self.resident[set]
                .iter()
                .enumerate()
                .max_by_key(|(_, &(_, n))| n)
                .map(|(i, _)| i)
                .expect("set is full");
            // Bypass optimisation: if the incoming line is re-used later
            // than every resident line, OPT would evict it immediately;
            // model that as a bypass (don't allocate).
            if self.resident[set][victim].1 >= next {
                self.resident[set].swap_remove(victim);
                self.stats.record_eviction();
                self.resident[set].push((line, next));
            }
        } else {
            self.resident[set].push((line, next));
        }
    }

    /// Next future use of `line` strictly after the current step.
    fn next_use(&mut self, line: LineAddr) -> u64 {
        let step = self.step;
        match self.future.get_mut(&line) {
            Some(q) => {
                while q.front().is_some_and(|&p| p <= step) {
                    q.pop_front();
                }
                q.front().copied().unwrap_or(u64::MAX)
            }
            None => u64::MAX,
        }
    }
}

impl CacheModel for OptCache {
    /// Replays the line column in order; OPT ignores the access kind.
    fn replay_decoded(&mut self, trace: &DecodedTrace, range: Range<usize>) {
        for &line in &trace.lines_for(self.geom)[range] {
            self.access_line(LineAddr::new(line));
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
        "OPT"
    }
}

impl std::fmt::Debug for OptCache {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("OptCache")
            .field("geom", &self.geom)
            .field("step", &self.step)
            .field("stats", &self.stats)
            .finish_non_exhaustive()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Lru, SetAssocCache};
    use stem_sim_core::{prop, Access, Trace};

    fn trace_of(geom: CacheGeometry, tags: &[u64]) -> DecodedTrace {
        let trace: Trace = tags
            .iter()
            .map(|&t| Access::read(geom.address_of(t, 0)))
            .collect();
        DecodedTrace::decode(&trace, geom)
    }

    #[test]
    fn opt_beats_lru_on_cyclic_pattern() {
        // Cyclic A B C A B C ... on 2 ways: LRU misses always, OPT keeps
        // one block resident.
        let geom = CacheGeometry::new(1, 2, 64).unwrap();
        let tags: Vec<u64> = (0..60).map(|i| i % 3).collect();
        let trace = trace_of(geom, &tags);
        let opt_misses = OptCache::min_misses(geom, &trace);
        let mut lru = SetAssocCache::new(geom, Lru::new(geom));
        lru.run_decoded(&trace);
        assert_eq!(lru.stats().misses(), 60);
        assert!(opt_misses < 40, "OPT should do far better: {opt_misses}");
    }

    #[test]
    fn opt_perfect_when_everything_fits() {
        let geom = CacheGeometry::new(1, 4, 64).unwrap();
        let tags: Vec<u64> = (0..40).map(|i| i % 4).collect();
        let trace = trace_of(geom, &tags);
        assert_eq!(OptCache::min_misses(geom, &trace), 4); // cold only
    }

    #[test]
    fn stats_accumulate() {
        let geom = CacheGeometry::new(1, 2, 64).unwrap();
        let trace = trace_of(geom, &[0, 0, 1]);
        let mut opt = OptCache::new(geom, &trace);
        opt.run_decoded(&trace);
        assert_eq!(opt.stats().hits(), 1);
        assert_eq!(opt.stats().misses(), 2);
    }

    /// OPT never misses more than LRU (Belady optimality relative to
    /// any demand-fetch policy without bypass... our LRU doesn't
    /// bypass, so OPT-with-bypass ≤ LRU always holds).
    #[test]
    fn opt_never_worse_than_lru() {
        prop::check(96, |g| {
            let tags = g.vec_u64(1, 400, 0, 12);
            let geom = CacheGeometry::new(2, 3, 64).unwrap();
            let trace: Trace = tags
                .iter()
                .map(|&t| Access::read(geom.address_of(t / 2, (t % 2) as usize)))
                .collect();
            let trace = DecodedTrace::decode(&trace, geom);
            let opt = OptCache::min_misses(geom, &trace);
            let mut lru = SetAssocCache::new(geom, Lru::new(geom));
            lru.run_decoded(&trace);
            assert!(
                opt <= lru.stats().misses(),
                "OPT ({}) must not exceed LRU ({})",
                opt,
                lru.stats().misses()
            );
        });
    }

    /// Cold misses are unavoidable: OPT misses at least once per
    /// distinct line.
    #[test]
    fn opt_has_all_cold_misses() {
        prop::check(96, |g| {
            let tags = g.vec_u64(1, 200, 0, 20);
            let geom = CacheGeometry::new(1, 4, 64).unwrap();
            let trace = trace_of(geom, &tags);
            let distinct: std::collections::HashSet<_> = tags.iter().collect();
            assert!(OptCache::min_misses(geom, &trace) >= distinct.len() as u64);
        });
    }
}
