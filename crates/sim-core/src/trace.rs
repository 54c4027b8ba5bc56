//! Access traces: ordered sequences of memory accesses.

use std::fmt;

use crate::{Access, CacheGeometry};

/// An ordered sequence of memory accesses driving a simulation.
///
/// A `Trace` is a thin, inspectable wrapper around `Vec<Access>`
/// ([C-NEWTYPE-HIDE] kept deliberately transparent via iteration and
/// indexing) with helpers for the statistics workload generators and
/// experiments need.
///
/// # Examples
///
/// ```
/// use stem_sim_core::{Access, Address, Trace};
///
/// let trace: Trace = (0..4u64).map(|i| Access::read(Address::new(i * 64))).collect();
/// assert_eq!(trace.len(), 4);
/// assert_eq!(trace.instructions(), 4);
/// ```
///
/// [C-NEWTYPE-HIDE]: https://rust-lang.github.io/api-guidelines/future-proofing.html
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Trace {
    accesses: Vec<Access>,
    /// Running sum of instruction gaps, maintained on every construction
    /// path so [`instructions`](Trace::instructions) is O(1). Always equal
    /// to the sum over `accesses` (so the derived equality stays a pure
    /// function of the access sequence).
    instructions: u64,
}

impl Trace {
    /// Creates an empty trace.
    pub fn new() -> Self {
        Trace {
            accesses: Vec::new(),
            instructions: 0,
        }
    }

    /// Creates an empty trace with room for `capacity` accesses.
    pub fn with_capacity(capacity: usize) -> Self {
        Trace {
            accesses: Vec::with_capacity(capacity),
            instructions: 0,
        }
    }

    /// Appends an access.
    #[inline]
    pub fn push(&mut self, access: Access) {
        self.instructions += u64::from(access.inst_gap);
        self.accesses.push(access);
    }

    /// Number of accesses.
    #[inline]
    pub fn len(&self) -> usize {
        self.accesses.len()
    }

    /// Whether the trace is empty.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.accesses.is_empty()
    }

    /// Total instructions represented (the sum of instruction gaps).
    ///
    /// O(1): the sum is maintained incrementally as the trace is built.
    #[inline]
    pub fn instructions(&self) -> u64 {
        self.instructions
    }

    /// Iterates over the accesses.
    pub fn iter(&self) -> std::slice::Iter<'_, Access> {
        self.accesses.iter()
    }

    /// The accesses as a slice.
    pub fn as_slice(&self) -> &[Access] {
        &self.accesses
    }

    /// Consumes the trace, returning the underlying accesses.
    pub fn into_inner(self) -> Vec<Access> {
        self.accesses
    }

    /// Computes summary statistics relative to a cache geometry (which
    /// determines the set-index mapping). Single pass over the trace.
    pub fn stats(&self, geom: CacheGeometry) -> TraceStats {
        let mut touched = vec![false; geom.sets()];
        let mut writes = 0u64;
        for a in &self.accesses {
            touched[geom.set_index(a.addr)] = true;
            if a.kind.is_write() {
                writes += 1;
            }
        }
        TraceStats {
            accesses: self.len() as u64,
            instructions: self.instructions,
            writes,
            sets_touched: touched.iter().filter(|&&t| t).count(),
        }
    }
}

impl FromIterator<Access> for Trace {
    fn from_iter<I: IntoIterator<Item = Access>>(iter: I) -> Self {
        let accesses: Vec<Access> = iter.into_iter().collect();
        let instructions = accesses.iter().map(|a| u64::from(a.inst_gap)).sum();
        Trace {
            accesses,
            instructions,
        }
    }
}

impl Extend<Access> for Trace {
    fn extend<I: IntoIterator<Item = Access>>(&mut self, iter: I) {
        let instructions = &mut self.instructions;
        self.accesses.extend(iter.into_iter().inspect(|a| {
            *instructions += u64::from(a.inst_gap);
        }));
    }
}

impl IntoIterator for Trace {
    type Item = Access;
    type IntoIter = std::vec::IntoIter<Access>;

    fn into_iter(self) -> Self::IntoIter {
        self.accesses.into_iter()
    }
}

impl<'a> IntoIterator for &'a Trace {
    type Item = &'a Access;
    type IntoIter = std::slice::Iter<'a, Access>;

    fn into_iter(self) -> Self::IntoIter {
        self.accesses.iter()
    }
}

impl From<Vec<Access>> for Trace {
    fn from(accesses: Vec<Access>) -> Self {
        let instructions = accesses.iter().map(|a| u64::from(a.inst_gap)).sum();
        Trace {
            accesses,
            instructions,
        }
    }
}

/// Summary statistics of a trace under a particular geometry.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct TraceStats {
    /// Total number of accesses.
    pub accesses: u64,
    /// Total instructions represented.
    pub instructions: u64,
    /// Number of write accesses.
    pub writes: u64,
    /// Number of distinct cache sets touched.
    pub sets_touched: usize,
}

impl fmt::Display for TraceStats {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} accesses ({} writes) over {} instructions touching {} sets",
            self.accesses, self.writes, self.instructions, self.sets_touched
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{AccessKind, Address};

    fn trace_of(addrs: &[u64]) -> Trace {
        addrs
            .iter()
            .map(|&a| Access::read(Address::new(a)))
            .collect()
    }

    #[test]
    fn collect_and_len() {
        let t = trace_of(&[0, 64, 128]);
        assert_eq!(t.len(), 3);
        assert!(!t.is_empty());
        assert!(Trace::new().is_empty());
    }

    #[test]
    fn instructions_sums_gaps() {
        let mut t = Trace::new();
        t.push(Access::read(Address::new(0)).with_inst_gap(10));
        t.push(Access::write(Address::new(64)).with_inst_gap(5));
        assert_eq!(t.instructions(), 15);
    }

    #[test]
    fn stats_counts_sets_and_writes() {
        let geom = CacheGeometry::new(4, 2, 64).unwrap();
        let mut t = trace_of(&[0, 64, 64, 0]);
        t.push(Access::write(Address::new(128)));
        let s = t.stats(geom);
        assert_eq!(s.accesses, 5);
        assert_eq!(s.writes, 1);
        assert_eq!(s.sets_touched, 3); // sets 0, 1, 2
        assert!(!s.to_string().is_empty());
    }

    /// The memoized instruction count agrees with a full re-scan after any
    /// mix of construction paths (push/extend/collect/From<Vec>).
    #[test]
    fn memoized_instructions_match_rescan() {
        let gap = |t: &Trace| -> u64 { t.iter().map(|a| u64::from(a.inst_gap)).sum() };
        let mut t = Trace::new();
        t.push(Access::read(Address::new(0)).with_inst_gap(7));
        assert_eq!(t.instructions(), gap(&t));

        let other: Trace = (0..5u64)
            .map(|i| Access::read(Address::new(i * 64)).with_inst_gap(i as u32))
            .collect();
        assert_eq!(other.instructions(), gap(&other));

        t.extend(other);
        assert_eq!(t.instructions(), gap(&t));

        t.extend((0..3u64).map(|i| Access::write(Address::new(i)).with_inst_gap(2)));
        assert_eq!(t.instructions(), gap(&t));

        let from_vec = Trace::from(vec![
            Access::read(Address::new(0)).with_inst_gap(9),
            Access::write(Address::new(64)).with_inst_gap(1),
        ]);
        assert_eq!(from_vec.instructions(), gap(&from_vec));
        assert_eq!(from_vec.instructions(), 10);

        // Equality remains a pure function of the access sequence.
        let rebuilt: Trace = t.iter().copied().collect();
        assert_eq!(rebuilt, t);
    }

    #[test]
    fn iteration_orders_preserved() {
        let t = trace_of(&[0, 64, 128]);
        let raws: Vec<u64> = t.iter().map(|a| a.addr.raw()).collect();
        assert_eq!(raws, vec![0, 64, 128]);
        let owned: Vec<Access> = t.clone().into_iter().collect();
        assert_eq!(owned.len(), 3);
        assert_eq!(t.as_slice()[1].kind, AccessKind::Read);
    }
}
