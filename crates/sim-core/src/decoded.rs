//! Pre-decoded structure-of-arrays access streams.
//!
//! Decoding an [`Access`](crate::Access) against a [`CacheGeometry`] —
//! stripping the intra-line offset, extracting the set index — is pure
//! arithmetic, yet the experiment drivers historically repeated it once per
//! *scheme*: the six cells of a benchmark row each re-derived the same set
//! indices from the same byte addresses. A [`DecodedTrace`] performs that
//! decode exactly once and stores the results as parallel arrays
//! (contiguous `u32` set indices, `u64` line addresses, bit-packed write
//! flags, and `u32` instruction gaps) that every scheme can replay directly,
//! shared across worker threads via `Arc`.
//!
//! The decode is a pure representation change: replaying a `DecodedTrace`
//! through a scheme produces exactly the per-access outcomes of feeding the
//! original `Trace` through [`CacheModel::access`](crate::CacheModel::access)
//! (see `replay_decoded` on [`CacheModel`](crate::CacheModel)).
//!
//! # Examples
//!
//! ```
//! use stem_sim_core::{Access, Address, CacheGeometry, DecodedTrace, Trace};
//!
//! let geom = CacheGeometry::micro2010_l2();
//! let trace: Trace = (0..4u64).map(|i| Access::read(Address::new(i * 64))).collect();
//! let decoded = DecodedTrace::decode(&trace, geom);
//! assert_eq!(decoded.len(), 4);
//! assert_eq!(decoded.get(3).set, 3);
//! assert_eq!(decoded.get(3).line.raw(), 3);
//! ```

use std::ops::Range;

use crate::{Access, AccessKind, Address, CacheGeometry, LineAddr, Trace};

/// One access of a [`DecodedTrace`]: the set index and line address are
/// already extracted, so schemes sharing the decode geometry can probe
/// their tag store without touching the byte address at all.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct DecodedAccess {
    /// Set index under the decode geometry (`set_index_of_line(line)`).
    pub set: u32,
    /// The line address (byte address with the intra-line offset stripped).
    pub line: LineAddr,
    /// Whether the access is a store.
    pub write: bool,
    /// Instructions retired since the previous access.
    pub inst_gap: u32,
}

impl DecodedAccess {
    /// The access kind this decoded record represents.
    #[inline]
    pub fn kind(self) -> AccessKind {
        if self.write {
            AccessKind::Write
        } else {
            AccessKind::Read
        }
    }

    /// Reconstructs the (line-aligned) byte address for `line_bytes`-byte
    /// lines. The intra-line offset of the original access is not retained —
    /// every consumer in this workspace is offset-invariant, operating at
    /// line granularity.
    #[inline]
    pub fn address(self, line_bytes: u64) -> Address {
        self.line.to_address(line_bytes)
    }
}

/// A structure-of-arrays view of a `(Trace, CacheGeometry)` pair, decoded
/// once and replayed many times.
///
/// The columns are parallel arrays indexed by access position:
///
/// * `sets[i]` — the set index of access `i` under the decode geometry;
/// * `lines[i]` — the raw line address, which is exactly the tag word the
///   line-addressed schemes (SBC, static SBC, victim, V-Way, STEM) store in
///   their [`SetFrames`](crate::SetFrames); the classic set-associative
///   cache derives its narrower tag with a single shift;
/// * bit-packed write flags (one bit per access, 64 per word);
/// * `inst_gaps[i]` — the instruction gap, for MPKI/CPI accounting.
///
/// Replay validity is governed by [`compatible_with`]
/// (set count and line size; associativity is deliberately excluded so one
/// decode serves a whole constant-capacity associativity sweep).
///
/// [`compatible_with`]: DecodedTrace::compatible_with
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DecodedTrace {
    geom: CacheGeometry,
    sets: Vec<u32>,
    lines: Vec<u64>,
    write_words: Vec<u64>,
    inst_gaps: Vec<u32>,
    instructions: u64,
}

impl DecodedTrace {
    /// Decodes every access of `trace` against `geom` in one pass.
    ///
    /// # Panics
    ///
    /// Panics if `geom` has more than `u32::MAX` sets (far beyond any
    /// simulated geometry; set indices are stored as `u32`).
    pub fn decode(trace: &Trace, geom: CacheGeometry) -> Self {
        let mut decoded = DecodedTrace::with_capacity(geom, trace.len());
        for &a in trace.iter() {
            decoded.push(a);
        }
        decoded
    }

    /// An empty stream decoded against `geom`, with room for `capacity`
    /// accesses. Generators [`push`](Self::push) straight into it, so a
    /// synthesized stream never exists as a [`Trace`] first.
    ///
    /// # Panics
    ///
    /// Panics if `geom` has more than `u32::MAX` sets (set indices are
    /// stored as `u32`).
    pub fn with_capacity(geom: CacheGeometry, capacity: usize) -> Self {
        assert!(
            geom.sets() as u64 <= u64::from(u32::MAX),
            "set indices are stored as u32"
        );
        DecodedTrace {
            geom,
            sets: Vec::with_capacity(capacity),
            lines: Vec::with_capacity(capacity),
            write_words: Vec::with_capacity(capacity.div_ceil(64)),
            inst_gaps: Vec::with_capacity(capacity),
            instructions: 0,
        }
    }

    /// Decodes one access and appends it: exactly the record
    /// [`decode`](Self::decode) would produce for it at this position.
    #[inline]
    pub fn push(&mut self, a: Access) {
        let i = self.lines.len();
        let line = a.addr.line(self.geom.line_bytes());
        self.sets.push(self.geom.set_index_of_line(line) as u32);
        self.lines.push(line.raw());
        if i & 63 == 0 {
            self.write_words.push(0);
        }
        if a.kind.is_write() {
            self.write_words[i >> 6] |= 1u64 << (i & 63);
        }
        self.inst_gaps.push(a.inst_gap);
        self.instructions += u64::from(a.inst_gap);
    }

    /// Assembles a `DecodedTrace` directly from pre-decoded columns, used by
    /// the set sampler to materialize its compacted stream without
    /// round-tripping through byte addresses. The columns must be parallel
    /// (`sets`, `lines`, `inst_gaps` of equal length; `write_words` packed 64
    /// flags per word) and every set index must be below `geom.sets()`.
    pub(crate) fn from_parts(
        geom: CacheGeometry,
        sets: Vec<u32>,
        lines: Vec<u64>,
        write_words: Vec<u64>,
        inst_gaps: Vec<u32>,
    ) -> Self {
        let n = sets.len();
        debug_assert_eq!(lines.len(), n);
        debug_assert_eq!(inst_gaps.len(), n);
        debug_assert_eq!(write_words.len(), n.div_ceil(64));
        debug_assert!(sets.iter().all(|&s| (s as usize) < geom.sets()));
        let instructions = sum_gaps(&inst_gaps);
        DecodedTrace {
            geom,
            sets,
            lines,
            write_words,
            inst_gaps,
            instructions,
        }
    }

    /// The geometry the trace was decoded against.
    #[inline]
    pub fn geometry(&self) -> CacheGeometry {
        self.geom
    }

    /// Number of accesses.
    #[inline]
    pub fn len(&self) -> usize {
        self.lines.len()
    }

    /// Whether the trace is empty.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.lines.is_empty()
    }

    /// Total instructions represented (the sum of all instruction gaps).
    /// O(1): maintained as accesses are decoded.
    #[inline]
    pub fn instructions(&self) -> u64 {
        self.instructions
    }

    /// Instructions represented by the accesses in `range`: one pass over
    /// that slice of the gap column. Callers ask once per replayed range,
    /// so a per-access prefix-sum column (8 bytes per access, more than
    /// the gaps themselves) would cost far more memory than it saves time.
    ///
    /// # Panics
    ///
    /// Panics if `range` is out of bounds.
    pub fn instructions_in(&self, range: Range<usize>) -> u64 {
        assert!(
            range.start <= range.end && range.end <= self.len(),
            "instructions_in range {}..{} out of bounds for length {}",
            range.start,
            range.end,
            self.len()
        );
        sum_gaps(&self.inst_gaps[range])
    }

    /// Whether a cache of geometry `geom` may consume the pre-extracted
    /// `set`/`line` columns directly: the set count and line size must match
    /// the decode geometry. Associativity is irrelevant to address decode,
    /// so one `DecodedTrace` covers every point of an associativity sweep
    /// that holds the set count and line size fixed (Fig. 3 / Fig. 10).
    #[inline]
    pub fn compatible_with(&self, geom: CacheGeometry) -> bool {
        geom.sets() == self.geom.sets() && geom.line_bytes() == self.geom.line_bytes()
    }

    /// The decoded access at position `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of bounds.
    #[inline]
    pub fn get(&self, i: usize) -> DecodedAccess {
        DecodedAccess {
            set: self.sets[i],
            line: LineAddr::new(self.lines[i]),
            write: self.is_write(i),
            inst_gap: self.inst_gaps[i],
        }
    }

    /// Whether access `i` is a write.
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of bounds.
    #[inline]
    pub fn is_write(&self, i: usize) -> bool {
        debug_assert!(i < self.len());
        (self.write_words[i >> 6] >> (i & 63)) & 1 != 0
    }

    /// The raw set-index column.
    #[inline]
    pub fn set_indices(&self) -> &[u32] {
        &self.sets
    }

    /// The raw line-address column.
    #[inline]
    pub fn line_addrs(&self) -> &[u64] {
        &self.lines
    }

    /// The raw instruction-gap column.
    #[inline]
    pub fn inst_gaps(&self) -> &[u32] {
        &self.inst_gaps
    }

    /// Iterates over all decoded accesses in order.
    pub fn iter(&self) -> DecodedIter<'_> {
        self.iter_range(0..self.len())
    }

    /// Iterates over the decoded accesses in `range`.
    ///
    /// # Panics
    ///
    /// Panics if `range` is out of bounds.
    pub fn iter_range(&self, range: Range<usize>) -> DecodedIter<'_> {
        assert!(range.start <= range.end && range.end <= self.len());
        DecodedIter {
            trace: self,
            idx: range.start,
            end: range.end,
        }
    }

    /// Re-materializes the access at `i` as an [`Access`] record with a
    /// line-aligned byte address (the representation `CacheModel::access`
    /// consumes). Used by the differential tests and fallback paths.
    pub fn to_access(&self, i: usize) -> Access {
        let a = self.get(i);
        Access {
            addr: a.address(self.geom.line_bytes()),
            kind: a.kind(),
            inst_gap: a.inst_gap,
        }
    }
}

fn sum_gaps(gaps: &[u32]) -> u64 {
    gaps.iter().map(|&g| u64::from(g)).sum()
}

/// Iterator over a [`DecodedTrace`] (or a sub-range of one).
#[derive(Debug, Clone)]
pub struct DecodedIter<'a> {
    trace: &'a DecodedTrace,
    idx: usize,
    end: usize,
}

impl Iterator for DecodedIter<'_> {
    type Item = DecodedAccess;

    #[inline]
    fn next(&mut self) -> Option<DecodedAccess> {
        if self.idx < self.end {
            let a = self.trace.get(self.idx);
            self.idx += 1;
            Some(a)
        } else {
            None
        }
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        let n = self.end - self.idx;
        (n, Some(n))
    }
}

impl ExactSizeIterator for DecodedIter<'_> {}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::SplitMix64;

    fn geom() -> CacheGeometry {
        CacheGeometry::new(8, 4, 64).unwrap()
    }

    fn mixed_trace(n: usize) -> Trace {
        let mut rng = SplitMix64::new(7);
        let mut t = Trace::with_capacity(n);
        for i in 0..n {
            let addr = Address::new(rng.next_u64() % (1 << 20));
            let a = if i % 3 == 0 {
                Access::write(addr)
            } else {
                Access::read(addr)
            };
            t.push(a.with_inst_gap((i % 5 + 1) as u32));
        }
        t
    }

    #[test]
    fn decode_matches_per_access_derivation() {
        let g = geom();
        let t = mixed_trace(300);
        let d = DecodedTrace::decode(&t, g);
        assert_eq!(d.len(), t.len());
        assert_eq!(d.instructions(), t.instructions());
        for (i, a) in t.iter().enumerate() {
            let da = d.get(i);
            let line = a.addr.line(g.line_bytes());
            assert_eq!(da.line, line);
            assert_eq!(da.set as usize, g.set_index_of_line(line));
            assert_eq!(da.write, a.kind.is_write());
            assert_eq!(da.kind(), a.kind);
            assert_eq!(da.inst_gap, a.inst_gap);
            assert_eq!(d.is_write(i), a.kind.is_write());
        }
    }

    #[test]
    fn to_access_is_line_aligned_round_trip() {
        let g = geom();
        let t = mixed_trace(100);
        let d = DecodedTrace::decode(&t, g);
        for (i, a) in t.iter().enumerate() {
            let r = d.to_access(i);
            assert_eq!(r.addr.line(g.line_bytes()), a.addr.line(g.line_bytes()));
            assert_eq!(r.addr.raw() % g.line_bytes(), 0);
            assert_eq!(r.kind, a.kind);
            assert_eq!(r.inst_gap, a.inst_gap);
        }
    }

    #[test]
    fn iter_and_ranges() {
        let g = geom();
        let t = mixed_trace(130); // crosses a write-word boundary
        let d = DecodedTrace::decode(&t, g);
        let all: Vec<DecodedAccess> = d.iter().collect();
        assert_eq!(all.len(), 130);
        let mid: Vec<DecodedAccess> = d.iter_range(40..90).collect();
        assert_eq!(mid.len(), 50);
        assert_eq!(mid[0], all[40]);
        assert_eq!(mid[49], all[89]);
        assert_eq!(d.iter_range(0..0).count(), 0);
        assert_eq!(d.iter().size_hint(), (130, Some(130)));
    }

    #[test]
    fn instructions_in_matches_slice_sum() {
        let g = geom();
        let t = mixed_trace(64);
        let d = DecodedTrace::decode(&t, g);
        assert_eq!(d.instructions_in(0..d.len()), d.instructions());
        let manual: u64 = t.as_slice()[10..50]
            .iter()
            .map(|a| u64::from(a.inst_gap))
            .sum();
        assert_eq!(d.instructions_in(10..50), manual);
        assert_eq!(d.instructions_in(5..5), 0);
    }

    #[test]
    fn compatibility_ignores_ways_only() {
        let g = CacheGeometry::new(2048, 16, 64).unwrap();
        let d = DecodedTrace::decode(&Trace::new(), g);
        assert!(d.compatible_with(g));
        assert!(d.compatible_with(CacheGeometry::new(2048, 4, 64).unwrap()));
        assert!(d.compatible_with(CacheGeometry::new(2048, 32, 64).unwrap()));
        assert!(!d.compatible_with(CacheGeometry::new(1024, 16, 64).unwrap()));
        assert!(!d.compatible_with(CacheGeometry::new(2048, 16, 32).unwrap()));
    }

    #[test]
    fn empty_trace_decodes_empty() {
        let d = DecodedTrace::decode(&Trace::new(), geom());
        assert!(d.is_empty());
        assert_eq!(d.len(), 0);
        assert_eq!(d.instructions(), 0);
        assert_eq!(d.iter().count(), 0);
    }

    #[test]
    #[should_panic]
    fn out_of_bounds_range_panics() {
        let d = DecodedTrace::decode(&mixed_trace(4), geom());
        let _ = d.iter_range(2..9);
    }

    #[test]
    #[should_panic]
    fn instructions_in_out_of_bounds_panics() {
        let d = DecodedTrace::decode(&mixed_trace(4), geom());
        let _ = d.instructions_in(2..9);
    }

    #[test]
    fn instructions_in_matches_gap_sums_at_word_boundaries() {
        let g = geom();
        let t = mixed_trace(257); // crosses several 64-access words
        let d = DecodedTrace::decode(&t, g);
        for (start, end) in [(0, 257), (0, 0), (256, 257), (63, 65), (100, 200)] {
            let manual: u64 = t.as_slice()[start..end]
                .iter()
                .map(|a| u64::from(a.inst_gap))
                .sum();
            assert_eq!(d.instructions_in(start..end), manual);
        }
    }

    #[test]
    fn raw_columns_are_parallel() {
        let g = geom();
        let t = mixed_trace(70);
        let d = DecodedTrace::decode(&t, g);
        assert_eq!(d.set_indices().len(), 70);
        assert_eq!(d.line_addrs().len(), 70);
        assert_eq!(d.inst_gaps().len(), 70);
        for i in 0..70 {
            assert_eq!(d.set_indices()[i], d.get(i).set);
            assert_eq!(d.line_addrs()[i], d.get(i).line.raw());
            assert_eq!(d.inst_gaps()[i], d.get(i).inst_gap);
        }
    }
}
