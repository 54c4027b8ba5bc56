//! Pre-decoded, line-granular structure-of-arrays access streams.
//!
//! Decoding an [`Access`](crate::Access) — stripping the intra-line
//! offset — is pure arithmetic, yet the experiment drivers would otherwise
//! repeat it once per *scheme*. A [`DecodedTrace`] performs that decode
//! exactly once and stores the results as parallel arrays (contiguous
//! `u64` line addresses, bit-packed write flags, and `u32` instruction
//! gaps) that every scheme replays directly, shared across worker threads
//! via `Arc`.
//!
//! A stream built by the hierarchy's L1 pass (the LLC stream every scheme
//! replays) carries no instruction counts: its accesses are L1 misses, and
//! the run's instructions are tallied from the trace itself. Such a
//! [`gap_free`](DecodedTrace::gap_free) stream stores lines and write
//! flags only (8.125 bytes per access against 12.125) and its gaps read
//! as zero everywhere; replay never reads gaps, so it replays exactly like
//! the same stream decoded with zero gaps.
//!
//! The stream carries no set index: every scheme picks a set from the low
//! bits of the line address under its *own* geometry
//! ([`CacheGeometry::set_index_of_line`], one AND), so one stream replays
//! into a cache of any set count and associativity. The line size is the
//! one replay contract, checked by [`DecodedTrace::lines_for`].
//!
//! The decode is a pure representation change: replaying a `DecodedTrace`
//! through a scheme's `replay_decoded` kernel (on
//! [`CacheModel`](crate::CacheModel)) is the scheme's one per-access path,
//! and [`CacheModel::access`](crate::CacheModel::access) replays a
//! one-access stream through that same kernel.
//!
//! # Examples
//!
//! ```
//! use stem_sim_core::{Access, Address, CacheGeometry, DecodedTrace, Trace};
//!
//! let geom = CacheGeometry::micro2010_l2();
//! let trace: Trace = (0..4u64).map(|i| Access::read(Address::new(i * 64 + 5))).collect();
//! let decoded = DecodedTrace::decode(&trace, geom);
//! assert_eq!(decoded.len(), 4);
//! assert_eq!(decoded.get(3).line.raw(), 3);
//! assert_eq!(decoded.lines_for(geom), &[0, 1, 2, 3]);
//! ```

use std::ops::Range;

use crate::{Access, AccessKind, CacheGeometry, LineAddr, Trace};

/// One access of a [`DecodedTrace`]: the line address is already
/// extracted, so a scheme derives its set and tag from it without touching
/// the byte address.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct DecodedAccess {
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
        AccessKind::from_write(self.write)
    }
}

/// A line-granular structure-of-arrays view of a [`Trace`], decoded once
/// and replayed many times.
///
/// The columns are parallel arrays indexed by access position:
///
/// * `lines[i]` — the raw line address, which is exactly the tag word the
///   line-addressed schemes (SBC, static SBC, victim, V-Way, STEM) store in
///   their [`SetFrames`](crate::SetFrames); the classic set-associative
///   cache derives its narrower tag with a single shift, and every scheme
///   derives its set index with a single AND;
/// * bit-packed write flags (one bit per access, 64 per word);
/// * `inst_gaps[i]` — the instruction gap, for MPKI/CPI accounting;
///   absent in a [`gap_free`](DecodedTrace::gap_free) stream, whose gaps
///   all read as zero.
///
/// A stream replays into any cache with its line size
/// ([`lines_for`](DecodedTrace::lines_for)); the set count and
/// associativity of the decode geometry play no part in replay.
///
/// Equality compares representations: a gap-free stream never equals a
/// stream with a gap column, whatever its gaps.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DecodedTrace {
    geom: CacheGeometry,
    lines: Vec<u64>,
    write_words: Vec<u64>,
    /// `None` in a gap-free stream.
    inst_gaps: Option<Vec<u32>>,
    instructions: u64,
}

impl DecodedTrace {
    /// Decodes every access of `trace` at `geom`'s line size in one pass.
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
    pub fn with_capacity(geom: CacheGeometry, capacity: usize) -> Self {
        DecodedTrace {
            inst_gaps: Some(Vec::with_capacity(capacity)),
            ..DecodedTrace::gap_free(geom, capacity)
        }
    }

    /// An empty gap-free stream decoded against `geom`, with room for
    /// `capacity` accesses: lines and write flags only, every instruction
    /// gap zero. The hierarchy's L1 pass appends its misses to one with
    /// [`push_line`](Self::push_line).
    pub fn gap_free(geom: CacheGeometry, capacity: usize) -> Self {
        DecodedTrace {
            geom,
            lines: Vec::with_capacity(capacity),
            write_words: Vec::with_capacity(capacity.div_ceil(64)),
            inst_gaps: None,
            instructions: 0,
        }
    }

    /// Decodes one access and appends it: exactly the record
    /// [`decode`](Self::decode) would produce for it at this position.
    ///
    /// # Panics
    ///
    /// Panics if the stream is gap-free and the access has a non-zero
    /// instruction gap.
    #[inline]
    pub fn push(&mut self, a: Access) {
        if let Some(gaps) = &mut self.inst_gaps {
            gaps.push(a.inst_gap);
            self.instructions += u64::from(a.inst_gap);
        } else if a.inst_gap != 0 {
            gap_in_a_gap_free_stream();
        }
        self.push_columns(a.addr.line(self.geom.line_bytes()).raw(), a.kind.is_write());
    }

    /// Appends an access by its line address (at the decode line size) and
    /// write flag, with a zero instruction gap.
    #[inline]
    pub fn push_line(&mut self, line: u64, write: bool) {
        self.push_columns(line, write);
        if let Some(gaps) = &mut self.inst_gaps {
            gaps.push(0);
        }
    }

    #[inline]
    fn push_columns(&mut self, line: u64, write: bool) {
        let i = self.lines.len();
        self.lines.push(line);
        if i & 63 == 0 {
            self.write_words.push(0);
        }
        if write {
            self.write_words[i >> 6] |= 1u64 << (i & 63);
        }
    }

    /// Removes every access, keeping the column allocations, so one buffer
    /// can carry a stream built chunk by chunk.
    pub fn clear(&mut self) {
        self.lines.clear();
        self.write_words.clear();
        if let Some(gaps) = &mut self.inst_gaps {
            gaps.clear();
        }
        self.instructions = 0;
    }

    /// Assembles a `DecodedTrace` directly from pre-decoded columns, used by
    /// the set sampler to materialize its compacted stream without
    /// round-tripping through byte addresses. The columns must be parallel
    /// (`lines` and any `inst_gaps` of equal length; `write_words` packed
    /// 64 flags per word); `None` gaps make a gap-free stream.
    pub(crate) fn from_parts(
        geom: CacheGeometry,
        lines: Vec<u64>,
        write_words: Vec<u64>,
        inst_gaps: Option<Vec<u32>>,
    ) -> Self {
        let n = lines.len();
        debug_assert!(inst_gaps.as_ref().is_none_or(|g| g.len() == n));
        debug_assert_eq!(write_words.len(), n.div_ceil(64));
        let instructions = inst_gaps.as_deref().map_or(0, sum_gaps);
        DecodedTrace {
            geom,
            lines,
            write_words,
            inst_gaps,
            instructions,
        }
    }

    /// The geometry the trace was decoded against. Only its line size
    /// shapes the stream; the set sampler also takes its pair-domain count
    /// from it.
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
        self.inst_gaps
            .as_ref()
            .map_or(0, |gaps| sum_gaps(&gaps[range]))
    }

    /// The line-address column, for a consumer of geometry `geom`: the
    /// stream's one replay contract. Every replay kernel reads its lines
    /// through this accessor and derives set and tag under its own
    /// geometry, so any set count and associativity replay the same
    /// stream.
    ///
    /// # Panics
    ///
    /// Panics if `geom`'s line size differs from the decode line size (the
    /// line addresses would be at the wrong granularity).
    #[inline]
    pub fn lines_for(&self, geom: CacheGeometry) -> &[u64] {
        assert_eq!(
            geom.line_bytes(),
            self.geom.line_bytes(),
            "a decoded stream replays only at its own line size"
        );
        &self.lines
    }

    /// The decoded access at position `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of bounds.
    #[inline]
    pub fn get(&self, i: usize) -> DecodedAccess {
        DecodedAccess {
            line: LineAddr::new(self.lines[i]),
            write: self.is_write(i),
            inst_gap: self.inst_gaps.as_ref().map_or(0, |gaps| gaps[i]),
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

    /// The raw instruction-gap column, or `None` for a
    /// [`gap_free`](Self::gap_free) stream, whose gaps all read as zero.
    #[inline]
    pub fn inst_gaps(&self) -> Option<&[u32]> {
        self.inst_gaps.as_deref()
    }

    /// Iterates over all decoded accesses in order.
    pub fn iter(&self) -> impl ExactSizeIterator<Item = DecodedAccess> + '_ {
        (0..self.len()).map(move |i| self.get(i))
    }
}

/// Kept out of line, so the panic machinery stays off `push`'s hot path.
#[cold]
#[inline(never)]
fn gap_in_a_gap_free_stream() -> ! {
    panic!("a gap-free stream has no instruction gaps")
}

fn sum_gaps(gaps: &[u32]) -> u64 {
    gaps.iter().map(|&g| u64::from(g)).sum()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Address, SampledTrace, SplitMix64};

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
            assert_eq!(da.line, a.addr.line(g.line_bytes()));
            assert_eq!(da.write, a.kind.is_write());
            assert_eq!(da.kind(), a.kind);
            assert_eq!(da.inst_gap, a.inst_gap);
            assert_eq!(d.is_write(i), a.kind.is_write());
        }
    }

    #[test]
    fn cleared_stream_refills_like_a_fresh_one() {
        let g = geom();
        let (a, b) = (mixed_trace(130), mixed_trace(70));
        let mut d = DecodedTrace::decode(&a, g);
        d.clear();
        assert!(d.is_empty());
        assert_eq!(d.instructions(), 0);
        for &x in b.iter() {
            d.push(x);
        }
        assert_eq!(d, DecodedTrace::decode(&b, g));
    }

    #[test]
    fn iter_visits_every_access_in_order() {
        let t = mixed_trace(130); // crosses a write-word boundary
        let d = DecodedTrace::decode(&t, geom());
        let all: Vec<DecodedAccess> = d.iter().collect();
        assert_eq!(all.len(), 130);
        assert_eq!(all[40], d.get(40));
        assert_eq!(all[129], d.get(129));
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
    fn lines_serve_any_set_count_at_the_decode_line_size() {
        let g = CacheGeometry::new(2048, 16, 64).unwrap();
        let d = DecodedTrace::decode(&mixed_trace(70), g);
        for other in [
            CacheGeometry::new(2048, 4, 64).unwrap(),
            CacheGeometry::new(512, 16, 64).unwrap(),
            CacheGeometry::new(1, 1, 64).unwrap(),
        ] {
            assert_eq!(d.lines_for(other), d.lines_for(g));
        }
        for (i, &line) in d.lines_for(g).iter().enumerate() {
            assert_eq!(line, d.get(i).line.raw());
        }
    }

    #[test]
    #[should_panic(expected = "own line size")]
    fn lines_refuse_another_line_size() {
        let d = DecodedTrace::decode(&mixed_trace(4), geom());
        let _ = d.lines_for(CacheGeometry::new(8, 4, 32).unwrap());
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
    fn instructions_in_out_of_bounds_panics() {
        let d = DecodedTrace::decode(&mixed_trace(4), geom());
        let _ = d.instructions_in(2..9);
    }

    /// `mixed_trace` with every instruction gap zero.
    fn zero_gap_trace(n: usize) -> Trace {
        mixed_trace(n)
            .iter()
            .map(|&a| Access { inst_gap: 0, ..a })
            .collect()
    }

    /// The gap-free stream of `trace`'s lines and write flags.
    fn gap_free_of(trace: &Trace, g: CacheGeometry) -> DecodedTrace {
        let mut d = DecodedTrace::gap_free(g, 0);
        for a in trace.iter() {
            d.push_line(a.addr.line(g.line_bytes()).raw(), a.kind.is_write());
        }
        d
    }

    /// Two streams that every accessor reads alike.
    fn assert_reads_alike(a: &DecodedTrace, b: &DecodedTrace) {
        let n = a.len();
        assert_eq!(n, b.len());
        assert_eq!(a.lines_for(a.geometry()), b.lines_for(a.geometry()));
        assert_eq!(a.instructions(), b.instructions());
        for i in 0..n {
            assert_eq!(a.is_write(i), b.is_write(i), "write flag {i}");
            assert_eq!(a.get(i), b.get(i), "access {i}");
        }
        for (start, end) in [(0, n), (0, 0), (n / 3, n / 2), (n.min(63), n.min(65))] {
            assert_eq!(a.instructions_in(start..end), b.instructions_in(start..end));
        }
    }

    #[test]
    fn gap_free_stream_reads_like_a_zero_gap_decode() {
        let g = geom();
        for n in [0, 1, 63, 64, 65, 257] {
            let t = zero_gap_trace(n);
            let decoded = DecodedTrace::decode(&t, g);
            let lean = gap_free_of(&t, g);
            assert_reads_alike(&lean, &decoded);
            assert_eq!(lean.instructions(), 0);
            assert_eq!(lean.inst_gaps(), None);
            assert_eq!(decoded.inst_gaps().map(<[u32]>::len), Some(n));
        }
    }

    #[test]
    fn gap_free_stream_takes_zero_gap_accesses_and_stays_gap_free() {
        let g = geom();
        let t = zero_gap_trace(130);
        let mut d = DecodedTrace::gap_free(g, 0);
        for &a in t.iter() {
            d.push(a);
        }
        assert_eq!(d, gap_free_of(&t, g));
        d.clear();
        assert!(d.is_empty());
        assert_eq!(d.inst_gaps(), None);
        // A gapped stream takes lines too, with zero gaps.
        let mut gapped = DecodedTrace::with_capacity(g, 0);
        for &a in t.iter() {
            gapped.push_line(a.addr.line(g.line_bytes()).raw(), a.kind.is_write());
        }
        assert_eq!(gapped, DecodedTrace::decode(&t, g));
    }

    #[test]
    #[should_panic(expected = "gap-free stream has no instruction gaps")]
    fn gap_free_stream_refuses_a_gap() {
        let mut d = DecodedTrace::gap_free(geom(), 1);
        d.push(Access::read(Address::new(0)).with_inst_gap(1));
    }

    #[test]
    fn sampling_a_gap_free_stream_equals_sampling_its_decode() {
        let g = CacheGeometry::new(64, 4, 64).unwrap();
        let t = zero_gap_trace(1000);
        let (decoded, lean) = (DecodedTrace::decode(&t, g), gap_free_of(&t, g));
        for (rate, seed) in [(1, 0), (2, 7), (4, 3), (32, 11), (99, 5)] {
            let want = SampledTrace::select(&decoded, rate, seed);
            let got = SampledTrace::select(&lean, rate, seed);
            assert_reads_alike(got.trace(), want.trace());
            assert_eq!(got.trace().inst_gaps(), None);
            assert_eq!(got.orig_indices(), want.orig_indices());
            assert_eq!(got.selected_domains(), want.selected_domains());
            assert_eq!(got.scale_factor().to_bits(), want.scale_factor().to_bits());
        }
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
}
