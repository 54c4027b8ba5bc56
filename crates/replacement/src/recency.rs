//! Per-set recency ranking, the building block of every stack-based policy.

/// Nibble-broadcast constants for the packed representation.
const NIBBLE_LSBS: u64 = 0x1111_1111_1111_1111;
const NIBBLE_MSBS: u64 = NIBBLE_LSBS << 3;
/// The identity permutation packed as nibbles: nibble `p` holds `p`.
const IDENTITY: u64 = 0xFEDC_BA98_7654_3210;

/// A mask covering the low `n` nibbles (`n ≤ 16`).
#[inline]
fn nibble_mask(n: usize) -> u64 {
    debug_assert!(n <= 16);
    if n >= 16 {
        u64::MAX
    } else {
        (1u64 << (4 * n)) - 1
    }
}

/// A wide stack's recency stamp. Two bytes per way keep wide stacks small
/// (a 2048-set V-Way store with 32 tag ways holds 136 KB of stamps); a
/// clock that runs out renumbers the stamps instead of wrapping.
type Stamp = u16;

/// Stamp of the MRU way after `new` or a renumbering. The MRU clock counts
/// up from just above it and the LRU clock down from just below the LRU
/// way, so each has about 2¹⁵ operations of room before the next
/// renumbering.
const WIDE_ORIGIN: Stamp = 1 << 15;

/// An explicit recency (or fill) ordering of the ways of one set.
///
/// `rank(way) == 0` means most-recently-used (MRU); `rank == ways - 1` means
/// least-recently-used (LRU). The stack is a permutation of `0..ways` at all
/// times — an invariant the property tests in this crate exercise.
///
/// For `ways ≤ 16` — the paper's 16-way L2 and every shadow/monitor stack —
/// the permutation is packed into a single `u64` of 4-bit nibbles (nibble
/// `p` holds the way at rank `p`), so `touch_mru`, `demote_lru`, and
/// `lru_way` are a few shifts and masks with no memory traffic. Wider
/// stacks (V-Way tag stores with `ratio × ways > 16`, every way-sweep point
/// above 16 ways, serve's result cache) keep one recency stamp per way
/// instead, drawn from two clocks: `touch_mru` stamps the way with the next
/// value of a rising clock and `demote_lru` with the next value of a
/// falling one, one store each. The stack order is the order of each way's
/// last touch or demotion, which is exactly what the stamps record, so the
/// MRU way is the largest stamp and the LRU way the smallest (one O(ways)
/// scan each) and `way_at(p)` is the p-th largest (an O(ways) selection).
/// When a clock reaches the end of the stamp range, the stamps are
/// renumbered by rank (O(ways log ways), once per ~2¹⁵ operations at
/// most). `rank` and `is_permutation` count and sort stamps; they serve
/// tests and audits, not the replay loop.
///
/// The same structure doubles as PeLIFO's *fill stack* when `touch_mru` is
/// called only on fills.
///
/// # Examples
///
/// ```
/// use stem_replacement::RecencyStack;
///
/// let mut s = RecencyStack::new(4);
/// s.touch_mru(2);
/// assert_eq!(s.rank(2), 0);
/// assert_eq!(s.mru_way(), 2);
/// ```
#[derive(Debug, Clone)]
pub struct RecencyStack {
    repr: Repr,
}

#[derive(Debug, Clone)]
enum Repr {
    /// Nibble `p` of `order` = the way at rank `p`; nibbles at and above
    /// `ways` are parked at `0xF` (never a valid way for `ways < 16`, and
    /// nonexistent for `ways == 16`).
    Packed { order: u64, ways: u8 },
    /// `stamps[way]` for `way < ways` is the clock value of `way`'s last
    /// touch or demotion (larger = more recent); all are distinct. The two
    /// trailing words are the clocks: `stamps[ways]` is the next MRU stamp
    /// (above every way's) and `stamps[ways + 1]` the next LRU stamp (below
    /// every way's).
    Wide { stamps: Box<[Stamp]> },
}

impl RecencyStack {
    /// Creates a stack for `ways` ways, initially ranked `0, 1, …, ways-1`
    /// (way 0 is MRU).
    ///
    /// # Panics
    ///
    /// Panics if `ways` is 0 or greater than 255.
    pub fn new(ways: usize) -> Self {
        assert!((1..=255).contains(&ways), "ways must be in 1..=255");
        let repr = if ways <= 16 {
            Repr::Packed {
                order: IDENTITY | !nibble_mask(ways),
                ways: ways as u8,
            }
        } else {
            let mut stamps = vec![0; ways + 2].into_boxed_slice();
            renumber(&mut stamps, 0..ways);
            Repr::Wide { stamps }
        };
        RecencyStack { repr }
    }

    /// Number of ways tracked.
    #[inline]
    pub fn ways(&self) -> usize {
        match &self.repr {
            Repr::Packed { ways, .. } => *ways as usize,
            Repr::Wide { stamps } => stamps.len() - 2,
        }
    }

    /// Recency rank of `way` (0 = MRU).
    ///
    /// # Panics
    ///
    /// Panics if `way >= ways`.
    #[inline]
    pub fn rank(&self, way: usize) -> u8 {
        match &self.repr {
            Repr::Packed { order, ways } => {
                assert!(way < *ways as usize, "way out of range");
                packed_rank(*order, way)
            }
            Repr::Wide { stamps } => {
                let stamps = way_stamps(stamps);
                let mine = stamps[way];
                stamps.iter().filter(|&&s| s > mine).count() as u8
            }
        }
    }

    /// Moves `way` to the MRU position, aging everything that was more
    /// recent than it.
    #[inline]
    pub fn touch_mru(&mut self, way: usize) {
        match &mut self.repr {
            Repr::Packed { order, ways } => {
                assert!(way < *ways as usize, "way out of range");
                let r = packed_rank(*order, way) as usize;
                let below = *order & nibble_mask(r);
                *order = (*order & !nibble_mask(r + 1)) | (below << 4) | way as u64;
            }
            Repr::Wide { stamps } => {
                let hi = stamps.len() - 2;
                assert!(way < hi, "way out of range"); // hi == ways
                if stamps[hi] == Stamp::MAX {
                    restamp(stamps);
                }
                stamps[way] = stamps[hi];
                stamps[hi] += 1;
            }
        }
    }

    /// Moves `way` to the LRU position, promoting everything that was less
    /// recent than it.
    #[inline]
    pub fn demote_lru(&mut self, way: usize) {
        match &mut self.repr {
            Repr::Packed { order, ways } => {
                assert!(way < *ways as usize, "way out of range");
                let last = *ways as usize - 1;
                let r = packed_rank(*order, way) as usize;
                let below = *order & nibble_mask(r);
                // Ranks r+1..=last slide down one position into r..=last-1.
                let mid = (*order >> 4) & (nibble_mask(last) & !nibble_mask(r));
                *order =
                    (*order & !nibble_mask(last + 1)) | below | mid | ((way as u64) << (4 * last));
            }
            Repr::Wide { stamps } => {
                let lo = stamps.len() - 1;
                assert!(way < lo - 1, "way out of range"); // lo - 1 == ways
                if stamps[lo] == 0 {
                    restamp(stamps);
                }
                stamps[way] = stamps[lo];
                stamps[lo] -= 1;
            }
        }
    }

    /// The way currently at the LRU position.
    #[inline]
    pub fn lru_way(&self) -> usize {
        match &self.repr {
            Repr::Packed { order, ways } => ((order >> (4 * (*ways as usize - 1))) & 0xF) as usize,
            Repr::Wide { stamps } => {
                let stamps = way_stamps(stamps);
                let (mut way, mut least) = (0, stamps[0]);
                for (w, &s) in stamps.iter().enumerate().skip(1) {
                    if s < least {
                        (way, least) = (w, s);
                    }
                }
                way
            }
        }
    }

    /// The way currently at the MRU position.
    #[inline]
    pub fn mru_way(&self) -> usize {
        match &self.repr {
            Repr::Packed { order, .. } => (order & 0xF) as usize,
            Repr::Wide { stamps } => {
                let stamps = way_stamps(stamps);
                let (mut way, mut most) = (0, stamps[0]);
                for (w, &s) in stamps.iter().enumerate().skip(1) {
                    if s > most {
                        (way, most) = (w, s);
                    }
                }
                way
            }
        }
    }

    /// The way at recency position `pos`.
    ///
    /// # Panics
    ///
    /// Panics if `pos >= ways`.
    #[inline]
    pub fn way_at(&self, pos: u8) -> usize {
        match &self.repr {
            Repr::Packed { order, ways } => {
                assert!(pos < *ways, "position out of range");
                ((order >> (4 * pos as usize)) & 0xF) as usize
            }
            Repr::Wide { stamps } => {
                let stamps = way_stamps(stamps);
                assert!((pos as usize) < stamps.len(), "position out of range");
                // The stamp at position `pos` is the pos-th largest.
                let mut buf = [0; 255];
                let buf = &mut buf[..stamps.len()];
                buf.copy_from_slice(stamps);
                let (_, &mut nth, _) = buf.select_nth_unstable_by(pos as usize, |a, b| b.cmp(a));
                stamps
                    .iter()
                    .position(|&s| s == nth)
                    .expect("selected stamp belongs to a way")
            }
        }
    }

    /// Whether the ranks form a valid permutation of `0..ways` (test and
    /// audit hook). A wide stack is one when its stamps are distinct and lie
    /// strictly between the two clocks.
    pub fn is_permutation(&self) -> bool {
        match &self.repr {
            Repr::Packed { order, ways } => {
                let ways = *ways as usize;
                let mut seen = [false; 16];
                (0..ways).all(|pos| {
                    let way = ((order >> (4 * pos)) & 0xF) as usize;
                    way < ways && !std::mem::replace(&mut seen[way], true)
                })
            }
            Repr::Wide { stamps } => {
                let ways = stamps.len() - 2;
                let (hi, lo) = (stamps[ways], stamps[ways + 1]);
                let mut sorted = way_stamps(stamps).to_vec();
                sorted.sort_unstable();
                sorted.windows(2).all(|w| w[0] < w[1]) && lo < sorted[0] && sorted[ways - 1] < hi
            }
        }
    }
}

/// Two stacks are equal when they rank the same ways in the same order,
/// whatever stamp values a wide stack's history left behind.
impl PartialEq for RecencyStack {
    fn eq(&self, other: &Self) -> bool {
        match (&self.repr, &other.repr) {
            (Repr::Packed { order: a, ways: x }, Repr::Packed { order: b, ways: y }) => {
                a == b && x == y
            }
            (Repr::Wide { stamps: a }, Repr::Wide { stamps: b }) => wide_order(a) == wide_order(b),
            _ => false,
        }
    }
}

impl Eq for RecencyStack {}

/// The ways of a wide stack from MRU to LRU.
fn wide_order(stamps: &[Stamp]) -> Vec<usize> {
    let stamps = way_stamps(stamps);
    let mut order: Vec<usize> = (0..stamps.len()).collect();
    order.sort_unstable_by_key(|&w| std::cmp::Reverse(stamps[w]));
    order
}

/// Restamps a wide stack whose ways, from MRU to LRU, are `order`: the MRU
/// way gets [`WIDE_ORIGIN`], each later way one less, and both clocks
/// restart just outside that run.
fn renumber(stamps: &mut [Stamp], order: impl IntoIterator<Item = usize>) {
    let ways = stamps.len() - 2;
    for (rank, way) in order.into_iter().enumerate() {
        stamps[way] = WIDE_ORIGIN - rank as Stamp;
    }
    stamps[ways] = WIDE_ORIGIN + 1;
    stamps[ways + 1] = WIDE_ORIGIN - ways as Stamp;
}

/// Renumbers a wide stack whose clock ran out, keeping its order. Cold and
/// out of line: it runs at most once per ~2¹⁵ operations on one set.
#[cold]
#[inline(never)]
fn restamp(stamps: &mut [Stamp]) {
    let order = wide_order(stamps);
    renumber(stamps, order);
}

/// The per-way stamps of a wide stack, without its two trailing clocks.
#[inline]
fn way_stamps(stamps: &[Stamp]) -> &[Stamp] {
    &stamps[..stamps.len() - 2]
}

/// The rank of `way` in a packed order word: the position of the unique
/// nibble equal to `way`, found with a SWAR zero-nibble scan.
///
/// The haszero trick can flag false positives *above* the lowest zero
/// nibble (borrow propagation), but never below it — and the permutation
/// invariant guarantees exactly one true match, so the lowest flagged
/// nibble is it. Filler nibbles hold `0xF`, which only a 16-way stack could
/// match — and a 16-way stack has no filler.
#[inline]
fn packed_rank(order: u64, way: usize) -> u8 {
    let diff = order ^ (way as u64 * NIBBLE_LSBS);
    let zeros = diff.wrapping_sub(NIBBLE_LSBS) & !diff & NIBBLE_MSBS;
    debug_assert_ne!(zeros, 0, "way missing from packed recency order");
    (zeros.trailing_zeros() / 4) as u8
}

#[cfg(test)]
mod tests {
    use super::*;
    use stem_sim_core::prop;

    #[test]
    fn new_is_identity_permutation() {
        let s = RecencyStack::new(4);
        assert!(s.is_permutation());
        assert_eq!(s.mru_way(), 0);
        assert_eq!(s.lru_way(), 3);
    }

    #[test]
    fn touch_mru_promotes_and_ages() {
        let mut s = RecencyStack::new(4);
        s.touch_mru(3);
        assert_eq!(s.rank(3), 0);
        assert_eq!(s.rank(0), 1);
        assert_eq!(s.rank(1), 2);
        assert_eq!(s.rank(2), 3);
        assert!(s.is_permutation());
    }

    #[test]
    fn touch_mru_of_mru_is_noop() {
        for ways in [4, 40] {
            let mut s = RecencyStack::new(ways);
            let before = s.clone();
            s.touch_mru(0);
            assert_eq!(s, before);
            s.demote_lru(ways - 1);
            assert_eq!(s, before);
            s.touch_mru(1);
            assert_ne!(s, before);
        }
    }

    #[test]
    fn demote_lru_sinks_way() {
        let mut s = RecencyStack::new(4);
        s.demote_lru(0);
        assert_eq!(s.rank(0), 3);
        assert_eq!(s.lru_way(), 0);
        assert!(s.is_permutation());
    }

    #[test]
    fn lru_sequence_behaviour() {
        // Touch ways in order 0,1,2,3 on a 4-way stack: LRU should be 0.
        let mut s = RecencyStack::new(4);
        for w in 0..4 {
            s.touch_mru(w);
        }
        assert_eq!(s.lru_way(), 0);
        s.touch_mru(0);
        assert_eq!(s.lru_way(), 1);
    }

    #[test]
    fn single_way_stack() {
        let mut s = RecencyStack::new(1);
        s.touch_mru(0);
        s.demote_lru(0);
        assert_eq!(s.lru_way(), 0);
        assert_eq!(s.mru_way(), 0);
    }

    #[test]
    fn full_16_way_stack_uses_every_nibble() {
        let mut s = RecencyStack::new(16);
        assert_eq!(s.lru_way(), 15);
        s.touch_mru(15);
        assert_eq!(s.mru_way(), 15);
        assert_eq!(s.lru_way(), 14);
        s.demote_lru(15);
        assert_eq!(s.lru_way(), 15);
        s.demote_lru(7);
        assert_eq!(s.way_at(15), 7);
        assert_eq!(s.way_at(14), 15);
        assert!(s.is_permutation());
    }

    /// Any sequence of operations preserves the permutation invariant —
    /// on both the packed (≤ 16 ways) and wide (> 16 ways) paths.
    #[test]
    fn ops_preserve_permutation() {
        prop::check(128, |g| {
            let ways = g.usize(1, 33);
            let mut s = RecencyStack::new(ways);
            for _ in 0..g.usize(0, 64) {
                let way = g.usize(0, ways);
                if g.bool() {
                    s.touch_mru(way);
                } else {
                    s.demote_lru(way);
                }
                assert!(s.is_permutation());
            }
        });
    }

    /// A wide stack whose stamps collide or escape the clocks fails the
    /// audit hook.
    #[test]
    fn wide_audit_catches_corrupt_stamps() {
        let fresh = RecencyStack::new(20);
        assert!(fresh.is_permutation());
        let corrupt = |f: fn(&mut [Stamp])| {
            let mut s = fresh.clone();
            let Repr::Wide { stamps } = &mut s.repr else {
                unreachable!("20 ways is a wide stack")
            };
            f(stamps);
            s.is_permutation()
        };
        assert!(!corrupt(|st| st[3] = st[4]));
        assert!(!corrupt(|st| st[0] = st[20]));
        assert!(!corrupt(|st| st[19] = st[21]));
    }

    /// After touch_mru(w), w is MRU and relative order of others is kept.
    #[test]
    fn touch_preserves_relative_order() {
        prop::check(128, |g| {
            let ways = g.usize(2, 12);
            let mut s = RecencyStack::new(ways);
            for _ in 0..g.usize(1, 32) {
                let w = g.usize(0, ways);
                let before: Vec<u8> = (0..ways).map(|x| s.rank(x)).collect();
                s.touch_mru(w);
                for a in 0..ways {
                    for b in 0..ways {
                        if a != w && b != w && before[a] < before[b] {
                            assert!(s.rank(a) < s.rank(b));
                        }
                    }
                }
                assert_eq!(s.rank(w), 0);
            }
        });
    }

    /// Both representations agree with an explicit rank-vector model on
    /// every operation and observer, at every packed width and the first
    /// wide ones.
    #[test]
    fn matches_rank_vector_model() {
        prop::check(192, |g| {
            let ways = g.usize(1, 41);
            let mut s = RecencyStack::new(ways);
            let mut model: Vec<u8> = (0..ways as u8).collect();
            for _ in 0..g.usize(0, 96) {
                let way = g.usize(0, ways);
                let old = model[way];
                if g.bool() {
                    s.touch_mru(way);
                    for r in model.iter_mut() {
                        if *r < old {
                            *r += 1;
                        }
                    }
                    model[way] = 0;
                } else {
                    s.demote_lru(way);
                    for r in model.iter_mut() {
                        if *r > old {
                            *r -= 1;
                        }
                    }
                    model[way] = (ways - 1) as u8;
                }
                for (w, &rank) in model.iter().enumerate() {
                    assert_eq!(s.rank(w), rank, "rank of way {w} diverged");
                }
                for pos in 0..ways as u8 {
                    let want = model.iter().position(|&r| r == pos).unwrap();
                    assert_eq!(s.way_at(pos), want, "way_at({pos}) diverged");
                }
                assert_eq!(s.mru_way(), model.iter().position(|&r| r == 0).unwrap());
                assert_eq!(
                    s.lru_way(),
                    model.iter().position(|&r| r == (ways - 1) as u8).unwrap()
                );
            }
        });
    }
}
