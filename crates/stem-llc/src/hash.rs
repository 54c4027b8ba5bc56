//! H3 hardware hashing of tag fields into short shadow-tag signatures.
//!
//! The shadow sets store "an m-bit hash value taken from the tag field of a
//! victim block …, where m is much shorter than the length of a tag field"
//! (§4.2), with the hash function of Ramakrishna, Fu & Bahcekapili (IEEE
//! ToC 1997) — the H3 family: each output bit is the parity of the tag
//! ANDed with a fixed random row mask, i.e. a product with a random binary
//! matrix over GF(2). This is cheap in hardware (one XOR tree per output
//! bit) and gives near-universal hashing guarantees.

use stem_sim_core::SplitMix64;

/// An H3 hash from 64-bit tags to `m`-bit signatures.
///
/// The matrix is applied a byte at a time: the hash is linear over GF(2),
/// so the signature of a tag is the XOR of the signatures of its eight
/// bytes in place, and each of those comes from a 256-entry table built
/// from the rows once. One lookup per byte replaces one AND-and-popcount
/// round per output bit, with the same result.
///
/// # Examples
///
/// ```
/// use stem_llc::TagHasher;
///
/// let h = TagHasher::new(10, 42);
/// let sig = h.hash(0xdead_beef);
/// assert!(sig < (1 << 10));
/// assert_eq!(sig, h.hash(0xdead_beef)); // deterministic
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TagHasher {
    /// `tables[k][b]` = the signature of the tag `b << (8 * k)`.
    tables: Box<[[u16; 256]; 8]>,
    width: u32,
}

impl TagHasher {
    /// Creates an `m`-bit hasher whose matrix is derived from `seed`.
    ///
    /// # Panics
    ///
    /// Panics if `m` is 0 or greater than 16 (shadow tags are short by
    /// design; Table 3 uses m = 10).
    pub fn new(m: u32, seed: u64) -> Self {
        assert!((1..=16).contains(&m), "shadow tag width must be in 1..=16");
        let mut rng = SplitMix64::new(seed);
        // One 64-bit row mask per output bit: output bit i is the parity of
        // the tag ANDed with row i. Reject zero rows: a zero row would pin
        // that output bit to 0.
        let rows: Vec<u64> = (0..m)
            .map(|_| loop {
                let r = rng.next_u64();
                if r != 0 {
                    break r;
                }
            })
            .collect();
        let by_rows = |tag: u64| {
            rows.iter().enumerate().fold(0u16, |out, (i, &row)| {
                out | ((((tag & row).count_ones() & 1) as u16) << i)
            })
        };
        let mut tables = Box::new([[0u16; 256]; 8]);
        for (k, table) in tables.iter_mut().enumerate() {
            for (b, sig) in table.iter_mut().enumerate() {
                *sig = by_rows((b as u64) << (8 * k));
            }
        }
        TagHasher { tables, width: m }
    }

    /// Output width in bits.
    pub fn width(&self) -> u32 {
        self.width
    }

    /// Hashes a tag to an `m`-bit signature.
    #[inline]
    pub fn hash(&self, tag: u64) -> u16 {
        self.tables
            .iter()
            .zip(tag.to_le_bytes())
            .fold(0, |out, (table, byte)| out ^ table[byte as usize])
    }
}

impl Default for TagHasher {
    /// The paper's m = 10 (Table 3) with a fixed seed.
    fn default() -> Self {
        TagHasher::new(10, 0x4A5B_13D7)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;

    #[test]
    fn output_fits_width() {
        let h = TagHasher::new(10, 1);
        for t in 0..1000u64 {
            assert!(h.hash(t) < 1024);
        }
        let h4 = TagHasher::new(4, 1);
        for t in 0..1000u64 {
            assert!(h4.hash(t) < 16);
        }
    }

    #[test]
    fn hash_is_linear_over_gf2() {
        // H3 hashes satisfy h(a ^ b) == h(a) ^ h(b).
        let h = TagHasher::new(12, 7);
        for (a, b) in [(3u64, 5u64), (0xff, 0x100), (12345, 67890)] {
            assert_eq!(h.hash(a ^ b), h.hash(a) ^ h.hash(b));
        }
        assert_eq!(h.hash(0), 0);
    }

    #[test]
    fn distribution_spreads_sequential_tags() {
        let h = TagHasher::new(10, 99);
        let distinct: HashSet<u16> = (0..2048u64).map(|t| h.hash(t)).collect();
        // 2048 sequential tags into 1024 buckets: expect most buckets used.
        assert!(
            distinct.len() > 700,
            "H3 spread too poor: {} distinct signatures",
            distinct.len()
        );
    }

    #[test]
    fn different_seeds_give_different_functions() {
        let a = TagHasher::new(10, 1);
        let b = TagHasher::new(10, 2);
        let same = (0..256u64).filter(|&t| a.hash(t) == b.hash(t)).count();
        assert!(
            same < 64,
            "hash functions too similar: {same}/256 collisions"
        );
    }

    #[test]
    #[should_panic(expected = "shadow tag width")]
    fn zero_width_panics() {
        let _ = TagHasher::new(0, 1);
    }

    #[test]
    fn default_is_10_bits() {
        assert_eq!(TagHasher::default().width(), 10);
    }
}
