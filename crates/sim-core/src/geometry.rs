//! Cache geometry: sets × ways × line size, and the address arithmetic the
//! three-tier organization of §2.1 implies.

use crate::{Address, GeometryError, LineAddr};

/// The shape of a set-associative cache.
///
/// A geometry fixes the MOD set-indexing function of §2.1: the set index is
/// the line address modulo the number of sets, and the tag is the remaining
/// upper bits.
///
/// # Examples
///
/// ```
/// use stem_sim_core::CacheGeometry;
///
/// # fn main() -> Result<(), stem_sim_core::GeometryError> {
/// // The paper's L2: 2MB, 16-way, 64-byte lines => 2048 sets (Table 1).
/// let l2 = CacheGeometry::new(2048, 16, 64)?;
/// assert_eq!(l2.capacity_bytes(), 2 * 1024 * 1024);
/// assert_eq!(l2.tag_bits(), 44 - 11 - 6); // Table 3: 27-bit tags
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct CacheGeometry {
    sets: usize,
    ways: usize,
    line_bytes: u64,
}

impl CacheGeometry {
    /// Creates a geometry with `sets` sets, `ways` ways per set, and
    /// `line_bytes`-byte lines.
    ///
    /// # Errors
    ///
    /// Returns an error if `sets` or `line_bytes` is not a non-zero power of
    /// two, or if `ways` is zero.
    pub fn new(sets: usize, ways: usize, line_bytes: u64) -> Result<Self, GeometryError> {
        if sets == 0 || !sets.is_power_of_two() {
            return Err(GeometryError::SetsNotPowerOfTwo(sets));
        }
        if line_bytes == 0 || !line_bytes.is_power_of_two() {
            return Err(GeometryError::LineBytesNotPowerOfTwo(line_bytes));
        }
        if ways == 0 {
            return Err(GeometryError::ZeroWays);
        }
        Ok(CacheGeometry {
            sets,
            ways,
            line_bytes,
        })
    }

    /// The paper's standard L2 configuration: 2MB, 16-way, 64-byte lines
    /// (Table 1), i.e. 2048 sets.
    pub fn micro2010_l2() -> Self {
        CacheGeometry {
            sets: 2048,
            ways: 16,
            line_bytes: 64,
        }
    }

    /// Number of sets.
    #[inline]
    pub fn sets(&self) -> usize {
        self.sets
    }

    /// Associativity (ways per set).
    #[inline]
    pub fn ways(&self) -> usize {
        self.ways
    }

    /// Line size in bytes.
    #[inline]
    pub fn line_bytes(&self) -> u64 {
        self.line_bytes
    }

    /// Total capacity in bytes.
    #[inline]
    pub fn capacity_bytes(&self) -> u64 {
        self.sets as u64 * self.ways as u64 * self.line_bytes
    }

    /// Total number of cache lines.
    #[inline]
    pub fn total_lines(&self) -> usize {
        self.sets * self.ways
    }

    /// Number of bits of the address consumed by the intra-line offset.
    #[inline]
    pub fn offset_bits(&self) -> u32 {
        self.line_bytes.trailing_zeros()
    }

    /// Number of bits of the address consumed by the set index.
    #[inline]
    pub fn index_bits(&self) -> u32 {
        self.sets.trailing_zeros()
    }

    /// Number of tag bits for the simulated 44-bit physical address space
    /// (Table 3 arithmetic).
    #[inline]
    pub fn tag_bits(&self) -> u32 {
        crate::addr::PHYSICAL_ADDRESS_BITS - self.index_bits() - self.offset_bits()
    }

    /// The set a byte address maps to under MOD indexing.
    #[inline]
    pub fn set_index(&self, addr: Address) -> usize {
        self.set_index_of_line(addr.line(self.line_bytes))
    }

    /// The set a line address maps to.
    #[inline]
    pub fn set_index_of_line(&self, line: LineAddr) -> usize {
        (line.raw() & (self.sets as u64 - 1)) as usize
    }

    /// The tag of a line address (the line address with index bits stripped).
    #[inline]
    pub fn tag_of_line(&self, line: LineAddr) -> u64 {
        line.raw() >> self.index_bits()
    }

    /// Reconstructs a line address from a (tag, set index) pair.
    ///
    /// Inverse of [`tag_of_line`](Self::tag_of_line) +
    /// [`set_index_of_line`](Self::set_index_of_line).
    #[inline]
    pub fn line_of(&self, tag: u64, set: usize) -> LineAddr {
        LineAddr::new((tag << self.index_bits()) | set as u64)
    }

    /// Builds the byte address of a line that maps to `set` with tag `tag`.
    ///
    /// Convenience for workload generators that construct per-set access
    /// patterns.
    #[inline]
    pub fn address_of(&self, tag: u64, set: usize) -> Address {
        self.line_of(tag, set).to_address(self.line_bytes)
    }
}

impl Default for CacheGeometry {
    /// The paper's standard L2 (Table 1).
    fn default() -> Self {
        CacheGeometry::micro2010_l2()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn micro2010_l2_matches_table1_and_table3() {
        let g = CacheGeometry::micro2010_l2();
        assert_eq!(g.sets(), 2048);
        assert_eq!(g.ways(), 16);
        assert_eq!(g.line_bytes(), 64);
        assert_eq!(g.capacity_bytes(), 2 * 1024 * 1024);
        assert_eq!(g.offset_bits(), 6);
        assert_eq!(g.index_bits(), 11);
        assert_eq!(g.tag_bits(), 27); // Table 3
    }

    #[test]
    fn rejects_bad_shapes() {
        assert!(CacheGeometry::new(3, 4, 64).is_err());
        assert!(CacheGeometry::new(0, 4, 64).is_err());
        assert!(CacheGeometry::new(8, 0, 64).is_err());
        assert!(CacheGeometry::new(8, 4, 48).is_err());
        assert!(CacheGeometry::new(8, 4, 0).is_err());
    }

    #[test]
    fn set_index_is_mod() {
        let g = CacheGeometry::new(2048, 16, 64).unwrap();
        let addr = Address::new(0xdead_beef);
        assert_eq!(g.set_index(addr), ((0xdead_beefu64 >> 6) % 2048) as usize);
    }

    #[test]
    fn tag_index_roundtrip() {
        let g = CacheGeometry::new(2048, 16, 64).unwrap();
        let line = Address::new(0x1234_5678).line(64);
        let tag = g.tag_of_line(line);
        let set = g.set_index_of_line(line);
        assert_eq!(g.line_of(tag, set), line);
    }

    #[test]
    fn address_of_lands_in_requested_set() {
        let g = CacheGeometry::new(256, 8, 64).unwrap();
        for set in [0usize, 1, 100, 255] {
            for tag in [0u64, 1, 0xabc] {
                let a = g.address_of(tag, set);
                assert_eq!(g.set_index(a), set);
                assert_eq!(g.tag_of_line(a.line(64)), tag);
            }
        }
    }
}
