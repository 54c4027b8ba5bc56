//! The L1 data cache of the Table 1 system: one kernel for the one L1
//! there is.
//!
//! Every hierarchy run, and so every scheme, filters its trace through a
//! private 32 KB 2-way LRU L1 (`SystemConfig::micro2010`). A generic
//! set-associative cache pays a recency stack, a free-way scan and a
//! policy call per probe for what, at two ways, is a pair of tag compares
//! and one MRU bit. [`L1Cache`] keeps exactly that per set and records the
//! same [`CacheStats`] the generic `SetAssocCache<Lru>` does, access for
//! access (`tests/differential_backends.rs` holds it to that).

use stem_sim_core::{CacheGeometry, CacheStats};

/// No line address: a way holding it is empty. A line address is a byte
/// address shifted right by at least one bit, so it never reaches
/// `u64::MAX`.
const EMPTY: u64 = u64::MAX;

/// One 2-way set: the line address of each way, which way is most
/// recently used, and each way's dirty bit.
#[derive(Debug, Clone, Copy)]
struct Set {
    lines: [u64; 2],
    mru: u8,
    dirty: [bool; 2],
}

/// The Table 1 L1 data cache: 2-way LRU, write-allocate, write-back.
///
/// Each set keeps its two line addresses, one MRU bit and two dirty bits.
/// A miss fills the non-MRU way, which is an empty way while the set is
/// filling (way 0, then way 1, as a generic cache fills its first free
/// way) and the LRU way after; it counts an eviction if that way held a
/// line and a writeback if the line was dirty.
///
/// # Examples
///
/// ```
/// use stem_hierarchy::{L1Cache, SystemConfig};
///
/// let mut l1 = L1Cache::new(SystemConfig::micro2010().l1_geometry());
/// // Three lines in set 0 of 256: the third evicts the least recent.
/// let (a, b, c) = (0, 256, 512);
/// assert!(!l1.access_line(a, true));
/// assert!(!l1.access_line(b, false));
/// assert!(l1.access_line(a, false));
/// assert!(!l1.access_line(c, false)); // evicts b, the LRU way
/// assert!(l1.access_line(a, false));
/// assert_eq!((l1.stats().hits(), l1.stats().misses()), (2, 3));
/// assert_eq!((l1.stats().evictions(), l1.stats().writebacks()), (1, 0));
/// ```
#[derive(Debug, Clone)]
pub struct L1Cache {
    set_mask: u64,
    sets: Vec<Set>,
    stats: CacheStats,
}

impl L1Cache {
    /// An empty L1 of geometry `geom`.
    ///
    /// # Panics
    ///
    /// Panics if `geom` is not 2-way or has 1-byte lines.
    pub fn new(geom: CacheGeometry) -> Self {
        assert_eq!(geom.ways(), 2, "the L1 kernel is 2-way");
        assert!(
            geom.line_bytes() > 1,
            "the L1 kernel needs lines of 2+ bytes"
        );
        L1Cache {
            set_mask: geom.sets() as u64 - 1,
            sets: vec![
                Set {
                    lines: [EMPTY; 2],
                    // Way 1 "most recent", so the first fill takes way 0.
                    mru: 1,
                    dirty: [false; 2],
                };
                geom.sets()
            ],
            stats: CacheStats::new(),
        }
    }

    /// Probes the L1 with one access to `line` (a line address at the
    /// L1's line size) and returns whether it hit. A hit makes the way
    /// most recent and a write marks it dirty; a miss fills the non-MRU
    /// way with `line`, dirty if `write`.
    #[inline]
    pub fn access_line(&mut self, line: u64, write: bool) -> bool {
        let set = &mut self.sets[(line & self.set_mask) as usize];
        let hit_way = if set.lines[0] == line {
            Some(0)
        } else if set.lines[1] == line {
            Some(1)
        } else {
            None
        };
        if let Some(way) = hit_way {
            self.stats.record_local_hit();
            set.mru = way as u8;
            set.dirty[way] |= write;
            return true;
        }
        self.stats.record_local_miss();
        let victim = usize::from(set.mru ^ 1);
        if set.lines[victim] != EMPTY {
            self.stats.record_eviction();
            if set.dirty[victim] {
                self.stats.record_writeback();
            }
        }
        set.lines[victim] = line;
        set.dirty[victim] = write;
        set.mru = victim as u8;
        false
    }

    /// The statistics counters.
    #[inline]
    pub fn stats(&self) -> &CacheStats {
        &self.stats
    }

    /// Zeroes the statistics counters; the cache contents stay.
    pub fn reset_stats(&mut self) {
        self.stats = CacheStats::new();
    }
}
