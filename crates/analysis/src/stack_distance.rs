//! Per-set LRU stack-distance measurement.

use stem_sim_core::{Address, CacheGeometry, LineAddr};

/// A bounded per-set LRU stack recording reuse distances.
///
/// Feeding every access of a working set through the stack yields, for each
/// access, its *stack distance*: the 1-based recency position of the line
/// (how many distinct lines of the same set were touched since the last
/// access to it). An LRU cache of `d` ways hits exactly the accesses with
/// distance ≤ `d`, which is the foundation of the §3.1 capacity-demand
/// definition.
///
/// # Examples
///
/// ```
/// use stem_analysis::StackDistance;
/// use stem_sim_core::{Address, CacheGeometry};
///
/// let geom = CacheGeometry::new(2, 4, 64).unwrap();
/// let mut sd = StackDistance::new(geom, 32);
/// assert_eq!(sd.access(Address::new(0)), None);      // cold
/// assert_eq!(sd.access(Address::new(64 * 2)), None); // same set, cold
/// assert_eq!(sd.access(Address::new(0)), Some(2));   // one line in between
/// ```
#[derive(Debug, Clone)]
pub struct StackDistance {
    geom: CacheGeometry,
    depth: usize,
    /// `stacks[set]`: most-recent-first lines, truncated to `depth`.
    stacks: Vec<Vec<LineAddr>>,
}

impl StackDistance {
    /// Creates stacks of at most `depth` entries per set of `geom`.
    ///
    /// # Panics
    ///
    /// Panics if `depth` is zero.
    pub fn new(geom: CacheGeometry, depth: usize) -> Self {
        assert!(depth > 0, "stack depth must be positive");
        StackDistance {
            geom,
            depth,
            stacks: vec![Vec::new(); geom.sets()],
        }
    }

    /// The bound on measurable distances.
    pub fn depth(&self) -> usize {
        self.depth
    }

    /// Records an access and returns its stack distance (1-based), or
    /// `None` for a cold/beyond-depth access.
    pub fn access(&mut self, addr: Address) -> Option<usize> {
        let line = addr.line(self.geom.line_bytes());
        self.access_line(line, self.geom.set_index_of_line(line))
    }

    /// Line-granular entry point: records an access whose line address
    /// and set index the caller has already derived (e.g. from a
    /// [`DecodedTrace`](stem_sim_core::DecodedTrace)'s line column).
    ///
    /// # Panics
    ///
    /// Panics if `set` is out of range for the geometry.
    #[inline]
    pub fn access_line(&mut self, line: LineAddr, set: usize) -> Option<usize> {
        let stack = &mut self.stacks[set];
        let found = stack.iter().position(|&l| l == line);
        match found {
            Some(pos) => {
                // Move-to-front as one prefix rotation instead of the
                // remove + insert(0) pair, which each memmove the prefix.
                stack[..=pos].rotate_right(1);
                Some(pos + 1)
            }
            None => {
                stack.insert(0, line);
                stack.truncate(self.depth);
                None
            }
        }
    }

    /// Clears all per-set stacks.
    pub fn reset(&mut self) {
        for s in &mut self.stacks {
            s.clear();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn geom() -> CacheGeometry {
        CacheGeometry::new(2, 4, 64).unwrap()
    }

    fn addr(geom: CacheGeometry, tag: u64, set: usize) -> Address {
        geom.address_of(tag, set)
    }

    #[test]
    fn immediate_reuse_is_distance_one() {
        let g = geom();
        let mut sd = StackDistance::new(g, 8);
        sd.access(addr(g, 1, 0));
        assert_eq!(sd.access(addr(g, 1, 0)), Some(1));
    }

    #[test]
    fn intervening_lines_grow_distance() {
        let g = geom();
        let mut sd = StackDistance::new(g, 8);
        sd.access(addr(g, 1, 0));
        sd.access(addr(g, 2, 0));
        sd.access(addr(g, 3, 0));
        assert_eq!(sd.access(addr(g, 1, 0)), Some(3));
    }

    #[test]
    fn sets_do_not_interfere() {
        let g = geom();
        let mut sd = StackDistance::new(g, 8);
        sd.access(addr(g, 1, 0));
        sd.access(addr(g, 9, 1)); // different set
        assert_eq!(sd.access(addr(g, 1, 0)), Some(1));
    }

    #[test]
    fn beyond_depth_is_cold() {
        let g = geom();
        let mut sd = StackDistance::new(g, 2);
        sd.access(addr(g, 1, 0));
        sd.access(addr(g, 2, 0));
        sd.access(addr(g, 3, 0)); // pushes tag 1 off the 2-deep stack
        assert_eq!(sd.access(addr(g, 1, 0)), None);
    }

    #[test]
    fn rotation_matches_remove_insert_reference() {
        let g = geom();
        let mut sd = StackDistance::new(g, 4);
        // Naive move-to-front model (the pre-rotation implementation) of
        // one set's stack; every distance must be unchanged.
        let mut model: Vec<u64> = Vec::new();
        let seq = [1u64, 2, 3, 1, 4, 2, 2, 5, 6, 3, 1, 4, 4, 6, 2, 1, 5, 5, 3];
        for &tag in &seq {
            let expected = match model.iter().position(|&t| t == tag) {
                Some(pos) => {
                    model.remove(pos);
                    model.insert(0, tag);
                    Some(pos + 1)
                }
                None => {
                    model.insert(0, tag);
                    model.truncate(4);
                    None
                }
            };
            assert_eq!(sd.access(addr(g, tag, 0)), expected, "tag {tag}");
        }
    }

    #[test]
    fn access_line_matches_access() {
        let g = geom();
        let mut byte_path = StackDistance::new(g, 4);
        let mut line_path = StackDistance::new(g, 4);
        for t in [1u64, 2, 1, 3, 9, 2, 9, 1, 4, 3] {
            let a = addr(g, t, (t % 2) as usize);
            let line = a.line(g.line_bytes());
            assert_eq!(
                byte_path.access(a),
                line_path.access_line(line, g.set_index_of_line(line))
            );
        }
    }

    #[test]
    fn reset_clears() {
        let g = geom();
        let mut sd = StackDistance::new(g, 4);
        sd.access(addr(g, 1, 0));
        sd.reset();
        assert_eq!(sd.access(addr(g, 1, 0)), None);
    }
}
