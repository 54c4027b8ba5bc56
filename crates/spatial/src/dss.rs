//! The destination-set selector: a small hardware heap of candidate
//! giver/destination sets.
//!
//! SBC calls this the *Destination Set Selector*; STEM reuses the idea as
//! "a hardware heap (similar to the Destination Set Selector in [4]) that
//! keeps track of a small number of uncoupled giver sets that are less
//! saturated than others" (§4.5).

/// Slot-index value of a set that holds no entry.
const NO_SLOT: u32 = u32::MAX;

/// A fixed-capacity selector of the least-saturated candidate sets.
///
/// Mirrors the hardware structure: a handful of (set, saturation-level)
/// entries scanned associatively. Posting a set with a lower level than the
/// current worst entry replaces that entry ("if there are no such invalid
/// entries and if the set is less saturated than one of the sets already in
/// the heap, replacement will take place", §4.5).
///
/// STEM posts or withdraws a set on every access and SBC on every hit, so
/// the software model keeps two indexes beside the entry list, neither of
/// which changes which entry any operation picks: a per-set slot index
/// (grown on demand to the largest set posted) makes finding a set's entry
/// O(1), and the worst entry — the *last* entry of maximal level, as a
/// `max_by_key` scan picks it — is cached and rescanned only when a full
/// `post` needs it after the entries changed. Most posts to a full
/// selector come from sets outside it, so the cache is usually valid.
///
/// # Examples
///
/// ```
/// use stem_spatial::DestinationSetSelector;
///
/// let mut dss = DestinationSetSelector::new(2);
/// dss.post(3, 5);
/// dss.post(7, 1);
/// dss.post(9, 3); // replaces (3, 5): heap is full and 3 < 5
/// assert_eq!(dss.pop_least(), Some(7));
/// assert_eq!(dss.pop_least(), Some(9));
/// assert_eq!(dss.pop_least(), None);
/// ```
#[derive(Debug, Clone)]
pub struct DestinationSetSelector {
    entries: Vec<(usize, u32)>,
    capacity: usize,
    /// `slot[set]` = the index of `set`'s entry, or [`NO_SLOT`].
    slot: Vec<u32>,
    /// The index a full `post` would replace, or `None` after any change.
    worst: Option<usize>,
}

impl DestinationSetSelector {
    /// Creates a selector holding at most `capacity` candidates.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero.
    pub fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "selector capacity must be positive");
        assert!(
            capacity < NO_SLOT as usize,
            "selector capacity out of range"
        );
        DestinationSetSelector {
            entries: Vec::with_capacity(capacity),
            capacity,
            slot: Vec::new(),
            worst: None,
        }
    }

    /// Number of candidates currently tracked.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether no candidates are tracked.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Maximum number of candidates.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Whether `set` is currently a candidate.
    pub fn contains(&self, set: usize) -> bool {
        self.slot_of(set).is_some()
    }

    /// The index of `set`'s entry, if it has one.
    #[inline]
    fn slot_of(&self, set: usize) -> Option<usize> {
        match self.slot.get(set) {
            Some(&i) if i != NO_SLOT => Some(i as usize),
            _ => None,
        }
    }

    /// Points `set`'s slot at entry `idx` (or at nothing).
    #[inline]
    fn set_slot(&mut self, set: usize, idx: u32) {
        if set >= self.slot.len() {
            self.slot.resize(set + 1, NO_SLOT);
        }
        self.slot[set] = idx;
    }

    /// Offers `set` with saturation `level` as a candidate.
    ///
    /// Updates the level in place if the set is already tracked; fills an
    /// empty slot if one exists; otherwise replaces the *most* saturated
    /// entry (the last one, on a tie) if `level` improves on it. Returns
    /// `true` if the set is tracked afterwards.
    #[inline]
    pub fn post(&mut self, set: usize, level: u32) -> bool {
        if let Some(i) = self.slot_of(set) {
            self.entries[i].1 = level;
            self.worst = None;
            return true;
        }
        if self.entries.len() < self.capacity {
            self.set_slot(set, self.entries.len() as u32);
            self.entries.push((set, level));
            self.worst = None;
            return true;
        }
        let w = self.worst_index();
        let (worst_set, worst_level) = self.entries[w];
        if level < worst_level {
            self.set_slot(worst_set, NO_SLOT);
            self.entries[w] = (set, level);
            self.set_slot(set, w as u32);
            self.worst = None;
            true
        } else {
            false
        }
    }

    /// The index of the last entry of maximal level, rescanned if stale.
    fn worst_index(&mut self) -> usize {
        if let Some(w) = self.worst {
            return w;
        }
        let (w, _) = self
            .entries
            .iter()
            .enumerate()
            .max_by_key(|&(_, &(_, l))| l)
            .expect("selector is non-empty when full");
        self.worst = Some(w);
        w
    }

    /// Removes and returns the least-saturated candidate (the first one, on
    /// a tie).
    pub fn pop_least(&mut self) -> Option<usize> {
        let idx = self
            .entries
            .iter()
            .enumerate()
            .min_by_key(|&(_, &(_, l))| l)?
            .0;
        Some(self.take(idx))
    }

    /// Removes `set` from the candidates (e.g. when its role changes).
    /// Returns `true` if it was present.
    #[inline]
    pub fn remove(&mut self, set: usize) -> bool {
        match self.slot_of(set) {
            Some(i) => {
                self.take(i);
                true
            }
            None => false,
        }
    }

    /// Swap-removes entry `idx` and returns its set.
    fn take(&mut self, idx: usize) -> usize {
        let (set, _) = self.entries.swap_remove(idx);
        self.set_slot(set, NO_SLOT);
        if let Some(&(moved, _)) = self.entries.get(idx) {
            self.set_slot(moved, idx as u32);
        }
        self.worst = None;
        set
    }
}

/// Two selectors are equal when they hold the same entries in the same
/// order under the same capacity; the indexes are derived state.
impl PartialEq for DestinationSetSelector {
    fn eq(&self, other: &Self) -> bool {
        self.entries == other.entries && self.capacity == other.capacity
    }
}

impl Eq for DestinationSetSelector {}

#[cfg(test)]
mod tests {
    use super::*;
    use stem_sim_core::prop;

    #[test]
    fn post_and_pop_in_level_order() {
        let mut dss = DestinationSetSelector::new(4);
        dss.post(1, 9);
        dss.post(2, 3);
        dss.post(3, 7);
        assert_eq!(dss.pop_least(), Some(2));
        assert_eq!(dss.pop_least(), Some(3));
        assert_eq!(dss.pop_least(), Some(1));
        assert!(dss.is_empty());
    }

    #[test]
    fn full_selector_replaces_worst_only_when_better() {
        let mut dss = DestinationSetSelector::new(2);
        assert!(dss.post(1, 5));
        assert!(dss.post(2, 6));
        assert!(!dss.post(3, 8)); // not better than the worst (6)
        assert!(!dss.contains(3));
        assert!(dss.post(4, 2)); // replaces (2, 6)
        assert!(!dss.contains(2));
        assert_eq!(dss.len(), 2);
    }

    #[test]
    fn repost_updates_level() {
        let mut dss = DestinationSetSelector::new(2);
        dss.post(1, 5);
        dss.post(2, 1);
        dss.post(1, 0); // update, not duplicate
        assert_eq!(dss.len(), 2);
        assert_eq!(dss.pop_least(), Some(1));
    }

    #[test]
    fn remove_candidate() {
        let mut dss = DestinationSetSelector::new(2);
        dss.post(5, 1);
        assert!(dss.remove(5));
        assert!(!dss.remove(5));
        assert!(dss.is_empty());
    }

    #[test]
    fn full_post_replaces_last_of_tied_maxima() {
        let mut dss = DestinationSetSelector::new(3);
        dss.post(1, 7);
        dss.post(2, 7);
        dss.post(3, 2);
        assert!(dss.post(4, 1)); // replaces (2, 7), the later tied maximum
        assert!(dss.contains(1));
        assert!(!dss.contains(2));
        dss.post(1, 3); // entries (1, 3), (4, 1), (3, 2): worst is set 1
        assert!(dss.post(5, 2));
        assert!(!dss.contains(1));
        assert!(dss.remove(4)); // (3, 2) moves into index 1
        assert!(dss.contains(3));
        assert_eq!(dss.pop_least(), Some(5)); // first of the tied minima
        assert_eq!(dss.pop_least(), Some(3));
        assert!(dss.is_empty());
    }

    #[test]
    #[should_panic(expected = "capacity")]
    fn zero_capacity_panics() {
        let _ = DestinationSetSelector::new(0);
    }

    /// The selector never exceeds capacity and never stores duplicates.
    #[test]
    fn capacity_and_uniqueness() {
        prop::check(128, |g| {
            let mut dss = DestinationSetSelector::new(4);
            for _ in 0..g.usize(0, 100) {
                dss.post(g.usize(0, 32), g.u32(0, 100));
                assert!(dss.len() <= 4);
                let mut sets: Vec<usize> = dss.entries.iter().map(|&(s, _)| s).collect();
                sets.sort_unstable();
                sets.dedup();
                assert_eq!(sets.len(), dss.len());
            }
        });
    }

    /// pop_least drains in non-decreasing level order.
    #[test]
    fn pop_order_sorted() {
        prop::check(128, |g| {
            let mut dss = DestinationSetSelector::new(16);
            for _ in 0..g.usize(1, 16) {
                dss.post(g.usize(0, 32), g.u32(0, 100));
            }
            let mut levels = Vec::new();
            loop {
                let least = dss.entries.iter().map(|&(_, l)| l).min();
                match (dss.pop_least(), least) {
                    (Some(_), Some(l)) => levels.push(l),
                    _ => break,
                }
            }
            assert!(levels.windows(2).all(|w| w[0] <= w[1]));
        });
    }
}
