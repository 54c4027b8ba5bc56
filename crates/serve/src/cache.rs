//! The content-addressed caches: response bodies and warm-state
//! snapshots.
//!
//! Both caches share one bounded-LRU core (`Lru`) keyed the same way:
//! the FNV-1a 64 hash of a canonical serialization
//! ([`crate::request::RunRequest::cache_key`] for responses,
//! [`crate::request::RunRequest::snapshot_key`] for snapshots), with the
//! canonical string stored alongside and compared on lookup so a hash
//! collision degrades to a miss, never to a wrong answer (or a wrong
//! restore).
//!
//! Eviction is bounded LRU — and rather than writing a fourth LRU
//! implementation, the core dogfoods the simulator's own
//! [`RecencyStack`]: the cache is one "set" whose ways are cache slots,
//! hits are `touch_mru`, and the victim on overflow is `lru_way()`. The
//! stack's permutation invariant (audited extensively in
//! `stem-replacement`) is exactly the invariant a bounded LRU cache
//! needs.

use std::sync::Arc;

use stem_hierarchy::System;
use stem_replacement::RecencyStack;

/// One cached value.
#[derive(Debug)]
struct Entry<V> {
    key: u64,
    canonical: String,
    value: V,
}

/// The shared bounded-LRU core: a map from canonical string (pre-hashed
/// to `key`) to a cheaply clonable value.
#[derive(Debug)]
struct Lru<V> {
    slots: Vec<Option<Entry<V>>>,
    recency: RecencyStack,
    hits: u64,
    misses: u64,
}

impl<V: Clone> Lru<V> {
    /// # Panics
    ///
    /// Panics unless `capacity` is in `1..=255` ([`RecencyStack`]'s range
    /// — a cache deeper than 255 entries wants a different structure
    /// anyway).
    fn new(capacity: usize) -> Self {
        Lru {
            slots: (0..capacity).map(|_| None).collect(),
            recency: RecencyStack::new(capacity),
            hits: 0,
            misses: 0,
        }
    }

    fn len(&self) -> usize {
        self.slots.iter().filter(|s| s.is_some()).count()
    }

    /// Looks `canonical` up (pre-hashed as `key`); a hit refreshes the
    /// entry to MRU.
    fn get(&mut self, key: u64, canonical: &str) -> Option<V> {
        let slot = self.slots.iter().position(|s| {
            s.as_ref()
                .is_some_and(|e| e.key == key && e.canonical == canonical)
        });
        match slot {
            Some(way) => {
                self.recency.touch_mru(way);
                self.hits += 1;
                Some(
                    self.slots[way]
                        .as_ref()
                        .expect("matched slot")
                        .value
                        .clone(),
                )
            }
            None => {
                self.misses += 1;
                None
            }
        }
    }

    /// Inserts (or refreshes) a value, evicting the LRU entry when full.
    /// Returns the evicted canonical string, if any.
    fn insert(&mut self, key: u64, canonical: String, value: V) -> Option<String> {
        // Refresh in place if the experiment raced its way in twice.
        if let Some(way) = self.slots.iter().position(|s| {
            s.as_ref()
                .is_some_and(|e| e.key == key && e.canonical == canonical)
        }) {
            self.slots[way] = Some(Entry {
                key,
                canonical,
                value,
            });
            self.recency.touch_mru(way);
            return None;
        }
        let (way, evicted) = match self.slots.iter().position(|s| s.is_none()) {
            Some(empty) => (empty, None),
            // All slots occupied: the recency stack names the victim.
            None => {
                let victim = self.recency.lru_way();
                let old = self.slots[victim]
                    .take()
                    .expect("full cache has no empty slots");
                (victim, Some(old.canonical))
            }
        };
        self.slots[way] = Some(Entry {
            key,
            canonical,
            value,
        });
        self.recency.touch_mru(way);
        evicted
    }
}

/// A bounded LRU map from canonical request to response body.
#[derive(Debug)]
pub struct ResultCache {
    inner: Lru<Arc<Vec<u8>>>,
}

impl ResultCache {
    /// Default number of cached responses.
    pub const DEFAULT_CAPACITY: usize = 64;

    /// Creates a cache holding up to `capacity` responses.
    ///
    /// # Panics
    ///
    /// Panics unless `capacity` is in `1..=255`.
    pub fn new(capacity: usize) -> Self {
        ResultCache {
            inner: Lru::new(capacity),
        }
    }

    /// Number of slots.
    pub fn capacity(&self) -> usize {
        self.inner.slots.len()
    }

    /// Number of occupied slots.
    pub fn len(&self) -> usize {
        self.inner.len()
    }

    /// Whether nothing is cached yet.
    pub fn is_empty(&self) -> bool {
        self.inner.len() == 0
    }

    /// Lifetime lookup hits.
    pub fn hits(&self) -> u64 {
        self.inner.hits
    }

    /// Lifetime lookup misses.
    pub fn misses(&self) -> u64 {
        self.inner.misses
    }

    /// Looks `canonical` up (pre-hashed as `key`); a hit refreshes the
    /// entry to MRU.
    pub fn get(&mut self, key: u64, canonical: &str) -> Option<Arc<Vec<u8>>> {
        self.inner.get(key, canonical)
    }

    /// Inserts (or refreshes) a response, evicting the LRU entry when
    /// full. Returns the evicted canonical string, if any.
    pub fn insert(&mut self, key: u64, canonical: String, body: Arc<Vec<u8>>) -> Option<String> {
        self.inner.insert(key, canonical, body)
    }
}

/// A bounded LRU map from canonical **warm prefix** to the warmed
/// [`System`] it produces (statistics zeroed), shared across every `/run`
/// whose warm state is identical (see
/// [`RunRequest::warm_prefix_canonical`](crate::request::RunRequest::warm_prefix_canonical)).
///
/// Purely a scheduling structure: a hit clones the warmed system instead
/// of re-replaying the warm prefix; a miss replays it cold. Either way the
/// measured
/// suffix — and therefore the response body — is byte-identical, which
/// is why this cache and the [`ResultCache`] can never alias: they live
/// in different key spaces *and* a snapshot hit still reruns the
/// measured suffix rather than answering from stored bytes.
#[derive(Debug)]
pub struct SnapshotCache {
    inner: Lru<Arc<System>>,
    evictions: u64,
}

impl SnapshotCache {
    /// Default number of cached warm systems. Any scheme's system can
    /// occupy a slot, up to about 1.3 MB each (V-Way at 2048 sets × 16
    /// ways), so eight slots bound the cache near 10 MB.
    pub const DEFAULT_CAPACITY: usize = 8;

    /// Creates a cache holding up to `capacity` warmed systems.
    ///
    /// # Panics
    ///
    /// Panics unless `capacity` is in `1..=255`.
    pub fn new(capacity: usize) -> Self {
        SnapshotCache {
            inner: Lru::new(capacity),
            evictions: 0,
        }
    }

    /// Number of slots.
    pub fn capacity(&self) -> usize {
        self.inner.slots.len()
    }

    /// Number of occupied slots.
    pub fn len(&self) -> usize {
        self.inner.len()
    }

    /// Whether nothing is cached yet.
    pub fn is_empty(&self) -> bool {
        self.inner.len() == 0
    }

    /// Lifetime lookup hits.
    pub fn hits(&self) -> u64 {
        self.inner.hits
    }

    /// Lifetime lookup misses.
    pub fn misses(&self) -> u64 {
        self.inner.misses
    }

    /// Lifetime LRU evictions.
    pub fn evictions(&self) -> u64 {
        self.evictions
    }

    /// Looks the warm prefix up (pre-hashed as `key`); a hit refreshes
    /// the entry to MRU.
    pub fn get(&mut self, key: u64, canonical: &str) -> Option<Arc<System>> {
        self.inner.get(key, canonical)
    }

    /// Inserts (or refreshes) a warmed system, evicting the LRU entry
    /// when full. Returns the evicted canonical string, if any.
    pub fn insert(&mut self, key: u64, canonical: String, warmed: Arc<System>) -> Option<String> {
        let evicted = self.inner.insert(key, canonical, warmed);
        if evicted.is_some() {
            self.evictions += 1;
        }
        evicted
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::request::fnv1a64;

    fn put(cache: &mut ResultCache, name: &str) -> Option<String> {
        cache.insert(
            fnv1a64(name.as_bytes()),
            name.to_owned(),
            Arc::new(name.as_bytes().to_vec()),
        )
    }

    fn get(cache: &mut ResultCache, name: &str) -> Option<Arc<Vec<u8>>> {
        cache.get(fnv1a64(name.as_bytes()), name)
    }

    #[test]
    fn hit_returns_the_stored_body() {
        let mut c = ResultCache::new(4);
        assert!(get(&mut c, "a").is_none());
        put(&mut c, "a");
        assert_eq!(get(&mut c, "a").expect("hit").as_slice(), b"a");
        assert_eq!((c.hits(), c.misses()), (1, 1));
    }

    #[test]
    fn eviction_is_least_recently_used() {
        let mut c = ResultCache::new(3);
        put(&mut c, "a");
        put(&mut c, "b");
        put(&mut c, "c");
        // Touch "a" so "b" becomes LRU.
        assert!(get(&mut c, "a").is_some());
        assert_eq!(put(&mut c, "d").as_deref(), Some("b"));
        assert!(get(&mut c, "b").is_none(), "b was evicted");
        assert!(get(&mut c, "a").is_some());
        assert!(get(&mut c, "c").is_some());
        assert!(get(&mut c, "d").is_some());
        assert_eq!(c.len(), 3);
    }

    #[test]
    fn hash_collision_degrades_to_a_miss() {
        let mut c = ResultCache::new(2);
        let key = 42;
        c.insert(key, "left".into(), Arc::new(b"L".to_vec()));
        assert!(
            c.get(key, "right").is_none(),
            "same hash, different request"
        );
        assert_eq!(c.get(key, "left").expect("real hit").as_slice(), b"L");
    }

    #[test]
    fn reinsert_refreshes_instead_of_duplicating() {
        let mut c = ResultCache::new(2);
        put(&mut c, "a");
        put(&mut c, "a");
        assert_eq!(c.len(), 1);
    }

    mod snapshots {
        use super::*;
        use stem_analysis::build_cache;
        use stem_hierarchy::SystemConfig;
        use stem_sim_core::CacheGeometry;

        fn snap() -> Arc<System> {
            let geom = CacheGeometry::new(64, 4, 64).unwrap();
            Arc::new(System::new(
                SystemConfig::micro2010(),
                build_cache(stem_analysis::Scheme::Lru, geom),
            ))
        }

        fn put(cache: &mut SnapshotCache, name: &str) -> Option<String> {
            cache.insert(fnv1a64(name.as_bytes()), name.to_owned(), snap())
        }

        #[test]
        fn snapshot_cache_is_lru_and_counts_evictions() {
            let mut c = SnapshotCache::new(2);
            assert!(c.is_empty());
            put(&mut c, "a");
            put(&mut c, "b");
            assert!(c.get(fnv1a64(b"a"), "a").is_some(), "refresh a to MRU");
            assert_eq!(put(&mut c, "c").as_deref(), Some("b"), "b was LRU");
            assert_eq!(c.evictions(), 1);
            assert_eq!((c.hits(), c.misses()), (1, 0));
            assert!(c.get(fnv1a64(b"b"), "b").is_none());
            assert_eq!(c.len(), 2);
            assert_eq!(c.capacity(), 2);
        }

        #[test]
        fn snapshot_collision_degrades_to_a_miss() {
            let mut c = SnapshotCache::new(2);
            c.insert(7, "left".into(), snap());
            assert!(c.get(7, "right").is_none(), "canonical mismatch");
            assert!(c.get(7, "left").is_some());
        }
    }
}
