//! Checkpoint/restore of warm simulator state.
//!
//! Every cache in the workspace is plain data and `Clone` (see
//! [`CacheModelClone`](crate::CacheModelClone)), so a [`Snapshot`] is
//! simply a warmed clone of the cache with its statistics zeroed. It
//! exists so the warm-up prefix shared by a family of runs — repeat
//! service requests, profile twins — is replayed **once** and cloned per
//! consumer instead of recomputed from cold.
//!
//! # The contract
//!
//! Restore is exact, not approximate: a cache restored from a snapshot
//! taken at access *k* produces, for every subsequent access, exactly the
//! [`AccessResult`](crate::AccessResult) the cold run produces after its
//! own first *k* accesses, and the same [`CacheStats`](crate::CacheStats)
//! the cold run measures after zeroing its counters at *k*. A clone
//! carries every piece of mutable state — tag store, replacement
//! metadata, global counters, RNG positions — so this holds for every
//! scheme by construction.

use std::fmt;

use crate::{CacheGeometry, CacheModel};

/// Why a snapshot could not be restored.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SnapshotError {
    /// The snapshot was taken from a different scheme than the restore
    /// target.
    SchemeMismatch {
        /// Scheme the snapshot was captured from.
        expected: String,
        /// Scheme the restore was attempted on.
        found: String,
    },
    /// The snapshot's geometry does not match the restore target's.
    GeometryMismatch {
        /// Geometry the snapshot was captured at.
        expected: CacheGeometry,
        /// Geometry of the restore target.
        found: CacheGeometry,
    },
    /// The snapshot's cache is not the restore target's concrete type
    /// (two cache types sharing a report name).
    StateMismatch {
        /// The restore target's report name.
        scheme: String,
    },
}

impl fmt::Display for SnapshotError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SnapshotError::SchemeMismatch { expected, found } => {
                write!(f, "snapshot of scheme {expected} cannot restore {found}")
            }
            SnapshotError::GeometryMismatch { expected, found } => write!(
                f,
                "snapshot at {}x{} sets x ways cannot restore a {}x{} cache",
                expected.sets(),
                expected.ways(),
                found.sets(),
                found.ways()
            ),
            SnapshotError::StateMismatch { scheme } => {
                write!(f, "snapshot cache is not {scheme}'s own cache type")
            }
        }
    }
}

impl std::error::Error for SnapshotError {}

/// A checkpoint of one cache's complete replay state at an access
/// boundary: a clone of the warmed cache with zeroed statistics.
///
/// Snapshots are taken by [`CacheModel::snapshot`] and consumed by
/// [`CacheModel::restore`]; [`verify_target`](Snapshot::verify_target)
/// is the scheme/geometry guard every restore runs first, so a snapshot
/// can never be silently applied to the wrong cache.
#[derive(Clone)]
pub struct Snapshot {
    cache: Box<dyn CacheModel>,
}

impl Snapshot {
    /// Captures `cache` (already a private clone) with its counters
    /// zeroed.
    pub(crate) fn new(mut cache: Box<dyn CacheModel>) -> Snapshot {
        cache.reset_stats();
        Snapshot { cache }
    }

    /// Report name of the scheme this snapshot was captured from.
    pub fn scheme(&self) -> &str {
        self.cache.name()
    }

    /// Geometry the snapshot was captured at.
    pub fn geometry(&self) -> CacheGeometry {
        self.cache.geometry()
    }

    /// The captured cache.
    pub(crate) fn cache(&self) -> &dyn CacheModel {
        self.cache.as_ref()
    }

    /// The restore guard: the snapshot applies only to a cache with the
    /// same report name and the same geometry.
    ///
    /// # Errors
    ///
    /// [`SnapshotError::SchemeMismatch`] or
    /// [`SnapshotError::GeometryMismatch`] naming both sides.
    pub fn verify_target(
        &self,
        scheme: &str,
        geometry: CacheGeometry,
    ) -> Result<(), SnapshotError> {
        if self.scheme() != scheme {
            return Err(SnapshotError::SchemeMismatch {
                expected: self.scheme().to_owned(),
                found: scheme.to_owned(),
            });
        }
        if self.geometry() != geometry {
            return Err(SnapshotError::GeometryMismatch {
                expected: self.geometry(),
                found: geometry,
            });
        }
        Ok(())
    }
}

impl fmt::Debug for Snapshot {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Snapshot")
            .field("scheme", &self.scheme())
            .field("geometry", &self.geometry())
            .finish_non_exhaustive()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{AccessKind, Address, CacheStats, DecodedTrace};

    /// A cache that counts accesses in a field outside its stats.
    #[derive(Clone)]
    struct Counting {
        seen: u64,
        stats: CacheStats,
        geom: CacheGeometry,
        name: &'static str,
    }

    impl CacheModel for Counting {
        fn replay_decoded(&mut self, _trace: &DecodedTrace, range: std::ops::Range<usize>) {
            for _ in range {
                self.seen += 1;
                self.stats.record_local_miss();
            }
        }
        fn stats(&self) -> &CacheStats {
            &self.stats
        }
        fn stats_mut(&mut self) -> &mut CacheStats {
            &mut self.stats
        }
        fn geometry(&self) -> CacheGeometry {
            self.geom
        }
        fn name(&self) -> &str {
            self.name
        }
    }

    /// A second cache type under the same report name as [`Counting`].
    #[derive(Clone)]
    struct Impostor(Counting);

    impl CacheModel for Impostor {
        fn replay_decoded(&mut self, trace: &DecodedTrace, range: std::ops::Range<usize>) {
            self.0.replay_decoded(trace, range);
        }
        fn stats(&self) -> &CacheStats {
            self.0.stats()
        }
        fn stats_mut(&mut self) -> &mut CacheStats {
            self.0.stats_mut()
        }
        fn geometry(&self) -> CacheGeometry {
            self.0.geom
        }
        fn name(&self) -> &str {
            self.0.name
        }
    }

    fn counting(name: &'static str, geom: CacheGeometry) -> Counting {
        Counting {
            seen: 0,
            stats: CacheStats::default(),
            geom,
            name,
        }
    }

    #[test]
    fn snapshot_is_a_deep_clone_with_zeroed_stats() {
        let geom = CacheGeometry::new(64, 4, 64).unwrap();
        let mut live = counting("LRU", geom);
        for _ in 0..3 {
            live.access(Address::new(0), AccessKind::Read);
        }
        let snap = live.snapshot().expect("every cache snapshots");
        assert!(live.supports_snapshot());
        assert_eq!(snap.cache().stats().accesses(), 0, "stats are zeroed");
        live.access(Address::new(0), AccessKind::Read);

        let mut target = counting("LRU", geom);
        target.restore(&snap).expect("same scheme and geometry");
        assert_eq!(target.seen, 3, "restore ignores later live mutation");
        assert_eq!(target.stats().accesses(), 0);
    }

    #[test]
    fn restore_guards_scheme_geometry_and_type() {
        let geom = CacheGeometry::new(64, 4, 64).unwrap();
        let other = CacheGeometry::new(64, 8, 64).unwrap();
        let snap = counting("LRU", geom).snapshot().unwrap();
        assert_eq!(snap.verify_target("LRU", geom), Ok(()));
        assert!(matches!(
            counting("DIP", geom).restore(&snap),
            Err(SnapshotError::SchemeMismatch { .. })
        ));
        assert!(matches!(
            counting("LRU", other).restore(&snap),
            Err(SnapshotError::GeometryMismatch { .. })
        ));
        let mut impostor = Impostor(counting("LRU", geom));
        impostor.access(Address::new(0), AccessKind::Read);
        assert_eq!(
            impostor.restore(&snap),
            Err(SnapshotError::StateMismatch {
                scheme: "LRU".into()
            })
        );
        assert_eq!(impostor.0.seen, 1, "a refused restore changes nothing");
    }

    #[test]
    fn errors_render_actionable_messages() {
        let geom = CacheGeometry::new(64, 4, 64).unwrap();
        let other = CacheGeometry::new(128, 8, 64).unwrap();
        let snap = counting("LRU", geom).snapshot().unwrap();
        let msg = snap.verify_target("LRU", other).unwrap_err().to_string();
        assert!(msg.contains("64x4") && msg.contains("128x8"), "{msg}");
        let msg = snap.verify_target("PeLIFO", geom).unwrap_err().to_string();
        assert!(msg.contains("LRU") && msg.contains("PeLIFO"), "{msg}");
        assert_eq!(
            SnapshotError::StateMismatch {
                scheme: "DIP".into()
            }
            .to_string(),
            "snapshot cache is not DIP's own cache type"
        );
    }
}
