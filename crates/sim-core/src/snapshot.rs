//! Checkpoint/restore of warm simulator state.
//!
//! A [`Snapshot`] freezes everything a cache needs to resume a replay at
//! an access boundary: the [`SetFrames`] tag store, the per-scheme
//! replacement-policy state (type-erased behind [`PolicyState`]), and the
//! [`CacheStats`] counters. It exists so the warm-up prefix shared by a
//! family of runs — sweep points over the same `(benchmark, scheme,
//! geometry)`, repeat service requests — is replayed **once**, snapshotted,
//! and restored per consumer instead of recomputed from cold.
//!
//! # The contract
//!
//! Restore is exact, not approximate: a cache restored from a snapshot
//! taken at access *k* must produce, for every subsequent access, exactly
//! the [`AccessResult`](crate::AccessResult) the cold run produces after
//! its own first *k* accesses, and identical [`CacheStats`]. Anything
//! weaker would let a warm-started run drift from its cold twin, and the
//! workspace's determinism gates (byte-identical stdout/CSVs at every
//! `STEM_THREADS`/`STEM_SNAPSHOTS` setting) would catch it.
//!
//! The capability is strictly opt-in, mirroring the set-sampling boundary
//! ([`CacheModel::supports_set_sampling`]): a scheme whose state cannot be
//! captured cheaply and exactly (STEM's shadow-set/SCDM machinery, V-Way's
//! decoupled global tag/data store, dynamic SBC's association map) simply
//! declines, and every dispatcher silently runs it cold.
//!
//! [`CacheModel::supports_set_sampling`]: crate::CacheModel::supports_set_sampling

use std::any::Any;
use std::fmt;

use crate::{CacheGeometry, CacheStats, SetFrames};

/// Why a snapshot could not be taken or restored.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SnapshotError {
    /// The scheme declines the capability entirely (named so refusals are
    /// diagnosable: the message carries the scheme and its disqualifying
    /// state).
    Unsupported {
        /// The refusing scheme's report name.
        scheme: String,
    },
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
    /// The type-erased policy state did not downcast to the target
    /// policy's own type (two schemes sharing a report name, or a
    /// hand-built snapshot).
    StateMismatch {
        /// The restore target's report name.
        scheme: String,
    },
    /// A composite snapshot (e.g. a whole-hierarchy checkpoint) was taken
    /// under a different system configuration than the restore target's.
    ConfigMismatch,
}

impl fmt::Display for SnapshotError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SnapshotError::Unsupported { scheme } => {
                write!(f, "scheme {scheme} does not support snapshot/restore")
            }
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
                write!(f, "snapshot policy state is not {scheme}'s own state type")
            }
            SnapshotError::ConfigMismatch => {
                write!(
                    f,
                    "snapshot system configuration does not match the restore target"
                )
            }
        }
    }
}

impl std::error::Error for SnapshotError {}

/// The clone-behind-`dyn` plumbing for type-erased policy state.
///
/// Blanket-implemented for every `'static + Send + Sync + Clone` type, so
/// a policy opts in by handing [`PolicyState::new`] a plain `Clone` of its
/// own state struct — no per-policy trait impl to write.
pub trait PolicyPayload: Any + Send + Sync {
    /// Clones the payload behind the trait object.
    fn clone_payload(&self) -> Box<dyn PolicyPayload>;

    /// Upcast for downcasting back to the concrete state type.
    fn as_any(&self) -> &dyn Any;
}

impl<T: Any + Send + Sync + Clone> PolicyPayload for T {
    fn clone_payload(&self) -> Box<dyn PolicyPayload> {
        Box::new(self.clone())
    }

    fn as_any(&self) -> &dyn Any {
        self
    }
}

/// Type-erased, cloneable replacement-policy state captured by a
/// snapshot.
///
/// Each policy stores whatever it needs (usually a `Clone` of itself) and
/// gets it back with [`downcast_ref`](PolicyState::downcast_ref) at
/// restore time; a failed downcast surfaces as
/// [`SnapshotError::StateMismatch`] rather than corrupt state.
pub struct PolicyState(Box<dyn PolicyPayload>);

impl PolicyState {
    /// Wraps a policy's own state.
    pub fn new<T: Any + Send + Sync + Clone>(state: T) -> PolicyState {
        PolicyState(Box::new(state))
    }

    /// The captured state, if it is a `T`.
    pub fn downcast_ref<T: Any>(&self) -> Option<&T> {
        self.0.as_any().downcast_ref::<T>()
    }
}

impl Clone for PolicyState {
    fn clone(&self) -> Self {
        PolicyState(self.0.clone_payload())
    }
}

impl fmt::Debug for PolicyState {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_tuple("PolicyState").finish()
    }
}

/// A checkpoint of one cache's complete replay state at an access
/// boundary: tag store, policy state, and statistics counters.
///
/// Snapshots are taken by [`CacheModel::snapshot`] and consumed by
/// [`CacheModel::restore`]; [`verify_target`](Snapshot::verify_target)
/// is the shared scheme/geometry guard every restore implementation runs
/// first, so a snapshot can never be silently applied to the wrong cache.
///
/// [`CacheModel::snapshot`]: crate::CacheModel::snapshot
/// [`CacheModel::restore`]: crate::CacheModel::restore
#[derive(Debug, Clone)]
pub struct Snapshot {
    scheme: String,
    geometry: CacheGeometry,
    frames: SetFrames,
    stats: CacheStats,
    policy: PolicyState,
}

impl Snapshot {
    /// Assembles a snapshot from its parts.
    pub fn new(
        scheme: impl Into<String>,
        geometry: CacheGeometry,
        frames: SetFrames,
        stats: CacheStats,
        policy: PolicyState,
    ) -> Snapshot {
        Snapshot {
            scheme: scheme.into(),
            geometry,
            frames,
            stats,
            policy,
        }
    }

    /// Report name of the scheme this snapshot was captured from.
    pub fn scheme(&self) -> &str {
        &self.scheme
    }

    /// Geometry the snapshot was captured at.
    pub fn geometry(&self) -> CacheGeometry {
        self.geometry
    }

    /// The captured tag store.
    pub fn frames(&self) -> &SetFrames {
        &self.frames
    }

    /// The captured statistics counters.
    pub fn stats(&self) -> CacheStats {
        self.stats
    }

    /// The captured policy state.
    pub fn policy(&self) -> &PolicyState {
        &self.policy
    }

    /// The shared restore guard: the snapshot applies only to a cache with
    /// the same report name and the same geometry.
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
        if self.scheme != scheme {
            return Err(SnapshotError::SchemeMismatch {
                expected: self.scheme.clone(),
                found: scheme.to_owned(),
            });
        }
        if self.geometry != geometry {
            return Err(SnapshotError::GeometryMismatch {
                expected: self.geometry,
                found: geometry,
            });
        }
        Ok(())
    }
}

/// The standard refusal every non-snapshotting scheme returns from
/// `restore`.
pub fn unsupported(scheme: &str) -> SnapshotError {
    SnapshotError::Unsupported {
        scheme: scheme.to_owned(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn snap(scheme: &str, geom: CacheGeometry) -> Snapshot {
        Snapshot::new(
            scheme,
            geom,
            SetFrames::new(geom.sets(), geom.ways()),
            CacheStats::default(),
            PolicyState::new(7u32),
        )
    }

    #[test]
    fn policy_state_round_trips_through_clone_and_downcast() {
        let state = PolicyState::new(vec![1u8, 2, 3]);
        let cloned = state.clone();
        assert_eq!(cloned.downcast_ref::<Vec<u8>>(), Some(&vec![1u8, 2, 3]));
        assert!(cloned.downcast_ref::<u32>().is_none(), "wrong type is None");
    }

    #[test]
    fn verify_target_guards_scheme_and_geometry() {
        let geom = CacheGeometry::new(64, 4, 64).unwrap();
        let other = CacheGeometry::new(64, 8, 64).unwrap();
        let s = snap("LRU", geom);
        assert_eq!(s.verify_target("LRU", geom), Ok(()));
        assert!(matches!(
            s.verify_target("DIP", geom),
            Err(SnapshotError::SchemeMismatch { .. })
        ));
        assert!(matches!(
            s.verify_target("LRU", other),
            Err(SnapshotError::GeometryMismatch { .. })
        ));
    }

    #[test]
    fn errors_render_actionable_messages() {
        let geom = CacheGeometry::new(64, 4, 64).unwrap();
        let other = CacheGeometry::new(128, 8, 64).unwrap();
        assert_eq!(
            unsupported("STEM").to_string(),
            "scheme STEM does not support snapshot/restore"
        );
        let s = snap("LRU", geom);
        let msg = s.verify_target("LRU", other).unwrap_err().to_string();
        assert!(msg.contains("64x4") && msg.contains("128x8"), "{msg}");
        let msg = s.verify_target("PeLIFO", geom).unwrap_err().to_string();
        assert!(msg.contains("LRU") && msg.contains("PeLIFO"), "{msg}");
        assert_eq!(
            SnapshotError::StateMismatch {
                scheme: "DIP".into()
            }
            .to_string(),
            "snapshot policy state is not DIP's own state type"
        );
    }
}
