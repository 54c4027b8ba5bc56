//! The workspace-wide error taxonomy.
//!
//! Every fallible operation in the simulator surfaces through one of five
//! families, unified under [`SimError`]:
//!
//! * [`GeometryError`] — an impossible cache shape was requested;
//! * [`SimError::Config`] — a scheme-specific parameter is out of range;
//! * [`TraceError`] — a trace could not be read;
//! * [`AuditError`](crate::AuditError) — checked mode caught a structural
//!   invariant violation;
//! * [`JsonError`](crate::json::JsonError) — a JSON document (an
//!   experiment request, a recorded artifact) failed strict parsing.
//!
//! Schemes never panic on malformed external input (traces, configs);
//! panics are reserved for internal invariant violations that checked mode
//! exists to catch early.

use std::error::Error;
use std::fmt;
use std::io;

use crate::json::JsonError;
use crate::AuditError;

/// An invalid cache geometry was requested.
///
/// Returned by [`CacheGeometry::new`](crate::CacheGeometry::new).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum GeometryError {
    /// The number of sets must be a non-zero power of two (the MOD indexing
    /// function of §2.1 requires it).
    SetsNotPowerOfTwo(usize),
    /// The line size must be a non-zero power of two.
    LineBytesNotPowerOfTwo(u64),
    /// Associativity must be at least 1.
    ZeroWays,
}

impl fmt::Display for GeometryError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            GeometryError::SetsNotPowerOfTwo(n) => {
                write!(f, "number of sets ({n}) is not a non-zero power of two")
            }
            GeometryError::LineBytesNotPowerOfTwo(n) => {
                write!(f, "line size ({n} bytes) is not a non-zero power of two")
            }
            GeometryError::ZeroWays => write!(f, "associativity must be at least 1"),
        }
    }
}

impl Error for GeometryError {}

/// A trace could not be read.
///
/// The workspace-wide form of a trace-ingestion failure: the
/// `stem-trace-io` reader reports a typed `IngestError` and lowers it here
/// when it crosses into [`SimError`], carrying format corruption as
/// `InvalidData`.
#[derive(Debug)]
pub enum TraceError {
    /// The underlying reader failed, or the bytes were not a valid trace.
    Io(io::Error),
}

impl fmt::Display for TraceError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TraceError::Io(e) => write!(f, "trace read failed: {e}"),
        }
    }
}

impl Error for TraceError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            TraceError::Io(e) => Some(e),
        }
    }
}

impl From<io::Error> for TraceError {
    fn from(e: io::Error) -> Self {
        TraceError::Io(e)
    }
}

/// Any error the simulator can surface, across all crates.
///
/// Scheme crates return their domain-specific family; experiment drivers
/// that mix schemes, traces, and checked mode converge on this enum.
#[derive(Debug)]
pub enum SimError {
    /// An impossible cache shape.
    Geometry(GeometryError),
    /// A scheme-specific parameter is out of its documented range.
    Config {
        /// The scheme that rejected its configuration.
        scheme: &'static str,
        /// What was wrong with it.
        detail: String,
    },
    /// A trace could not be read.
    Trace(TraceError),
    /// Checked mode caught a structural invariant violation.
    Audit(AuditError),
    /// A JSON document (experiment request, artifact) failed to parse.
    Json(JsonError),
}

impl SimError {
    /// Creates a configuration error for `scheme`.
    pub fn config(scheme: &'static str, detail: impl Into<String>) -> Self {
        SimError::Config {
            scheme,
            detail: detail.into(),
        }
    }
}

impl fmt::Display for SimError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SimError::Geometry(e) => write!(f, "geometry error: {e}"),
            SimError::Config { scheme, detail } => {
                write!(f, "invalid {scheme} configuration: {detail}")
            }
            SimError::Trace(e) => write!(f, "trace error: {e}"),
            SimError::Audit(e) => write!(f, "audit error: {e}"),
            SimError::Json(e) => write!(f, "json error: {e}"),
        }
    }
}

impl Error for SimError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            SimError::Geometry(e) => Some(e),
            SimError::Trace(e) => Some(e),
            SimError::Audit(e) => Some(e),
            SimError::Json(e) => Some(e),
            SimError::Config { .. } => None,
        }
    }
}

impl From<GeometryError> for SimError {
    fn from(e: GeometryError) -> Self {
        SimError::Geometry(e)
    }
}

impl From<TraceError> for SimError {
    fn from(e: TraceError) -> Self {
        SimError::Trace(e)
    }
}

impl From<AuditError> for SimError {
    fn from(e: AuditError) -> Self {
        SimError::Audit(e)
    }
}

impl From<JsonError> for SimError {
    fn from(e: JsonError) -> Self {
        SimError::Json(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_messages_are_lowercase_and_unpunctuated() {
        for err in [
            GeometryError::SetsNotPowerOfTwo(3),
            GeometryError::LineBytesNotPowerOfTwo(7),
            GeometryError::ZeroWays,
        ] {
            let msg = err.to_string();
            assert!(!msg.is_empty());
            assert!(!msg.ends_with('.'));
            assert!(
                msg.chars().next().unwrap().is_lowercase() || msg.starts_with(char::is_numeric)
            );
        }
    }

    #[test]
    fn error_is_send_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<GeometryError>();
        assert_send_sync::<TraceError>();
        assert_send_sync::<SimError>();
    }

    #[test]
    fn sim_error_wraps_every_family() {
        let from_geom: SimError = GeometryError::ZeroWays.into();
        assert!(matches!(from_geom, SimError::Geometry(_)));
        let from_trace: SimError = TraceError::from(io::Error::other("eof")).into();
        assert!(matches!(from_trace, SimError::Trace(_)));
        let from_json: SimError = crate::json::Json::parse("{oops").unwrap_err().into();
        assert!(matches!(from_json, SimError::Json(_)));
        assert!(from_json.to_string().contains("invalid JSON"));
        let from_audit: SimError = crate::AuditError::new("lru", "stack broken").into();
        assert!(matches!(from_audit, SimError::Audit(_)));
        let cfg = SimError::config("vway", "tag_data_ratio must be >= 1");
        assert_eq!(
            cfg.to_string(),
            "invalid vway configuration: tag_data_ratio must be >= 1"
        );
    }

    #[test]
    fn sources_chain() {
        use std::error::Error as _;
        let e = SimError::from(TraceError::from(io::Error::other("bad magic")));
        assert!(e.source().is_some());
        assert!(SimError::config("sbc", "x").source().is_none());
    }
}
