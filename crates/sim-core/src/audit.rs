//! Checked simulation mode: structural invariant auditing for cache models.
//!
//! Every scheme in the workspace maintains internal bookkeeping that the
//! end-metric tests cannot see — recency stacks, V-Way forward/reverse
//! pointers, SBC/STEM saturating counters, shadow tag sets. This module
//! defines the [`InvariantAuditor`] trait those schemes implement so a
//! simulation can be run in *checked mode*: the auditor re-derives the
//! structural invariants from scratch after every access (or at a
//! configurable stride) and fails loudly the moment the state corrupts,
//! instead of letting a silent bookkeeping bug skew published metrics.
//!
//! # Examples
//!
//! ```no_run
//! use stem_sim_core::{run_audited, AuditedCacheModel, DecodedTrace};
//!
//! fn checked_run(cache: &mut dyn AuditedCacheModel, trace: &DecodedTrace) {
//!     // Audit every 1024 accesses plus once at the end.
//!     run_audited(cache, trace, 1024).expect("invariant violated");
//! }
//! ```

use std::error::Error;
use std::fmt;

use crate::{CacheModel, DecodedTrace};

/// A structural invariant violation detected by an [`InvariantAuditor`].
///
/// Carries the scheme name, a human-readable description of the violated
/// invariant, and — when detected mid-run by [`run_audited`] — the index of
/// the access after which the state was first observed corrupt.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AuditError {
    /// Short name of the scheme whose state failed the audit.
    pub scheme: String,
    /// Description of the violated invariant.
    pub detail: String,
    /// Index of the access after which the violation was detected, when the
    /// audit ran inside a trace replay.
    pub access_index: Option<u64>,
}

impl AuditError {
    /// Creates an audit error with no access position.
    pub fn new(scheme: impl Into<String>, detail: impl Into<String>) -> Self {
        AuditError {
            scheme: scheme.into(),
            detail: detail.into(),
            access_index: None,
        }
    }

    /// Attaches the access index at which the violation surfaced.
    #[must_use]
    pub fn at_access(mut self, index: u64) -> Self {
        self.access_index = Some(index);
        self
    }
}

impl fmt::Display for AuditError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.access_index {
            Some(i) => write!(
                f,
                "[{}] invariant violated after access {}: {}",
                self.scheme, i, self.detail
            ),
            None => write!(f, "[{}] invariant violated: {}", self.scheme, self.detail),
        }
    }
}

impl Error for AuditError {}

/// A cache whose internal structural invariants can be re-derived and
/// verified on demand.
///
/// Implementations must not mutate observable state: `audit` is a pure
/// check, safe to call at any access boundary.
pub trait InvariantAuditor {
    /// Verifies every structural invariant of the current state.
    ///
    /// # Errors
    ///
    /// Returns the first violated invariant found.
    fn audit(&self) -> Result<(), AuditError>;
}

/// A cache model that also supports checked-mode auditing.
///
/// Blanket-implemented for every `CacheModel + InvariantAuditor`, so
/// experiment code can hold `Box<dyn AuditedCacheModel>` and run either
/// plain or checked simulations from the same object.
pub trait AuditedCacheModel: CacheModel + InvariantAuditor {}

impl<T: CacheModel + InvariantAuditor + ?Sized> AuditedCacheModel for T {}

/// Replays `trace` through `cache`, auditing as it goes.
///
/// With `stride == 0` the audit runs only once, after the final access.
/// With `stride == n` it additionally runs after every `n`-th access. A
/// stride of 1 is the paper-grade paranoid mode: every access boundary is
/// checked. The accesses between audits go through the cache's own
/// [`replay_decoded`](CacheModel::replay_decoded) kernel, so checked mode
/// audits the replay path every experiment runs.
///
/// # Errors
///
/// Returns the first invariant violation, tagged with the index of the
/// access after which it was detected.
///
/// # Panics
///
/// Panics if the trace's line size differs from the cache's.
pub fn run_audited(
    cache: &mut (impl AuditedCacheModel + ?Sized),
    trace: &DecodedTrace,
    stride: u64,
) -> Result<(), AuditError> {
    let len = trace.len();
    let step = if stride == 0 { len } else { stride as usize };
    let mut done = 0;
    while done < len {
        let end = done.saturating_add(step).min(len);
        cache.replay_decoded(trace, done..end);
        done = end;
        if stride != 0 && done.is_multiple_of(step) {
            cache.audit().map_err(|e| e.at_access(done as u64 - 1))?;
        }
    }
    if len == 0 || stride == 0 || !len.is_multiple_of(step) {
        cache.audit().map_err(|e| {
            if len == 0 {
                e
            } else {
                e.at_access(len as u64 - 1)
            }
        })?;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Access, AccessKind, AccessResult, Address, CacheGeometry, CacheStats};

    /// A cache that corrupts itself after a fixed number of accesses.
    #[derive(Clone)]
    struct FragileCache {
        stats: CacheStats,
        geom: CacheGeometry,
        accesses_until_corrupt: u64,
        seen: u64,
    }

    impl FragileCache {
        fn new(accesses_until_corrupt: u64) -> Self {
            FragileCache {
                stats: CacheStats::default(),
                geom: CacheGeometry::micro2010_l2(),
                accesses_until_corrupt,
                seen: 0,
            }
        }
    }

    impl CacheModel for FragileCache {
        fn access(&mut self, _addr: Address, _kind: AccessKind) -> AccessResult {
            self.seen += 1;
            self.stats.record_local_miss();
            AccessResult::MissLocal
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
            "fragile"
        }
    }

    impl InvariantAuditor for FragileCache {
        fn audit(&self) -> Result<(), AuditError> {
            if self.seen >= self.accesses_until_corrupt {
                Err(AuditError::new("fragile", "state corrupted"))
            } else {
                Ok(())
            }
        }
    }

    fn trace(n: u64) -> DecodedTrace {
        let trace: crate::Trace = (0..n).map(|i| Access::read(Address::new(i * 64))).collect();
        DecodedTrace::decode(&trace, CacheGeometry::micro2010_l2())
    }

    #[test]
    fn healthy_run_passes_at_any_stride() {
        for stride in [0, 1, 3, 100] {
            let mut c = FragileCache::new(u64::MAX);
            run_audited(&mut c, &trace(10), stride).unwrap();
            assert_eq!(c.stats().accesses(), 10);
        }
    }

    #[test]
    fn stride_one_pinpoints_the_corrupting_access() {
        let mut c = FragileCache::new(5);
        let err = run_audited(&mut c, &trace(10), 1).unwrap_err();
        assert_eq!(err.access_index, Some(4));
    }

    #[test]
    fn coarse_stride_detects_later_but_still_detects() {
        let mut c = FragileCache::new(5);
        let err = run_audited(&mut c, &trace(10), 4).unwrap_err();
        assert_eq!(err.access_index, Some(7));
    }

    #[test]
    fn stride_zero_audits_only_at_the_end() {
        let mut c = FragileCache::new(5);
        let err = run_audited(&mut c, &trace(10), 0).unwrap_err();
        assert_eq!(err.access_index, Some(9));
    }

    #[test]
    fn empty_trace_still_audits_final_state() {
        let mut c = FragileCache::new(0); // corrupt from the start
        let err = run_audited(&mut c, &trace(0), 1).unwrap_err();
        assert_eq!(err.access_index, None);
    }

    #[test]
    fn no_double_audit_when_stride_divides_length() {
        // length 8, stride 4: audits at 4 and 8 — the final-audit branch
        // must not fire a third time (pure check, but the error index
        // proves which branch produced it).
        let mut c = FragileCache::new(9);
        run_audited(&mut c, &trace(8), 4).unwrap();
    }

    #[test]
    fn display_formats() {
        let e = AuditError::new("vway", "reverse pointer broken");
        assert_eq!(
            e.to_string(),
            "[vway] invariant violated: reverse pointer broken"
        );
        let e = e.at_access(42);
        assert_eq!(
            e.to_string(),
            "[vway] invariant violated after access 42: reverse pointer broken"
        );
    }

    #[test]
    fn trait_objects_upcast_and_run() {
        let mut boxed: Box<dyn AuditedCacheModel> = Box::new(FragileCache::new(u64::MAX));
        run_audited(boxed.as_mut(), &trace(3), 1).unwrap();
        assert_eq!(boxed.stats().accesses(), 3);
    }
}
