//! Checked-mode acceptance tests: every paper scheme survives a full
//! invariant audit over a long, realistic trace, and the auditors
//! actually detect corruption when it is planted (the negative test —
//! an auditor that never fires proves nothing).
//!
//! The long replays are independent per scheme, so they fan out over the
//! deterministic pool (`STEM_THREADS` workers). They audit every 16384
//! accesses plus once at the end; paper-grade per-access auditing of the
//! long trace is the `--ignored` test below.

use stem::analysis::{build_audited_cache, Scheme};
use stem::sim_core::{run_audited, AccessKind, CacheGeometry, CacheModel, InvariantAuditor};
use stem::spatial::VWayCache;
use stem::workloads::BenchmarkProfile;
use stem_bench::pool;

/// How many accesses the long audited runs replay. The ISSUE acceptance
/// bar is >= 1M per scheme; `STEM_CHECKED_ACCESSES` can scale it down for
/// quick local runs.
fn checked_accesses() -> usize {
    stem_bench::config::Config::from_env_or_panic()
        .checked_accesses
        .unwrap_or(1_000_000)
}

/// Audit stride for the long replays: every `n` accesses plus once at the
/// end.
const AUDIT_STRIDE: u64 = 16_384;

/// Replays `trace` through every paper scheme in parallel (one pool job
/// per scheme), auditing at `stride`, and panics with the scheme name on
/// the first violation. The pool contains a panicking job to its own
/// slot, so one broken scheme reports without masking the others.
fn audit_paper_schemes(geom: CacheGeometry, trace: &stem::sim_core::DecodedTrace, stride: u64) {
    let jobs: Vec<_> = Scheme::PAPER
        .iter()
        .map(|&scheme| {
            move || {
                let mut cache = build_audited_cache(scheme, geom);
                run_audited(cache.as_mut(), trace, stride)
                    .unwrap_or_else(|e| panic!("{scheme} failed its audit: {e}"));
                assert_eq!(cache.stats().accesses(), trace.len() as u64);
            }
        })
        .collect();
    let failures: Vec<String> = pool::run_ordered(pool::configured_threads(), jobs)
        .into_iter()
        .filter_map(|r| r.err())
        .map(|payload| pool::panic_message(payload.as_ref()))
        .collect();
    assert!(failures.is_empty(), "audit failures: {failures:?}");
}

/// Every paper scheme replays a >= 1M-access synthetic trace under the
/// invariant auditor, all six schemes in parallel on the pool.
#[test]
fn paper_schemes_pass_full_audit_over_long_traces() {
    let geom = CacheGeometry::micro2010_l2();
    let accesses = checked_accesses();
    // omnetpp mixes streaming and reuse phases; it exercises coupling,
    // spills, policy swaps, and V-Way global replacement.
    let trace = BenchmarkProfile::by_name("omnetpp")
        .expect("suite benchmark")
        .decoded(geom, accesses);
    assert!(trace.len() >= accesses);
    audit_paper_schemes(geom, &trace, AUDIT_STRIDE);
}

/// A second, pathological workload: a tiny geometry so sets overflow and
/// every eviction/spill/decouple path runs constantly, audited at a
/// paranoid per-access stride.
#[test]
fn paper_schemes_pass_paranoid_audit_under_pressure() {
    let geom = CacheGeometry::new(16, 4, 64).unwrap();
    let trace = BenchmarkProfile::by_name("mcf")
        .expect("suite benchmark")
        .decoded(geom, 40_000);
    audit_paper_schemes(geom, &trace, 1);
}

/// The paper-grade mode on the big geometry: audit after *every* access
/// of the long trace. Hours of CPU at the default trace length, so it is
/// `--ignored`; `STEM_CHECKED_ACCESSES` scales it.
#[test]
#[ignore = "per-access audit of the full-length trace; run explicitly with --ignored"]
fn paper_schemes_pass_per_access_audit_over_long_traces() {
    let geom = CacheGeometry::micro2010_l2();
    let trace = BenchmarkProfile::by_name("omnetpp")
        .expect("suite benchmark")
        .decoded(geom, checked_accesses());
    audit_paper_schemes(geom, &trace, 1);
}

/// The negative test: planting a corrupted V-Way reverse pointer must be
/// caught by the auditor. An auditor that cannot see planted damage gives
/// no confidence about the clean runs above.
#[test]
fn corrupted_vway_reverse_pointer_is_caught() {
    let geom = CacheGeometry::new(64, 4, 64).unwrap();
    let mut vway = VWayCache::new(geom);
    for tag in 0..256u64 {
        vway.access(geom.address_of(tag, (tag % 64) as usize), AccessKind::Read);
    }
    vway.audit().expect("clean V-Way state must pass its audit");

    assert!(
        vway.corrupt_reverse_pointer(),
        "a valid data line to corrupt"
    );
    let err = vway
        .audit()
        .expect_err("the corrupted pointer must be caught");
    let msg = err.to_string();
    assert!(msg.contains("V-Way"), "error names the scheme: {msg}");
    assert!(msg.contains("pointer"), "error names the defect: {msg}");
}
