//! Fault injection: deliberately broken inputs thrown at the simulator.
//!
//! Three suites, each returning a [`FaultReport`]:
//!
//! * [`corrupted_trace_suite`] — a valid `STEMTRC1` byte stream is
//!   bit-flipped, truncated, re-headered with absurd counts, and fed back
//!   to the reader, which must answer with a typed [`IngestError`] (never a
//!   panic, hang, or allocator abort);
//! * [`adversarial_trace_suite`] — well-formed but hostile traces
//!   (aliasing storms, zero instruction gaps, maximum addresses) replayed
//!   through every scheme under full invariant auditing;
//! * [`invalid_config_suite`] — out-of-range configurations handed to
//!   every fallible constructor, which must reject them with
//!   [`SimError::Config`].
//!
//! The `fault_injection` binary runs all three and exits nonzero on any
//! failure; `ci.sh` runs it as the fault-injection smoke test.

use std::panic::{catch_unwind, AssertUnwindSafe};

use stem_analysis::{build_audited_cache, Scheme};
use stem_llc::{StemCache, StemConfig};
use stem_sim_core::{run_audited, Access, AccessKind, Address, CacheGeometry, SimError, Trace};
use stem_spatial::{SbcCache, SbcConfig, StaticSbcCache, VWayCache, VWayConfig, VictimCache};
use stem_trace_io::{read_binary, write_binary, IngestError};

/// The outcome of one fault-injection suite.
#[derive(Debug, Clone, Default)]
pub struct FaultReport {
    /// Total cases exercised.
    pub cases: usize,
    /// Description of every case that did NOT fail gracefully.
    pub failures: Vec<String>,
}

impl FaultReport {
    /// Whether every case failed gracefully.
    pub fn passed(&self) -> bool {
        self.failures.is_empty()
    }

    fn check(&mut self, what: &str, graceful: bool) {
        self.cases += 1;
        if !graceful {
            self.failures.push(what.to_owned());
        }
    }

    /// Merges another report into this one.
    pub fn merge(&mut self, other: FaultReport) {
        self.cases += other.cases;
        self.failures.extend(other.failures);
    }
}

impl std::fmt::Display for FaultReport {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        if self.passed() {
            write!(f, "{} cases, all handled gracefully", self.cases)
        } else {
            writeln!(
                f,
                "{} cases, {} NOT handled gracefully:",
                self.cases,
                self.failures.len()
            )?;
            for failure in &self.failures {
                writeln!(f, "  - {failure}")?;
            }
            Ok(())
        }
    }
}

fn sample_trace_bytes() -> Vec<u8> {
    let geom = CacheGeometry::new(64, 4, 64).expect("valid geometry");
    let trace: Trace = (0..200u64)
        .map(|i| Access::read(geom.address_of(i % 40, (i % 64) as usize)))
        .collect();
    let mut buf = Vec::new();
    write_binary(&mut buf, &trace).expect("writing to a Vec cannot fail");
    buf
}

/// Whether `read_binary` handles `bytes` gracefully: either parses them or
/// returns a typed error, without panicking.
fn reads_gracefully(bytes: &[u8]) -> bool {
    catch_unwind(AssertUnwindSafe(|| {
        let _: Result<Trace, IngestError> = read_binary(bytes);
    }))
    .is_ok()
}

/// Corrupts `STEMTRC1` streams every way we can think of and checks the
/// reader never panics. Single-bit flips may produce a still-valid stream
/// (an address bit changed), which is fine — the requirement is typed
/// errors *or* clean parses, never a crash.
pub fn corrupted_trace_suite() -> FaultReport {
    let mut report = FaultReport::default();
    let good = sample_trace_bytes();

    // Sanity: the pristine stream parses.
    report.check(
        "pristine stream parses",
        read_binary(good.as_slice()).is_ok(),
    );

    // Bit-flips across the header and the first records, plus a spread of
    // positions through the payload.
    let mut positions: Vec<usize> = (0..64.min(good.len())).collect();
    positions.extend((64..good.len()).step_by(97));
    for pos in positions {
        for bit in [0, 3, 7] {
            let mut bytes = good.clone();
            bytes[pos] ^= 1 << bit;
            report.check(
                &format!("bit {bit} of byte {pos} flipped"),
                reads_gracefully(&bytes),
            );
        }
    }

    // Truncations at every structurally interesting length.
    for len in [0, 1, 7, 8, 9, 15, 16, 17, 24, 31, good.len() - 1] {
        let mut bytes = good.clone();
        bytes.truncate(len);
        let graceful = matches!(read_binary(bytes.as_slice()), Err(e) if e.is_corruption());
        report.check(&format!("truncated to {len} bytes"), graceful);
    }

    // Absurd declared counts: must be a typed error, not an OOM abort.
    for count in [u64::MAX, 1 << 62, (1 << 40) + 1] {
        let mut bytes = good[..8].to_vec();
        bytes.extend_from_slice(&count.to_le_bytes());
        let graceful = matches!(read_binary(bytes.as_slice()), Err(IngestError::TooLarge(_)));
        report.check(&format!("declared count {count:#x}"), graceful);
    }

    // A plausible over-count with missing payload: clean EOF error.
    {
        let mut bytes = good.clone();
        bytes[8..16].copy_from_slice(&(1u64 << 20).to_le_bytes());
        let graceful = matches!(read_binary(bytes.as_slice()), Err(e) if e.is_corruption());
        report.check("over-declared count with short payload", graceful);
    }

    report
}

/// Well-formed but hostile traces: every scheme must survive them with
/// its invariants intact.
pub fn adversarial_trace_suite(accesses_per_trace: usize) -> FaultReport {
    let mut report = FaultReport::default();
    let geom = CacheGeometry::new(64, 4, 64).expect("valid geometry");
    let n = accesses_per_trace.max(1);

    let aliasing_storm: Trace = (0..n)
        .map(|i| {
            // Every access lands in set 0 with one of two tags: maximum
            // conflict plus maximum re-reference.
            Access::read(geom.address_of((i % 2) as u64, 0))
        })
        .collect();
    let zero_gap: Trace = (0..n)
        .map(|i| Access {
            addr: geom.address_of(i as u64 % 100, i % 64),
            kind: if i % 3 == 0 {
                AccessKind::Write
            } else {
                AccessKind::Read
            },
            inst_gap: 0,
        })
        .collect();
    let max_addresses: Trace = (0..n)
        .map(|i| Access {
            addr: Address::new(u64::MAX - (i as u64 % 7) * 64),
            kind: AccessKind::Read,
            inst_gap: u32::MAX,
        })
        .collect();

    // Every (trace, scheme) case is independent: fan the audited replays
    // out over the pool. `run_ordered` returns results in input order, so
    // the report reads identically at any thread count.
    let cases: Vec<(String, &Trace, Scheme)> = [
        ("aliasing storm", &aliasing_storm),
        ("zero inst_gap", &zero_gap),
        ("max addresses", &max_addresses),
    ]
    .into_iter()
    .flat_map(|(label, trace)| {
        Scheme::ALL
            .into_iter()
            .map(move |scheme| (format!("{scheme} vs {label}"), trace, scheme))
    })
    .collect();
    let jobs: Vec<_> = cases
        .iter()
        .map(|&(_, trace, scheme)| {
            move || {
                let mut cache = build_audited_cache(scheme, geom);
                let audited =
                    run_audited(cache.as_mut(), trace, 1024).map(|()| cache.stats().accesses());
                matches!(audited, Ok(a) if a == trace.len() as u64)
            }
        })
        .collect();
    let outcomes = crate::pool::run_ordered(crate::pool::configured_threads(), jobs);
    for ((what, _, _), outcome) in cases.iter().zip(outcomes) {
        // A panicking case is not graceful; the pool already contained it.
        report.check(what, matches!(outcome, Ok(true)));
    }

    report
}

/// Out-of-range configurations handed to every fallible constructor: each
/// must come back as a typed [`SimError::Config`] (and never panic).
pub fn invalid_config_suite() -> FaultReport {
    let mut report = FaultReport::default();
    let geom = CacheGeometry::new(64, 4, 64).expect("valid geometry");

    let is_config_err = |r: Result<(), SimError>, what: &str, report: &mut FaultReport| {
        let graceful = matches!(r, Err(SimError::Config { .. }));
        report.check(what, graceful);
    };

    for (what, cfg) in [
        (
            "V-Way ratio 0",
            VWayConfig {
                tag_data_ratio: 0,
                reuse_bits: 2,
            },
        ),
        (
            "V-Way reuse_bits 0",
            VWayConfig {
                tag_data_ratio: 2,
                reuse_bits: 0,
            },
        ),
        (
            "V-Way reuse_bits 8",
            VWayConfig {
                tag_data_ratio: 2,
                reuse_bits: 8,
            },
        ),
        (
            "V-Way ratio 200 (tag ways overflow)",
            VWayConfig {
                tag_data_ratio: 200,
                reuse_bits: 2,
            },
        ),
    ] {
        is_config_err(
            VWayCache::try_with_config(geom, cfg).map(|_| ()),
            what,
            &mut report,
        );
    }

    for (what, cfg) in [
        (
            "SBC dss_capacity 0",
            SbcConfig {
                dss_capacity: 0,
                sat_max_factor: 2,
                seed: 1,
            },
        ),
        (
            "SBC sat_max_factor 0",
            SbcConfig {
                dss_capacity: 16,
                sat_max_factor: 0,
                seed: 1,
            },
        ),
    ] {
        is_config_err(
            SbcCache::try_with_config(geom, cfg).map(|_| ()),
            what,
            &mut report,
        );
    }

    for (what, cfg) in [
        (
            "STEM counter_bits 0",
            StemConfig::micro2010().with_counter_bits(0),
        ),
        (
            "STEM counter_bits 32",
            StemConfig::micro2010().with_counter_bits(32),
        ),
        (
            "STEM shadow_tag_bits 0",
            StemConfig::micro2010().with_shadow_tag_bits(0),
        ),
        (
            "STEM shadow_tag_bits 17",
            StemConfig::micro2010().with_shadow_tag_bits(17),
        ),
        (
            "STEM heap_capacity 0",
            StemConfig::micro2010().with_heap_capacity(0),
        ),
        (
            "STEM spatial_ratio 63",
            StemConfig::micro2010().with_spatial_ratio_log2(63),
        ),
    ] {
        is_config_err(
            StemCache::try_with_config(geom, cfg).map(|_| ()),
            what,
            &mut report,
        );
    }

    let single_set = CacheGeometry::new(1, 4, 64).expect("valid geometry");
    is_config_err(
        StaticSbcCache::try_new(single_set).map(|_| ()),
        "static SBC with one set",
        &mut report,
    );
    is_config_err(
        VictimCache::try_new(geom, 0).map(|_| ()),
        "victim cache with zero capacity",
        &mut report,
    );

    report
}

/// Runs all three suites with a smoke-sized adversarial trace.
pub fn full_suite(adversarial_accesses: usize) -> FaultReport {
    let mut report = corrupted_trace_suite();
    report.merge(adversarial_trace_suite(adversarial_accesses));
    report.merge(invalid_config_suite());
    report
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn corrupted_traces_fail_gracefully() {
        let report = corrupted_trace_suite();
        assert!(report.passed(), "{report}");
        assert!(report.cases > 50, "suite too small: {} cases", report.cases);
    }

    #[test]
    fn adversarial_traces_survive_all_schemes() {
        let report = adversarial_trace_suite(3_000);
        assert!(report.passed(), "{report}");
        assert_eq!(report.cases, 3 * Scheme::ALL.len());
    }

    #[test]
    fn invalid_configs_rejected_with_typed_errors() {
        let report = invalid_config_suite();
        assert!(report.passed(), "{report}");
        assert!(report.cases >= 14);
    }
}
