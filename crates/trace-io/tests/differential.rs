//! Differential gate for the ingestion front-end: a trace that goes to
//! disk and comes back must be *indistinguishable* from the in-memory
//! original — not just equal as data, but equal in effect. Every scheme
//! replays the original and each re-ingested copy and the
//! [`AccessResult`] streams and final [`CacheStats`] must match exactly.
//!
//! This is what licenses treating trace files as first-class workloads:
//! any simulator behavior observed on an ingested trace is exactly the
//! behavior of the trace it serialized.

use stem_analysis::{build_cache, Scheme};
use stem_sim_core::{AccessResult, CacheGeometry, CacheStats, Trace};
use stem_trace_io::{parse_bytes, write_binary, write_text, TraceFormat};
use stem_workloads::BenchmarkProfile;

/// Replays `trace` through a fresh cache under `scheme`, returning the
/// full per-access result stream and the final counters.
fn replay(scheme: Scheme, geom: CacheGeometry, trace: &Trace) -> (Vec<AccessResult>, CacheStats) {
    let mut cache = build_cache(scheme, geom);
    let results = trace.iter().map(|a| cache.access(a.addr, a.kind)).collect();
    let stats = *cache.stats();
    (results, stats)
}

fn synthetic_trace(geom: CacheGeometry) -> Trace {
    // mcf is the most irregular analog in the suite (Class III, heavy
    // writes) — the hardest case for any serialization shortcut.
    BenchmarkProfile::by_name("mcf")
        .expect("suite")
        .trace(geom, 3000)
}

#[test]
fn reingested_traces_replay_byte_identically_under_every_scheme() {
    let geom = CacheGeometry::new(64, 8, 64).expect("geometry");
    let original = synthetic_trace(geom);

    let mut binary = Vec::new();
    write_binary(&mut binary, &original).expect("serialize binary");
    let (bin_format, from_binary) = parse_bytes(&binary).expect("ingest binary");
    assert_eq!(bin_format, TraceFormat::Binary);
    assert_eq!(from_binary, original, "binary round-trip altered the trace");

    let mut text = Vec::new();
    write_text(&mut text, &original).expect("serialize text");
    let (text_format, from_text) = parse_bytes(&text).expect("ingest text");
    assert_eq!(text_format, TraceFormat::Text);
    assert_eq!(from_text, original, "text round-trip altered the trace");

    for scheme in Scheme::ALL {
        let (want_results, want_stats) = replay(scheme, geom, &original);
        for (form, reingested) in [("binary", &from_binary), ("text", &from_text)] {
            let (results, stats) = replay(scheme, geom, reingested);
            assert_eq!(
                results,
                want_results,
                "{form} re-ingest diverged from the original AccessResult \
                 stream under {}",
                scheme.label()
            );
            assert_eq!(
                stats,
                want_stats,
                "{form} re-ingest diverged from the original CacheStats \
                 under {}",
                scheme.label()
            );
        }
    }
}

#[test]
fn committed_fixture_round_trips_bit_identically() {
    let path = concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/../../fixtures/sample_mix.trace"
    );
    let bytes = std::fs::read(path).expect("committed fixture present");
    let (format, trace) = parse_bytes(&bytes).expect("fixture ingests");
    assert_eq!(format, TraceFormat::Text);
    assert!(!trace.is_empty());

    // The fixture is stored in the canonical text form, so re-writing the
    // parse must reproduce the committed bytes exactly...
    let mut rewritten = Vec::new();
    write_text(&mut rewritten, &trace).expect("serialize text");
    assert_eq!(rewritten, bytes, "fixture is not in canonical text form");

    // ...and a binary → text excursion must land back on them too.
    let mut binary = Vec::new();
    write_binary(&mut binary, &trace).expect("serialize binary");
    let (_, from_binary) = parse_bytes(&binary).expect("ingest binary");
    let mut via_binary = Vec::new();
    write_text(&mut via_binary, &from_binary).expect("serialize text");
    assert_eq!(via_binary, bytes, "binary excursion altered the fixture");
}
