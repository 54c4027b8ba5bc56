//! `chaos_smoke` — the offline CI gate for the no-panic/no-hang
//! guarantee.
//!
//! Runs a fixed-seed chaos campaign fully in-process (in-memory duplex
//! transport, real simulation executor, tiny traces): a scripted mix of
//! healthy requests and fault-injected connections (split I/O, garbage,
//! truncation, resets, slow-loris — see [`stem_serve::chaos`]), then
//! verifies on the server's own `/metrics` page that
//!
//! * `stem_serve_panics_total` is exactly 0,
//! * `/healthz` still answers 200 after the storm,
//! * every plan-healthy connection got its 200.
//!
//! Exits nonzero on any violation. No network, no ports, no
//! environment — deterministic enough to run in the tightest CI sandbox.
//!
//! Run with `cargo run --release -p stem-serve --bin chaos_smoke`.

use std::process::ExitCode;
use std::sync::Arc;
use std::time::Duration;

use stem_serve::chaos::{campaign, ChaosTransport, ConnPlan};
use stem_serve::http::{read_response_deadline, write_request, Deadline};
use stem_serve::metrics::Metrics;
use stem_serve::service::{self, ServeConfig};
use stem_serve::transport::{duplex_transport, DuplexConnector};

/// The one seed CI replays. Changing it changes which connections are
/// chaotic, not whether the invariants must hold.
const SMOKE_SEED: u64 = 0x00C0_FFEE;
const CONNECTIONS: u64 = 70;

/// Probes `path` over the next plan-*healthy* connection, burning
/// chaotic indices with empty connections (the handler 400s them; that
/// is part of the storm). Returns the response body and the next unused
/// index.
fn healthy_probe(
    connector: &DuplexConnector,
    mut index: u64,
    path: &str,
) -> Result<(u16, Vec<u8>, u64), String> {
    while !ConnPlan::for_connection(SMOKE_SEED, index).is_passthrough() {
        drop(connector.connect()); // consumes one chaotic accept slot
        index += 1;
    }
    let mut conn = connector
        .connect()
        .map_err(|e| format!("probe connect failed: {e}"))?;
    write_request(&mut conn, "GET", path, b"").map_err(|e| format!("probe write failed: {e}"))?;
    let resp = read_response_deadline(&mut conn, Deadline::after(Duration::from_secs(30)))
        .map_err(|e| format!("probe of {path} unreadable: {e}"))?;
    Ok((resp.status, resp.body, index + 1))
}

fn run() -> Result<(), String> {
    let (listener, connector) = duplex_transport();
    let metrics = Arc::new(Metrics::new());
    let transport = ChaosTransport::new(listener, SMOKE_SEED).with_metrics(Arc::clone(&metrics));
    let handle = service::start(
        Box::new(transport),
        ServeConfig {
            queue_capacity: 4,
            threads: 1,
            io_deadline: Duration::from_millis(500),
            metrics: Some(Arc::clone(&metrics)),
            ..ServeConfig::default()
        },
    );

    let run_bodies: Vec<String> = [1000usize, 2000, 3000]
        .iter()
        .map(|accesses| {
            format!(
                r#"{{"benchmark": "mcf", "scheme": "lru", "sets": 64, "ways": 4, "accesses": {accesses}}}"#
            )
        })
        .collect();
    let outcome = campaign::drive(
        || connector.connect(),
        SMOKE_SEED,
        CONNECTIONS,
        &run_bodies,
        Duration::from_secs(60),
        Duration::from_secs(2),
    );
    println!(
        "campaign: {} healthy / {} chaotic connections, {} healthy OK",
        outcome.healthy_planned, outcome.chaotic, outcome.healthy_ok
    );
    if !outcome.failures.is_empty() {
        return Err(format!(
            "healthy connections failed under chaos:\n  {}",
            outcome.failures.join("\n  ")
        ));
    }

    // The storm is over; the service must still be alive and unpanicked,
    // as seen through its own front door.
    let (status, body, next) = healthy_probe(&connector, CONNECTIONS, "/healthz")?;
    if status != 200 {
        return Err(format!("post-storm /healthz returned {status}"));
    }
    let (status, body_metrics, _) = healthy_probe(&connector, next, "/metrics")?;
    if status != 200 {
        return Err(format!("post-storm /metrics returned {status}"));
    }
    let page = String::from_utf8_lossy(&body_metrics);
    if !page.contains("stem_serve_panics_total 0") {
        return Err(format!("panic counter is not zero; /metrics says:\n{page}"));
    }
    if !page.contains("stem_serve_chaos_connections_total") {
        return Err("chaos counters missing from /metrics".to_owned());
    }
    println!(
        "healthz live ({}); panics 0; chaotic accepts {}",
        String::from_utf8_lossy(&body),
        metrics.chaos_connections()
    );

    handle.shutdown();
    // Unblock the accept poll promptly by handing it one last (empty)
    // connection; the transport poll window would get there anyway.
    drop(connector.connect());
    handle.join();
    Ok(())
}

fn main() -> ExitCode {
    match run() {
        Ok(()) => {
            println!("chaos smoke passed");
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("chaos smoke FAILED: {e}");
            ExitCode::FAILURE
        }
    }
}
