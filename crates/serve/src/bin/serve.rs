//! `serve` — the stem-serve daemon.
//!
//! Binds `STEM_SERVE_ADDR` (default `127.0.0.1:0`, i.e. an ephemeral
//! port), prints the bound address on stdout as `listening on <addr>`,
//! and serves until a client POSTs `/shutdown`. When
//! `STEM_SERVE_ADDR_FILE` is set the bound address is also written
//! there, so scripts (ci.sh's smoke stage) can discover the ephemeral
//! port without parsing stdout.
//!
//! Knobs (all parsed and validated by [`stem_bench::config::Config`]):
//!
//! * `STEM_SERVE_ADDR` — bind address (default `127.0.0.1:0`);
//! * `STEM_SERVE_ADDR_FILE` — file to write the bound address into;
//! * `STEM_SERVE_QUEUE` — bounded queue slots (default 8);
//! * `STEM_SERVE_CACHE` — result-cache entries (default 64, max 255);
//! * `STEM_SERVE_SNAPSHOT_SLOTS` — warm-state snapshot-cache entries
//!   (default 8, max 255; 0 disables warm-prefix reuse — results are
//!   byte-identical either way, only warm-replay work changes);
//! * `STEM_THREADS` — executor worker threads (shared workspace knob);
//! * `STEM_SERVE_BUDGET_SECS` — per-experiment budget (default 600);
//! * `STEM_SERVE_IO_DEADLINE_MS` — per-connection read/write deadline
//!   (default 10000);
//! * `STEM_SERVE_CHAOS_SEED` — when set, every inbound connection runs
//!   through the deterministic fault injector seeded with this value
//!   (self-sabotage for resilience drills; chaotic accepts show up in
//!   `stem_serve_chaos_*` metrics).
//!
//! Run with `cargo run --release -p stem-serve --bin serve`.

use std::process::ExitCode;
use std::sync::Arc;

use stem_bench::config::Config;
use stem_serve::chaos::ChaosTransport;
use stem_serve::metrics::Metrics;
use stem_serve::service::{self, ServeConfig};
use stem_serve::transport::{TcpTransport, Transport};

fn main() -> ExitCode {
    let cfg = match Config::from_env() {
        Ok(c) => c,
        Err(e) => {
            eprintln!("configuration error: {e}");
            return ExitCode::from(2);
        }
    };
    let cache_capacity = cfg.serve_cache();
    if !(1..=255).contains(&cache_capacity) {
        eprintln!(
            "configuration error: STEM_SERVE_CACHE={cache_capacity} exceeds the 255-entry bound"
        );
        return ExitCode::from(2);
    }
    let snapshot_slots = cfg.serve_snapshot_slots();
    if snapshot_slots > 255 {
        eprintln!(
            "configuration error: STEM_SERVE_SNAPSHOT_SLOTS={snapshot_slots} exceeds the \
             255-entry bound"
        );
        return ExitCode::from(2);
    }

    let addr = cfg.serve_addr();
    let tcp = match TcpTransport::bind(&addr) {
        Ok(t) => t,
        Err(e) => {
            eprintln!("cannot bind {addr}: {e}");
            return ExitCode::FAILURE;
        }
    };
    let bound = tcp.local_addr();
    println!("listening on {bound}");
    if let Some(path) = &cfg.serve_addr_file {
        if let Err(e) = std::fs::write(path, format!("{bound}\n")) {
            eprintln!("cannot write {}: {e}", path.display());
            return ExitCode::FAILURE;
        }
    }

    // Metrics are built here (not inside the service) so a chaos wrapper
    // can count its injections into the same /metrics page.
    let metrics = Arc::new(Metrics::new());
    let transport: Box<dyn Transport> = match cfg.serve_chaos_seed {
        Some(seed) => {
            println!("chaos enabled (seed {seed:#x})");
            Box::new(ChaosTransport::new(tcp, seed).with_metrics(Arc::clone(&metrics)))
        }
        None => Box::new(tcp),
    };

    let config = ServeConfig {
        queue_capacity: cfg.serve_queue(),
        cache_capacity,
        snapshot_slots,
        budget: cfg.serve_budget(),
        io_deadline: cfg.serve_io_deadline(),
        metrics: Some(metrics),
        ..ServeConfig::default()
    };
    let handle = service::start(transport, config);
    handle.join();
    println!("drained; goodbye");
    ExitCode::SUCCESS
}
