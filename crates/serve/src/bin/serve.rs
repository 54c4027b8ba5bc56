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
//! * `STEM_THREADS` — executor worker threads (shared workspace knob).
//!
//! Everything else is [`ServeConfig::default`]: 8 queue slots, 64
//! result-cache entries, 8 warm-state snapshot slots, a 600 s
//! per-experiment budget and a 10 s per-connection I/O deadline. Chaos
//! drills run through the `chaos_smoke` binary, which wraps the same
//! service in the fault-injecting transport.
//!
//! Run with `cargo run --release -p stem-serve --bin serve`.

use std::process::ExitCode;

use stem_bench::config::Config;
use stem_serve::service::{self, ServeConfig};
use stem_serve::transport::TcpTransport;

fn main() -> ExitCode {
    let cfg = match Config::from_env() {
        Ok(c) => c,
        Err(e) => {
            eprintln!("configuration error: {e}");
            return ExitCode::from(2);
        }
    };
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

    let handle = service::start(Box::new(tcp), ServeConfig::default());
    handle.join();
    println!("drained; goodbye");
    ExitCode::SUCCESS
}
