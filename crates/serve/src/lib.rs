//! `stem-serve` — the simulation-as-a-service layer.
//!
//! A long-running, std-only experiment service over the STEM
//! reproduction: clients POST a JSON experiment description ("run
//! benchmark X under scheme Y at geometry G") and receive the paper's
//! metric triple (MPKI / AMAT / CPI), raw L2 statistics, and optionally
//! the §3.1 per-set capacity-demand profile. A request may instead carry
//! a multi-programmed `mix` (benchmark analogs and/or ingested trace
//! files, one per core) and receive per-core solo/shared metrics plus
//! weighted speedup and fairness — see `DESIGN.md` §16. See `DESIGN.md`
//! §11 for the architecture.
//!
//! The stack is four independently testable layers:
//!
//! * [`transport`] — where connections come from: a real
//!   `TcpListener` ([`transport::TcpTransport`]) or an in-memory duplex
//!   channel ([`transport::duplex_transport`]) so everything above it
//!   tests hermetically in-process;
//! * [`http`] — a minimal one-request-per-connection HTTP/1.1 codec;
//! * [`request`] + [`cache`] — strict validation onto the
//!   [`SimError`](stem_sim_core::SimError) taxonomy, canonicalization,
//!   FNV-1a content addressing, and two bounded LRU caches built on the
//!   simulator's own [`RecencyStack`](stem_replacement::RecencyStack):
//!   response bodies ([`ResultCache`]) and warmed simulator state
//!   ([`SnapshotCache`] — exact runs sharing a warm prefix restore a
//!   checkpoint instead of re-replaying it, byte-identically);
//! * [`service`] + [`exec`] + [`metrics`] — routing, the bounded job
//!   queue with 429 backpressure, panic/budget isolation via
//!   [`ExperimentRunner`](stem_bench::resilience::ExperimentRunner),
//!   Prometheus text metrics, and graceful drain.
//!
//! Two adversarial layers wrap and probe the stack: [`chaos`] — a
//! deterministic fault-injecting [`Transport`] decorator (partial reads,
//! garbage prefixes, truncation, resets, slow-loris, delay jitter, all
//! replayable from a seed) used by the chaos campaign in
//! `tests/chaos.rs` and the `chaos_smoke` CI binary — and [`backoff`] —
//! the client-side capped-exponential retry schedule with deterministic
//! jitter that `serve_client` applies on 429/503/connect failure.
//!
//! # The no-panic / no-hang guarantee
//!
//! Under arbitrary bytes and arbitrary timing on the wire, the service
//! never panics (`stem_serve_panics_total` stays 0 — every handler runs
//! under `catch_unwind`), and never blocks past its deadlines: each
//! connection's reads and writes are bounded by
//! [`ServeConfig`]`::io_deadline` and each `/run`
//! by its request deadline (client `deadline_ms` or the service
//! default), enforced at both ends of the job queue.
//!
//! # Determinism
//!
//! Identical requests produce **byte-identical** response bodies — across
//! field order, omitted-vs-explicit defaults, thread counts, cache hits
//! and misses, and server restarts. The response is a pure function of
//! the canonical request.
//!
//! # Quickstart
//!
//! ```
//! use stem_serve::{http, service, transport};
//!
//! let (listener, connector) = transport::duplex_transport();
//! let config = service::ServeConfig {
//!     threads: 1,
//!     ..service::ServeConfig::default()
//! };
//! let handle = service::start(Box::new(listener), config);
//!
//! let mut conn = connector.connect().unwrap();
//! let body = br#"{"benchmark": "mcf", "scheme": "lru", "sets": 64, "ways": 4, "accesses": 2000}"#;
//! http::write_request(&mut conn, "POST", "/run", body).unwrap();
//! let resp = http::read_response(&mut conn).unwrap();
//! assert_eq!(resp.status, 200);
//! assert!(resp.body_text().contains("\"mpki\""));
//!
//! handle.shutdown();
//! handle.join();
//! ```

pub mod backoff;
pub mod cache;
pub mod chaos;
pub mod exec;
pub mod http;
pub mod metrics;
pub mod request;
pub mod service;
pub mod transport;

pub use backoff::BackoffPolicy;
pub use cache::{ResultCache, SnapshotCache};
pub use chaos::{ChaosConn, ChaosTransport, ConnPlan, FaultProfile};
pub use exec::{
    run_simulation, simulation_executor, simulation_executor_with, Executor, RequestDeadline,
};
pub use http::Deadline;
pub use metrics::Metrics;
pub use request::{fnv1a64, MixComponent, MixSource, RunRequest};
pub use service::{start, start_with_executor, ServeConfig, ServiceHandle};
pub use transport::{duplex_transport, DuplexConnector, DuplexTransport, TcpTransport, Transport};
