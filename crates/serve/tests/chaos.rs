//! The chaos campaign: the service's no-panic / no-hang / byte-identity
//! guarantees under seeded adversarial I/O.
//!
//! Each campaign boots a real service (real simulation executor, tiny
//! traces) behind a [`ChaosTransport`] and drives a scripted mix of
//! healthy requests and fault-injected connections through it. Because
//! every fault is a pure function of `(seed, connection index)`, the
//! assertions are exact, not probabilistic:
//!
//! * `stem_serve_panics_total` is 0 after every storm;
//! * every plan-healthy connection gets its 200, byte-identical across
//!   chaos seeds, with chaos disabled entirely, *and* over a loopback TCP
//!   socket instead of the in-memory duplex;
//! * `/healthz` answers 200 throughout and after the storm;
//! * the cache stays pure: each distinct request simulates exactly once
//!   per service no matter how many chaotic copies of it arrive;
//! * a whole campaign completes in bounded wall-clock (the no-hang
//!   guarantee — one wedged handler would blow the budget);
//! * client `deadline_ms` budgets are enforced at both ends of the job
//!   queue: the handler answers 503 + `Retry-After` at the deadline and
//!   the executor watchdog refuses to start the expired job.

use std::collections::BTreeMap;
use std::io::{self, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{mpsc, Arc, Mutex};
use std::time::{Duration, Instant};

use stem_serve::chaos::{campaign, ChaosTransport};
use stem_serve::exec::Executor;
use stem_serve::http::{self, HttpResponse};
use stem_serve::metrics::Metrics;
use stem_serve::service::{self, ServeConfig};
use stem_serve::transport::{duplex_transport, DuplexConnector, TcpTransport, Transport};
use stem_sim_core::Json;

const CONNECTIONS: u64 = 120;
const SEEDS: [u64; 3] = [7, 1337, 0x00C0_FFEE];

fn run_bodies() -> Vec<String> {
    [1000usize, 2000, 3000]
        .iter()
        .map(|accesses| {
            format!(
                r#"{{"benchmark": "mcf", "scheme": "lru", "sets": 64, "ways": 4, "accesses": {accesses}}}"#
            )
        })
        .collect()
}

fn campaign_config(metrics: Arc<Metrics>) -> ServeConfig {
    ServeConfig {
        queue_capacity: 4,
        cache_capacity: 8,
        threads: 1,
        budget: Duration::from_secs(120),
        // Short enough that slow-loris plans overrun it (exercising 408s),
        // long enough that healthy requests never graze it.
        io_deadline: Duration::from_millis(500),
        // Warm-state reuse stays on under chaos: the no-panic guarantee
        // must hold with the snapshot path live.
        snapshot_slots: 16,
        metrics: Some(metrics),
    }
}

/// Runs one full campaign: boots a service on `transport`, drives the
/// scripted connections opened by `connect`, asserts the storm
/// invariants, and returns the healthy response bodies keyed by
/// connection index.
fn storm<C: Read + Write>(
    transport: Box<dyn Transport>,
    connect: impl Fn() -> io::Result<C>,
    metrics: &Arc<Metrics>,
    plan_seed: u64,
) -> BTreeMap<u64, Vec<u8>> {
    let handle = service::start(transport, campaign_config(Arc::clone(metrics)));
    let bodies = run_bodies();
    let t0 = Instant::now();
    let outcome = campaign::drive(
        &connect,
        plan_seed,
        CONNECTIONS,
        &bodies,
        Duration::from_secs(60),
        Duration::from_secs(2),
    );
    let elapsed = t0.elapsed();

    assert!(
        outcome.failures.is_empty(),
        "seed {plan_seed:#x}: healthy connections failed:\n  {}",
        outcome.failures.join("\n  ")
    );
    assert_eq!(outcome.healthy_ok, outcome.healthy_planned);
    assert!(
        outcome.healthy_planned > 50 && outcome.chaotic > 20,
        "seed {plan_seed:#x}: degenerate mix ({} healthy / {} chaotic)",
        outcome.healthy_planned,
        outcome.chaotic
    );
    assert_eq!(
        metrics.panics(),
        0,
        "seed {plan_seed:#x}: a handler panicked under chaos"
    );
    // No-hang: 120 serial connections with millisecond faults and a
    // 500ms I/O deadline must land far under this budget; a single
    // wedged handler alone would consume it.
    assert!(
        elapsed < Duration::from_secs(90),
        "seed {plan_seed:#x}: campaign took {elapsed:?} — something hung"
    );
    // Cache purity: three distinct /run requests per campaign, each
    // simulated exactly once no matter how many copies (healthy or
    // chaotic) arrived; every further healthy copy hit the cache.
    assert_eq!(
        metrics.sim_executions(),
        3,
        "seed {plan_seed:#x}: distinct requests must simulate exactly once"
    );
    assert!(
        metrics.cache_hits() > 10,
        "seed {plan_seed:#x}: repeats must come from the cache ({} hits)",
        metrics.cache_hits()
    );
    // The snapshot cache was live throughout the storm: each distinct
    // request has a distinct warm prefix (the scripts differ in
    // `accesses`), so all three executions warmed cold — and chaotic
    // copies never reached the executor to inflate the counters.
    assert_eq!(
        metrics.snapshot_misses(),
        3,
        "seed {plan_seed:#x}: one warm-up per distinct warm prefix"
    );
    assert_eq!(metrics.snapshot_hits(), 0);

    handle.shutdown();
    drop(connect()); // nudge the accept poll
    handle.join();
    outcome.bodies
}

/// A chaos storm over the in-memory duplex transport.
fn duplex_storm(seed: u64, metrics: &Arc<Metrics>) -> BTreeMap<u64, Vec<u8>> {
    let (listener, connector) = duplex_transport();
    let transport = Box::new(ChaosTransport::new(listener, seed).with_metrics(Arc::clone(metrics)));
    storm(transport, || connector.connect(), metrics, seed)
}

/// Connects to `addr` with the duplex pipe's 10 s per-read bound, so a
/// wedged server fails the read instead of hanging the campaign.
fn tcp_connect(addr: SocketAddr) -> io::Result<TcpStream> {
    let stream = TcpStream::connect(addr)?;
    stream.set_read_timeout(Some(Duration::from_secs(10)))?;
    stream.set_write_timeout(Some(Duration::from_secs(10)))?;
    Ok(stream)
}

#[test]
fn chaos_storms_never_panic_and_healthy_bytes_are_seed_invariant() {
    let bodies = run_bodies();
    // request script → response body, accumulated across every seed and
    // the chaos-off control run; any divergence is a purity violation.
    let mut by_request: BTreeMap<String, Vec<u8>> = BTreeMap::new();
    let mut merge = |label: String, observed: BTreeMap<u64, Vec<u8>>| {
        for (index, body) in observed {
            let (method, path, req_body) = campaign::scripted_request(index, &bodies);
            let key = format!("{method} {path} {req_body}");
            match by_request.get(&key) {
                None => {
                    by_request.insert(key, body);
                }
                Some(prev) => assert_eq!(
                    prev, &body,
                    "{label}: response bytes for {method} {path} diverged"
                ),
            }
        }
    };

    for seed in SEEDS {
        let metrics = Arc::new(Metrics::new());
        let observed = duplex_storm(seed, &metrics);
        assert!(
            metrics.chaos_connections() > 20,
            "seed {seed:#x}: chaos was supposed to be on ({} chaotic accepts)",
            metrics.chaos_connections()
        );
        merge(format!("seed {seed:#x}"), observed);
    }

    // Control: same script, no fault injection. The plan bookkeeping
    // still uses SEEDS[0] so the recorded (plan-healthy) subset matches
    // that seed's campaign exactly.
    let (listener, connector) = duplex_transport();
    let metrics = Arc::new(Metrics::new());
    let observed = storm(
        Box::new(listener),
        || connector.connect(),
        &metrics,
        SEEDS[0],
    );
    assert_eq!(metrics.chaos_connections(), 0);
    merge("chaos-off control".to_owned(), observed);

    // Every request kind in the script must have been observed healthy
    // at least once across the runs.
    assert!(
        by_request.len() == bodies.len() + 1,
        "expected {} /run variants + healthz, saw keys: {:?}",
        bodies.len(),
        by_request.keys().collect::<Vec<_>>()
    );
}

/// The same storm over a real loopback socket: the faults now split,
/// stall, truncate and reset `TcpTransport`'s kernel streams (with their
/// read and write timeouts set), the storm invariants still hold, and
/// every healthy body is byte-identical to the in-memory storm of the
/// same seed.
#[test]
fn a_tcp_chaos_storm_matches_the_in_memory_storm() {
    let seed = SEEDS[0];
    let listener = TcpTransport::bind("127.0.0.1:0").expect("bind a loopback port");
    let addr = listener.local_addr();
    let metrics = Arc::new(Metrics::new());
    let transport =
        Box::new(ChaosTransport::new(listener, seed).with_metrics(Arc::clone(&metrics)));
    let over_tcp = storm(transport, || tcp_connect(addr), &metrics, seed);
    assert!(
        metrics.chaos_connections() > 20,
        "chaos was supposed to be on ({} chaotic accepts)",
        metrics.chaos_connections()
    );

    let in_memory = duplex_storm(seed, &Arc::new(Metrics::new()));
    assert_eq!(
        over_tcp.keys().collect::<Vec<_>>(),
        in_memory.keys().collect::<Vec<_>>(),
        "the same connections must come back healthy"
    );
    for (index, body) in &over_tcp {
        assert_eq!(
            Some(body),
            in_memory.get(index),
            "conn {index}: TCP body differs from the in-memory body"
        );
    }
}

/// A controllable executor: counts executions, signals starts, blocks
/// until released.
fn gated_executor() -> (
    Executor,
    Arc<AtomicUsize>,
    mpsc::Receiver<()>,
    mpsc::Sender<()>,
) {
    let executions = Arc::new(AtomicUsize::new(0));
    let (started_tx, started_rx) = mpsc::channel::<()>();
    let (release_tx, release_rx) = mpsc::channel::<()>();
    let release_rx = Arc::new(Mutex::new(release_rx));
    let count = Arc::clone(&executions);
    let executor: Executor = Arc::new(move |req| {
        count.fetch_add(1, Ordering::SeqCst);
        started_tx.send(()).expect("test listens for starts");
        release_rx
            .lock()
            .expect("release lock")
            .recv()
            .expect("test releases every started cell");
        Ok(Json::Obj(vec![(
            "echo".to_owned(),
            Json::str(req.benchmark.clone()),
        )]))
    });
    (executor, executions, started_rx, release_tx)
}

fn exchange(connector: &DuplexConnector, method: &str, path: &str, body: &[u8]) -> HttpResponse {
    let mut conn = connector.connect().expect("connect");
    http::write_request(&mut conn, method, path, body).expect("send");
    http::read_response(&mut conn).expect("read")
}

#[test]
fn deadline_ms_is_enforced_by_handler_and_executor_watchdog() {
    let (listener, connector) = duplex_transport();
    let metrics = Arc::new(Metrics::new());
    let (executor, executions, started_rx, release_tx) = gated_executor();
    let handle = service::start_with_executor(
        Box::new(listener),
        campaign_config(Arc::clone(&metrics)),
        executor,
    );

    // A: unlimited patience; occupies the executor, which blocks.
    let conn_a = connector.clone();
    let t_a = std::thread::spawn(move || {
        exchange(
            &conn_a,
            "POST",
            "/run",
            br#"{"benchmark": "mcf", "scheme": "lru", "accesses": 1000}"#,
        )
    });
    started_rx
        .recv_timeout(Duration::from_secs(10))
        .expect("A reaches the executor");

    // B: a 300ms budget. It queues behind A, the handler gives up at the
    // deadline with 503 + Retry-After, and the overrun is counted.
    let t0 = Instant::now();
    let b = exchange(
        &connector,
        "POST",
        "/run",
        br#"{"benchmark": "art", "scheme": "lru", "accesses": 1000, "deadline_ms": 300}"#,
    );
    let waited = t0.elapsed();
    assert_eq!(b.status, 503, "{}", b.body_text());
    assert!(b.body_text().contains("deadline"), "{}", b.body_text());
    assert!(
        b.retry_after_secs().is_some(),
        "503 shed must advise a retry; headers: {:?}",
        b.headers
    );
    assert!(
        waited >= Duration::from_millis(300) && waited < Duration::from_secs(5),
        "handler must give up at the deadline, not before or long after ({waited:?})"
    );
    assert!(metrics.deadline_sheds() >= 1);

    // Release A; the executor drains. B is still in the queue but its
    // deadline has passed — the watchdog must shed it, not execute it.
    release_tx.send(()).expect("release A");
    let a = t_a.join().expect("A thread");
    assert_eq!(a.status, 200, "{}", a.body_text());

    handle.shutdown();
    drop(connector.connect());
    handle.join();
    assert_eq!(
        executions.load(Ordering::SeqCst),
        1,
        "the expired job must never reach the executor"
    );
    assert_eq!(metrics.panics(), 0);
}

#[test]
fn invalid_deadlines_are_rejected_before_any_work() {
    let (listener, connector) = duplex_transport();
    let metrics = Arc::new(Metrics::new());
    let handle = service::start(Box::new(listener), campaign_config(Arc::clone(&metrics)));
    for body in [
        br#"{"benchmark": "mcf", "scheme": "lru", "deadline_ms": 0}"#.as_slice(),
        br#"{"benchmark": "mcf", "scheme": "lru", "deadline_ms": -5}"#.as_slice(),
        br#"{"benchmark": "mcf", "scheme": "lru", "deadline_ms": 999999999999}"#.as_slice(),
    ] {
        let resp = exchange(&connector, "POST", "/run", body);
        assert_eq!(resp.status, 400, "{}", resp.body_text());
        assert!(
            resp.body_text().contains("deadline_ms"),
            "{}",
            resp.body_text()
        );
    }
    assert_eq!(metrics.sim_executions(), 0);
    handle.shutdown();
    drop(connector.connect());
    handle.join();
}
