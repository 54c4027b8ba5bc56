//! End-to-end service acceptance tests, all over the in-memory duplex
//! transport: determinism across thread counts, result-cache behaviour
//! proven through `/metrics`, 429 backpressure on a 1-slot queue, strict
//! request rejection, and graceful drain — plus the executor's
//! concurrency and prompt shutdown of a real loopback `TcpTransport`.

use std::net::{SocketAddr, TcpStream};
use std::sync::mpsc;
use std::sync::{Arc, Mutex};
use std::time::Duration;

use stem_serve::exec::Executor;
use stem_serve::http::{self, HttpResponse};
use stem_serve::service::{self, ServeConfig, ServiceHandle};
use stem_serve::transport::{duplex_transport, DuplexConnector, TcpTransport};
use stem_sim_core::Json;

/// One full HTTP exchange against a running service.
fn exchange(connector: &DuplexConnector, method: &str, path: &str, body: &[u8]) -> HttpResponse {
    let mut conn = connector.connect().expect("connect to service");
    http::write_request(&mut conn, method, path, body).expect("send request");
    http::read_response(&mut conn).expect("read response")
}

fn small_config() -> ServeConfig {
    ServeConfig {
        queue_capacity: 4,
        cache_capacity: 8,
        threads: 1,
        budget: Duration::from_secs(120),
        ..ServeConfig::default()
    }
}

/// A short real experiment (tiny geometry + trace keeps it milliseconds).
const SMALL_RUN: &[u8] =
    br#"{"benchmark": "mcf", "scheme": "lru", "sets": 64, "ways": 4, "accesses": 5000}"#;

/// Extracts the value of a single-valued metric line from `/metrics`.
fn metric(page: &str, name: &str) -> u64 {
    page.lines()
        .find_map(|l| l.strip_prefix(&format!("{name} ")))
        .unwrap_or_else(|| panic!("metric {name} missing from:\n{page}"))
        .trim()
        .parse()
        .expect("metric value parses")
}

#[test]
fn identical_requests_get_byte_identical_bodies_at_any_thread_count() {
    let mut bodies = Vec::new();
    for threads in [1usize, 4] {
        let (listener, connector) = duplex_transport();
        let config = ServeConfig {
            threads,
            ..small_config()
        };
        let handle = service::start(Box::new(listener), config);
        // Same experiment spelled two ways: different field order and
        // explicit defaults must canonicalize to the same request.
        let reordered = br#"{"accesses": 5000, "ways": 4, "scheme": "lru", "sets": 64,
                             "benchmark": "mcf", "profile": false, "line_bytes": 64,
                             "warmup_fraction": 0.2}"#;
        let a = exchange(&connector, "POST", "/run", SMALL_RUN);
        let b = exchange(&connector, "POST", "/run", reordered);
        assert_eq!(a.status, 200, "{}", a.body_text());
        assert_eq!(b.status, 200, "{}", b.body_text());
        assert_eq!(a.body, b.body, "field order must not change the bytes");
        bodies.push(a.body);
        handle.shutdown();
        handle.join();
    }
    assert_eq!(
        bodies[0], bodies[1],
        "thread count must not change the bytes"
    );
}

#[test]
fn repeated_request_is_served_from_the_cache_without_rerunning() {
    let (listener, connector) = duplex_transport();
    let handle = service::start(Box::new(listener), small_config());

    let first = exchange(&connector, "POST", "/run", SMALL_RUN);
    assert_eq!(first.status, 200, "{}", first.body_text());
    let second = exchange(&connector, "POST", "/run", SMALL_RUN);
    assert_eq!(second.status, 200);
    assert_eq!(first.body, second.body, "cache must replay stored bytes");

    let page = exchange(&connector, "GET", "/metrics", b"").body_text();
    assert_eq!(
        metric(&page, "stem_serve_sim_executions_total"),
        1,
        "the second request must not re-run the simulation:\n{page}"
    );
    assert_eq!(metric(&page, "stem_serve_cache_hits_total"), 1);
    assert_eq!(metric(&page, "stem_serve_cache_misses_total"), 1);

    // The handle's metrics view is the same object the routes render.
    assert_eq!(handle.metrics().sim_executions(), 1);
    assert_eq!(handle.metrics().cache_hits(), 1);

    handle.shutdown();
    handle.join();
}

/// The sampled-fidelity twin of [`SMALL_RUN`] (same experiment, sampled
/// tier).
const SMALL_RUN_SAMPLED: &[u8] = br#"{"benchmark": "mcf", "scheme": "lru", "sets": 64, "ways": 4,
     "accesses": 5000, "fidelity": "sampled", "sample_rate": 4}"#;

#[test]
fn sampled_and_exact_requests_never_share_a_cache_entry() {
    // The tentpole's cache-canonicalization invariant, end to end: two
    // requests differing only in fidelity must hash to distinct keys,
    // run as distinct experiments, and never serve each other's bytes —
    // while each remains a byte-stable cache hit for its own repeats.
    let (listener, connector) = duplex_transport();
    let handle = service::start(Box::new(listener), small_config());

    let exact = exchange(&connector, "POST", "/run", SMALL_RUN);
    let sampled = exchange(&connector, "POST", "/run", SMALL_RUN_SAMPLED);
    assert_eq!(exact.status, 200, "{}", exact.body_text());
    assert_eq!(sampled.status, 200, "{}", sampled.body_text());
    assert_ne!(
        exact.body, sampled.body,
        "fidelity tiers must not alias in the cache"
    );
    assert!(exact.body_text().contains("\"metrics\""));
    assert!(sampled.body_text().contains("\"sampled_metrics\""));
    assert!(
        sampled.body_text().contains("\"scale_factor\""),
        "{}",
        sampled.body_text()
    );

    // Repeats are pure cache hits with byte-identical bodies per tier.
    let exact2 = exchange(&connector, "POST", "/run", SMALL_RUN);
    let sampled2 = exchange(&connector, "POST", "/run", SMALL_RUN_SAMPLED);
    assert_eq!(exact.body, exact2.body);
    assert_eq!(sampled.body, sampled2.body);

    let page = exchange(&connector, "GET", "/metrics", b"").body_text();
    assert_eq!(
        metric(&page, "stem_serve_sim_executions_total"),
        2,
        "one execution per fidelity tier:\n{page}"
    );
    assert_eq!(metric(&page, "stem_serve_cache_hits_total"), 2);
    assert_eq!(metric(&page, "stem_serve_cache_misses_total"), 2);
    assert_eq!(
        metric(&page, "stem_serve_sampled_requests_total"),
        2,
        "both sampled requests (miss and hit) must be counted:\n{page}"
    );

    handle.shutdown();
    handle.join();
}

/// The profile twin of [`SMALL_RUN`]: it measures something extra (the
/// §3.1 capacity profile) over the *same* warm prefix — same benchmark,
/// scheme, geometry, accesses, and warmup fraction.
const SMALL_RUN_PROFILE: &[u8] = br#"{"benchmark": "mcf", "scheme": "lru", "sets": 64, "ways": 4,
     "accesses": 5000, "profile": true}"#;

/// Extracts the rendered `"mpki": <value>` fragment of a response body.
fn mpki_of(body: &str) -> &str {
    let start = body.find("\"mpki\":").expect("mpki present");
    let rest = &body[start..];
    let end = rest.find([',', '}']).expect("mpki terminated");
    &rest[..end]
}

#[test]
fn warm_prefix_sharers_hit_the_snapshot_cache_but_never_the_result_cache() {
    // Two requests that measure different things (one wants the §3.1
    // profile) but share a warm prefix: the second restores the first's
    // warmed state instead of re-replaying it. The snapshot cache is a
    // pure accelerator — the result cache still sees two distinct
    // entries, the bodies never alias, and the metric triple is
    // identical because the restored state is exact.
    let (listener, connector) = duplex_transport();
    let handle = service::start(Box::new(listener), small_config());

    let plain = exchange(&connector, "POST", "/run", SMALL_RUN);
    let profiled = exchange(&connector, "POST", "/run", SMALL_RUN_PROFILE);
    assert_eq!(plain.status, 200, "{}", plain.body_text());
    assert_eq!(profiled.status, 200, "{}", profiled.body_text());
    assert_ne!(plain.body, profiled.body, "profile must change the body");
    assert!(profiled.body_text().contains("\"capacity_profile\""));
    assert_eq!(
        mpki_of(&plain.body_text()),
        mpki_of(&profiled.body_text()),
        "restoring the warm prefix must not perturb the measurement"
    );

    let page = exchange(&connector, "GET", "/metrics", b"").body_text();
    assert_eq!(metric(&page, "stem_serve_sim_executions_total"), 2);
    assert_eq!(
        metric(&page, "stem_serve_cache_hits_total"),
        0,
        "a snapshot hit is not a result-cache hit:\n{page}"
    );
    assert_eq!(metric(&page, "stem_serve_cache_misses_total"), 2);
    assert_eq!(metric(&page, "stem_serve_snapshot_misses_total"), 1);
    assert_eq!(
        metric(&page, "stem_serve_snapshot_hits_total"),
        1,
        "the profile twin must restore the warmed snapshot:\n{page}"
    );

    // Repeats of either variant are still plain result-cache hits that
    // never consult the snapshot store again.
    let plain2 = exchange(&connector, "POST", "/run", SMALL_RUN);
    assert_eq!(plain.body, plain2.body);
    let page = exchange(&connector, "GET", "/metrics", b"").body_text();
    assert_eq!(metric(&page, "stem_serve_cache_hits_total"), 1);
    assert_eq!(metric(&page, "stem_serve_snapshot_hits_total"), 1);

    handle.shutdown();
    handle.join();
}

#[test]
fn disabling_the_snapshot_cache_never_changes_the_bytes() {
    // snapshot_slots: 0 swaps in the plain executor; every byte of every
    // response must be identical either way — the cache only removes
    // redundant warm-replay work, never alters what is measured.
    let mut bodies = Vec::new();
    for slots in [0usize, 16] {
        let (listener, connector) = duplex_transport();
        let config = ServeConfig {
            snapshot_slots: slots,
            ..small_config()
        };
        let handle = service::start(Box::new(listener), config);
        let plain = exchange(&connector, "POST", "/run", SMALL_RUN);
        let profiled = exchange(&connector, "POST", "/run", SMALL_RUN_PROFILE);
        assert_eq!(plain.status, 200, "{}", plain.body_text());
        assert_eq!(profiled.status, 200, "{}", profiled.body_text());

        let page = exchange(&connector, "GET", "/metrics", b"").body_text();
        let expected_hits = if slots == 0 { 0 } else { 1 };
        assert_eq!(
            metric(&page, "stem_serve_snapshot_hits_total"),
            expected_hits,
            "slots={slots}:\n{page}"
        );
        bodies.push((plain.body, profiled.body));
        handle.shutdown();
        handle.join();
    }
    assert_eq!(
        bodies[0], bodies[1],
        "snapshot restore must be invisible in the response bytes"
    );
}

#[test]
fn sampled_requests_for_global_state_schemes_are_rejected() {
    let (listener, connector) = duplex_transport();
    let handle = service::start(Box::new(listener), small_config());
    let body = br#"{"benchmark": "mcf", "scheme": "stem", "fidelity": "sampled"}"#;
    let resp = exchange(&connector, "POST", "/run", body);
    assert_eq!(resp.status, 400, "{}", resp.body_text());
    assert!(
        resp.body_text().contains("eligible schemes"),
        "{}",
        resp.body_text()
    );
    // A rejected request never reaches the executor or the sampled
    // counter (which counts *valid* sampled requests).
    assert_eq!(handle.metrics().sim_executions(), 0);
    assert_eq!(handle.metrics().sampled_requests(), 0);
    handle.shutdown();
    handle.join();
}

/// An injectable executor that signals when a cell starts and then blocks
/// until released, making queue-saturation timing deterministic.
fn blocking_executor() -> (Executor, mpsc::Receiver<()>, mpsc::Sender<()>) {
    let (started_tx, started_rx) = mpsc::channel::<()>();
    let (release_tx, release_rx) = mpsc::channel::<()>();
    let release_rx = Arc::new(Mutex::new(release_rx));
    let executor: Executor = Arc::new(move |req| {
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
    (executor, started_rx, release_tx)
}

#[test]
fn saturating_a_one_slot_queue_returns_429() {
    let (listener, connector) = duplex_transport();
    let config = ServeConfig {
        queue_capacity: 1,
        threads: 1,
        ..small_config()
    };
    let (executor, started_rx, release_tx) = blocking_executor();
    let handle = service::start_with_executor(Box::new(listener), config, executor);

    let run_body = |bench: &str| {
        format!(r#"{{"benchmark": "{bench}", "scheme": "lru", "accesses": 1000}}"#).into_bytes()
    };

    // Job A: picked up by the executor, which blocks inside the cell.
    let conn_a = connector.clone();
    let body_a = run_body("mcf");
    let t_a = std::thread::spawn(move || exchange(&conn_a, "POST", "/run", &body_a));
    started_rx
        .recv_timeout(Duration::from_secs(10))
        .expect("job A reaches the executor");

    // Job B: occupies the single queue slot.
    let conn_b = connector.clone();
    let body_b = run_body("art");
    let t_b = std::thread::spawn(move || exchange(&conn_b, "POST", "/run", &body_b));
    // B is accepted the moment its handler enqueues it; wait for that
    // rather than sleeping.
    let deadline = std::time::Instant::now() + Duration::from_secs(10);
    while handle
        .metrics()
        .render()
        .contains("stem_serve_queue_depth 0")
    {
        assert!(
            std::time::Instant::now() < deadline,
            "job B never reached the queue"
        );
        std::thread::yield_now();
    }

    // Job C: queue full → immediate 429, no waiting — and a
    // deterministic Retry-After derived from the queue depth (B is the
    // one queued job, so 1 + 1 = 2 seconds).
    let c = exchange(&connector, "POST", "/run", &run_body("twolf"));
    assert_eq!(c.status, 429, "{}", c.body_text());
    assert!(c.body_text().contains("queue is full"), "{}", c.body_text());
    assert_eq!(
        c.retry_after_secs(),
        Some(2),
        "429 must carry Retry-After = queue depth + 1; headers: {:?}",
        c.headers
    );
    assert_eq!(handle.metrics().rejections(), 1);

    // Release A and B; both must complete normally despite the flood.
    release_tx.send(()).expect("release A");
    release_tx.send(()).expect("release B");
    let a = t_a.join().expect("A thread");
    let b = t_b.join().expect("B thread");
    assert_eq!(a.status, 200, "{}", a.body_text());
    assert_eq!(b.status, 200, "{}", b.body_text());
    assert!(a.body_text().contains("mcf"));
    assert!(b.body_text().contains("art"));

    handle.shutdown();
    handle.join();
}

#[test]
fn invalid_requests_are_rejected_with_400_and_a_reason() {
    let (listener, connector) = duplex_transport();
    let handle = service::start(Box::new(listener), small_config());

    let cases: &[(&[u8], &str)] = &[
        (b"{oops", "invalid JSON"),
        (b"[]", "object"),
        (br#"{"benchmark": "mcf"}"#, "scheme"),
        (
            br#"{"benchmark": "mcf", "scheme": "lru", "turbo": 9}"#,
            "unknown field",
        ),
        (
            br#"{"benchmark": "nope", "scheme": "lru"}"#,
            "unknown benchmark",
        ),
        (
            br#"{"benchmark": "mcf", "scheme": "lru", "sets": 999}"#,
            "power of two",
        ),
    ];
    for (body, needle) in cases {
        let resp = exchange(&connector, "POST", "/run", body);
        assert_eq!(resp.status, 400, "{}", resp.body_text());
        assert!(
            resp.body_text().contains(needle),
            "{} → {}",
            String::from_utf8_lossy(body),
            resp.body_text()
        );
    }

    assert_eq!(exchange(&connector, "GET", "/run", b"").status, 405);
    assert_eq!(exchange(&connector, "POST", "/healthz", b"").status, 405);
    assert_eq!(exchange(&connector, "GET", "/nowhere", b"").status, 404);

    // None of the rejects should have executed anything.
    assert_eq!(handle.metrics().sim_executions(), 0);
    handle.shutdown();
    handle.join();
}

#[test]
fn healthz_reports_ok() {
    let (listener, connector) = duplex_transport();
    let handle = service::start(Box::new(listener), small_config());
    let resp = exchange(&connector, "GET", "/healthz", b"");
    assert_eq!(resp.status, 200);
    assert!(resp.body_text().contains("\"ok\""));
    handle.shutdown();
    handle.join();
}

#[test]
fn shutdown_over_http_drains_gracefully() {
    let (listener, connector) = duplex_transport();
    let handle = service::start(Box::new(listener), small_config());

    // Some in-flight work first, so the drain has something to finish.
    let warm = exchange(&connector, "POST", "/run", SMALL_RUN);
    assert_eq!(warm.status, 200, "{}", warm.body_text());

    let resp = exchange(&connector, "POST", "/shutdown", b"");
    assert_eq!(resp.status, 200);
    assert!(resp.body_text().contains("draining"));
    assert!(handle.is_stopping());
    handle.join();

    // The listener is gone: new connections are refused.
    connector
        .connect()
        .expect_err("connect after drain must fail");
}

/// A 2-core shared-LLC mix at test scale (tiny geometry + short traces).
const SMALL_RUN_MIX: &[u8] = br#"{"mix": [{"benchmark": "omnetpp"}, {"benchmark": "gromacs"}],
     "scheme": "lru", "sets": 64, "ways": 8, "accesses": 8000}"#;

#[test]
fn mix_requests_cache_and_stay_byte_identical_across_thread_counts() {
    // The mix acceptance invariant end to end: a 2-core mix through
    // `/run` returns per-core metrics plus fairness/weighted-speedup,
    // and the body is byte-identical across thread counts, across
    // spellings (explicit defaults), and across cache hit vs miss.
    let mut bodies = Vec::new();
    for threads in [1usize, 4] {
        let (listener, connector) = duplex_transport();
        let config = ServeConfig {
            threads,
            ..small_config()
        };
        let handle = service::start(Box::new(listener), config);
        let explicit = br#"{"mix": [{"benchmark": "omnetpp", "weight": 1.0},
                                    {"benchmark": "gromacs", "weight": 1.0}],
                            "mix_seed": 0, "scheme": "lru", "sets": 64, "ways": 8,
                            "accesses": 8000}"#;
        let a = exchange(&connector, "POST", "/run", SMALL_RUN_MIX);
        let b = exchange(&connector, "POST", "/run", explicit);
        assert_eq!(a.status, 200, "{}", a.body_text());
        assert_eq!(b.status, 200, "{}", b.body_text());
        assert_eq!(
            a.body, b.body,
            "spelling and cache state must not change the bytes"
        );
        let text = a.body_text();
        for needle in [
            "\"mix_metrics\"",
            "\"weighted_speedup\"",
            "\"fairness\"",
            "\"per_core\"",
            "\"mpki\"",
            "omnetpp",
            "gromacs",
        ] {
            assert!(text.contains(needle), "missing {needle} in:\n{text}");
        }

        let page = exchange(&connector, "GET", "/metrics", b"").body_text();
        assert_eq!(
            metric(&page, "stem_serve_sim_executions_total"),
            1,
            "the second spelling must be a pure cache hit:\n{page}"
        );
        assert_eq!(metric(&page, "stem_serve_cache_hits_total"), 1);
        assert_eq!(
            metric(&page, "stem_serve_mix_requests_total"),
            2,
            "both mix requests (miss and hit) must be counted:\n{page}"
        );
        bodies.push(a.body);
        handle.shutdown();
        handle.join();
    }
    assert_eq!(
        bodies[0], bodies[1],
        "thread count must not change the bytes"
    );
}

/// Two distinct misses with two workers: both experiments are running
/// before either is released, so the second never waits behind the first.
#[test]
fn two_workers_run_two_distinct_jobs_at_once() {
    let (listener, connector) = duplex_transport();
    let config = ServeConfig {
        threads: 2,
        ..small_config()
    };
    let (executor, started_rx, release_tx) = blocking_executor();
    let handle = service::start_with_executor(Box::new(listener), config, executor);

    // The second request is sent only once the first is running, and
    // neither is released until both have started: with a serial executor
    // the second start would never arrive.
    let clients: Vec<_> = ["mcf", "art"]
        .into_iter()
        .map(|bench| {
            let connector = connector.clone();
            let body = format!(r#"{{"benchmark": "{bench}", "scheme": "lru", "accesses": 1000}}"#);
            let client =
                std::thread::spawn(move || exchange(&connector, "POST", "/run", body.as_bytes()));
            started_rx
                .recv_timeout(Duration::from_secs(30))
                .unwrap_or_else(|_| panic!("the {bench} job never started"));
            client
        })
        .collect();
    release_tx.send(()).expect("release one");
    release_tx.send(()).expect("release the other");
    for (client, bench) in clients.into_iter().zip(["mcf", "art"]) {
        let resp = client.join().expect("client thread");
        assert_eq!(resp.status, 200, "{}", resp.body_text());
        assert!(resp.body_text().contains(bench), "{}", resp.body_text());
    }
    handle.shutdown();
    handle.join();
}

/// Joins the service on a helper thread, so a drain that never finishes
/// fails the test instead of wedging the suite.
fn join_or_fail(handle: ServiceHandle, what: &str) {
    let (done_tx, done_rx) = mpsc::channel();
    std::thread::spawn(move || {
        handle.join();
        let _ = done_tx.send(());
    });
    done_rx
        .recv_timeout(Duration::from_secs(30))
        .unwrap_or_else(|_| panic!("{what}: the service never drained"));
}

fn start_tcp(config: ServeConfig, executor: Option<Executor>) -> (ServiceHandle, SocketAddr) {
    let tcp = TcpTransport::bind("127.0.0.1:0").expect("bind an ephemeral loopback port");
    let addr = tcp.local_addr();
    let handle = match executor {
        Some(executor) => service::start_with_executor(Box::new(tcp), config, executor),
        None => service::start(Box::new(tcp), config),
    };
    (handle, addr)
}

fn tcp_exchange(addr: SocketAddr, method: &str, path: &str, body: &[u8]) -> HttpResponse {
    let mut conn = TcpStream::connect(addr).expect("connect to service");
    http::write_request(&mut conn, method, path, body).expect("send request");
    http::read_response(&mut conn).expect("read response")
}

#[test]
fn an_idle_tcp_service_drains_on_handle_shutdown() {
    // No traffic at all: the accept thread sees the stop flag at its next
    // poll.
    let (handle, _addr) = start_tcp(small_config(), None);
    handle.shutdown();
    join_or_fail(handle, "shutdown() on an idle TCP service");
}

#[test]
fn an_idle_tcp_service_drains_on_post_shutdown() {
    let (handle, addr) = start_tcp(small_config(), None);
    let resp = tcp_exchange(addr, "POST", "/shutdown", b"");
    assert_eq!(resp.status, 200, "{}", resp.body_text());
    assert!(resp.body_text().contains("draining"));
    assert!(handle.is_stopping());
    join_or_fail(handle, "POST /shutdown on an idle TCP service");
    TcpStream::connect(addr).expect_err("the listener is closed after the drain");
}

#[test]
fn a_job_in_flight_at_shutdown_still_gets_its_200() {
    let (executor, started_rx, release_tx) = blocking_executor();
    let (handle, addr) = start_tcp(small_config(), Some(executor));
    let client = std::thread::spawn(move || {
        tcp_exchange(
            addr,
            "POST",
            "/run",
            br#"{"benchmark": "mcf", "scheme": "lru", "accesses": 1000}"#,
        )
    });
    started_rx
        .recv_timeout(Duration::from_secs(30))
        .expect("the job reaches a worker");
    handle.shutdown();
    release_tx.send(()).expect("release the in-flight job");
    let resp = client.join().expect("client thread");
    assert_eq!(resp.status, 200, "{}", resp.body_text());
    assert!(resp.body_text().contains("mcf"), "{}", resp.body_text());
    assert_eq!(handle.metrics().sim_executions(), 1);
    join_or_fail(handle, "draining an in-flight job");
}
