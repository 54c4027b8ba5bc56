//! `serve_client` — a tiny raw-TCP client for the stem-serve daemon.
//!
//! The offline CI environment does not guarantee `curl`, so the smoke
//! stage (and anyone poking a local server) uses this instead:
//!
//! ```text
//! serve_client <addr> GET  /healthz
//! serve_client <addr> GET  /metrics
//! serve_client <addr> POST /run '{"benchmark": "mcf", "scheme": "stem"}'
//! serve_client <addr> POST /shutdown
//! serve_client <addr> BENCH /run '{"benchmark": "mcf", ...}' 50
//! ```
//!
//! Prints the response body on stdout; exits 0 on 2xx, 1 otherwise (with
//! the status on stderr).
//!
//! # Retries
//!
//! A failed connect, a 429 (queue full), or a 503 (shed/draining) is
//! retried up to 4 times under the capped exponential backoff with
//! deterministic jitter from [`stem_serve::backoff`], starting from a
//! 50 ms base delay ([`BackoffPolicy::default`]). A server-sent
//! `Retry-After` stretches the wait. Protocol errors and other statuses
//! are not retried — they mean the request itself is wrong.
//!
//! # Bench mode
//!
//! `BENCH <path> <json-body> <count>` issues the request `count` times
//! serially (first response discarded as warmup when `count` > 1),
//! prints requests/sec and latency percentiles, and archives them as
//! `BENCH_serve.json` under `STEM_CSV_DIR` (current directory when
//! unset).
//!
//! When the body asks for `"fidelity": "sampled"`, bench mode also runs
//! the request's **exact twin** (same body with the fidelity and
//! sampling knobs stripped) and archives both measurements side by side
//! (`exact` / `sampled` sections), so `BENCH_serve.json` records the
//! sampled tier's req/s and p50/p99 against the exact tier's.

use std::net::TcpStream;
use std::process::ExitCode;
use std::time::{Duration, Instant};

use stem_serve::backoff::BackoffPolicy;
use stem_serve::http::{self, HttpResponse};
use stem_sim_core::{Json, SplitMix64};

/// Seed for the retry jitter: fixed, so two runs of the same failing
/// command back off on the same schedule.
const JITTER_SEED: u64 = 0x5EED_C11E;

fn one_exchange(addr: &str, method: &str, path: &str, body: &[u8]) -> Result<HttpResponse, String> {
    let mut stream =
        TcpStream::connect(addr).map_err(|e| format!("cannot connect to {addr}: {e}"))?;
    let _ = stream.set_read_timeout(Some(Duration::from_secs(660)));
    let _ = stream.set_write_timeout(Some(Duration::from_secs(30)));
    http::write_request(&mut stream, method, path, body)
        .map_err(|e| format!("request failed: {e}"))?;
    http::read_response(&mut stream).map_err(|e| format!("response unreadable: {e}"))
}

/// One request with the retry loop around it: connect failures, 429, and
/// 503 back off and retry; everything else returns as-is.
fn request_with_retries(
    addr: &str,
    method: &str,
    path: &str,
    body: &[u8],
    policy: &BackoffPolicy,
    rng: &mut SplitMix64,
) -> Result<HttpResponse, String> {
    let mut attempt = 0u32;
    loop {
        let outcome = one_exchange(addr, method, path, body);
        let retryable = match &outcome {
            Ok(resp) => matches!(resp.status, 429 | 503),
            Err(_) => true,
        };
        if !retryable || attempt >= policy.retries {
            return outcome;
        }
        let retry_after = outcome
            .as_ref()
            .ok()
            .and_then(HttpResponse::retry_after_secs);
        let delay = policy.delay(attempt, retry_after, rng);
        eprintln!(
            "attempt {} {}; retrying in {}ms",
            attempt + 1,
            match &outcome {
                Ok(resp) => format!("got HTTP {}", resp.status),
                Err(e) => format!("failed ({e})"),
            },
            delay.as_millis()
        );
        std::thread::sleep(delay);
        attempt += 1;
    }
}

fn percentile(sorted: &[Duration], p: f64) -> Duration {
    let idx = ((sorted.len() - 1) as f64 * p).round() as usize;
    sorted[idx]
}

/// One measured serial run: steady-state requests/sec plus latency
/// percentiles (first response discarded as warmup when `count` > 1).
struct BenchStats {
    measured: usize,
    rps: f64,
    p50: Duration,
    p99: Duration,
    wall: Duration,
}

impl BenchStats {
    /// The flat measurement fields shared by every report shape.
    fn fields(&self) -> Vec<(String, Json)> {
        vec![
            ("measured".to_owned(), Json::Int(self.measured as i64)),
            (
                "requests_per_sec".to_owned(),
                Json::float_rounded(self.rps, 2),
            ),
            (
                "p50_ms".to_owned(),
                Json::float_rounded(self.p50.as_secs_f64() * 1e3, 3),
            ),
            (
                "p99_ms".to_owned(),
                Json::float_rounded(self.p99.as_secs_f64() * 1e3, 3),
            ),
            (
                "wall_seconds".to_owned(),
                Json::float_rounded(self.wall.as_secs_f64(), 3),
            ),
        ]
    }
}

/// Runs `count` serial requests and measures the steady state.
fn measure(
    addr: &str,
    path: &str,
    body: &[u8],
    count: usize,
    label: &str,
    policy: &BackoffPolicy,
    rng: &mut SplitMix64,
) -> Result<BenchStats, String> {
    let mut latencies = Vec::with_capacity(count);
    let started = Instant::now();
    for i in 0..count {
        let t0 = Instant::now();
        let resp = request_with_retries(addr, "POST", path, body, policy, rng)?;
        if resp.status != 200 {
            return Err(format!(
                "bench request {i} ({label}) got HTTP {}: {}",
                resp.status,
                resp.body_text()
            ));
        }
        // The first request pays trace preparation and a cache miss;
        // discard it as warmup so the steady-state numbers are honest.
        if i > 0 || count == 1 {
            latencies.push(t0.elapsed());
        }
    }
    let wall = started.elapsed();
    latencies.sort_unstable();
    let measured = latencies.len();
    let rps = measured as f64 / latencies.iter().sum::<Duration>().as_secs_f64().max(1e-9);
    let stats = BenchStats {
        measured,
        rps,
        p50: percentile(&latencies, 0.50),
        p99: percentile(&latencies, 0.99),
        wall,
    };
    println!(
        "{label}: {count} requests in {:.2}s ({:.1} req/s steady-state, p50 {:.2}ms, p99 {:.2}ms)",
        stats.wall.as_secs_f64(),
        stats.rps,
        stats.p50.as_secs_f64() * 1e3,
        stats.p99.as_secs_f64() * 1e3,
    );
    Ok(stats)
}

/// The exact twin of a sampled `/run` body: the same experiment with the
/// fidelity tier and sampling knobs stripped (the request then defaults
/// to `exact`). Returns `None` when the body is not a sampled request.
fn exact_twin(body: &[u8]) -> Option<Vec<u8>> {
    let text = std::str::from_utf8(body).ok()?;
    let json = Json::parse(text).ok()?;
    let obj = json.as_obj()?;
    if json.get("fidelity")?.as_str()? != "sampled" {
        return None;
    }
    let stripped: Vec<(String, Json)> = obj
        .iter()
        .filter(|(k, _)| !matches!(k.as_str(), "fidelity" | "sample_rate" | "sample_seed"))
        .cloned()
        .collect();
    Some(Json::Obj(stripped).to_string().into_bytes())
}

/// Serial benchmark against a live server; archives `BENCH_serve.json`.
/// A sampled body is measured against its exact twin side by side.
fn bench(
    addr: &str,
    path: &str,
    body: &[u8],
    count: usize,
    policy: &BackoffPolicy,
    rng: &mut SplitMix64,
) -> Result<(), String> {
    let mut report = vec![
        ("bench".to_owned(), Json::str("stem-serve")),
        ("path".to_owned(), Json::str(path)),
        ("requests".to_owned(), Json::Int(count as i64)),
        (
            "nproc".to_owned(),
            Json::Int(std::thread::available_parallelism().map_or(1, |n| n.get() as i64)),
        ),
    ];
    if let Some(exact_body) = exact_twin(body) {
        let exact = measure(addr, path, &exact_body, count, "exact", policy, rng)?;
        let sampled = measure(addr, path, body, count, "sampled", policy, rng)?;
        report.push((
            "sampled_vs_exact_p50".to_owned(),
            Json::float_rounded(
                exact.p50.as_secs_f64() / sampled.p50.as_secs_f64().max(1e-9),
                2,
            ),
        ));
        report.push(("exact".to_owned(), Json::Obj(exact.fields())));
        report.push(("sampled".to_owned(), Json::Obj(sampled.fields())));
    } else {
        let stats = measure(addr, path, body, count, "steady-state", policy, rng)?;
        report.extend(stats.fields());
    }
    let dir = std::env::var("STEM_CSV_DIR").unwrap_or_else(|_| ".".to_owned());
    let out = std::path::Path::new(&dir).join("BENCH_serve.json");
    std::fs::write(&out, Json::Obj(report).pretty() + "\n")
        .map_err(|e| format!("cannot write {}: {e}", out.display()))?;
    println!("wrote {}", out.display());
    Ok(())
}

fn main() -> ExitCode {
    let policy = BackoffPolicy::default();
    let mut rng = SplitMix64::new(JITTER_SEED);

    let args: Vec<String> = std::env::args().skip(1).collect();
    if let [addr, mode, path, body, count] = args.as_slice() {
        if mode == "BENCH" {
            let Ok(count) = count.parse::<usize>() else {
                eprintln!("BENCH count {count:?} is not a positive integer");
                return ExitCode::from(2);
            };
            return match bench(addr, path, body.as_bytes(), count.max(1), &policy, &mut rng) {
                Ok(()) => ExitCode::SUCCESS,
                Err(e) => {
                    eprintln!("{e}");
                    ExitCode::FAILURE
                }
            };
        }
    }
    let (addr, method, path, body) = match args.as_slice() {
        [addr, method, path] => (addr, method.as_str(), path.as_str(), Vec::new()),
        [addr, method, path, body] => (
            addr,
            method.as_str(),
            path.as_str(),
            body.clone().into_bytes(),
        ),
        _ => {
            eprintln!(
                "usage: serve_client <addr> <METHOD> <path> [json-body]\n       serve_client <addr> BENCH <path> <json-body> <count>"
            );
            return ExitCode::from(2);
        }
    };

    match request_with_retries(addr, method, path, &body, &policy, &mut rng) {
        Ok(resp) => {
            print!("{}", resp.body_text());
            if (200..300).contains(&resp.status) {
                ExitCode::SUCCESS
            } else {
                eprintln!("HTTP {}", resp.status);
                ExitCode::FAILURE
            }
        }
        Err(e) => {
            eprintln!("{e}");
            ExitCode::FAILURE
        }
    }
}
