//! The ops surface: counters, gauges, and a latency histogram rendered in
//! Prometheus text exposition format at `/metrics`.
//!
//! Everything is plain `std::sync::atomic` (plus one `Mutex<BTreeMap>`
//! for the labeled request counter), so recording from handler and
//! executor threads never blocks on anything slower than a CAS. Rendering
//! sorts labels (`BTreeMap` iteration order), so the `/metrics` page is
//! deterministic for a given counter state — handy for the CI smoke test
//! that greps it.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicI64, AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Duration;

/// Upper bounds (seconds) of the request-latency histogram buckets; an
/// implicit `+Inf` bucket follows.
pub const LATENCY_BUCKETS: [f64; 7] = [0.001, 0.005, 0.025, 0.1, 0.5, 2.5, 10.0];

/// Shared service metrics. One instance per service, behind an `Arc`.
#[derive(Debug, Default)]
pub struct Metrics {
    /// Completed requests keyed by `(route, status)`.
    requests: Mutex<BTreeMap<(String, u16), u64>>,
    /// Cumulative latency bucket counts (`LATENCY_BUCKETS` + `+Inf`).
    latency_buckets: [AtomicU64; LATENCY_BUCKETS.len() + 1],
    /// Sum of observed latencies in microseconds (integer, so the render
    /// is deterministic and lock-free).
    latency_sum_micros: AtomicU64,
    latency_count: AtomicU64,
    /// Jobs currently waiting in the bounded queue. Signed because a
    /// worker can take a job before its handler records the enqueue; the
    /// gauge then dips to -1 for that instant, and reads clamp it to 0.
    queue_depth: AtomicI64,
    /// Simulations actually executed (cache misses that ran).
    sim_executions: AtomicU64,
    /// `/run` responses served from the result cache.
    cache_hits: AtomicU64,
    /// `/run` requests that missed the cache.
    cache_misses: AtomicU64,
    /// Valid `/run` requests asking for the sampled-fidelity tier
    /// (counted at validation time, so cache hits are included).
    sampled_requests: AtomicU64,
    /// Valid `/run` requests carrying a multi-programmed `mix` (counted
    /// at validation time, so cache hits are included).
    mix_requests: AtomicU64,
    /// Executed exact runs whose warm prefix was restored from the
    /// snapshot cache instead of re-replayed.
    snapshot_hits: AtomicU64,
    /// Executed exact runs that replayed their warm prefix cold (no
    /// snapshot of it cached yet).
    snapshot_misses: AtomicU64,
    /// Warmed snapshots evicted from the bounded snapshot cache.
    snapshot_evictions: AtomicU64,
    /// Requests rejected with 429 because the queue was full.
    rejected: AtomicU64,
    /// Experiment cells that panicked or overran their budget.
    worker_failures: AtomicU64,
    /// Connection handlers that panicked (caught; connection dropped).
    panics: AtomicU64,
    /// Connections cut because a read/write overran the I/O deadline.
    io_deadline_hits: AtomicU64,
    /// `/run` requests shed with 503 because their deadline budget
    /// expired (in the handler wait or the executor watchdog).
    deadline_shed: AtomicU64,
    /// Chaotic connections accepted, keyed by injected fault profile.
    chaos_faults: Mutex<BTreeMap<&'static str, u64>>,
}

impl Metrics {
    /// Creates zeroed metrics.
    pub fn new() -> Self {
        Metrics::default()
    }

    /// Records one completed request.
    pub fn record_request(&self, route: &str, status: u16, latency: Duration) {
        *self
            .requests
            .lock()
            .expect("metrics lock")
            .entry((route.to_owned(), status))
            .or_insert(0) += 1;
        let secs = latency.as_secs_f64();
        let bucket = LATENCY_BUCKETS
            .iter()
            .position(|&le| secs <= le)
            .unwrap_or(LATENCY_BUCKETS.len());
        self.latency_buckets[bucket].fetch_add(1, Ordering::Relaxed);
        self.latency_sum_micros
            .fetch_add(latency.as_micros() as u64, Ordering::Relaxed);
        self.latency_count.fetch_add(1, Ordering::Relaxed);
    }

    /// A job entered the bounded queue.
    pub fn job_enqueued(&self) {
        self.queue_depth.fetch_add(1, Ordering::Relaxed);
    }

    /// The executor picked a job up.
    pub fn job_started(&self) {
        self.queue_depth.fetch_sub(1, Ordering::Relaxed);
    }

    /// Jobs currently waiting in the bounded queue (the `Retry-After`
    /// headers on 429/503 are derived from this gauge).
    pub fn queue_depth(&self) -> u64 {
        self.queue_depth.load(Ordering::Relaxed).max(0) as u64
    }

    /// A simulation actually ran (as opposed to a cache hit).
    pub fn sim_executed(&self) {
        self.sim_executions.fetch_add(1, Ordering::Relaxed);
    }

    /// Lifetime simulations executed.
    pub fn sim_executions(&self) -> u64 {
        self.sim_executions.load(Ordering::Relaxed)
    }

    /// A `/run` response came straight from the result cache.
    pub fn cache_hit(&self) {
        self.cache_hits.fetch_add(1, Ordering::Relaxed);
    }

    /// Lifetime cache hits.
    pub fn cache_hits(&self) -> u64 {
        self.cache_hits.load(Ordering::Relaxed)
    }

    /// A `/run` request missed the cache.
    pub fn cache_miss(&self) {
        self.cache_misses.fetch_add(1, Ordering::Relaxed);
    }

    /// A valid `/run` asked for the sampled-fidelity tier.
    pub fn sampled_request(&self) {
        self.sampled_requests.fetch_add(1, Ordering::Relaxed);
    }

    /// Lifetime sampled-fidelity `/run` requests.
    pub fn sampled_requests(&self) -> u64 {
        self.sampled_requests.load(Ordering::Relaxed)
    }

    /// A valid `/run` carried a multi-programmed mix.
    pub fn mix_request(&self) {
        self.mix_requests.fetch_add(1, Ordering::Relaxed);
    }

    /// Lifetime mix `/run` requests.
    pub fn mix_requests(&self) -> u64 {
        self.mix_requests.load(Ordering::Relaxed)
    }

    /// An executed exact run restored its warm prefix from the snapshot
    /// cache.
    pub fn snapshot_hit(&self) {
        self.snapshot_hits.fetch_add(1, Ordering::Relaxed);
    }

    /// Lifetime snapshot-cache hits.
    pub fn snapshot_hits(&self) -> u64 {
        self.snapshot_hits.load(Ordering::Relaxed)
    }

    /// An executed exact run replayed its warm prefix cold.
    pub fn snapshot_miss(&self) {
        self.snapshot_misses.fetch_add(1, Ordering::Relaxed);
    }

    /// Lifetime snapshot-cache misses.
    pub fn snapshot_misses(&self) -> u64 {
        self.snapshot_misses.load(Ordering::Relaxed)
    }

    /// A warmed snapshot was evicted from the bounded snapshot cache.
    pub fn snapshot_evicted(&self) {
        self.snapshot_evictions.fetch_add(1, Ordering::Relaxed);
    }

    /// Lifetime snapshot-cache evictions.
    pub fn snapshot_evictions(&self) -> u64 {
        self.snapshot_evictions.load(Ordering::Relaxed)
    }

    /// A request bounced off the full queue with 429.
    pub fn rejected(&self) {
        self.rejected.fetch_add(1, Ordering::Relaxed);
    }

    /// Lifetime 429 rejections.
    pub fn rejections(&self) -> u64 {
        self.rejected.load(Ordering::Relaxed)
    }

    /// An experiment cell panicked or timed out under the runner.
    pub fn worker_failed(&self) {
        self.worker_failures.fetch_add(1, Ordering::Relaxed);
    }

    /// A connection handler panicked (the panic was caught and the
    /// connection dropped; the service lives on).
    pub fn panicked(&self) {
        self.panics.fetch_add(1, Ordering::Relaxed);
    }

    /// Lifetime caught handler panics. The chaos campaign's headline
    /// invariant is that this stays zero.
    pub fn panics(&self) -> u64 {
        self.panics.load(Ordering::Relaxed)
    }

    /// A connection was cut by the per-connection I/O deadline.
    pub fn io_deadline_hit(&self) {
        self.io_deadline_hits.fetch_add(1, Ordering::Relaxed);
    }

    /// Lifetime I/O-deadline cuts.
    pub fn io_deadline_hits(&self) -> u64 {
        self.io_deadline_hits.load(Ordering::Relaxed)
    }

    /// A `/run` was answered 503 because its deadline budget ran out.
    pub fn deadline_shed(&self) {
        self.deadline_shed.fetch_add(1, Ordering::Relaxed);
    }

    /// Lifetime deadline sheds.
    pub fn deadline_sheds(&self) -> u64 {
        self.deadline_shed.load(Ordering::Relaxed)
    }

    /// A chaotic connection was accepted with the given fault profile
    /// label (see [`crate::chaos::FaultProfile::label`]).
    pub fn chaos_connection(&self, profile: &'static str) {
        *self
            .chaos_faults
            .lock()
            .expect("metrics lock")
            .entry(profile)
            .or_insert(0) += 1;
    }

    /// Lifetime chaotic connections across all fault profiles.
    pub fn chaos_connections(&self) -> u64 {
        self.chaos_faults
            .lock()
            .expect("metrics lock")
            .values()
            .sum()
    }

    /// Renders the Prometheus text exposition page.
    pub fn render(&self) -> String {
        let mut out = String::with_capacity(2048);

        out.push_str("# HELP stem_serve_requests_total Completed requests by route and status.\n");
        out.push_str("# TYPE stem_serve_requests_total counter\n");
        for ((route, status), count) in self.requests.lock().expect("metrics lock").iter() {
            out.push_str(&format!(
                "stem_serve_requests_total{{route=\"{route}\",status=\"{status}\"}} {count}\n"
            ));
        }

        out.push_str(
            "# HELP stem_serve_request_seconds Request latency from accept to response.\n",
        );
        out.push_str("# TYPE stem_serve_request_seconds histogram\n");
        let mut cumulative = 0u64;
        for (i, le) in LATENCY_BUCKETS.iter().enumerate() {
            cumulative += self.latency_buckets[i].load(Ordering::Relaxed);
            out.push_str(&format!(
                "stem_serve_request_seconds_bucket{{le=\"{le}\"}} {cumulative}\n"
            ));
        }
        cumulative += self.latency_buckets[LATENCY_BUCKETS.len()].load(Ordering::Relaxed);
        out.push_str(&format!(
            "stem_serve_request_seconds_bucket{{le=\"+Inf\"}} {cumulative}\n"
        ));
        let sum_secs = self.latency_sum_micros.load(Ordering::Relaxed) as f64 / 1e6;
        out.push_str(&format!("stem_serve_request_seconds_sum {sum_secs}\n"));
        out.push_str(&format!(
            "stem_serve_request_seconds_count {}\n",
            self.latency_count.load(Ordering::Relaxed)
        ));

        let gauges_and_counters: [(&str, &str, &str, u64); 15] = [
            (
                "stem_serve_queue_depth",
                "gauge",
                "Jobs waiting in the bounded queue.",
                self.queue_depth(),
            ),
            (
                "stem_serve_sim_executions_total",
                "counter",
                "Simulations actually executed (cache misses that ran).",
                self.sim_executions(),
            ),
            (
                "stem_serve_cache_hits_total",
                "counter",
                "Run responses served from the result cache.",
                self.cache_hits(),
            ),
            (
                "stem_serve_cache_misses_total",
                "counter",
                "Run requests that missed the result cache.",
                self.cache_misses.load(Ordering::Relaxed),
            ),
            (
                "stem_serve_sampled_requests_total",
                "counter",
                "Valid run requests asking for the sampled-fidelity tier.",
                self.sampled_requests(),
            ),
            (
                "stem_serve_mix_requests_total",
                "counter",
                "Valid run requests carrying a multi-programmed mix.",
                self.mix_requests(),
            ),
            (
                "stem_serve_snapshot_hits_total",
                "counter",
                "Executed exact runs whose warm prefix was restored from the snapshot cache.",
                self.snapshot_hits(),
            ),
            (
                "stem_serve_snapshot_misses_total",
                "counter",
                "Executed exact runs that replayed their warm prefix cold.",
                self.snapshot_misses(),
            ),
            (
                "stem_serve_snapshot_evictions_total",
                "counter",
                "Warmed snapshots evicted from the bounded snapshot cache.",
                self.snapshot_evictions(),
            ),
            (
                "stem_serve_rejected_total",
                "counter",
                "Requests rejected with 429 (queue full).",
                self.rejections(),
            ),
            (
                "stem_serve_worker_failures_total",
                "counter",
                "Experiment cells that panicked or overran their budget.",
                self.worker_failures.load(Ordering::Relaxed),
            ),
            (
                "stem_serve_panics_total",
                "counter",
                "Connection handlers that panicked (caught; must stay 0).",
                self.panics(),
            ),
            (
                "stem_serve_io_deadline_total",
                "counter",
                "Connections cut by the per-connection I/O deadline.",
                self.io_deadline_hits(),
            ),
            (
                "stem_serve_deadline_shed_total",
                "counter",
                "Run requests shed with 503 after their deadline budget expired.",
                self.deadline_sheds(),
            ),
            (
                "stem_serve_chaos_connections_total",
                "counter",
                "Connections accepted with an injected chaos fault profile.",
                self.chaos_connections(),
            ),
        ];
        for (name, kind, help, value) in gauges_and_counters {
            out.push_str(&format!(
                "# HELP {name} {help}\n# TYPE {name} {kind}\n{name} {value}\n"
            ));
        }

        let faults = self.chaos_faults.lock().expect("metrics lock");
        if !faults.is_empty() {
            out.push_str(
                "# HELP stem_serve_chaos_faults_total Injected chaos connections by fault profile.\n",
            );
            out.push_str("# TYPE stem_serve_chaos_faults_total counter\n");
            for (kind, count) in faults.iter() {
                out.push_str(&format!(
                    "stem_serve_chaos_faults_total{{kind=\"{kind}\"}} {count}\n"
                ));
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn render_reflects_recorded_activity() {
        let m = Metrics::new();
        m.record_request("run", 200, Duration::from_millis(3));
        m.record_request("run", 429, Duration::from_micros(50));
        m.record_request("healthz", 200, Duration::from_micros(10));
        m.sim_executed();
        m.cache_hit();
        m.rejected();
        m.sampled_request();
        m.sampled_request();
        m.mix_request();
        m.snapshot_hit();
        m.snapshot_miss();
        m.snapshot_miss();
        m.snapshot_evicted();
        let page = m.render();
        assert!(page.contains("stem_serve_snapshot_hits_total 1"));
        assert!(page.contains("stem_serve_snapshot_misses_total 2"));
        assert!(page.contains("stem_serve_snapshot_evictions_total 1"));
        assert!(page.contains("stem_serve_requests_total{route=\"run\",status=\"200\"} 1"));
        assert!(page.contains("stem_serve_requests_total{route=\"run\",status=\"429\"} 1"));
        assert!(page.contains("stem_serve_sim_executions_total 1"));
        assert!(page.contains("stem_serve_sampled_requests_total 2"));
        assert!(page.contains("stem_serve_mix_requests_total 1"));
        assert!(page.contains("stem_serve_cache_hits_total 1"));
        assert!(page.contains("stem_serve_rejected_total 1"));
        assert!(page.contains("stem_serve_request_seconds_count 3"));
        // 50µs and 10µs land in the first bucket; 3ms in the second.
        assert!(page.contains("stem_serve_request_seconds_bucket{le=\"0.001\"} 2"));
        assert!(page.contains("stem_serve_request_seconds_bucket{le=\"0.005\"} 3"));
        assert!(page.contains("stem_serve_request_seconds_bucket{le=\"+Inf\"} 3"));
    }

    #[test]
    fn chaos_and_hardening_counters_render() {
        let m = Metrics::new();
        m.panicked();
        m.io_deadline_hit();
        m.deadline_shed();
        m.deadline_shed();
        m.chaos_connection("slow_loris");
        m.chaos_connection("slow_loris");
        m.chaos_connection("garbage_prefix");
        let page = m.render();
        assert!(page.contains("stem_serve_panics_total 1"));
        assert!(page.contains("stem_serve_io_deadline_total 1"));
        assert!(page.contains("stem_serve_deadline_shed_total 2"));
        assert!(page.contains("stem_serve_chaos_connections_total 3"));
        assert!(page.contains("stem_serve_chaos_faults_total{kind=\"slow_loris\"} 2"));
        assert!(page.contains("stem_serve_chaos_faults_total{kind=\"garbage_prefix\"} 1"));
        assert_eq!(m.chaos_connections(), 3);
    }

    #[test]
    fn zero_state_still_renders_the_panic_counter() {
        // The chaos smoke stage greps for an explicit zero — the line
        // must exist even when nothing has panicked.
        let page = Metrics::new().render();
        assert!(page.contains("stem_serve_panics_total 0"));
        assert!(page.contains("stem_serve_sampled_requests_total 0"));
        assert!(page.contains("stem_serve_mix_requests_total 0"));
        assert!(page.contains("stem_serve_snapshot_hits_total 0"));
        assert!(page.contains("stem_serve_snapshot_misses_total 0"));
        assert!(page.contains("stem_serve_snapshot_evictions_total 0"));
        assert!(!page.contains("chaos_faults_total{"), "no empty family");
    }

    #[test]
    fn queue_depth_tracks_enqueue_and_start() {
        let m = Metrics::new();
        m.job_enqueued();
        m.job_enqueued();
        m.job_started();
        assert!(m.render().contains("stem_serve_queue_depth 1"));
    }

    #[test]
    fn a_start_that_outruns_its_enqueue_reads_as_an_empty_queue() {
        let m = Metrics::new();
        m.job_started();
        assert_eq!(m.queue_depth(), 0);
        assert!(m.render().contains("stem_serve_queue_depth 0"));
        m.job_enqueued();
        assert_eq!(m.queue_depth(), 0);
        m.job_enqueued();
        assert_eq!(m.queue_depth(), 1);
    }
}
