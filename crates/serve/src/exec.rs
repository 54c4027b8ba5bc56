//! The experiment executor: turns a validated [`RunRequest`] into a
//! deterministic JSON result.
//!
//! The service core is executor-agnostic — it takes any
//! `Fn(&RunRequest) -> Result<Json, SimError>` — so tests can substitute
//! a blocking or instant executor to exercise backpressure and caching
//! without running simulations. [`simulation_executor`] is the real one:
//! decode-once trace preparation ([`prepare_trace`]), the full system
//! model ([`run_system`] at the paper's Table 1 configuration),
//! and optionally the §3.1 capacity-demand profile.
//!
//! Determinism contract: for a given request the returned JSON — and
//! therefore the serialized response body — is byte-identical across
//! runs, thread counts, and processes. Nothing here reads clocks,
//! randomness beyond the trace generators' fixed seeds, or ambient
//! environment.

use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use std::ffi::OsString;
use std::path::{Path, PathBuf};

use stem_analysis::{
    build_cache, run_mix_decoded, run_system, warm_split, CapacityDemandProfiler, MixOutcome,
};
use stem_bench::config::Fidelity;
use stem_bench::engine::{Exec, RunPlan};
use stem_bench::harness::prepare_trace;
use stem_hierarchy::{System, SystemConfig, SystemMetrics};
use stem_sim_core::{CacheGeometry, DecodedTrace, Json, SampledTrace, SimError};
use stem_workloads::{offset_trace_into_region, pro_rata_shares, BenchmarkProfile};

use crate::cache::SnapshotCache;
use crate::metrics::Metrics;
use crate::request::{MixSource, RunRequest, MAX_ACCESSES};

/// The pluggable experiment function.
pub type Executor = Arc<dyn Fn(&RunRequest) -> Result<Json, SimError> + Send + Sync>;

/// The wall-clock budget attached to one `/run` request as it travels
/// handler → queue → executor.
///
/// Built once in the handler from the request's `deadline_ms` (or the
/// service default) and carried with the job, so both ends of the queue
/// agree on the same instant: the handler stops waiting at it, and the
/// executor watchdog ([`expired_before_execution`]) refuses to *start*
/// work whose requester has already given up — the overrun becomes a
/// clean 503 + `Retry-After` instead of a queue wedged behind doomed
/// work.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RequestDeadline {
    at: Instant,
}

impl RequestDeadline {
    /// Derives the deadline for `req`: its own `deadline_ms` when
    /// supplied (already validated to `1..=MAX_DEADLINE_MS`), otherwise
    /// `default_wait`.
    pub fn for_request(req: &RunRequest, default_wait: Duration) -> RequestDeadline {
        let budget = req.deadline_ms.map_or(default_wait, Duration::from_millis);
        RequestDeadline {
            at: Instant::now() + budget,
        }
    }

    /// The instant after which the request counts as overrun.
    pub fn instant(&self) -> Instant {
        self.at
    }

    /// Whether the budget has run out.
    pub fn expired(&self) -> bool {
        Instant::now() >= self.at
    }

    /// Time left before expiry (zero once expired).
    pub fn remaining(&self) -> Duration {
        self.at.saturating_duration_since(Instant::now())
    }
}

/// The executor-side watchdog check: a job is dead on arrival when its
/// deadline passed while it sat in the queue. Executing it anyway would
/// burn a batch slot on an answer nobody is waiting for — the service
/// sheds it instead (counted in `stem_serve_deadline_shed_total`).
pub fn expired_before_execution(deadline: &RequestDeadline) -> bool {
    deadline.expired()
}

/// Builds the production executor (no snapshot cache: every exact run
/// replays its warm prefix cold).
pub fn simulation_executor() -> Executor {
    Arc::new(run_simulation)
}

/// Builds the production executor with a bounded warm-state
/// [`SnapshotCache`] of `snapshot_slots` entries (0 disables it,
/// reducing to [`simulation_executor`]). Exact runs whose warm prefix is
/// cached clone the warmed hierarchy instead of re-replaying it; hits,
/// misses, and evictions land in `metrics`
/// (`stem_serve_snapshot_*_total`).
///
/// Purely a scheduling cache: the measured suffix always reruns, so the
/// response body is byte-identical with the cache on, off, hot, or cold
/// (a clone of a warmed system replays exactly like the original, proven
/// in `stem-hierarchy` and in this crate's service tests).
///
/// # Panics
///
/// Panics if `snapshot_slots` exceeds 255 ([`SnapshotCache::new`]'s
/// bound). The `serve` binary always passes
/// [`SnapshotCache::DEFAULT_CAPACITY`], through `ServeConfig::default()`.
pub fn simulation_executor_with(snapshot_slots: usize, metrics: Arc<Metrics>) -> Executor {
    if snapshot_slots == 0 {
        return simulation_executor();
    }
    let store = Arc::new(Mutex::new(SnapshotCache::new(snapshot_slots)));
    Arc::new(move |req| run_simulation_snapshotting(req, &store, &metrics))
}

/// [`run_simulation`] with warm-prefix reuse on the exact path. The
/// sampled tier never consults the store (it replays a bare LLC, not the
/// hierarchy the snapshots capture).
fn run_simulation_snapshotting(
    req: &RunRequest,
    store: &Mutex<SnapshotCache>,
    metrics: &Metrics,
) -> Result<Json, SimError> {
    run_simulation_inner(req, Some((store, metrics)))
}

/// The exact-path metrics replay, warm prefix restored from the snapshot
/// store when possible.
///
/// The protocol: warm → `reset_stats` → store a clone (so cached systems
/// carry zeroed counters) → measure; a hit clones the cached system and
/// goes straight to measuring. Every scheme takes this path, STEM, V-Way
/// and SBC included.
fn exact_metrics_snapshotting(
    req: &RunRequest,
    geom: CacheGeometry,
    trace: &DecodedTrace,
    store: &Mutex<SnapshotCache>,
    metrics: &Metrics,
) -> SystemMetrics {
    let warm_len = warm_split(trace.len(), req.warmup_fraction);
    let key = req.snapshot_key();
    let canonical = req.warm_prefix_canonical().to_string();
    let cached = store
        .lock()
        .expect("snapshot cache lock")
        .get(key, &canonical);
    // The canonical comparison in `get` pins benchmark, scheme, geometry,
    // length, and warm-up; the system config is the executor's constant.
    let mut system = match cached {
        Some(warmed) => {
            metrics.snapshot_hit();
            System::clone(&warmed)
        }
        None => {
            metrics.snapshot_miss();
            let mut system = System::new(SystemConfig::micro2010(), build_cache(req.scheme, geom));
            system.warm_decoded(trace, warm_len);
            system.reset_stats();
            let evicted = store.lock().expect("snapshot cache lock").insert(
                key,
                canonical,
                Arc::new(system.clone()),
            );
            if evicted.is_some() {
                metrics.snapshot_evicted();
            }
            system
        }
    };
    system.run_decoded_range(trace, warm_len..trace.len())
}

/// Runs one experiment end to end.
///
/// # Errors
///
/// [`SimError::Config`] if the benchmark vanished between validation and
/// execution (cannot happen for requests produced by
/// [`RunRequest::parse`]).
pub fn run_simulation(req: &RunRequest) -> Result<Json, SimError> {
    run_simulation_inner(req, None)
}

fn run_simulation_inner(
    req: &RunRequest,
    snapshots: Option<(&Mutex<SnapshotCache>, &Metrics)>,
) -> Result<Json, SimError> {
    if req.mix.is_some() {
        // Mix requests replay a multi-core shared-LLC hierarchy; the
        // snapshot store (which captures one solo `System`) is never
        // consulted — the run is deterministic and cold every time.
        return run_mix_request(req, req.geometry(), trace_dir().as_deref());
    }
    let bench = BenchmarkProfile::by_name(&req.benchmark).ok_or_else(|| {
        SimError::config("serve", format!("unknown benchmark {:?}", req.benchmark))
    })?;
    let geom = req.geometry();
    let prepared = prepare_trace(&bench, geom, req.accesses);
    if req.fidelity == Fidelity::Sampled {
        return run_sampled(req, geom, &prepared.trace);
    }
    let metrics = match snapshots {
        Some((store, m)) => exact_metrics_snapshotting(req, geom, &prepared.trace, store, m),
        None => run_system(
            req.scheme,
            geom,
            SystemConfig::micro2010(),
            &prepared.trace,
            req.warmup_fraction,
        ),
    };

    let mut fields = vec![("metrics".to_owned(), metrics_json(&metrics))];
    if req.profile {
        let profiler = CapacityDemandProfiler::micro2010(geom);
        let agg = CapacityDemandProfiler::aggregate(&profiler.profile_decoded(&prepared.trace));
        fields.push((
            "capacity_profile".to_owned(),
            Json::Obj(vec![
                (
                    "banded_fractions".to_owned(),
                    Json::Arr(
                        agg.banded()
                            .iter()
                            .map(|&f| Json::float_rounded(f, 6))
                            .collect(),
                    ),
                ),
                (
                    "fraction_at_most_4_ways".to_owned(),
                    Json::float_rounded(agg.fraction_at_most(4), 6),
                ),
                (
                    "fraction_at_most_16_ways".to_owned(),
                    Json::float_rounded(agg.fraction_at_most(16), 6),
                ),
            ]),
        ));
    }
    Ok(Json::Obj(fields))
}

/// Environment variable naming the directory mix `trace` references
/// resolve against. Unset or empty means trace-file components are
/// refused (the benchmark-analog components need nothing).
pub const TRACE_DIR_ENV: &str = "STEM_SERVE_TRACE_DIR";

/// Read on every mix request (not cached), so a process can point it at
/// a directory after startup.
fn trace_dir() -> Option<PathBuf> {
    dir_of(std::env::var_os(TRACE_DIR_ENV))
}

/// An empty value counts as unset, as it does for every `STEM_*` knob:
/// an empty path would otherwise resolve trace files against the
/// working directory.
fn dir_of(value: Option<OsString>) -> Option<PathBuf> {
    value.filter(|v| !v.is_empty()).map(PathBuf::from)
}

/// The multi-programmed mix tier: one core per component, benchmark
/// analogs receiving their pro-rata share of `accesses` and trace-file
/// components replaying their ingested file whole, each folded into its
/// private address region, interleaved by the deterministic weighted
/// lottery seeded with `mix_seed`, and replayed through a shared LLC
/// plus per-core solo baselines (see [`run_mix_decoded`]).
///
/// Determinism: generation, ingestion, scheduling, and replay are all
/// serial pure functions of the canonical request plus the referenced
/// trace bytes, so the response body is byte-identical at any
/// `STEM_THREADS` setting and across cache hits/misses.
fn run_mix_request(
    req: &RunRequest,
    geom: CacheGeometry,
    trace_dir: Option<&Path>,
) -> Result<Json, SimError> {
    let mix = req.mix.as_ref().expect("mix path requires mix components");
    let weights: Vec<f64> = mix.iter().map(|c| c.weight).collect();
    let shares = pro_rata_shares(&weights, req.accesses);
    let mut streams = Vec::with_capacity(mix.len());
    let mut labels = Vec::with_capacity(mix.len());
    for (i, (comp, share)) in mix.iter().zip(&shares).enumerate() {
        let (label, trace) = match &comp.source {
            MixSource::Benchmark(name) => {
                let bench = BenchmarkProfile::by_name(name).ok_or_else(|| {
                    SimError::config("serve", format!("unknown benchmark {name:?}"))
                })?;
                (name.clone(), bench.trace(geom, *share))
            }
            MixSource::Trace(name) => {
                let dir = trace_dir.ok_or_else(|| {
                    SimError::config(
                        "serve",
                        format!(
                            "mix[{i}] references trace file {name:?}, \
                             but {TRACE_DIR_ENV} is not set"
                        ),
                    )
                })?;
                let (_, trace) = stem_trace_io::load_trace(&dir.join(name))
                    .map_err(|e| SimError::config("serve", format!("mix[{i}] {name:?}: {e}")))?;
                if trace.len() > MAX_ACCESSES {
                    return Err(SimError::config(
                        "serve",
                        format!(
                            "mix[{i}] {name:?} holds {} accesses (limit {MAX_ACCESSES})",
                            trace.len()
                        ),
                    ));
                }
                (format!("trace:{name}"), trace)
            }
        };
        streams.push(DecodedTrace::decode(
            &offset_trace_into_region(trace, i),
            geom,
        ));
        labels.push(label);
    }
    let outcome = run_mix_decoded(
        req.scheme,
        geom,
        SystemConfig::micro2010(),
        &streams,
        &weights,
        req.mix_seed,
        req.warmup_fraction,
    );
    Ok(mix_json(&labels, &weights, &outcome))
}

/// Serializes a mix outcome: the headline co-scheduling metrics plus the
/// full per-core solo/shared metric pairs and the combined shared run.
fn mix_json(labels: &[String], weights: &[f64], outcome: &MixOutcome) -> Json {
    let per_core: Vec<Json> = labels
        .iter()
        .enumerate()
        .map(|(i, label)| {
            Json::Obj(vec![
                ("source".to_owned(), Json::str(label.clone())),
                ("weight".to_owned(), Json::float_rounded(weights[i], 6)),
                (
                    "speedup".to_owned(),
                    Json::float_rounded(outcome.speedups[i], 6),
                ),
                ("solo".to_owned(), metrics_json(&outcome.solo[i])),
                ("shared".to_owned(), metrics_json(&outcome.mix.per_core[i])),
            ])
        })
        .collect();
    Json::Obj(vec![(
        "mix_metrics".to_owned(),
        Json::Obj(vec![
            ("cores".to_owned(), Json::Int(labels.len() as i64)),
            (
                "weighted_speedup".to_owned(),
                Json::float_rounded(outcome.weighted_speedup, 6),
            ),
            (
                "fairness".to_owned(),
                Json::float_rounded(outcome.fairness, 6),
            ),
            ("per_core".to_owned(), Json::Arr(per_core)),
            ("combined".to_owned(), metrics_json(&outcome.mix.combined)),
        ]),
    )])
}

/// The sampled-fidelity tier: selects a UMON-style strided set sample
/// (deterministic in `(sample_seed, sets, sample_rate)`), replays it
/// serially through the bare LLC under the standard warm-up protocol,
/// and scales misses, writebacks, and MPKI back up by the sample's
/// `domains / selected` factor.
///
/// The sampled result deliberately carries **LLC estimates only** — no
/// `amat`/`cpi`. Those need the full hierarchy, whose 256-set L1 sees
/// every access: at most rates a sample drops part of a kept L1 set's
/// stream, which changes its contention (DESIGN.md §14). Clients who
/// need them ask for `exact`.
///
/// Determinism: selection and replay are both serial pure functions of
/// the canonical request, so the response body is byte-identical at any
/// `STEM_THREADS` setting and across cache hits/misses.
fn run_sampled(
    req: &RunRequest,
    geom: CacheGeometry,
    source: &DecodedTrace,
) -> Result<Json, SimError> {
    let sample = SampledTrace::select(source, req.sample_rate, req.sample_seed);
    let measured = RunPlan {
        scheme: req.scheme,
        geom,
        warmup: req.warmup_fraction,
        exec: Exec::Sampled(&sample),
    }
    .run(source)
    .map_err(|e| SimError::config("serve", e.to_string()))?;
    let (stats, scale, mpki) = (measured.stats, measured.scale, measured.mpki());
    Ok(Json::Obj(vec![(
        "sampled_metrics".to_owned(),
        Json::Obj(vec![
            ("mpki".to_owned(), Json::float_rounded(mpki, 6)),
            (
                "estimated_misses".to_owned(),
                Json::float_rounded(stats.misses() as f64 * scale, 3),
            ),
            (
                "estimated_writebacks".to_owned(),
                Json::float_rounded(stats.writebacks() as f64 * scale, 3),
            ),
            ("scale_factor".to_owned(), Json::float_rounded(scale, 6)),
            (
                "sample".to_owned(),
                Json::Obj(vec![
                    ("rate".to_owned(), Json::Int(i64::from(sample.rate()))),
                    ("seed".to_owned(), Json::Int(sample.seed() as i64)),
                    (
                        "domains".to_owned(),
                        Json::Int(sample.domain_count() as i64),
                    ),
                    (
                        "selected_domains".to_owned(),
                        Json::Int(sample.selected_domains().len() as i64),
                    ),
                    (
                        "selected_accesses".to_owned(),
                        Json::Int(sample.len() as i64),
                    ),
                    (
                        "measured".to_owned(),
                        Json::Obj(vec![
                            ("accesses".to_owned(), Json::Int(stats.accesses() as i64)),
                            ("hits".to_owned(), Json::Int(stats.hits() as i64)),
                            ("misses".to_owned(), Json::Int(stats.misses() as i64)),
                            (
                                "writebacks".to_owned(),
                                Json::Int(stats.writebacks() as i64),
                            ),
                        ]),
                    ),
                ]),
            ),
        ]),
    )]))
}

/// Serializes the system metrics with fixed 6-decimal rounding, so the
/// response body is stable even if float formatting details ever change.
fn metrics_json(m: &SystemMetrics) -> Json {
    Json::Obj(vec![
        ("mpki".to_owned(), Json::float_rounded(m.mpki, 6)),
        ("amat".to_owned(), Json::float_rounded(m.amat, 6)),
        ("cpi".to_owned(), Json::float_rounded(m.cpi, 6)),
        (
            "l1_miss_rate".to_owned(),
            Json::float_rounded(m.l1_miss_rate, 6),
        ),
        ("instructions".to_owned(), Json::Int(m.instructions as i64)),
        ("accesses".to_owned(), Json::Int(m.accesses as i64)),
        (
            "l2".to_owned(),
            Json::Obj(vec![
                ("accesses".to_owned(), Json::Int(m.l2.accesses() as i64)),
                ("hits".to_owned(), Json::Int(m.l2.hits() as i64)),
                ("misses".to_owned(), Json::Int(m.l2.misses() as i64)),
                ("evictions".to_owned(), Json::Int(m.l2.evictions() as i64)),
                ("writebacks".to_owned(), Json::Int(m.l2.writebacks() as i64)),
                ("spills".to_owned(), Json::Int(m.l2.spills() as i64)),
                ("receives".to_owned(), Json::Int(m.l2.receives() as i64)),
            ]),
        ),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;
    use stem_analysis::Scheme;

    fn tiny_request(profile: bool) -> RunRequest {
        RunRequest::parse(
            format!(
                r#"{{"benchmark": "mcf", "scheme": "lru", "sets": 64, "ways": 4,
                     "accesses": 5000, "profile": {profile}}}"#
            )
            .as_bytes(),
        )
        .expect("valid request")
    }

    #[test]
    fn request_deadline_prefers_the_client_budget() {
        let mut req = tiny_request(false);
        req.deadline_ms = Some(1);
        let d = RequestDeadline::for_request(&req, Duration::from_secs(3600));
        std::thread::sleep(Duration::from_millis(5));
        assert!(d.expired());
        assert!(expired_before_execution(&d));
        assert_eq!(d.remaining(), Duration::ZERO);

        req.deadline_ms = None;
        let d = RequestDeadline::for_request(&req, Duration::from_secs(3600));
        assert!(!d.expired());
        assert!(d.remaining() > Duration::from_secs(3000));
    }

    #[test]
    fn simulation_result_is_reproducible() {
        let req = tiny_request(false);
        let a = run_simulation(&req).expect("run a");
        let b = run_simulation(&req).expect("run b");
        assert_eq!(a.to_string(), b.to_string());
        let mpki = a
            .get("metrics")
            .and_then(|m| m.get("mpki"))
            .and_then(Json::as_f64)
            .expect("mpki present");
        assert!(mpki.is_finite() && mpki >= 0.0, "mpki = {mpki}");
    }

    #[test]
    fn sampled_run_is_reproducible_and_reports_the_scaling() {
        let req = RunRequest::parse(
            br#"{"benchmark": "mcf", "scheme": "lru", "sets": 64, "ways": 4,
                 "accesses": 5000, "fidelity": "sampled", "sample_rate": 4}"#,
        )
        .expect("valid request");
        let a = run_simulation(&req).expect("run a");
        let b = run_simulation(&req).expect("run b");
        assert_eq!(a.to_string(), b.to_string(), "sampled result must be pure");
        let sm = a.get("sampled_metrics").expect("sampled_metrics present");
        assert!(a.get("metrics").is_none(), "no full-hierarchy metrics");
        let mpki = sm.get("mpki").and_then(Json::as_f64).expect("mpki");
        assert!(mpki.is_finite() && mpki >= 0.0, "mpki = {mpki}");
        let scale = sm
            .get("scale_factor")
            .and_then(Json::as_f64)
            .expect("scale_factor");
        assert!(scale >= 1.0, "scale = {scale}");
        // 64 sets → 32 pair domains; 1-in-4 stride selects exactly 8.
        let selected = sm
            .get("sample")
            .and_then(|s| s.get("selected_domains"))
            .and_then(Json::as_u64)
            .expect("selected_domains");
        assert_eq!(selected, 8);
    }

    #[test]
    fn rate_one_sample_measures_the_whole_trace() {
        // A full-rate sample keeps every domain: the scale factor must be
        // exactly 1 and the measured accesses must cover the whole
        // post-warm-up stream (bit-level agreement with the exact bare-LLC
        // replay is proven in the analysis crate's differentials).
        let req = RunRequest::parse(
            br#"{"benchmark": "mcf", "scheme": "lru", "sets": 64, "ways": 4,
                 "accesses": 5000, "fidelity": "sampled", "sample_rate": 1}"#,
        )
        .expect("valid request");
        let out = run_simulation(&req).expect("run");
        let sm = out.get("sampled_metrics").expect("sampled_metrics");
        assert_eq!(sm.get("scale_factor").and_then(Json::as_f64), Some(1.0));
        let measured = sm
            .get("sample")
            .and_then(|s| s.get("measured"))
            .and_then(|m| m.get("accesses"))
            .and_then(Json::as_u64)
            .expect("measured accesses");
        assert_eq!(measured, 4000, "5000 accesses minus the 20% warm-up");
    }

    #[test]
    fn snapshotting_runs_are_byte_identical_to_cold_and_count_traffic() {
        for scheme in Scheme::PAPER {
            let metrics = Metrics::new();
            let store = Mutex::new(SnapshotCache::new(4));
            let req = |profile: bool| {
                RunRequest::parse(
                    format!(
                        r#"{{"benchmark": "mcf", "scheme": "{}", "sets": 64, "ways": 4,
                             "accesses": 5000, "profile": {profile}}}"#,
                        scheme.label()
                    )
                    .as_bytes(),
                )
                .expect("valid request")
            };
            let cold = run_simulation(&req(false)).expect("cold run");
            let miss = run_simulation_snapshotting(&req(false), &store, &metrics).expect("miss");
            let hit = run_simulation_snapshotting(&req(false), &store, &metrics).expect("hit");
            assert_eq!(cold.to_string(), miss.to_string(), "{scheme}: miss body");
            assert_eq!(cold.to_string(), hit.to_string(), "{scheme}: hit body");
            assert_eq!(
                (metrics.snapshot_misses(), metrics.snapshot_hits()),
                (1, 1),
                "{scheme}"
            );
            assert_eq!(store.lock().unwrap().len(), 1, "{scheme}");

            // A profile twin shares the warm prefix: a snapshot hit whose
            // body matches the same request with the cache off.
            let twin = run_simulation_snapshotting(&req(true), &store, &metrics).expect("twin");
            assert_eq!(metrics.snapshot_hits(), 2, "{scheme}: the twin hits");
            assert!(twin.get("capacity_profile").is_some());
            assert_eq!(
                twin.to_string(),
                run_simulation(&req(true)).expect("cold twin").to_string(),
                "{scheme}: twin body must match the cold run byte for byte"
            );
        }
    }

    #[test]
    fn warmups_sharing_a_canonical_value_share_one_body() {
        // Both fractions serialize as 0.2; raw, they would warm 999 and
        // 1000 accesses of the 5000-access trace.
        let req = |w: &str| {
            RunRequest::parse(
                format!(
                    r#"{{"benchmark": "mcf", "scheme": "lru", "sets": 64, "ways": 4,
                         "accesses": 5000, "warmup_fraction": {w}}}"#
                )
                .as_bytes(),
            )
            .expect("valid request")
        };
        assert_ne!(warm_split(5000, 0.1999996), warm_split(5000, 0.2000004));
        let (a, b) = (req("0.1999996"), req("0.2000004"));
        assert_eq!(a.cache_key(), b.cache_key());
        assert_eq!(
            run_simulation(&a).expect("run a").to_string(),
            run_simulation(&b).expect("run b").to_string()
        );
    }

    #[test]
    fn mix_run_is_reproducible_and_reports_per_core_metrics() {
        let req = RunRequest::parse(
            br#"{"mix": [{"benchmark": "omnetpp"}, {"benchmark": "gromacs"}],
                 "scheme": "lru", "sets": 64, "ways": 8, "accesses": 10000}"#,
        )
        .expect("valid request");
        let a = run_simulation(&req).expect("run a");
        let b = run_simulation(&req).expect("run b");
        assert_eq!(a.to_string(), b.to_string(), "mix result must be pure");
        assert!(a.get("metrics").is_none(), "no solo metrics on a mix");
        let mm = a.get("mix_metrics").expect("mix_metrics present");
        assert_eq!(mm.get("cores").and_then(Json::as_u64), Some(2));
        let ws = mm
            .get("weighted_speedup")
            .and_then(Json::as_f64)
            .expect("weighted_speedup");
        assert!(ws > 0.0 && ws <= 2.0 + 1e-6, "ws = {ws}");
        let fairness = mm.get("fairness").and_then(Json::as_f64).expect("fairness");
        assert!(
            fairness > 0.0 && fairness <= 1.0 + 1e-9,
            "fairness = {fairness}"
        );
        let per_core = mm.get("per_core").and_then(Json::as_arr).expect("per_core");
        assert_eq!(per_core.len(), 2);
        for (i, core) in per_core.iter().enumerate() {
            for side in ["solo", "shared"] {
                let mpki = core
                    .get(side)
                    .and_then(|m| m.get("mpki"))
                    .and_then(Json::as_f64)
                    .unwrap_or(-1.0);
                assert!(mpki >= 0.0, "core {i} {side} mpki = {mpki}");
            }
        }
        assert_eq!(
            per_core[0].get("source").and_then(Json::as_str),
            Some("omnetpp")
        );
        assert!(mm
            .get("combined")
            .and_then(|m| m.get("mpki"))
            .and_then(Json::as_f64)
            .is_some());
    }

    #[test]
    fn an_empty_trace_dir_counts_as_unset() {
        assert_eq!(dir_of(None), None);
        assert_eq!(dir_of(Some(OsString::new())), None);
        assert_eq!(
            dir_of(Some("fixtures".into())),
            Some(PathBuf::from("fixtures"))
        );
    }

    #[test]
    fn mix_trace_components_load_from_the_trace_dir() {
        use stem_workloads::BenchmarkProfile;
        let dir = std::env::temp_dir().join(format!("stem_serve_mix_exec_{}", std::process::id()));
        std::fs::create_dir_all(&dir).expect("create trace dir");
        let geom = CacheGeometry::new(64, 8, 64).expect("geometry");
        let trace = BenchmarkProfile::by_name("mcf")
            .expect("suite")
            .trace(geom, 4_000);
        let file = std::fs::File::create(dir.join("mcf4k.stemtrc")).expect("create fixture");
        stem_trace_io::write_binary(std::io::BufWriter::new(file), &trace).expect("write fixture");

        let req = RunRequest::parse(
            br#"{"mix": [{"trace": "mcf4k.stemtrc"}, {"benchmark": "gromacs"}],
                 "scheme": "lru", "sets": 64, "ways": 8, "accesses": 4000}"#,
        )
        .expect("valid request");
        let out = run_mix_request(&req, req.geometry(), Some(&dir)).expect("mix run");
        let mm = out.get("mix_metrics").expect("mix_metrics");
        let per_core = mm.get("per_core").and_then(Json::as_arr).expect("per_core");
        assert_eq!(
            per_core[0].get("source").and_then(Json::as_str),
            Some("trace:mcf4k.stemtrc")
        );
        // The ingested stream replays whole: its shared accesses cover
        // the file minus its schedule share of the warm-up.
        let again = run_mix_request(&req, req.geometry(), Some(&dir)).expect("mix rerun");
        assert_eq!(out.to_string(), again.to_string());

        // No trace dir configured → a clear refusal naming the knob.
        let err = run_mix_request(&req, req.geometry(), None).expect_err("no dir");
        assert!(err.to_string().contains(TRACE_DIR_ENV), "{err}");
        // A missing file names itself.
        let missing = RunRequest::parse(
            br#"{"mix": [{"trace": "nope.stemtrc"}], "scheme": "lru",
                 "sets": 64, "ways": 8, "accesses": 4000}"#,
        )
        .expect("valid request");
        let err = run_mix_request(&missing, missing.geometry(), Some(&dir)).expect_err("missing");
        assert!(err.to_string().contains("nope.stemtrc"), "{err}");

        std::fs::remove_dir_all(&dir).expect("cleanup");
    }

    #[test]
    fn profile_is_included_only_on_request() {
        let without = run_simulation(&tiny_request(false)).expect("run");
        assert!(without.get("capacity_profile").is_none());
        let with = run_simulation(&tiny_request(true)).expect("run");
        let bands = with
            .get("capacity_profile")
            .and_then(|p| p.get("banded_fractions"))
            .and_then(Json::as_arr)
            .expect("profile bands");
        assert!(!bands.is_empty());
    }
}
