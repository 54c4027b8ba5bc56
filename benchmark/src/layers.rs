//! In-process work: re-deriving served results, the sampled tier's
//! accuracy, and the traced layer sweep.
//!
//! Everything here calls the crates' public functions from outside and
//! times the calls as spans; nothing is instrumented inside the program.

use std::collections::HashMap;
use std::path::{Path, PathBuf};
use std::sync::Arc;

use stem::analysis::{build_cache, run_mix_decoded, warm_split, CapacityDemandProfiler, Scheme};
use stem::hierarchy::{System, SystemConfig};
use stem::sim_core::{CacheGeometry, CacheStats, DecodedTrace, Json, SampledTrace, Trace};
use stem::workloads::{offset_trace_into_region, pro_rata_shares};
use stem_bench::config::Fidelity;
use stem_serve::{run_simulation, MixSource, ResultCache, RunRequest};

use crate::inputs::profile;
use crate::spans::Tracer;
use crate::stats::median;

/// The crate that implements `scheme`'s LLC.
pub fn crate_of(scheme: Scheme) -> &'static str {
    match scheme {
        Scheme::VWay | Scheme::Sbc | Scheme::SbcStatic | Scheme::VictimCache => "spatial",
        Scheme::Stem => "stem-llc",
        _ => "replacement",
    }
}

/// `|estimate − exact| / exact`, or `None` when the exact value is 0.
pub fn rel_error(estimate: f64, exact: f64) -> Option<f64> {
    (exact > 0.0).then(|| (estimate - exact).abs() / exact)
}

/// Measured-range MPKI of a bare-LLC replay that has run its warm prefix,
/// reset its counters and replayed the rest.
fn measured_mpki(stats: &CacheStats, trace: &DecodedTrace, warm: usize) -> f64 {
    stats.mpki(trace.instructions_in(warm..trace.len()).max(1))
}

/// Replays `trace` through a bare LLC of `scheme`: the warm prefix
/// unmeasured, then the rest. Returns the measured counters.
fn bare_replay(
    scheme: Scheme,
    geom: CacheGeometry,
    trace: &DecodedTrace,
    warm: usize,
) -> CacheStats {
    let mut cache = build_cache(scheme, geom);
    cache.replay_decoded(trace, 0..warm);
    cache.reset_stats();
    cache.replay_decoded(trace, warm..trace.len());
    *cache.stats()
}

/// Which parts of a stream's sweep the request's own decomposition
/// already timed.
#[derive(Debug, Clone, Copy, Default)]
struct Done {
    system: bool,
    profile: bool,
    select: bool,
}

/// Per-request timings of the serve front end and executor, in-process.
#[derive(Debug, Default)]
pub struct ServeTimings {
    /// `RunRequest::parse`, µs.
    pub parse_us: Vec<f64>,
    /// `canonical` + `cache_key`, µs.
    pub canonical_us: Vec<f64>,
    /// `ResultCache::get`, µs.
    pub lookup_us: Vec<f64>,
    /// `run_simulation` of re-derived requests, ms.
    pub run_simulation_ms: Vec<f64>,
    /// `run_simulation` minus its decomposed parts, ms.
    pub unattributed_ms: Vec<f64>,
    /// In-process handling time per request index, ms (front end, plus
    /// `run_simulation` for re-derived misses).
    pub handling_ms: HashMap<usize, f64>,
    /// `run_simulation` of a sampled request over its exact twin.
    pub sampled_vs_exact: Vec<f64>,
}

/// The in-process probe: checks, accuracy, and (when `deep`) the traced
/// layer sweep.
pub struct Probe {
    /// Spans of everything timed.
    pub tracer: Tracer,
    deep: bool,
    trace_dir: Option<PathBuf>,
    exact_mpki: HashMap<String, f64>,
    decoded: HashMap<String, Arc<DecodedTrace>>,
    /// Check failures, one line each.
    pub failures: Vec<String>,
    /// Checks made.
    pub checks: usize,
    /// Serve-side timings.
    pub serve: ServeTimings,
}

impl Probe {
    /// A probe; `deep` adds the layer sweep to every re-derived request.
    pub fn new(deep: bool, trace_dir: Option<&Path>) -> Self {
        Probe {
            tracer: Tracer::new(),
            deep,
            trace_dir: trace_dir.map(Path::to_path_buf),
            exact_mpki: HashMap::new(),
            decoded: HashMap::new(),
            failures: Vec::new(),
            checks: 0,
            serve: ServeTimings::default(),
        }
    }

    fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.checks += 1;
        if !ok {
            self.failures.push(what());
        }
    }

    /// The serve front end for request `i`, as the handler runs it: parse,
    /// canonical form and key, result-cache lookup; a miss stores the
    /// served body so later identical requests hit. Returns the parsed
    /// request and whether it missed.
    pub fn front_end(
        &mut self,
        i: usize,
        body: &str,
        served: Option<&[u8]>,
        cache: &mut ResultCache,
    ) -> Option<(RunRequest, bool, usize)> {
        let root = self.tracer.begin("request", "serve", None, Some(i));
        let (parsed, parse) =
            self.tracer
                .time("parse", "serve.request", Some(root), Some(i), || {
                    RunRequest::parse(body.as_bytes())
                });
        let req = match parsed {
            Ok(r) => r,
            Err(e) => {
                self.tracer.end(root);
                self.check(false, || format!("request {i} does not parse: {e}"));
                return None;
            }
        };
        let ((key, canonical), canon) =
            self.tracer
                .time("canonical", "serve.request", Some(root), Some(i), || {
                    (req.cache_key(), req.canonical().to_string())
                });
        let (hit, lookup) = self
            .tracer
            .time("lookup", "serve.cache", Some(root), Some(i), || {
                cache.get(key, &canonical).is_some()
            });
        if !hit {
            if let Some(body) = served {
                cache.insert(key, canonical, Arc::new(body.to_vec()));
            }
        }
        self.tracer.end(root);
        let us = |id| self.tracer.secs(id) * 1e6;
        let (p, c, l) = (us(parse), us(canon), us(lookup));
        self.serve.parse_us.push(p);
        self.serve.canonical_us.push(c);
        self.serve.lookup_us.push(l);
        self.serve.handling_ms.insert(i, (p + c + l) / 1e3);
        Some((req, !hit, root))
    }

    /// Re-derives request `i` in-process (`run_simulation`) and compares
    /// its `result` with the served body's. When deep, also times the
    /// request's decomposition into layer calls and sweeps its streams.
    pub fn rederive(&mut self, i: usize, parent: usize, req: &RunRequest, served: &[u8]) {
        let (result, sim) = self.tracer.time(
            "run_simulation",
            "serve.exec",
            Some(parent),
            Some(i),
            || run_simulation(req),
        );
        let sim_ms = self.tracer.secs(sim) * 1e3;
        self.serve.run_simulation_ms.push(sim_ms);
        *self.serve.handling_ms.entry(i).or_default() += sim_ms;
        let expected = result.map(|j| normalized(&j.to_string()));
        let got = std::str::from_utf8(served)
            .ok()
            .and_then(|s| Json::parse(s).ok())
            .and_then(|j| j.get("result").map(Json::to_string));
        match (&expected, &got) {
            (Ok(e), Some(g)) => self.check(e == g, || {
                format!("request {i}: served result differs from run_simulation")
            }),
            (Err(e), _) => self.check(false, || format!("request {i}: run_simulation failed: {e}")),
            (_, None) => self.check(false, || format!("request {i}: served body has no result")),
        }
        if self.deep {
            let parts = self.decompose(i, parent, req);
            self.serve.unattributed_ms.push(sim_ms - parts * 1e3);
            if req.fidelity == Fidelity::Sampled {
                let mut twin = req.clone();
                twin.fidelity = Fidelity::Exact;
                twin.sample_rate = RunRequest::DEFAULT_SAMPLE_RATE;
                twin.sample_seed = RunRequest::DEFAULT_SAMPLE_SEED;
                let (_, exact) = self.tracer.time(
                    "run_simulation_exact_twin",
                    "serve.exec",
                    Some(parent),
                    Some(i),
                    || run_simulation(&twin),
                );
                self.serve
                    .sampled_vs_exact
                    .push(sim_ms / (self.tracer.secs(exact) * 1e3));
            }
        }
    }

    /// Times the layer calls `run_simulation` makes for `req`, as
    /// siblings under one span, then sweeps each stream. Returns the
    /// seconds of the calls `run_simulation` itself makes.
    fn decompose(&mut self, i: usize, parent: usize, req: &RunRequest) -> f64 {
        let root = self
            .tracer
            .begin("decomposed", "benchmark", Some(parent), Some(i));
        let geom = req.geometry();
        let mut parts = 0.0;
        if let Some(mix) = &req.mix {
            let weights: Vec<f64> = mix.iter().map(|c| c.weight).collect();
            let shares = pro_rata_shares(&weights, req.accesses);
            let mut streams = Vec::with_capacity(mix.len());
            for (core, (comp, &share)) in mix.iter().zip(&shares).enumerate() {
                let trace = match &comp.source {
                    MixSource::Benchmark(name) => {
                        self.generate(root, i, name, geom, share, &mut parts)
                    }
                    MixSource::Trace(name) => {
                        let path = self.trace_dir.clone().unwrap_or_default().join(name);
                        let (loaded, id) =
                            self.tracer
                                .time("ingest", "trace-io", Some(root), Some(i), || {
                                    stem::trace_io::load_trace(&path)
                                });
                        parts += self.tracer.secs(id);
                        match loaded {
                            Ok((_, t)) => {
                                self.tracer.set_accesses(id, t.len() as u64);
                                t
                            }
                            Err(e) => {
                                self.check(false, || {
                                    format!("request {i}: cannot ingest {name}: {e}")
                                });
                                self.tracer.end(root);
                                return parts;
                            }
                        }
                    }
                };
                let (placed, id) =
                    self.tracer
                        .time("offset", "workloads", Some(root), Some(i), || {
                            offset_trace_into_region(trace, core)
                        });
                parts += self.tracer.secs(id);
                streams.push(self.decode(root, i, &placed, geom, &mut parts));
            }
            let (_, id) = self
                .tracer
                .time("mix", "analysis", Some(root), Some(i), || {
                    run_mix_decoded(
                        req.scheme,
                        geom,
                        SystemConfig::micro2010(),
                        &streams,
                        &weights,
                        req.mix_seed,
                        req.warmup_fraction,
                    )
                });
            let accesses: usize = streams.iter().map(DecodedTrace::len).sum();
            self.tracer.set_accesses(id, accesses as u64);
            parts += self.tracer.secs(id);
            for s in &streams {
                self.sweep_stream(
                    root,
                    i,
                    req.scheme,
                    geom,
                    s,
                    req.warmup_fraction,
                    Done::default(),
                );
            }
        } else {
            let raw = self.generate(root, i, &req.benchmark, geom, req.accesses, &mut parts);
            let trace = self.decode(root, i, &raw, geom, &mut parts);
            let warm = warm_split(trace.len(), req.warmup_fraction);
            let mut done = Done::default();
            if req.fidelity == Fidelity::Sampled {
                let (sample, id) =
                    self.tracer
                        .time("sample_select", "sim-core", Some(root), Some(i), || {
                            SampledTrace::select(&trace, req.sample_rate, req.sample_seed)
                        });
                self.tracer.set_accesses(id, trace.len() as u64);
                parts += self.tracer.secs(id);
                let (_, id) = self.tracer.time(
                    format!("replay_sampled.{}", req.scheme.label()),
                    crate_of(req.scheme),
                    Some(root),
                    Some(i),
                    || {
                        let mut cache = build_cache(req.scheme, geom);
                        let local = sample.split_before(warm);
                        cache.replay_decoded(sample.trace(), 0..local);
                        cache.reset_stats();
                        cache.replay_decoded(sample.trace(), local..sample.len());
                    },
                );
                self.tracer.set_accesses(id, sample.len() as u64);
                parts += self.tracer.secs(id);
                done.select = true;
            } else {
                let (_, id) = self
                    .tracer
                    .time("system", "hierarchy", Some(root), Some(i), || {
                        System::new(SystemConfig::micro2010(), build_cache(req.scheme, geom))
                            .warm_then_run_decoded(&trace, warm)
                    });
                self.tracer.set_accesses(id, trace.len() as u64);
                parts += self.tracer.secs(id);
                done.system = true;
                if req.profile {
                    parts += self.profile(root, i, geom, &trace);
                    done.profile = true;
                }
            }
            self.sweep_stream(root, i, req.scheme, geom, &trace, req.warmup_fraction, done);
        }
        self.tracer.end(root);
        parts
    }

    fn generate(
        &mut self,
        parent: usize,
        i: usize,
        bench: &str,
        geom: CacheGeometry,
        n: usize,
        parts: &mut f64,
    ) -> Trace {
        let bench = profile(bench);
        let (t, id) = self
            .tracer
            .time("generate", "workloads", Some(parent), Some(i), || {
                bench.trace(geom, n)
            });
        self.tracer.set_accesses(id, t.len() as u64);
        *parts += self.tracer.secs(id);
        t
    }

    fn decode(
        &mut self,
        parent: usize,
        i: usize,
        raw: &Trace,
        geom: CacheGeometry,
        parts: &mut f64,
    ) -> DecodedTrace {
        let (d, id) = self
            .tracer
            .time("decode", "sim-core", Some(parent), Some(i), || {
                DecodedTrace::decode(raw, geom)
            });
        self.tracer.set_accesses(id, d.len() as u64);
        *parts += self.tracer.secs(id);
        d
    }

    fn profile(
        &mut self,
        parent: usize,
        i: usize,
        geom: CacheGeometry,
        trace: &DecodedTrace,
    ) -> f64 {
        let (_, id) = self
            .tracer
            .time("profile", "analysis", Some(parent), Some(i), || {
                let profiler = CapacityDemandProfiler::micro2010(geom);
                CapacityDemandProfiler::aggregate(&profiler.profile_decoded(trace))
            });
        self.tracer.set_accesses(id, trace.len() as u64);
        self.tracer.secs(id)
    }

    /// Times every simulator layer on one decoded stream: the bare LLC of
    /// `scheme`, the full hierarchy, the capacity profiler, a warm
    /// snapshot and its restore (checked against the cold replay), and a
    /// sample selection, skipping what `done` already timed.
    #[allow(clippy::too_many_arguments)]
    fn sweep_stream(
        &mut self,
        parent: usize,
        i: usize,
        scheme: Scheme,
        geom: CacheGeometry,
        trace: &DecodedTrace,
        warmup_fraction: f64,
        done: Done,
    ) {
        let root = self
            .tracer
            .begin("sweep", "benchmark", Some(parent), Some(i));
        let n = trace.len() as u64;
        let warm = warm_split(trace.len(), warmup_fraction);
        let layer = crate_of(scheme);
        let (cold, id) = self.tracer.time(
            format!("replay.{}", scheme.label()),
            layer,
            Some(root),
            Some(i),
            || bare_replay(scheme, geom, trace, warm),
        );
        self.tracer.set_accesses(id, n);
        if !done.system {
            let (_, id) = self
                .tracer
                .time("system", "hierarchy", Some(root), Some(i), || {
                    System::new(SystemConfig::micro2010(), build_cache(scheme, geom))
                        .warm_then_run_decoded(trace, warm)
                });
            self.tracer.set_accesses(id, n);
        }
        if !done.profile {
            self.profile(root, i, geom, trace);
        }
        if build_cache(scheme, geom).supports_snapshot() {
            let (snap, id) = self
                .tracer
                .time("snapshot_warm", layer, Some(root), Some(i), || {
                    let mut cache = build_cache(scheme, geom);
                    cache.replay_decoded(trace, 0..warm);
                    cache.reset_stats();
                    cache.snapshot()
                });
            self.tracer.set_accesses(id, warm as u64);
            let (restored, id) = self.tracer.time(
                "snapshot_restore_replay",
                layer,
                Some(root),
                Some(i),
                || {
                    let mut cache = build_cache(scheme, geom);
                    let snap = snap.as_ref()?;
                    cache.restore(snap).ok()?;
                    cache.replay_decoded(trace, warm..trace.len());
                    Some(*cache.stats())
                },
            );
            self.tracer.set_accesses(id, n - warm as u64);
            self.check(restored == Some(cold), || {
                format!("stream {i}: {scheme} restored replay differs from the cold replay")
            });
        }
        if !done.select && build_cache(scheme, geom).supports_set_sampling() {
            let (_, id) =
                self.tracer
                    .time("sample_select", "sim-core", Some(root), Some(i), || {
                        SampledTrace::select(trace, 16, 0)
                    });
            self.tracer.set_accesses(id, n);
        }
        self.tracer.end(root);
    }

    /// The `run_all` sweep inputs through every layer: each sensitivity
    /// benchmark generated and decoded once, then swept under every
    /// paper scheme.
    pub fn sweep_reproduce(&mut self, benches: &[&str], accesses: usize, warmup_fraction: f64) {
        let geom = crate::inputs::paper_geometry();
        for (b, bench) in benches.iter().enumerate() {
            let root = self
                .tracer
                .begin(format!("stream.{bench}"), "benchmark", None, Some(b));
            let mut parts = 0.0;
            let raw = self.generate(root, b, bench, geom, accesses, &mut parts);
            let trace = self.decode(root, b, &raw, geom, &mut parts);
            for (k, &scheme) in Scheme::PAPER.iter().enumerate() {
                let first = k == 0;
                let done = Done {
                    system: false,
                    profile: !first,
                    select: !first,
                };
                self.sweep_stream(root, b, scheme, geom, &trace, warmup_fraction, done);
            }
            self.tracer.end(root);
        }
    }

    /// Exact bare-LLC MPKI of `bench` under `scheme` (cached).
    pub fn exact_mpki(
        &mut self,
        bench: &str,
        scheme: Scheme,
        geom: CacheGeometry,
        accesses: usize,
        warmup_fraction: f64,
    ) -> f64 {
        let key = format!(
            "{bench}/{scheme}/{}/{}/{accesses}/{warmup_fraction}",
            geom.sets(),
            geom.ways()
        );
        if let Some(&v) = self.exact_mpki.get(&key) {
            return v;
        }
        let tkey = format!("{bench}/{}/{}/{accesses}", geom.sets(), geom.ways());
        let trace = Arc::clone(self.decoded.entry(tkey).or_insert_with(|| {
            Arc::new(DecodedTrace::decode(
                &profile(bench).trace(geom, accesses),
                geom,
            ))
        }));
        let warm = warm_split(trace.len(), warmup_fraction);
        let v = measured_mpki(&bare_replay(scheme, geom, &trace, warm), &trace, warm);
        self.exact_mpki.insert(key, v);
        v
    }

    /// Relative error of a sampled request's MPKI estimate against the
    /// exact bare-LLC MPKI of the same stream.
    pub fn sampled_error(&mut self, req: &RunRequest, estimate: f64) -> Option<f64> {
        let exact = self.exact_mpki(
            &req.benchmark,
            req.scheme,
            req.geometry(),
            req.accesses,
            req.warmup_fraction,
        );
        rel_error(estimate, exact)
    }

    /// Per-request medians of the serve timings.
    pub fn serve_medians(&self) -> Vec<(&'static str, Option<f64>, &'static str)> {
        let s = &self.serve;
        vec![
            ("serve.request.parse_us_p50", median(&s.parse_us), "us"),
            (
                "serve.request.canonical_us_p50",
                median(&s.canonical_us),
                "us",
            ),
            ("serve.cache.lookup_us_p50", median(&s.lookup_us), "us"),
            (
                "serve.exec.run_simulation_ms_p50",
                median(&s.run_simulation_ms),
                "ms",
            ),
            (
                "serve.exec.unattributed_ms_p50",
                median(&s.unattributed_ms),
                "ms",
            ),
            (
                "serve.sampled_vs_exact_ratio",
                median(&s.sampled_vs_exact),
                "ratio",
            ),
        ]
    }
}

/// The sampled tier's relative MPKI errors on the reference inputs: the
/// two sensitivity benchmarks at the paper geometry under every paper
/// scheme that accepts sampling, at rates 8, 16 and 32. Workloads that
/// send no sampled requests report these, so the accuracy metric exists
/// on every workload.
pub fn reference_sampled_errors(probe: &mut Probe, smoke: bool) -> Vec<f64> {
    let accesses = if smoke { 20_000 } else { 200_000 };
    let geom = crate::inputs::paper_geometry();
    let mut errors = Vec::new();
    for bench in ["omnetpp", "ammp"] {
        for scheme in crate::inputs::sampling_schemes(geom) {
            for rate in [8, 16, 32] {
                let body = format!(
                    r#"{{"benchmark": "{bench}", "scheme": "{scheme}", "accesses": {accesses},
                        "fidelity": "sampled", "sample_rate": {rate}}}"#
                );
                let req = RunRequest::parse(body.as_bytes()).expect("reference request is valid");
                let estimate = run_simulation(&req)
                    .ok()
                    .as_ref()
                    .and_then(sampled_estimate);
                match estimate {
                    Some(est) => errors.extend(probe.sampled_error(&req, est)),
                    None => probe
                        .failures
                        .push(format!("no sampled estimate for {body}")),
                }
            }
        }
    }
    errors
}

/// Re-serializes a compact JSON document through the parser, so two
/// documents compare equal exactly when their values do.
fn normalized(text: &str) -> String {
    Json::parse(text).map_or_else(|_| text.to_owned(), |j| j.to_string())
}

/// The sampled-tier MPKI estimate in a `/run` result or response body.
pub fn sampled_estimate(doc: &Json) -> Option<f64> {
    let result = doc.get("result").unwrap_or(doc);
    result.get("sampled_metrics")?.get("mpki")?.as_f64()
}

/// Time, accesses and count of the spans a predicate selects.
struct Totals {
    secs: f64,
    accesses: u64,
    spans: usize,
}

impl Totals {
    fn of(tracer: &Tracer, pred: impl Fn(&str) -> bool) -> Totals {
        tracer.spans().iter().filter(|s| pred(&s.name)).fold(
            Totals {
                secs: 0.0,
                accesses: 0,
                spans: 0,
            },
            |t, s| Totals {
                secs: t.secs + s.duration_ns() as f64 / 1e9,
                accesses: t.accesses + s.accesses,
                spans: t.spans + 1,
            },
        )
    }

    fn named(tracer: &Tracer, name: &str) -> Totals {
        Totals::of(tracer, |n| n == name)
    }

    fn secs(&self) -> Option<f64> {
        (self.spans > 0).then_some(self.secs)
    }

    fn maccess_per_s(&self) -> Option<f64> {
        (self.spans > 0 && self.secs > 0.0).then(|| self.accesses as f64 / self.secs / 1e6)
    }
}

type LayerMetric = (String, Option<f64>, &'static str);

/// The per-layer metrics every workload reports, from the sweep's spans:
/// `(name, value, unit)`. A layer the sweep never reached yields `None`.
pub fn layer_metrics(tracer: &Tracer) -> Vec<LayerMetric> {
    let mut out: Vec<LayerMetric> = Vec::new();
    let mut time_and_rate = |name: &str, t: Totals| {
        out.push((format!("{name}_s"), t.secs(), "s"));
        out.push((
            format!("{name}_maccess_per_s"),
            t.maccess_per_s(),
            "Maccess/s",
        ));
    };
    time_and_rate("workloads.generate", Totals::named(tracer, "generate"));
    time_and_rate("sim-core.decode", Totals::named(tracer, "decode"));
    out.push((
        "sim-core.sample_select_s".into(),
        Totals::named(tracer, "sample_select").secs(),
        "s",
    ));
    for layer in ["replacement", "spatial", "stem-llc"] {
        let schemes: Vec<Scheme> = Scheme::PAPER
            .into_iter()
            .filter(|&s| crate_of(s) == layer)
            .collect();
        let replay = |s: &Scheme| format!("replay.{}", s.label());
        let all = Totals::of(tracer, |n| schemes.iter().any(|s| replay(s) == n));
        out.push((format!("{layer}.replay_s"), all.secs(), "s"));
        for s in &schemes {
            out.push((
                format!("{layer}.replay_maccess_per_s.{}", s.label()),
                Totals::named(tracer, &replay(s)).maccess_per_s(),
                "Maccess/s",
            ));
        }
    }
    let system = Totals::named(tracer, "system");
    out.push(("hierarchy.system_s".into(), system.secs(), "s"));
    out.push((
        "hierarchy.system_maccess_per_s".into(),
        system.maccess_per_s(),
        "Maccess/s",
    ));
    for (metric, span) in [
        ("analysis.profile_s", "profile"),
        ("bench.snapshot_warm_s", "snapshot_warm"),
        ("bench.snapshot_restore_replay_s", "snapshot_restore_replay"),
    ] {
        out.push((metric.into(), Totals::named(tracer, span).secs(), "s"));
    }
    // The cold side of the snapshot comparison is the bare replay of the
    // schemes that take snapshots.
    let geom = crate::inputs::paper_geometry();
    let cold: Vec<String> = Scheme::PAPER
        .iter()
        .filter(|&&s| build_cache(s, geom).supports_snapshot())
        .map(|s| format!("replay.{}", s.label()))
        .collect();
    out.push((
        "bench.snapshot_cold_replay_s".into(),
        Totals::of(tracer, |n| cold.iter().any(|c| c == n)).secs(),
        "s",
    ));
    out
}

/// Layer metrics of calls only `serve-mix` makes (trace ingest and the
/// shared-LLC mix); `None` on the other workloads.
pub fn mix_layer_metrics(tracer: &Tracer) -> Vec<LayerMetric> {
    let ingest = Totals::named(tracer, "ingest");
    vec![
        ("trace-io.ingest_s".into(), ingest.secs(), "s"),
        (
            "trace-io.ingest_maccess_per_s".into(),
            ingest.maccess_per_s(),
            "Maccess/s",
        ),
        (
            "analysis.mix_s".into(),
            Totals::named(tracer, "mix").secs(),
            "s",
        ),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn relative_error_is_undefined_at_zero() {
        assert_eq!(rel_error(1.1, 1.0).map(|e| (e * 1e9).round()), Some(1e8));
        assert_eq!(rel_error(0.9, 1.0).map(|e| (e * 1e9).round()), Some(1e8));
        assert_eq!(rel_error(1.0, 0.0), None);
    }

    #[test]
    fn every_paper_scheme_has_a_crate() {
        let crates: Vec<&str> = Scheme::PAPER.iter().map(|&s| crate_of(s)).collect();
        assert_eq!(
            crates,
            [
                "replacement",
                "replacement",
                "replacement",
                "spatial",
                "spatial",
                "stem-llc"
            ]
        );
    }

    #[test]
    fn sampled_estimates_are_found_in_bodies_and_results() {
        let result = Json::parse(r#"{"sampled_metrics": {"mpki": 2.5}}"#).expect("json");
        assert_eq!(sampled_estimate(&result), Some(2.5));
        let body = Json::parse(r#"{"request": {}, "result": {"sampled_metrics": {"mpki": 3.0}}}"#)
            .expect("json");
        assert_eq!(sampled_estimate(&body), Some(3.0));
        let exact = Json::parse(r#"{"result": {"metrics": {"mpki": 3.0}}}"#).expect("json");
        assert_eq!(sampled_estimate(&exact), None);
    }

    #[test]
    fn a_small_rederivation_agrees_and_the_sweep_reaches_every_layer() {
        let body =
            r#"{"benchmark": "mcf", "scheme": "lru", "sets": 64, "ways": 4, "accesses": 3000}"#;
        let req = RunRequest::parse(body.as_bytes()).expect("valid");
        let served = format!(r#"{{"result": {}}}"#, run_simulation(&req).expect("runs"));
        let mut probe = Probe::new(true, None);
        let mut cache = ResultCache::new(4);
        let (req, missed, root) = probe
            .front_end(0, body, Some(served.as_bytes()), &mut cache)
            .expect("front end");
        assert!(missed);
        probe.rederive(0, root, &req, served.as_bytes());
        assert!(probe.failures.is_empty(), "{:?}", probe.failures);
        // A second lookup hits.
        let (_, missed, _) = probe
            .front_end(1, body, None, &mut cache)
            .expect("front end");
        assert!(!missed);
        let metrics = layer_metrics(&probe.tracer);
        for name in [
            "workloads.generate_s",
            "sim-core.decode_s",
            "hierarchy.system_s",
            "analysis.profile_s",
            "bench.snapshot_warm_s",
            "sim-core.sample_select_s",
            "replacement.replay_maccess_per_s.LRU",
        ] {
            let (_, v, _) = metrics.iter().find(|(n, _, _)| n == name).expect(name);
            assert!(v.is_some_and(|v| v > 0.0), "{name} = {v:?}");
        }
        // A wrong served body is caught.
        let wrong = br#"{"result": {"metrics": {}}}"#;
        let mut probe = Probe::new(false, None);
        let mut cache = ResultCache::new(4);
        let (req, _, root) = probe
            .front_end(0, body, Some(wrong), &mut cache)
            .expect("front end");
        probe.rederive(0, root, &req, wrong);
        assert_eq!(probe.failures.len(), 1);
    }
}
