//! The three `stem-serve` traffic mixes, sent over real TCP to the
//! `serve` binary from closed-loop clients.

use std::collections::{BTreeMap, HashSet};
use std::path::PathBuf;
use std::time::Instant;

use stem::sim_core::Json;
use stem_bench::config::Fidelity;
use stem_serve::ResultCache;

use crate::client::{closed_loop, delta, scrape, Exchange, RssPoller, Server};
use crate::inputs::{self, MixSizes};
use crate::layers::{sampled_estimate, Probe};
use crate::stats::{median, nearest_rank, tail};
use crate::{Ctx, Outcome};

/// The three traffic mixes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Mix {
    /// Repeated requests: result-cache hits.
    Hot,
    /// Distinct exact requests: result-cache misses, snapshot-cache twins.
    Cold,
    /// Multi-core mixes over ingested traces, and sampled requests.
    Mixed,
}

impl Mix {
    fn name(self) -> &'static str {
        match self {
            Mix::Hot => "serve-hot",
            Mix::Cold => "serve-cold",
            Mix::Mixed => "serve-mix",
        }
    }
}

/// What one workload sends.
struct Inputs {
    /// Sent untimed first (the `serve-hot` catalog), then `timed`.
    warm: Vec<String>,
    timed: Vec<String>,
    /// For `serve-hot`: the catalog index of each timed request.
    draws: Vec<usize>,
    /// Indices into `warm ++ timed` re-derived in-process.
    checked: Vec<usize>,
    trace_dir: Option<PathBuf>,
}

fn inputs(ctx: &Ctx, mix: Mix) -> Result<Inputs, String> {
    let n = if ctx.smoke { 100 } else { 1000 };
    let seed = ctx.seed;
    Ok(match mix {
        Mix::Hot => {
            let warm = inputs::hot_catalog(seed);
            let draws = inputs::hot_draws(seed, n);
            let timed = draws.iter().map(|&k| warm[k].clone()).collect();
            let checked = inputs::check_subset(seed, &warm);
            Inputs {
                warm,
                timed,
                draws,
                checked,
                trace_dir: None,
            }
        }
        Mix::Cold => {
            let timed = inputs::cold_requests(seed, n, 100_000);
            let checked = inputs::check_subset(seed, &timed);
            Inputs {
                warm: Vec::new(),
                timed,
                draws: Vec::new(),
                checked,
                trace_dir: None,
            }
        }
        Mix::Mixed => {
            let dir = ctx.out_dir.join(format!("traces-{seed}"));
            let _ = std::fs::remove_dir_all(&dir);
            std::fs::create_dir_all(&dir)
                .map_err(|e| format!("creating {}: {e}", dir.display()))?;
            let files = inputs::trace_files(seed, if ctx.smoke { 5_000 } else { 20_000 });
            for f in &files {
                std::fs::write(dir.join(&f.name), &f.bytes)
                    .map_err(|e| format!("writing {}: {e}", f.name))?;
            }
            let names: Vec<String> = files.into_iter().map(|f| f.name).collect();
            let sizes = if ctx.smoke {
                MixSizes {
                    per_core: 5_000,
                    sampled: 20_000,
                }
            } else {
                MixSizes {
                    per_core: 16_000,
                    sampled: 150_000,
                }
            };
            let timed = inputs::mix_requests(seed, n, &names, sizes);
            let checked = inputs::check_subset(seed, &timed);
            let dir = std::fs::canonicalize(&dir).map_err(|e| e.to_string())?;
            Inputs {
                warm: Vec::new(),
                timed,
                draws: Vec::new(),
                checked,
                trace_dir: Some(dir),
            }
        }
    })
}

/// One pass over a fresh server.
struct Phase {
    setup_secs: f64,
    warm: Vec<Exchange>,
    timed: Vec<Exchange>,
    wall: f64,
    before: BTreeMap<String, f64>,
    after: BTreeMap<String, f64>,
    peak_rss_mb: Option<f64>,
    clean_exit: bool,
}

fn phase(ctx: &Ctx, inp: &Inputs) -> Result<Phase, String> {
    let server = Server::spawn(&ctx.bin("serve"), ctx.threads, inp.trace_dir.as_deref())?;
    let poller = RssPoller::start(server.pid());
    fn refs(v: &[String]) -> Vec<&str> {
        v.iter().map(String::as_str).collect()
    }
    let warm = closed_loop(server.addr, &refs(&inp.warm), ctx.threads);
    let before = scrape(server.addr)?;
    let t0 = Instant::now();
    let timed = closed_loop(server.addr, &refs(&inp.timed), ctx.threads);
    let wall = t0.elapsed().as_secs_f64();
    let after = scrape(server.addr)?;
    let setup_secs = server.setup_secs;
    let clean_exit = server.shutdown();
    Ok(Phase {
        setup_secs,
        warm,
        timed,
        wall,
        before,
        after,
        peak_rss_mb: poller.stop(),
        clean_exit,
    })
}

/// Runs one serve workload.
pub fn run(ctx: &Ctx, mix: Mix) -> Result<Outcome, String> {
    let mut out = Outcome::new(mix.name());
    let inp = inputs(ctx, mix)?;
    if let Some(dir) = &inp.trace_dir {
        // `run_simulation` resolves trace names against this variable; it
        // is set before any thread of this process reads the environment.
        std::env::set_var(stem_serve::exec::TRACE_DIR_ENV, dir);
    }

    // Created first: client spans of the traced pass are placed on its
    // clock.
    let mut probe = Probe::new(ctx.traced, inp.trace_dir.as_deref());
    let mut setup = Vec::new();
    for _ in 0..crate::SETUP_PROBES {
        let server = Server::spawn(&ctx.bin("serve"), ctx.threads, inp.trace_dir.as_deref())?;
        setup.push(server.setup_secs);
        out.check(server.shutdown(), || {
            "a set-up probe server did not drain cleanly".into()
        });
    }
    let main = phase(ctx, &inp)?;
    setup.push(main.setup_secs);
    let traced = if ctx.traced {
        Some(phase(ctx, &inp)?)
    } else {
        None
    };

    check_phase(&main, &inp, mix, &mut out);
    let sent: Vec<&Exchange> = main.warm.iter().chain(&main.timed).collect();
    let bodies: Vec<&String> = inp.warm.iter().chain(&inp.timed).collect();

    // In-process: the front end over every request the server saw, and a
    // re-derivation (plus, traced, the layer sweep) of the checked subset.
    let mut cache = ResultCache::new(ResultCache::DEFAULT_CAPACITY);
    let checked: HashSet<usize> = inp.checked.iter().copied().collect();
    let mut complete = Vec::new();
    let mut errors = Vec::new();
    for (i, (body, ex)) in bodies.iter().zip(&sent).enumerate() {
        let Some((req, missed, root)) = probe.front_end(i, body, ex.body(), &mut cache) else {
            continue;
        };
        if checked.contains(&i) && missed {
            if let Some(served) = ex.body() {
                probe.rederive(i, root, &req, served);
                complete.push(i);
            }
        } else if !missed {
            complete.push(i);
        }
        if req.fidelity == Fidelity::Sampled {
            let estimate = ex
                .body()
                .and_then(|b| std::str::from_utf8(b).ok())
                .and_then(|t| Json::parse(t).ok());
            match estimate.as_ref().and_then(sampled_estimate) {
                Some(est) => errors.extend(probe.sampled_error(&req, est)),
                None => out.check(false, || format!("request {i}: no sampled estimate")),
            }
        }
    }
    if mix != Mix::Mixed {
        errors = crate::layers::reference_sampled_errors(&mut probe, ctx.smoke);
    }
    out.absorb_probe(&probe);

    let latencies: Vec<f64> = main.timed.iter().map(Exchange::latency_ms).collect();
    let n = main.timed.len();
    out.metric("setup_s", median(&setup), "s");
    out.metric("wall_s", Some(main.wall), "s");
    out.metric("req_per_s", Some(n as f64 / main.wall), "1/s");
    out.metric("latency_p50_ms", nearest_rank(&latencies, 50.0), "ms");
    let tail = tail(&latencies);
    out.metric("latency_tail_ms", tail.map(|t| t.0), "ms");
    out.metric("peak_rss_mb", main.peak_rss_mb, "MB");
    out.metric("sampled_mpki_rel_err", median(&errors), "fraction");

    out.extra("latency_samples", n as f64, "count");
    out.extra_opt("latency_tail_percentile", tail.map(|t| t.1), "%");
    out.extra("setup_samples", setup.len() as f64, "count");
    out.extra("sampled_estimates", errors.len() as f64, "count");
    out.extra("checked_requests", inp.checked.len() as f64, "count");
    metrics_extras(&main, &mut out);

    if let Some(tp) = traced {
        let traced_sent: Vec<&Exchange> = tp.warm.iter().chain(&tp.timed).collect();
        for (i, ex) in traced_sent.iter().enumerate() {
            let t = &mut probe.tracer;
            let root = t.push_measured("request", "client", None, Some(i), ex.start, ex.end);
            for (name, from, to) in [
                ("connect", ex.start, ex.connected),
                ("send", ex.connected, ex.sent),
                ("wait", ex.sent, ex.first_byte),
                ("read", ex.first_byte, ex.end),
            ] {
                t.push_measured(name, "serve.http", Some(root), Some(i), from, to);
            }
        }
        let ms = |f: &dyn Fn(&Exchange) -> f64| -> Vec<f64> { tp.timed.iter().map(f).collect() };
        let ttfb = ms(&|e| (e.first_byte - e.start).as_secs_f64() * 1e3);
        out.extra_opt(
            "serve.http.connect_ms_p50",
            median(&ms(&|e| (e.connected - e.start).as_secs_f64() * 1e3)),
            "ms",
        );
        out.extra_opt("serve.http.ttfb_ms_p50", nearest_rank(&ttfb, 50.0), "ms");
        out.extra_opt("serve.http.ttfb_ms_p99", nearest_rank(&ttfb, 99.0), "ms");
        out.extra_opt(
            "serve.http.read_ms_p50",
            median(&ms(&|e| (e.end - e.first_byte).as_secs_f64() * 1e3)),
            "ms",
        );
        let waits: Vec<f64> = complete
            .iter()
            .filter(|&&i| i >= inp.warm.len())
            .filter_map(|&i| {
                let e = traced_sent[i];
                Some(
                    (e.first_byte - e.start).as_secs_f64() * 1e3
                        - probe.serve.handling_ms.get(&i)?,
                )
            })
            .collect();
        out.extra_opt("serve.transport.accept_wait_ms_p50", median(&waits), "ms");
        out.extra(
            "serve.transport.accept_wait_samples",
            waits.len() as f64,
            "count",
        );
        out.extra(
            "trace_overhead_pct",
            (tp.wall - main.wall) / main.wall * 100.0,
            "%",
        );
        for (name, v, unit) in probe.serve_medians() {
            out.extra_opt(name, v, unit);
        }
        out.finish_traced(probe);
    }
    Ok(out)
}

/// Status, byte-identity and `/metrics` checks on one pass.
fn check_phase(p: &Phase, inp: &Inputs, mix: Mix, out: &mut Outcome) {
    for (i, ex) in p.warm.iter().chain(&p.timed).enumerate() {
        out.attempt(ex.ok(), || match &ex.result {
            Ok((status, _)) => format!("request {i} answered {status}"),
            Err(e) => format!("request {i}: {e}"),
        });
    }
    if mix == Mix::Hot {
        for (j, (&k, ex)) in inp.draws.iter().zip(&p.timed).enumerate() {
            let first = p.warm[k].body();
            out.check(first.is_some() && ex.body() == first, || {
                format!("hit {j} differs from catalog entry {k}'s first response")
            });
        }
    }
    let d = |s: &str| delta(&p.before, &p.after, s);
    out.check(p.after.get("stem_serve_panics_total") == Some(&0.0), || {
        "stem_serve_panics_total is not 0".into()
    });
    if mix == Mix::Cold {
        let distinct = inp.timed.iter().collect::<HashSet<_>>().len() as f64;
        out.check(d("stem_serve_sim_executions_total") == distinct, || {
            format!(
                "sim_executions rose by {} for {distinct} distinct requests",
                d("stem_serve_sim_executions_total")
            )
        });
    }
    out.check(p.clean_exit, || {
        "the server did not drain and exit cleanly".into()
    });
}

/// The `/metrics` deltas over the timed pass.
fn metrics_extras(p: &Phase, out: &mut Outcome) {
    let d = |s: &str| delta(&p.before, &p.after, s);
    let ratio = |hits: f64, misses: f64| (hits + misses > 0.0).then(|| hits / (hits + misses));
    out.extra_opt(
        "serve.cache.hit_ratio",
        ratio(
            d("stem_serve_cache_hits_total"),
            d("stem_serve_cache_misses_total"),
        ),
        "fraction",
    );
    out.extra_opt(
        "serve.snapshot.hit_ratio",
        ratio(
            d("stem_serve_snapshot_hits_total"),
            d("stem_serve_snapshot_misses_total"),
        ),
        "fraction",
    );
    out.extra(
        "serve.sim_executions",
        d("stem_serve_sim_executions_total"),
        "count",
    );
    out.extra(
        "serve.queue.rejected",
        d("stem_serve_rejected_total"),
        "count",
    );
    out.extra(
        "serve.deadline_shed",
        d("stem_serve_deadline_shed_total"),
        "count",
    );
    out.extra(
        "serve.panics",
        p.after
            .get("stem_serve_panics_total")
            .copied()
            .unwrap_or(-1.0),
        "count",
    );
}
