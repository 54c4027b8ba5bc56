//! The repository benchmark: the `run_all` reproduction and three
//! `stem-serve` traffic mixes, run against the shipped binaries, with
//! per-layer timings measured from outside in a separate traced run.
//!
//! Usage (normally through `benchmark/run.sh`, from the repository root):
//!
//! ```text
//! stem-benchmark --bin-dir DIR [--workload NAME] [--seed N] [--seconds S]
//!                [--trace 0|1 | --traced] [--smoke]
//! ```
//!
//! Prints every metric with its unit, writes the same values to
//! `benchmark/out/<workload>.json`, and ends stdout with one JSON line:
//! `{"correct", "attempted", "failed", "metrics"}`. Exits nonzero when an
//! output check fails. See `benchmark/README.md`.

mod client;
mod inputs;
mod layers;
mod reproduce;
mod serve;
mod spans;
mod stats;

use std::path::PathBuf;
use std::process::ExitCode;

use stem::sim_core::Json;

use layers::{layer_metrics, mix_layer_metrics, Probe};
use spans::self_time_by_layer;

/// Extra set-ups per run; with the measured instance's own set-up they
/// give an odd number of samples, reported as the median.
pub const SETUP_PROBES: usize = 10;

/// The workloads, in the order a full run takes them.
const WORKLOADS: [&str; 4] = ["reproduce", "serve-hot", "serve-cold", "serve-mix"];

/// Run settings shared by every workload.
#[derive(Debug, Clone)]
pub struct Ctx {
    bin_dir: PathBuf,
    /// Workload seed (inputs are a pure function of it).
    pub seed: u64,
    /// Seconds the caller asked one run to measure (recorded; every run
    /// measures a fixed amount of work).
    pub seconds: f64,
    /// Per-layer traced run instead of the end-to-end one.
    pub traced: bool,
    /// Reduced sizes, every check on.
    pub smoke: bool,
    /// `STEM_THREADS` of the programs under test and client connections.
    pub threads: usize,
    /// Where results, spans and generated files go.
    pub out_dir: PathBuf,
}

impl Ctx {
    /// Path of a release binary of the repository.
    pub fn bin(&self, name: &str) -> PathBuf {
        self.bin_dir.join(name)
    }
}

/// One named value with its unit.
#[derive(Debug, Clone)]
pub struct Metric {
    name: String,
    value: f64,
    unit: &'static str,
}

/// The result of one workload run.
#[derive(Debug)]
pub struct Outcome {
    workload: &'static str,
    attempted: u64,
    failed: u64,
    failures: Vec<String>,
    end_to_end: Vec<Metric>,
    per_layer: Vec<Metric>,
    extra: Vec<Metric>,
    missing: Vec<String>,
    spans: Option<Json>,
    self_times: Vec<(&'static str, f64, usize)>,
}

impl Outcome {
    fn new(workload: &'static str) -> Self {
        Outcome {
            workload,
            attempted: 0,
            failed: 0,
            failures: Vec::new(),
            end_to_end: Vec::new(),
            per_layer: Vec::new(),
            extra: Vec::new(),
            missing: Vec::new(),
            spans: None,
            self_times: Vec::new(),
        }
    }

    /// Counts one attempted operation, failed unless `ok`.
    fn attempt(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        self.check(ok, what);
    }

    /// Records a failed output check unless `ok`.
    fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok {
            self.failed += 1;
            self.failures.push(what());
        }
    }

    fn absorb_probe(&mut self, probe: &Probe) {
        self.failed += probe.failures.len() as u64;
        self.failures.extend(probe.failures.iter().cloned());
    }

    fn metric(&mut self, name: &str, value: Option<f64>, unit: &'static str) {
        match value {
            Some(value) => self.end_to_end.push(Metric {
                name: name.into(),
                value,
                unit,
            }),
            None => self.missing.push(name.into()),
        }
    }

    fn extra(&mut self, name: &str, value: f64, unit: &'static str) {
        self.extra.push(Metric {
            name: name.into(),
            value,
            unit,
        });
    }

    fn extra_opt(&mut self, name: &str, value: Option<f64>, unit: &'static str) {
        if let Some(v) = value {
            self.extra(name, v, unit);
        }
    }

    /// Takes the traced probe's per-layer metrics, spans and self times.
    fn finish_traced(&mut self, probe: Probe) {
        for (name, value, unit) in layer_metrics(&probe.tracer) {
            match value {
                Some(value) => self.per_layer.push(Metric { name, value, unit }),
                None => self.missing.push(name),
            }
        }
        for (name, value, unit) in mix_layer_metrics(&probe.tracer) {
            self.extra_opt(&name, value, unit);
        }
        self.self_times = self_time_by_layer(probe.tracer.spans())
            .into_iter()
            .map(|(layer, (secs, n))| (layer, secs, n))
            .collect();
        self.spans = Some(probe.tracer.to_json());
    }

    fn correct(&self) -> bool {
        self.failed == 0 && self.missing.is_empty()
    }

    /// The result line: every end-to-end metric, or every
    /// per-layer one for a traced run.
    fn result_line(&self, traced: bool) -> Json {
        let metrics = if traced {
            &self.per_layer
        } else {
            &self.end_to_end
        };
        Json::Obj(vec![
            ("correct".into(), Json::Bool(self.correct())),
            ("attempted".into(), Json::Int(self.attempted as i64)),
            ("failed".into(), Json::Int(self.failed as i64)),
            ("metrics".into(), metrics_json(metrics)),
        ])
    }

    fn print(&self, ctx: &Ctx) {
        println!("== {} (seed {}, {}) ==", self.workload, ctx.seed, mode(ctx));
        let show = |title: &str, list: &[Metric]| {
            if !list.is_empty() {
                println!("  {title}:");
                for m in list {
                    println!("    {:<44} {:>14.6} {}", m.name, m.value, m.unit);
                }
            }
        };
        show("end-to-end", &self.end_to_end);
        show("per-layer", &self.per_layer);
        show("diagnostics", &self.extra);
        if !self.self_times.is_empty() {
            println!("  self time by layer (span duration minus child spans):");
            for (layer, secs, n) in &self.self_times {
                println!("    {layer:<20} {secs:>12.6} s  over {n} spans");
            }
        }
        println!(
            "  attempted {}, failed {} (error rate {:.4})",
            self.attempted,
            self.failed,
            self.failed as f64 / self.attempted.max(1) as f64
        );
        for f in self.failures.iter().take(10) {
            println!("  FAILED: {f}");
        }
        for m in &self.missing {
            println!("  MISSING METRIC: {m}");
        }
    }

    fn write_files(&self, ctx: &Ctx) -> Result<(), String> {
        let nproc = std::process::Command::new("nproc")
            .output()
            .ok()
            .and_then(|o| String::from_utf8(o.stdout).ok())
            .and_then(|s| s.trim().parse::<i64>().ok());
        let parallelism = std::thread::available_parallelism().map_or(0, |n| n.get() as i64);
        let doc = Json::Obj(vec![
            ("workload".into(), Json::str(self.workload)),
            ("seed".into(), Json::Int(ctx.seed as i64)),
            ("mode".into(), Json::str(mode(ctx))),
            ("seconds".into(), Json::Float(ctx.seconds)),
            ("nproc".into(), nproc.map_or(Json::Null, Json::Int)),
            ("available_parallelism".into(), Json::Int(parallelism)),
            ("threads".into(), Json::Int(ctx.threads as i64)),
            ("correct".into(), Json::Bool(self.correct())),
            ("attempted".into(), Json::Int(self.attempted as i64)),
            ("failed".into(), Json::Int(self.failed as i64)),
            (
                "failures".into(),
                Json::Arr(self.failures.iter().map(|f| Json::str(f.clone())).collect()),
            ),
            ("end_to_end".into(), metrics_json(&self.end_to_end)),
            ("per_layer".into(), metrics_json(&self.per_layer)),
            ("diagnostics".into(), metrics_json(&self.extra)),
            (
                "self_time_s".into(),
                Json::Obj(
                    self.self_times
                        .iter()
                        .map(|(layer, secs, _)| (layer.to_string(), Json::Float(*secs)))
                        .collect(),
                ),
            ),
        ]);
        std::fs::create_dir_all(&ctx.out_dir).map_err(|e| e.to_string())?;
        let suffix = if ctx.traced { ".traced" } else { "" };
        let path = ctx.out_dir.join(format!("{}{suffix}.json", self.workload));
        std::fs::write(&path, doc.pretty())
            .map_err(|e| format!("writing {}: {e}", path.display()))?;
        if let Some(spans) = &self.spans {
            let path = ctx.out_dir.join(format!("{}.spans.json", self.workload));
            std::fs::write(&path, spans.pretty())
                .map_err(|e| format!("writing {}: {e}", path.display()))?;
        }
        Ok(())
    }
}

fn mode(ctx: &Ctx) -> &'static str {
    match (ctx.smoke, ctx.traced) {
        (false, false) => "end-to-end",
        (false, true) => "traced",
        (true, false) => "smoke",
        (true, true) => "smoke, traced",
    }
}

fn metrics_json(list: &[Metric]) -> Json {
    Json::Obj(
        list.iter()
            .map(|m| {
                (
                    m.name.clone(),
                    Json::Obj(vec![
                        ("value".into(), Json::Float(m.value)),
                        ("unit".into(), Json::str(m.unit)),
                    ]),
                )
            })
            .collect(),
    )
}

fn usage() -> String {
    format!(
        "usage: stem-benchmark --bin-dir DIR [--workload {}] [--seed N] [--seconds S] \
         [--trace 0|1 | --traced] [--smoke]",
        WORKLOADS.join("|")
    )
}

fn parse_args() -> Result<(Ctx, Vec<&'static str>), String> {
    let mut bin_dir = None;
    let mut workload = None;
    let mut seed = 1u64;
    let mut seconds = 0.0;
    let mut traced = false;
    let mut smoke = false;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        let mut value = || {
            args.next()
                .ok_or_else(|| format!("{arg} needs a value\n{}", usage()))
        };
        match arg.as_str() {
            "--bin-dir" => bin_dir = Some(PathBuf::from(value()?)),
            "--workload" => {
                let w = value()?;
                workload = Some(
                    *WORKLOADS
                        .iter()
                        .find(|&&n| n == w)
                        .ok_or_else(|| format!("unknown workload {w:?}\n{}", usage()))?,
                );
            }
            "--seed" => seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?,
            "--trace" => {
                traced = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, got {other:?}")),
                }
            }
            "--traced" => traced = true,
            "--smoke" => smoke = true,
            other => return Err(format!("unknown argument {other:?}\n{}", usage())),
        }
    }
    let bin_dir = bin_dir.ok_or_else(usage)?;
    let workloads = workload.map_or_else(|| WORKLOADS.to_vec(), |w| vec![w]);
    let ctx = Ctx {
        bin_dir,
        seed,
        seconds,
        traced,
        smoke,
        threads: 2,
        out_dir: PathBuf::from("benchmark/out"),
    };
    Ok((ctx, workloads))
}

fn run(ctx: &Ctx, workload: &str) -> Result<Outcome, String> {
    match workload {
        "reproduce" => reproduce::run(ctx),
        "serve-hot" => serve::run(ctx, serve::Mix::Hot),
        "serve-cold" => serve::run(ctx, serve::Mix::Cold),
        "serve-mix" => serve::run(ctx, serve::Mix::Mixed),
        other => Err(format!("unknown workload {other:?}")),
    }
}

fn main() -> ExitCode {
    let (ctx, workloads) = match parse_args() {
        Ok(v) => v,
        Err(e) => {
            eprintln!("{e}");
            return ExitCode::from(2);
        }
    };
    for bin in ["run_all", "serve"] {
        if !ctx.bin(bin).is_file() {
            eprintln!(
                "missing binary {}; build the repository first",
                ctx.bin(bin).display()
            );
            return ExitCode::from(2);
        }
    }
    let mut lines = Vec::new();
    for w in &workloads {
        let outcome = match run(&ctx, w) {
            Ok(o) => o,
            Err(e) => {
                eprintln!("{w}: {e}");
                return ExitCode::FAILURE;
            }
        };
        outcome.print(&ctx);
        if let Err(e) = outcome.write_files(&ctx) {
            eprintln!("{w}: {e}");
            return ExitCode::FAILURE;
        }
        lines.push((*w, outcome.result_line(ctx.traced), outcome.correct()));
    }
    let all_correct = lines.iter().all(|(_, _, ok)| *ok);
    let last = if let [(_, line, _)] = lines.as_slice() {
        line.clone()
    } else {
        for (w, line, _) in &lines {
            println!("{w}: {line}");
        }
        combined(&lines)
    };
    println!("{last}");
    if all_correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// One result line for several workloads: counts summed, metrics named
/// `<workload>/<metric>`.
fn combined(lines: &[(&str, Json, bool)]) -> Json {
    let count = |key: &str| -> i64 {
        lines
            .iter()
            .filter_map(|(_, l, _)| l.get(key).and_then(Json::as_u64))
            .sum::<u64>() as i64
    };
    let metrics = lines
        .iter()
        .flat_map(|(w, l, _)| {
            l.get("metrics")
                .and_then(Json::as_obj)
                .unwrap_or_default()
                .iter()
                .map(move |(k, v)| (format!("{w}/{k}"), v.clone()))
        })
        .collect();
    Json::Obj(vec![
        (
            "correct".into(),
            Json::Bool(lines.iter().all(|(_, _, ok)| *ok)),
        ),
        ("attempted".into(), Json::Int(count("attempted"))),
        ("failed".into(), Json::Int(count("failed"))),
        ("metrics".into(), Json::Obj(metrics)),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;
    use stem::analysis::Scheme;

    #[test]
    fn result_line_has_exactly_the_contract_keys() {
        let mut o = Outcome::new("reproduce");
        o.attempt(true, String::new);
        o.metric("wall_s", Some(1.5), "s");
        o.per_layer.push(Metric {
            name: "x".into(),
            value: 2.0,
            unit: "s",
        });
        let line = o.result_line(false);
        let keys: Vec<&str> = line
            .as_obj()
            .expect("object")
            .iter()
            .map(|(k, _)| k.as_str())
            .collect();
        assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
        assert_eq!(
            line.to_string(),
            r#"{"correct":true,"attempted":1,"failed":0,"metrics":{"wall_s":{"value":1.5,"unit":"s"}}}"#
        );
        assert!(o.result_line(true).to_string().contains("\"x\""));
        o.metric("latency_p50_ms", None, "ms");
        assert!(!o.correct(), "a missing metric is not a correct run");
    }

    #[test]
    fn every_paper_scheme_label_parses_as_a_request_scheme() {
        for s in Scheme::PAPER {
            assert_eq!(s.label().parse::<Scheme>(), Ok(s));
        }
    }
}
