//! The `reproduce` workload: the `run_all` binary at archive scale.

use std::io::{BufRead, BufReader, Read};
use std::path::Path;
use std::process::{Command, Stdio};
use std::sync::mpsc;
use std::thread;
use std::time::Instant;

use stem::sim_core::Json;

use crate::client::{clean_command, RssPoller};
use crate::layers::Probe;
use crate::stats::{median, nearest_rank, tail, tail_at};
use crate::{Ctx, Outcome};

/// Accesses per sweep point at archive scale (the committed
/// `run_all_output.txt` was produced with this value).
const ARCHIVE_SWEEP_ACCESSES: usize = 800_000;

/// The `STEM_*` settings of a full or smoke run.
fn scale(smoke: bool) -> Vec<(&'static str, String)> {
    if smoke {
        vec![
            ("STEM_ACCESSES", "20000".into()),
            ("STEM_SWEEP_ACCESSES", "20000".into()),
            ("STEM_PERIODS", "2".into()),
        ]
    } else {
        vec![("STEM_SWEEP_ACCESSES", ARCHIVE_SWEEP_ACCESSES.to_string())]
    }
}

fn command(ctx: &Ctx) -> Command {
    let mut cmd = clean_command(&ctx.bin("run_all"));
    cmd.env("STEM_THREADS", ctx.threads.to_string())
        .stdin(Stdio::null());
    for (k, v) in scale(ctx.smoke) {
        cmd.env(k, v);
    }
    cmd
}

/// Seconds from spawn until `run_all` writes its first stderr line; the
/// process is then stopped.
fn setup_probe(ctx: &Ctx) -> Result<f64, String> {
    let t0 = Instant::now();
    let mut child = command(ctx)
        .stdout(Stdio::null())
        .stderr(Stdio::piped())
        .spawn()
        .map_err(|e| format!("cannot spawn run_all: {e}"))?;
    let mut line = String::new();
    let read = BufReader::new(child.stderr.take().expect("stderr is piped")).read_line(&mut line);
    let secs = t0.elapsed().as_secs_f64();
    let _ = child.kill();
    let _ = child.wait();
    match read {
        Ok(n) if n > 0 => Ok(secs),
        _ => Err("run_all wrote no stderr line".into()),
    }
}

/// Runs the workload; `traced` times the layers on the sweep inputs
/// instead of running `run_all`.
pub fn run(ctx: &Ctx) -> Result<Outcome, String> {
    let mut out = Outcome::new("reproduce");
    if ctx.traced {
        let mut probe = Probe::new(true, None);
        let accesses = if ctx.smoke {
            20_000
        } else {
            ARCHIVE_SWEEP_ACCESSES
        };
        probe.sweep_reproduce(
            &["omnetpp", "ammp"],
            accesses,
            crate::inputs::WARMUP_FRACTION,
        );
        // The sweep's snapshot checks are this run's attempts.
        out.attempted = probe.checks as u64;
        out.absorb_probe(&probe);
        out.finish_traced(probe);
        return Ok(out);
    }

    let mut setup = Vec::new();
    for _ in 0..crate::SETUP_PROBES {
        setup.push(setup_probe(ctx)?);
    }

    let csv_dir = ctx.out_dir.join("reproduce-csv");
    let _ = std::fs::remove_dir_all(&csv_dir);
    let t0 = Instant::now();
    let mut child = command(ctx)
        .env("STEM_CSV_DIR", &csv_dir)
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .map_err(|e| format!("cannot spawn run_all: {e}"))?;
    let poller = RssPoller::start(child.id());
    let mut stdout = child.stdout.take().expect("stdout is piped");
    let stderr = child.stderr.take().expect("stderr is piped");
    let (first_tx, first_rx) = mpsc::channel();
    let stderr_reader = thread::spawn(move || {
        let mut all = String::new();
        for line in BufReader::new(stderr).lines().map_while(Result::ok) {
            if all.is_empty() {
                let _ = first_tx.send(t0.elapsed().as_secs_f64());
            }
            all.push_str(&line);
            all.push('\n');
        }
        all
    });
    let mut stdout_bytes = Vec::new();
    let read = stdout.read_to_end(&mut stdout_bytes);
    let status = child
        .wait()
        .map_err(|e| format!("waiting for run_all: {e}"))?;
    let wall = t0.elapsed().as_secs_f64();
    let peak_rss = poller.stop();
    let stderr_text = stderr_reader.join().expect("stderr reader");
    if let Ok(first) = first_rx.try_recv() {
        setup.push(first);
    }
    read.map_err(|e| format!("reading run_all stdout: {e}"))?;

    // Output checks.
    out.check(status.success(), || format!("run_all exited with {status}"));
    out.check(stderr_text.contains("experiments completed"), || {
        "run_all did not report completing every experiment".into()
    });
    check_stdout(ctx, &stdout_bytes, &mut out);

    let doc = std::fs::read_to_string(csv_dir.join("BENCH_run_all.json"))
        .ok()
        .and_then(|t| Json::parse(&t).ok())
        .ok_or("run_all wrote no readable BENCH_run_all.json")?;
    let cells = doc
        .get("experiments")
        .and_then(Json::as_arr)
        .ok_or("no experiments")?;
    let mut cell_ms = Vec::with_capacity(cells.len());
    for cell in cells {
        let ok = cell.get("status").and_then(Json::as_str) == Some("ok");
        out.attempt(ok, || format!("cell {:?} failed", cell.get("name")));
        cell_ms.push(
            cell.get("elapsed_secs")
                .and_then(Json::as_f64)
                .unwrap_or(0.0)
                * 1e3,
        );
    }
    let total_cell = doc
        .get("total_cell_seconds")
        .and_then(Json::as_f64)
        .unwrap_or(0.0);
    let threads = doc.get("threads").and_then(Json::as_f64).unwrap_or(1.0);

    let mut probe = Probe::new(false, None);
    let errors = crate::layers::reference_sampled_errors(&mut probe, ctx.smoke);
    out.absorb_probe(&probe);

    out.metric("setup_s", median(&setup), "s");
    out.metric("wall_s", Some(wall), "s");
    out.metric("req_per_s", Some(cells.len() as f64 / wall), "1/s");
    out.metric("latency_p50_ms", nearest_rank(&cell_ms, 50.0), "ms");
    let tail = tail(&cell_ms);
    out.metric("latency_tail_ms", tail.map(|t| t.0), "ms");
    out.metric("peak_rss_mb", peak_rss, "MB");
    out.metric("sampled_mpki_rel_err", median(&errors), "fraction");

    out.extra("latency_samples", cell_ms.len() as f64, "count");
    out.extra_opt("latency_tail_percentile", tail.map(|t| t.1), "%");
    let ten_beyond = tail_at(&cell_ms, 99.0);
    out.extra_opt("latency_ten_beyond_ms", ten_beyond.map(|t| t.0), "ms");
    out.extra_opt(
        "latency_ten_beyond_percentile",
        ten_beyond.map(|t| t.1),
        "%",
    );
    out.extra("setup_samples", setup.len() as f64, "count");
    out.extra(
        "bench.pool_utilization",
        total_cell / (wall * threads),
        "fraction",
    );
    out.extra("bench.total_cell_seconds", total_cell, "s");
    if let Some(stages) = doc.get("stages").and_then(Json::as_obj) {
        for (name, v) in stages {
            if let Some(v) = v.as_f64() {
                out.extra(&format!("bench.stage.{name}"), v, "s");
            }
        }
    }
    out.extra("sampled_estimates", errors.len() as f64, "count");
    Ok(out)
}

/// Full runs must reproduce the committed archive byte for byte; smoke
/// runs must match the pinned FNV-64 digest.
fn check_stdout(ctx: &Ctx, stdout: &[u8], out: &mut Outcome) {
    if ctx.smoke {
        let pinned = std::fs::read_to_string(Path::new("benchmark/expected/reproduce-smoke.fnv64"))
            .unwrap_or_default();
        let digest = format!("{:016x}", stem_serve::fnv1a64(stdout));
        out.check(pinned.trim() == digest, || {
            format!(
                "smoke stdout digest {digest} differs from the pinned {}",
                pinned.trim()
            )
        });
    } else {
        let archive = std::fs::read("run_all_output.txt").unwrap_or_default();
        out.check(!archive.is_empty() && archive == stdout, || {
            "run_all stdout differs from run_all_output.txt".into()
        });
    }
}
