//! End-to-end acceptance tests for the deterministic parallel executor:
//! the `run_all` driver must produce byte-identical stdout and CSVs at
//! any `STEM_THREADS`, and an injected panic in one (benchmark, scheme)
//! cell must fail only that cell while every other table still prints.
//!
//! These drive the real binary (debug profile) with tiny trace lengths.

use std::path::PathBuf;
use std::process::{Command, Output};

use stem_sim_core::Json;

/// A scratch directory unique to this test process.
fn scratch(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("stem-run-all-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("creating the scratch dir");
    dir
}

/// Runs the `run_all` binary with tiny workloads, a fixed thread count,
/// and a CSV directory; extra env pairs come last.
fn run_all(threads: &str, csv_dir: &PathBuf, extra: &[(&str, &str)]) -> Output {
    let mut cmd = Command::new(env!("CARGO_BIN_EXE_run_all"));
    cmd.env_remove("STEM_INJECT_PANIC")
        .env("STEM_THREADS", threads)
        .env("STEM_ACCESSES", "3000")
        .env("STEM_SWEEP_ACCESSES", "600")
        .env("STEM_PERIODS", "1")
        .env("STEM_CSV_DIR", csv_dir);
    for (k, v) in extra {
        cmd.env(k, v);
    }
    cmd.output().expect("running the run_all binary")
}

#[test]
fn run_all_is_byte_identical_across_thread_counts() {
    let dir_serial = scratch("serial");
    let dir_parallel = scratch("parallel");
    let serial = run_all("1", &dir_serial, &[]);
    let parallel = run_all("5", &dir_parallel, &[]);

    assert!(
        serial.status.success(),
        "serial run failed: {}",
        String::from_utf8_lossy(&serial.stderr)
    );
    assert!(
        parallel.status.success(),
        "parallel run failed: {}",
        String::from_utf8_lossy(&parallel.stderr)
    );
    assert_eq!(
        serial.stdout, parallel.stdout,
        "stdout must be byte-identical between STEM_THREADS=1 and STEM_THREADS=5"
    );
    assert!(!serial.stdout.is_empty(), "run_all printed nothing");

    // Every CSV must match byte-for-byte, and both runs must emit the
    // same file set plus the wall-clock summary JSON.
    let csvs = |dir: &PathBuf| -> Vec<String> {
        let mut names: Vec<String> = std::fs::read_dir(dir)
            .expect("reading the CSV dir")
            .map(|e| e.expect("dir entry").file_name().into_string().unwrap())
            .filter(|n| n.ends_with(".csv"))
            .collect();
        names.sort();
        names
    };
    let names = csvs(&dir_serial);
    assert_eq!(names, csvs(&dir_parallel));
    assert!(
        names.contains(&"fig7_mpki.csv".to_owned()),
        "expected the matrix CSVs, got {names:?}"
    );
    for name in &names {
        let a = std::fs::read(dir_serial.join(name)).expect("serial CSV");
        let b = std::fs::read(dir_parallel.join(name)).expect("parallel CSV");
        assert_eq!(a, b, "{name} differs between thread counts");
    }
    // The summary's schema is what the repo benchmark's reproduce
    // workload reads: exactly these top-level keys, numeric threads and
    // totals, numeric stages, and one {name, elapsed_secs, status} record
    // per cell.
    for dir in [&dir_serial, &dir_parallel] {
        let text = std::fs::read_to_string(dir.join("BENCH_run_all.json"))
            .expect("the wall-clock summary JSON");
        let doc = Json::parse(&text).expect("BENCH_run_all.json parses");
        let keys: Vec<&str> = doc
            .as_obj()
            .expect("a top-level object")
            .iter()
            .map(|(k, _)| k.as_str())
            .collect();
        assert_eq!(
            keys,
            ["threads", "total_cell_seconds", "stages", "experiments"]
        );
        assert!(doc.get("threads").and_then(Json::as_f64).is_some());
        assert!(doc
            .get("total_cell_seconds")
            .and_then(Json::as_f64)
            .is_some());
        let stages = doc.get("stages").and_then(Json::as_obj).expect("stages");
        assert!(stages.iter().all(|(_, v)| v.as_f64().is_some()));
        let cells = doc
            .get("experiments")
            .and_then(Json::as_arr)
            .expect("experiments");
        for cell in cells {
            assert_eq!(cell.get("status").and_then(Json::as_str), Some("ok"));
            assert!(cell.get("elapsed_secs").and_then(Json::as_f64).is_some());
        }
        assert!(cells
            .iter()
            .any(|c| c.get("name").and_then(Json::as_str) == Some("matrix/omnetpp/STEM")));
    }

    let _ = std::fs::remove_dir_all(&dir_serial);
    let _ = std::fs::remove_dir_all(&dir_parallel);
}

#[test]
fn injected_cell_panic_fails_only_that_cell() {
    let dir = scratch("inject");
    let out = run_all("3", &dir, &[("STEM_INJECT_PANIC", "matrix/omnetpp/STEM")]);
    let stdout = String::from_utf8_lossy(&out.stdout);
    let stderr = String::from_utf8_lossy(&out.stderr);

    assert!(
        !out.status.success(),
        "a failed cell must make run_all exit nonzero"
    );
    assert!(
        stderr.contains("matrix/omnetpp/STEM"),
        "the failure report names the broken cell:\n{stderr}"
    );
    assert!(
        stderr.contains("injected panic"),
        "the failure reason is preserved:\n{stderr}"
    );

    // Only omnetpp's row is gone; everything else still printed.
    let table2 = stdout
        .split("## Table 2")
        .nth(1)
        .and_then(|rest| rest.split("## Fig. 7").next())
        .expect("Table 2 still prints");
    assert!(
        table2.contains("ammp"),
        "other benchmarks survive:\n{table2}"
    );
    assert!(
        !table2.contains("omnetpp"),
        "the broken benchmark's row is dropped:\n{table2}"
    );
    assert!(
        stdout.contains("## Fig. 3/10 (omnetpp)"),
        "sweeps unaffected"
    );
    assert!(stdout.contains("## Table 3"), "overhead table unaffected");

    let _ = std::fs::remove_dir_all(&dir);
}
