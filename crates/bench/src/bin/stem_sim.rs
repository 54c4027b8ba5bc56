//! `stem-sim` — the command-line simulator driver.
//!
//! Runs any scheme against a Table 2 benchmark analog or a `STEMTRC1`
//! trace file, with a configurable geometry, and prints the full metric
//! set. The Swiss-army knife for ad-hoc experiments:
//!
//! ```sh
//! stem_sim --scheme stem --bench omnetpp --accesses 1000000
//! stem_sim --scheme sbc --bench ammp --sets 1024 --ways 8
//! stem_sim --scheme lru --trace my.trc --bare       # no L1 in front
//! stem_sim --list                                   # schemes & benchmarks
//! stem_sim --bench mcf --save my.trc --accesses 500000
//! ```

use std::process::ExitCode;

use stem_analysis::{run_system, Scheme};
use stem_bench::engine::RunPlan;
use stem_hierarchy::SystemConfig;
use stem_sim_core::{io as trace_io, CacheGeometry, DecodedTrace, Trace};
use stem_workloads::{spec2010_suite, BenchmarkProfile};

#[derive(Debug)]
struct Args {
    scheme: Scheme,
    bench: Option<String>,
    trace_path: Option<String>,
    save_path: Option<String>,
    sets: usize,
    ways: usize,
    accesses: usize,
    warmup: f64,
    bare: bool,
    list: bool,
}

impl Args {
    fn parse() -> Result<Args, String> {
        let mut args = Args {
            scheme: Scheme::Stem,
            bench: None,
            trace_path: None,
            save_path: None,
            sets: 2048,
            ways: 16,
            accesses: 1_000_000,
            warmup: 0.2,
            bare: false,
            list: false,
        };
        let mut it = std::env::args().skip(1);
        while let Some(flag) = it.next() {
            let mut value = |name: &str| it.next().ok_or_else(|| format!("{name} needs a value"));
            match flag.as_str() {
                "--scheme" => args.scheme = value("--scheme")?.parse()?,
                "--bench" => args.bench = Some(value("--bench")?),
                "--trace" => args.trace_path = Some(value("--trace")?),
                "--save" => args.save_path = Some(value("--save")?),
                "--sets" => {
                    args.sets = value("--sets")?
                        .parse()
                        .map_err(|e| format!("--sets: {e}"))?
                }
                "--ways" => {
                    args.ways = value("--ways")?
                        .parse()
                        .map_err(|e| format!("--ways: {e}"))?
                }
                "--accesses" => {
                    args.accesses = value("--accesses")?
                        .parse()
                        .map_err(|e| format!("--accesses: {e}"))?
                }
                "--warmup" => {
                    args.warmup = value("--warmup")?
                        .parse()
                        .map_err(|e| format!("--warmup: {e}"))?
                }
                "--bare" => args.bare = true,
                "--list" => args.list = true,
                "--help" | "-h" => {
                    return Err(
                        "usage: stem_sim --scheme <name> (--bench <name> | --trace <file>) \
                                [--sets N] [--ways N] [--accesses N] [--warmup F] [--save file] \
                                [--bare] [--list]"
                            .to_owned(),
                    )
                }
                other => return Err(format!("unknown flag {other}; try --help")),
            }
        }
        Ok(args)
    }
}

fn main() -> ExitCode {
    let args = match Args::parse() {
        Ok(a) => a,
        Err(msg) => {
            eprintln!("{msg}");
            return ExitCode::FAILURE;
        }
    };

    if args.list {
        println!("schemes:");
        for s in Scheme::ALL {
            println!("  {s}");
        }
        println!("benchmarks (Table 2 analogs):");
        for b in spec2010_suite() {
            println!("  {:<10} {}", b.name(), b.class());
        }
        return ExitCode::SUCCESS;
    }

    let geom = match CacheGeometry::new(args.sets, args.ways, 64) {
        Ok(g) => g,
        Err(e) => {
            eprintln!("bad geometry: {e}");
            return ExitCode::FAILURE;
        }
    };

    // Obtain the trace: from a file, or from a benchmark analog.
    let trace: Trace = if let Some(path) = &args.trace_path {
        let parsed = std::fs::File::open(path)
            .map_err(stem_sim_core::TraceError::from)
            .and_then(trace_io::read_trace);
        match parsed {
            Ok(t) => t,
            Err(e) => {
                eprintln!("cannot read trace {path}: {e}");
                return ExitCode::FAILURE;
            }
        }
    } else {
        let name = args.bench.as_deref().unwrap_or("omnetpp");
        let Some(bench) = BenchmarkProfile::by_name(name) else {
            eprintln!("unknown benchmark {name:?}; see --list");
            return ExitCode::FAILURE;
        };
        bench.trace(geom, args.accesses)
    };

    if let Some(path) = &args.save_path {
        match std::fs::File::create(path) {
            Ok(f) => {
                if let Err(e) = trace_io::write_trace(f, &trace) {
                    eprintln!("cannot write {path}: {e}");
                    return ExitCode::FAILURE;
                }
                println!("saved {} accesses to {path}", trace.len());
            }
            Err(e) => {
                eprintln!("cannot create {path}: {e}");
                return ExitCode::FAILURE;
            }
        }
    }

    println!(
        "scheme {}  geometry {}x{}x64B ({} KiB)  accesses {}",
        args.scheme,
        geom.sets(),
        geom.ways(),
        geom.capacity_bytes() / 1024,
        trace.len()
    );

    let trace = DecodedTrace::decode(&trace, geom);
    if args.bare {
        let measured = RunPlan::serial(args.scheme, geom, args.warmup)
            .run(&trace)
            .expect("serial replay always succeeds");
        println!("bare LLC: {}", measured.stats);
        println!("MPKI {:.3}", measured.mpki());
    } else {
        let m = run_system(
            args.scheme,
            geom,
            SystemConfig::micro2010(),
            &trace,
            args.warmup,
        );
        println!("{m}");
        println!(
            "cooperation: {} couplings / {} spills / {} coop hits; {} policy swaps",
            m.l2.couplings(),
            m.l2.spills(),
            m.l2.coop_hits(),
            m.l2.policy_swaps()
        );
    }
    ExitCode::SUCCESS
}
