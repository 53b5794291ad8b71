//! `resched-perfbench --workload NAME --seed N --seconds S --trace 0|1`
//!
//! Runs one workload and prints descriptive lines, then one JSON result
//! line: `correct`, `attempted`, `failed` and the end-to-end metrics
//! (`--trace 0`) or the per-layer metrics (`--trace 1`). Exits 1 when a
//! correctness check failed, 2 on a usage or environment error.

use resched_perfbench::bench::{run, Places, RunSpec, Sizes, Workload};
use resched_perfbench::{env, reference};
use std::path::Path;
use std::process::ExitCode;

fn usage(msg: &str) -> ExitCode {
    let names: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
    eprintln!(
        "{msg}\nusage: resched-perfbench --workload {} --seed N --seconds S --trace 0|1",
        names.join("|")
    );
    ExitCode::from(2)
}

fn main() -> ExitCode {
    let bad = env::violations(|v| std::env::var_os(v).is_some());
    if !bad.is_empty() {
        eprintln!("refusing to run with {bad:?} set: the benchmark measures the shipped defaults");
        return ExitCode::from(2);
    }
    let mut args = std::env::args().skip(1).peekable();
    if args.peek().map(String::as_str) == Some("--reference-block") {
        // A host-speed reference block, run as a child of a benchmark run.
        let threads = args.nth(1).and_then(|t| t.parse::<usize>().ok());
        let Some(threads) = threads.filter(|t| (1..=64).contains(t)) else {
            return usage("--reference-block needs a thread count");
        };
        println!("{:?}", reference::block(threads));
        return ExitCode::SUCCESS;
    }
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    while let Some(flag) = args.next() {
        let Some(value) = args.next() else {
            return usage(&format!("{flag} needs a value"));
        };
        match flag.as_str() {
            "--workload" => workload = Workload::parse(&value),
            "--seed" => seed = value.parse::<u64>().ok(),
            "--seconds" => {
                seconds = value
                    .parse::<f64>()
                    .ok()
                    .filter(|s| *s > 0.0 && s.is_finite())
            }
            "--trace" => {
                trace = match value.as_str() {
                    "0" => Some(false),
                    "1" => Some(true),
                    _ => None,
                }
            }
            _ => return usage(&format!("unknown flag {flag}")),
        }
    }
    let (Some(workload), Some(seed), Some(seconds), Some(trace)) = (workload, seed, seconds, trace)
    else {
        return usage("missing or malformed argument");
    };
    let spec = RunSpec {
        workload,
        seed,
        seconds,
        trace,
        sizes: Sizes::BENCH,
    };
    let exe = std::env::current_exe().ok();
    let places = Places {
        trace_dir: Some(Path::new("perfbench/traces")),
        exe: exe.as_deref(),
    };
    let out = run(&spec, places);
    for note in &out.notes {
        println!("# {note}");
    }
    for e in &out.errors {
        eprintln!("check failed: {e}");
    }
    println!("{}", out.json(trace));
    if out.correct() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
