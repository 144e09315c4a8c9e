//! The CI perf-regression gate.
//!
//! Usage: `perf-gate <baseline.json> <current.json>... [--threshold T]`
//!
//! Compares freshly generated `BENCH_perf.json` reports — one per repeated
//! run of the same benches — against the committed baseline and exits
//! non-zero if any tracked metric's median over the runs regressed by more
//! than `T` (default 0.25 = 25 %), or if a baseline row is missing from any
//! run (rows under `perf::UNGATED_PREFIXES` excepted). Direction-aware:
//! `ns` rows fail when slower, `req/s` rows fail when the rate falls. New
//! rows and rows that improved never fail the gate. See EXPERIMENTS.md for
//! the schema and how to re-baseline after an intentional perf change.

use std::path::Path;
use std::process::ExitCode;

use coolair_bench::perf::{compare_reports, load_report, PerfReport};

const USAGE: &str = "usage: perf-gate <baseline.json> <current.json>... [--threshold T]";

/// The baseline path, the current-run paths and the threshold.
fn parse_args(args: &[String]) -> Result<(&str, Vec<&str>, f64), String> {
    let mut paths = Vec::new();
    let mut threshold = 0.25;
    let mut rest = args.iter();
    while let Some(arg) = rest.next() {
        if arg == "--threshold" {
            let raw = rest.next().ok_or("--threshold needs a value")?;
            threshold = match raw.parse() {
                Ok(t) if (0.0..10.0).contains(&t) => t,
                _ => return Err(format!("threshold must be a number in [0, 10), got {raw:?}")),
            };
        } else {
            paths.push(arg.as_str());
        }
    }
    match paths.split_first() {
        Some((baseline, runs)) if !runs.is_empty() => Ok((baseline, runs.to_vec(), threshold)),
        _ => Err("need a baseline and at least one current report".to_string()),
    }
}

fn load(kind: &str, path: &str) -> Result<PerfReport, ExitCode> {
    load_report(Path::new(path)).map_err(|e| {
        eprintln!("perf-gate: cannot load {kind} {path}: {e}");
        ExitCode::from(2)
    })
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let (baseline_path, run_paths, threshold) = match parse_args(&args) {
        Ok(parsed) => parsed,
        Err(e) => {
            eprintln!("perf-gate: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let baseline = match load("baseline", baseline_path) {
        Ok(r) => r,
        Err(code) => return code,
    };
    let mut runs = Vec::with_capacity(run_paths.len());
    for path in run_paths {
        match load("current", path) {
            Ok(r) => runs.push(r),
            Err(code) => return code,
        }
    }

    let tracked = baseline
        .results
        .iter()
        .filter(|b| runs.iter().all(|run| run.results.iter().any(|c| c.name == b.name)))
        .count();
    let failures = compare_reports(&baseline, &runs, threshold);
    println!(
        "perf-gate: {tracked} tracked metric(s), median of {} run(s), threshold {:.0}%",
        runs.len(),
        threshold * 100.0
    );
    if failures.is_empty() {
        println!("perf-gate: OK — no metric regressed past the threshold or went missing");
        return ExitCode::SUCCESS;
    }
    eprintln!("perf-gate: FAIL — {} metric(s) regressed or missing:", failures.len());
    for f in &failures {
        eprintln!("  {f}");
    }
    eprintln!(
        "perf-gate: if the slowdown is intentional, re-baseline per EXPERIMENTS.md \
         (re-run the benches and commit the refreshed BENCH_perf.json)"
    );
    ExitCode::FAILURE
}
