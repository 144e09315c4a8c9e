//! The CI perf-regression gate.
//!
//! Usage: `perf-gate <baseline.json> <current.json> [threshold]`
//!
//! Compares a freshly generated `BENCH_perf.json` against the committed
//! baseline and exits non-zero if any tracked metric regressed by more
//! than `threshold` (default 0.25 = 25 %), or if a baseline row is
//! missing from the fresh report (rows under `perf::UNGATED_PREFIXES`
//! excepted). Direction-aware: `ns` rows fail when slower, `req/s` rows
//! fail when the rate falls. New rows and rows that improved never fail
//! the gate. See EXPERIMENTS.md for the schema and how to re-baseline
//! after an intentional perf change.

use std::path::Path;
use std::process::ExitCode;

use coolair_bench::perf::{compare_reports, load_report};

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().collect();
    let (baseline_path, current_path) = match (args.get(1), args.get(2)) {
        (Some(b), Some(c)) => (b, c),
        _ => {
            eprintln!("usage: perf-gate <baseline.json> <current.json> [threshold]");
            return ExitCode::from(2);
        }
    };
    let threshold: f64 = match args.get(3) {
        Some(raw) => match raw.parse() {
            Ok(t) if (0.0..10.0).contains(&t) => t,
            _ => {
                eprintln!("perf-gate: threshold must be a number in [0, 10), got {raw:?}");
                return ExitCode::from(2);
            }
        },
        None => 0.25,
    };

    let baseline = match load_report(Path::new(baseline_path)) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("perf-gate: cannot load baseline {baseline_path}: {e}");
            return ExitCode::from(2);
        }
    };
    let current = match load_report(Path::new(current_path)) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("perf-gate: cannot load current {current_path}: {e}");
            return ExitCode::from(2);
        }
    };

    let tracked = baseline
        .results
        .iter()
        .filter(|b| current.results.iter().any(|c| c.name == b.name))
        .count();
    let failures = compare_reports(&baseline, &current, threshold);
    println!(
        "perf-gate: {tracked} tracked metric(s), threshold {:.0}%",
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
