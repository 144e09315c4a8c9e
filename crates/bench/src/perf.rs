//! The shared writer behind `BENCH_perf.json`.
//!
//! Several bench targets contribute rows to the same file
//! (`perf_components` for the hot paths, `serve_throughput` for the
//! daemon), so writes are merge-preserving: rows are replaced by `name`
//! and everything else in an existing file is kept. Schema documented in
//! `EXPERIMENTS.md`.

use std::path::{Path, PathBuf};

use serde::{Deserialize, Serialize};

/// One benchmark row.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct PerfEntry {
    /// Benchmark id, group-qualified with `/` where a criterion group is
    /// used.
    pub name: String,
    /// The measured value. Median wall-clock nanoseconds per iteration
    /// when `unit` is absent or `"ns"`; otherwise the value in `unit`
    /// (e.g. requests per second for `"req/s"`).
    pub median_ns: u64,
    /// Timed samples behind the value.
    pub samples: u64,
    /// Unit of `median_ns`; absent means `"ns"` (rows written before the
    /// field existed).
    pub unit: Option<String>,
}

/// The whole report file.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct PerfReport {
    /// Bumped on any incompatible layout change.
    pub schema_version: u32,
    /// `+`-joined list of the bench targets that contributed rows.
    pub generated_by: String,
    /// All rows, in first-written order.
    pub results: Vec<PerfEntry>,
}

/// `BENCH_perf.json` at the repository root.
#[must_use]
pub fn report_path() -> PathBuf {
    PathBuf::from(concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_perf.json"))
}

/// Converts criterion's raw results into rows (nanosecond unit).
#[must_use]
pub fn entries_from_criterion(results: Vec<criterion::BenchResult>) -> Vec<PerfEntry> {
    results
        .into_iter()
        .map(|r| PerfEntry {
            name: r.name,
            median_ns: u64::try_from(r.median_ns).unwrap_or(u64::MAX),
            samples: r.samples as u64,
            unit: Some("ns".to_string()),
        })
        .collect()
}

/// Merges `entries` from bench target `generated_by` into the report at
/// `path`: existing rows with the same `name` are replaced in place, new
/// rows are appended, rows from other targets survive. An unreadable or
/// unparsable existing file is replaced rather than propagated.
///
/// # Errors
///
/// Propagates write failures.
pub fn merge_into_report(
    path: &Path,
    generated_by: &str,
    entries: Vec<PerfEntry>,
) -> std::io::Result<()> {
    let mut report = std::fs::read_to_string(path)
        .ok()
        .and_then(|text| serde_json::from_str::<PerfReport>(&text).ok())
        .unwrap_or_else(|| PerfReport {
            schema_version: 1,
            generated_by: String::new(),
            results: Vec::new(),
        });
    for entry in entries {
        match report.results.iter_mut().find(|e| e.name == entry.name) {
            Some(existing) => *existing = entry,
            None => report.results.push(entry),
        }
    }
    let mut generators: Vec<&str> = report
        .generated_by
        .split('+')
        .filter(|g| !g.is_empty())
        .chain(std::iter::once(generated_by))
        .collect();
    generators.sort_unstable();
    generators.dedup();
    report.generated_by = generators.join("+");
    let text = serde_json::to_string_pretty(&report)
        .map_err(|e| std::io::Error::other(format!("serialize report: {e}")))?;
    std::fs::write(path, text + "\n")
}

/// Reads and parses a report file.
///
/// # Errors
///
/// Propagates read failures; a parse failure maps to
/// [`std::io::ErrorKind::InvalidData`].
pub fn load_report(path: &Path) -> std::io::Result<PerfReport> {
    let text = std::fs::read_to_string(path)?;
    serde_json::from_str(&text).map_err(|e| {
        std::io::Error::new(
            std::io::ErrorKind::InvalidData,
            format!("parse {}: {e}", path.display()),
        )
    })
}

/// Name prefixes of baseline rows the gate lets a run omit. CI re-runs
/// `perf_components`, `fleet_step_throughput` and
/// `episode_step_throughput`, but not `serve_throughput` (it needs 64
/// client threads and a quiet host), so the `serve/*` rows are never
/// re-measured there. Any other baseline row must be produced again.
pub const UNGATED_PREFIXES: &[&str] = &["serve/"];

/// Why a baseline row fails the gate.
#[derive(Debug, Clone, PartialEq)]
pub enum GateFailure {
    /// The row moved past the threshold in its worse direction.
    Regressed(Regression),
    /// A run compared did not produce the row, and no
    /// [`UNGATED_PREFIXES`] entry covers it.
    Missing(String),
}

impl std::fmt::Display for GateFailure {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            GateFailure::Regressed(r) => r.fmt(f),
            GateFailure::Missing(name) => {
                write!(f, "{name}: in the baseline but not produced by every run")
            }
        }
    }
}

/// One tracked metric that moved past the regression threshold.
#[derive(Debug, Clone, PartialEq)]
pub struct Regression {
    /// Benchmark row name.
    pub name: String,
    /// Committed-baseline value.
    pub baseline: u64,
    /// Freshly measured value: the median over the runs compared.
    pub current: u64,
    /// `current / baseline` (so 1.40 = 40 % more ns, or 40 % more req/s).
    pub ratio: f64,
    /// `true` for rate units (`req/s`), where *smaller* is the regression
    /// direction; `false` for latency units (`ns`).
    pub higher_is_better: bool,
}

impl std::fmt::Display for Regression {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let direction = if self.higher_is_better { "slower (rate fell)" } else { "slower" };
        write!(
            f,
            "{}: baseline {} -> current {} ({:+.1}% , {direction})",
            self.name,
            self.baseline,
            self.current,
            (self.ratio - 1.0) * 100.0
        )
    }
}

/// `true` when a row's unit means larger values are better (throughput
/// rates and speedup ratios); `ns` rows, ratio-`x` rows, and legacy
/// unit-less rows are costs, where larger is worse.
#[must_use]
fn unit_higher_is_better(unit: Option<&str>) -> bool {
    matches!(unit, Some("req/s" | "containers/s" | "steps/s" | "speedup"))
}

/// The median of `values`: the middle one for an odd count, the mean of
/// the two middle ones (rounded down) for an even count.
///
/// # Panics
///
/// Panics if `values` is empty.
fn median(values: &mut [u64]) -> u64 {
    assert!(!values.is_empty(), "median of no values");
    values.sort_unstable();
    let mid = values.len() / 2;
    if values.len() % 2 == 1 {
        values[mid]
    } else {
        let (lo, hi) = (values[mid - 1], values[mid]);
        lo + (hi - lo) / 2
    }
}

/// Compares fresh reports — repeated runs of the same benches — against a
/// committed baseline and returns every baseline row that fails: its
/// median over the runs regressed by more than `threshold` (0.25 = 25 %),
/// or a run did not produce it. Gating the median keeps one noisy run on a
/// shared host from flapping the gate.
///
/// Direction-aware: `ns` rows regress when `current > baseline × (1 +
/// threshold)`; rate rows (`req/s`) regress when `current < baseline × (1 -
/// threshold)`. A baseline row missing from any run fails unless an
/// [`UNGATED_PREFIXES`] entry covers it, so a bench that stops running
/// cannot pass unnoticed; retiring a bench means deleting its baseline
/// row. Rows only in the fresh reports (a new bench) pass, as do baseline
/// rows with value 0 (no meaningful ratio).
///
/// # Panics
///
/// Panics if `runs` is empty.
#[must_use]
pub fn compare_reports(
    baseline: &PerfReport,
    runs: &[PerfReport],
    threshold: f64,
) -> Vec<GateFailure> {
    assert!(!runs.is_empty(), "compare_reports needs at least one run");
    let mut failures = Vec::new();
    for base in &baseline.results {
        let mut values: Vec<u64> = runs
            .iter()
            .filter_map(|run| run.results.iter().find(|e| e.name == base.name))
            .map(|e| e.median_ns)
            .collect();
        if values.len() < runs.len() {
            if !UNGATED_PREFIXES.iter().any(|p| base.name.starts_with(p)) {
                failures.push(GateFailure::Missing(base.name.clone()));
            }
            continue;
        }
        if base.median_ns == 0 {
            continue;
        }
        let current = median(&mut values);
        let higher_is_better = unit_higher_is_better(base.unit.as_deref());
        let ratio = current as f64 / base.median_ns as f64;
        let regressed = if higher_is_better {
            ratio < 1.0 - threshold
        } else {
            ratio > 1.0 + threshold
        };
        if regressed {
            failures.push(GateFailure::Regressed(Regression {
                name: base.name.clone(),
                baseline: base.median_ns,
                current,
                ratio,
                higher_is_better,
            }));
        }
    }
    failures
}

#[cfg(test)]
mod tests {
    use super::*;

    fn entry(name: &str, value: u64) -> PerfEntry {
        PerfEntry { name: name.to_string(), median_ns: value, samples: 1, unit: None }
    }

    #[test]
    fn merge_preserves_other_targets_rows() {
        let dir = std::env::temp_dir().join(format!("coolair-perf-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("BENCH_perf.json");
        merge_into_report(&path, "alpha", vec![entry("a", 1), entry("b", 2)]).unwrap();
        merge_into_report(&path, "beta", vec![entry("b", 20), entry("c", 3)]).unwrap();
        let report: PerfReport =
            serde_json::from_str(&std::fs::read_to_string(&path).unwrap()).unwrap();
        assert_eq!(report.generated_by, "alpha+beta");
        let by_name: Vec<(String, u64)> =
            report.results.iter().map(|e| (e.name.clone(), e.median_ns)).collect();
        assert_eq!(
            by_name,
            vec![("a".to_string(), 1), ("b".to_string(), 20), ("c".to_string(), 3)]
        );
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn tolerates_rows_without_a_unit_field() {
        let legacy = r#"{"schema_version":1,"generated_by":"perf_components",
            "results":[{"name":"plant_step_15s","median_ns":125,"samples":30}]}"#;
        let report: PerfReport = serde_json::from_str(legacy).unwrap();
        assert_eq!(report.results[0].unit, None);
    }

    fn report(entries: Vec<PerfEntry>) -> PerfReport {
        PerfReport { schema_version: 1, generated_by: "test".into(), results: entries }
    }

    fn rate_entry(name: &str, value: u64) -> PerfEntry {
        PerfEntry {
            name: name.to_string(),
            median_ns: value,
            samples: 1,
            unit: Some("req/s".to_string()),
        }
    }

    fn regressions(failures: Vec<GateFailure>) -> Vec<Regression> {
        failures
            .into_iter()
            .map(|f| match f {
                GateFailure::Regressed(r) => r,
                GateFailure::Missing(name) => panic!("unexpected missing row {name}"),
            })
            .collect()
    }

    #[test]
    fn compare_flags_latency_regressions_only_past_threshold() {
        let base = report(vec![entry("a", 100), entry("b", 100)]);
        let cur = report(vec![entry("a", 124), entry("b", 126)]);
        let regs = regressions(compare_reports(&base, &[cur], 0.25));
        assert_eq!(regs.len(), 1);
        assert_eq!(regs[0].name, "b");
        assert!(!regs[0].higher_is_better);
        assert!((regs[0].ratio - 1.26).abs() < 1e-9);
    }

    #[test]
    fn compare_is_direction_aware_for_rates() {
        // A rate that *rises* 50% is an improvement; one that falls 30%
        // regresses.
        let base = report(vec![rate_entry("rps_up", 1000), rate_entry("rps_down", 1000)]);
        let cur = report(vec![rate_entry("rps_up", 1500), rate_entry("rps_down", 700)]);
        let regs = regressions(compare_reports(&base, &[cur], 0.25));
        assert_eq!(regs.len(), 1);
        assert_eq!(regs[0].name, "rps_down");
        assert!(regs[0].higher_is_better);
    }

    #[test]
    fn compare_skips_unmatched_and_zero_baseline_rows() {
        // Unmatched on either side: an ungated baseline row, and a row only
        // the current run has.
        let base = report(vec![entry("serve/gone", 100), entry("zero", 0)]);
        let cur = report(vec![entry("new", 1), entry("zero", 999)]);
        assert!(compare_reports(&base, &[cur], 0.25).is_empty());
    }

    #[test]
    fn compare_fails_a_missing_baseline_row_unless_ungated() {
        let base = report(vec![
            entry("kept", 100),
            entry("dropped", 100),
            entry("dropped_zero", 0),
            entry("serve/not_rerun", 100),
        ]);
        let cur = report(vec![entry("kept", 100)]);
        assert_eq!(
            compare_reports(&base, &[cur], 0.25),
            vec![
                GateFailure::Missing("dropped".into()),
                GateFailure::Missing("dropped_zero".into()),
            ]
        );
    }

    #[test]
    fn median_of_an_odd_count_is_the_middle_value() {
        assert_eq!(median(&mut [300, 100, 200]), 200);
        assert_eq!(median(&mut [7]), 7);
    }

    #[test]
    fn median_of_an_even_count_is_the_mean_of_the_middle_two() {
        assert_eq!(median(&mut [400, 100, 300, 200]), 250);
        assert_eq!(median(&mut [3, 4]), 3, "rounded down");
    }

    #[test]
    fn compare_gates_the_median_over_runs() {
        // One noisy run out of three (the flapping the gate must ride out)
        // passes; two slow runs out of three fail at their median.
        let base = report(vec![entry("day", 100), entry("slow", 100)]);
        let runs = [
            report(vec![entry("day", 110), entry("slow", 130)]),
            report(vec![entry("day", 190), entry("slow", 140)]),
            report(vec![entry("day", 120), entry("slow", 90)]),
        ];
        let regs = regressions(compare_reports(&base, &runs, 0.25));
        assert_eq!(regs.len(), 1);
        assert_eq!((regs[0].name.as_str(), regs[0].current), ("slow", 130));
        // An even count gates the mean of the middle two.
        let regs = regressions(compare_reports(&base, &runs[..2], 0.25));
        assert_eq!(regs.len(), 2);
        assert_eq!((regs[0].name.as_str(), regs[0].current), ("day", 150));
    }

    #[test]
    fn compare_fails_a_row_missing_from_one_run() {
        let base = report(vec![entry("kept", 100), entry("flaky", 100)]);
        let runs = [
            report(vec![entry("kept", 100), entry("flaky", 100)]),
            report(vec![entry("kept", 100)]),
            report(vec![entry("kept", 100), entry("flaky", 100)]),
        ];
        assert_eq!(
            compare_reports(&base, &runs, 0.25),
            vec![GateFailure::Missing("flaky".into())]
        );
    }

    #[test]
    fn compare_improvements_never_flagged() {
        let base = report(vec![entry("fast", 1000)]);
        let cur = report(vec![entry("fast", 10)]);
        assert!(compare_reports(&base, &[cur], 0.25).is_empty());
    }
}
