//! The CoolAir end-to-end benchmark.
//!
//! ```text
//! coolair-perfbench --workload <paper_year|served_episodes|campaigns>
//!                   --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Runs one workload in this process, checks its outputs, and prints as
//! the last line of standard output one JSON object with the keys
//! `correct`, `attempted`, `failed` and `metrics`: every end-to-end
//! metric ([`END_TO_END`]) with `--trace 0`, every per-layer metric with
//! `--trace 1`. Progress and the human-readable summary go to standard
//! error. The exit code is 0 only when every operation and check passed.
//! `README.md` describes the workloads, metrics and seeds.

mod campaigns;
mod http;
mod layers;
mod paper_year;
mod report;
mod served;
mod stats;
mod trace;

use std::io::Write as _;
use std::path::PathBuf;

use report::Report;
use trace::Span;

/// Parsed command line.
#[derive(Debug, Clone, PartialEq)]
pub struct RunArgs {
    /// Workload name.
    pub workload: String,
    /// Input seed.
    pub seed: u64,
    /// Minimum length of the timed phase, seconds.
    pub seconds: f64,
    /// Traced pass (per-layer metrics) instead of the untraced one.
    pub trace: bool,
}

/// The workloads, in `BENCHMARK.json` order.
pub const WORKLOADS: &[&str] = &["paper_year", "served_episodes", "campaigns"];

/// The end-to-end metrics as `(name, unit)`, in emission order. Every
/// workload reports every one of them (`README.md`, "End-to-end metrics",
/// defines each per workload).
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("round_s", "s"),
    ("violation_c_min", "C.min"),
    ("energy_kwh", "kWh"),
];

fn parse_args(args: &[String]) -> Result<RunArgs, String> {
    let mut out = RunArgs {
        workload: String::new(),
        seed: 0,
        seconds: 10.0,
        trace: false,
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} wants a value"))?;
        match flag.as_str() {
            "--workload" => out.workload.clone_from(value),
            "--seed" => out.seed = value.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                out.seconds = value.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(out.seconds >= 0.0 && out.seconds.is_finite()) {
                    return Err(format!(
                        "--seconds wants a non-negative number, got {value}"
                    ));
                }
            }
            "--trace" => {
                out.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace wants 0 or 1, got {other}")),
                }
            }
            other => return Err(format!("unknown flag {other}")),
        }
    }
    if !WORKLOADS.contains(&out.workload.as_str()) {
        return Err(format!(
            "--workload wants one of {WORKLOADS:?}, got '{}'",
            out.workload
        ));
    }
    Ok(out)
}

/// Runs one workload.
#[must_use]
pub fn run(args: &RunArgs) -> Report {
    match args.workload.as_str() {
        "paper_year" => paper_year::run(args),
        "served_episodes" => served::run(args),
        "campaigns" => campaigns::run(args),
        other => unreachable!("unvalidated workload {other}"),
    }
}

/// A fresh per-process directory under `.bench_tmp/` in the working
/// directory (the checkout root): no run ever reads another's files.
#[must_use]
pub fn scratch_dir(workload: &str) -> PathBuf {
    let dir = PathBuf::from(".bench_tmp").join(format!("{workload}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// Writes a traced run's spans as JSON lines to
/// `.bench_out/spans-<workload>-<seed>.jsonl` (best effort: a write
/// failure only costs the dump, never the run).
pub fn write_spans(workload: &str, seed: u64, spans: &[Span]) {
    let dir = PathBuf::from(".bench_out");
    let _ = std::fs::create_dir_all(&dir);
    let Ok(file) = std::fs::File::create(dir.join(format!("spans-{workload}-{seed}.jsonl"))) else {
        return;
    };
    let mut w = std::io::BufWriter::new(file);
    for s in spans {
        let _ = writeln!(
            w,
            "{{\"id\":{},\"parent\":{},\"request\":{},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{}}}",
            s.id, s.parent, s.request, s.name, s.start_ns, s.end_ns
        );
    }
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&args) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("coolair-perfbench: {e}");
            std::process::exit(2);
        }
    };
    let report = run(&args);
    for failure in &report.failures {
        eprintln!("FAILED {failure}");
    }
    println!("{}", report.to_json());
    std::process::exit(i32::from(!report.correct()));
}

#[cfg(test)]
mod tests {
    use super::*;
    use layers::PER_LAYER;

    fn strings(v: &[&str]) -> Vec<String> {
        v.iter().map(|s| (*s).to_string()).collect()
    }

    #[test]
    fn args_parse_and_reject_bad_values() {
        let a = parse_args(&strings(&[
            "--workload",
            "campaigns",
            "--seed",
            "3",
            "--seconds",
            "2",
            "--trace",
            "1",
        ]))
        .unwrap();
        assert_eq!(
            a,
            RunArgs {
                workload: "campaigns".into(),
                seed: 3,
                seconds: 2.0,
                trace: true
            }
        );
        assert!(parse_args(&strings(&["--workload", "nope"])).is_err());
        assert!(parse_args(&strings(&["--workload", "campaigns", "--trace", "2"])).is_err());
        assert!(parse_args(&strings(&["--workload", "campaigns", "--seed"])).is_err());
        assert!(parse_args(&strings(&["--workload", "campaigns", "--seconds", "-1"])).is_err());
    }

    fn valid_name(name: &str) -> bool {
        name.len() <= 64
            && name
                .chars()
                .next()
                .is_some_and(|c| c.is_ascii_alphanumeric())
            && name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
    }

    /// `BENCHMARK.json`'s `(section, name, unit)` triples, read with the
    /// program's own JSON parser.
    fn declared() -> Vec<(String, String, String)> {
        let text = include_str!("../../BENCHMARK.json");
        let doc: serde::Value = serde_json::from_str(text).expect("BENCHMARK.json parses");
        let mut out = Vec::new();
        for section in ["end_to_end", "per_layer"] {
            for m in doc
                .get(section)
                .and_then(serde::Value::as_seq)
                .expect("section")
            {
                let field = |k: &str| match m.get(k) {
                    Some(serde::Value::Str(s)) => s.clone(),
                    other => panic!("{section} metric field {k}: {other:?}"),
                };
                out.push((section.to_string(), field("name"), field("unit")));
            }
        }
        let workloads: Vec<String> = doc
            .get("workloads")
            .and_then(serde::Value::as_seq)
            .expect("workloads")
            .iter()
            .map(|w| match w.get("name") {
                Some(serde::Value::Str(s)) => s.clone(),
                other => panic!("workload name {other:?}"),
            })
            .collect();
        assert_eq!(workloads, WORKLOADS);
        out
    }

    #[test]
    fn declared_metrics_match_the_emitters() {
        let declared = declared();
        let e2e: Vec<(String, String)> = declared
            .iter()
            .filter(|d| d.0 == "end_to_end")
            .map(|d| (d.1.clone(), d.2.clone()))
            .collect();
        let layer: Vec<(String, String)> = declared
            .iter()
            .filter(|d| d.0 == "per_layer")
            .map(|d| (d.1.clone(), d.2.clone()))
            .collect();
        let table: Vec<(String, String)> = PER_LAYER
            .iter()
            .map(|(n, u)| ((*n).into(), (*u).into()))
            .collect();
        assert_eq!(
            layer, table,
            "per_layer in BENCHMARK.json vs layers::PER_LAYER"
        );
        let emitted: Vec<(String, String)> = END_TO_END
            .iter()
            .map(|(n, u)| ((*n).into(), (*u).into()))
            .collect();
        assert_eq!(e2e, emitted, "end_to_end in BENCHMARK.json vs END_TO_END");
        for (_, name, _) in &declared {
            assert!(valid_name(name), "bad metric name {name}");
        }
    }

    /// Runs every workload once (one round) in both modes and compares
    /// the emitted names and units with the declarations.
    #[test]
    fn every_workload_emits_exactly_the_declared_metrics() {
        for workload in WORKLOADS {
            for trace in [false, true] {
                let args = RunArgs {
                    workload: (*workload).to_string(),
                    seed: 1,
                    seconds: 0.0,
                    trace,
                };
                let report = run(&args);
                assert!(
                    report.correct(),
                    "{workload} trace={trace}: {:?}",
                    report.failures
                );
                let emitted: Vec<(&str, &str)> = report
                    .metrics
                    .iter()
                    .map(|(n, _, u)| (n.as_str(), *u))
                    .collect();
                let want: Vec<(&str, &str)> = if trace {
                    PER_LAYER.to_vec()
                } else {
                    END_TO_END.to_vec()
                };
                assert_eq!(emitted, want, "{workload} trace={trace}");
                for (name, value, _) in &report.metrics {
                    assert!(valid_name(name), "{name}");
                    assert!(value.is_finite(), "{workload}: {name} = {value}");
                    if !trace {
                        assert!(*value > 0.0, "{workload}: end-to-end {name} reads {value}");
                    }
                }
            }
        }
    }
}
