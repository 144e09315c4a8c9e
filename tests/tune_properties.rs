//! Properties of the robust tuner: determinism under a fixed seed,
//! bit-identical kill/resume through the artifact store, memo accounting,
//! and the headline acceptance claim — on the shipped scenario suite the
//! tuned robust design strictly improves worst-case violation over the
//! paper-nominal design within the +5 % worst-case energy budget.

use std::path::{Path, PathBuf};

use coolair_suite::runner::{Executor, ExecutorConfig, Telemetry};
use coolair_suite::tune::{run_tune_with, TuneOutcome, TuneSpec, KIND_TUNE_EVAL};

fn fresh_dir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join("coolair_tune_props").join(name);
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn run_in_store(spec: &TuneSpec, dir: &Path, resume: bool) -> (TuneOutcome, Telemetry) {
    let telemetry = Telemetry::discard();
    let exec = Executor::new(ExecutorConfig {
        threads: 4,
        store_dir: Some(dir.to_path_buf()),
        resume,
        telemetry: telemetry.clone(),
        ..ExecutorConfig::default()
    })
    .expect("open store");
    (run_tune_with(spec, &exec, &telemetry), telemetry)
}

fn outcome_json(outcome: &TuneOutcome) -> String {
    serde_json::to_string(outcome).expect("outcome serializes")
}

#[test]
fn smoke_tune_is_deterministic_and_counts_memo_traffic() {
    let spec = TuneSpec::smoke(3);
    let telemetry = Telemetry::discard();
    let exec = Executor::in_memory(2, telemetry.clone());
    let a = run_tune_with(&spec, &exec, &telemetry);
    let b = run_tune_with(&spec, &exec, &telemetry);
    assert_eq!(
        outcome_json(&a),
        outcome_json(&b),
        "same spec, same executor → byte-identical outcome"
    );
    assert!(a.memo_hits > 0, "the incumbent is re-scored every round");
    assert!(a.memo_misses > 0, "fresh proposals must be evaluated");
    assert!(
        telemetry.metrics().counter("tune.memo.hit") >= a.memo_hits,
        "memo hits must surface on the metrics registry"
    );
    assert!(telemetry.metrics().counter("tune.memo.miss") >= a.memo_misses);
    assert_eq!(a.spec_digest, spec.digest().to_string());
    assert!(!a.rounds.is_empty());
    assert_eq!(a.table.len(), spec.suite().len());
}

#[test]
fn different_seeds_may_search_differently_but_stay_valid() {
    let telemetry = Telemetry::discard();
    let exec = Executor::in_memory(2, telemetry.clone());
    for seed in [1, 9] {
        let out = run_tune_with(&TuneSpec::smoke(seed), &exec, &telemetry);
        assert!(out.robust.validate().is_ok(), "tuned design must validate");
        assert!(
            out.robust_worst_energy
                <= (1.0 + 0.05) * out.nominal_worst_energy + 1e-6,
            "energy cap must hold on the suite: robust {} vs nominal {}",
            out.robust_worst_energy,
            out.nominal_worst_energy
        );
    }
}

/// The round budget can end right after the adversary added a scenario
/// that breaks the incumbent (smoke seed 46 does). The reported robust
/// design must then fall back to nominal rather than lose to it.
#[test]
fn exhausted_budget_never_reports_a_robust_design_worse_than_nominal() {
    let telemetry = Telemetry::discard();
    let exec = Executor::in_memory(2, telemetry.clone());
    let out = run_tune_with(&TuneSpec::smoke(46), &exec, &telemetry);
    assert!(!out.converged, "seed 46 exhausts its round budget");
    assert!(
        out.robust_worst_violation <= out.nominal_worst_violation,
        "robust worst-case violation {} must not exceed nominal {}",
        out.robust_worst_violation,
        out.nominal_worst_violation
    );
    assert_eq!(out.robust, out.nominal, "the fallback reports the nominal design");
    assert!(out.table.iter().all(|row| row.robust == row.nominal));
}

/// A killed tune resumed against the same artifact store reproduces the
/// incumbent and scenario pool bit for bit. The kill is simulated by
/// copying only a prefix of the first run's evaluation artifacts into a
/// second store — exactly what a mid-run SIGKILL leaves behind.
#[test]
fn partial_store_resume_is_bit_identical() {
    let full_dir = fresh_dir("resume-full");
    let spec = TuneSpec::smoke(5);
    let (full, _) = run_in_store(&spec, &full_dir, false);

    let partial_dir = fresh_dir("resume-partial");
    let src = full_dir.join("artifacts").join(KIND_TUNE_EVAL);
    let dst = partial_dir.join("artifacts").join(KIND_TUNE_EVAL);
    std::fs::create_dir_all(&dst).expect("mkdir partial store");
    let mut names: Vec<String> = std::fs::read_dir(&src)
        .expect("read full store")
        .map(|e| e.expect("entry").file_name().into_string().expect("utf8"))
        .collect();
    names.sort();
    assert!(names.len() >= 4, "smoke tune should persist several evals");
    for name in names.iter().take(names.len() / 2) {
        std::fs::copy(src.join(name), dst.join(name)).expect("copy artifact");
    }

    let (resumed, telemetry) = run_in_store(&spec, &partial_dir, true);
    assert_eq!(
        outcome_json(&full),
        outcome_json(&resumed),
        "resume from a half-populated store must reproduce the outcome bit for bit"
    );
    assert!(
        telemetry.metrics().counter("runner.cache-hit") > 0,
        "the surviving artifacts must actually be served from the store"
    );
}

/// The acceptance claim on the shipped suite (3 climates × 3 fault
/// severities × 2 workload shapes): the tuned robust design's worst-case
/// violation strictly improves on the paper-nominal configuration while
/// spending at most 5 % more worst-case total energy.
#[test]
fn shipped_suite_robust_design_dominates_nominal_worst_case() {
    let dir = fresh_dir("shipped");
    let spec = TuneSpec::shipped(7);
    assert_eq!(spec.candidates.len(), 18, "3 climates × 3 severities × 2 traces");
    let (out, _) = run_in_store(&spec, &dir, false);
    assert!(
        out.robust_worst_violation < out.nominal_worst_violation,
        "robust worst-case violation {} must strictly beat nominal {}",
        out.robust_worst_violation,
        out.nominal_worst_violation
    );
    assert!(
        out.robust_worst_energy <= (1.0 + spec.energy_slack) * out.nominal_worst_energy + 1e-6,
        "robust worst-case energy {} must stay within +5% of nominal {}",
        out.robust_worst_energy,
        out.nominal_worst_energy
    );
    assert!(out.pool.len() >= spec.initial.len(), "pool only grows");
    assert_eq!(out.table.len(), 21, "table covers the full suite");
}
