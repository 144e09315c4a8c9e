//! The adversarial scenario-decomposition loop.
//!
//! The idiom is classic robust optimization by constraint generation: keep
//! a small *active* scenario set, tune the design against it, then let an
//! adversary search the full scenario suite for the scenario that most
//! breaks the tuned incumbent. If one exists, it joins the active set and
//! tuning repeats; if none does, the incumbent is worst-case robust over
//! the whole suite and the loop has converged. Every `(design, scenario)`
//! evaluation is memoized twice — in-process for repeated probes (a
//! [`coolair_runner::Memo`] keyed by the evaluation's job digest), and in
//! the content-addressed artifact store for killed-and-resumed runs.

use coolair::{CoolingModel, DesignVector, KNOBS, KNOB_COUNT};
use coolair_runner::{Digest, Executor, Job, Memo, SplitMix64};
use coolair_sim::jobs::TrainJob;
use coolair_sim::Scenario;
use coolair_telemetry::{Event, Telemetry};
use serde::{Deserialize, Serialize};

use crate::eval::{EvalJob, EvalOutcome};
use crate::spec::TuneSpec;

/// Float comparisons treat differences below this as ties, so the loop
/// cannot churn on last-bit noise.
const EPS: f64 = 1e-9;

/// One decomposition round's log entry.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RoundLog {
    /// Round index (0-based).
    pub round: u64,
    /// Active-pool size after the round.
    pub pool_size: u64,
    /// Incumbent's worst-case violation over the pool, °C·min.
    pub worst_violation: f64,
    /// Incumbent's worst-case total energy over the pool, kWh.
    pub worst_energy: f64,
    /// Local-search proposals accepted this round.
    pub accepted: u64,
    /// Label of the scenario the adversary added (empty on convergence).
    pub added: String,
}

/// One row of the robust-vs-nominal table: both designs evaluated on one
/// suite scenario.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ScenarioReport {
    /// Scenario label.
    pub label: String,
    /// Scenario content digest (16 hex digits).
    pub scenario_digest: String,
    /// The nominal (paper-default) design's outcome.
    pub nominal: EvalOutcome,
    /// The tuned robust design's outcome.
    pub robust: EvalOutcome,
}

/// The tune run's full result artifact.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TuneOutcome {
    /// Digest of the [`TuneSpec`] that produced this outcome (16 hex
    /// digits — also the report's artifact key).
    pub spec_digest: String,
    /// The spec's master seed.
    pub seed: u64,
    /// Decomposition rounds executed.
    pub rounds_run: u64,
    /// Whether the adversary ran out of breaking scenarios before the
    /// round budget did.
    pub converged: bool,
    /// The paper-default design the search started from.
    pub nominal: DesignVector,
    /// The tuned worst-case-robust design.
    pub robust: DesignVector,
    /// Labels of the final active scenario pool.
    pub pool: Vec<String>,
    /// Digests of the final active scenario pool (16 hex digits each).
    pub pool_digests: Vec<String>,
    /// Per-round log.
    pub rounds: Vec<RoundLog>,
    /// Robust-vs-nominal outcomes over the full suite, in suite order.
    pub table: Vec<ScenarioReport>,
    /// Nominal design's worst-case violation over the suite, °C·min.
    pub nominal_worst_violation: f64,
    /// Robust design's worst-case violation over the suite, °C·min.
    pub robust_worst_violation: f64,
    /// Nominal design's worst-case total energy over the suite, kWh.
    pub nominal_worst_energy: f64,
    /// Robust design's worst-case total energy over the suite, kWh.
    pub robust_worst_energy: f64,
    /// In-process memo hits over the run.
    pub memo_hits: u64,
    /// In-process memo misses (evaluations that went to the executor,
    /// where the artifact store may still have served them).
    pub memo_misses: u64,
}

/// The robust objective: feasibility-first lexicographic order over
/// (energy-cap excess, worst violation, mean violation, worst energy).
#[derive(Debug, Clone, Copy, PartialEq)]
struct Score {
    over_cap: f64,
    worst_violation: f64,
    mean_violation: f64,
    worst_energy: f64,
}

/// The largest violation over a set of evaluations, °C·min.
fn worst_violation(evals: &[EvalOutcome]) -> f64 {
    evals.iter().map(|e| e.violation_cmin).fold(0.0_f64, f64::max)
}

impl Score {
    fn of(evals: &[EvalOutcome], cap: f64) -> Self {
        let worst_violation = worst_violation(evals);
        let mean_violation = if evals.is_empty() {
            0.0
        } else {
            evals.iter().map(|e| e.violation_cmin).sum::<f64>() / evals.len() as f64
        };
        let worst_energy = evals.iter().map(EvalOutcome::total_kwh).fold(0.0_f64, f64::max);
        Score {
            over_cap: (worst_energy - cap).max(0.0),
            worst_violation,
            mean_violation,
            worst_energy,
        }
    }

    /// Strict lexicographic improvement: the first component that differs
    /// by more than [`EPS`] decides; all-ties is not an improvement.
    fn better_than(&self, other: &Score) -> bool {
        for (a, b) in [
            (self.over_cap, other.over_cap),
            (self.worst_violation, other.worst_violation),
            (self.mean_violation, other.mean_violation),
            (self.worst_energy, other.worst_energy),
        ] {
            if a < b - EPS {
                return true;
            }
            if a > b + EPS {
                return false;
            }
        }
        false
    }
}

/// The evaluation memo + executor front-end shared by the search and the
/// adversary.
struct Tuner<'a> {
    spec: &'a TuneSpec,
    exec: &'a Executor,
    telemetry: &'a Telemetry,
    memo: Memo<EvalOutcome>,
    models: Memo<CoolingModel>,
}

/// The training spec a scenario's evaluation depends on: the base budget
/// with the scenario's weather year.
fn train_job(spec: &TuneSpec, scenario: &Scenario) -> TrainJob {
    let mut annual = spec.annual.clone();
    annual.weather_seed = scenario.weather_seed;
    TrainJob { location: scenario.location.clone(), annual }
}

impl<'a> Tuner<'a> {
    fn new(spec: &'a TuneSpec, exec: &'a Executor, telemetry: &'a Telemetry) -> Self {
        Tuner { spec, exec, telemetry, memo: Memo::new("tune"), models: Memo::new("tune.model") }
    }

    /// Evaluates one design against a scenario list, in order, through the
    /// two memo layers (in-process memo, then the executor's artifact
    /// store). Only missed evaluations need their Cooling Models, which
    /// are trained (or loaded from the store) in one batch first.
    fn evaluate(&mut self, design: &DesignVector, scenarios: &[Scenario]) -> Vec<EvalOutcome> {
        let (spec, exec, telemetry) = (self.spec, self.exec, self.telemetry);
        let digests: Vec<Digest> = scenarios
            .iter()
            .map(|sc| EvalJob::digest_for(design, sc, spec.version, &spec.annual))
            .collect();
        let models = &mut self.models;
        self.memo.get_or_run(exec, telemetry, &digests, |slots| {
            let train: Vec<TrainJob> =
                slots.iter().map(|&i| train_job(spec, &scenarios[i])).collect();
            let train_digests: Vec<Digest> = train.iter().map(Job::digest).collect();
            let trained = models.get_or_run(exec, telemetry, &train_digests, |first| {
                first.iter().map(|&k| train[k].clone()).collect()
            });
            slots
                .iter()
                .zip(trained)
                .map(|(&i, model)| EvalJob {
                    design: design.clone(),
                    scenario: scenarios[i].clone(),
                    version: spec.version,
                    annual: spec.annual.clone(),
                    model: Some(model),
                })
                .collect()
        })
    }

    fn score(&mut self, design: &DesignVector, pool: &[Scenario], cap: f64) -> Score {
        let evals = self.evaluate(design, pool);
        Score::of(&evals, cap)
    }

    /// One round of seeded randomized local search over the knob table.
    fn local_search(
        &mut self,
        incumbent: &DesignVector,
        pool: &[Scenario],
        cap: f64,
        round: u64,
    ) -> (DesignVector, Score, u64) {
        let mut rng =
            SplitMix64::new(self.spec.seed ^ round.wrapping_mul(0x9E37_79B9_7F4A_7C15));
        let mut best = incumbent.clone();
        let mut best_score = self.score(&best, pool, cap);
        let mut accepted = 0_u64;
        for _ in 0..self.spec.iters {
            let knob = rng.below(KNOB_COUNT);
            let sign = if rng.next_u64() & 1 == 0 { 1.0 } else { -1.0 };
            let frac = [0.05, 0.15, 0.4][rng.below(3)];
            let k = &KNOBS[knob];
            let mut delta = sign * frac * (k.hi - k.lo);
            if k.integer && delta.abs() < 1.0 {
                delta = sign;
            }
            let candidate = best.with_knob(knob, best.get(knob) + delta);
            if candidate == best || candidate.validate().is_err() {
                continue;
            }
            let s = self.score(&candidate, pool, cap);
            if s.better_than(&best_score) {
                best = candidate;
                best_score = s;
                accepted += 1;
                self.telemetry.counter_add("tune.search.accepted", 1);
            }
        }
        (best, best_score, accepted)
    }

    /// The adversary: evaluates the incumbent against candidate scenarios
    /// outside the pool and returns the one that most breaks it — first by
    /// violation beyond the pool's worst, then by energy beyond the cap.
    /// `None` means no candidate breaks the incumbent: convergence.
    fn adversary(
        &mut self,
        incumbent: &DesignVector,
        pool: &[Scenario],
        cap: f64,
        pool_worst_violation: f64,
        round: u64,
    ) -> Option<Scenario> {
        let in_pool: Vec<Digest> = pool.iter().map(Scenario::digest).collect();
        let mut probes: Vec<Scenario> = self
            .spec
            .candidates
            .iter()
            .filter(|sc| !in_pool.contains(&sc.digest()))
            .cloned()
            .collect();
        if self.spec.sample > 0 && probes.len() > self.spec.sample {
            // Seeded partial Fisher-Yates: the first `sample` slots become
            // the deterministic probe subset.
            let mut rng = SplitMix64::new(
                self.spec.seed ^ 0xADBE_EF00 ^ round.wrapping_mul(0x94D0_49BB_1331_11EB),
            );
            for i in 0..self.spec.sample {
                let j = i + rng.below(probes.len() - i);
                probes.swap(i, j);
            }
            probes.truncate(self.spec.sample);
        }
        if probes.is_empty() {
            return None;
        }
        let evals = self.evaluate(incumbent, &probes);
        let mut violation_break: Option<(usize, f64)> = None;
        let mut energy_break: Option<(usize, f64)> = None;
        for (i, e) in evals.iter().enumerate() {
            if e.violation_cmin > pool_worst_violation + EPS
                && violation_break.is_none_or(|(_, v)| e.violation_cmin > v + EPS)
            {
                violation_break = Some((i, e.violation_cmin));
            }
            if e.total_kwh() > cap + EPS
                && energy_break.is_none_or(|(_, v)| e.total_kwh() > v + EPS)
            {
                energy_break = Some((i, e.total_kwh()));
            }
        }
        violation_break.or(energy_break).map(|(i, _)| probes[i].clone())
    }
}

/// Runs the full robust tune: nominal baseline over the suite, the
/// decomposition loop, and the final robust-vs-nominal table.
///
/// Deterministic: the outcome is a pure function of the spec. Running
/// against a store-backed executor memoizes every evaluation, so a killed
/// run resumed against the same store reproduces the incumbent and pool
/// bit for bit.
///
/// # Panics
///
/// Panics when the spec fails [`TuneSpec::validate`] or an evaluation
/// exhausts the executor's retry budget.
#[must_use]
pub fn run_tune_with(spec: &TuneSpec, exec: &Executor, telemetry: &Telemetry) -> TuneOutcome {
    if let Err(e) = spec.validate() {
        panic!("invalid TuneSpec: {e}");
    }
    let suite = spec.suite();
    let nominal = DesignVector::nominal();
    let mut tuner = Tuner::new(spec, exec, telemetry);

    // The energy budget is anchored on the nominal design's worst suite
    // scenario, so "≤ +slack worst-case energy" holds suite-wide, not just
    // on the active pool.
    let nominal_evals = tuner.evaluate(&nominal, &suite);
    let nominal_worst_energy =
        nominal_evals.iter().map(EvalOutcome::total_kwh).fold(0.0_f64, f64::max);
    let nominal_worst_violation = worst_violation(&nominal_evals);
    let cap = (1.0 + spec.energy_slack) * nominal_worst_energy;

    let mut pool: Vec<Scenario> = Vec::new();
    for sc in &spec.initial {
        if !pool.iter().any(|p| p.digest() == sc.digest()) {
            pool.push(sc.clone());
        }
    }
    let mut incumbent = nominal.clone();
    let mut rounds: Vec<RoundLog> = Vec::new();
    let mut converged = false;
    for round in 0..spec.rounds as u64 {
        let (next, score, accepted) = tuner.local_search(&incumbent, &pool, cap, round);
        incumbent = next;
        let added = tuner.adversary(&incumbent, &pool, cap, score.worst_violation, round);
        let added_label = added.as_ref().map(Scenario::label).unwrap_or_default();
        if let Some(sc) = added {
            pool.push(sc);
        } else {
            converged = true;
        }
        tuner.telemetry.emit(Event::TuneRound {
            round,
            pool_size: pool.len() as u64,
            worst_violation: score.worst_violation,
            added: added_label.clone(),
        });
        tuner.telemetry.gauge_set("tune.pool.size", pool.len() as f64);
        rounds.push(RoundLog {
            round,
            pool_size: pool.len() as u64,
            worst_violation: score.worst_violation,
            worst_energy: score.worst_energy,
            accepted,
            added: added_label,
        });
        if converged {
            break;
        }
    }

    let mut robust_evals = tuner.evaluate(&incumbent, &suite);
    // The round budget can run out right after the adversary added a
    // scenario that breaks the incumbent. A "robust" design worse than
    // nominal over the suite is no answer: report the nominal design.
    if worst_violation(&robust_evals) > nominal_worst_violation {
        incumbent = nominal.clone();
        robust_evals = nominal_evals.clone();
    }
    let robust_worst_energy =
        robust_evals.iter().map(EvalOutcome::total_kwh).fold(0.0_f64, f64::max);
    let robust_worst_violation = worst_violation(&robust_evals);
    let table: Vec<ScenarioReport> = suite
        .iter()
        .zip(nominal_evals.iter().zip(robust_evals.iter()))
        .map(|(sc, (n, r))| ScenarioReport {
            label: sc.label(),
            scenario_digest: sc.digest().to_string(),
            nominal: n.clone(),
            robust: r.clone(),
        })
        .collect();

    TuneOutcome {
        spec_digest: spec.digest().to_string(),
        seed: spec.seed,
        rounds_run: rounds.len() as u64,
        converged,
        nominal,
        robust: incumbent,
        pool: pool.iter().map(Scenario::label).collect(),
        pool_digests: pool.iter().map(|s| s.digest().to_string()).collect(),
        rounds,
        table,
        nominal_worst_violation,
        robust_worst_violation,
        nominal_worst_energy,
        robust_worst_energy,
        memo_hits: tuner.memo.hits(),
        memo_misses: tuner.memo.misses(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn outcome(v: f64, kwh: f64) -> EvalOutcome {
        EvalOutcome {
            violation_cmin: v,
            cooling_kwh: kwh,
            it_kwh: 0.0,
            pue: 1.2,
            degraded_min: 0,
            failsafe_min: 0,
        }
    }

    #[test]
    fn score_orders_feasibility_first() {
        let cap = 10.0;
        let feasible_bad = Score::of(&[outcome(50.0, 9.0)], cap);
        let infeasible_good = Score::of(&[outcome(1.0, 12.0)], cap);
        assert!(feasible_bad.better_than(&infeasible_good));
        let feasible_good = Score::of(&[outcome(5.0, 9.0)], cap);
        assert!(feasible_good.better_than(&feasible_bad));
        // Ties (within EPS) are not improvements.
        assert!(!feasible_good.better_than(&feasible_good.clone()));
    }

    #[test]
    fn score_takes_worst_over_the_pool() {
        let s = Score::of(&[outcome(1.0, 5.0), outcome(9.0, 2.0)], 100.0);
        assert_eq!(s.worst_violation, 9.0);
        assert_eq!(s.worst_energy, 5.0);
        assert!((s.mean_violation - 5.0).abs() < EPS);
    }
}
