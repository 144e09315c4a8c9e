//! The learn job spec: training budgets, the episode suite, and seeds —
//! everything that determines a learn run, serialized and digested.

use coolair_runner::{stable_digest, Campaign, Digest, Executor};
use coolair_sim::{AnnualConfig, EpisodeSpec, FaultSpec, Scenario};
use coolair_telemetry::Telemetry;
use coolair_units::SimDuration;
use coolair_weather::Location;
use serde::{Deserialize, Serialize};

use crate::learner::{run_learn_with, LearnOutcome};

/// Artifact namespace of learn reports.
pub const KIND_LEARN_REPORT: &str = "learn-report";

/// Cross-entropy-method budget over the schedule-policy search space.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CemConfig {
    /// Candidates per generation (candidate 0 is always the current mean,
    /// so the paper-baseline schedule is evaluated in generation 0).
    pub population: usize,
    /// Candidates kept to refit the sampling distribution.
    pub elites: usize,
    /// Generations.
    pub iters: usize,
    /// Setpoint knots over the day (the search dimension is `knots + 1`,
    /// the extra being the active-server fraction).
    pub knots: usize,
    /// Initial per-knot setpoint standard deviation, °C.
    pub setpoint_std: f64,
    /// Initial active-fraction standard deviation.
    pub active_std: f64,
}

/// Tabular Q-learning budget over the discretized state space.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct QConfig {
    /// Training episodes (round-robin over the suite).
    pub episodes: usize,
    /// Evaluate the greedy policy every this many training episodes.
    pub checkpoint_every: usize,
    /// Learning rate in `(0, 1]`.
    pub alpha: f64,
    /// Discount factor in `[0, 1)`.
    pub gamma: f64,
    /// Initial exploration probability (decays linearly).
    pub epsilon: f64,
    /// Exploration floor.
    pub epsilon_min: f64,
}

/// Everything that determines a learn run. A learn is a pure function of
/// this spec (plus memoized rollouts, which are themselves pure), so the
/// spec's digest keys the report artifact and a killed run resumed against
/// a warm store reproduces the outcome bit for bit.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct LearnSpec {
    /// Master seed: the CEM sampling stream, the Q exploration stream, and
    /// the random baseline all derive from it.
    pub seed: u64,
    /// Scenario suite (climate, fault spec, workload shape) — the
    /// `ext_faults` flavour: a fault-free base plus faulted variants.
    pub scenarios: Vec<Scenario>,
    /// Calendar start days; each (scenario, day) pair is one one-day
    /// episode in the evaluation suite.
    pub start_days: Vec<u64>,
    /// The policy's decision cadence inside an episode.
    pub decision_period: SimDuration,
    /// Base evaluation config (infrastructure, engine tuning). Scenario
    /// seeds and faults are applied per episode on top.
    pub annual: AnnualConfig,
    /// CEM budget.
    pub cem: CemConfig,
    /// Q-learning budget.
    pub q: QConfig,
}

/// The Newark fault ladder the suites share: fault-free, moderate, severe.
fn fault_ladder(seed: u64, severities: &[f64]) -> Vec<Scenario> {
    let mut out = vec![Scenario::nominal(Location::newark())];
    for (i, &sev) in severities.iter().enumerate() {
        out.push(Scenario {
            fault: FaultSpec::random(seed.wrapping_add(i as u64), sev),
            ..Scenario::nominal(Location::newark())
        });
    }
    out
}

impl LearnSpec {
    /// The shipped benchmark behind the learned-vs-TKS acceptance claim:
    /// the Newark fault ladder (none / 1.5 / 3.0) over a winter and a
    /// summer day, 10-minute decisions, and training budgets sized so a
    /// full run stays interactive.
    #[must_use]
    pub fn shipped(seed: u64) -> Self {
        LearnSpec {
            seed,
            scenarios: fault_ladder(seed, &[1.5, 3.0]),
            start_days: vec![15, 195],
            decision_period: SimDuration::from_minutes(10),
            annual: AnnualConfig::quick(),
            cem: CemConfig {
                population: 16,
                elites: 4,
                iters: 6,
                knots: 6,
                setpoint_std: 3.0,
                active_std: 0.25,
            },
            q: QConfig {
                episodes: 48,
                checkpoint_every: 12,
                alpha: 0.2,
                gamma: 0.9,
                epsilon: 0.4,
                epsilon_min: 0.05,
            },
        }
    }

    /// A tiny deterministic run for CI smoke tests: one faulted scenario
    /// pair on one summer day, a handful of CEM generations and Q
    /// episodes.
    #[must_use]
    pub fn smoke(seed: u64) -> Self {
        LearnSpec {
            seed,
            scenarios: fault_ladder(seed, &[2.0]),
            start_days: vec![150],
            decision_period: SimDuration::from_minutes(20),
            annual: AnnualConfig::quick(),
            cem: CemConfig {
                population: 6,
                elites: 2,
                iters: 3,
                knots: 4,
                setpoint_std: 3.0,
                active_std: 0.25,
            },
            q: QConfig {
                episodes: 8,
                checkpoint_every: 4,
                alpha: 0.2,
                gamma: 0.9,
                epsilon: 0.4,
                epsilon_min: 0.05,
            },
        }
    }

    /// Stable content digest — the report artifact's store key.
    #[must_use]
    pub fn digest(&self) -> Digest {
        stable_digest(self)
    }

    /// The evaluation suite: one one-day episode per (scenario, start day)
    /// pair, scenario-major, sharing the spec's decision period and base
    /// config.
    #[must_use]
    pub fn episodes(&self) -> Vec<EpisodeSpec> {
        let mut out = Vec::new();
        for scenario in &self.scenarios {
            for &day in &self.start_days {
                out.push(EpisodeSpec {
                    scenario: scenario.clone(),
                    annual: self.annual.clone(),
                    start_day: day,
                    horizon_days: 1,
                    decision_period: self.decision_period,
                });
            }
        }
        out
    }

    /// Sanity-checks the training budgets and the episode suite.
    ///
    /// # Errors
    ///
    /// Returns all problems found, joined with `"; "`.
    pub fn validate(&self) -> Result<(), String> {
        let mut problems = Vec::new();
        if self.scenarios.is_empty() {
            problems.push("scenario suite is empty".to_string());
        }
        if self.start_days.is_empty() {
            problems.push("start_days is empty".to_string());
        }
        if self.cem.population < 2 {
            problems.push("cem.population must be >= 2".to_string());
        }
        if self.cem.elites == 0 || self.cem.elites >= self.cem.population.max(1) {
            problems.push("cem.elites must be in [1, population)".to_string());
        }
        if self.cem.iters == 0 {
            problems.push("cem.iters must be >= 1".to_string());
        }
        if self.cem.knots == 0 {
            problems.push("cem.knots must be >= 1".to_string());
        }
        if self.q.episodes == 0 {
            problems.push("q.episodes must be >= 1".to_string());
        }
        if self.q.checkpoint_every == 0 {
            problems.push("q.checkpoint_every must be >= 1".to_string());
        }
        if !(self.q.alpha > 0.0 && self.q.alpha <= 1.0) {
            problems.push(format!("q.alpha {} must be in (0, 1]", self.q.alpha));
        }
        if !(0.0..1.0).contains(&self.q.gamma) {
            problems.push(format!("q.gamma {} must be in [0, 1)", self.q.gamma));
        }
        if !(0.0..=1.0).contains(&self.q.epsilon) || self.q.epsilon_min > self.q.epsilon {
            problems.push("q.epsilon must be in [0, 1] with epsilon_min <= epsilon".to_string());
        }
        for ep in self.episodes() {
            if let Err(e) = ep.validate() {
                problems.push(format!("episode (day {}): {e}", ep.start_day));
                break;
            }
        }
        if problems.is_empty() {
            Ok(())
        } else {
            Err(problems.join("; "))
        }
    }
}

impl Campaign for LearnSpec {
    const NAME: &'static str = "learn";
    const REPORT_KIND: &'static str = KIND_LEARN_REPORT;
    type Outcome = LearnOutcome;

    fn validate(&self) -> Result<(), String> {
        LearnSpec::validate(self)
    }

    fn label(&self) -> String {
        format!("learn benchmark (seed {})", self.seed)
    }

    fn run(&self, exec: &Executor, telemetry: &Telemetry) -> LearnOutcome {
        run_learn_with(self, exec, telemetry)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn shipped_suite_spans_the_fault_ladder() {
        let spec = LearnSpec::shipped(7);
        assert!(spec.validate().is_ok(), "{:?}", spec.validate());
        assert_eq!(spec.scenarios.len(), 3, "fault-free + two severities");
        assert_eq!(spec.episodes().len(), 6, "3 scenarios x 2 days");
        let mut digests: Vec<_> = spec.episodes().iter().map(EpisodeSpec::digest).collect();
        digests.dedup();
        assert_eq!(digests.len(), 6, "episode digests must not collide");
    }

    #[test]
    fn digest_is_seed_sensitive_and_round_trips() {
        let a = LearnSpec::smoke(1);
        let b = LearnSpec::smoke(2);
        assert_ne!(a.digest(), b.digest());
        let json = serde_json::to_string(&a).unwrap();
        let back: LearnSpec = serde_json::from_str(&json).unwrap();
        assert_eq!(back, a);
        assert_eq!(back.digest(), a.digest());
    }

    #[test]
    fn validate_rejects_broken_budgets() {
        let mut spec = LearnSpec::smoke(1);
        spec.cem.elites = spec.cem.population;
        spec.q.gamma = 1.0;
        spec.start_days = vec![365];
        let err = spec.validate().unwrap_err();
        assert!(err.contains("elites"), "{err}");
        assert!(err.contains("gamma"), "{err}");
        assert!(err.contains("episode"), "{err}");
    }
}
