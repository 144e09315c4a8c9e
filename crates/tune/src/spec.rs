//! The tune job spec: search budget, scenario suite, and energy budget —
//! everything that determines a tune run, serialized and digested.

use coolair::Version;
use coolair_runner::{stable_digest, Campaign, Digest, Executor};
use coolair_sim::{AnnualConfig, FaultSpec, Scenario};
use coolair_telemetry::Telemetry;
use coolair_weather::Location;
use coolair_workload::TraceKind;
use serde::{Deserialize, Serialize};

use crate::tuner::{run_tune_with, TuneOutcome};

/// Artifact namespace of tune reports.
pub const KIND_TUNE_REPORT: &str = "tune-report";

/// Everything that determines a robust-tune run. A tune is a pure function
/// of this spec (plus memoized evaluations, which are themselves pure), so
/// the spec's digest keys the report artifact and a killed run resumed
/// against a warm store reproduces the incumbent bit for bit.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TuneSpec {
    /// CoolAir version the design vector decorates.
    pub version: Version,
    /// Master seed for the local-search proposal stream.
    pub seed: u64,
    /// Maximum decomposition rounds (tune → adversary → grow pool).
    pub rounds: usize,
    /// Local-search proposals per round.
    pub iters: usize,
    /// Initial active scenario set.
    pub initial: Vec<Scenario>,
    /// The candidate scenario suite the adversary searches — also the
    /// suite the final robust-vs-nominal table is computed over.
    pub candidates: Vec<Scenario>,
    /// Adversary probes per round: how many candidates (seeded choice) the
    /// adversary evaluates the incumbent against. `0` means all of them.
    pub sample: usize,
    /// Relative worst-case energy slack over the nominal design (0.05 →
    /// the tuned config may spend at most 5 % more total energy than the
    /// nominal design's worst scenario).
    pub energy_slack: f64,
    /// Base evaluation budget (stride, training, engine tuning). Scenario
    /// seeds and faults are applied per scenario on top.
    pub annual: AnnualConfig,
}

/// Builds `climates × severities × traces` fault scenarios; fault seeds
/// are derived from `seed` so the suite is deterministic but distinct per
/// master seed.
fn grid(
    seed: u64,
    climates: &[Location],
    severities: &[f64],
    traces: &[TraceKind],
) -> Vec<Scenario> {
    let mut out = Vec::new();
    for (ci, climate) in climates.iter().enumerate() {
        for (si, &severity) in severities.iter().enumerate() {
            for (ti, &trace) in traces.iter().enumerate() {
                let salt = (ci as u64) << 16 | (si as u64) << 8 | ti as u64;
                out.push(Scenario {
                    location: climate.clone(),
                    weather_seed: 42,
                    fault: FaultSpec::random(seed.wrapping_add(salt), severity),
                    trace,
                    trace_seed: 1,
                });
            }
        }
    }
    out
}

impl TuneSpec {
    /// The shipped suite behind the robust-vs-nominal acceptance claim:
    /// 3 climates × 3 fault severities × 2 workload shapes, evaluated on a
    /// stride-120 (4-day) year so a full tune stays interactive. The
    /// initial active set is the fault-free scenario of each climate.
    #[must_use]
    pub fn shipped(seed: u64) -> Self {
        let climates = [Location::newark(), Location::singapore(), Location::phoenix()];
        let mut annual = AnnualConfig::quick();
        annual.stride = 120;
        TuneSpec {
            version: Version::AllNd,
            seed,
            rounds: 5,
            iters: 16,
            initial: climates.iter().cloned().map(Scenario::nominal).collect(),
            candidates: grid(
                seed,
                &climates,
                &[1.0, 2.0, 3.0],
                &[TraceKind::Facebook, TraceKind::Nutch],
            ),
            sample: 0,
            energy_slack: 0.05,
            annual,
        }
    }

    /// A tiny deterministic tune for CI smoke tests: one climate, 2-day
    /// horizons, a handful of proposals.
    #[must_use]
    pub fn smoke(seed: u64) -> Self {
        let climates = [Location::newark()];
        let mut annual = AnnualConfig::quick();
        annual.stride = 240;
        TuneSpec {
            version: Version::AllNd,
            seed,
            rounds: 2,
            iters: 4,
            initial: climates.iter().cloned().map(Scenario::nominal).collect(),
            candidates: grid(seed, &climates, &[1.5, 3.0], &[TraceKind::Facebook]),
            sample: 0,
            energy_slack: 0.05,
            annual,
        }
    }

    /// Stable content digest — the report artifact's store key.
    #[must_use]
    pub fn digest(&self) -> Digest {
        stable_digest(self)
    }

    /// The full evaluation suite: initial scenarios then candidates,
    /// deduplicated by digest, in spec order. The final robust-vs-nominal
    /// table covers exactly this list.
    #[must_use]
    pub fn suite(&self) -> Vec<Scenario> {
        let mut out: Vec<Scenario> = Vec::new();
        let mut seen = Vec::new();
        for sc in self.initial.iter().chain(self.candidates.iter()) {
            let d = sc.digest();
            if !seen.contains(&d) {
                seen.push(d);
                out.push(sc.clone());
            }
        }
        out
    }

    /// Sanity-checks the search budget and suite.
    ///
    /// # Errors
    ///
    /// Returns all problems found, joined with `"; "`.
    pub fn validate(&self) -> Result<(), String> {
        let mut problems = Vec::new();
        if self.rounds == 0 {
            problems.push("rounds must be >= 1".to_string());
        }
        if self.iters == 0 {
            problems.push("iters must be >= 1".to_string());
        }
        if self.initial.is_empty() {
            problems.push("initial scenario set is empty".to_string());
        }
        if self.candidates.is_empty() {
            problems.push("candidate scenario suite is empty".to_string());
        }
        if !(self.energy_slack.is_finite() && self.energy_slack >= 0.0) {
            problems.push(format!("energy_slack {} must be finite and >= 0", self.energy_slack));
        }
        if problems.is_empty() {
            Ok(())
        } else {
            Err(problems.join("; "))
        }
    }
}

impl Campaign for TuneSpec {
    const NAME: &'static str = "tune";
    const REPORT_KIND: &'static str = KIND_TUNE_REPORT;
    type Outcome = TuneOutcome;

    fn validate(&self) -> Result<(), String> {
        TuneSpec::validate(self)
    }

    fn label(&self) -> String {
        format!("robust tune (seed {})", self.seed)
    }

    fn run(&self, exec: &Executor, telemetry: &Telemetry) -> TuneOutcome {
        run_tune_with(self, exec, telemetry)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn shipped_suite_spans_the_acceptance_grid() {
        let spec = TuneSpec::shipped(7);
        assert!(spec.validate().is_ok());
        assert_eq!(spec.candidates.len(), 3 * 3 * 2);
        let climates: Vec<&str> =
            spec.candidates.iter().map(|s| s.location.name()).collect();
        assert!(climates.contains(&"Newark") && climates.contains(&"Singapore"));
        // 3 fault-free initial + 18 faulted candidates, no digest collisions.
        assert_eq!(spec.suite().len(), 21);
    }

    #[test]
    fn digest_is_seed_sensitive_and_round_trips() {
        let a = TuneSpec::shipped(1);
        let b = TuneSpec::shipped(2);
        assert_ne!(a.digest(), b.digest());
        let json = serde_json::to_string(&a).unwrap();
        let back: TuneSpec = serde_json::from_str(&json).unwrap();
        assert_eq!(back, a);
        assert_eq!(back.digest(), a.digest());
    }

    #[test]
    fn validate_rejects_empty_budgets() {
        let mut spec = TuneSpec::smoke(1);
        spec.rounds = 0;
        spec.candidates.clear();
        let err = spec.validate().unwrap_err();
        assert!(err.contains("rounds"), "{err}");
        assert!(err.contains("candidate"), "{err}");
    }
}
