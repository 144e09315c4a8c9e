//! Serializable fleet campaign specs.
//!
//! A [`FleetSpec`] pins everything a fleet-year depends on — sites,
//! container count, initial placement seed, system, trace, migration
//! policy, and the shared [`AnnualConfig`] — so its digest names the
//! campaign's artifacts content-addressably, exactly like the tuner's
//! `TuneSpec`.

use coolair::Version;
use coolair_runner::{stable_digest, Campaign, Digest, Executor};
use coolair_sim::{AnnualConfig, SystemSpec};
use coolair_telemetry::Telemetry;
use coolair_weather::Location;
use coolair_workload::TraceKind;
use serde::{Deserialize, Serialize};

use crate::run::{run_fleet_with, FleetOutcome};

/// Artifact namespace of fleet campaign reports.
pub const KIND_FLEET_REPORT: &str = "fleet-report";
/// Artifact namespace of per-lane fleet evaluations.
pub const KIND_FLEET_EVAL: &str = "fleet-eval";

/// The follow-the-cold migration policy: how much deferrable batch load the
/// global manager may move between sites at each decision epoch, and what
/// counts as free-cooling headroom.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct MigrationPolicy {
    /// Master switch. Disabled ⇒ the fleet runs its initial placement for
    /// the whole year (and collapses to a single decision epoch, which
    /// keeps an N=1 fleet bit-identical to `run_annual`).
    pub enabled: bool,
    /// WAN/energy budget per epoch, in MWh of migrated deferrable load.
    /// Caps the number of container-moves the manager may make.
    pub budget_mwh: f64,
    /// Deferrable batch power carried by one loaded container, in kW.
    /// Converts container-moves into migrated MWh for budget accounting.
    pub deferrable_kw: f64,
    /// Optional cap on loaded containers per site (None ⇒ a site can host
    /// as many loaded containers as it has containers).
    pub site_capacity: Option<usize>,
    /// Free-cooling envelope ceiling: a forecast hour counts as headroom
    /// only if outside air is at or below this temperature (°C).
    pub free_cool_max_c: f64,
    /// Free-cooling envelope humidity ceiling (% RH at the forecast
    /// temperature, using the site's TMY moisture content).
    pub max_rh_pct: f64,
    /// Minimum headroom advantage (fraction of hours, 0..1) the destination
    /// must hold over the source before a move is worth its budget.
    pub min_gain: f64,
}

impl MigrationPolicy {
    /// Migration disabled; the fleet is N independent containers.
    #[must_use]
    pub fn off() -> Self {
        MigrationPolicy { enabled: false, ..MigrationPolicy::default() }
    }
}

impl Default for MigrationPolicy {
    /// Enabled, generous budget, CoolAir's §2 free-cooling envelope
    /// (air-side economization below ~26 °C, RH kept under 85%).
    fn default() -> Self {
        MigrationPolicy {
            enabled: true,
            budget_mwh: 50.0,
            deferrable_kw: 1.0,
            site_capacity: None,
            free_cool_max_c: 26.0,
            max_rh_pct: 85.0,
            min_gain: 0.05,
        }
    }
}

/// A full fleet campaign: the geo-distributed counterpart of a single
/// container's `AnnualConfig`.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct FleetSpec {
    /// Seed for the initial load placement shuffle.
    pub seed: u64,
    /// Total containers across the fleet.
    pub containers: usize,
    /// Campus sites; container `i` lives at site `i % sites.len()`.
    pub sites: Vec<Location>,
    /// System run inside every container.
    pub system: SystemSpec,
    /// Workload trace run by loaded containers.
    pub trace: TraceKind,
    /// Fraction of containers initially carrying deferrable batch load.
    pub loaded_fraction: f64,
    /// Decision epochs per simulated year (clamped to the sampled-day
    /// count; forced to 1 when migration is disabled).
    pub epochs: usize,
    /// Follow-the-cold policy.
    pub migration: MigrationPolicy,
    /// Shared per-container annual configuration (stride, seeds, plant).
    pub annual: AnnualConfig,
}

impl FleetSpec {
    /// The shipped evaluation fleet: 64 containers over four climate
    /// extremes (subpolar, temperate, desert, tropical), quarterly
    /// decision epochs.
    #[must_use]
    pub fn shipped(seed: u64) -> Self {
        let mut annual = AnnualConfig::quick();
        annual.stride = 90; // quarterly sampling: one day per epoch
        FleetSpec {
            seed,
            containers: 64,
            sites: vec![
                Location::iceland(),
                Location::newark(),
                Location::phoenix(),
                Location::singapore(),
            ],
            system: SystemSpec::CoolAir(Version::AllNd),
            trace: TraceKind::Facebook,
            loaded_fraction: 0.5,
            epochs: 4,
            migration: MigrationPolicy::default(),
            annual,
        }
    }

    /// A minimal fleet for tests and CI smoke: two sites, four containers,
    /// two epochs of one sampled day each.
    #[must_use]
    pub fn smoke(seed: u64) -> Self {
        let mut annual = AnnualConfig::quick();
        annual.stride = 240; // days 0 and 240: two epochs of one day
        FleetSpec {
            seed,
            containers: 4,
            sites: vec![Location::newark(), Location::singapore()],
            system: SystemSpec::CoolAir(Version::AllNd),
            trace: TraceKind::Facebook,
            loaded_fraction: 0.5,
            epochs: 2,
            migration: MigrationPolicy::default(),
            annual,
        }
    }

    /// Content digest naming this campaign's artifacts.
    #[must_use]
    pub fn digest(&self) -> Digest {
        stable_digest(self)
    }

    /// Number of initially loaded containers.
    #[must_use]
    pub fn loaded_total(&self) -> usize {
        ((self.containers as f64 * self.loaded_fraction).round() as usize).min(self.containers)
    }

    /// Validates the spec, returning all problems joined by `; `.
    ///
    /// # Errors
    ///
    /// Returns a human-readable description of every violated invariant.
    pub fn validate(&self) -> Result<(), String> {
        let mut problems = Vec::new();
        if self.containers == 0 {
            problems.push("containers must be at least 1".to_string());
        }
        if self.sites.is_empty() {
            problems.push("sites must not be empty".to_string());
        }
        if !(0.0..=1.0).contains(&self.loaded_fraction) {
            problems.push(format!(
                "loaded_fraction must lie in [0, 1], got {}",
                self.loaded_fraction
            ));
        }
        if self.epochs == 0 {
            problems.push("epochs must be at least 1".to_string());
        }
        let m = &self.migration;
        if !(m.budget_mwh.is_finite() && m.budget_mwh >= 0.0) {
            problems.push(format!("budget_mwh must be finite and >= 0, got {}", m.budget_mwh));
        }
        if !(m.deferrable_kw.is_finite() && m.deferrable_kw > 0.0) {
            problems.push(format!("deferrable_kw must be finite and > 0, got {}", m.deferrable_kw));
        }
        if !m.free_cool_max_c.is_finite() {
            problems.push(format!("free_cool_max_c must be finite, got {}", m.free_cool_max_c));
        }
        if !(m.max_rh_pct.is_finite() && (0.0..=100.0).contains(&m.max_rh_pct)) {
            problems.push(format!("max_rh_pct must lie in [0, 100], got {}", m.max_rh_pct));
        }
        if !(m.min_gain.is_finite() && (0.0..=1.0).contains(&m.min_gain)) {
            problems.push(format!("min_gain must lie in [0, 1], got {}", m.min_gain));
        }
        if problems.is_empty() {
            Ok(())
        } else {
            Err(problems.join("; "))
        }
    }
}

impl Campaign for FleetSpec {
    const NAME: &'static str = "fleet";
    const REPORT_KIND: &'static str = KIND_FLEET_REPORT;
    type Outcome = FleetOutcome;

    fn validate(&self) -> Result<(), String> {
        FleetSpec::validate(self)
    }

    fn label(&self) -> String {
        format!("fleet campaign ({} containers, seed {})", self.containers, self.seed)
    }

    fn run(&self, exec: &Executor, telemetry: &Telemetry) -> FleetOutcome {
        run_fleet_with(self, exec, telemetry)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn shipped_and_smoke_validate() {
        FleetSpec::shipped(7).validate().expect("shipped spec must validate");
        FleetSpec::smoke(7).validate().expect("smoke spec must validate");
    }

    #[test]
    fn digest_is_stable_and_seed_sensitive() {
        assert_eq!(FleetSpec::smoke(1).digest(), FleetSpec::smoke(1).digest());
        assert_ne!(FleetSpec::smoke(1).digest(), FleetSpec::smoke(2).digest());
        let mut other = FleetSpec::smoke(1);
        other.migration.budget_mwh += 1.0;
        assert_ne!(FleetSpec::smoke(1).digest(), other.digest());
    }

    #[test]
    fn validate_collects_all_problems() {
        let mut spec = FleetSpec::smoke(1);
        spec.containers = 0;
        spec.sites.clear();
        spec.loaded_fraction = 1.5;
        spec.migration.deferrable_kw = 0.0;
        let err = spec.validate().unwrap_err();
        assert!(err.contains("containers"), "missing containers problem: {err}");
        assert!(err.contains("sites"), "missing sites problem: {err}");
        assert!(err.contains("loaded_fraction"), "missing fraction problem: {err}");
        assert!(err.contains("deferrable_kw"), "missing kw problem: {err}");
        assert!(err.matches("; ").count() >= 3, "problems should be joined: {err}");
    }

    #[test]
    fn loaded_total_rounds_and_clamps() {
        let mut spec = FleetSpec::smoke(1);
        spec.containers = 4;
        spec.loaded_fraction = 0.5;
        assert_eq!(spec.loaded_total(), 2);
        spec.loaded_fraction = 1.0;
        assert_eq!(spec.loaded_total(), 4);
        spec.loaded_fraction = 0.0;
        assert_eq!(spec.loaded_total(), 0);
    }

    #[test]
    fn spec_round_trips_through_json() {
        let spec = FleetSpec::shipped(3);
        let json = serde_json::to_string(&spec).expect("serialize");
        let back: FleetSpec = serde_json::from_str(&json).expect("deserialize");
        assert_eq!(spec, back);
        assert_eq!(spec.digest(), back.digest());
    }
}
