//! Gym-style episodes: the closed-loop simulator repackaged as a
//! deterministic, seedable reset/observe/act/step interface for learned
//! controllers.
//!
//! An [`EpisodeSpec`] pins everything that determines a trajectory — a
//! [`Scenario`] (climate archetype, weather seed, fault spec, workload
//! trace, trace seed), a base [`AnnualConfig`], the calendar span, and the
//! decision period — and has a stable content digest, which is what makes
//! daemon-side episode creation idempotent (`POST /episodes` keys the
//! registry by it). An [`Episode`] owns the same physics loop as
//! [`crate::Simulation::run_day`] — plant, cluster, TMY weather, fault
//! layer — but hands the *policy* decisions to the caller: each
//! [`Episode::step`] applies an [`Action`] (a TKS setpoint plus an
//! active-server target), advances one decision window, and returns the
//! next [`Observation`] and the window's [`Reward`].
//!
//! Actuation goes through a persistent [`TksController`]: the action sets
//! its setpoint and the TKS's own mode/compressor hysteresis picks the
//! cooling regime at the baseline control cadence, so a policy that always
//! outputs 30 °C and every server active reproduces the paper's baseline
//! behaviour (the engine's baseline day, up to summation order; a unit
//! test pins it). The controller (and the episode's observations) sense through
//! the fault layer; the reward samples the plant's ground truth, exactly
//! like the engine's metrics pass.
//!
//! Determinism: an episode is a pure function of its spec and the action
//! sequence. The observation is computed once per step boundary and cached
//! (repeated [`Episode::observe`] calls never advance fault-layer state),
//! so identical (spec, actions) pairs produce byte-identical trajectories —
//! the property `tests/learn_properties.rs` pins, locally and over the
//! daemon.

use std::collections::VecDeque;
use std::sync::Arc;

use coolair_runner::{stable_digest, Digest};
use coolair_thermal::{
    CoolingRegime, Infrastructure, ItLoad, OutsideConditions, Plant, PlantConfig,
    SensorReadings, TksConfig, TksController,
};
use coolair_units::{Celsius, SimDuration, SimTime, SECS_PER_HOUR};
use coolair_weather::{Location, TmySeries};
use coolair_workload::{Cluster, ClusterConfig, Job, Trace};
use serde::{Deserialize, Serialize};

use crate::annual::{build_trace, AnnualConfig};
use crate::engine::{it_load, refresh_it_load};
use crate::faults::FaultPlan;
use crate::scenario::Scenario;

/// Lexicographic comparison slack, matching the tuner's score discipline.
const EPS: f64 = 1e-9;

/// Setpoint commands outside this band are clamped before reaching the TKS.
const SETPOINT_RANGE_C: (f64, f64) = (10.0, 40.0);

/// Everything that determines an episode's trajectory (given the actions).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct EpisodeSpec {
    /// Climate, seeds, fault spec, and workload shape.
    pub scenario: Scenario,
    /// Base evaluation config (infrastructure, engine tuning). The
    /// scenario's seeds override the base's, and the fault spec is
    /// materialised over the episode's own days — see
    /// [`EpisodeSpec::effective_annual`].
    pub annual: AnnualConfig,
    /// First simulated calendar day (0–364).
    pub start_day: u64,
    /// Consecutive calendar days the episode spans (≥ 1). Warm-up runs
    /// once, before the first midnight; later days continue seamlessly.
    pub horizon_days: u64,
    /// How often the policy acts. Must be a positive multiple of the
    /// engine's physics step.
    pub decision_period: SimDuration,
}

impl EpisodeSpec {
    /// A fault-free one-day summer episode at a location, acting every
    /// 10 minutes (the baseline TKS control cadence).
    #[must_use]
    pub fn nominal(location: Location) -> Self {
        EpisodeSpec {
            scenario: Scenario::nominal(location),
            annual: AnnualConfig::quick(),
            start_day: 150,
            horizon_days: 1,
            decision_period: SimDuration::from_minutes(10),
        }
    }

    /// Like [`EpisodeSpec::nominal`] but with the weather and trace seeds
    /// derived from `seed` — the "seedable" constructor learners use.
    #[must_use]
    pub fn seeded(location: Location, seed: u64) -> Self {
        let mut spec = EpisodeSpec::nominal(location);
        spec.scenario.weather_seed = seed;
        spec.scenario.trace_seed = seed.wrapping_add(1);
        spec
    }

    /// Stable content digest over the full spec — the daemon's episode id.
    #[must_use]
    pub fn digest(&self) -> Digest {
        stable_digest(self)
    }

    /// The calendar days the episode spans.
    #[must_use]
    pub fn days(&self) -> Vec<u64> {
        (self.start_day..self.start_day + self.horizon_days).collect()
    }

    /// Number of decision windows in the episode (the final window is
    /// truncated at the horizon if the period does not divide it).
    #[must_use]
    pub fn steps(&self) -> u64 {
        let span = self.horizon_days * 24 * SECS_PER_HOUR;
        span.div_ceil(self.decision_period.as_secs().max(1))
    }

    /// The evaluation config the episode actually runs: the base with the
    /// scenario's seeds applied and the fault spec materialised over the
    /// episode's own days (not the base's stride sampling).
    #[must_use]
    pub fn effective_annual(&self) -> AnnualConfig {
        let mut cfg = self.annual.clone();
        cfg.weather_seed = self.scenario.weather_seed;
        cfg.trace_seed = self.scenario.trace_seed;
        cfg.faults = self.scenario.fault.schedule(&self.days(), ClusterConfig::parasol().pods);
        cfg
    }

    /// Checks the spec is runnable.
    ///
    /// # Errors
    ///
    /// Returns every problem found, `; `-joined.
    pub fn validate(&self) -> Result<(), String> {
        let mut problems = Vec::new();
        if self.horizon_days == 0 {
            problems.push("horizon_days must be >= 1".to_string());
        }
        if self.start_day + self.horizon_days > 365 {
            problems.push(format!(
                "episode spans days {}..{} beyond the 365-day year",
                self.start_day,
                self.start_day + self.horizon_days
            ));
        }
        let step = self.annual.engine.physics_step.as_secs();
        let period = self.decision_period.as_secs();
        if period == 0 || step == 0 || !period.is_multiple_of(step) {
            problems.push(format!(
                "decision_period ({period} s) must be a positive multiple of the physics step \
                 ({step} s)"
            ));
        }
        if problems.is_empty() {
            Ok(())
        } else {
            Err(problems.join("; "))
        }
    }
}

/// What the policy senses at a step boundary — the fault-corrupted sensor
/// view a real controller would see, flattened to plain numbers.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Observation {
    /// Simulation time of the observation.
    pub time: SimTime,
    /// Fraction of the calendar day elapsed, in `[0, 1)`.
    pub day_fraction: f64,
    /// Outside temperature, °C.
    pub outside_temp_c: f64,
    /// Outside relative humidity, %.
    pub outside_rh_pct: f64,
    /// Warmest pod inlet (the TKS control sensor), °C.
    pub max_inlet_c: f64,
    /// Mean pod inlet, °C.
    pub mean_inlet_c: f64,
    /// Coolest pod inlet, °C.
    pub min_inlet_c: f64,
    /// Cold-aisle relative humidity, %.
    pub cold_aisle_rh_pct: f64,
    /// Cooling regime class: 0 closed, 1 free cooling, 2 AC.
    pub regime_code: u8,
    /// Free-cooling fan speed, % of max (0 when not free cooling).
    pub fan_pct: f64,
    /// AC compressor drive, % (0 when AC off).
    pub compressor_pct: f64,
    /// Cooling power draw, W.
    pub cooling_w: f64,
    /// IT power draw, W.
    pub it_w: f64,
    /// Fraction of servers active.
    pub active_fraction: f64,
    /// Current compute demand as a fraction of the server count.
    pub demand_fraction: f64,
}

/// What the policy commands for one decision window.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Action {
    /// TKS setpoint, °C (clamped to 10–40 °C).
    pub setpoint_c: f64,
    /// Active-server target (clamped to `[covering_count, total_servers]`;
    /// the covering subset never sleeps, matching CoolAir's compute
    /// management floor).
    pub active_servers: usize,
}

impl Action {
    /// The paper-baseline action: 30 °C setpoint, every server active.
    #[must_use]
    pub fn baseline(total_servers: usize) -> Self {
        Action { setpoint_c: 30.0, active_servers: total_servers }
    }
}

/// One decision window's cost, as positive components. The episode reward
/// is their *negative lexicographic* pair: trajectory A beats B when A's
/// violation is lower, or ties (within `1e-9`) and A's energy is lower.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Reward {
    /// Thermal violation above the desired maximum, °C·min summed over pod
    /// sensors (ground truth, not the corrupted view).
    pub violation_cmin: f64,
    /// Total (cooling + IT) energy, kWh.
    pub energy_kwh: f64,
}

impl Reward {
    /// The zero cost.
    #[must_use]
    pub fn zero() -> Self {
        Reward { violation_cmin: 0.0, energy_kwh: 0.0 }
    }

    /// Accumulates another window's cost.
    pub fn accumulate(&mut self, other: &Reward) {
        self.violation_cmin += other.violation_cmin;
        self.energy_kwh += other.energy_kwh;
    }

    /// Lexicographic "lower cost wins": `true` when `self` strictly beats
    /// `other` — violation first, energy as the tie-break, ties within
    /// `1e-9` on both components are not an improvement.
    #[must_use]
    pub fn better_than(&self, other: &Reward) -> bool {
        if (self.violation_cmin - other.violation_cmin).abs() > EPS {
            return self.violation_cmin < other.violation_cmin;
        }
        self.energy_kwh < other.energy_kwh - EPS
    }
}

/// What one [`Episode::step`] returns.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct StepResult {
    /// Zero-based index of the completed decision window.
    pub step: u64,
    /// The observation at the window's end (the next decision boundary).
    pub observation: Observation,
    /// The window's cost (reward is its negation, lexicographically).
    pub reward: Reward,
    /// `true` once the horizon is exhausted; further steps are an error.
    pub done: bool,
}

/// A live episode: the closed loop of weather → plant → cluster with the
/// policy in the controller's seat. See the module docs for semantics.
#[derive(Debug)]
pub struct Episode {
    spec: EpisodeSpec,
    engine: crate::SimConfig,
    desired_max: Celsius,
    plant: Plant,
    cluster: Cluster,
    tks: TksController,
    tmy: TmySeries,
    trace: Arc<Trace>,
    faults: FaultPlan,
    stale_inlets: Vec<Celsius>,
    regime: CoolingRegime,
    /// Loaded jobs not yet submitted, in submission order.
    pending: VecDeque<Job>,
    /// The IT load the last compute block left in force.
    it: ItLoad,
    jobs_loaded_through: u64,
    active_target: usize,
    t: SimTime,
    end: SimTime,
    step_index: u64,
    done: bool,
    total: Reward,
    total_cooling_kwh: f64,
    total_it_kwh: f64,
    last_obs: Observation,
}

impl Episode {
    /// Builds the episode and simulates the warm-up (the engine's
    /// `warmup_hours` before the first midnight, run under the baseline
    /// action so the plant state is independent of the policy), leaving it
    /// at the first decision boundary with an observation ready.
    ///
    /// # Errors
    ///
    /// Returns the spec's validation problems.
    pub fn new(spec: &EpisodeSpec) -> Result<Episode, String> {
        spec.validate()?;
        let cfg = spec.effective_annual();
        let tmy = TmySeries::generate(&spec.scenario.location, cfg.weather_seed);
        let trace = build_trace(spec.scenario.trace, &cfg);
        let mut plant_config = match cfg.infrastructure {
            Infrastructure::Parasol => PlantConfig::parasol(),
            Infrastructure::Smooth => PlantConfig::smooth(),
        };
        plant_config.adiabatic_effectiveness = cfg.adiabatic;
        if let Some(v) = cfg.ac_condenser_derate_per_c {
            plant_config.ac_condenser_derate_per_c = v;
        }
        if let Some(v) = cfg.ac_latent_factor {
            plant_config.ac_latent_factor = v;
        }
        let mut cluster_config = ClusterConfig::parasol();
        if let Some(covering) = cfg.covering_count {
            cluster_config.covering_count = covering.clamp(1, cluster_config.total_servers);
        }
        let total_servers = cluster_config.total_servers;

        let midnight = SimTime::from_days(spec.start_day);
        let warmup_start = SimTime::from_secs(
            midnight.as_secs().saturating_sub(cfg.engine.warmup_hours * SECS_PER_HOUR),
        );
        let mut pending = trace.jobs_for_day(spec.start_day);
        pending.sort_by_key(|j| j.submit);
        let cluster = Cluster::new(cluster_config);

        let mut episode = Episode {
            engine: cfg.engine.clone(),
            desired_max: cfg.engine.desired_max,
            plant: Plant::new(plant_config),
            it: it_load(&cluster),
            cluster,
            tks: TksController::new(TksConfig::baseline()),
            tmy,
            trace,
            faults: cfg.faults.clone(),
            stale_inlets: Vec::new(),
            regime: CoolingRegime::Closed,
            pending: pending.into(),
            jobs_loaded_through: spec.start_day,
            active_target: total_servers,
            t: warmup_start,
            end: midnight + SimDuration::from_days(spec.horizon_days),
            step_index: 0,
            done: false,
            total: Reward::zero(),
            total_cooling_kwh: 0.0,
            total_it_kwh: 0.0,
            last_obs: Observation {
                time: warmup_start,
                day_fraction: 0.0,
                outside_temp_c: 0.0,
                outside_rh_pct: 0.0,
                max_inlet_c: 0.0,
                mean_inlet_c: 0.0,
                min_inlet_c: 0.0,
                cold_aisle_rh_pct: 0.0,
                regime_code: 0,
                fan_pct: 0.0,
                compressor_pct: 0.0,
                cooling_w: 0.0,
                it_w: 0.0,
                active_fraction: 0.0,
                demand_fraction: 0.0,
            },
            spec: spec.clone(),
        };
        // Warm-up: baseline action, no reward recorded.
        let (_v, _c, _i) = episode.advance_to(midnight, false);
        episode.last_obs = episode.observe_now();
        Ok(episode)
    }

    /// The spec the episode was built from.
    #[must_use]
    pub fn spec(&self) -> &EpisodeSpec {
        &self.spec
    }

    /// The observation at the current decision boundary. Cached: calling
    /// this repeatedly never advances the simulation or the fault layer.
    #[must_use]
    pub fn observe(&self) -> &Observation {
        &self.last_obs
    }

    /// Decision windows completed so far.
    #[must_use]
    pub fn steps_taken(&self) -> u64 {
        self.step_index
    }

    /// `true` once the horizon is exhausted.
    #[must_use]
    pub fn is_done(&self) -> bool {
        self.done
    }

    /// Cumulative cost over all completed windows.
    #[must_use]
    pub fn total_reward(&self) -> Reward {
        self.total
    }

    /// Cumulative cooling energy, kWh.
    #[must_use]
    pub fn cooling_kwh(&self) -> f64 {
        self.total_cooling_kwh
    }

    /// Cumulative IT energy, kWh.
    #[must_use]
    pub fn it_kwh(&self) -> f64 {
        self.total_it_kwh
    }

    /// Size of the always-on covering subset — the action's active-server
    /// floor.
    #[must_use]
    pub fn covering_servers(&self) -> usize {
        self.cluster.config().covering_count
    }

    /// Total server count — the action's active-server ceiling.
    #[must_use]
    pub fn total_servers(&self) -> usize {
        self.cluster.config().total_servers
    }

    /// Applies `action` for one decision window and advances the loop,
    /// returning the window's cost and the next observation.
    ///
    /// # Errors
    ///
    /// Returns an error when the episode is already done.
    pub fn step(&mut self, action: &Action) -> Result<StepResult, String> {
        if self.done {
            return Err("episode is done".to_string());
        }
        let (lo, hi) = SETPOINT_RANGE_C;
        self.tks.set_setpoint(Celsius::new(action.setpoint_c.clamp(lo, hi)));
        let covering = self.cluster.config().covering_count;
        let total = self.cluster.config().total_servers;
        self.active_target = action.active_servers.clamp(covering.max(1), total);

        let window_end =
            SimTime::from_secs((self.t + self.spec.decision_period).as_secs().min(self.end.as_secs()));
        let (violation_cmin, cooling_kwh, it_kwh) = self.advance_to(window_end, true);

        let reward = Reward { violation_cmin, energy_kwh: cooling_kwh + it_kwh };
        self.total.accumulate(&reward);
        self.total_cooling_kwh += cooling_kwh;
        self.total_it_kwh += it_kwh;
        let step = self.step_index;
        self.step_index += 1;
        self.done = self.t >= self.end;
        self.last_obs = self.observe_now();
        Ok(StepResult { step, observation: self.last_obs.clone(), reward, done: self.done })
    }

    /// Advances the physics loop to `until`, mirroring
    /// [`crate::Simulation::run_day`]'s per-tick order (compute management →
    /// sensing/control → metrics → energy → actuator faults → plant step).
    /// Returns the recorded (violation °C·min, cooling kWh, IT kWh); all
    /// zero when `record` is false (warm-up).
    fn advance_to(&mut self, until: SimTime, record: bool) -> (f64, f64, f64) {
        let mut violation = 0.0;
        let mut cooling_j = 0.0;
        let mut it_j = 0.0;
        let day = SimDuration::from_days(1);
        let dt_s = self.engine.physics_step.as_secs() as f64;
        while self.t < until {
            let t = self.t;
            // Crossing a midnight inside the horizon loads that day's jobs.
            if (t % day).is_zero() {
                let day_index = t.as_secs() / day.as_secs();
                if day_index > self.jobs_loaded_through
                    && day_index < self.spec.start_day + self.spec.horizon_days
                {
                    self.jobs_loaded_through = day_index;
                    let mut jobs = self.trace.jobs_for_day(day_index);
                    jobs.sort_by_key(|j| j.submit);
                    // Later days only submit later, so the pending list
                    // stays sorted.
                    self.pending.extend(jobs);
                }
            }

            if (t % self.engine.compute_period).is_zero() {
                while let Some(job) = self.pending.pop_front_if(|j| j.submit <= t) {
                    let earliest = job.submit;
                    self.cluster.submit_with_start(job, earliest);
                }
                self.cluster.set_active_target(self.active_target);
                self.cluster.step(t, self.engine.compute_period);
                refresh_it_load(&self.cluster, &mut self.it);
            }

            if (t % self.engine.baseline_control).is_zero() {
                let readings = self.corrupted_readings(t);
                self.regime = self.tks.decide(&readings);
            }

            if record && (t % self.engine.sample_period).is_zero() {
                let (inlets, _) = self.plant.inlets_and_rh();
                for inlet in inlets {
                    violation += (inlet - self.desired_max.value()).max(0.0);
                }
            }

            let (temperature, abs_humidity) = self.tmy.outside_at(t);
            let outside = OutsideConditions { temperature, abs_humidity };
            if record {
                cooling_j += self.plant.cooling_power().value() * dt_s;
                it_j += self.it.total().value() * dt_s;
            }
            let actual = self.faults.apply_actuator(t, self.regime);
            self.plant.step(self.engine.physics_step, outside, &self.it, actual);
            self.t += self.engine.physics_step;
        }
        (violation, cooling_j / 3.6e6, it_j / 3.6e6)
    }

    /// The fault-corrupted sensor view at the current time (advances the
    /// fault layer's stale-sensor memory — call once per boundary).
    fn corrupted_readings(&mut self, t: SimTime) -> SensorReadings {
        let truth = self.plant.readings(t);
        self.faults.corrupt_readings(truth, &mut self.stale_inlets)
    }

    fn observe_now(&mut self) -> Observation {
        let t = self.t;
        let r = self.corrupted_readings(t);
        let total = self.cluster.config().total_servers as f64;
        let regime_code = match r.regime {
            CoolingRegime::Closed => 0,
            CoolingRegime::FreeCooling { .. } => 1,
            CoolingRegime::Ac { .. } => 2,
        };
        Observation {
            time: t,
            day_fraction: (t.as_secs() % (24 * SECS_PER_HOUR)) as f64
                / (24 * SECS_PER_HOUR) as f64,
            outside_temp_c: r.outside_temp.value(),
            outside_rh_pct: r.outside_rh.percent(),
            max_inlet_c: r.max_inlet().value(),
            mean_inlet_c: r.mean_inlet().value(),
            min_inlet_c: r.min_inlet().value(),
            cold_aisle_rh_pct: r.cold_aisle_rh.percent(),
            regime_code,
            fan_pct: r.regime.fan_speed().percent(),
            compressor_pct: r.regime.compressor() * 100.0,
            cooling_w: r.cooling_power.value(),
            it_w: r.it_power.value(),
            active_fraction: r.active_fraction,
            demand_fraction: self.cluster.demand(t) as f64 / total,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::faults::FaultSpec;

    fn hourly_spec(location: Location) -> EpisodeSpec {
        EpisodeSpec {
            decision_period: SimDuration::from_minutes(60),
            ..EpisodeSpec::nominal(location)
        }
    }

    fn run_fixed(spec: &EpisodeSpec, action: &Action) -> Vec<StepResult> {
        let mut ep = Episode::new(spec).expect("valid spec");
        let mut traj = Vec::new();
        while !ep.is_done() {
            traj.push(ep.step(action).expect("not done"));
        }
        traj
    }

    #[test]
    fn digest_separates_every_dimension() {
        let base = EpisodeSpec::nominal(Location::newark());
        let mut seen = vec![base.digest()];
        let variants = [
            EpisodeSpec { start_day: 151, ..base.clone() },
            EpisodeSpec { horizon_days: 2, ..base.clone() },
            EpisodeSpec {
                decision_period: SimDuration::from_minutes(30),
                ..base.clone()
            },
            EpisodeSpec::seeded(Location::newark(), 9),
            EpisodeSpec {
                scenario: Scenario {
                    fault: FaultSpec::random(3, 2.0),
                    ..base.scenario.clone()
                },
                ..base.clone()
            },
        ];
        for v in variants {
            let d = v.digest();
            assert!(!seen.contains(&d), "digest collision");
            seen.push(d);
        }
    }

    #[test]
    fn validate_rejects_bad_specs() {
        let mut spec = EpisodeSpec::nominal(Location::newark());
        spec.horizon_days = 0;
        assert!(spec.validate().is_err());
        let mut spec = EpisodeSpec::nominal(Location::newark());
        spec.start_day = 365;
        assert!(spec.validate().is_err());
        let mut spec = EpisodeSpec::nominal(Location::newark());
        spec.decision_period = SimDuration::from_secs(20); // not a 15 s multiple
        assert!(spec.validate().is_err());
        assert!(EpisodeSpec::nominal(Location::newark()).validate().is_ok());
    }

    #[test]
    fn baseline_actions_produce_sane_trajectory() {
        let spec = hourly_spec(Location::newark());
        let traj = run_fixed(&spec, &Action::baseline(64));
        assert_eq!(traj.len() as u64, spec.steps());
        assert_eq!(traj.len(), 24);
        assert!(traj.iter().take(23).all(|s| !s.done));
        assert!(traj.last().unwrap().done);
        let total_kwh: f64 = traj.iter().map(|s| s.reward.energy_kwh).sum();
        assert!(total_kwh > 10.0, "a loaded day costs energy, got {total_kwh} kWh");
        for s in &traj {
            assert!(s.reward.violation_cmin >= 0.0);
            assert!(s.observation.max_inlet_c > 0.0 && s.observation.max_inlet_c < 60.0);
        }
    }

    #[test]
    fn same_spec_and_actions_give_byte_identical_trajectories() {
        let spec = EpisodeSpec {
            scenario: Scenario {
                fault: FaultSpec::random(7, 1.5),
                ..Scenario::nominal(Location::newark())
            },
            ..hourly_spec(Location::newark())
        };
        // A varying action sequence, fixed up front.
        let actions: Vec<Action> = (0..spec.steps())
            .map(|i| Action {
                setpoint_c: 26.0 + (i % 5) as f64,
                active_servers: 8 + (i as usize * 7) % 57,
            })
            .collect();
        let run = || {
            let mut ep = Episode::new(&spec).unwrap();
            let mut out = Vec::new();
            for a in &actions {
                out.push(ep.step(a).unwrap());
            }
            serde_json::to_string(&out).unwrap()
        };
        assert_eq!(run(), run(), "trajectories must be byte-identical");
    }

    #[test]
    fn observe_is_idempotent() {
        let spec = hourly_spec(Location::newark());
        let mut ep = Episode::new(&spec).unwrap();
        let a = ep.observe().clone();
        let b = ep.observe().clone();
        assert_eq!(a, b);
        let step = ep.step(&Action::baseline(64)).unwrap();
        assert_eq!(&step.observation, ep.observe());
    }

    #[test]
    fn colder_setpoint_spends_more_cooling_energy() {
        let spec = hourly_spec(Location::chad()); // hot climate: the AC works
        let cold = run_fixed(&spec, &Action { setpoint_c: 24.0, active_servers: 64 });
        let warm = run_fixed(&spec, &Action { setpoint_c: 34.0, active_servers: 64 });
        let cold_kwh: f64 = cold.iter().map(|s| s.reward.energy_kwh).sum();
        let warm_kwh: f64 = warm.iter().map(|s| s.reward.energy_kwh).sum();
        assert!(
            cold_kwh > warm_kwh,
            "24 °C setpoint should cost more than 34 °C ({cold_kwh} vs {warm_kwh} kWh)"
        );
    }

    #[test]
    fn stepping_a_done_episode_errors() {
        let spec = hourly_spec(Location::newark());
        let mut ep = Episode::new(&spec).unwrap();
        while !ep.is_done() {
            ep.step(&Action::baseline(64)).unwrap();
        }
        assert!(ep.step(&Action::baseline(64)).is_err());
    }

    #[test]
    fn multi_day_episode_spans_and_loads_every_day() {
        let spec = EpisodeSpec {
            horizon_days: 2,
            decision_period: SimDuration::from_minutes(240),
            ..EpisodeSpec::nominal(Location::newark())
        };
        let traj = run_fixed(&spec, &Action::baseline(64));
        assert_eq!(traj.len(), 12, "2 days / 4 h windows");
        // Both days carry workload: IT energy flows in late windows too.
        let late_kwh: f64 = traj[6..].iter().map(|s| s.reward.energy_kwh).sum();
        assert!(late_kwh > 5.0, "day 2 must be loaded, got {late_kwh} kWh");
    }

    /// The module doc's claim: a 30 °C / all-servers policy reproduces the
    /// baseline. The episode sums its rewards per decision window and the
    /// engine sums the whole day at once, so only the summation order may
    /// differ.
    #[test]
    fn baseline_action_episode_reproduces_the_engine_baseline_day() {
        use crate::annual::{run_days_traced, SystemSpec};
        let close = |a: f64, b: f64| (a - b).abs() <= 1e-12 * a.abs().max(b.abs());
        for (location, day) in
            [(Location::newark(), 150), (Location::chad(), 120), (Location::iceland(), 30)]
        {
            let spec = EpisodeSpec { start_day: day, ..EpisodeSpec::nominal(location.clone()) };
            let mut ep = Episode::new(&spec).unwrap();
            while !ep.is_done() {
                ep.step(&Action::baseline(ep.total_servers())).unwrap();
            }
            let engine = run_days_traced(
                &SystemSpec::Baseline,
                &location,
                spec.scenario.trace,
                &spec.effective_annual(),
                None,
                &[day],
                coolair_telemetry::Telemetry::disabled(),
            );
            let want = &engine.days()[0];
            let got = ep.total_reward();
            let name = location.name();
            assert!(
                close(got.violation_cmin, want.violation_sum),
                "{name}: violation {} vs {}",
                got.violation_cmin,
                want.violation_sum
            );
            assert!(close(ep.cooling_kwh(), want.cooling_kwh), "{name}: cooling kWh");
            assert!(close(ep.it_kwh(), want.it_kwh), "{name}: IT kWh");
            assert!(
                close(got.energy_kwh, want.cooling_kwh + want.it_kwh),
                "{name}: energy {} vs {}",
                got.energy_kwh,
                want.cooling_kwh + want.it_kwh
            );
        }
    }

    #[test]
    fn reward_comparison_is_lexicographic() {
        let a = Reward { violation_cmin: 1.0, energy_kwh: 100.0 };
        let b = Reward { violation_cmin: 2.0, energy_kwh: 1.0 };
        assert!(a.better_than(&b));
        assert!(!b.better_than(&a));
        let c = Reward { violation_cmin: 1.0, energy_kwh: 99.0 };
        assert!(c.better_than(&a));
        assert!(!a.better_than(&a), "a tie is not an improvement");
    }
}
