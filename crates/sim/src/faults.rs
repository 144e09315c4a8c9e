//! Seeded, deterministic fault injection for the closed-loop simulator.
//!
//! A [`FaultPlan`] schedules sensor faults (dropout, stuck-at, drift,
//! Gaussian noise), actuator faults (fan stuck at a speed, AC compressor
//! lockout, damper jam) and forecast-service failures as time windows over
//! the simulated year. The engine threads the plan through
//! [`crate::Simulation::run_day`] so that every controller under test sees
//! the *same* corrupted world:
//!
//! - sensor faults corrupt only the controller-facing snapshots; metrics
//!   keep reading plant ground truth, so violation numbers measure what the
//!   room actually did, not what the broken sensor claimed;
//! - actuator faults map the *commanded* regime to the *actual* regime just
//!   before the physics step, so a controller that commands free cooling
//!   with a jammed damper really gets a closed container;
//! - forecast faults become [`ForecastGlitch`] entries applied by
//!   [`coolair_weather::Forecaster::with_glitches`].
//!
//! Everything is a pure function of the plan's seed and simulation time —
//! noise in particular does not depend on how often or in which order
//! readings are taken — so a fixed seed reproduces the exact same year.
//! [`FaultPlan::none`] is guaranteed zero-cost: with an empty plan every
//! code path returns its input untouched.

use coolair_runner::SplitMix64;
use coolair_thermal::{CoolingRegime, SensorReadings};
use coolair_units::{Celsius, FanSpeed, SimDuration, SimTime, TempDelta, SECS_PER_DAY};
use coolair_weather::{ForecastGlitch, GlitchKind};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use serde::{Deserialize, Serialize};

/// A fault of one pod-inlet sensor.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum SensorFault {
    /// The sensor stops reporting. The monitoring layer holds the last
    /// value received (stale-hold) — which is exactly how polled sensor
    /// stacks fail in practice, and what staleness validation must catch.
    Dropout,
    /// The sensor reports a constant value, °C.
    StuckAt(f64),
    /// Miscalibration that grows linearly while the fault is active.
    Drift {
        /// Offset growth rate, °C per hour since the window opened.
        c_per_hour: f64,
    },
    /// Zero-mean Gaussian noise added to every reading.
    Noise {
        /// Noise standard deviation, °C.
        std_c: f64,
    },
}

/// A fault of the cooling actuators.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum ActuatorFault {
    /// The free-cooling fan is mechanically stuck: any free-cooling command
    /// runs at this speed instead of the commanded one.
    FanStuck {
        /// The speed the fan is stuck at.
        fan: FanSpeed,
    },
    /// The AC compressor refuses to start (lockout): AC commands degrade to
    /// fan-only operation.
    AcLockout,
    /// The outside-air damper is jammed shut: free-cooling commands degrade
    /// to a closed container.
    DamperJam,
}

/// What a [`FaultWindow`] injects.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum FaultKind {
    /// A sensor fault on one pod's inlet sensor.
    Sensor {
        /// Index of the affected pod.
        pod: usize,
        /// The fault.
        fault: SensorFault,
    },
    /// An actuator fault (affects whatever regime is commanded).
    Actuator(ActuatorFault),
    /// A forecast-service failure covering the window's days.
    Forecast(GlitchKind),
}

impl std::fmt::Display for SensorFault {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SensorFault::Dropout => write!(f, "dropout"),
            SensorFault::StuckAt(v) => write!(f, "stuck@{v:.1}C"),
            SensorFault::Drift { c_per_hour } => write!(f, "drift {c_per_hour:+.1}C/h"),
            SensorFault::Noise { std_c } => write!(f, "noise σ={std_c:.1}C"),
        }
    }
}

impl std::fmt::Display for ActuatorFault {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ActuatorFault::FanStuck { fan } => write!(f, "fan stuck@{fan}"),
            ActuatorFault::AcLockout => write!(f, "AC lockout"),
            ActuatorFault::DamperJam => write!(f, "damper jam"),
        }
    }
}

impl std::fmt::Display for FaultKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FaultKind::Sensor { pod, fault } => write!(f, "sensor[{pod}]: {fault}"),
            FaultKind::Actuator(a) => write!(f, "actuator: {a}"),
            FaultKind::Forecast(g) => write!(f, "forecast: {g:?}"),
        }
    }
}

/// One scheduled fault: a kind active over `[start, end)`.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct FaultWindow {
    /// When the fault appears.
    pub start: SimTime,
    /// When the fault clears (exclusive).
    pub end: SimTime,
    /// What it injects.
    pub kind: FaultKind,
}

impl FaultWindow {
    /// `true` while the fault is active.
    #[must_use]
    pub fn covers(&self, t: SimTime) -> bool {
        self.start <= t && t < self.end
    }
}

/// Expected fault load used by [`FaultPlan::random`].
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct FaultRates {
    /// Expected sensor-fault windows per simulated day.
    pub sensor_per_day: f64,
    /// Expected actuator-fault windows per simulated day.
    pub actuator_per_day: f64,
    /// Probability that a day's forecast is glitched.
    pub forecast_per_day: f64,
    /// Shortest fault window.
    pub min_duration: SimDuration,
    /// Longest fault window.
    pub max_duration: SimDuration,
}

impl Default for FaultRates {
    fn default() -> Self {
        FaultRates {
            sensor_per_day: 1.0,
            actuator_per_day: 0.25,
            forecast_per_day: 0.1,
            min_duration: SimDuration::from_minutes(30),
            max_duration: SimDuration::from_hours(4),
        }
    }
}

impl FaultRates {
    /// The default rates scaled by `factor` (the escalation knob of the
    /// fault benches; 0 yields a plan with no windows).
    #[must_use]
    pub fn scaled(factor: f64) -> Self {
        let base = FaultRates::default();
        FaultRates {
            sensor_per_day: base.sensor_per_day * factor,
            actuator_per_day: base.actuator_per_day * factor,
            forecast_per_day: (base.forecast_per_day * factor).min(1.0),
            ..base
        }
    }
}

/// The *generating parameters* of a fault schedule — the serializable
/// spec from which [`FaultSpec::schedule`] derives a concrete
/// [`FaultPlan`].
///
/// A [`FaultPlan`] is an extensional artifact (the full window list); the
/// spec is intensional (seed + severity + any hand-built windows). Both
/// round-trip through serde, and `spec → schedule → spec` is lossless:
/// scheduling never mutates the spec, so a scenario stored as a spec
/// reproduces the exact same plan on any later run — the property that
/// makes scenarios content-addressable artifacts rather than
/// seed-plus-folklore.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct FaultSpec {
    /// Seed of the generated windows (and of noise faults).
    pub seed: u64,
    /// Severity factor applied to [`FaultRates::default`] via
    /// [`FaultRates::scaled`]; `0.0` generates nothing.
    pub severity: f64,
    /// Hand-built windows appended after the generated ones (targeted
    /// drills on top of background fault load).
    pub extra: Vec<FaultWindow>,
}

impl FaultSpec {
    /// The empty spec: schedules nothing.
    #[must_use]
    pub fn none() -> Self {
        FaultSpec::default()
    }

    /// A purely random spec at one severity.
    #[must_use]
    pub fn random(seed: u64, severity: f64) -> Self {
        FaultSpec { seed, severity, extra: Vec::new() }
    }

    /// Materialises the schedule for the given simulated days: the
    /// generated windows of [`FaultPlan::random`] plus the `extra` windows,
    /// a pure function of `(self, days, pods)`.
    #[must_use]
    pub fn schedule(&self, days: &[u64], pods: usize) -> FaultPlan {
        let mut plan = if self.severity > 0.0 {
            FaultPlan::random(self.seed, &FaultRates::scaled(self.severity), days, pods)
        } else {
            FaultPlan::with_seed(self.seed)
        };
        for w in &self.extra {
            plan = plan.with_window(*w);
        }
        plan
    }
}

/// A deterministic schedule of fault windows for a simulated year.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct FaultPlan {
    seed: u64,
    windows: Vec<FaultWindow>,
}

impl FaultPlan {
    /// The empty plan: injects nothing and costs nothing.
    #[must_use]
    pub fn none() -> Self {
        FaultPlan::default()
    }

    /// An empty plan carrying a seed (for hand-built schedules that use
    /// noise faults).
    #[must_use]
    pub fn with_seed(seed: u64) -> Self {
        FaultPlan { seed, windows: Vec::new() }
    }

    /// Adds one window (builder style).
    #[must_use]
    pub fn with_window(mut self, window: FaultWindow) -> Self {
        self.windows.push(window);
        self
    }

    /// Generates a random plan over the given simulated days. The schedule
    /// for a day depends only on `(seed, rates, day, pods)` — the same seed
    /// always yields the same plan, and adding days to the list never
    /// changes the windows of the days already present.
    #[must_use]
    pub fn random(seed: u64, rates: &FaultRates, days: &[u64], pods: usize) -> Self {
        let mut windows = Vec::new();
        let min_s = rates.min_duration.as_secs().max(60);
        let max_s = rates.max_duration.as_secs().max(min_s);
        for &day in days {
            let mut rng = StdRng::seed_from_u64(seed ^ day.wrapping_mul(0x9e37_79b9_7f4a_7c15));
            let day_start = day * SECS_PER_DAY;
            let window = |rng: &mut StdRng, kind: FaultKind| {
                let start = day_start + rng.gen_range(0..SECS_PER_DAY);
                let dur = rng.gen_range(min_s..=max_s);
                FaultWindow {
                    start: SimTime::from_secs(start),
                    end: SimTime::from_secs(start + dur),
                    kind,
                }
            };
            for _ in 0..sample_count(&mut rng, rates.sensor_per_day) {
                let pod = rng.gen_range(0..pods.max(1));
                let fault = match rng.gen_range(0..4u32) {
                    0 => SensorFault::Dropout,
                    1 => SensorFault::StuckAt(rng.gen_range(10.0..45.0)),
                    2 => {
                        // Drift away from zero in either direction.
                        let rate = rng.gen_range(0.5..3.0);
                        SensorFault::Drift {
                            c_per_hour: if rng.gen_bool(0.5) { rate } else { -rate },
                        }
                    }
                    _ => SensorFault::Noise { std_c: rng.gen_range(0.5..3.0) },
                };
                windows.push(window(&mut rng, FaultKind::Sensor { pod, fault }));
            }
            for _ in 0..sample_count(&mut rng, rates.actuator_per_day) {
                let fault = match rng.gen_range(0..3u32) {
                    0 => ActuatorFault::FanStuck { fan: FanSpeed::saturating(rng.gen_range(0.15..1.0)) },
                    1 => ActuatorFault::AcLockout,
                    _ => ActuatorFault::DamperJam,
                };
                windows.push(window(&mut rng, FaultKind::Actuator(fault)));
            }
            if rates.forecast_per_day > 0.0 && rng.gen_bool(rates.forecast_per_day.min(1.0)) {
                let kind = if rng.gen_bool(0.5) {
                    GlitchKind::Outage
                } else {
                    GlitchKind::Degraded {
                        bias: rng.gen_range(-8.0..8.0),
                        noise_std: rng.gen_range(0.0..3.0),
                    }
                };
                windows.push(FaultWindow {
                    start: SimTime::from_days(day),
                    end: SimTime::from_days(day + 1),
                    kind: FaultKind::Forecast(kind),
                });
            }
        }
        FaultPlan { seed, windows }
    }

    /// The plan's seed.
    #[must_use]
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// The scheduled windows.
    #[must_use]
    pub fn windows(&self) -> &[FaultWindow] {
        &self.windows
    }

    /// `true` when the plan injects nothing.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.windows.is_empty()
    }

    /// `true` if any window is active at `t`.
    #[must_use]
    pub fn any_active(&self, t: SimTime) -> bool {
        self.windows.iter().any(|w| w.covers(t))
    }

    /// The forecast-service failures this plan schedules, one entry per
    /// affected day (the first window claiming a day wins).
    #[must_use]
    pub fn forecast_glitches(&self) -> Vec<ForecastGlitch> {
        let mut out: Vec<ForecastGlitch> = Vec::new();
        for w in &self.windows {
            if let FaultKind::Forecast(kind) = w.kind {
                let last = w.end.as_secs().saturating_sub(1) / SECS_PER_DAY;
                for day in w.start.day_index()..=last {
                    if !out.iter().any(|g| g.day == day) {
                        out.push(ForecastGlitch { day, kind });
                    }
                }
            }
        }
        out
    }

    /// Applies the sensor faults active at `truth.time` to a ground-truth
    /// snapshot, producing what the controller gets to see. `last_clean`
    /// carries the most recent pre-fault value of each pod sensor across
    /// calls (the stale-hold buffer for dropout); the engine owns it and
    /// passes it back on every call.
    #[must_use]
    pub fn corrupt_readings(
        &self,
        truth: SensorReadings,
        last_clean: &mut Vec<Celsius>,
    ) -> SensorReadings {
        if self.windows.is_empty() {
            return truth;
        }
        let mut r = truth;
        let t = r.time;
        let pods = r.pod_inlets.len();
        if last_clean.len() != pods {
            *last_clean = r.pod_inlets.clone();
        }
        // Stale-hold first: a dropped-out sensor repeats its last clean
        // value; everyone else refreshes the buffer.
        let mut dropped = vec![false; pods];
        for w in self.windows.iter().filter(|w| w.covers(t)) {
            if let FaultKind::Sensor { pod, fault: SensorFault::Dropout } = w.kind {
                if pod < pods {
                    dropped[pod] = true;
                }
            }
        }
        for p in 0..pods {
            if dropped[p] {
                r.pod_inlets[p] = last_clean[p];
            } else {
                last_clean[p] = r.pod_inlets[p];
            }
        }
        // Value corruption on the sensors that still report.
        for w in self.windows.iter().filter(|w| w.covers(t)) {
            let FaultKind::Sensor { pod, fault } = w.kind else { continue };
            if pod >= pods || dropped[pod] {
                continue;
            }
            match fault {
                SensorFault::Dropout => {}
                SensorFault::StuckAt(v) => r.pod_inlets[pod] = Celsius::new(v),
                SensorFault::Drift { c_per_hour } => {
                    let hours = t.saturating_since(w.start).as_hours_f64();
                    r.pod_inlets[pod] += TempDelta::new(c_per_hour * hours);
                }
                SensorFault::Noise { std_c } => {
                    let g = unit_gaussian(self.seed, t, pod);
                    r.pod_inlets[pod] += TempDelta::new(std_c * g);
                }
            }
        }
        r
    }

    /// Maps the commanded cooling regime to what the (possibly broken)
    /// actuators actually do at `t`.
    #[must_use]
    pub fn apply_actuator(&self, t: SimTime, commanded: CoolingRegime) -> CoolingRegime {
        if self.windows.is_empty() {
            return commanded;
        }
        let mut actual = commanded;
        for w in self.windows.iter().filter(|w| w.covers(t)) {
            let FaultKind::Actuator(fault) = w.kind else { continue };
            actual = match (fault, actual) {
                (ActuatorFault::FanStuck { fan }, CoolingRegime::FreeCooling { .. }) => {
                    CoolingRegime::FreeCooling { fan }
                }
                (ActuatorFault::AcLockout, CoolingRegime::Ac { .. }) => {
                    CoolingRegime::ac_fan_only()
                }
                (ActuatorFault::DamperJam, CoolingRegime::FreeCooling { .. }) => {
                    CoolingRegime::Closed
                }
                (_, unchanged) => unchanged,
            };
        }
        actual
    }
}

/// Expected-count sampling: `floor(rate)` plus one more with probability
/// `fract(rate)`.
fn sample_count(rng: &mut StdRng, rate: f64) -> u64 {
    if rate <= 0.0 {
        return 0;
    }
    let base = rate.floor();
    let extra = u64::from(rng.gen_bool((rate - base).clamp(0.0, 1.0)));
    base as u64 + extra
}

/// A standard-normal draw that is a pure function of `(seed, time, pod)` —
/// SplitMix64 finalisation into a Box–Muller transform — so noise does not
/// depend on how many times or in what order readings are taken.
fn unit_gaussian(seed: u64, t: SimTime, pod: usize) -> f64 {
    let h0 = SplitMix64::new(seed ^ t.as_secs().wrapping_mul(0x2545_f491_4f6c_dd1d) ^ pod as u64)
        .next_u64();
    let h1 = SplitMix64::new(h0).next_u64();
    // Two uniforms in (0, 1]; u1 bounded away from 0 for the log.
    let u1 = ((h0 >> 11) as f64 + 1.0) / (1u64 << 53) as f64;
    let u2 = (h1 >> 11) as f64 / (1u64 << 53) as f64;
    (-2.0 * u1.ln()).sqrt() * (2.0 * std::f64::consts::PI * u2).cos()
}

#[cfg(test)]
mod tests {
    use super::*;
    use coolair_units::{AbsoluteHumidity, RelativeHumidity, Watts};

    fn snapshot(t: SimTime, inlets: &[f64]) -> SensorReadings {
        SensorReadings {
            time: t,
            outside_temp: Celsius::new(10.0),
            outside_rh: RelativeHumidity::new(50.0),
            outside_abs: AbsoluteHumidity::new(4.0),
            pod_inlets: inlets.iter().map(|&v| Celsius::new(v)).collect(),
            cold_aisle_rh: RelativeHumidity::new(45.0),
            cold_aisle_abs: AbsoluteHumidity::new(6.0),
            hot_aisle: Celsius::new(30.0),
            disk_temps: vec![Celsius::new(34.0); inlets.len()],
            regime: CoolingRegime::Closed,
            cooling_power: Watts::ZERO,
            it_power: Watts::new(500.0),
            active_fraction: 0.5,
        }
    }

    fn window(start_min: u64, end_min: u64, kind: FaultKind) -> FaultWindow {
        FaultWindow {
            start: SimTime::from_secs(start_min * 60),
            end: SimTime::from_secs(end_min * 60),
            kind,
        }
    }

    #[test]
    fn empty_plan_is_identity() {
        let plan = FaultPlan::none();
        assert!(plan.is_empty());
        let mut stale = Vec::new();
        let t = SimTime::from_secs(600);
        let truth = snapshot(t, &[24.0, 25.0, 23.0, 26.0]);
        assert_eq!(plan.corrupt_readings(truth.clone(), &mut stale), truth);
        assert!(stale.is_empty(), "no state touched");
        assert_eq!(plan.apply_actuator(t, CoolingRegime::ac_on()), CoolingRegime::ac_on());
        assert!(plan.forecast_glitches().is_empty());
    }

    #[test]
    fn dropout_holds_last_clean_value() {
        let plan = FaultPlan::none().with_window(window(
            10,
            100,
            FaultKind::Sensor { pod: 1, fault: SensorFault::Dropout },
        ));
        let mut stale = Vec::new();
        // Before the fault: readings flow, buffer fills.
        let before = plan.corrupt_readings(snapshot(SimTime::from_secs(300), &[24.0, 25.0, 23.0, 26.0]), &mut stale);
        assert_eq!(before.pod_inlets[1], Celsius::new(25.0));
        // During: pod 1 freezes at its last clean value while truth moves.
        let during = plan.corrupt_readings(snapshot(SimTime::from_secs(1200), &[24.5, 29.0, 23.5, 26.5]), &mut stale);
        assert_eq!(during.pod_inlets[1], Celsius::new(25.0), "stale-hold");
        assert_eq!(during.pod_inlets[0], Celsius::new(24.5), "others untouched");
        // After: live again.
        let after = plan.corrupt_readings(snapshot(SimTime::from_secs(6060), &[24.0, 28.0, 23.0, 26.0]), &mut stale);
        assert_eq!(after.pod_inlets[1], Celsius::new(28.0));
    }

    #[test]
    fn stuck_drift_and_noise_corrupt_values() {
        let plan = FaultPlan::with_seed(3)
            .with_window(window(0, 600, FaultKind::Sensor { pod: 0, fault: SensorFault::StuckAt(40.0) }))
            .with_window(window(
                0,
                600,
                FaultKind::Sensor { pod: 1, fault: SensorFault::Drift { c_per_hour: 2.0 } },
            ))
            .with_window(window(
                0,
                600,
                FaultKind::Sensor { pod: 2, fault: SensorFault::Noise { std_c: 1.0 } },
            ));
        let mut stale = Vec::new();
        // 30 minutes in: drift has accumulated 1 °C.
        let t = SimTime::from_secs(1800);
        let r = plan.corrupt_readings(snapshot(t, &[24.0, 24.0, 24.0, 24.0]), &mut stale);
        assert_eq!(r.pod_inlets[0], Celsius::new(40.0));
        assert!((r.pod_inlets[1].value() - 25.0).abs() < 1e-12);
        assert!((r.pod_inlets[2].value() - 24.0).abs() > 1e-9, "noise moved the value");
        assert_eq!(r.pod_inlets[3], Celsius::new(24.0));
        // Noise is a pure function of (seed, t, pod): same call, same value.
        let mut stale2 = Vec::new();
        let r2 = plan.corrupt_readings(snapshot(t, &[24.0, 24.0, 24.0, 24.0]), &mut stale2);
        assert_eq!(r.pod_inlets[2], r2.pod_inlets[2]);
    }

    #[test]
    fn actuator_faults_degrade_commands() {
        let t = SimTime::from_secs(60);
        let jam = FaultPlan::none().with_window(window(0, 10, FaultKind::Actuator(ActuatorFault::DamperJam)));
        assert_eq!(
            jam.apply_actuator(t, CoolingRegime::free_cooling(FanSpeed::MAX)),
            CoolingRegime::Closed
        );
        assert_eq!(jam.apply_actuator(t, CoolingRegime::ac_on()), CoolingRegime::ac_on());

        let lockout = FaultPlan::none().with_window(window(0, 10, FaultKind::Actuator(ActuatorFault::AcLockout)));
        assert_eq!(lockout.apply_actuator(t, CoolingRegime::ac_on()), CoolingRegime::ac_fan_only());

        let stuck = FaultPlan::none().with_window(window(
            0,
            10,
            FaultKind::Actuator(ActuatorFault::FanStuck { fan: FanSpeed::PARASOL_MIN }),
        ));
        assert_eq!(
            stuck.apply_actuator(t, CoolingRegime::free_cooling(FanSpeed::MAX)),
            CoolingRegime::free_cooling(FanSpeed::PARASOL_MIN)
        );
        // Outside the window nothing applies.
        let late = SimTime::from_secs(1200);
        assert_eq!(
            stuck.apply_actuator(late, CoolingRegime::free_cooling(FanSpeed::MAX)),
            CoolingRegime::free_cooling(FanSpeed::MAX)
        );
    }

    #[test]
    fn random_plans_are_deterministic_and_seed_sensitive() {
        let rates = FaultRates::default();
        let days: Vec<u64> = (0..365).step_by(7).collect();
        let a = FaultPlan::random(11, &rates, &days, 4);
        let b = FaultPlan::random(11, &rates, &days, 4);
        assert_eq!(a, b);
        assert!(!a.is_empty());
        let c = FaultPlan::random(12, &rates, &days, 4);
        assert_ne!(a, c);
        // Day schedules are independent of the day list.
        let d = FaultPlan::random(11, &rates, &[14], 4);
        let day14 = |p: &FaultPlan| -> Vec<FaultWindow> {
            p.windows().iter().copied().filter(|w| w.start.day_index() == 14).collect()
        };
        assert_eq!(day14(&a), day14(&d));
    }

    #[test]
    fn scaled_zero_rates_yield_empty_plans() {
        let days: Vec<u64> = (0..365).step_by(7).collect();
        let plan = FaultPlan::random(5, &FaultRates::scaled(0.0), &days, 4);
        assert!(plan.is_empty());
    }

    #[test]
    fn fault_spec_schedules_deterministically_and_appends_extras() {
        let days: Vec<u64> = (0..365).step_by(30).collect();
        let drill = window(10, 100, FaultKind::Actuator(ActuatorFault::DamperJam));
        let spec = FaultSpec { seed: 7, severity: 1.5, extra: vec![drill] };
        let a = spec.schedule(&days, 4);
        let b = spec.schedule(&days, 4);
        assert_eq!(a, b, "scheduling is pure");
        assert_eq!(a.seed(), 7);
        assert_eq!(*a.windows().last().unwrap(), drill, "extras ride at the end");
        // Zero severity keeps only the extras (and the seed for noise).
        let quiet = FaultSpec { severity: 0.0, ..spec.clone() };
        assert_eq!(quiet.schedule(&days, 4).windows().len(), 1);
        assert!(FaultSpec::none().schedule(&days, 4).is_empty());
        // The spec itself round-trips through serde untouched.
        let json = serde_json::to_string(&spec).unwrap();
        let back: FaultSpec = serde_json::from_str(&json).unwrap();
        assert_eq!(back, spec);
        assert_eq!(back.schedule(&days, 4), a);
    }

    #[test]
    fn forecast_windows_become_glitches() {
        let plan = FaultPlan::none().with_window(FaultWindow {
            start: SimTime::from_days(10),
            end: SimTime::from_days(12),
            kind: FaultKind::Forecast(GlitchKind::Outage),
        });
        let glitches = plan.forecast_glitches();
        assert_eq!(glitches.len(), 2);
        assert_eq!(glitches[0].day, 10);
        assert_eq!(glitches[1].day, 11);
    }
}
