//! The closed-loop day simulator shared by Real-Sim and Smooth-Sim.

use std::collections::VecDeque;

use coolair::{CoolAir, SupervisedCoolAir, SupervisorTelemetry};
use coolair_telemetry::{Event, Telemetry, TEMP_BOUNDS_C};
use coolair_thermal::{
    CoolingRegime, ItLoad, OutsideConditions, Plant, PlantConfig, SensorReadings, TksController,
};
use coolair_units::{Celsius, RelativeHumidity, SimDuration, SimTime, Watts, SECS_PER_HOUR};
use coolair_weather::TmySeries;
use coolair_workload::{Cluster, Job};
use serde::{Deserialize, Serialize};

use crate::faults::FaultPlan;
use crate::metrics::DayRecord;

/// Anything that behaves like the container: the physics [`Plant`] or the
/// learned-model simulator [`crate::ModelPlant`] (the paper's Real-Sim).
pub trait Container: std::fmt::Debug {
    /// Advances the container by `dt`.
    fn step(
        &mut self,
        dt: SimDuration,
        outside: OutsideConditions,
        it: &ItLoad,
        commanded: CoolingRegime,
    );
    /// Sensor snapshot.
    fn readings(&self, now: SimTime) -> SensorReadings;
    /// Pod inlet temperatures (°C) and the cold-aisle relative humidity:
    /// the snapshot's `pod_inlets` and `cold_aisle_rh`, the two fields the
    /// per-minute metrics sample, without building the rest of it.
    fn inlets_and_rh(&self) -> (&[f64], RelativeHumidity);
    /// Cooling power drawn in the applied regime (the snapshot's
    /// `cooling_power`).
    fn cooling_power(&self) -> Watts;
    /// Number of pod sensors.
    fn pods(&self) -> usize;
}

impl Container for Plant {
    fn step(
        &mut self,
        dt: SimDuration,
        outside: OutsideConditions,
        it: &ItLoad,
        commanded: CoolingRegime,
    ) {
        Plant::step(self, dt, outside, it, commanded);
    }
    fn readings(&self, now: SimTime) -> SensorReadings {
        Plant::readings(self, now)
    }
    fn inlets_and_rh(&self) -> (&[f64], RelativeHumidity) {
        Plant::inlets_and_rh(self)
    }
    fn cooling_power(&self) -> Watts {
        Plant::cooling_power(self)
    }
    fn pods(&self) -> usize {
        self.config().layout.len()
    }
}

impl Container for crate::ModelPlant {
    fn step(
        &mut self,
        dt: SimDuration,
        outside: OutsideConditions,
        it: &ItLoad,
        commanded: CoolingRegime,
    ) {
        crate::ModelPlant::step(self, dt, outside, it, commanded);
    }
    fn readings(&self, now: SimTime) -> SensorReadings {
        crate::ModelPlant::readings(self, now)
    }
    fn inlets_and_rh(&self) -> (&[f64], RelativeHumidity) {
        crate::ModelPlant::inlets_and_rh(self)
    }
    fn cooling_power(&self) -> Watts {
        crate::ModelPlant::cooling_power(self)
    }
    fn pods(&self) -> usize {
        crate::ModelPlant::pods(self)
    }
}

/// Engine parameters.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SimConfig {
    /// Plant integration step.
    pub physics_step: SimDuration,
    /// Metrics sampling period.
    pub sample_period: SimDuration,
    /// How often CoolAir observes sensor snapshots (its model step).
    pub observe_period: SimDuration,
    /// Baseline (TKS) decision period. The paper's Real-Sim evaluates the
    /// baseline at the same 10-minute granularity as CoolAir, which is what
    /// produces the documented overshoot behaviour of the abrupt units.
    pub baseline_control: SimDuration,
    /// Cluster/compute management period.
    pub compute_period: SimDuration,
    /// Desired maximum temperature for the violation metric (30 °C in
    /// Figure 8).
    pub desired_max: Celsius,
    /// Record per-minute samples for plotting (Figures 6/7); costs memory.
    pub record_minutes: bool,
    /// Hours of unrecorded warm-up simulated before each day's midnight.
    pub warmup_hours: u64,
}

impl Default for SimConfig {
    fn default() -> Self {
        SimConfig {
            physics_step: SimDuration::from_secs(15),
            sample_period: SimDuration::from_secs(60),
            observe_period: SimDuration::from_minutes(2),
            baseline_control: SimDuration::from_minutes(10),
            compute_period: SimDuration::from_secs(60),
            desired_max: Celsius::new(30.0),
            record_minutes: false,
            warmup_hours: 3,
        }
    }
}

/// The IT load the cluster presents to the plant. It changes only when the
/// cluster does (in the compute-management block), so the day loops
/// refresh it there, in place, rather than at every physics step.
pub(crate) fn it_load(cluster: &Cluster) -> ItLoad {
    let mut it = ItLoad { pod_power: Vec::new(), active_fraction: 0.0 };
    refresh_it_load(cluster, &mut it);
    it
}

/// Rewrites `it` to the load `cluster` presents now, reusing its buffer.
pub(crate) fn refresh_it_load(cluster: &Cluster, it: &mut ItLoad) {
    cluster.write_pod_power(&mut it.pod_power);
    it.active_fraction = cluster.active_fraction();
}

/// The last hour of per-minute pod inlet samples, for the rate-of-change
/// metric: `slots × pods` readings in one array, oldest sample at `head`.
#[derive(Debug)]
struct HourRing {
    samples: Vec<f64>,
    pods: usize,
    slots: usize,
    head: usize,
    len: usize,
}

impl HourRing {
    fn new(slots: usize, pods: usize) -> Self {
        HourRing { samples: vec![0.0; slots * pods], pods, slots, head: 0, len: 0 }
    }

    /// Records `temps` and returns the largest absolute change of any pod
    /// against the sample it evicts (0 until the hour has filled).
    fn push(&mut self, temps: &[f64]) -> f64 {
        if self.slots == 0 {
            return 0.0;
        }
        let mut max_change = 0.0_f64;
        let slot = if self.len == self.slots {
            let oldest = self.head;
            self.head = (self.head + 1) % self.slots;
            let old = &self.samples[oldest * self.pods..(oldest + 1) * self.pods];
            for (a, b) in old.iter().zip(temps) {
                max_change = max_change.max((b - a).abs());
            }
            oldest
        } else {
            self.len += 1;
            self.len - 1
        };
        self.samples[slot * self.pods..(slot + 1) * self.pods].copy_from_slice(temps);
        max_change
    }
}

/// One per-minute sample for figure time series.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct MinuteSample {
    /// Sample time.
    pub time: SimTime,
    /// Outside temperature, °C.
    pub outside: f64,
    /// Warmest pod inlet (the TKS control sensor), °C.
    pub max_inlet: f64,
    /// Coolest pod inlet, °C.
    pub min_inlet: f64,
    /// Mean pod inlet, °C.
    pub mean_inlet: f64,
    /// Cold-aisle relative humidity, %.
    pub rh: f64,
    /// Free-cooling fan speed, % of max (0 when not free cooling).
    pub fan_pct: f64,
    /// AC compressor drive, % (0 when AC off).
    pub compressor_pct: f64,
    /// Cooling power, W.
    pub cooling_w: f64,
    /// IT power, W.
    pub it_w: f64,
    /// Servers active.
    pub active_servers: usize,
    /// The day's temperature band `(lo, hi)` if the controller has one.
    pub band: Option<(f64, f64)>,
    /// Disk temperature of the warmest pod, °C.
    pub max_disk: f64,
}

/// Output of one simulated day.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct DayOutput {
    /// Aggregated metrics.
    pub record: DayRecord,
    /// Per-minute series (empty unless `record_minutes`).
    pub minutes: Vec<MinuteSample>,
}

/// The controller under test.
#[derive(Debug)]
pub enum SimController {
    /// The baseline system: the extended TKS scheme with every server kept
    /// active (the TKS manages only the cooling regime).
    Baseline(TksController),
    /// A CoolAir version (cooling + compute management).
    CoolAir(Box<CoolAir>),
    /// A CoolAir version wrapped in the degraded-mode supervisor (sensor
    /// validation, fallback ladder, hard overtemp failsafe).
    Supervised(Box<SupervisedCoolAir>),
}

impl SimController {
    /// Human-readable name.
    #[must_use]
    pub fn name(&self) -> String {
        match self {
            SimController::Baseline(_) => "Baseline".to_string(),
            SimController::CoolAir(ca) => ca.version().name().to_string(),
            SimController::Supervised(sv) => format!("{}+SV", sv.inner().version().name()),
        }
    }
}

/// The closed-loop simulation: weather drives the plant, the cluster heats
/// it, the controller manages cooling (and, for CoolAir, the active server
/// set and job start times).
#[derive(Debug)]
pub struct Simulation<P: Container = Plant> {
    cfg: SimConfig,
    plant: P,
    cluster: Cluster,
    controller: SimController,
    tmy: TmySeries,
    regime: CoolingRegime,
    /// The day's jobs not yet submitted, in submission order.
    pending: VecDeque<Job>,
    /// The IT load the last compute block left in force.
    it: ItLoad,
    faults: FaultPlan,
    stale_inlets: Vec<Celsius>,
    telemetry: Telemetry,
    fault_active: Vec<bool>,
}

impl Simulation<Plant> {
    /// Builds a physics-backed simulation.
    #[must_use]
    pub fn new(
        controller: SimController,
        plant_config: PlantConfig,
        cluster: Cluster,
        tmy: TmySeries,
        cfg: SimConfig,
    ) -> Self {
        Simulation::with_plant(controller, Plant::new(plant_config), cluster, tmy, cfg)
    }
}

impl<P: Container> Simulation<P> {
    /// Builds a simulation over any container implementation. A CoolAir
    /// controller's server priority becomes the cluster's placement order.
    #[must_use]
    pub fn with_plant(
        controller: SimController,
        plant: P,
        mut cluster: Cluster,
        tmy: TmySeries,
        cfg: SimConfig,
    ) -> Self {
        match &controller {
            SimController::Baseline(_) => {}
            SimController::CoolAir(ca) => cluster.set_priority(ca.server_priority()),
            SimController::Supervised(sv) => cluster.set_priority(sv.inner().server_priority()),
        }
        Simulation {
            cfg,
            plant,
            it: it_load(&cluster),
            cluster,
            controller,
            tmy,
            regime: CoolingRegime::Closed,
            pending: VecDeque::new(),
            faults: FaultPlan::none(),
            stale_inlets: Vec::new(),
            telemetry: Telemetry::disabled(),
            fault_active: Vec::new(),
        }
    }

    /// Attaches a telemetry bus to the engine and its controller. Events
    /// cover day boundaries, control ticks, regime changes, controller mode
    /// changes and fault-window transitions; hot paths are profiled under
    /// the `engine.run_day`, `controller.decide` and `plant.step` scopes.
    /// Telemetry never feeds back into the loop, so an enabled bus produces
    /// bit-identical simulation results to a disabled one.
    pub fn set_telemetry(&mut self, telemetry: Telemetry) {
        match &mut self.controller {
            SimController::Baseline(tks) => tks.set_telemetry(telemetry.clone()),
            SimController::CoolAir(ca) => ca.set_telemetry(telemetry.clone()),
            SimController::Supervised(sv) => sv.set_telemetry(telemetry.clone()),
        }
        self.telemetry = telemetry;
    }

    /// Installs a fault plan. Faults corrupt what the controller senses and
    /// what its actuator commands achieve; the metrics keep sampling the
    /// plant's ground truth. [`FaultPlan::none`] (the default) leaves the
    /// loop bit-identical to a simulation without a fault layer.
    pub fn set_fault_plan(&mut self, plan: FaultPlan) {
        self.faults = plan;
        self.stale_inlets.clear();
        self.fault_active = vec![false; self.faults.windows().len()];
    }

    /// The installed fault plan.
    #[must_use]
    pub fn fault_plan(&self) -> &FaultPlan {
        &self.faults
    }

    /// The engine configuration.
    #[must_use]
    pub fn config(&self) -> &SimConfig {
        &self.cfg
    }

    /// The controller under test.
    #[must_use]
    pub fn controller(&self) -> &SimController {
        &self.controller
    }

    /// Simulates calendar day `day` with the given day-shifted jobs,
    /// returning its metrics. Includes `warmup_hours` of unrecorded
    /// simulation before midnight so the plant state matches the day's
    /// weather.
    pub fn run_day(&mut self, day: u64, jobs: Vec<Job>) -> DayOutput {
        let _day_scope = self.telemetry.time_scope("engine.run_day");
        let _guard = self.telemetry.panic_guard();
        self.telemetry.emit_with(|| Event::DayStart { day });
        let mut jobs = jobs;
        jobs.sort_by_key(|j| j.submit);
        self.pending = jobs.into();

        let midnight = SimTime::from_days(day);
        let start = SimTime::from_secs(
            midnight.as_secs().saturating_sub(self.cfg.warmup_hours * SECS_PER_HOUR),
        );
        let end = midnight + SimDuration::from_days(1);

        let pods = self.plant.pods();
        let mut sensor_min = vec![f64::INFINITY; pods];
        let mut sensor_max = vec![f64::NEG_INFINITY; pods];
        let mut violation_sum = 0.0;
        let mut readings_count = 0u64;
        let mut cooling_j = 0.0; // watt-seconds
        let mut it_j = 0.0;
        let mut rh_violations = 0u64;
        let mut rh_samples = 0u64;
        let mut minutes = Vec::new();
        let samples_per_hour = (SECS_PER_HOUR / self.cfg.sample_period.as_secs()) as usize;
        let mut hour_ring = HourRing::new(samples_per_hour, pods);
        let mut max_rate = 0.0_f64;

        let cycles_before = self.cluster.total_power_cycles();
        let jobs_before = self.cluster.completed_jobs();
        let mut fault_minutes = 0u64;
        let sv_before = match &self.controller {
            SimController::Supervised(sv) => sv.telemetry(),
            _ => SupervisorTelemetry::default(),
        };

        let dt_s = self.cfg.physics_step.as_secs() as f64;
        let mut t = start;
        while t < end {
            let in_day = t >= midnight;

            // --- compute management -----------------------------------------
            if (t % self.cfg.compute_period).is_zero() {
                self.submit_arrivals(t);
                match &mut self.controller {
                    SimController::Baseline(_) => {
                        // The baseline does no energy management: every
                        // server stays active.
                        let total = self.cluster.config().total_servers;
                        self.cluster.set_active_target(total);
                    }
                    SimController::CoolAir(ca) => {
                        let demand = self.cluster.demand(t);
                        let covering = self.cluster.config().covering_count;
                        self.cluster.set_active_target(ca.decide_compute(demand, covering));
                    }
                    SimController::Supervised(sv) => {
                        let demand = self.cluster.demand(t);
                        let covering = self.cluster.config().covering_count;
                        self.cluster.set_active_target(sv.decide_compute(demand, covering));
                    }
                }
                self.cluster.step(t, self.cfg.compute_period);
                refresh_it_load(&self.cluster, &mut self.it);
            }

            // --- sensing & control --------------------------------------------
            // Controllers sense through the fault layer; only the metrics
            // below sample the plant's ground truth. One snapshot serves an
            // instant that both observes and controls; the baseline observes
            // nothing, so between its control ticks only the fault layer's
            // stale-hold buffer follows the plant.
            let observe = (t % self.cfg.observe_period).is_zero();
            let control_period = match &self.controller {
                SimController::Baseline(_) => self.cfg.baseline_control,
                SimController::CoolAir(ca) => ca.config().control_period,
                SimController::Supervised(sv) => sv.inner().config().control_period,
            };
            let control = (t % control_period).is_zero();
            let baseline = matches!(self.controller, SimController::Baseline(_));
            if observe && !control {
                if baseline {
                    let (inlets, _) = self.plant.inlets_and_rh();
                    self.faults.refresh_stale_hold(t, inlets, &mut self.stale_inlets);
                } else {
                    let readings = self.controller_readings(t);
                    self.observe(readings);
                }
            }
            if control {
                let readings = self.controller_readings(t);
                if observe && !baseline {
                    self.observe(readings.clone());
                }
                let prev_regime = self.regime;
                self.regime = {
                    let _decide_scope = self.telemetry.time_scope("controller.decide");
                    match &mut self.controller {
                        SimController::Baseline(tks) => tks.decide(&readings),
                        SimController::CoolAir(ca) => ca
                            .decide_cooling(&readings, t)
                            .expect("cooling selection: built-in infrastructures always offer candidates")
                            .regime,
                        SimController::Supervised(sv) => sv.decide_cooling(&readings, t),
                    }
                };
                self.telemetry.emit_with(|| Event::ControlTick {
                    time: t,
                    controller: self.controller.name(),
                    regime: self.regime.to_string(),
                    max_inlet: readings.max_inlet().value(),
                    outside: readings.outside_temp.value(),
                });
                if self.regime != prev_regime {
                    self.telemetry.emit_with(|| Event::RegimeChange {
                        time: t,
                        from: prev_regime.to_string(),
                        to: self.regime.to_string(),
                    });
                }
            }

            // --- metrics -------------------------------------------------------
            if in_day && (t % self.cfg.sample_period).is_zero() {
                let (temps, rh) = self.plant.inlets_and_rh();
                for (i, &v) in temps.iter().enumerate() {
                    sensor_min[i] = sensor_min[i].min(v);
                    sensor_max[i] = sensor_max[i].max(v);
                    violation_sum += (v - self.cfg.desired_max.value()).max(0.0);
                    readings_count += 1;
                }
                if rh.percent() > 80.0 {
                    rh_violations += 1;
                }
                rh_samples += 1;
                if self.faults.any_active(t) {
                    fault_minutes += 1;
                }
                if self.telemetry.enabled() {
                    for &v in temps {
                        self.telemetry.observe("inlet_c", v, &TEMP_BOUNDS_C);
                    }
                    // Fault-window edge detection, at metrics resolution.
                    for (i, w) in self.faults.windows().iter().enumerate() {
                        let active = w.covers(t);
                        if active != self.fault_active[i] {
                            self.fault_active[i] = active;
                            let kind = w.kind.to_string();
                            self.telemetry.emit(if active {
                                Event::FaultActivated { time: t, kind }
                            } else {
                                Event::FaultCleared { time: t, kind }
                            });
                        }
                    }
                }
                max_rate = max_rate.max(hour_ring.push(temps));

                if self.cfg.record_minutes {
                    let readings = self.plant.readings(t);
                    minutes.push(self.minute_sample(t, &readings));
                }
            }

            // --- physics ---------------------------------------------------------
            let (temperature, abs_humidity) = self.tmy.outside_at(t);
            let outside = OutsideConditions { temperature, abs_humidity };
            if in_day {
                cooling_j += self.plant.cooling_power().value() * dt_s;
                it_j += self.it.total().value() * dt_s;
            }
            // Actuator faults sit between command and plant: the controller
            // believes `self.regime` is in force, the hardware does this.
            let actual = self.faults.apply_actuator(t, self.regime);
            {
                let _step_scope = self.telemetry.time_scope("plant.step");
                self.plant.step(self.cfg.physics_step, outside, &self.it, actual);
            }
            t += self.cfg.physics_step;
        }

        let sv_after = match &self.controller {
            SimController::Supervised(sv) => sv.telemetry(),
            _ => SupervisorTelemetry::default(),
        };
        let (out_lo, out_hi) = self.tmy.daily_extremes(day);
        let record = DayRecord {
            day,
            sensor_min,
            sensor_max,
            violation_sum,
            readings: readings_count,
            cooling_kwh: cooling_j / 3.6e6,
            it_kwh: it_j / 3.6e6,
            max_rate_c_per_hour: max_rate,
            rh_violation_fraction: if rh_samples == 0 {
                0.0
            } else {
                rh_violations as f64 / rh_samples as f64
            },
            outside_range: (out_hi - out_lo).degrees(),
            jobs_completed: self.cluster.completed_jobs() - jobs_before,
            power_cycles: self.cluster.total_power_cycles() - cycles_before,
            fault_minutes,
            degraded_minutes: sv_after.degraded_minutes - sv_before.degraded_minutes,
            failsafe_minutes: sv_after.failsafe_minutes - sv_before.failsafe_minutes,
            fallback_transitions: sv_after.fallback_transitions - sv_before.fallback_transitions,
            imputed_readings: sv_after.imputed_readings - sv_before.imputed_readings,
        };
        self.telemetry.emit_with(|| Event::DayEnd {
            day,
            violation_sum: record.violation_sum,
            cooling_kwh: record.cooling_kwh,
            it_kwh: record.it_kwh,
        });
        DayOutput { record, minutes }
    }

    /// Hands a CoolAir controller the snapshot it keeps as its history.
    fn observe(&mut self, readings: SensorReadings) {
        match &mut self.controller {
            SimController::Baseline(_) => {}
            SimController::CoolAir(ca) => ca.observe(readings),
            SimController::Supervised(sv) => sv.observe(readings),
        }
    }

    /// What the controller senses: the plant truth passed through the fault
    /// layer (a no-op under [`FaultPlan::none`]).
    fn controller_readings(&mut self, t: SimTime) -> SensorReadings {
        let truth = self.plant.readings(t);
        self.faults.corrupt_readings(truth, &mut self.stale_inlets)
    }

    /// Current plant readings (for validation harnesses).
    #[must_use]
    pub fn readings(&self, now: SimTime) -> SensorReadings {
        self.plant.readings(now)
    }

    /// The cluster (for workload statistics).
    #[must_use]
    pub fn cluster(&self) -> &Cluster {
        &self.cluster
    }

    fn submit_arrivals(&mut self, now: SimTime) {
        while let Some(job) = self.pending.pop_front_if(|j| j.submit <= now) {
            let earliest = match &mut self.controller {
                SimController::CoolAir(ca) if job.is_deferrable() => {
                    ca.schedule_job(&job, now)
                }
                SimController::Supervised(sv) if job.is_deferrable() => {
                    sv.schedule_job(&job, now)
                }
                _ => job.submit,
            };
            self.cluster.submit_with_start(job, earliest);
        }
    }

    fn minute_sample(&self, t: SimTime, readings: &SensorReadings) -> MinuteSample {
        let band = match &self.controller {
            SimController::CoolAir(ca) => {
                ca.band().map(|b| (b.lo().value(), b.hi().value()))
            }
            SimController::Supervised(sv) => {
                sv.band().map(|b| (b.lo().value(), b.hi().value()))
            }
            SimController::Baseline(_) => None,
        };
        let active = (self.cluster.active_fraction()
            * self.cluster.config().total_servers as f64)
            .round() as usize;
        MinuteSample {
            time: t,
            outside: readings.outside_temp.value(),
            max_inlet: readings.max_inlet().value(),
            min_inlet: readings.min_inlet().value(),
            mean_inlet: readings.mean_inlet().value(),
            rh: readings.cold_aisle_rh.percent(),
            fan_pct: readings.regime.fan_speed().percent(),
            compressor_pct: readings.regime.compressor() * 100.0,
            cooling_w: readings.cooling_power.value(),
            it_w: readings.it_power.value(),
            active_servers: active,
            band,
            max_disk: readings
                .disk_temps
                .iter()
                .map(|c| c.value())
                .fold(f64::NEG_INFINITY, f64::max),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use coolair_thermal::TksConfig;
    use coolair_weather::Location;
    use coolair_workload::{facebook_trace, ClusterConfig};

    fn baseline_sim(record_minutes: bool) -> Simulation {
        let tmy = TmySeries::generate(&Location::newark(), 5);
        Simulation::new(
            SimController::Baseline(TksController::new(TksConfig::baseline())),
            PlantConfig::parasol(),
            Cluster::new(ClusterConfig::parasol()),
            tmy,
            SimConfig { record_minutes, ..SimConfig::default() },
        )
    }

    #[test]
    fn baseline_day_produces_sane_metrics() {
        let mut sim = baseline_sim(false);
        let jobs = facebook_trace(1).jobs_for_day(150);
        let out = sim.run_day(150, jobs);
        let r = &out.record;
        assert_eq!(r.day, 150);
        assert_eq!(r.readings, 4 * 1440);
        assert!(r.worst_range() > 0.5, "some daily range expected");
        assert!(r.worst_range() < 30.0);
        assert!(r.it_kwh > 10.0, "64 servers × 24 h ≥ 10 kWh, got {}", r.it_kwh);
        assert!(r.cooling_kwh >= 0.0);
        assert!(r.jobs_completed > 1000, "got {}", r.jobs_completed);
        assert_eq!(r.power_cycles, 0, "baseline never sleeps servers");
    }

    #[test]
    fn minute_recording_produces_series() {
        let mut sim = baseline_sim(true);
        let jobs = facebook_trace(1).jobs_for_day(10);
        let out = sim.run_day(10, jobs);
        assert_eq!(out.minutes.len(), 1440);
        let s = &out.minutes[720];
        assert!(s.max_inlet >= s.min_inlet);
        assert!(s.it_w > 1000.0, "baseline keeps 64 servers awake");
        assert_eq!(s.band, None);
    }

    #[test]
    fn summer_day_in_chad_engages_ac() {
        let tmy = TmySeries::generate(&Location::chad(), 5);
        let mut sim = Simulation::new(
            SimController::Baseline(TksController::new(TksConfig::baseline())),
            PlantConfig::parasol(),
            Cluster::new(ClusterConfig::parasol()),
            tmy,
            SimConfig { record_minutes: true, ..SimConfig::default() },
        );
        let jobs = facebook_trace(2).jobs_for_day(120);
        let out = sim.run_day(120, jobs);
        let any_ac = out.minutes.iter().any(|m| m.compressor_pct > 0.0);
        assert!(any_ac, "Chad needs the AC");
        assert!(out.record.cooling_kwh > 1.0);
    }

    #[test]
    fn cool_day_in_iceland_avoids_ac() {
        let tmy = TmySeries::generate(&Location::iceland(), 5);
        let mut sim = Simulation::new(
            SimController::Baseline(TksController::new(TksConfig::baseline())),
            PlantConfig::parasol(),
            Cluster::new(ClusterConfig::parasol()),
            tmy,
            SimConfig { record_minutes: true, ..SimConfig::default() },
        );
        let jobs = facebook_trace(2).jobs_for_day(30);
        let out = sim.run_day(30, jobs);
        let any_comp = out.minutes.iter().any(|m| m.compressor_pct > 0.0);
        assert!(!any_comp, "Iceland winter should free-cool only");
        // Temperatures stay under control.
        assert!(out.record.avg_violation() < 1.0);
    }
}
