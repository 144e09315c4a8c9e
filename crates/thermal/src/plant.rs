//! Lumped-parameter physics of the Parasol container.
//!
//! This is the "real datacenter" of the reproduction: the ground truth that
//! controllers act on, that the Cooling Modeler learns from, and that the
//! simulators integrate. It is a mixing model — each pod's inlet relaxes
//! toward a flow-weighted blend of outside air (via the free-cooling fan),
//! AC supply air, recirculated hot-aisle air, and shell leakage — with
//! coefficients calibrated against the dynamics the paper documents for
//! Parasol (see crate docs).

use coolair_units::{
    psychro, AbsoluteHumidity, Celsius, FanSpeed, RelativeHumidity, SimDuration, SimTime, Watts,
};
use serde::{Deserialize, Serialize};

use crate::pods::PodLayout;
use crate::power::cooling_power;
use crate::regime::{CoolingRegime, Infrastructure};
use crate::sensor::SensorReadings;

/// Outside air state at one instant.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct OutsideConditions {
    /// Outside dry-bulb temperature.
    pub temperature: Celsius,
    /// Outside absolute humidity (mixing ratio).
    pub abs_humidity: AbsoluteHumidity,
}

/// IT load presented to the plant at one step.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ItLoad {
    /// Electrical power drawn by the servers of each pod.
    pub pod_power: Vec<Watts>,
    /// Fraction of servers active (the paper's datacenter "utilization").
    pub active_fraction: f64,
}

impl ItLoad {
    /// A uniform load: every pod draws `per_pod`, with the given active
    /// fraction.
    #[must_use]
    pub fn uniform(pods: usize, per_pod: Watts, active_fraction: f64) -> Self {
        ItLoad { pod_power: vec![per_pod; pods], active_fraction }
    }

    /// Total IT power.
    #[must_use]
    pub fn total(&self) -> Watts {
        self.pod_power.iter().copied().sum()
    }
}

/// Physical coefficients of the container model.
///
/// The defaults are calibrated so the model reproduces Parasol's documented
/// behaviour; construct with [`PlantConfig::parasol`] or
/// [`PlantConfig::smooth`] and override fields only for sensitivity studies.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct PlantConfig {
    /// Pod layout and recirculation factors.
    pub layout: PodLayout,
    /// Installed cooling units (controls actuator constraints).
    pub infrastructure: Infrastructure,
    /// Air-exchange rate toward outside air at full fan, 1/s.
    pub fc_rate_full: f64,
    /// Air-exchange rate toward AC supply air when the AC fan runs, 1/s.
    pub ac_rate: f64,
    /// Recirculation rate (hot aisle → cold aisle) when closed, 1/s,
    /// scaled by each pod's recirc factor.
    pub recirc_rate_closed: f64,
    /// Recirculation rate while free cooling (sealed cold aisle), 1/s.
    pub recirc_rate_fc: f64,
    /// Recirculation rate while the AC runs, 1/s.
    pub recirc_rate_ac: f64,
    /// Shell leakage rate toward outside, 1/s.
    pub leak_rate: f64,
    /// Mixing rate between pods within the shared cold aisle, 1/s (the
    /// sealed cold aisle is one air volume; pods differ but cannot drift
    /// apart indefinitely).
    pub aisle_mix_rate: f64,
    /// Temperature gained by outside air in the intake duct/filters, °C.
    pub duct_gain: f64,
    /// Lowest achievable AC supply temperature, °C.
    pub ac_supply_min: f64,
    /// Supply-air temperature drop below the hot aisle at full compressor, °C.
    pub ac_supply_drop: f64,
    /// Volumetric airflow at full fan, m³/s.
    pub flow_full_m3s: f64,
    /// Volumetric airflow of the AC fan, m³/s.
    pub flow_ac_m3s: f64,
    /// Natural convection airflow when closed, m³/s.
    pub flow_natural_m3s: f64,
    /// Volumetric heat capacity of air, J/(m³·K).
    pub vol_heat_capacity: f64,
    /// Disk thermal time constant, s.
    pub disk_tau_s: f64,
    /// Disk temperature offset above inlet at zero utilisation, °C.
    pub disk_offset_base: f64,
    /// Additional disk offset per unit pod utilisation, °C.
    pub disk_offset_util: f64,
    /// AC coil surface temperature (moisture condenses below its dew
    /// point), °C.
    pub ac_coil_temp: f64,
    /// Maximum fan slew on the smooth infrastructure, fraction per second
    /// (Parasol applies commands instantly).
    pub smooth_fan_slew_per_s: f64,
    /// Maximum compressor slew on the smooth infrastructure, fraction/s.
    pub smooth_comp_slew_per_s: f64,
    /// DX capacity loss per °C of condenser (outside) temperature above
    /// 25 °C (fraction; 0 disables condenser derating).
    pub ac_condenser_derate_per_c: f64,
    /// Sensible-capacity factor when the coil also carries latent load
    /// (1.0 disables latent derating).
    pub ac_latent_factor: f64,
    /// Optional adiabatic (evaporative) pre-cooler on the free-cooling
    /// intake (§2: "some free-cooled datacenters also apply adiabatic
    /// cooling … within the humidity constraint"). Value is the cooler's
    /// effectiveness: the fraction of the wet-bulb depression recovered.
    pub adiabatic_effectiveness: Option<f64>,
}

impl PlantConfig {
    /// Parasol's real cooling units (abrupt regime changes, §4.1).
    #[must_use]
    pub fn parasol() -> Self {
        PlantConfig {
            layout: PodLayout::parasol(),
            infrastructure: Infrastructure::Parasol,
            fc_rate_full: 1.0 / 90.0,
            ac_rate: 1.0 / 900.0,
            recirc_rate_closed: 1.0 / 3600.0,
            recirc_rate_fc: 1.0 / 12_000.0,
            recirc_rate_ac: 1.0 / 6_000.0,
            leak_rate: 1.0 / 14400.0,
            aisle_mix_rate: 1.0 / 300.0,
            duct_gain: 1.5,
            ac_supply_min: 8.0,
            ac_supply_drop: 18.0,
            flow_full_m3s: 0.55,
            flow_ac_m3s: 0.25,
            flow_natural_m3s: 0.08,
            vol_heat_capacity: 1200.0,
            disk_tau_s: 1200.0,
            disk_offset_base: 3.0,
            disk_offset_util: 10.0,
            ac_coil_temp: 10.0,
            smooth_fan_slew_per_s: 0.002,
            smooth_comp_slew_per_s: 0.002,
            ac_condenser_derate_per_c: 0.012,
            ac_latent_factor: 0.7,
            adiabatic_effectiveness: None,
        }
    }

    /// The §5.1 smooth infrastructure: identical container, fine-grained
    /// actuators.
    #[must_use]
    pub fn smooth() -> Self {
        PlantConfig { infrastructure: Infrastructure::Smooth, ..PlantConfig::parasol() }
    }
}

impl Default for PlantConfig {
    fn default() -> Self {
        PlantConfig::parasol()
    }
}

/// A struct-of-arrays bank of container plants stepped in lockstep.
///
/// Every per-lane quantity lives in one contiguous, lane-major array
/// (`pod_temps` and `disk_temps` are `lanes × pods` flattened), so a fleet
/// stepping pass walks linear memory instead of chasing N heap-allocated
/// plants. [`Plant`] is a one-lane view over this bank — the physics is
/// written once, in [`PlantBank::step_lane`], and a multi-lane bank is
/// therefore bit-identical to the same lanes stepped as independent
/// [`Plant`]s.
#[derive(Debug, Clone)]
pub struct PlantBank {
    config: PlantConfig,
    lanes: usize,
    pods: usize,
    /// Cold-aisle inlet temperature, °C — `lanes × pods`, lane-major.
    pod_temps: Vec<f64>,
    /// Disk temperature, °C — `lanes × pods`, lane-major.
    disk_temps: Vec<f64>,
    /// Cold-aisle absolute humidity per lane, g/kg.
    abs_humidity: Vec<f64>,
    /// Hot-aisle temperature per lane, °C (derived each step, stored for
    /// sensors).
    hot_aisle: Vec<f64>,
    /// Regime actually applied per lane after actuator constraints.
    applied: Vec<CoolingRegime>,
    /// Last outside conditions per lane (for sensor snapshots).
    last_outside: Vec<OutsideConditions>,
    /// Total of the last IT load per lane (for sensor snapshots).
    last_it_power: Vec<Watts>,
    /// Active fraction of the last IT load per lane (for sensor snapshots).
    last_active_fraction: Vec<f64>,
    /// Per-pod exchange rates and relaxation factor of each lane's applied
    /// regime — `lanes × pods`, lane-major (see [`Relaxation`]).
    pod_rates: Vec<PodRates>,
    /// Per lane, the regime-and-`dt` key of `pod_rates` and the lane's
    /// other relaxation factors.
    relaxation: Vec<Relaxation>,
    /// Saturation mixing ratio at the AC coil surface, g/kg.
    coil_w: f64,
}

/// One pod's air-exchange rates (1/s) under a lane's applied regime, and
/// the exact first-order relaxation factor `1 − e^(−total·dt)` they give.
#[derive(Debug, Clone, Copy, Default)]
struct PodRates {
    fc: f64,
    ac: f64,
    rec: f64,
    total: f64,
    alpha: f64,
}

/// The `exp()` factors of one lane's step that depend only on the applied
/// regime and `dt`. A lane holds a regime for many steps, so they are
/// computed when the key changes and reused until it changes again; the
/// arithmetic is the same, so the cached values carry the same bits.
#[derive(Debug, Clone, Copy)]
struct Relaxation {
    /// The applied regime and step the factors (and the lane's
    /// `pod_rates`) were computed for; `None` before the first step.
    key: Option<(CoolingRegime, SimDuration)>,
    /// Humidity exchange with the intake air.
    vent: f64,
    /// Coil condensation (0 with the compressor off).
    coil: f64,
    /// Disk temperature relaxation.
    disk: f64,
}

impl Relaxation {
    const UNSET: Relaxation = Relaxation { key: None, vent: 0.0, coil: 0.0, disk: 0.0 };

    /// Computes the factors for `applied` over `dt`, writing each pod's
    /// rates into `rates`.
    fn compute(
        cfg: &PlantConfig,
        applied: CoolingRegime,
        dt: SimDuration,
        rates: &mut [PodRates],
    ) -> Self {
        let dt_s = dt.as_secs() as f64;
        let fan = applied.fan_speed().fraction();
        let comp = applied.compressor();
        let ac_fan_on = matches!(applied, CoolingRegime::Ac { .. });
        let recirc_base = match applied {
            CoolingRegime::Closed => cfg.recirc_rate_closed,
            CoolingRegime::FreeCooling { .. } => cfg.recirc_rate_fc,
            CoolingRegime::Ac { .. } => cfg.recirc_rate_ac,
        };
        for (rate, (_, spec)) in rates.iter_mut().zip(cfg.layout.iter()) {
            let fc = cfg.fc_rate_full * fan * spec.airflow_factor;
            let ac = if ac_fan_on { cfg.ac_rate * spec.airflow_factor } else { 0.0 };
            let rec = recirc_base * spec.recirc_factor;
            let total = fc + ac + rec + cfg.leak_rate + cfg.aisle_mix_rate;
            *rate = PodRates { fc, ac, rec, total, alpha: 1.0 - (-total * dt_s).exp() };
        }
        let g_vent = cfg.fc_rate_full * fan + cfg.leak_rate;
        Relaxation {
            key: Some((applied, dt)),
            vent: 1.0 - (-g_vent * dt_s).exp(),
            coil: if comp > 0.0 { 1.0 - (-cfg.ac_rate * comp * dt_s).exp() } else { 0.0 },
            disk: 1.0 - (-dt_s / cfg.disk_tau_s).exp(),
        }
    }
}

impl PlantBank {
    /// Creates `lanes` plants, each at thermal equilibrium with a 20 °C,
    /// 40 %RH interior (the same start state as [`Plant::new`]).
    #[must_use]
    pub fn new(config: PlantConfig, lanes: usize) -> Self {
        let pods = config.layout.len();
        let start_t = 20.0;
        let start_abs =
            psychro::absolute_humidity(Celsius::new(start_t), RelativeHumidity::new(40.0));
        PlantBank {
            pod_temps: vec![start_t; lanes * pods],
            disk_temps: vec![start_t + config.disk_offset_base; lanes * pods],
            abs_humidity: vec![start_abs.grams_per_kg(); lanes],
            hot_aisle: vec![start_t + 5.0; lanes],
            applied: vec![CoolingRegime::Closed; lanes],
            last_outside: vec![
                OutsideConditions {
                    temperature: Celsius::new(start_t),
                    abs_humidity: start_abs,
                };
                lanes
            ],
            last_it_power: vec![Watts::ZERO; lanes],
            last_active_fraction: vec![0.0; lanes],
            pod_rates: vec![PodRates::default(); lanes * pods],
            relaxation: vec![Relaxation::UNSET; lanes],
            coil_w: psychro::saturation_mixing_ratio(Celsius::new(config.ac_coil_temp))
                .grams_per_kg(),
            config,
            lanes,
            pods,
        }
    }

    /// The shared plant configuration.
    #[must_use]
    pub fn config(&self) -> &PlantConfig {
        &self.config
    }

    /// Number of lanes (containers) in the bank.
    #[must_use]
    pub fn lanes(&self) -> usize {
        self.lanes
    }

    /// Pods per lane.
    #[must_use]
    pub fn pods(&self) -> usize {
        self.pods
    }

    /// The regime currently applied on `lane` (after actuator
    /// constraints/slew).
    #[must_use]
    pub fn applied_regime(&self, lane: usize) -> CoolingRegime {
        self.applied[lane]
    }

    /// Forces one lane's interior to a given uniform temperature/humidity —
    /// used to start experiments from a known state.
    pub fn reset_lane_interior(&mut self, lane: usize, temp: Celsius, rh: RelativeHumidity) {
        let base = lane * self.pods;
        for t in &mut self.pod_temps[base..base + self.pods] {
            *t = temp.value();
        }
        for d in &mut self.disk_temps[base..base + self.pods] {
            *d = temp.value() + self.config.disk_offset_base;
        }
        self.abs_humidity[lane] = psychro::absolute_humidity(temp, rh).grams_per_kg();
        self.hot_aisle[lane] = temp.value() + 5.0;
    }

    /// Advances every lane by `dt` in one batched pass over the bank's
    /// arrays. Slices are indexed per lane: `outside[i]`, `it[i]` and
    /// `commanded[i]` drive lane `i`.
    ///
    /// # Panics
    ///
    /// Panics if any slice length differs from the lane count, or any
    /// lane's `pod_power` arity differs from the pod count.
    pub fn step_all(
        &mut self,
        dt: SimDuration,
        outside: &[OutsideConditions],
        it: &[ItLoad],
        commanded: &[CoolingRegime],
    ) {
        assert_eq!(outside.len(), self.lanes, "outside arity mismatch");
        assert_eq!(it.len(), self.lanes, "it load arity mismatch");
        assert_eq!(commanded.len(), self.lanes, "command arity mismatch");
        for lane in 0..self.lanes {
            self.step_lane(lane, dt, outside[lane], &it[lane], commanded[lane]);
        }
    }

    /// Advances one lane's physics by `dt` under `commanded` cooling and
    /// the given outside conditions and IT load.
    ///
    /// The commanded regime is first constrained by the installed
    /// infrastructure (fan minimums, binary compressor on Parasol, slew
    /// limits on the smooth units).
    ///
    /// # Panics
    ///
    /// Panics if `it.pod_power.len()` differs from the number of pods.
    pub fn step_lane(
        &mut self,
        lane: usize,
        dt: SimDuration,
        outside: OutsideConditions,
        it: &ItLoad,
        commanded: CoolingRegime,
    ) {
        let cfg = &self.config;
        assert_eq!(
            it.pod_power.len(),
            cfg.layout.len(),
            "pod power arity mismatch"
        );
        let base = lane * self.pods;
        let pod_temps = &mut self.pod_temps[base..base + self.pods];
        let disk_temps = &mut self.disk_temps[base..base + self.pods];
        let rates = &mut self.pod_rates[base..base + self.pods];
        let dt_s = dt.as_secs() as f64;
        let target = cfg.infrastructure.sanitize(commanded);
        self.applied[lane] = apply_actuators(self.applied[lane], target, cfg, dt_s);
        let applied = self.applied[lane];

        let t_out = outside.temperature.value();
        let fan = applied.fan_speed().fraction();
        let comp = applied.compressor();
        let ac_fan_on = matches!(applied, CoolingRegime::Ac { .. });
        if self.relaxation[lane].key != Some((applied, dt)) {
            self.relaxation[lane] = Relaxation::compute(cfg, applied, dt, rates);
        }
        let relax = self.relaxation[lane];

        // --- Hot aisle -----------------------------------------------------
        // Flow-weighted mean of pod inlets plus the IT heat picked up
        // crossing the servers.
        let q_it: f64 = it.pod_power.iter().map(|p| p.value()).sum();
        let flow = cfg.flow_full_m3s * fan
            + if ac_fan_on { cfg.flow_ac_m3s } else { 0.0 }
            + cfg.flow_natural_m3s;
        let mean_inlet = pod_temps.iter().sum::<f64>() / pod_temps.len() as f64;
        let dt_hot = (q_it / (cfg.vol_heat_capacity * flow)).min(30.0);
        self.hot_aisle[lane] = mean_inlet + dt_hot;
        let hot_aisle = self.hot_aisle[lane];

        // --- AC supply -----------------------------------------------------
        // DX capacity degrades with condenser (outside) temperature, and
        // humid air diverts capacity to condensing moisture (latent load)
        // instead of cooling it — the inherent behaviours measured by
        // Li & Deng [26] that make Singapore the hardest climate.
        let supply = if comp > 0.0 {
            let condenser_derate =
                (1.0 - cfg.ac_condenser_derate_per_c * (t_out - 25.0).max(0.0)).max(0.5);
            let dew = psychro::dew_point(AbsoluteHumidity::new(self.abs_humidity[lane]));
            let latent_derate =
                if dew.value() > cfg.ac_coil_temp { cfg.ac_latent_factor } else { 1.0 };
            let drop = comp * cfg.ac_supply_drop * condenser_derate * latent_derate;
            (hot_aisle - drop).max(cfg.ac_supply_min)
        } else {
            hot_aisle
        };

        // --- Pod temperatures ----------------------------------------------
        // Adiabatic pre-cooling of the intake air: evaporation pulls the
        // stream toward its wet bulb, adding ~0.41 g/kg of moisture per °C
        // of sensible cooling (constant-enthalpy line). The cooler stays
        // off when the humidified stream would arrive nearly saturated —
        // the paper's "within the humidity constraint".
        let mut intake_w_bonus = 0.0;
        let mut adiabatic_drop = 0.0;
        if let (Some(eff), CoolingRegime::FreeCooling { .. }) =
            (cfg.adiabatic_effectiveness, applied)
        {
            let out_rh = psychro::relative_humidity(
                outside.temperature,
                outside.abs_humidity,
            );
            let wb = psychro::wet_bulb(outside.temperature, out_rh);
            let drop = eff.clamp(0.0, 1.0) * (t_out - wb.value()).max(0.0);
            let w_new = outside.abs_humidity.grams_per_kg() + 0.41 * drop;
            let rh_after = psychro::relative_humidity(
                Celsius::new(t_out - drop),
                AbsoluteHumidity::new(w_new),
            );
            if rh_after.percent() < 88.0 {
                adiabatic_drop = drop;
                intake_w_bonus = 0.41 * drop;
            }
        }
        let intake_t = t_out - adiabatic_drop + cfg.duct_gain;
        for (t, r) in pod_temps.iter_mut().zip(rates.iter()) {
            let t_eq = (r.fc * intake_t
                + r.ac * supply
                + r.rec * hot_aisle
                + cfg.leak_rate * t_out
                + cfg.aisle_mix_rate * mean_inlet)
                / r.total;
            // Exact first-order relaxation over dt.
            *t += r.alpha * (t_eq - *t);
        }

        // --- Humidity --------------------------------------------------------
        let w_out = outside.abs_humidity.grams_per_kg() + intake_w_bonus;
        self.abs_humidity[lane] += relax.vent * (w_out - self.abs_humidity[lane]);
        // Coil condensation pulls moisture toward saturation at the coil
        // surface temperature.
        if comp > 0.0 && self.abs_humidity[lane] > self.coil_w {
            self.abs_humidity[lane] -= relax.coil * (self.abs_humidity[lane] - self.coil_w);
        }
        // Condensation on any surface if supersaturated at the coldest pod.
        let coldest = pod_temps.iter().cloned().fold(f64::INFINITY, f64::min);
        let w_sat = psychro::saturation_mixing_ratio(Celsius::new(coldest)).grams_per_kg();
        if self.abs_humidity[lane] > w_sat {
            self.abs_humidity[lane] = w_sat;
        }

        // --- Disks -----------------------------------------------------------
        let per_pod_peak = crate::pods::SERVERS_PER_POD as f64 * crate::server::SERVER_ACTIVE_PEAK_W;
        for (i, p) in it.pod_power.iter().enumerate() {
            let util = (p.value() / per_pod_peak).clamp(0.0, 1.0);
            let target = pod_temps[i] + cfg.disk_offset_base + cfg.disk_offset_util * util;
            disk_temps[i] += relax.disk * (target - disk_temps[i]);
        }

        self.last_outside[lane] = outside;
        self.last_it_power[lane] = it.total();
        self.last_active_fraction[lane] = it.active_fraction;
    }

    /// The cooling power `lane` draws in its applied regime — the
    /// `cooling_power` field of [`PlantBank::readings_lane`], without the
    /// rest of the snapshot.
    fn cooling_power_lane(&self, lane: usize) -> Watts {
        cooling_power(self.applied[lane], self.config.infrastructure)
    }

    /// One lane's sensor state, borrowed: the fields a snapshot is built
    /// from that the Cooling Modeler samples, without building it.
    #[must_use]
    pub fn sample_lane(&self, lane: usize) -> PlantSample<'_> {
        PlantSample {
            pod_inlets: &self.pod_temps[lane * self.pods..(lane + 1) * self.pods],
            outside: self.last_outside[lane],
            cold_aisle_abs: AbsoluteHumidity::new(self.abs_humidity[lane]),
            active_fraction: self.last_active_fraction[lane],
        }
    }

    /// One lane's pod inlet temperatures (°C) and cold-aisle relative
    /// humidity — the `pod_inlets` and `cold_aisle_rh` of
    /// [`PlantBank::readings_lane`], without the rest of the snapshot.
    #[must_use]
    pub fn inlets_and_rh_lane(&self, lane: usize) -> (&[f64], RelativeHumidity) {
        let sample = self.sample_lane(lane);
        (sample.pod_inlets, sample.cold_aisle_rh())
    }

    /// A snapshot of one lane's sensors, stamped with `now`.
    #[must_use]
    pub fn readings_lane(&self, lane: usize, now: SimTime) -> SensorReadings {
        let base = lane * self.pods;
        let disk_temps = &self.disk_temps[base..base + self.pods];
        let sample = self.sample_lane(lane);
        let outside = sample.outside;
        SensorReadings {
            time: now,
            outside_temp: outside.temperature,
            outside_rh: psychro::relative_humidity(outside.temperature, outside.abs_humidity),
            outside_abs: outside.abs_humidity,
            pod_inlets: sample.pod_inlets.iter().map(|&t| Celsius::new(t)).collect(),
            cold_aisle_rh: sample.cold_aisle_rh(),
            cold_aisle_abs: sample.cold_aisle_abs,
            hot_aisle: Celsius::new(self.hot_aisle[lane]),
            disk_temps: disk_temps.iter().map(|&t| Celsius::new(t)).collect(),
            regime: self.applied[lane],
            cooling_power: self.cooling_power_lane(lane),
            it_power: self.last_it_power[lane],
            active_fraction: sample.active_fraction,
        }
    }
}

/// One plant lane's sensor state, borrowed from the plant: the pod inlets,
/// outside conditions, cold-aisle humidity and active fraction of a
/// [`SensorReadings`] snapshot, which is built from it. The Cooling
/// Modeler samples these every two simulated minutes of a training run,
/// where a snapshot's two `Vec`s and two humidity conversions would be
/// waste.
#[derive(Debug, Clone, Copy)]
pub struct PlantSample<'a> {
    /// Pod inlet temperatures, °C, in layout order.
    pub pod_inlets: &'a [f64],
    /// Outside conditions of the last step.
    pub outside: OutsideConditions,
    /// Cold-aisle absolute humidity.
    pub cold_aisle_abs: AbsoluteHumidity,
    /// Active fraction of the last step's IT load.
    pub active_fraction: f64,
}

impl PlantSample<'_> {
    /// Mean pod inlet temperature, °C.
    #[must_use]
    pub fn mean_inlet(&self) -> f64 {
        self.pod_inlets.iter().sum::<f64>() / self.pod_inlets.len() as f64
    }

    /// Cold-aisle relative humidity. The humidity sensor sits near the
    /// warmer pods; the conversion uses the mean inlet.
    #[must_use]
    pub fn cold_aisle_rh(&self) -> RelativeHumidity {
        psychro::relative_humidity(Celsius::new(self.mean_inlet()), self.cold_aisle_abs)
    }
}

/// The container plant: integrates pod temperatures, humidity, and disk
/// temperatures under a commanded cooling regime and IT load.
///
/// A one-lane view over a [`PlantBank`]: the physics lives in
/// [`PlantBank::step_lane`], so single-container and fleet-batched
/// simulations run the exact same code.
#[derive(Debug, Clone)]
pub struct Plant {
    bank: PlantBank,
}

impl Plant {
    /// Creates a plant at thermal equilibrium with a 20 °C, 40 %RH interior.
    #[must_use]
    pub fn new(config: PlantConfig) -> Self {
        Plant { bank: PlantBank::new(config, 1) }
    }

    /// The plant's configuration.
    #[must_use]
    pub fn config(&self) -> &PlantConfig {
        self.bank.config()
    }

    /// The regime currently applied (after actuator constraints/slew).
    #[must_use]
    pub fn applied_regime(&self) -> CoolingRegime {
        self.bank.applied_regime(0)
    }

    /// Forces the interior to a given uniform temperature/humidity —
    /// used to start experiments from a known state.
    pub fn reset_interior(&mut self, temp: Celsius, rh: RelativeHumidity) {
        self.bank.reset_lane_interior(0, temp, rh);
    }

    /// Advances the physics by `dt` under `commanded` cooling and the given
    /// outside conditions and IT load.
    ///
    /// The commanded regime is first constrained by the installed
    /// infrastructure (fan minimums, binary compressor on Parasol, slew
    /// limits on the smooth units).
    ///
    /// # Panics
    ///
    /// Panics if `it.pod_power.len()` differs from the number of pods.
    pub fn step(
        &mut self,
        dt: SimDuration,
        outside: OutsideConditions,
        it: &ItLoad,
        commanded: CoolingRegime,
    ) {
        self.bank.step_lane(0, dt, outside, it, commanded);
    }

    /// A snapshot of every sensor, stamped with `now`.
    #[must_use]
    pub fn readings(&self, now: SimTime) -> SensorReadings {
        self.bank.readings_lane(0, now)
    }

    /// The sensor state a snapshot is built from, without building it
    /// (see [`PlantSample`]).
    #[must_use]
    pub fn sample(&self) -> PlantSample<'_> {
        self.bank.sample_lane(0)
    }

    /// Pod inlet temperatures (°C) and cold-aisle relative humidity — the
    /// snapshot's `pod_inlets` and `cold_aisle_rh`, without building it.
    #[must_use]
    pub fn inlets_and_rh(&self) -> (&[f64], RelativeHumidity) {
        self.bank.inlets_and_rh_lane(0)
    }

    /// The cooling power drawn in the applied regime (the snapshot's
    /// `cooling_power`, without building the snapshot).
    #[must_use]
    pub fn cooling_power(&self) -> Watts {
        self.bank.cooling_power_lane(0)
    }
}

/// Applies actuator dynamics: Parasol switches instantly (that abruptness is
/// the Figure 7(b) problem), the smooth infrastructure slews fan and
/// compressor gradually upward and drops from 15 % straight to off.
fn apply_actuators(
    current: CoolingRegime,
    target: CoolingRegime,
    cfg: &PlantConfig,
    dt_s: f64,
) -> CoolingRegime {
    match cfg.infrastructure {
        Infrastructure::Parasol => target,
        Infrastructure::Smooth => match (current, target) {
            (CoolingRegime::FreeCooling { fan }, CoolingRegime::FreeCooling { fan: want }) => {
                let max_step = cfg.smooth_fan_slew_per_s * dt_s;
                let next = slew(fan.fraction(), want.fraction(), max_step);
                CoolingRegime::FreeCooling { fan: FanSpeed::saturating(next) }
            }
            (_, CoolingRegime::FreeCooling { fan: want }) => {
                // Ramp up from the 1 % floor.
                let start = FanSpeed::SMOOTH_MIN.fraction();
                let max_step = cfg.smooth_fan_slew_per_s * dt_s;
                let next = slew(start, want.fraction(), max_step);
                CoolingRegime::FreeCooling { fan: FanSpeed::saturating(next) }
            }
            (CoolingRegime::Ac { compressor }, CoolingRegime::Ac { compressor: want }) => {
                let max_step = cfg.smooth_comp_slew_per_s * dt_s;
                CoolingRegime::Ac { compressor: slew(compressor, want, max_step) }
            }
            (_, CoolingRegime::Ac { compressor: want }) => {
                let max_step = cfg.smooth_comp_slew_per_s * dt_s;
                CoolingRegime::Ac { compressor: slew(0.0, want, max_step) }
            }
            (_, CoolingRegime::Closed) => CoolingRegime::Closed,
        },
    }
}

fn slew(from: f64, to: f64, max_step: f64) -> f64 {
    if to > from {
        (from + max_step).min(to)
    } else {
        // Ramp down is immediate on both infrastructures (§5.1).
        to
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use coolair_units::SECS_PER_HOUR;

    const DT: SimDuration = SimDuration::from_secs(15);

    fn outside(t: f64, rh: f64) -> OutsideConditions {
        let temp = Celsius::new(t);
        OutsideConditions {
            temperature: temp,
            abs_humidity: psychro::absolute_humidity(temp, RelativeHumidity::new(rh)),
        }
    }

    fn load_27pct() -> ItLoad {
        // ~27 % utilisation: 0.5 kW total.
        ItLoad::uniform(4, Watts::new(125.0), 0.27)
    }

    fn run(
        plant: &mut Plant,
        secs: u64,
        out: OutsideConditions,
        it: &ItLoad,
        regime: CoolingRegime,
    ) {
        let steps = secs / DT.as_secs();
        for _ in 0..steps {
            plant.step(DT, out, it, regime);
        }
    }

    #[test]
    fn free_cooling_pulls_toward_outside() {
        let mut plant = Plant::new(PlantConfig::parasol());
        plant.reset_interior(Celsius::new(30.0), RelativeHumidity::new(40.0));
        let out = outside(12.0, 50.0);
        run(&mut plant, 2 * SECS_PER_HOUR, out, &load_27pct(), CoolingRegime::free_cooling(FanSpeed::new(0.5).unwrap()));
        let r = plant.readings(SimTime::EPOCH);
        assert!(
            r.max_inlet().value() < 17.0,
            "inlet should approach outside: {}",
            r.max_inlet()
        );
        assert!(r.min_inlet().value() > 11.0, "inlet cannot undershoot outside");
    }

    #[test]
    fn opening_at_min_fan_drops_sharply() {
        // The documented abruptness: ~9 °C in ~12 minutes at 15 % fan when
        // much colder outside (§5.1 / Figure 7(b) discussion).
        let mut plant = Plant::new(PlantConfig::parasol());
        plant.reset_interior(Celsius::new(30.0), RelativeHumidity::new(40.0));
        let out = outside(12.0, 50.0);
        let before = plant.readings(SimTime::EPOCH).mean_inlet().value();
        run(&mut plant, 12 * 60, out, &load_27pct(), CoolingRegime::free_cooling(FanSpeed::PARASOL_MIN));
        let after = plant.readings(SimTime::EPOCH).mean_inlet().value();
        let drop = before - after;
        assert!((6.0..14.0).contains(&drop), "drop in 12 min was {drop:.1}°C");
    }

    #[test]
    fn closed_container_heats_up() {
        let mut plant = Plant::new(PlantConfig::parasol());
        plant.reset_interior(Celsius::new(20.0), RelativeHumidity::new(40.0));
        let out = outside(18.0, 50.0);
        let before = plant.readings(SimTime::EPOCH).mean_inlet().value();
        run(&mut plant, 2 * SECS_PER_HOUR, out, &load_27pct(), CoolingRegime::Closed);
        let after = plant.readings(SimTime::EPOCH).mean_inlet().value();
        assert!(
            after - before > 3.0,
            "recirculation should warm a closed container: {before:.1} -> {after:.1}"
        );
    }

    #[test]
    fn ac_cools_below_hot_outside() {
        let mut plant = Plant::new(PlantConfig::parasol());
        plant.reset_interior(Celsius::new(33.0), RelativeHumidity::new(50.0));
        let out = outside(38.0, 40.0);
        run(&mut plant, 2 * SECS_PER_HOUR, out, &load_27pct(), CoolingRegime::ac_on());
        let r = plant.readings(SimTime::EPOCH);
        assert!(
            r.max_inlet().value() < 25.0,
            "AC should cool despite 38°C outside: {}",
            r.max_inlet()
        );
    }

    #[test]
    fn ac_compressor_drop_is_abrupt_on_parasol() {
        // ~7 °C in ~10 minutes (§5.1).
        let mut plant = Plant::new(PlantConfig::parasol());
        plant.reset_interior(Celsius::new(30.0), RelativeHumidity::new(40.0));
        let out = outside(32.0, 40.0);
        let before = plant.readings(SimTime::EPOCH).mean_inlet().value();
        run(&mut plant, 10 * 60, out, &load_27pct(), CoolingRegime::ac_on());
        let after = plant.readings(SimTime::EPOCH).mean_inlet().value();
        let drop = before - after;
        assert!((4.0..12.0).contains(&drop), "AC drop in 10 min was {drop:.1}°C");
    }

    #[test]
    fn high_recirc_pod_is_warmest_under_free_cooling() {
        let mut plant = Plant::new(PlantConfig::parasol());
        plant.reset_interior(Celsius::new(25.0), RelativeHumidity::new(40.0));
        let out = outside(10.0, 50.0);
        run(&mut plant, 3 * SECS_PER_HOUR, out, &load_27pct(), CoolingRegime::free_cooling(FanSpeed::new(0.3).unwrap()));
        let r = plant.readings(SimTime::EPOCH);
        // Pod 0 has the highest recirc factor and least airflow.
        assert!(
            r.inlet(crate::pods::PodId(0)) > r.inlet(crate::pods::PodId(3)),
            "pod0 {} should be warmer than pod3 {}",
            r.inlet(crate::pods::PodId(0)),
            r.inlet(crate::pods::PodId(3))
        );
    }

    #[test]
    fn faster_fan_cools_faster() {
        let out = outside(10.0, 50.0);
        let mut slow = Plant::new(PlantConfig::parasol());
        slow.reset_interior(Celsius::new(30.0), RelativeHumidity::new(40.0));
        run(&mut slow, 20 * 60, out, &load_27pct(), CoolingRegime::free_cooling(FanSpeed::PARASOL_MIN));
        let mut fast = Plant::new(PlantConfig::parasol());
        fast.reset_interior(Celsius::new(30.0), RelativeHumidity::new(40.0));
        run(&mut fast, 20 * 60, out, &load_27pct(), CoolingRegime::free_cooling(FanSpeed::MAX));
        assert!(
            fast.readings(SimTime::EPOCH).mean_inlet() < slow.readings(SimTime::EPOCH).mean_inlet()
        );
    }

    #[test]
    fn free_cooling_imports_outside_humidity() {
        let mut plant = Plant::new(PlantConfig::parasol());
        plant.reset_interior(Celsius::new(22.0), RelativeHumidity::new(30.0));
        let out = outside(20.0, 95.0);
        run(&mut plant, 2 * SECS_PER_HOUR, out, &load_27pct(), CoolingRegime::free_cooling(FanSpeed::new(0.6).unwrap()));
        let r = plant.readings(SimTime::EPOCH);
        assert!(
            r.cold_aisle_rh.percent() > 75.0,
            "humid outside air should raise inside RH: {}",
            r.cold_aisle_rh
        );
    }

    #[test]
    fn closing_dries_via_warming() {
        // Recirculation raises temperature at constant moisture → RH falls.
        let mut plant = Plant::new(PlantConfig::parasol());
        plant.reset_interior(Celsius::new(18.0), RelativeHumidity::new(85.0));
        let out = outside(16.0, 90.0);
        let before = plant.readings(SimTime::EPOCH).cold_aisle_rh;
        run(&mut plant, 2 * SECS_PER_HOUR, out, &load_27pct(), CoolingRegime::Closed);
        let after = plant.readings(SimTime::EPOCH).cold_aisle_rh;
        assert!(after < before, "closing should lower RH: {before} -> {after}");
    }

    #[test]
    fn ac_dehumidifies() {
        let mut plant = Plant::new(PlantConfig::parasol());
        plant.reset_interior(Celsius::new(28.0), RelativeHumidity::new(85.0));
        let out = outside(32.0, 80.0);
        let before = plant.readings(SimTime::EPOCH).cold_aisle_abs;
        run(&mut plant, 2 * SECS_PER_HOUR, out, &load_27pct(), CoolingRegime::ac_on());
        let after = plant.readings(SimTime::EPOCH).cold_aisle_abs;
        assert!(
            after < before,
            "coil condensation should remove moisture: {before} -> {after}"
        );
    }

    #[test]
    fn disks_run_hotter_than_inlets_and_track_load() {
        let mut plant = Plant::new(PlantConfig::parasol());
        plant.reset_interior(Celsius::new(22.0), RelativeHumidity::new(40.0));
        let out = outside(18.0, 50.0);
        let busy = ItLoad::uniform(4, Watts::new(416.0), 1.0); // ~26 W/server
        run(&mut plant, 3 * SECS_PER_HOUR, out, &busy, CoolingRegime::free_cooling(FanSpeed::new(0.4).unwrap()));
        let r = plant.readings(SimTime::EPOCH);
        for (disk, inlet) in r.disk_temps.iter().zip(r.pod_inlets.iter()) {
            let gap = disk.value() - inlet.value();
            assert!((5.0..20.0).contains(&gap), "disk-inlet gap {gap:.1}");
        }
    }

    #[test]
    fn smooth_infrastructure_ramps_fan() {
        let mut plant = Plant::new(PlantConfig::smooth());
        let out = outside(15.0, 50.0);
        let it = load_27pct();
        plant.step(DT, out, &it, CoolingRegime::free_cooling(FanSpeed::MAX));
        let first = plant.applied_regime().fan_speed().fraction();
        assert!(first < 0.1, "smooth fan must ramp, got {first}");
        for _ in 0..400 {
            plant.step(DT, out, &it, CoolingRegime::free_cooling(FanSpeed::MAX));
        }
        assert!((plant.applied_regime().fan_speed().fraction() - 1.0).abs() < 1e-9);
    }

    #[test]
    fn parasol_applies_commands_instantly() {
        let mut plant = Plant::new(PlantConfig::parasol());
        let out = outside(15.0, 50.0);
        plant.step(DT, out, &load_27pct(), CoolingRegime::free_cooling(FanSpeed::MAX));
        assert_eq!(plant.applied_regime().fan_speed(), FanSpeed::MAX);
    }

    #[test]
    fn smooth_compressor_is_variable() {
        let mut plant = Plant::new(PlantConfig::smooth());
        let out = outside(30.0, 50.0);
        let it = load_27pct();
        for _ in 0..500 {
            plant.step(DT, out, &it, CoolingRegime::Ac { compressor: 0.5 });
        }
        assert!((plant.applied_regime().compressor() - 0.5).abs() < 1e-9);
    }

    #[test]
    fn temperatures_stay_finite_under_extremes() {
        let mut plant = Plant::new(PlantConfig::parasol());
        let hot = outside(50.0, 95.0);
        let cold = outside(-35.0, 30.0);
        let heavy = ItLoad::uniform(4, Watts::new(480.0), 1.0);
        for i in 0..5000 {
            let out = if i % 2 == 0 { hot } else { cold };
            let regime = match i % 4 {
                0 => CoolingRegime::Closed,
                1 => CoolingRegime::free_cooling(FanSpeed::MAX),
                2 => CoolingRegime::ac_on(),
                _ => CoolingRegime::ac_fan_only(),
            };
            plant.step(DT, out, &heavy, regime);
        }
        let r = plant.readings(SimTime::EPOCH);
        for t in &r.pod_inlets {
            assert!(t.is_finite());
            assert!(t.value() > -50.0 && t.value() < 90.0, "runaway temp {t}");
        }
        assert!(r.cold_aisle_rh.percent() <= 100.0);
    }

    #[test]
    fn ac_capacity_degrades_with_condenser_temperature() {
        // Same interior, same compressor: a 45°C day cools less than a 28°C
        // day (dry air in both).
        let it = load_27pct();
        let run_ac = |t_out: f64| {
            let mut plant = Plant::new(PlantConfig::parasol());
            plant.reset_interior(Celsius::new(32.0), RelativeHumidity::new(30.0));
            run(&mut plant, SECS_PER_HOUR, outside(t_out, 20.0), &it, CoolingRegime::ac_on());
            plant.readings(SimTime::EPOCH).mean_inlet().value()
        };
        let mild = run_ac(28.0);
        let scorching = run_ac(45.0);
        assert!(
            scorching > mild + 0.5,
            "condenser derating missing: {mild:.1} vs {scorching:.1}"
        );
    }

    #[test]
    fn ac_latent_load_reduces_sensible_cooling() {
        // Humid interiors spend coil capacity condensing moisture.
        let it = load_27pct();
        let run_ac = |rh_in: f64| {
            let mut plant = Plant::new(PlantConfig::parasol());
            plant.reset_interior(Celsius::new(32.0), RelativeHumidity::new(rh_in));
            run(&mut plant, 30 * 60, outside(32.0, 40.0), &it, CoolingRegime::ac_on());
            plant.readings(SimTime::EPOCH).mean_inlet().value()
        };
        let dry = run_ac(20.0);
        let humid = run_ac(90.0);
        assert!(
            humid > dry + 0.3,
            "latent derating missing: dry {dry:.1} vs humid {humid:.1}"
        );
    }

    #[test]
    fn adiabatic_precooler_helps_in_dry_heat() {
        let out = outside(38.0, 15.0); // desert afternoon
        let it = load_27pct();
        let mut dry = Plant::new(PlantConfig::parasol());
        dry.reset_interior(Celsius::new(30.0), RelativeHumidity::new(30.0));
        let mut wet = Plant::new(PlantConfig {
            adiabatic_effectiveness: Some(0.7),
            ..PlantConfig::parasol()
        });
        wet.reset_interior(Celsius::new(30.0), RelativeHumidity::new(30.0));
        let regime = CoolingRegime::free_cooling(FanSpeed::new(0.8).unwrap());
        run(&mut dry, 2 * SECS_PER_HOUR, out, &it, regime);
        run(&mut wet, 2 * SECS_PER_HOUR, out, &it, regime);
        let t_dry = dry.readings(SimTime::EPOCH).mean_inlet().value();
        let t_wet = wet.readings(SimTime::EPOCH).mean_inlet().value();
        assert!(
            t_wet < t_dry - 4.0,
            "evaporative pre-cooling should beat dry intake: {t_dry:.1} vs {t_wet:.1}"
        );
        // And it adds moisture.
        assert!(
            wet.readings(SimTime::EPOCH).cold_aisle_abs
                > dry.readings(SimTime::EPOCH).cold_aisle_abs
        );
    }

    #[test]
    fn adiabatic_precooler_disengages_in_humid_air() {
        let out = outside(30.0, 90.0); // tropical humidity
        let it = load_27pct();
        let mut plain = Plant::new(PlantConfig::parasol());
        plain.reset_interior(Celsius::new(30.0), RelativeHumidity::new(60.0));
        let mut adia = Plant::new(PlantConfig {
            adiabatic_effectiveness: Some(0.7),
            ..PlantConfig::parasol()
        });
        adia.reset_interior(Celsius::new(30.0), RelativeHumidity::new(60.0));
        let regime = CoolingRegime::free_cooling(FanSpeed::new(0.8).unwrap());
        run(&mut plain, SECS_PER_HOUR, out, &it, regime);
        run(&mut adia, SECS_PER_HOUR, out, &it, regime);
        // Near saturation the cooler must stay off: identical behaviour.
        let a = adia.readings(SimTime::EPOCH).mean_inlet().value();
        let b = plain.readings(SimTime::EPOCH).mean_inlet().value();
        assert!((a - b).abs() < 0.8, "cooler should disengage: {a:.2} vs {b:.2}");
    }

    #[test]
    #[should_panic(expected = "pod power arity mismatch")]
    fn rejects_wrong_pod_count() {
        let mut plant = Plant::new(PlantConfig::parasol());
        let it = ItLoad::uniform(2, Watts::new(100.0), 0.5);
        plant.step(DT, outside(20.0, 50.0), &it, CoolingRegime::Closed);
    }

    #[test]
    fn bank_lanes_are_bit_identical_to_independent_plants() {
        // Three lanes under three different climates/loads/regimes, stepped
        // via step_all, must match three independent Plants bit for bit.
        let conditions =
            [outside(5.0, 60.0), outside(25.0, 50.0), outside(38.0, 80.0)];
        let loads = [
            ItLoad::uniform(4, Watts::new(125.0), 0.27),
            ItLoad::uniform(4, Watts::new(416.0), 1.0),
            ItLoad::uniform(4, Watts::new(50.0), 0.1),
        ];
        let regimes = [
            CoolingRegime::free_cooling(FanSpeed::new(0.6).unwrap()),
            CoolingRegime::Closed,
            CoolingRegime::ac_on(),
        ];
        let mut bank = PlantBank::new(PlantConfig::smooth(), 3);
        let mut plants: Vec<Plant> =
            (0..3).map(|_| Plant::new(PlantConfig::smooth())).collect();
        for step in 0..500 {
            // Rotate the regimes so actuator slew state is exercised too.
            let r = step / 100;
            let cmds: Vec<CoolingRegime> =
                (0..3).map(|i| regimes[(i + r) % 3]).collect();
            bank.step_all(DT, &conditions, &loads, &cmds);
            for (i, plant) in plants.iter_mut().enumerate() {
                plant.step(DT, conditions[i], &loads[i], cmds[i]);
            }
        }
        for (i, plant) in plants.iter().enumerate() {
            let a = bank.readings_lane(i, SimTime::EPOCH);
            let b = plant.readings(SimTime::EPOCH);
            assert_eq!(a.pod_inlets, b.pod_inlets, "lane {i} inlets diverged");
            assert_eq!(a.disk_temps, b.disk_temps, "lane {i} disks diverged");
            assert_eq!(a.cold_aisle_abs, b.cold_aisle_abs, "lane {i} humidity");
            assert_eq!(a.hot_aisle, b.hot_aisle, "lane {i} hot aisle");
            assert_eq!(a.regime, b.regime, "lane {i} applied regime");
        }
    }

    #[test]
    fn bank_reset_and_arity_checks() {
        let mut bank = PlantBank::new(PlantConfig::parasol(), 2);
        assert_eq!(bank.lanes(), 2);
        assert_eq!(bank.pods(), 4);
        bank.reset_lane_interior(1, Celsius::new(31.0), RelativeHumidity::new(40.0));
        let r0 = bank.readings_lane(0, SimTime::EPOCH);
        let r1 = bank.readings_lane(1, SimTime::EPOCH);
        assert!((r1.mean_inlet().value() - 31.0).abs() < 1e-9);
        assert!((r0.mean_inlet().value() - 20.0).abs() < 1e-9);
    }

    #[test]
    #[should_panic(expected = "outside arity mismatch")]
    fn bank_rejects_wrong_lane_count() {
        let mut bank = PlantBank::new(PlantConfig::parasol(), 2);
        let it = vec![load_27pct(); 2];
        bank.step_all(DT, &[outside(20.0, 50.0)], &it, &[CoolingRegime::Closed; 2]);
    }
}
