//! The paper's actual Real-Sim: a simulator whose *physics* is the learned
//! Cooling Model.
//!
//! §5.1: "To compute temperatures and humidity over time, they [Real-Sim and
//! Smooth-Sim] repeatedly call the same code implementing CoolAir's Cooling
//! Predictor." [`ModelPlant`] is that simulator: it exposes the same sensor
//! interface as the physics [`coolair_thermal::Plant`], but advances state
//! with the learned per-regime linear models. Comparing a controller driven
//! by the physics plant against the same controller driven by `ModelPlant`
//! reproduces the paper's Figure 6/7 validation ("89 % of all real baseline
//! measurements are within 2 °C of its simulation…").

use coolair::modeler::features::{humidity_features, temp_features};
use coolair::CoolingModel;
use coolair_thermal::{
    cooling_power, CoolingRegime, Infrastructure, ItLoad, ModelKey, OutsideConditions, PodId,
    SensorReadings,
};
use coolair_units::{
    psychro, AbsoluteHumidity, Celsius, RelativeHumidity, SimDuration, SimTime, Watts,
};

/// A model-driven container simulator (the paper's Real-Sim core).
#[derive(Debug)]
pub struct ModelPlant {
    model: CoolingModel,
    infra: Infrastructure,
    pod_temps: Vec<f64>,
    prev_temps: Vec<f64>,
    abs_humidity: f64,
    regime: CoolingRegime,
    prev_fan: f64,
    last_outside: OutsideConditions,
    /// Total and active fraction of the last IT load (for snapshots).
    last_it_power: Watts,
    last_active_fraction: f64,
    /// Model step (the models are trained at 2-minute resolution).
    step: SimDuration,
    /// Time left until the next whole model step.
    carry: SimDuration,
}

impl ModelPlant {
    /// Creates a model plant at a 20 °C / 40 %RH interior.
    #[must_use]
    pub fn new(model: CoolingModel, infra: Infrastructure) -> Self {
        let pods = model.pods();
        let start_abs =
            psychro::absolute_humidity(Celsius::new(20.0), RelativeHumidity::new(40.0));
        ModelPlant {
            model,
            infra,
            pod_temps: vec![20.0; pods],
            prev_temps: vec![20.0; pods],
            abs_humidity: start_abs.grams_per_kg(),
            regime: CoolingRegime::Closed,
            prev_fan: 0.0,
            last_outside: OutsideConditions {
                temperature: Celsius::new(20.0),
                abs_humidity: start_abs,
            },
            last_it_power: Watts::ZERO,
            last_active_fraction: 0.0,
            step: SimDuration::from_minutes(2),
            carry: SimDuration::ZERO,
        }
    }

    /// Number of pod sensors (cached from the model; no snapshot needed).
    #[must_use]
    pub fn pods(&self) -> usize {
        self.pod_temps.len()
    }

    /// Forces the interior to a uniform state.
    pub fn reset_interior(&mut self, temp: Celsius, rh: RelativeHumidity) {
        for t in self.pod_temps.iter_mut().chain(self.prev_temps.iter_mut()) {
            *t = temp.value();
        }
        self.abs_humidity = psychro::absolute_humidity(temp, rh).grams_per_kg();
    }

    /// Advances by `dt` under `commanded` cooling; model steps fire every
    /// 2 simulated minutes, accumulating shorter physics steps.
    pub fn step(
        &mut self,
        dt: SimDuration,
        outside: OutsideConditions,
        it: &ItLoad,
        commanded: CoolingRegime,
    ) {
        let target = self.infra.sanitize(commanded);
        self.carry += dt;
        self.last_outside = outside;
        self.last_it_power = it.total();
        self.last_active_fraction = it.active_fraction;
        while self.carry >= self.step {
            self.carry = self.carry - self.step;
            self.advance_one(outside, it, target);
        }
    }

    fn advance_one(&mut self, outside: OutsideConditions, it: &ItLoad, target: CoolingRegime) {
        let key = ModelKey::for_step(self.regime.class(), target.class());
        let fan = target.fan_speed().fraction();
        // Below the 15 % training floor, interpolate between the closed
        // anchor (fan 0) and the floor — the predictor does the same.
        let floor = coolair_units::FanSpeed::PARASOL_MIN.fraction();
        let (fan_eval, low_fan_weight) =
            if matches!(target, CoolingRegime::FreeCooling { .. }) && fan > 0.0 && fan < floor {
                (floor, Some(fan / floor))
            } else {
                (fan, None)
            };
        let t_out = outside.temperature.value();
        let pods = self.pod_temps.len();
        let mut next = vec![0.0; pods];
        for (p, slot) in next.iter_mut().enumerate() {
            let x = temp_features(
                self.pod_temps[p],
                self.prev_temps[p],
                t_out,
                t_out,
                fan_eval,
                self.prev_fan,
                it.active_fraction,
            );
            let mut predicted = self.model.predict_temp(key, PodId(p), &x);
            if let Some(w) = low_fan_weight {
                let closed_key =
                    ModelKey::for_step(self.regime.class(), CoolingRegime::Closed.class());
                let xc = temp_features(
                    self.pod_temps[p],
                    self.prev_temps[p],
                    t_out,
                    t_out,
                    0.0,
                    self.prev_fan,
                    it.active_fraction,
                );
                let closed = self.model.predict_temp(closed_key, PodId(p), &xc);
                predicted = w * predicted + (1.0 - w) * closed;
            }
            // The same sanity clamp the Cooling Predictor applies.
            *slot = predicted.clamp(self.pod_temps[p] - 12.0, self.pod_temps[p] + 12.0);
        }
        let hx = humidity_features(
            self.abs_humidity,
            outside.abs_humidity.grams_per_kg(),
            fan,
        );
        self.abs_humidity = self.model.predict_humidity(key, &hx).clamp(0.0, 40.0);
        self.prev_temps = std::mem::take(&mut self.pod_temps);
        self.pod_temps = next;
        self.prev_fan = fan;
        self.regime = target;
    }

    /// The regime currently applied.
    #[must_use]
    pub fn applied_regime(&self) -> CoolingRegime {
        self.regime
    }

    /// Cooling power drawn in the applied regime (the snapshot's
    /// `cooling_power`, without building the snapshot).
    #[must_use]
    pub fn cooling_power(&self) -> Watts {
        cooling_power(self.regime, self.infra)
    }

    /// Pod inlet temperatures (°C) and cold-aisle relative humidity — the
    /// snapshot's `pod_inlets` and `cold_aisle_rh`, without building it.
    #[must_use]
    pub fn inlets_and_rh(&self) -> (&[f64], RelativeHumidity) {
        let mean = self.pod_temps.iter().sum::<f64>() / self.pod_temps.len() as f64;
        let cold_abs = AbsoluteHumidity::new(self.abs_humidity);
        (&self.pod_temps, psychro::relative_humidity(Celsius::new(mean), cold_abs))
    }

    /// Sensor snapshot in the same shape the physics plant produces.
    #[must_use]
    pub fn readings(&self, now: SimTime) -> SensorReadings {
        let mean =
            self.pod_temps.iter().sum::<f64>() / self.pod_temps.len() as f64;
        let cold_abs = AbsoluteHumidity::new(self.abs_humidity);
        let (_, cold_aisle_rh) = self.inlets_and_rh();
        SensorReadings {
            time: now,
            outside_temp: self.last_outside.temperature,
            outside_rh: psychro::relative_humidity(
                self.last_outside.temperature,
                self.last_outside.abs_humidity,
            ),
            outside_abs: self.last_outside.abs_humidity,
            pod_inlets: self.pod_temps.iter().map(|&t| Celsius::new(t)).collect(),
            cold_aisle_rh,
            cold_aisle_abs: cold_abs,
            hot_aisle: Celsius::new(mean + 6.0),
            disk_temps: self
                .pod_temps
                .iter()
                .map(|&t| Celsius::new(t + 8.0))
                .collect(),
            regime: self.regime,
            cooling_power: self.cooling_power(),
            it_power: self.last_it_power,
            active_fraction: self.last_active_fraction,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use coolair::{train_cooling_model, TrainingConfig};
    use coolair_units::FanSpeed;
    use coolair_weather::{Location, TmySeries};

    fn plant() -> ModelPlant {
        let tmy = TmySeries::generate(&Location::newark(), 11);
        let model = train_cooling_model(&tmy, &TrainingConfig::quick());
        ModelPlant::new(model, Infrastructure::Parasol)
    }

    fn outside(t: f64) -> OutsideConditions {
        OutsideConditions {
            temperature: Celsius::new(t),
            abs_humidity: psychro::absolute_humidity(
                Celsius::new(t),
                RelativeHumidity::new(60.0),
            ),
        }
    }

    #[test]
    fn model_plant_cools_under_free_cooling() {
        let mut mp = plant();
        mp.reset_interior(Celsius::new(30.0), RelativeHumidity::new(40.0));
        let it = ItLoad::uniform(4, Watts::new(125.0), 0.27);
        for _ in 0..30 {
            mp.step(
                SimDuration::from_minutes(2),
                outside(8.0),
                &it,
                CoolingRegime::free_cooling(FanSpeed::new(0.5).unwrap()),
            );
        }
        assert!(
            mp.readings(SimTime::EPOCH).mean_inlet().value() < 22.0,
            "learned dynamics should cool: {}",
            mp.readings(SimTime::EPOCH).mean_inlet()
        );
    }

    #[test]
    fn model_plant_warms_when_closed_under_load() {
        let mut mp = plant();
        mp.reset_interior(Celsius::new(16.0), RelativeHumidity::new(40.0));
        let it = ItLoad::uniform(4, Watts::new(450.0), 0.95);
        for _ in 0..60 {
            mp.step(SimDuration::from_minutes(2), outside(14.0), &it, CoolingRegime::Closed);
        }
        assert!(
            mp.readings(SimTime::EPOCH).mean_inlet().value() > 16.5,
            "closed under load should warm: {}",
            mp.readings(SimTime::EPOCH).mean_inlet()
        );
    }

    #[test]
    fn sub_step_accumulation() {
        let mut mp = plant();
        let it = ItLoad::uniform(4, Watts::new(125.0), 0.27);
        let before = mp.readings(SimTime::EPOCH).mean_inlet();
        // Seven 15-second steps: still less than one model step — no change.
        for _ in 0..7 {
            mp.step(SimDuration::from_secs(15), outside(0.0), &it, CoolingRegime::Closed);
        }
        assert_eq!(mp.readings(SimTime::EPOCH).mean_inlet(), before);
        // The eighth crosses the 2-minute boundary.
        mp.step(SimDuration::from_secs(15), outside(0.0), &it, CoolingRegime::Closed);
        let _ = mp.readings(SimTime::EPOCH);
    }
}
