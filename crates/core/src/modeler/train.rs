//! Offline data collection and model fitting.
//!
//! "To create our models, we collected temperature, humidity, power
//! consumption data from Parasol for 1.5 months. To get a richer dataset
//! within this period of time, we intentionally generated extreme situations
//! by changing the cooling setup (e.g., temperature setpoint), and monitored
//! the resulting behaviors." (§4.2) The collection loop below does exactly
//! that against the physics plant: it runs the factory TKS controller,
//! periodically retargets its setpoint, occasionally forces arbitrary
//! regimes (so AC and transition data exist even in cold climates), and
//! varies the offered utilisation.

use std::collections::HashMap;

use coolair_ml::{fit_best_linear, Dataset, LinearModel, M5pConfig, ModelTree};
use coolair_thermal::{
    CoolingRegime, ItLoad, ModelKey, OutsideConditions, Plant, PlantConfig, PodId, RegimeClass,
    SensorReadings, TksConfig, TksController, SERVERS_PER_POD,
};
use coolair_units::{Celsius, FanSpeed, SimDuration, SimTime, Watts};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use serde::{Deserialize, Serialize};

use super::features::{
    humidity_features, power_features, temp_features, HUM_FEATURE_NAMES, POWER_FEATURE_NAMES,
    TEMP_FEATURE_NAMES,
};
use super::model::{CoolingModel, PowerModel, RegimeModels};

/// Configuration of the offline training run.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TrainingConfig {
    /// Days of monitoring data to collect (§4.2: 1.5 months ≈ 45 days).
    pub days: u64,
    /// RNG seed for the perturbation schedule.
    pub seed: u64,
    /// Minimum rows before a key gets its own fitted model; sparser keys
    /// fall back to the destination regime's steady model at prediction
    /// time.
    pub min_samples_per_key: usize,
}

impl Default for TrainingConfig {
    fn default() -> Self {
        TrainingConfig { days: 45, seed: 7, min_samples_per_key: 60 }
    }
}

impl TrainingConfig {
    /// A fast configuration for tests (roughly a week of data).
    #[must_use]
    pub fn quick() -> Self {
        TrainingConfig { days: 8, seed: 7, min_samples_per_key: 30 }
    }
}

struct KeyData {
    temp: Vec<Dataset>,
    hum: Dataset,
    power: Dataset,
}

impl KeyData {
    fn new(pods: usize) -> Self {
        let names = |ns: &[&str]| ns.iter().map(|s| (*s).to_string()).collect::<Vec<_>>();
        KeyData {
            temp: (0..pods).map(|_| Dataset::new(names(&TEMP_FEATURE_NAMES))).collect(),
            hum: Dataset::new(names(&HUM_FEATURE_NAMES)),
            power: Dataset::new(names(&POWER_FEATURE_NAMES)),
        }
    }
}

/// Runs the §4.2 data-collection campaign against the Parasol physics plant
/// under the weather in `tmy`, and fits the Cooling Model.
///
/// Deterministic for a given `(tmy, config)` pair.
#[must_use]
pub fn train_cooling_model(tmy: &coolair_weather::TmySeries, config: &TrainingConfig) -> CoolingModel {
    let plant_cfg = PlantConfig::parasol();
    let pods = plant_cfg.layout.len();
    let mut plant = Plant::new(plant_cfg);
    let mut tks = TksController::new(TksConfig::factory());
    let mut rng = StdRng::seed_from_u64(config.seed);

    let dt = SimDuration::from_secs(15);
    let sample_period = SimDuration::from_minutes(2);
    let control_period = SimDuration::from_minutes(10);
    let end = SimTime::from_days(config.days);

    let mut data: HashMap<ModelKey, KeyData> = HashMap::new();
    let mut recirc_score = vec![0.0_f64; pods];

    let mut now = SimTime::EPOCH;
    let mut regime = CoolingRegime::Closed;
    let mut forced: Option<(CoolingRegime, SimTime)> = None;
    let mut util = 0.3_f64;
    let mut next_util_change = SimTime::EPOCH;
    let mut next_setpoint_change = SimTime::EPOCH;
    let mut next_force_consider = SimTime::EPOCH;

    // (readings, regime-class in effect during the interval ending at the
    // reading) for the last two samples.
    let mut history: Vec<(SensorReadings, RegimeClass)> = Vec::with_capacity(3);

    while now < end {
        // --- perturbation schedule -------------------------------------
        if now >= next_util_change {
            util = rng.gen_range(0.05..1.0);
            next_util_change = now + SimDuration::from_minutes(rng.gen_range(60..180));
        }
        if now >= next_setpoint_change {
            tks.set_setpoint(Celsius::new(rng.gen_range(18.0..32.0)));
            next_setpoint_change = now + SimDuration::from_hours(rng.gen_range(2..6));
        }
        if now >= next_force_consider {
            if rng.gen_bool(0.5) {
                let candidates = [
                    CoolingRegime::Closed,
                    CoolingRegime::free_cooling(FanSpeed::PARASOL_MIN),
                    CoolingRegime::free_cooling(FanSpeed::new(0.25).expect("static")),
                    CoolingRegime::free_cooling(FanSpeed::new(0.5).expect("static")),
                    CoolingRegime::free_cooling(FanSpeed::new(0.75).expect("static")),
                    CoolingRegime::free_cooling(FanSpeed::MAX),
                    CoolingRegime::ac_fan_only(),
                    CoolingRegime::ac_on(),
                ];
                let pick = candidates[rng.gen_range(0..candidates.len())];
                let until = now + SimDuration::from_minutes(rng.gen_range(20..50));
                forced = Some((pick, until));
            }
            next_force_consider = now + SimDuration::from_minutes(rng.gen_range(90..180));
        }

        // --- control ----------------------------------------------------
        if (now % control_period).is_zero() {
            let readings = plant.readings(now);
            let tks_choice = tks.decide(&readings);
            regime = match forced {
                Some((f, until)) if now < until => f,
                _ => {
                    forced = None;
                    tks_choice
                }
            };
        }

        // --- sampling -----------------------------------------------------
        if (now % sample_period).is_zero() {
            let readings = plant.readings(now);
            let class = plant.applied_regime().class();
            for (i, t) in readings.pod_inlets.iter().enumerate() {
                recirc_score[i] += t.value() - readings.mean_inlet().value();
            }
            if history.len() == 2 {
                // Row: predict sample k+1 from samples k and k-1; the key is
                // the regime transition across the (k → k+1) interval.
                let (ref r_prev, _) = history[0];
                let (ref r_now, class_now) = history[1];
                let key = ModelKey::for_step(class_now, class);
                let fan_now = r_now.regime.fan_speed().fraction();
                let fan_prev = r_prev.regime.fan_speed().fraction();
                // The fan during the predicted interval is the new regime's.
                let fan_next = plant.applied_regime().fan_speed().fraction();
                let entry = data.entry(key).or_insert_with(|| KeyData::new(pods));
                for p in 0..pods {
                    let x = temp_features(
                        r_now.pod_inlets[p].value(),
                        r_prev.pod_inlets[p].value(),
                        r_now.outside_temp.value(),
                        r_prev.outside_temp.value(),
                        fan_next,
                        fan_now,
                        r_now.active_fraction,
                    );
                    let _ = entry.temp[p].push(x.to_vec(), readings.pod_inlets[p].value());
                }
                let hx = humidity_features(
                    r_now.cold_aisle_abs.grams_per_kg(),
                    r_now.outside_abs.grams_per_kg(),
                    fan_next,
                );
                let _ = entry.hum.push(hx.to_vec(), readings.cold_aisle_abs.grams_per_kg());
                let px = power_features(fan_next, plant.applied_regime().compressor());
                let _ = entry.power.push(px.to_vec(), readings.cooling_power.value());
                let _ = fan_prev;
            }
            history.push((readings, class));
            if history.len() > 2 {
                history.remove(0);
            }
        }

        // --- physics -------------------------------------------------------
        let per_pod = Watts::new(util * SERVERS_PER_POD as f64 * 26.0);
        let it = ItLoad::uniform(pods, per_pod, util);
        let (temperature, abs_humidity) = tmy.outside_at(now);
        let outside = OutsideConditions { temperature, abs_humidity };
        plant.step(dt, outside, &it, regime);
        now += dt;
    }

    fit(data, recirc_score, pods, config)
}

fn fit(
    data: HashMap<ModelKey, KeyData>,
    recirc_score: Vec<f64>,
    pods: usize,
    config: &TrainingConfig,
) -> CoolingModel {
    let mut models = HashMap::new();
    for (key, kd) in data {
        if kd.hum.len() < config.min_samples_per_key {
            continue;
        }
        let pod_temp: Vec<LinearModel> = kd
            .temp
            .iter()
            .map(|d| {
                fit_best_linear(d, config.seed).unwrap_or_else(|_| persistence_temp_model())
            })
            .collect();
        let humidity =
            fit_best_linear(&kd.hum, config.seed).unwrap_or_else(|_| persistence_hum_model());
        let power = fit_power(&kd.power, key);
        models.insert(
            key,
            RegimeModels { pod_temp, humidity, power, samples: kd.hum.len() },
        );
    }

    // Rank pods by mean inlet-temperature excess: consistently warmer pods
    // are the ones most exposed to heat recirculation.
    let mut ranking: Vec<PodId> = (0..pods).map(PodId).collect();
    ranking.sort_by(|a, b| recirc_score[b.index()].total_cmp(&recirc_score[a.index()]));

    CoolingModel::new(models, ranking, pods)
}

fn fit_power(power: &Dataset, key: ModelKey) -> PowerModel {
    let steady_fc = matches!(key, ModelKey::Steady(RegimeClass::FreeCooling));
    if steady_fc && power.len() >= 30 {
        // Piecewise-linear M5P over fan speed captures the cubic fan law.
        if let Ok(tree) = ModelTree::fit(power, M5pConfig { smoothing: 0.0, ..M5pConfig::default() })
        {
            return PowerModel::Tree(tree);
        }
    }
    PowerModel::Constant(power.target_mean())
}

fn persistence_temp_model() -> LinearModel {
    let mut coeffs = vec![0.0; super::features::TEMP_FEATURES];
    coeffs[0] = 1.0;
    LinearModel::from_parts(0.0, coeffs)
}

fn persistence_hum_model() -> LinearModel {
    let mut coeffs = vec![0.0; super::features::HUM_FEATURES];
    coeffs[0] = 1.0;
    LinearModel::from_parts(0.0, coeffs)
}

#[cfg(test)]
mod tests {
    use super::*;
    use coolair_weather::{Location, TmySeries};

    fn quick_model() -> CoolingModel {
        let tmy = TmySeries::generate(&Location::newark(), 11);
        train_cooling_model(&tmy, &TrainingConfig::quick())
    }

    #[test]
    fn learns_steady_models_for_main_regimes() {
        let model = quick_model();
        assert!(model.models_for(ModelKey::Steady(RegimeClass::Closed)).is_some());
        assert!(model.models_for(ModelKey::Steady(RegimeClass::FreeCooling)).is_some());
        assert!(
            model.models_for(ModelKey::Steady(RegimeClass::AcCompressorOn)).is_some(),
            "forced episodes must produce AC data even in cold weather"
        );
    }

    #[test]
    fn recirc_ranking_matches_layout() {
        let model = quick_model();
        // Pod 0 has the highest recirc factor in the Parasol layout, pod 3
        // the lowest: the learned ranking must recover that.
        assert_eq!(model.recirc_ranking().first(), Some(&PodId(0)));
        assert_eq!(model.recirc_ranking().last(), Some(&PodId(3)));
    }

    #[test]
    fn free_cooling_model_responds_to_fan_speed() {
        let model = quick_model();
        // Predicted power at full fan must exceed power at min fan.
        let slow = model.predict_power(RegimeClass::FreeCooling, 0.15, 0.0);
        let fast = model.predict_power(RegimeClass::FreeCooling, 1.0, 0.0);
        assert!(
            fast > slow + 100.0,
            "learned fan power law too flat: {slow:.0} W vs {fast:.0} W"
        );
    }

    #[test]
    fn temperature_model_tracks_cooling_direction() {
        let model = quick_model();
        // Free cooling with cold outside air must predict falling temps.
        let x = temp_features(30.0, 30.0, 5.0, 5.0, 1.0, 1.0, 0.3);
        let predicted = model.predict_temp(
            ModelKey::Steady(RegimeClass::FreeCooling),
            PodId(0),
            &x,
        );
        assert!(
            predicted < 29.0,
            "full fan with 5°C outside should cool from 30°C, predicted {predicted:.2}"
        );
        // Closed container with low temps must predict warming.
        let x = temp_features(15.0, 15.0, 10.0, 10.0, 0.0, 0.0, 0.8);
        let predicted =
            model.predict_temp(ModelKey::Steady(RegimeClass::Closed), PodId(0), &x);
        assert!(
            predicted > 14.9,
            "closed container under load should not cool, predicted {predicted:.2}"
        );
    }

    #[test]
    fn training_is_deterministic() {
        let tmy = TmySeries::generate(&Location::newark(), 11);
        let a = train_cooling_model(&tmy, &TrainingConfig::quick());
        let b = train_cooling_model(&tmy, &TrainingConfig::quick());
        let x = temp_features(25.0, 24.5, 12.0, 12.5, 0.5, 0.5, 0.4);
        assert_eq!(
            a.predict_temp(ModelKey::Steady(RegimeClass::FreeCooling), PodId(1), &x),
            b.predict_temp(ModelKey::Steady(RegimeClass::FreeCooling), PodId(1), &x),
        );
    }
}
