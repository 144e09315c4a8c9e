//! Validation harness: the Figure 5 prediction-error CDFs.
//!
//! "We compare the predicted temperatures to measured values in Parasol,
//! during two entire (and non-consecutive) days that were not in the
//! learning dataset" — four CDFs (2/10 minutes ahead, with and without
//! regime transitions), plus the humidity check ("97 % of our predictions
//! are within 5 % of the measured humidities").

use coolair::modeler::features::{humidity_features, temp_features};
use coolair::CoolingModel;
use coolair_ml::ErrorCdf;
use coolair_thermal::{
    CoolingRegime, ItLoad, ModelKey, OutsideConditions, Plant, PlantConfig, PodId,
    SensorReadings, TksConfig, TksController, SERVERS_PER_POD,
};
use coolair_units::{SimDuration, SimTime, Watts};
use coolair_weather::TmySeries;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// The Figure 5 report.
#[derive(Debug, Clone)]
pub struct ModelErrorReport {
    /// |predicted − measured| 2 minutes ahead, all intervals.
    pub two_min: ErrorCdf,
    /// 2 minutes ahead, intervals without a regime transition.
    pub two_min_no_transition: ErrorCdf,
    /// 10 minutes ahead (5 chained model steps), all windows.
    pub ten_min: ErrorCdf,
    /// 10 minutes ahead, windows without any regime transition.
    pub ten_min_no_transition: ErrorCdf,
    /// Relative-humidity prediction error, percentage points, 10 minutes
    /// ahead.
    pub humidity: ErrorCdf,
}

/// Simulates held-out days on the Parasol plant under the default TKS
/// controller (with a fresh utilisation schedule) and evaluates `model`'s
/// predictions against the plant.
#[must_use]
pub fn model_error_cdfs(
    model: &CoolingModel,
    tmy: &TmySeries,
    days: &[u64],
    seed: u64,
) -> ModelErrorReport {
    // --- collect a ground-truth trajectory --------------------------------
    let plant_cfg = PlantConfig::parasol();
    let pods = plant_cfg.layout.len();
    let mut plant = Plant::new(plant_cfg);
    let mut tks = TksController::new(TksConfig::factory());
    let mut rng = StdRng::seed_from_u64(seed ^ 0x5a11da7e);

    let dt = SimDuration::from_secs(15);
    let sample = SimDuration::from_minutes(2);
    let control = SimDuration::from_minutes(10);

    // (readings, class of regime applied during the following interval).
    let mut samples: Vec<SensorReadings> = Vec::new();

    for &day in days {
        let start = SimTime::from_days(day);
        let end = start + SimDuration::from_days(1);
        let mut t = start;
        let mut regime = CoolingRegime::Closed;
        let mut util = 0.3;
        let mut next_util = t;
        while t < end {
            if t >= next_util {
                util = rng.gen_range(0.1..0.9);
                next_util = t + SimDuration::from_minutes(rng.gen_range(45..150));
            }
            if (t % control).is_zero() {
                let readings = plant.readings(t);
                regime = tks.decide(&readings);
            }
            if (t % sample).is_zero() {
                samples.push(plant.readings(t));
            }
            let (temperature, abs_humidity) = tmy.outside_at(t);
            let outside = OutsideConditions { temperature, abs_humidity };
            let it = ItLoad::uniform(
                pods,
                Watts::new(util * SERVERS_PER_POD as f64 * 26.0),
                util,
            );
            plant.step(dt, outside, &it, regime);
            t += dt;
        }
        // Mark the day boundary so windows do not straddle held-out days.
        samples.push(plant.readings(SimTime::from_secs(u64::MAX / 2)));
    }

    // --- evaluate the model against the trajectory -------------------------
    let mut two = Vec::new();
    let mut two_nt = Vec::new();
    let mut ten = Vec::new();
    let mut ten_nt = Vec::new();
    let mut hum = Vec::new();

    let horizon = 5;
    let boundary = |s: &SensorReadings| s.time.as_secs() >= u64::MAX / 4;

    for k in 1..samples.len().saturating_sub(horizon) {
        if (k - 1..=k + horizon).any(|i| boundary(&samples[i])) {
            continue;
        }
        let r_prev = &samples[k - 1];
        let r_now = &samples[k];

        // Roll the model forward `horizon` steps following the *actual*
        // regime sequence the plant executed.
        let mut t_now: Vec<f64> = r_now.pod_inlets.iter().map(|c| c.value()).collect();
        let mut t_prev: Vec<f64> = r_prev.pod_inlets.iter().map(|c| c.value()).collect();
        let mut w = r_now.cold_aisle_abs.grams_per_kg();
        let mut fan_prev = r_now.regime.fan_speed().fraction();
        let mut any_transition = false;

        for step in 0..horizon {
            let from = samples[k + step].regime.class();
            let to = samples[k + step + 1].regime.class();
            let key = ModelKey::for_step(from, to);
            if key.is_transition() {
                any_transition = true;
            }
            let fan = samples[k + step + 1].regime.fan_speed().fraction();
            let t_out = samples[k + step].outside_temp.value();
            let mut next = vec![0.0; t_now.len()];
            for (p, slot) in next.iter_mut().enumerate() {
                let x = temp_features(
                    t_now[p],
                    t_prev[p],
                    t_out,
                    t_out,
                    fan,
                    fan_prev,
                    samples[k + step].active_fraction,
                );
                *slot = model.predict_temp(key, PodId(p), &x);
            }
            let hx = humidity_features(w, samples[k + step].outside_abs.grams_per_kg(), fan);
            w = model.predict_humidity(key, &hx);
            t_prev = std::mem::take(&mut t_now);
            t_now = next;
            fan_prev = fan;

            if step == 0 {
                let actual = &samples[k + 1];
                for (p, pred) in t_now.iter().enumerate() {
                    let e = pred - actual.pod_inlets[p].value();
                    two.push(e);
                    if !key.is_transition() {
                        two_nt.push(e);
                    }
                }
            }
        }

        let actual = &samples[k + horizon];
        for (p, pred) in t_now.iter().enumerate() {
            let e = pred - actual.pod_inlets[p].value();
            ten.push(e);
            if !any_transition {
                ten_nt.push(e);
            }
        }
        // Humidity: convert predicted absolute to RH at the actual mean
        // inlet temperature, as §3.1 describes.
        let rh_pred = coolair_units::psychro::relative_humidity(
            actual.mean_inlet(),
            coolair_units::AbsoluteHumidity::new(w.max(0.0)),
        );
        hum.push(rh_pred.percent() - actual.cold_aisle_rh.percent());
    }

    ModelErrorReport {
        two_min: ErrorCdf::from_errors(two),
        two_min_no_transition: ErrorCdf::from_errors(two_nt),
        ten_min: ErrorCdf::from_errors(ten),
        ten_min_no_transition: ErrorCdf::from_errors(ten_nt),
        humidity: ErrorCdf::from_errors(hum),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use coolair::{train_cooling_model, TrainingConfig};
    use coolair_weather::Location;

    #[test]
    fn model_accuracy_matches_paper_quality_gates() {
        let tmy = TmySeries::generate(&Location::newark(), 11);
        let model = train_cooling_model(&tmy, &TrainingConfig::quick());
        // Held-out, non-consecutive days beyond the quick 8-day training
        // window.
        let report = model_error_cdfs(&model, &tmy, &[40, 80], 3);

        assert!(report.two_min.len() > 1000);
        let p2nt = report.two_min_no_transition.fraction_within(1.0);
        assert!(
            p2nt > 0.85,
            "paper: 95% of no-transition 2-min predictions within 1°C; got {:.1}%",
            p2nt * 100.0
        );
        let p10nt = report.ten_min_no_transition.fraction_within(1.0);
        assert!(
            p10nt > 0.70,
            "paper: 90% of no-transition 10-min predictions within 1°C; got {:.1}%",
            p10nt * 100.0
        );
        let p2 = report.two_min.fraction_within(1.0);
        assert!(p2 > 0.80, "paper: >90% of all 2-min within 1°C; got {:.1}%", p2 * 100.0);
        let hum = report.humidity.fraction_within(5.0);
        assert!(
            hum > 0.80,
            "paper: 97% of humidity predictions within 5%; got {:.1}%",
            hum * 100.0
        );
        // No-transition predictions are (about) as good or better.
        assert!(
            report.two_min_no_transition.fraction_within(1.0)
                >= report.two_min.fraction_within(1.0) - 0.02
        );
    }
}
