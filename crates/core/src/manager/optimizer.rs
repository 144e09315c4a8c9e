//! The Cooling Optimizer (§3.2): pick the best regime for the next period.

use coolair_telemetry::Telemetry;
use coolair_thermal::{CoolingRegime, Infrastructure, SensorReadings};
use serde::{Deserialize, Serialize};

use crate::config::{CoolAirConfig, UtilityProfile};
use crate::manager::band::TempBand;
use crate::manager::predictor::{Prediction, PredictionBuffers, PredictionContext};
use crate::manager::utility::utility_penalty;
use crate::modeler::CoolingModel;

/// The optimizer's choice for the next control period.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Decision {
    /// The selected regime.
    pub regime: CoolingRegime,
    /// Its utility penalty (lower is better).
    pub penalty: f64,
    /// Its predicted outcome.
    pub prediction: Prediction,
    /// How many candidates were evaluated.
    pub candidates: usize,
}

/// Why [`CoolingOptimizer::select`] could not produce a decision.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SelectError {
    /// The infrastructure offered an empty candidate-regime list, so there
    /// was nothing to choose from. Cannot happen with the built-in
    /// [`Infrastructure`] variants, whose candidate lists are non-empty by
    /// construction.
    NoCandidates,
}

impl std::fmt::Display for SelectError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SelectError::NoCandidates => {
                write!(f, "infrastructure offers no candidate regimes")
            }
        }
    }
}

impl std::error::Error for SelectError {}

/// Evaluates every candidate regime the infrastructure offers and returns
/// the one with the lowest utility penalty; predicted cooling energy breaks
/// ties, so "do nothing" (closed) wins whenever nothing is at risk.
///
/// Every candidate of a tick is predicted through one shared
/// [`PredictionContext`], which rolls each distinct regime forward once,
/// into one of two prediction buffers the optimizer keeps across ticks:
/// each candidate is scored as soon as it is written, and the best so far
/// is kept by swapping buffers. The context works in buffers the optimizer
/// keeps across ticks too, so a warmed tick allocates only the prediction
/// the returned [`Decision`] copies.
#[derive(Debug, Clone)]
pub struct CoolingOptimizer {
    profile: UtilityProfile,
    infra: Infrastructure,
    telemetry: Telemetry,
    /// The infrastructure's candidate regimes, listed once.
    candidates: Vec<CoolingRegime>,
    /// The candidate being scored.
    scored: Prediction,
    /// The best candidate so far this tick.
    best: Prediction,
    /// The prediction context's start state, scratch and anchors.
    buffers: PredictionBuffers,
}

impl CoolingOptimizer {
    /// Creates an optimizer for one version's utility profile on the given
    /// infrastructure.
    #[must_use]
    pub fn new(profile: UtilityProfile, infra: Infrastructure) -> Self {
        CoolingOptimizer {
            profile,
            infra,
            telemetry: Telemetry::disabled(),
            candidates: infra.candidate_regimes(),
            scored: Prediction::default(),
            best: Prediction::default(),
            buffers: PredictionBuffers::default(),
        }
    }

    /// Attaches a telemetry bus; selections are wrapped in the
    /// `optimizer.select` profiling scope and each candidate prediction in
    /// `model.predict_regime`.
    pub fn set_telemetry(&mut self, telemetry: Telemetry) {
        self.telemetry = telemetry;
    }

    /// The utility profile in force.
    #[must_use]
    pub fn profile(&self) -> &UtilityProfile {
        &self.profile
    }

    /// Selects the best regime for the next control period.
    ///
    /// # Errors
    ///
    /// Returns [`SelectError::NoCandidates`] when the infrastructure's
    /// candidate list is empty (impossible for the built-in
    /// infrastructures).
    ///
    /// # Panics
    ///
    /// Panics if `active_pods` arity disagrees with the model's pod count.
    pub fn select(
        &mut self,
        model: &CoolingModel,
        cfg: &CoolAirConfig,
        readings: &SensorReadings,
        prev: Option<&SensorReadings>,
        band: Option<TempBand>,
        active_pods: &[bool],
    ) -> Result<Decision, SelectError> {
        assert_eq!(active_pods.len(), model.pods(), "active pod arity");
        let _select_scope = self.telemetry.time_scope("optimizer.select");
        let buffers = std::mem::take(&mut self.buffers);
        let mut ctx =
            PredictionContext::with_buffers(model, cfg, self.infra, readings, prev, buffers);
        let mut best: Option<(CoolingRegime, f64)> = None;
        for &candidate in &self.candidates {
            {
                let _predict_scope = self.telemetry.time_scope("model.predict_regime");
                ctx.predict_into(candidate, &mut self.scored);
            }
            let penalty =
                utility_penalty(&self.profile, cfg, band, &self.scored, active_pods, candidate);
            let better = match best {
                None => true,
                Some((_, bp)) => {
                    penalty < bp - 1e-9
                        || ((penalty - bp).abs() <= 1e-9
                            && self.scored.energy_kwh < self.best.energy_kwh)
                }
            };
            if better {
                best = Some((candidate, penalty));
                std::mem::swap(&mut self.scored, &mut self.best);
            }
        }
        self.buffers = ctx.into_buffers();
        let (regime, penalty) = best.ok_or(SelectError::NoCandidates)?;
        Ok(Decision {
            regime,
            penalty,
            prediction: self.best.clone(),
            candidates: self.candidates.len(),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::Version;
    use crate::modeler::{train_cooling_model, TrainingConfig};
    use coolair_units::{psychro, Celsius, RelativeHumidity, SimTime, Watts};
    use coolair_weather::{Location, TmySeries};

    fn model() -> CoolingModel {
        let tmy = TmySeries::generate(&Location::newark(), 11);
        train_cooling_model(&tmy, &TrainingConfig::quick())
    }

    fn readings(inlet: f64, outside: f64, rh_in: f64) -> SensorReadings {
        let t = Celsius::new(inlet);
        let out = Celsius::new(outside);
        SensorReadings {
            time: SimTime::EPOCH,
            outside_temp: out,
            outside_rh: RelativeHumidity::new(60.0),
            outside_abs: psychro::absolute_humidity(out, RelativeHumidity::new(60.0)),
            pod_inlets: vec![t; 4],
            cold_aisle_rh: RelativeHumidity::new(rh_in),
            cold_aisle_abs: psychro::absolute_humidity(t, RelativeHumidity::new(rh_in)),
            hot_aisle: Celsius::new(inlet + 6.0),
            disk_temps: vec![Celsius::new(inlet + 10.0); 4],
            regime: CoolingRegime::Closed,
            cooling_power: Watts::ZERO,
            it_power: Watts::new(500.0),
            active_fraction: 0.3,
        }
    }

    #[test]
    fn comfortable_state_prefers_closed() {
        let m = model();
        let cfg = CoolAirConfig::default();
        let mut opt = CoolingOptimizer::new(Version::AllNd.utility(&cfg), Infrastructure::Parasol);
        let band = TempBand::new(Celsius::new(20.0), Celsius::new(25.0));
        let r = readings(22.0, 15.0, 45.0);
        let d = opt.select(&m, &cfg, &r, None, Some(band), &[true; 4]).unwrap();
        assert_eq!(d.regime, CoolingRegime::Closed, "penalty {}", d.penalty);
        assert!(d.candidates >= 8);
    }

    #[test]
    fn overheating_with_cold_outside_prefers_free_cooling_on_smooth() {
        // On Parasol the 15 % minimum fan would crash temperatures through
        // the 20 °C/h rate limit (the Figure 7(b) problem), so CoolAir may
        // dodge free cooling there; the smooth infrastructure offers gentle
        // speeds that make free cooling the clear winner.
        let m = model();
        let cfg = CoolAirConfig::default();
        let mut opt = CoolingOptimizer::new(Version::AllNd.utility(&cfg), Infrastructure::Smooth);
        let band = TempBand::new(Celsius::new(20.0), Celsius::new(25.0));
        let r = readings(26.5, 16.0, 45.0);
        let d = opt.select(&m, &cfg, &r, None, Some(band), &[true; 4]).unwrap();
        assert!(
            matches!(d.regime, CoolingRegime::FreeCooling { .. }),
            "expected free cooling, got {} (penalty {})",
            d.regime,
            d.penalty
        );
    }

    #[test]
    fn parasol_abruptness_discourages_min_fan_when_rate_limited() {
        // The documented Parasol limitation: with very cold outside air even
        // the minimum fan speed moves temperatures too fast, so the
        // optimizer's choice is *not* free cooling at a high speed.
        let m = model();
        let cfg = CoolAirConfig::default();
        let mut opt = CoolingOptimizer::new(Version::AllNd.utility(&cfg), Infrastructure::Parasol);
        let band = TempBand::new(Celsius::new(20.0), Celsius::new(25.0));
        let r = readings(28.0, 10.0, 45.0);
        let d = opt.select(&m, &cfg, &r, None, Some(band), &[true; 4]).unwrap();
        if let CoolingRegime::FreeCooling { fan } = d.regime {
            assert!(fan.fraction() <= 0.25, "abrupt fast fan chosen: {fan}");
        }
    }

    #[test]
    fn overheating_with_hot_outside_prefers_ac() {
        let m = model();
        let cfg = CoolAirConfig::default();
        let mut opt = CoolingOptimizer::new(Version::AllNd.utility(&cfg), Infrastructure::Parasol);
        let band = TempBand::new(Celsius::new(25.0), Celsius::new(30.0));
        let r = readings(31.5, 38.0, 45.0);
        let d = opt.select(&m, &cfg, &r, None, Some(band), &[true; 4]).unwrap();
        assert!(
            matches!(d.regime, CoolingRegime::Ac { .. }),
            "expected AC with 38°C outside, got {}",
            d.regime
        );
    }

    #[test]
    fn smooth_infrastructure_offers_gentler_choices() {
        let m = model();
        let cfg = CoolAirConfig::default();
        let mut opt = CoolingOptimizer::new(Version::AllNd.utility(&cfg), Infrastructure::Smooth);
        let band = TempBand::new(Celsius::new(20.0), Celsius::new(25.0));
        // Slightly above band with very cold outside: Parasol's 15 % minimum
        // fan overshoots; smooth can pick a whisper of air.
        let r = readings(25.6, -5.0, 45.0);
        let d = opt.select(&m, &cfg, &r, None, Some(band), &[true; 4]).unwrap();
        if let CoolingRegime::FreeCooling { fan } = d.regime {
            assert!(fan.fraction() < 0.15, "expected sub-15% fan, got {fan}");
        }
        // Whatever the choice, the predicted change must be small.
        assert!(d.prediction.deltas.iter().all(|&x| x < 6.0));
    }

    #[test]
    fn decision_is_deterministic() {
        let m = model();
        let cfg = CoolAirConfig::default();
        let mut opt = CoolingOptimizer::new(Version::AllNd.utility(&cfg), Infrastructure::Parasol);
        let band = TempBand::new(Celsius::new(20.0), Celsius::new(25.0));
        let r = readings(24.0, 12.0, 45.0);
        let a = opt.select(&m, &cfg, &r, None, Some(band), &[true; 4]).unwrap();
        let b = opt.select(&m, &cfg, &r, None, Some(band), &[true; 4]).unwrap();
        assert_eq!(a.regime, b.regime);
    }

    #[test]
    fn select_error_displays() {
        let e = SelectError::NoCandidates;
        assert!(e.to_string().contains("no candidate"));
        let boxed: Box<dyn std::error::Error> = Box::new(e);
        assert!(boxed.source().is_none());
    }
}
