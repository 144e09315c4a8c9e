//! The Cooling Predictor (§3.2).
//!
//! "The Cooling Optimizer calls the Cooling Predictor when it needs
//! temperature and relative humidity predictions for a cooling regime it is
//! considering. The Predictor then uses the Cooling Model to produce the
//! predictions. However, as the Cooling Model predicts temperatures for a
//! short term, the Cooling Predictor has to use it repeatedly (each time
//! passing the results of the previous use as input)."

use coolair_thermal::{CoolingRegime, Infrastructure, ModelKey, PodId, RegimeClass, SensorReadings};
use coolair_units::{psychro, AbsoluteHumidity, Celsius, FanSpeed, RelativeHumidity};
use serde::{Deserialize, Serialize};

use crate::config::CoolAirConfig;
use crate::modeler::features::{humidity_features, temp_features};
use crate::modeler::CoolingModel;

/// The predicted outcome of holding one cooling regime for a full control
/// period.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct Prediction {
    /// Predicted inlet temperature per pod at the end of the period.
    pub final_temps: Vec<Celsius>,
    /// Highest predicted temperature per pod over the period.
    pub max_temps: Vec<Celsius>,
    /// Mean predicted temperature per pod over the period's sub-steps —
    /// the time-integral that the over-maximum penalty charges ("each
    /// sensor reading above the threshold"), so a regime that *recovers*
    /// from a violation scores better than one that stays hot.
    pub mean_temps: Vec<Celsius>,
    /// The starting temperatures the prediction departed from.
    pub start_temps: Vec<Celsius>,
    /// Per-pod absolute change from the starting temperature.
    pub deltas: Vec<f64>,
    /// Predicted cold-aisle relative humidity at the end of the period.
    pub final_rh: RelativeHumidity,
    /// Predicted cooling energy over the period, kWh.
    pub energy_kwh: f64,
}

impl Prediction {
    /// Overwrites `self` with `other`, reusing `self`'s buffers (the derived
    /// `clone_from` would allocate fresh ones).
    fn assign(&mut self, other: &Prediction) {
        self.final_temps.clone_from(&other.final_temps);
        self.max_temps.clone_from(&other.max_temps);
        self.mean_temps.clone_from(&other.mean_temps);
        self.start_temps.clone_from(&other.start_temps);
        self.deltas.clone_from(&other.deltas);
        self.final_rh = other.final_rh;
        self.energy_kwh = other.energy_kwh;
    }
}

/// Replaces `out`'s contents with `values`, keeping its allocation.
fn refill<T>(out: &mut Vec<T>, values: impl Iterator<Item = T>) {
    out.clear();
    out.extend(values);
}

/// Reusable per-candidate working buffers for the prediction roll-forward.
///
/// One set of buffers serves every candidate of a tick (and, via
/// [`PredictionContext`] reuse, every tick of a run): the roll-forward
/// mutates these in place instead of allocating five fresh `Vec`s per
/// candidate as the original `predict_regime` did. Ownership rule: the
/// scratch belongs to the context; callers never see it, and its contents
/// are dead between `predict` calls (every cell is overwritten before it
/// is read).
#[derive(Debug, Clone, Default)]
struct PredictScratch {
    t_now: Vec<f64>,
    t_prev: Vec<f64>,
    next: Vec<f64>,
    max_temps: Vec<f64>,
    sum_temps: Vec<f64>,
}

/// The buffers a [`PredictionContext`] works in, handed from one tick's
/// context to the next so that a warmed tick allocates nothing: the start
/// state, the roll-forward scratch and the anchor predictions. Their
/// contents are dead between contexts; only the allocations carry over.
#[derive(Debug, Clone, Default)]
pub(crate) struct PredictionBuffers {
    base_t_now: Vec<f64>,
    base_t_prev: Vec<f64>,
    scratch: PredictScratch,
    /// Anchor slots; the first `anchors_len` of a context are this tick's.
    anchors: Vec<(CoolingRegime, Prediction)>,
}

/// Phase one of the two-phase prediction API: everything about a tick that
/// does **not** depend on the candidate regime, computed exactly once.
///
/// The Cooling Optimizer evaluates ~8 (Parasol) to ~20 (smooth) candidate
/// regimes per control period, and the original `predict_regime` re-derived
/// the start state — per-pod temperature vectors, humidity, previous fan
/// speed, outside conditions — from the `SensorReadings` for every one of
/// them, allocating as it went. A `PredictionContext` hoists all of that
/// candidate-invariant work into its constructor, so the per-tick cost of
/// it drops from O(candidates) to O(1); [`PredictionContext::predict_into`]
/// then fills in only the regime-dependent features, rolling the model
/// forward in reusable scratch buffers and writing the outcome into a
/// caller-owned [`Prediction`] whose buffers it reuses.
///
/// ```
/// # use coolair::manager::predictor::PredictionContext;
/// # use coolair::{train_cooling_model, CoolAirConfig, TrainingConfig};
/// # use coolair_thermal::Infrastructure;
/// # use coolair_weather::{Location, TmySeries};
/// # let tmy = TmySeries::generate(&Location::newark(), 11);
/// # let model = train_cooling_model(&tmy, &TrainingConfig::quick());
/// # let cfg = CoolAirConfig::default();
/// # let plant = coolair_thermal::Plant::new(coolair_thermal::PlantConfig::parasol());
/// # let readings = plant.readings(coolair_units::SimTime::EPOCH);
/// let infra = Infrastructure::Smooth;
/// let mut ctx = PredictionContext::new(&model, &cfg, infra, &readings, None);
/// let mut prediction = coolair::manager::predictor::Prediction::default();
/// for candidate in infra.candidate_regimes() {
///     ctx.predict_into(candidate, &mut prediction);
///     assert!(prediction.final_rh.percent() <= 100.0);
/// }
/// ```
///
/// Interpolated candidates (the smooth infrastructure's partial
/// compressor speeds and sub-15 % fans) blend two roll-forwards of four
/// fixed anchor regimes. Each anchor is rolled forward once per context and
/// cached, so the 20 smooth candidates cost 11 distinct roll-forwards
/// instead of 29; on Parasol nothing blends and nothing is cached.
///
/// Predictions are bit-identical to the original single-shot
/// `predict_regime` (enforced by a property test): the same arithmetic runs
/// on the same values, only the buffer reuse and the anchor cache differ.
#[derive(Debug)]
pub struct PredictionContext<'a> {
    model: &'a CoolingModel,
    cfg: &'a CoolAirConfig,
    infra: Infrastructure,
    pods: usize,
    start_class: RegimeClass,
    /// Per-pod inlet temperatures at the start of the period.
    base_t_now: Vec<f64>,
    /// Per-pod inlets one model step earlier (or a copy of `base_t_now`).
    base_t_prev: Vec<f64>,
    /// Cold-aisle absolute humidity, g/kg.
    w_start: f64,
    /// Fan fraction of the regime currently applied.
    fan_start: f64,
    t_out: f64,
    w_out: f64,
    util: f64,
    substeps: usize,
    period_hours: f64,
    scratch: PredictScratch,
    /// Anchor roll-forwards done so far this tick, keyed by regime: the
    /// first `anchors_len` entries (later ones are spare buffers).
    anchors: Vec<(CoolingRegime, Prediction)>,
    anchors_len: usize,
}

/// The regimes interpolated candidates blend between: AC fan-only and
/// compressor-on for partial compressor speeds, closed and the 15 % fan for
/// sub-15 % fans.
fn blend_anchors() -> [CoolingRegime; 4] {
    [
        CoolingRegime::ac_fan_only(),
        CoolingRegime::ac_on(),
        CoolingRegime::Closed,
        CoolingRegime::free_cooling(FanSpeed::PARASOL_MIN),
    ]
}

impl<'a> PredictionContext<'a> {
    /// Computes the candidate-invariant start state for one control tick.
    #[must_use]
    pub fn new(
        model: &'a CoolingModel,
        cfg: &'a CoolAirConfig,
        infra: Infrastructure,
        readings: &SensorReadings,
        prev: Option<&SensorReadings>,
    ) -> Self {
        Self::with_buffers(model, cfg, infra, readings, prev, PredictionBuffers::default())
    }

    /// [`PredictionContext::new`] working in `buffers`, which
    /// [`PredictionContext::into_buffers`] hands back for the next tick.
    pub(crate) fn with_buffers(
        model: &'a CoolingModel,
        cfg: &'a CoolAirConfig,
        infra: Infrastructure,
        readings: &SensorReadings,
        prev: Option<&SensorReadings>,
        buffers: PredictionBuffers,
    ) -> Self {
        let pods = model.pods();
        let PredictionBuffers { mut base_t_now, mut base_t_prev, mut scratch, anchors } = buffers;
        refill(&mut base_t_now, readings.pod_inlets.iter().map(|t| t.value()));
        match prev {
            Some(p) if p.pod_inlets.len() == pods => {
                refill(&mut base_t_prev, p.pod_inlets.iter().map(|t| t.value()));
            }
            _ => base_t_prev.clone_from(&base_t_now),
        }
        for buffer in [
            &mut scratch.t_now,
            &mut scratch.t_prev,
            &mut scratch.next,
            &mut scratch.max_temps,
            &mut scratch.sum_temps,
        ] {
            buffer.clear();
            buffer.resize(pods, 0.0);
        }
        PredictionContext {
            model,
            cfg,
            infra,
            pods,
            start_class: readings.regime.class(),
            base_t_now,
            base_t_prev,
            w_start: readings.cold_aisle_abs.grams_per_kg(),
            fan_start: readings.regime.fan_speed().fraction(),
            t_out: readings.outside_temp.value(),
            w_out: readings.outside_abs.grams_per_kg(),
            util: readings.active_fraction,
            substeps: cfg.substeps(),
            period_hours: cfg.control_period.as_hours_f64(),
            scratch,
            anchors,
            anchors_len: 0,
        }
    }

    /// Releases the context's buffers for the next tick's context.
    pub(crate) fn into_buffers(self) -> PredictionBuffers {
        PredictionBuffers {
            base_t_now: self.base_t_now,
            base_t_prev: self.base_t_prev,
            scratch: self.scratch,
            anchors: self.anchors,
        }
    }

    /// Phase two: predicts the outcome of holding `candidate` for the
    /// control period, reusing the context's start state and scratch. A
    /// thin wrapper over [`PredictionContext::predict_into`] for one-shot
    /// callers; it allocates the returned prediction.
    pub fn predict(&mut self, candidate: CoolingRegime) -> Prediction {
        let mut out = Prediction::default();
        self.predict_into(candidate, &mut out);
        out
    }

    /// Phase two, allocation-free: writes the outcome of holding
    /// `candidate` for the control period into `out`, overwriting every
    /// field and reusing its buffers.
    ///
    /// For the smooth infrastructure's variable-speed compressor,
    /// predictions interpolate between the AC-compressor-off and
    /// AC-compressor-on models by compressor fraction, exactly as
    /// Smooth-Sim does in §5.1 ("we model the temperature and humidity of
    /// the smooth AC by interpolating the models for the AC with the
    /// compressor on and off").
    pub fn predict_into(&mut self, candidate: CoolingRegime, out: &mut Prediction) {
        let candidate = self.infra.sanitize(candidate);
        let comp = candidate.compressor();
        let interpolate_ac =
            self.infra == Infrastructure::Smooth && comp > 0.0 && comp < 1.0;

        if interpolate_ac {
            let off = self.anchor(CoolingRegime::ac_fan_only());
            let on = self.anchor(CoolingRegime::ac_on());
            blend_into(&self.anchors[off].1, &self.anchors[on].1, comp, self.model, self.cfg, out);
            return;
        }

        // Fan speeds below Parasol's 15 % minimum have no training data; a
        // raw linear extrapolation badly over-predicts cooling (the plant's
        // airflow response saturates, so the fitted fan slope is shallow
        // and the intercept inherits phantom cooling). Interpolate between
        // the two *trained* anchors instead: the closed model at fan 0 and
        // the free-cooling model at the 15 % floor — the §5.1
        // "extrapolating the earlier models to lower speeds" step.
        let fan = candidate.fan_speed().fraction();
        let floor = FanSpeed::PARASOL_MIN.fraction();
        if matches!(candidate, CoolingRegime::FreeCooling { .. }) && fan > 0.0 && fan < floor {
            let closed = self.anchor(CoolingRegime::Closed);
            let fc_floor = self.anchor(CoolingRegime::free_cooling(FanSpeed::PARASOL_MIN));
            let w = fan / floor;
            let (closed, fc_floor) = (&self.anchors[closed].1, &self.anchors[fc_floor].1);
            blend_into(closed, fc_floor, w, self.model, self.cfg, out);
            // Fan power, not AC power, for this regime family.
            out.energy_kwh = self.model.predict_power(RegimeClass::FreeCooling, fan, 0.0)
                / 1000.0
                * self.period_hours;
            return;
        }
        // Only the smooth infrastructure blends, so only it shares anchors.
        if self.infra == Infrastructure::Smooth && blend_anchors().contains(&candidate) {
            let i = self.anchor(candidate);
            out.assign(&self.anchors[i].1);
            return;
        }
        self.predict_single(candidate, out);
    }

    /// The index in `anchors` of `regime`'s roll-forward, rolling it
    /// forward on first use.
    fn anchor(&mut self, regime: CoolingRegime) -> usize {
        let done = &self.anchors[..self.anchors_len];
        if let Some(i) = done.iter().position(|(r, _)| *r == regime) {
            return i;
        }
        let i = self.anchors_len;
        if i == self.anchors.len() {
            self.anchors.push((regime, Prediction::default()));
        }
        // Roll forward into the slot's buffers, taken out for the call.
        let mut prediction = std::mem::take(&mut self.anchors[i].1);
        self.predict_single(regime, &mut prediction);
        self.anchors[i] = (regime, prediction);
        self.anchors_len += 1;
        i
    }

    fn predict_single(&mut self, candidate: CoolingRegime, out: &mut Prediction) {
        let pods = self.pods;
        let cand_class = candidate.class();
        let fan = candidate.fan_speed().fraction();
        let comp = candidate.compressor();

        // State rolled forward in the scratch buffers: per-pod (T, T_prev),
        // humidity, previous fan.
        let scratch = &mut self.scratch;
        scratch.t_now.copy_from_slice(&self.base_t_now);
        scratch.t_prev.copy_from_slice(&self.base_t_prev);
        scratch.max_temps.copy_from_slice(&self.base_t_now);
        scratch.sum_temps.fill(0.0);
        let mut w_now = self.w_start;
        let mut fan_prev = self.fan_start;

        // Outside conditions held constant over the short horizon.
        let t_out = self.t_out;
        let w_out = self.w_out;
        let util = self.util;

        // The first sub-step uses the transition model, the rest the
        // candidate's steady model; look each up once, not per sensor.
        let first = self.model.step_models(ModelKey::for_step(self.start_class, cand_class));
        let steady = self.model.step_models(ModelKey::Steady(cand_class));
        for step in 0..self.substeps {
            let models = if step == 0 { first } else { steady };
            for p in 0..pods {
                let x = temp_features(
                    scratch.t_now[p],
                    scratch.t_prev[p],
                    t_out,
                    t_out,
                    fan,
                    fan_prev,
                    util,
                );
                let predicted = models.temp(PodId(p), &x);
                // Clamp pathological extrapolations to a sane envelope
                // around the current state (the model is linear; keep it
                // honest).
                let mut bounded =
                    predicted.clamp(scratch.t_now[p] - 12.0, scratch.t_now[p] + 12.0);
                // Without a compressor the only heat sink is outside air,
                // so an inlet cannot drop below the warmer of nothing: its
                // floor is min(current, outside). In particular, with
                // outside hotter than the aisle, closed/free-cooling
                // regimes cannot cool at all — a constraint the learned
                // model can violate when its training data is thin in that
                // corner.
                if comp <= 0.0 {
                    bounded = bounded.max(scratch.t_now[p].min(t_out));
                }
                scratch.next[p] = bounded;
                scratch.max_temps[p] = scratch.max_temps[p].max(scratch.next[p]);
                scratch.sum_temps[p] += scratch.next[p];
            }
            let hx = humidity_features(w_now, w_out, fan);
            w_now = models.humidity(&hx).clamp(0.0, 40.0);
            // Rotate the buffers: (t_prev, t_now, next) ← (t_now, next, _).
            // `next` is fully overwritten on the following step, so the
            // values flowing through are exactly those of the allocating
            // version.
            std::mem::swap(&mut scratch.t_prev, &mut scratch.t_now);
            std::mem::swap(&mut scratch.t_now, &mut scratch.next);
            fan_prev = fan;
        }

        let mean_t = scratch.t_now.iter().sum::<f64>() / pods as f64;
        let final_rh =
            psychro::relative_humidity(Celsius::new(mean_t), AbsoluteHumidity::new(w_now));
        let power_w = self.model.predict_power(cand_class, fan, comp);
        let energy_kwh = power_w / 1000.0 * self.period_hours;

        let substeps = self.substeps as f64;
        refill(&mut out.final_temps, scratch.t_now.iter().map(|&t| Celsius::new(t)));
        refill(&mut out.max_temps, scratch.max_temps.iter().map(|&t| Celsius::new(t)));
        refill(&mut out.mean_temps, scratch.sum_temps.iter().map(|&s| Celsius::new(s / substeps)));
        refill(&mut out.start_temps, self.base_t_now.iter().map(|&t| Celsius::new(t)));
        refill(
            &mut out.deltas,
            scratch.t_now.iter().zip(self.base_t_now.iter()).map(|(a, b)| (a - b).abs()),
        );
        out.final_rh = final_rh;
        out.energy_kwh = energy_kwh;
    }
}

/// Rolls the Cooling Model forward `cfg.substeps()` model steps under
/// `candidate`, starting from the current (and previous) sensor readings.
///
/// One-shot convenience wrapper over [`PredictionContext`]: builds a
/// context and predicts a single candidate. Callers that evaluate several
/// candidates against the same readings (the Cooling Optimizer) should
/// construct the context once and call [`PredictionContext::predict`] per
/// candidate instead — the results are bit-identical and the
/// candidate-invariant work is done once.
#[must_use]
pub fn predict_regime(
    model: &CoolingModel,
    cfg: &CoolAirConfig,
    readings: &SensorReadings,
    prev: Option<&SensorReadings>,
    candidate: CoolingRegime,
    infra: Infrastructure,
) -> Prediction {
    PredictionContext::new(model, cfg, infra, readings, prev).predict(candidate)
}

/// Writes into `out` the blend of the AC-off and AC-on predictions by
/// compressor fraction. The blended power interpolates the learned
/// fan-only and full-compressor draws linearly — the §5.1 assumption that
/// "the compressor consumes power linearly with speed".
fn blend_into(
    off: &Prediction,
    on: &Prediction,
    comp: f64,
    model: &CoolingModel,
    cfg: &CoolAirConfig,
    out: &mut Prediction,
) {
    let mix = |(a, b): (&Celsius, &Celsius)| {
        Celsius::new(a.value() * (1.0 - comp) + b.value() * comp)
    };
    let power_off = model.predict_power(RegimeClass::AcFanOnly, 0.0, 0.0);
    let power_on = model.predict_power(RegimeClass::AcCompressorOn, 0.0, 1.0);
    let energy_w = power_off * (1.0 - comp) + power_on * comp;
    refill(&mut out.final_temps, off.final_temps.iter().zip(on.final_temps.iter()).map(mix));
    refill(&mut out.max_temps, off.max_temps.iter().zip(on.max_temps.iter()).map(mix));
    refill(&mut out.mean_temps, off.mean_temps.iter().zip(on.mean_temps.iter()).map(mix));
    out.start_temps.clone_from(&off.start_temps);
    refill(
        &mut out.deltas,
        off.deltas.iter().zip(on.deltas.iter()).map(|(a, b)| a * (1.0 - comp) + b * comp),
    );
    out.final_rh =
        RelativeHumidity::new(off.final_rh.percent() * (1.0 - comp) + on.final_rh.percent() * comp);
    out.energy_kwh = energy_w / 1000.0 * cfg.control_period.as_hours_f64();
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::modeler::{train_cooling_model, TrainingConfig};
    use coolair_units::{SimTime, Watts};
    use coolair_weather::{Location, TmySeries};

    fn model() -> CoolingModel {
        let tmy = TmySeries::generate(&Location::newark(), 11);
        train_cooling_model(&tmy, &TrainingConfig::quick())
    }

    fn readings(inlet: f64, outside: f64, regime: CoolingRegime) -> SensorReadings {
        let t = Celsius::new(inlet);
        let out = Celsius::new(outside);
        SensorReadings {
            time: SimTime::EPOCH,
            outside_temp: out,
            outside_rh: RelativeHumidity::new(60.0),
            outside_abs: psychro::absolute_humidity(out, RelativeHumidity::new(60.0)),
            pod_inlets: vec![t; 4],
            cold_aisle_rh: RelativeHumidity::new(45.0),
            cold_aisle_abs: psychro::absolute_humidity(t, RelativeHumidity::new(45.0)),
            hot_aisle: Celsius::new(inlet + 6.0),
            disk_temps: vec![Celsius::new(inlet + 10.0); 4],
            regime,
            cooling_power: Watts::ZERO,
            it_power: Watts::new(500.0),
            active_fraction: 0.3,
        }
    }

    #[test]
    fn full_fan_cools_when_outside_cold() {
        let m = model();
        let cfg = CoolAirConfig::default();
        let r = readings(30.0, 8.0, CoolingRegime::Closed);
        let p = predict_regime(
            &m,
            &cfg,
            &r,
            None,
            CoolingRegime::free_cooling(coolair_units::FanSpeed::MAX),
            Infrastructure::Parasol,
        );
        assert!(
            p.final_temps[0].value() < 27.0,
            "full fan at 8°C outside should cool from 30°C: {:?}",
            p.final_temps
        );
        assert!(p.energy_kwh > 0.0);
    }

    #[test]
    fn closed_heats_under_load() {
        let m = model();
        let cfg = CoolAirConfig::default();
        let mut r = readings(18.0, 10.0, CoolingRegime::Closed);
        r.active_fraction = 0.9;
        r.it_power = Watts::new(1500.0);
        let p = predict_regime(&m, &cfg, &r, None, CoolingRegime::Closed, Infrastructure::Parasol);
        assert!(
            p.final_temps[0].value() > 17.8,
            "closed under load should warm: {:?}",
            p.final_temps
        );
    }

    #[test]
    fn smooth_compressor_interpolates() {
        let m = model();
        let cfg = CoolAirConfig::default();
        let r = readings(29.0, 33.0, CoolingRegime::ac_fan_only());
        let off = predict_regime(&m, &cfg, &r, None, CoolingRegime::ac_fan_only(), Infrastructure::Smooth);
        let half =
            predict_regime(&m, &cfg, &r, None, CoolingRegime::Ac { compressor: 0.5 }, Infrastructure::Smooth);
        let full = predict_regime(&m, &cfg, &r, None, CoolingRegime::ac_on(), Infrastructure::Smooth);
        // Half-compressor lands between fan-only and full.
        let (o, h, f) =
            (off.final_temps[0].value(), half.final_temps[0].value(), full.final_temps[0].value());
        assert!(f <= h + 1e-9 && h <= o + 1e-9, "expected {f:.2} <= {h:.2} <= {o:.2}");
        assert!(half.energy_kwh < full.energy_kwh);
    }

    #[test]
    fn prediction_horizon_is_bounded() {
        let m = model();
        let cfg = CoolAirConfig::default();
        let r = readings(25.0, 20.0, CoolingRegime::Closed);
        let p = predict_regime(&m, &cfg, &r, None, CoolingRegime::Closed, Infrastructure::Parasol);
        for (f, s) in p.final_temps.iter().zip(r.pod_inlets.iter()) {
            assert!((f.value() - s.value()).abs() < 20.0, "runaway prediction");
        }
        assert!(p.final_rh.percent() <= 100.0);
    }
}
