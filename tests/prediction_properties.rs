//! Property tests for the two-phase prediction engine.
//!
//! Two guarantees back `PredictionContext`:
//!
//! 1. **Bit-identity of the refactor** — `PredictionContext::predict` must
//!    produce the exact bits of the pre-refactor single-shot
//!    `predict_regime`. The old algorithm (allocate fresh state vectors,
//!    roll the model forward, blend for interpolated regimes) is
//!    transcribed verbatim below as `golden::predict_regime` and compared
//!    field-by-field via `f64::to_bits` across random readings and every
//!    candidate of both infrastructures, plus off-grid regimes that hit
//!    the interpolation branches. One context serves every candidate, so
//!    the per-tick anchor cache is on the compared path.
//! 2. **Pinned closed-loop days** — two All-ND days on the smooth plant
//!    serialize to a digest captured before the anchor cache and the day
//!    loops' hoisted per-step work, and every system of the Figs 8–10 grid
//!    on both infrastructures to one captured before the allocation-free
//!    compute tick, the plant's relaxation cache, the snapshot-free
//!    sampling and the reused prediction buffers, so none of them can
//!    change a simulated number.
//! 3. **Pinned model bytes** — a quick-trained Cooling Model serializes to
//!    the JSON it did before its table became dense.

use coolair_suite::core::manager::predictor::{predict_regime, PredictionContext};
use coolair_suite::core::{train_cooling_model, CoolAir, CoolAirConfig, TrainingConfig, Version};
use coolair_suite::runner::stable_digest;
use coolair_suite::sim::{SimConfig, SimController, Simulation};
use coolair_suite::thermal::{CoolingRegime, Infrastructure, PlantConfig, SensorReadings};
use coolair_suite::units::{psychro, Celsius, FanSpeed, RelativeHumidity, SimTime, Watts};
use coolair_suite::weather::{Forecaster, Location, TmySeries};
use coolair_suite::workload::{facebook_trace, Cluster, ClusterConfig};
use proptest::prelude::*;
use std::sync::OnceLock;

/// Verbatim transcription of the pre-refactor Cooling Predictor, kept as
/// the golden reference the two-phase API is checked against.
mod golden {
    use coolair_suite::core::manager::predictor::Prediction;
    use coolair_suite::core::modeler::features::{humidity_features, temp_features};
    use coolair_suite::core::{CoolAirConfig, CoolingModel};
    use coolair_suite::thermal::{
        CoolingRegime, Infrastructure, ModelKey, PodId, RegimeClass, SensorReadings,
    };
    use coolair_suite::units::{psychro, AbsoluteHumidity, Celsius, RelativeHumidity};

    pub fn predict_regime(
        model: &CoolingModel,
        cfg: &CoolAirConfig,
        readings: &SensorReadings,
        prev: Option<&SensorReadings>,
        candidate: CoolingRegime,
        infra: Infrastructure,
    ) -> Prediction {
        let candidate = infra.sanitize(candidate);
        let comp = candidate.compressor();
        let interpolate_ac = infra == Infrastructure::Smooth && comp > 0.0 && comp < 1.0;

        if interpolate_ac {
            let off = predict_single(model, cfg, readings, prev, CoolingRegime::ac_fan_only());
            let on = predict_single(model, cfg, readings, prev, CoolingRegime::ac_on());
            return blend(&off, &on, comp, model, cfg);
        }

        let fan = candidate.fan_speed().fraction();
        let floor = coolair_suite::units::FanSpeed::PARASOL_MIN.fraction();
        if matches!(candidate, CoolingRegime::FreeCooling { .. }) && fan > 0.0 && fan < floor {
            let closed = predict_single(model, cfg, readings, prev, CoolingRegime::Closed);
            let fc_floor = predict_single(
                model,
                cfg,
                readings,
                prev,
                CoolingRegime::free_cooling(coolair_suite::units::FanSpeed::PARASOL_MIN),
            );
            let w = fan / floor;
            let mut out = blend(&closed, &fc_floor, w, model, cfg);
            out.energy_kwh = model.predict_power(RegimeClass::FreeCooling, fan, 0.0) / 1000.0
                * cfg.control_period.as_hours_f64();
            return out;
        }
        predict_single(model, cfg, readings, prev, candidate)
    }

    fn predict_single(
        model: &CoolingModel,
        cfg: &CoolAirConfig,
        readings: &SensorReadings,
        prev: Option<&SensorReadings>,
        candidate: CoolingRegime,
    ) -> Prediction {
        let pods = model.pods();
        let start_class = readings.regime.class();
        let cand_class = candidate.class();
        let fan = candidate.fan_speed().fraction();
        let comp = candidate.compressor();

        let mut t_now: Vec<f64> = readings.pod_inlets.iter().map(|t| t.value()).collect();
        let mut t_prev: Vec<f64> = match prev {
            Some(p) if p.pod_inlets.len() == pods => {
                p.pod_inlets.iter().map(|t| t.value()).collect()
            }
            _ => t_now.clone(),
        };
        let mut w_now = readings.cold_aisle_abs.grams_per_kg();
        let mut fan_prev = readings.regime.fan_speed().fraction();

        let t_out = readings.outside_temp.value();
        let w_out = readings.outside_abs.grams_per_kg();
        let util = readings.active_fraction;

        let mut max_temps = t_now.clone();
        let mut sum_temps = vec![0.0; pods];
        let start = t_now.clone();

        for step in 0..cfg.substeps() {
            let key = if step == 0 {
                ModelKey::for_step(start_class, cand_class)
            } else {
                ModelKey::Steady(cand_class)
            };
            let mut next = vec![0.0; pods];
            for p in 0..pods {
                let x = temp_features(t_now[p], t_prev[p], t_out, t_out, fan, fan_prev, util);
                let predicted = model.predict_temp(key, PodId(p), &x);
                let mut bounded = predicted.clamp(t_now[p] - 12.0, t_now[p] + 12.0);
                if comp <= 0.0 {
                    bounded = bounded.max(t_now[p].min(t_out));
                }
                next[p] = bounded;
                max_temps[p] = max_temps[p].max(next[p]);
                sum_temps[p] += next[p];
            }
            let hx = humidity_features(w_now, w_out, fan);
            w_now = model.predict_humidity(key, &hx).clamp(0.0, 40.0);
            t_prev = std::mem::take(&mut t_now);
            t_now = next;
            fan_prev = fan;
        }

        let mean_t = t_now.iter().sum::<f64>() / pods as f64;
        let final_rh =
            psychro::relative_humidity(Celsius::new(mean_t), AbsoluteHumidity::new(w_now));
        let power_w = model.predict_power(cand_class, fan, comp);
        let energy_kwh = power_w / 1000.0 * cfg.control_period.as_hours_f64();

        let substeps = cfg.substeps() as f64;
        Prediction {
            final_temps: t_now.iter().map(|&t| Celsius::new(t)).collect(),
            max_temps: max_temps.iter().map(|&t| Celsius::new(t)).collect(),
            mean_temps: sum_temps.iter().map(|&s| Celsius::new(s / substeps)).collect(),
            start_temps: start.iter().map(|&t| Celsius::new(t)).collect(),
            deltas: t_now.iter().zip(start.iter()).map(|(a, b)| (a - b).abs()).collect(),
            final_rh,
            energy_kwh,
        }
    }

    fn blend(
        off: &Prediction,
        on: &Prediction,
        comp: f64,
        model: &CoolingModel,
        cfg: &CoolAirConfig,
    ) -> Prediction {
        let mix =
            |a: Celsius, b: Celsius| Celsius::new(a.value() * (1.0 - comp) + b.value() * comp);
        let power_off = model.predict_power(RegimeClass::AcFanOnly, 0.0, 0.0);
        let power_on = model.predict_power(RegimeClass::AcCompressorOn, 0.0, 1.0);
        let energy_w = power_off * (1.0 - comp) + power_on * comp;
        Prediction {
            final_temps: off
                .final_temps
                .iter()
                .zip(on.final_temps.iter())
                .map(|(a, b)| mix(*a, *b))
                .collect(),
            max_temps: off
                .max_temps
                .iter()
                .zip(on.max_temps.iter())
                .map(|(a, b)| mix(*a, *b))
                .collect(),
            mean_temps: off
                .mean_temps
                .iter()
                .zip(on.mean_temps.iter())
                .map(|(a, b)| mix(*a, *b))
                .collect(),
            start_temps: off.start_temps.clone(),
            deltas: off
                .deltas
                .iter()
                .zip(on.deltas.iter())
                .map(|(a, b)| a * (1.0 - comp) + b * comp)
                .collect(),
            final_rh: RelativeHumidity::new(
                off.final_rh.percent() * (1.0 - comp) + on.final_rh.percent() * comp,
            ),
            energy_kwh: energy_w / 1000.0 * cfg.control_period.as_hours_f64(),
        }
    }
}

fn shared_model() -> &'static coolair_suite::core::CoolingModel {
    static MODEL: OnceLock<coolair_suite::core::CoolingModel> = OnceLock::new();
    MODEL.get_or_init(|| {
        let tmy = TmySeries::generate(&Location::newark(), 11);
        train_cooling_model(&tmy, &TrainingConfig::quick())
    })
}

fn readings(
    inlets: &[f64],
    outside: f64,
    rh_in: f64,
    util: f64,
    regime: CoolingRegime,
) -> SensorReadings {
    let out = Celsius::new(outside);
    let mean = inlets.iter().sum::<f64>() / inlets.len() as f64;
    SensorReadings {
        time: SimTime::EPOCH,
        outside_temp: out,
        outside_rh: RelativeHumidity::new(60.0),
        outside_abs: psychro::absolute_humidity(out, RelativeHumidity::new(60.0)),
        pod_inlets: inlets.iter().map(|&t| Celsius::new(t)).collect(),
        cold_aisle_rh: RelativeHumidity::new(rh_in),
        cold_aisle_abs: psychro::absolute_humidity(Celsius::new(mean), RelativeHumidity::new(rh_in)),
        hot_aisle: Celsius::new(mean + 6.0),
        disk_temps: inlets.iter().map(|&t| Celsius::new(t + 10.0)).collect(),
        regime,
        cooling_power: Watts::ZERO,
        it_power: Watts::new(500.0),
        active_fraction: util,
    }
}

fn assert_bit_identical(
    want: &coolair_suite::core::manager::predictor::Prediction,
    got: &coolair_suite::core::manager::predictor::Prediction,
    context: &str,
) {
    let vecs = [
        ("final_temps", &want.final_temps, &got.final_temps),
        ("max_temps", &want.max_temps, &got.max_temps),
        ("mean_temps", &want.mean_temps, &got.mean_temps),
        ("start_temps", &want.start_temps, &got.start_temps),
    ];
    for (field, w, g) in vecs {
        assert_eq!(w.len(), g.len(), "{context}: {field} arity");
        for (a, b) in w.iter().zip(g.iter()) {
            assert_eq!(
                a.value().to_bits(),
                b.value().to_bits(),
                "{context}: {field} {a:?} != {b:?}"
            );
        }
    }
    for (a, b) in want.deltas.iter().zip(got.deltas.iter()) {
        assert_eq!(a.to_bits(), b.to_bits(), "{context}: deltas");
    }
    assert_eq!(
        want.final_rh.percent().to_bits(),
        got.final_rh.percent().to_bits(),
        "{context}: final_rh"
    );
    assert_eq!(
        want.energy_kwh.to_bits(),
        got.energy_kwh.to_bits(),
        "{context}: energy_kwh"
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// `PredictionContext::predict` (and the thin `predict_regime` wrapper)
    /// reproduce the pre-refactor algorithm bit for bit, for every candidate
    /// of both infrastructures plus the interpolated off-grid regimes.
    #[test]
    fn context_predict_is_bit_identical_to_golden(
        t0 in 15.0..35.0f64,
        t1 in 15.0..35.0f64,
        t2 in 15.0..35.0f64,
        t3 in 15.0..35.0f64,
        outside in -10.0..40.0f64,
        rh_in in 20.0..80.0f64,
        util in 0.0..1.0f64,
        prev_delta in -2.0..2.0f64,
        with_prev_bit in 0u8..2,
        start_idx in 0usize..20,
        low_fan in 0.01..0.14f64,
        comp in 0.05..0.95f64,
    ) {
        let model = shared_model();
        let cfg = CoolAirConfig::default();
        for infra in [Infrastructure::Parasol, Infrastructure::Smooth] {
            let candidates = infra.candidate_regimes();
            let start = candidates[start_idx % candidates.len()];
            let inlets = [t0, t1, t2, t3];
            let r = readings(&inlets, outside, rh_in, util, start);
            let prev_inlets: Vec<f64> = inlets.iter().map(|t| t + prev_delta).collect();
            let prev_r = readings(&prev_inlets, outside, rh_in, util, start);
            let prev = (with_prev_bit == 1).then_some(&prev_r);

            // Every on-grid candidate, via one shared context (the optimizer's
            // access pattern), plus the two interpolation families.
            let mut probes = candidates.clone();
            probes.push(CoolingRegime::free_cooling(FanSpeed::saturating(low_fan)));
            probes.push(CoolingRegime::Ac { compressor: comp });

            let mut ctx = PredictionContext::new(model, &cfg, infra, &r, prev);
            for candidate in probes {
                let want = golden::predict_regime(model, &cfg, &r, prev, candidate, infra);
                let got = ctx.predict(candidate);
                assert_bit_identical(&want, &got, &format!("{infra:?} {candidate:?}"));
                let wrapper = predict_regime(model, &cfg, &r, prev, candidate, infra);
                assert_bit_identical(&want, &wrapper, &format!("wrapper {infra:?} {candidate:?}"));
            }
        }
    }
}

/// A closed-loop All-ND day on the smooth plant serializes to the exact
/// bytes it did before the per-tick roll-forward cache and the engine's
/// hoisted per-step work: two Newark days (in different seasons, for
/// different weather shapes) against a digest of their minute-level JSON.
#[test]
fn all_nd_days_match_their_pinned_digest() {
    let location = Location::newark();
    let tmy = TmySeries::generate(&location, 42);
    let model = train_cooling_model(&tmy, &TrainingConfig::quick());
    let trace = facebook_trace(1);
    let ca = CoolAir::new(
        Version::AllNd,
        CoolAirConfig::default(),
        model,
        Forecaster::perfect(tmy.clone()),
        Infrastructure::Smooth,
    );
    let mut sim = Simulation::new(
        SimController::CoolAir(Box::new(ca)),
        PlantConfig::smooth(),
        Cluster::new(ClusterConfig::parasol()),
        tmy,
        SimConfig { record_minutes: true, ..SimConfig::default() },
    );
    let days = [21u64, 200u64].map(|day| sim.run_day(day, trace.jobs_for_day(day)));
    let digest = stable_digest(&days).to_string();
    assert_eq!(digest, "fa3d95e809fa12ce", "simulated days changed");
}

/// Every system of the Figs 8–10 grid, on both infrastructures, simulates
/// two Newark days whose minute-level JSON matches a digest pinned before
/// the allocation-free compute tick, the plant's relaxation cache, the
/// snapshot-free sampling and the optimizer's reused prediction buffers:
/// one digest per (system, infrastructure) pair. Parasol never blends, so
/// its rows cover the optimizer without the anchor cache. All-DEF runs the
/// deferrable trace (6-hour start deadlines), pinned before the
/// queue-proportional compute tick: its deferred jobs wait ineligible
/// inside the prefix of the queue a tick visits.
#[test]
fn every_system_day_matches_its_pinned_digest() {
    use coolair_suite::core::{SupervisedCoolAir, SupervisorConfig};
    use coolair_suite::thermal::{TksConfig, TksController};

    let location = Location::newark();
    let tmy = TmySeries::generate(&location, 42);
    let model = train_cooling_model(&tmy, &TrainingConfig::quick());
    let trace = facebook_trace(1);
    let deferrable = trace.with_deadlines(CoolAirConfig::default().deferral_deadline);
    let pins: [(&str, Infrastructure, &str); 13] = [
        ("Baseline", Infrastructure::Smooth, "ba578e57ff86c8f7"),
        ("Baseline", Infrastructure::Parasol, "87fb2537d74374c9"),
        ("Temperature", Infrastructure::Smooth, "a1e987c5b2ab6c3d"),
        ("Temperature", Infrastructure::Parasol, "691c035c843d5938"),
        ("Energy", Infrastructure::Smooth, "ab1097186ea37ccf"),
        ("Energy", Infrastructure::Parasol, "d87c3ade07589b4e"),
        ("Variation", Infrastructure::Smooth, "42e1532c0d9cff6f"),
        ("Variation", Infrastructure::Parasol, "e7edc407c94e7313"),
        ("All-ND", Infrastructure::Smooth, "fa3d95e809fa12ce"),
        ("All-ND", Infrastructure::Parasol, "91b7c09ec5ee0081"),
        ("All-ND+SV", Infrastructure::Smooth, "fa3d95e809fa12ce"),
        ("All-ND+SV", Infrastructure::Parasol, "91b7c09ec5ee0081"),
        ("All-DEF", Infrastructure::Smooth, "66529b7f8c84ad12"),
    ];
    let mut mismatches = Vec::new();
    for (system, infra, want) in pins {
        let coolair = |version| {
            CoolAir::new(
                version,
                CoolAirConfig::default(),
                model.clone(),
                Forecaster::perfect(tmy.clone()),
                infra,
            )
        };
        let controller = match system {
            "Baseline" => SimController::Baseline(TksController::new(TksConfig::baseline())),
            "Temperature" => SimController::CoolAir(Box::new(coolair(Version::Temperature))),
            "Energy" => SimController::CoolAir(Box::new(coolair(Version::Energy))),
            "Variation" => SimController::CoolAir(Box::new(coolair(Version::Variation))),
            "All-ND" => SimController::CoolAir(Box::new(coolair(Version::AllNd))),
            "All-ND+SV" => SimController::Supervised(Box::new(SupervisedCoolAir::new(
                coolair(Version::AllNd),
                SupervisorConfig::default(),
            ))),
            "All-DEF" => SimController::CoolAir(Box::new(coolair(Version::AllDef))),
            other => unreachable!("no system {other}"),
        };
        let jobs = if system == "All-DEF" { &deferrable } else { &trace };
        let plant = match infra {
            Infrastructure::Parasol => PlantConfig::parasol(),
            Infrastructure::Smooth => PlantConfig::smooth(),
        };
        let mut sim = Simulation::new(
            controller,
            plant,
            Cluster::new(ClusterConfig::parasol()),
            tmy.clone(),
            SimConfig { record_minutes: true, ..SimConfig::default() },
        );
        let days = [21u64, 200u64].map(|day| sim.run_day(day, jobs.jobs_for_day(day)));
        let got = stable_digest(&days).to_string();
        if got != want {
            mismatches.push(format!("{system} on {infra:?}: {got} (pinned {want})"));
        }
    }
    assert!(mismatches.is_empty(), "simulated days changed:\n{}", mismatches.join("\n"));
}

/// A quick-trained Cooling Model serializes to the bytes it did before the
/// model table became dense: trained models are store artifacts, so their
/// sorted pair-list JSON form may not move by a byte.
#[test]
fn quick_trained_model_json_matches_its_pinned_digest() {
    let model = shared_model();
    let json = serde_json::to_string(model).expect("model serializes");
    let got = format!("{} bytes, digest {}", json.len(), stable_digest(model));
    assert_eq!(got, "6532 bytes, digest 92aa55eaa3335a69", "model JSON changed");
}
