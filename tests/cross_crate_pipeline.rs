//! Integration tests spanning the weather → ML → thermal → CoolAir stack.

use coolair_suite::core::modeler::features::temp_features;
use coolair_suite::core::{train_cooling_model, CoolAir, CoolAirConfig, TrainingConfig, Version};
use coolair_suite::thermal::{
    server_power, CoolingRegime, Infrastructure, ModelKey, PodId, RegimeClass,
};
use coolair_suite::units::{Celsius, SimTime};
use coolair_suite::weather::{Forecaster, Location, TmySeries};
use coolair_suite::workload::facebook_trace;

/// The workload crate duplicates the server power constants to avoid a
/// dependency cycle; they must agree with the thermal crate's model.
#[test]
fn server_power_models_agree_across_crates() {
    use coolair_suite::workload::{Cluster, ClusterConfig};
    let cluster = Cluster::new(ClusterConfig::parasol());
    // All 64 servers active and idle.
    let total = cluster.total_power();
    let expected = server_power(0.0, false).value() * 64.0;
    assert!((total.value() - expected).abs() < 1e-9);
}

#[test]
fn training_pipeline_covers_all_steady_regimes() {
    let tmy = TmySeries::generate(&Location::santiago(), 21);
    let model = train_cooling_model(&tmy, &TrainingConfig::quick());
    for class in RegimeClass::ALL {
        assert!(
            model.models_for(ModelKey::Steady(class)).is_some(),
            "missing steady model for {class}"
        );
    }
    // Transitions exist for the common pairs the TKS drives.
    let common = ModelKey::Transition(RegimeClass::Closed, RegimeClass::FreeCooling);
    assert!(model.models_for(common).is_some());
}

#[test]
fn learned_model_monotone_in_outside_temperature() {
    let tmy = TmySeries::generate(&Location::newark(), 21);
    let model = train_cooling_model(&tmy, &TrainingConfig::quick());
    // At a fixed inside temperature and fan speed, colder outside air must
    // not predict a warmer next temperature.
    let key = ModelKey::Steady(RegimeClass::FreeCooling);
    let mut prev = f64::NEG_INFINITY;
    for out in [-5.0, 5.0, 15.0, 25.0] {
        let x = temp_features(26.0, 26.0, out, out, 0.5, 0.5, 0.3);
        let t = model.predict_temp(key, PodId(1), &x);
        assert!(
            t >= prev - 0.3,
            "prediction not monotone in outside temp: {t:.2} after {prev:.2} at {out}°C"
        );
        prev = t;
    }
}

#[test]
fn coolair_full_stack_day_newark() {
    // Build everything from scratch and run a control decision sequence.
    let location = Location::newark();
    let tmy = TmySeries::generate(&location, 11);
    let model = train_cooling_model(&tmy, &TrainingConfig::quick());
    let mut coolair = CoolAir::new(
        Version::AllNd,
        CoolAirConfig::default(),
        model,
        Forecaster::perfect(tmy),
        Infrastructure::Smooth,
    );

    // Compute sizing responds to the workload's demand profile.
    let trace = facebook_trace(3);
    let t0 = coolair.decide_compute(0, 8);
    assert_eq!(t0, 0);
    let t1 = coolair.decide_compute(40, 8);
    assert_eq!(t1, 40);
    assert_eq!(coolair.server_priority().len(), 64);
    // Hold-down: a transient dip keeps servers awake.
    let t2 = coolair.decide_compute(5, 8);
    assert_eq!(t2, 40, "demand hold-down should retain the recent peak");

    // Band exists after the first cooling decision.
    let now = SimTime::from_days(100);
    coolair.ensure_band(now);
    let band = coolair.band().expect("band selected");
    assert!(band.hi() <= Celsius::new(30.0));
    assert!(band.lo() >= Celsius::new(10.0));
    assert!(band.width().degrees() <= 5.0 + 1e-9);

    // Jobs are never scheduled past their deadline.
    for job in trace.with_deadlines(coolair_suite::units::SimDuration::from_hours(6)).jobs().iter().take(50) {
        let mut j = job.clone();
        j.submit = now + coolair_suite::units::SimDuration::from_secs(j.submit.as_secs());
        let start = coolair.schedule_job(&j, now);
        assert!(start >= j.submit);
        assert!(start <= j.latest_start().unwrap());
    }
}

#[test]
fn regime_sanitization_respected_by_decisions() {
    let location = Location::iceland();
    let tmy = TmySeries::generate(&location, 11);
    let model = train_cooling_model(&tmy, &TrainingConfig::quick());
    for infra in [Infrastructure::Parasol, Infrastructure::Smooth] {
        let mut coolair = CoolAir::new(
            Version::AllNd,
            CoolAirConfig::default(),
            model.clone(),
            Forecaster::perfect(tmy.clone()),
            infra,
        );
        let plant = coolair_suite::thermal::Plant::new(
            coolair_suite::thermal::PlantConfig::parasol(),
        );
        let readings = plant.readings(SimTime::from_days(50));
        let d = coolair.decide_cooling(&readings, SimTime::from_days(50)).unwrap();
        assert_eq!(d.regime, infra.sanitize(d.regime), "{infra:?} regime not realisable");
        if let CoolingRegime::FreeCooling { fan } = d.regime {
            assert!(fan >= infra.min_fan());
        }
    }
}
