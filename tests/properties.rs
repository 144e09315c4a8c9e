//! Property-based tests on the core invariants (proptest).

use coolair_suite::core::manager::band::{select_band, TempBand};
use coolair_suite::core::compute::{schedule_start, server_priority, Placement, TemporalPolicy};
use coolair_suite::core::CoolAirConfig;
use coolair_suite::ml::{Dataset, LinearModel, Regressor};
use coolair_suite::thermal::{
    cooling_power, CoolingRegime, Infrastructure, ItLoad, OutsideConditions, Plant, PlantConfig,
    PodId,
};
use coolair_suite::units::{
    psychro, AbsoluteHumidity, Celsius, FanSpeed, RelativeHumidity, SimDuration, SimTime, Watts,
};
use coolair_suite::weather::DailyForecast;
use coolair_suite::workload::{Job, JobId};
use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn psychro_round_trip(t in -30.0..45.0f64, rh in 1.0..99.0f64) {
        let temp = Celsius::new(t);
        let w = psychro::absolute_humidity(temp, RelativeHumidity::new(rh));
        let back = psychro::relative_humidity(temp, w);
        prop_assert!((back.percent() - rh).abs() < 1e-6);
    }

    #[test]
    fn dew_point_never_exceeds_temperature(t in -20.0..45.0f64, rh in 1.0..100.0f64) {
        let temp = Celsius::new(t);
        let w = psychro::absolute_humidity(temp, RelativeHumidity::new(rh));
        prop_assert!(psychro::dew_point(w).value() <= t + 0.05);
    }

    #[test]
    fn fan_power_monotone(a in 0.0..1.0f64, b in 0.0..1.0f64) {
        let (lo, hi) = if a <= b { (a, b) } else { (b, a) };
        let p_lo = cooling_power(
            CoolingRegime::free_cooling(FanSpeed::saturating(lo)),
            Infrastructure::Parasol,
        );
        let p_hi = cooling_power(
            CoolingRegime::free_cooling(FanSpeed::saturating(hi)),
            Infrastructure::Parasol,
        );
        prop_assert!(p_lo <= p_hi);
    }

    #[test]
    fn sanitize_is_idempotent(fan in 0.0..1.0f64, comp in 0.0..1.0f64, pick in 0..3usize) {
        let regime = match pick {
            0 => CoolingRegime::Closed,
            1 => CoolingRegime::free_cooling(FanSpeed::saturating(fan)),
            _ => CoolingRegime::Ac { compressor: comp },
        };
        for infra in [Infrastructure::Parasol, Infrastructure::Smooth] {
            let once = infra.sanitize(regime);
            prop_assert_eq!(infra.sanitize(once), once);
        }
    }

    #[test]
    fn band_selection_invariants(mean in -40.0..45.0f64) {
        let cfg = CoolAirConfig::default();
        let forecast = DailyForecast {
            day: 0,
            hourly: (0..24).map(|_| Celsius::new(mean)).collect(),
        };
        let (band, _slid) = select_band(&forecast, &cfg);
        prop_assert!(band.lo() >= cfg.min_temp);
        prop_assert!(band.hi() <= cfg.max_temp);
        prop_assert!(band.width().degrees() <= cfg.width.degrees() + 1e-9);
        prop_assert!(band.width().degrees() >= 0.0);
    }

    #[test]
    fn placement_is_permutation(ranking in proptest::sample::subsequence(vec![0usize,1,2,3], 4)) {
        prop_assume!(ranking.len() == 4);
        let pods: Vec<PodId> = ranking.iter().map(|&i| PodId(i)).collect();
        for placement in [Placement::HighRecircFirst, Placement::LowRecircFirst] {
            let order = server_priority(placement, &pods, 16);
            let mut sorted = order.clone();
            sorted.sort_unstable();
            prop_assert_eq!(sorted, (0..64).collect::<Vec<_>>());
        }
    }

    #[test]
    fn temporal_scheduling_never_violates_deadlines(
        submit_h in 0u64..23,
        deadline_h in 1u64..24,
        policy in 0..3usize,
        temps in proptest::collection::vec(-10.0..40.0f64, 24),
    ) {
        let policy = match policy {
            0 => TemporalPolicy::None,
            1 => TemporalPolicy::BandAware,
            _ => TemporalPolicy::CoolestHours,
        };
        let job = Job {
            id: JobId(1),
            submit: SimTime::from_secs(submit_h * 3600 + 120),
            map_tasks: 4,
            reduce_tasks: 1,
            map_work: 100.0,
            reduce_work: 10.0,
            start_deadline: Some(SimDuration::from_hours(deadline_h)),
        };
        let forecast = DailyForecast {
            day: 0,
            hourly: temps.into_iter().map(Celsius::new).collect(),
        };
        let band = TempBand::new(Celsius::new(20.0), Celsius::new(25.0));
        let start = schedule_start(
            policy,
            &job,
            Some((band, false)),
            &forecast,
            coolair_suite::units::TempDelta::new(8.0),
        );
        prop_assert!(start >= job.submit);
        prop_assert!(start <= job.latest_start().unwrap());
    }

    #[test]
    fn plant_stays_bounded_under_arbitrary_control(
        seq in proptest::collection::vec((0..4usize, 0.0..1.0f64), 1..40),
        outside_t in -35.0..48.0f64,
        load in 0.0..1.0f64,
    ) {
        let mut plant = Plant::new(PlantConfig::parasol());
        let out = OutsideConditions {
            temperature: Celsius::new(outside_t),
            abs_humidity: psychro::absolute_humidity(
                Celsius::new(outside_t),
                RelativeHumidity::new(70.0),
            ),
        };
        let it = ItLoad::uniform(4, Watts::new(load * 480.0), load);
        for (kind, x) in seq {
            let regime = match kind {
                0 => CoolingRegime::Closed,
                1 => CoolingRegime::free_cooling(FanSpeed::saturating(x.max(0.01))),
                2 => CoolingRegime::ac_fan_only(),
                _ => CoolingRegime::Ac { compressor: x },
            };
            for _ in 0..40 {
                plant.step(SimDuration::from_secs(15), out, &it, regime);
            }
            let r = plant.readings(SimTime::EPOCH);
            for t in &r.pod_inlets {
                prop_assert!(t.is_finite());
                prop_assert!(t.value() > -60.0 && t.value() < 120.0);
            }
            prop_assert!(r.cold_aisle_rh.percent() <= 100.0);
            prop_assert!(r.cold_aisle_abs >= AbsoluteHumidity::ZERO);
        }
    }

    #[test]
    fn ols_residuals_orthogonal_to_fit(
        coeffs in proptest::collection::vec(-3.0..3.0f64, 2),
        intercept in -10.0..10.0f64,
    ) {
        // OLS on exactly-linear data recovers predictions exactly.
        let mut data = Dataset::new(vec!["a".into(), "b".into()]);
        for i in 0..40 {
            let a = f64::from(i) * 0.37;
            let b = f64::from((i * 13) % 7);
            let y = intercept + coeffs[0] * a + coeffs[1] * b;
            data.push(&[a, b], y).unwrap();
        }
        let m = LinearModel::fit_ols(&data).unwrap();
        for (x, y) in data.iter() {
            prop_assert!((m.predict(x) - y).abs() < 1e-6);
        }
    }
}
