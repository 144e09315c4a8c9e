//! Properties of the fault-injection layer and the degraded-mode
//! supervisor: determinism under a fixed seed, supervisor transparency at
//! zero faults, and the hard-failsafe temperature bound under total sensor
//! dropout.

use coolair_suite::core::Version;
use coolair_suite::sim::{
    run_annual, run_annual_with_model, train_for_location, ActuatorFault, AnnualConfig, FaultKind,
    FaultPlan, FaultRates, FaultSpec, FaultWindow, SensorFault, SimConfig, SystemSpec,
};
use coolair_suite::units::SimTime;
use coolair_suite::weather::Location;
use coolair_suite::workload::TraceKind;
use proptest::prelude::*;

fn quick_cfg() -> AnnualConfig {
    // Three days (0, 120, 240) across the seasons: enough closed-loop
    // dynamics to detect divergence, cheap enough to run twice per test.
    let mut cfg = AnnualConfig::quick();
    cfg.stride = 120;
    cfg
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// The same seed always yields the same fault schedule, and the
    /// schedule for a day does not depend on which other days are listed.
    #[test]
    fn fault_schedule_is_deterministic(seed in 0u64..1_000_000, severity in 0.1f64..4.0) {
        let days: Vec<u64> = (0..365).step_by(7).collect();
        let rates = FaultRates::scaled(severity);
        let a = FaultPlan::random(seed, &rates, &days, 4);
        let b = FaultPlan::random(seed, &rates, &days, 4);
        prop_assert_eq!(&a, &b);

        // Restricting the day list keeps the surviving days' windows.
        let subset: Vec<u64> = days.iter().copied().filter(|d| *d >= 100).collect();
        let c = FaultPlan::random(seed, &rates, &subset, 4);
        let from_a: Vec<&FaultWindow> = a
            .windows()
            .iter()
            .filter(|w| w.start.day_index() >= 100)
            .collect();
        let from_c: Vec<&FaultWindow> = c.windows().iter().collect();
        prop_assert_eq!(from_a, from_c);

        // A different seed almost surely schedules differently (at these
        // severities a year contains dozens of windows).
        let d = FaultPlan::random(seed ^ 0xdead_beef, &rates, &days, 4);
        prop_assert!(a != d, "distinct seeds produced identical plans");
    }

    /// A [`FaultSpec`] survives serde unchanged (including hand-built extra
    /// windows), and scheduling from the round-tripped spec reproduces the
    /// exact plan — the `spec → schedule → spec` property that makes a
    /// scenario a content-addressable artifact rather than seed-plus-folklore.
    #[test]
    fn fault_spec_round_trips_through_serde_and_scheduling(
        seed in 0u64..1_000_000,
        severity in 0.0f64..4.0,
        extra_day in 0u64..364,
        extra_hours in 1u64..24,
        pod in 0usize..4,
    ) {
        let spec = FaultSpec {
            seed,
            severity,
            extra: vec![
                FaultWindow {
                    start: SimTime::from_days(extra_day),
                    end: SimTime::from_secs(extra_day * 86_400 + extra_hours * 3_600),
                    kind: FaultKind::Sensor { pod, fault: SensorFault::Drift { c_per_hour: 0.5 } },
                },
                FaultWindow {
                    start: SimTime::from_days(extra_day),
                    end: SimTime::from_secs(extra_day * 86_400 + extra_hours * 3_600),
                    kind: FaultKind::Actuator(ActuatorFault::AcLockout),
                },
            ],
        };
        let json = serde_json::to_string(&spec).expect("serialize");
        let back: FaultSpec = serde_json::from_str(&json).expect("deserialize");
        prop_assert_eq!(&back, &spec);

        // Identical specs materialise identical plans, with the extra
        // windows appended after the generated background load.
        let days: Vec<u64> = (0..365).step_by(30).collect();
        let plan = spec.schedule(&days, 4);
        prop_assert_eq!(&plan, &back.schedule(&days, 4));
        let tail: Vec<&FaultWindow> =
            plan.windows().iter().rev().take(2).rev().collect();
        prop_assert_eq!(tail, spec.extra.iter().collect::<Vec<_>>());
    }
}

#[test]
fn faulted_annual_run_is_deterministic() {
    let mut cfg = quick_cfg();
    cfg.faults = FaultPlan::random(77, &FaultRates::scaled(2.0), &cfg.sampled_days(), 4);
    let location = Location::newark();
    let model = train_for_location(&location, &cfg);
    let sys = SystemSpec::Supervised(Version::AllNd);
    let a = run_annual_with_model(&sys, &location, TraceKind::Facebook, &cfg, Some(model.clone()));
    let b = run_annual_with_model(&sys, &location, TraceKind::Facebook, &cfg, Some(model));
    assert_eq!(a, b, "same seed, same fault plan => identical annual summary");
    assert!(a.fault_minutes() > 0, "severity 2.0 must actually inject faults");
}

#[test]
fn supervisor_with_zero_faults_is_behaviour_identical() {
    let cfg = quick_cfg();
    assert!(cfg.faults.is_empty());
    let location = Location::newark();
    let model = train_for_location(&location, &cfg);
    let plain = run_annual_with_model(
        &SystemSpec::CoolAir(Version::AllNd),
        &location,
        TraceKind::Facebook,
        &cfg,
        Some(model.clone()),
    );
    let supervised = run_annual_with_model(
        &SystemSpec::Supervised(Version::AllNd),
        &location,
        TraceKind::Facebook,
        &cfg,
        Some(model),
    );
    // Healthy sensors and an accurate model: validation passes readings
    // through untouched, the mode stays Normal, the failsafe never arms —
    // so every metric, including the degraded-mode counters, must match
    // the unsupervised run exactly.
    assert_eq!(plain, supervised);
    assert_eq!(supervised.degraded_minutes(), 0);
    assert_eq!(supervised.failsafe_minutes(), 0);
    assert_eq!(supervised.imputed_readings(), 0);
}

#[test]
fn inactive_fault_windows_leave_the_loop_untouched() {
    // A plan whose windows never overlap the simulated days must produce
    // bit-identical results to no fault layer at all.
    let location = Location::newark();
    let cfg = quick_cfg();
    let mut with_dormant = cfg.clone();
    with_dormant.faults = FaultPlan::none().with_window(FaultWindow {
        start: SimTime::from_days(50),
        end: SimTime::from_days(51),
        kind: FaultKind::Sensor { pod: 0, fault: SensorFault::Dropout },
    });
    let a = run_annual(&SystemSpec::Baseline, &location, TraceKind::Facebook, &cfg);
    let b = run_annual(&SystemSpec::Baseline, &location, TraceKind::Facebook, &with_dormant);
    assert_eq!(a.days().len(), b.days().len());
    for (x, y) in a.days().iter().zip(b.days().iter()) {
        if x.day == 50 {
            continue;
        }
        assert_eq!(x, y, "day {} diverged under a dormant fault plan", x.day);
    }
}

#[test]
fn failsafe_bounds_inlet_under_total_sensor_dropout() {
    // Every pod sensor drops out for a whole summer day in Chad. The
    // unsupervised optimizer keeps acting on frozen readings; the
    // supervisor detects the exact-repetition streaks, loses all trust,
    // and falls back to blind AC.
    let location = Location::chad();
    let day = 150u64;
    let mut cfg = quick_cfg();
    cfg.stride = 365; // only day 0 sampled by default...
    cfg.engine = SimConfig { record_minutes: true, ..SimConfig::default() };
    let mut plan = FaultPlan::none();
    for pod in 0..4 {
        plan = plan.with_window(FaultWindow {
            // Cover the warm-up too, so the day starts already blind.
            start: SimTime::from_secs(day * 86_400 - 4 * 3_600),
            end: SimTime::from_days(day + 1),
            kind: FaultKind::Sensor { pod, fault: SensorFault::Dropout },
        });
    }
    cfg.faults = plan;
    let model = train_for_location(&location, &cfg);

    let run = |sys: &SystemSpec, model| {
        // Drive one recorded day directly through the annual machinery by
        // sampling just that day.
        let mut c = cfg.clone();
        c.stride = 365;
        run_annual_day(sys, &location, &c, model, day)
    };
    let plain = run(&SystemSpec::CoolAir(Version::AllNd), Some(model.clone()));
    let supervised = run(&SystemSpec::Supervised(Version::AllNd), Some(model));

    assert!(
        supervised.1 <= 34.0,
        "failsafe must bound the max inlet near the 30 °C limit, got {:.1} °C",
        supervised.1
    );
    assert!(
        supervised.1 <= plain.1,
        "supervised max inlet {:.1} °C must not exceed unsupervised {:.1} °C",
        supervised.1,
        plain.1
    );
    assert!(
        supervised.0.failsafe_minutes() > 0,
        "total dropout must engage the blind-AC failsafe"
    );
}

/// Runs one specific day and returns (its summary, max observed inlet °C).
fn run_annual_day(
    sys: &SystemSpec,
    location: &Location,
    cfg: &AnnualConfig,
    model: Option<coolair_suite::core::CoolingModel>,
    day: u64,
) -> (coolair_suite::sim::AnnualSummary, f64) {
    use coolair_suite::sim::AnnualSummary;
    // The annual runner only samples `0, stride, …`; to pin an arbitrary
    // day we run the engine pieces directly.
    use coolair_suite::core::{CoolAir, CoolAirConfig, SupervisedCoolAir, SupervisorConfig};
    use coolair_suite::sim::{SimController, Simulation};
    use coolair_suite::thermal::PlantConfig;
    use coolair_suite::weather::{Forecaster, TmySeries};
    use coolair_suite::workload::{facebook_trace, Cluster, ClusterConfig};

    let tmy = TmySeries::generate(location, cfg.weather_seed);
    let forecaster = Forecaster::perfect(tmy.clone())
        .with_glitches(cfg.faults.forecast_glitches());
    let build = |version| {
        CoolAir::new(
            version,
            CoolAirConfig::default(),
            model.clone().expect("model provided"),
            forecaster.clone(),
            cfg.infrastructure,
        )
    };
    let controller = match sys {
        SystemSpec::CoolAir(v) => SimController::CoolAir(Box::new(build(*v))),
        SystemSpec::Supervised(v) => SimController::Supervised(Box::new(SupervisedCoolAir::new(
            build(*v),
            SupervisorConfig::default(),
        ))),
        _ => panic!("test only drives CoolAir-family systems"),
    };
    let mut sim = Simulation::new(
        controller,
        PlantConfig::smooth(),
        Cluster::new(ClusterConfig::parasol()),
        tmy,
        cfg.engine.clone(),
    );
    sim.set_fault_plan(cfg.faults.clone());
    let out = sim.run_day(day, facebook_trace(cfg.trace_seed).jobs_for_day(day));
    let max_inlet = out.minutes.iter().map(|m| m.max_inlet).fold(f64::NEG_INFINITY, f64::max);
    (AnnualSummary::new(vec![out.record]), max_inlet)
}

/// A nested drill on one day: every level's windows are a superset of the
/// previous level's. `hours` scales the sensor-dropout coverage; an AC
/// lockout rides along at half that length once `hours >= 2`.
fn drill_plan(day: u64, pods: usize, hours: u64) -> FaultPlan {
    let mut plan = FaultPlan::none();
    if hours == 0 {
        return plan;
    }
    let start = day * 86_400 + 6 * 3_600;
    for pod in 0..pods {
        plan = plan.with_window(FaultWindow {
            start: SimTime::from_secs(start),
            end: SimTime::from_secs(start + hours * 3_600),
            kind: FaultKind::Sensor { pod, fault: SensorFault::Dropout },
        });
    }
    if hours >= 2 {
        plan = plan.with_window(FaultWindow {
            start: SimTime::from_secs(start),
            end: SimTime::from_secs(start + (hours / 2) * 3_600),
            kind: FaultKind::Actuator(ActuatorFault::AcLockout),
        });
    }
    plan
}

#[test]
fn combined_sensor_and_actuator_faults_climb_the_ladder_deterministically() {
    // Sensor dropout on two pods AND an AC lockout overlapping it in the
    // same run: the supervisor must escalate (two invalid sensors cross
    // the default fallback threshold), stay deterministic, and come back
    // down once the windows clear.
    let location = Location::newark();
    let day = 150u64;
    let mut cfg = quick_cfg();
    cfg.stride = 365;
    cfg.engine = SimConfig { record_minutes: true, ..SimConfig::default() };
    cfg.faults = drill_plan(day, 2, 6);
    let model = train_for_location(&location, &cfg);
    let sys = SystemSpec::Supervised(Version::AllNd);

    let (a, a_inlet) = run_annual_day(&sys, &location, &cfg, Some(model.clone()), day);
    let (b, b_inlet) = run_annual_day(&sys, &location, &cfg, Some(model), day);
    assert_eq!(a, b, "combined faults must not break run determinism");
    assert_eq!(a_inlet.to_bits(), b_inlet.to_bits());
    assert!(a.fault_minutes() > 0, "the drill must actually be active");
    assert!(
        a.degraded_minutes() > 0,
        "two dropped sensors plus a locked-out compressor must leave Normal mode"
    );
    assert!(
        a.degraded_minutes() < 24 * 60,
        "the ladder must recover after the windows clear, got {} degraded minutes",
        a.degraded_minutes()
    );
}

#[test]
fn raising_fault_severity_never_lowers_the_ladder_state() {
    // Four drills whose windows strictly nest (longer dropout on more
    // pods, longer lockout). More faults can only push the supervisor
    // further up the ladder: total time away from Normal and the number
    // of imputed readings must be monotone in the drill size.
    let location = Location::newark();
    let day = 150u64;
    let mut base = quick_cfg();
    base.stride = 365;
    base.engine = SimConfig { record_minutes: true, ..SimConfig::default() };
    let model = train_for_location(&location, &base);
    let sys = SystemSpec::Supervised(Version::AllNd);

    let levels = [(0usize, 0u64), (2, 2), (4, 6), (4, 12)];
    let mut engaged = Vec::new();
    let mut imputed = Vec::new();
    let mut failsafe = Vec::new();
    for (pods, hours) in levels {
        let mut cfg = base.clone();
        cfg.faults = drill_plan(day, pods, hours);
        let (summary, _) = run_annual_day(&sys, &location, &cfg, Some(model.clone()), day);
        engaged.push(summary.degraded_minutes() + summary.failsafe_minutes());
        imputed.push(summary.imputed_readings());
        failsafe.push(summary.failsafe_minutes());
    }
    // The fault-free run is the baseline, not necessarily zero: a hot
    // summer day arms the protective failsafe on its own for a short
    // spell. Severity must only ever add to the baseline.
    assert!(
        engaged.windows(2).all(|w| w[0] <= w[1]),
        "ladder engagement must be monotone in fault severity: {engaged:?}"
    );
    assert!(engaged[3] > engaged[1], "the largest drill must clearly dominate the smallest");
    // Imputation is deliberately NOT monotone: it needs surviving sensors
    // to impute *from*. Partial dropout imputes; total dropout has nothing
    // left to lean on and must escalate to the blind-AC failsafe instead.
    assert_eq!(imputed[0], 0, "no faults, nothing to impute");
    assert!(imputed[1] > 0, "partial dropout must impute from the surviving sensors");
    assert!(
        failsafe.windows(2).all(|w| w[0] <= w[1]),
        "failsafe time must be monotone in fault severity: {failsafe:?}"
    );
    assert!(
        failsafe[2] > failsafe[1],
        "total dropout must arm the failsafe beyond the thermal baseline: {failsafe:?}"
    );
}

/// Faulted closed-loop days serialize to the bytes they did before the
/// engine took one controller snapshot per sensing instant: the Baseline,
/// All-ND and All-ND+SV on the smooth plant simulate two Newark days under
/// a plan with dropout, stuck-at, drift and noise windows, against one
/// digest of their minute-level JSON each (with the supervisor's scored
/// model error, which only the observation at a control tick feeds). The
/// windows open and close on observe ticks between control ticks, so the
/// stale-hold buffer the dropout repeats is the one the observe ticks
/// refreshed.
#[test]
fn faulted_days_match_their_pinned_digests() {
    use coolair_suite::core::{
        train_cooling_model, CoolAir, CoolAirConfig, SupervisedCoolAir, SupervisorConfig,
        TrainingConfig,
    };
    use coolair_suite::runner::stable_digest;
    use coolair_suite::sim::{SimController, Simulation};
    use coolair_suite::thermal::{Infrastructure, PlantConfig, TksConfig, TksController};
    use coolair_suite::weather::{Forecaster, TmySeries};
    use coolair_suite::workload::{facebook_trace, Cluster, ClusterConfig};

    let tmy = TmySeries::generate(&Location::newark(), 42);
    let model = train_cooling_model(&tmy, &TrainingConfig::quick());
    let trace = facebook_trace(1);
    let days = [21u64, 200u64];
    let mut plan = FaultPlan::with_seed(17);
    for day in days {
        let at = |hours: u64, minutes: u64| {
            SimTime::from_secs(day * 86_400 + hours * 3_600 + minutes * 60)
        };
        let sensor = |pod, fault| FaultKind::Sensor { pod, fault };
        for (start, end, kind) in [
            (at(2, 4), at(5, 36), sensor(0, SensorFault::Dropout)),
            (at(9, 14), at(13, 2), sensor(0, SensorFault::Dropout)),
            (at(4, 6), at(7, 48), sensor(1, SensorFault::StuckAt(24.5))),
            (at(8, 2), at(16, 44), sensor(2, SensorFault::Drift { c_per_hour: 0.6 })),
            (at(12, 8), at(20, 26), sensor(3, SensorFault::Noise { std_c: 0.8 })),
            (at(14, 4), at(15, 58), sensor(3, SensorFault::Dropout)),
        ] {
            plan = plan.with_window(FaultWindow { start, end, kind });
        }
    }
    let pins: [(&str, &str); 3] = [
        ("Baseline", "6175687070156751"),
        ("All-ND", "fbc2e497ceee800e"),
        ("All-ND+SV", "3887ab780d521571"),
    ];
    let mut mismatches = Vec::new();
    for (system, want) in pins {
        let coolair = || {
            CoolAir::new(
                Version::AllNd,
                CoolAirConfig::default(),
                model.clone(),
                Forecaster::perfect(tmy.clone()),
                Infrastructure::Smooth,
            )
        };
        let controller = match system {
            "Baseline" => SimController::Baseline(TksController::new(TksConfig::baseline())),
            "All-ND" => SimController::CoolAir(Box::new(coolair())),
            "All-ND+SV" => SimController::Supervised(Box::new(SupervisedCoolAir::new(
                coolair(),
                SupervisorConfig::default(),
            ))),
            other => unreachable!("no system {other}"),
        };
        let mut sim = Simulation::new(
            controller,
            PlantConfig::smooth(),
            Cluster::new(ClusterConfig::parasol()),
            tmy.clone(),
            SimConfig { record_minutes: true, ..SimConfig::default() },
        );
        sim.set_fault_plan(plan.clone());
        let outs = days.map(|day| sim.run_day(day, trace.jobs_for_day(day)));
        assert!(outs.iter().all(|o| o.record.fault_minutes > 0), "{system}: faults fired");
        let scored = match sim.controller() {
            SimController::Supervised(sv) => {
                assert!(sv.model_error().is_some(), "{system}: predictions were scored");
                Some((sv.model_error(), sv.peak_model_error()))
            }
            _ => None,
        };
        let got = stable_digest(&(outs, scored)).to_string();
        if got != want {
            mismatches.push(format!("{system}: {got} (pinned {want})"));
        }
    }
    assert!(mismatches.is_empty(), "faulted days changed:\n{}", mismatches.join("\n"));
}
