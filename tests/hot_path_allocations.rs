//! Heap allocations on the simulator's hot paths, counted after warm-up: a
//! physics step of the plant and a compute tick of the cluster allocate
//! nothing, a Smooth Cooling Optimizer tick allocates only for the
//! decision it returns, and a Baseline day only for the snapshots its
//! controller reads. Training costs a bounded number of allocations too: a
//! least-squares fit allocates its buffers once, whatever its row count,
//! and a Cooling Model training run allocates per fitted model, not per
//! simulated step or sample.
//!
//! A counting global allocator keeps one count per thread, so the tests of
//! this file can run in parallel without reading each other's allocations.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use coolair_suite::core::manager::optimizer::CoolingOptimizer;
use coolair_suite::core::{train_cooling_model, CoolAirConfig, TempBand, TrainingConfig, Version};
use coolair_suite::ml::{Dataset, LinearModel};
use coolair_suite::sim::{SimConfig, SimController, Simulation};
use coolair_suite::thermal::{
    CoolingRegime, Infrastructure, ItLoad, OutsideConditions, Plant, PlantConfig, TksConfig,
    TksController,
};
use coolair_suite::units::{
    psychro, Celsius, FanSpeed, RelativeHumidity, SimDuration, SimTime, Watts,
};
use coolair_suite::weather::{Location, TmySeries};
use coolair_suite::workload::{facebook_trace, Cluster, ClusterConfig};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

thread_local! {
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

/// The system allocator, counting every allocation on the calling thread.
struct CountingAllocator;

fn count_one() {
    // `try_with`: allocations during thread-local teardown go uncounted
    // instead of panicking.
    let _ = ALLOCATIONS.try_with(|n| n.set(n.get() + 1));
}

// SAFETY: every method forwards to `System` unchanged; counting touches
// only a const-initialized thread-local `Cell`, which never allocates.
unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count_one();
        // SAFETY: the caller upholds `GlobalAlloc::alloc`'s contract.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count_one();
        // SAFETY: as for `alloc`.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count_one();
        // SAFETY: the caller upholds `GlobalAlloc::realloc`'s contract.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System` through the methods above.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static GLOBAL: CountingAllocator = CountingAllocator;

/// Allocations `f` makes on this thread.
fn allocations_during(f: impl FnOnce()) -> u64 {
    let before = ALLOCATIONS.with(Cell::get);
    f();
    ALLOCATIONS.with(Cell::get) - before
}

fn outside(temp: f64) -> OutsideConditions {
    let temperature = Celsius::new(temp);
    OutsideConditions {
        temperature,
        abs_humidity: psychro::absolute_humidity(temperature, RelativeHumidity::new(60.0)),
    }
}

#[test]
fn plant_step_allocates_nothing() {
    let mut plant = Plant::new(PlantConfig::smooth());
    let it = ItLoad::uniform(4, Watts::new(125.0), 0.27);
    let dt = SimDuration::from_secs(15);
    let regimes = [
        CoolingRegime::free_cooling(FanSpeed::new(0.5).expect("valid speed")),
        CoolingRegime::Ac { compressor: 0.5 },
        CoolingRegime::Closed,
    ];
    let mut run = |steps: usize| {
        for i in 0..steps {
            plant.step(
                dt,
                outside(18.0 + (i % 7) as f64),
                &it,
                regimes[(i / 40) % 3],
            );
        }
    };
    run(120);
    assert_eq!(allocations_during(|| run(360)), 0);
}

#[test]
fn compute_tick_allocates_nothing() {
    let mut cluster = Cluster::new(ClusterConfig::parasol());
    let priority: Vec<usize> = (0..64).rev().collect();
    cluster.set_priority(&priority);
    for job in facebook_trace(1).jobs_for_day(0) {
        cluster.submit(job);
    }
    let mut it = ItLoad::uniform(4, Watts::ZERO, 1.0);
    let minute = SimDuration::from_minutes(1);
    let mut now = SimTime::EPOCH;
    // One tick as both day loops run it: size the active set, step the
    // cluster, refresh the IT load in place.
    let mut tick = |minutes: u64| {
        for _ in 0..minutes {
            let target = cluster.demand(now).max(8);
            cluster.set_active_target(target);
            cluster.step(now, minute);
            cluster.write_pod_power(&mut it.pod_power);
            it.active_fraction = cluster.active_fraction();
            now += minute;
        }
    };
    tick(30);
    assert_eq!(allocations_during(|| tick(120)), 0);
}

#[test]
fn warmed_smooth_optimizer_select_allocates_at_most_5_times() {
    let tmy = TmySeries::generate(&Location::newark(), 11);
    let model = train_cooling_model(&tmy, &TrainingConfig::quick());
    let cfg = CoolAirConfig::default();
    let mut optimizer = CoolingOptimizer::new(Version::AllNd.utility(&cfg), Infrastructure::Smooth);
    let mut plant = Plant::new(PlantConfig::smooth());
    let it = ItLoad::uniform(4, Watts::new(300.0), 0.6);
    let regime = CoolingRegime::Ac { compressor: 0.3 };
    for _ in 0..40 {
        plant.step(SimDuration::from_secs(15), outside(31.0), &it, regime);
    }
    let prev = plant.readings(SimTime::from_secs(600));
    plant.step(SimDuration::from_secs(120), outside(31.0), &it, regime);
    let readings = plant.readings(SimTime::from_secs(720));
    let band = TempBand::new(Celsius::new(25.0), Celsius::new(30.0));
    let mut select = || {
        optimizer
            .select(&model, &cfg, &readings, Some(&prev), Some(band), &[true; 4])
            .expect("smooth offers candidates")
    };
    let warm = select();
    let mut decision = None;
    let count = allocations_during(|| decision = Some(select()));
    assert_eq!(decision, Some(warm), "a repeated tick decides the same");
    // The returned decision's prediction (its five vectors) alone: the 20
    // scored candidates reuse the optimizer's two buffers, and the tick's
    // prediction context (start state, scratch, four blend anchors) the
    // buffers the optimizer keeps for it.
    assert!(count <= 5, "a warmed smooth select allocated {count} times");
}

/// A warmed Baseline day builds controller snapshots at its control ticks
/// only: none at the observe ticks between them, whose snapshot it never
/// reads.
#[test]
fn baseline_day_allocates_at_most_330_times() {
    let tmy = TmySeries::generate(&Location::newark(), 5);
    let trace = facebook_trace(1);
    let mut sim = Simulation::new(
        SimController::Baseline(TksController::new(TksConfig::baseline())),
        PlantConfig::smooth(),
        Cluster::new(ClusterConfig::parasol()),
        tmy,
        SimConfig::default(),
    );
    let _ = sim.run_day(99, trace.jobs_for_day(99));
    let jobs = trace.jobs_for_day(100);
    let count = allocations_during(|| {
        let _ = sim.run_day(100, jobs);
    });
    // 162 ten-minute control ticks over the day and its three warm-up
    // hours, two vectors per snapshot, and the day's metric buffers.
    assert!(count <= 330, "a warmed Baseline day allocated {count} times");
}

/// 2 000 seeded rows over seven features: a noisy linear target, a tenth
/// of the rows carrying a gross outlier.
fn regression_rows() -> Dataset {
    let mut rng = StdRng::seed_from_u64(3);
    let mut d = Dataset::new((0..7).map(|i| format!("x{i}")).collect());
    for _ in 0..2000 {
        let x: Vec<f64> = (0..7).map(|_| rng.gen_range(-10.0..10.0)).collect();
        let y = x.iter().enumerate().map(|(i, v)| (i as f64 - 3.0) * v).sum::<f64>()
            + rng.gen_range(-0.5..0.5)
            + if rng.gen_bool(0.1) { 200.0 } else { 0.0 };
        d.push(&x, y).expect("finite");
    }
    d
}

#[test]
fn ols_fit_allocates_at_most_8_times() {
    let data = regression_rows();
    let count = allocations_during(|| {
        LinearModel::fit_ols(&data).expect("well posed");
    });
    assert!(count <= 8, "fit_ols on 2 000 rows allocated {count} times");
}

#[test]
fn lms_fit_allocates_at_most_8_times() {
    let data = regression_rows();
    let count = allocations_during(|| {
        LinearModel::fit_lms(&data, 60, 7).expect("well posed");
    });
    assert!(count <= 8, "fit_lms with 60 draws on 2 000 rows allocated {count} times");
}

#[test]
fn quick_training_allocates_at_most_10_000_times() {
    let tmy = TmySeries::generate(&Location::newark(), 11);
    let count = allocations_during(|| {
        let _ = train_cooling_model(&tmy, &TrainingConfig::quick());
    });
    assert!(count <= 10_000, "a quick Newark training allocated {count} times");
}
