//! Criterion micro-benchmarks for the hot paths: plant physics steps, the
//! cluster's compute tick, the learned-model prediction, the Cooling
//! Optimizer's decision, M5P training, and full closed-loop simulated days
//! (the baseline and All-ND on the smooth plant).
//!
//! Besides the usual stdout lines, this bench writes `BENCH_perf.json` at
//! the repo root — a machine-readable record of the median ns/iter for each
//! component, so the performance trajectory can be tracked across commits.
//! The schema is documented in EXPERIMENTS.md.

use criterion::{criterion_group, Criterion};
use std::collections::VecDeque;
use std::hint::black_box;

use coolair::manager::band::TempBand;
use coolair_runner::{stable_digest, Digest, Executor, Job, Telemetry};
use coolair::manager::optimizer::CoolingOptimizer;
use coolair::manager::predict_regime;
use coolair::{train_cooling_model, CoolAir, CoolAirConfig, TrainingConfig, Version};
use coolair_ml::{Dataset, M5pConfig, ModelTree};
use coolair_sim::{
    sweep_one_with_model, train_for_location, AnnualConfig, SimConfig, SimController, Simulation,
};
use coolair_thermal::{
    CoolingRegime, Infrastructure, ItLoad, OutsideConditions, Plant, PlantConfig, TksConfig,
    TksController,
};
use coolair_units::{psychro, Celsius, FanSpeed, RelativeHumidity, SimDuration, SimTime, Watts};
use coolair_weather::{Forecaster, Location, TmySeries, WorldGrid};
use coolair_workload::{facebook_trace, Cluster, ClusterConfig};

fn bench_plant_step(c: &mut Criterion) {
    let mut plant = Plant::new(PlantConfig::parasol());
    let outside = OutsideConditions {
        temperature: Celsius::new(12.0),
        abs_humidity: psychro::absolute_humidity(Celsius::new(12.0), RelativeHumidity::new(60.0)),
    };
    let it = ItLoad::uniform(4, Watts::new(125.0), 0.27);
    let regime = CoolingRegime::free_cooling(FanSpeed::new(0.5).unwrap());
    c.bench_function("plant_step_15s", |b| {
        b.iter(|| {
            plant.step(SimDuration::from_secs(15), black_box(outside), &it, regime);
        });
    });
}

fn bench_cluster_compute_tick(c: &mut Criterion) {
    // The Compute Manager's rule: the active set sized to demand.
    bench_compute_tick(c, "cluster_compute_tick", |cluster, now| {
        cluster.demand(now).max(cluster.config().covering_count)
    });
    // The active set capped at the covering subset, as a learner that sheds
    // servers leaves it: about 1 600 jobs are queued by noon.
    bench_compute_tick(c, "cluster_compute_tick_backlog", |cluster, now| {
        cluster.demand(now).min(cluster.config().covering_count)
    });
}

/// One simulated minute of compute management as the day loops run it:
/// submit the jobs that arrived, set the active target, step the cluster,
/// refresh the IT load in place. Day 100 of the Facebook trace is replayed
/// from midnight to noon under the same target first, so the timed ticks
/// see a midday queue.
fn bench_compute_tick(c: &mut Criterion, name: &str, target: fn(&Cluster, SimTime) -> usize) {
    let mut pending: VecDeque<coolair_workload::Job> = {
        let mut jobs = facebook_trace(1).jobs_for_day(100);
        jobs.sort_by_key(|j| j.submit);
        jobs.into()
    };
    let mut cluster = Cluster::new(ClusterConfig::parasol());
    let minute = SimDuration::from_minutes(1);
    let mut now = SimTime::from_days(100);
    let mut it = ItLoad::uniform(4, Watts::ZERO, 1.0);
    let mut tick = || {
        while let Some(job) = pending.pop_front_if(|j| j.submit <= now) {
            cluster.submit(job);
        }
        cluster.set_active_target(target(&cluster, now));
        cluster.step(now, minute);
        cluster.write_pod_power(&mut it.pod_power);
        it.active_fraction = cluster.active_fraction();
        black_box(&it);
        now += minute;
    };
    for _ in 0..12 * 60 {
        tick();
    }
    c.bench_function(name, |b| b.iter(&mut tick));
}

fn bench_model_predict(c: &mut Criterion) {
    let tmy = TmySeries::generate(&Location::newark(), 11);
    let model = train_cooling_model(&tmy, &TrainingConfig::quick());
    let cfg = CoolAirConfig::default();
    let plant = Plant::new(PlantConfig::parasol());
    let readings = plant.readings(SimTime::EPOCH);
    let regime = CoolingRegime::free_cooling(FanSpeed::new(0.5).unwrap());
    c.bench_function("model_predict_regime", |b| {
        b.iter(|| {
            black_box(predict_regime(
                &model,
                &cfg,
                black_box(&readings),
                None,
                regime,
                Infrastructure::Smooth,
            ));
        });
    });
}

fn bench_optimizer_batched(c: &mut Criterion) {
    let tmy = TmySeries::generate(&Location::newark(), 11);
    let model = train_cooling_model(&tmy, &TrainingConfig::quick());
    let cfg = CoolAirConfig::default();
    let mut opt = CoolingOptimizer::new(Version::AllNd.utility(&cfg), Infrastructure::Smooth);
    // One full tick: the shared PredictionContext over all 20 smooth
    // candidates (11 distinct roll-forwards).
    let plant = Plant::new(PlantConfig::parasol());
    let readings = plant.readings(SimTime::EPOCH);
    let band = TempBand::new(Celsius::new(20.0), Celsius::new(25.0));
    c.bench_function("optimizer_select_batched", |b| {
        b.iter(|| {
            black_box(
                opt.select(&model, &cfg, &readings, None, Some(band), &[true; 4]).unwrap(),
            );
        });
    });
}

fn bench_world_sweep_1day(c: &mut Criterion) {
    // One grid location, one simulated day (stride > 365 samples only day
    // 0), model pre-trained outside the loop: the iteration cost is the
    // baseline-vs-All-ND evaluation pair — the closed-loop path the
    // prediction engine serves.
    let annual = AnnualConfig { stride: 400, ..AnnualConfig::quick() };
    let grid = WorldGrid::with_count(1);
    let location = grid.locations()[0].clone();
    let model = train_for_location(&location, &annual);
    let mut group = c.benchmark_group("world_sweep");
    group.sample_size(10);
    group.bench_function("world_sweep_1day", |b| {
        b.iter(|| {
            black_box(sweep_one_with_model(
                black_box(&location),
                &annual,
                model.clone(),
            ));
        });
    });
    group.finish();
}

fn bench_m5p(c: &mut Criterion) {
    let mut data = Dataset::new(vec!["fan".into(), "comp".into()]);
    for i in 0..2000 {
        let f = f64::from(i % 101) / 100.0;
        data.push(vec![f, 0.0], 8.0 + 417.0 * f * f * f).unwrap();
    }
    c.bench_function("m5p_fit_2000_rows", |b| {
        b.iter(|| black_box(ModelTree::fit(&data, M5pConfig::default()).unwrap()));
    });
}

fn bench_day_sim(c: &mut Criterion) {
    let tmy = TmySeries::generate(&Location::newark(), 5);
    let trace = facebook_trace(1);
    let mut group = c.benchmark_group("day_sim");
    group.sample_size(10);
    group.bench_function("baseline_full_day", |b| {
        b.iter(|| {
            let mut sim = Simulation::new(
                SimController::Baseline(TksController::new(TksConfig::baseline())),
                PlantConfig::parasol(),
                Cluster::new(ClusterConfig::parasol()),
                tmy.clone(),
                SimConfig::default(),
            );
            black_box(sim.run_day(100, trace.jobs_for_day(100)));
        });
    });
    // The same day under All-ND on the smooth plant: the predictor, the
    // optimizer and the compute manager on top of the baseline's loop.
    let model = train_cooling_model(&tmy, &TrainingConfig::quick());
    group.bench_function("all_nd_smooth_full_day", |b| {
        b.iter(|| {
            let coolair = CoolAir::new(
                Version::AllNd,
                CoolAirConfig::default(),
                model.clone(),
                Forecaster::perfect(tmy.clone()),
                Infrastructure::Smooth,
            );
            let mut sim = Simulation::new(
                SimController::CoolAir(Box::new(coolair)),
                PlantConfig::smooth(),
                Cluster::new(ClusterConfig::parasol()),
                tmy.clone(),
                SimConfig::default(),
            );
            black_box(sim.run_day(100, trace.jobs_for_day(100)));
        });
    });
    group.finish();
}

/// A near-empty job, so the bench isolates the executor's own costs
/// (slot allocation, deque round trip, catch_unwind, counters).
struct NoopJob(u64);

impl Job for NoopJob {
    type Output = u64;
    fn kind(&self) -> &'static str {
        "noop"
    }
    fn digest(&self) -> Digest {
        stable_digest(&self.0)
    }
    fn label(&self) -> String {
        self.0.to_string()
    }
    fn run(&self) -> u64 {
        self.0.wrapping_mul(2)
    }
}

fn bench_executor_overhead(c: &mut Criterion) {
    let jobs: Vec<NoopJob> = (0..256).map(NoopJob).collect();
    c.bench_function("executor_overhead_256_noop_jobs", |b| {
        b.iter(|| {
            let exec = Executor::in_memory(4, Telemetry::disabled());
            black_box(exec.run(black_box(&jobs)));
        });
    });
}

criterion_group!(
    benches,
    bench_plant_step,
    bench_cluster_compute_tick,
    bench_model_predict,
    bench_optimizer_batched,
    bench_m5p,
    bench_day_sim,
    bench_world_sweep_1day,
    bench_executor_overhead
);

fn main() {
    benches();
    // Merge-preserving write: rows from other bench targets (e.g.
    // serve_throughput) survive; schema in EXPERIMENTS.md.
    let entries = coolair_bench::perf::entries_from_criterion(criterion::take_results());
    let path = coolair_bench::perf::report_path();
    match coolair_bench::perf::merge_into_report(&path, "perf_components", entries) {
        Ok(()) => println!("\nwrote {}", path.display()),
        Err(e) => eprintln!("could not write {}: {e}", path.display()),
    }
}
