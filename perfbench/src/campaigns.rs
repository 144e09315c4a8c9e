//! `campaigns`: store-backed, resumable experiment campaigns.
//!
//! Each round opens one [`Executor`] (one thread) on a fresh on-disk
//! store and runs four campaigns through it: a world sweep over a slice
//! of the grid, the shipped fleet, the tune smoke suite and the learn
//! smoke suite, writing each campaign's report artifact as the CLI does.
//! A second executor then reopens the same store with journal replay and
//! runs the same four again; that resumed pass must execute no job and
//! return byte-identical outcomes. `round_s` is the cold plus the
//! resumed wall time of a round.
//!
//! The fleet, tune and learn specs are fixed (the CLI's default seed) and
//! so is the sweep's shard of the world grid; the `--seed` argument
//! permutes the order of the shard's sites, which reorders the sweep's
//! jobs and report rows but changes no simulated result. The outcome
//! metrics (the fleet's violation and energy) are therefore the same for
//! every seed.

use std::path::Path;
use std::time::Instant;

use coolair::TrainingConfig;
use coolair_fleet::{run_fleet_with, FleetOutcome, FleetSpec, KIND_FLEET_REPORT};
use coolair_learn::{run_learn_with, LearnOutcome, LearnSpec, KIND_LEARN_REPORT};
use coolair_runner::{Executor, ExecutorConfig, ProgressSnapshot};
use coolair_sim::{sweep_locations, AnnualConfig, SweepReport};
use coolair_telemetry::Telemetry;
use coolair_tune::{run_tune_with, TuneOutcome, TuneSpec, KIND_TUNE_REPORT};
use coolair_weather::{shard_locations, world_locations, Location};

use crate::layers::{ratio, Layers};
use crate::report::{EndToEnd, Report};
use crate::stats::{median, Rng};
use crate::trace::Tracer;
use crate::RunArgs;

/// Set-up samples taken before the timed phase and again after each
/// round, so that `setup_s` (their median) samples the host across the
/// whole run.
const SETUP_SAMPLES: usize = 10;
/// Spec builds per set-up sample: one build takes a few hundred
/// microseconds, so a sample is the mean of a batch.
const SETUP_BATCH: usize = 10;
/// Executor worker threads. With two, the process's peak memory depended
/// on which worker's glibc arena each job landed in (14.3 to 19.3 MB over
/// three runs, against 10.0 to 10.1 MB with one), so the workload keeps
/// to one.
const THREADS: usize = 1;
/// The sweep's slice: shard [`SWEEP_SHARD`] of [`SWEEP_SHARDS`] over a
/// [`SWEEP_GRID`]-cell world grid.
const SWEEP_GRID: usize = 64;
const SWEEP_SHARDS: usize = 16;
const SWEEP_SHARD: usize = 1;
/// The fleet, tune and learn seed: the `coolair` CLI's default.
const SPEC_SEED: u64 = 7;

/// The four campaign specs.
#[derive(Debug, Clone)]
pub struct Specs {
    /// Sweep locations (one interleaved shard of the world grid).
    pub sites: Vec<Location>,
    /// Sweep year configuration.
    pub annual: AnnualConfig,
    /// The shipped fleet.
    pub fleet: FleetSpec,
    /// The tune smoke suite.
    pub tune: TuneSpec,
    /// The learn smoke suite.
    pub learn: LearnSpec,
}

impl Specs {
    /// The workload's specs: one sweep shard with its sites in the order
    /// `seed` picks, the shipped fleet and the tune and learn smoke suites
    /// at [`SPEC_SEED`].
    #[must_use]
    pub fn for_seed(seed: u64) -> Specs {
        let mut sites = shard_locations(&world_locations(SWEEP_GRID), SWEEP_SHARD, SWEEP_SHARDS);
        Rng::new(seed, 3).shuffle(&mut sites);
        let seed = SPEC_SEED;
        Specs {
            sites,
            annual: AnnualConfig {
                stride: 60,
                training: TrainingConfig {
                    days: 4,
                    ..TrainingConfig::default()
                },
                ..AnnualConfig::default()
            },
            fleet: FleetSpec::shipped(seed),
            tune: TuneSpec::smoke(seed),
            learn: LearnSpec::smoke(seed),
        }
    }

    /// Spec validation (part of set-up).
    ///
    /// # Errors
    ///
    /// The first invalid spec's problems.
    pub fn validate(&self) -> Result<(), String> {
        self.fleet.validate()?;
        self.tune.validate()?;
        self.learn.validate()
    }
}

/// The four outcomes of one pass.
#[derive(Debug, Clone)]
pub struct Outcomes {
    /// World sweep report.
    pub sweep: SweepReport,
    /// Fleet outcome.
    pub fleet: FleetOutcome,
    /// Tune outcome.
    pub tune: TuneOutcome,
    /// Learn outcome.
    pub learn: LearnOutcome,
}

impl Outcomes {
    /// Canonical bytes of every outcome, for byte-identity checks.
    #[must_use]
    pub fn bytes(&self) -> Vec<String> {
        let json = |v: Result<String, serde_json::Error>| v.unwrap_or_else(|e| format!("<{e}>"));
        vec![
            json(serde_json::to_string(&self.sweep.points)),
            json(serde_json::to_string(&self.sweep.failures)),
            json(serde_json::to_string(&self.fleet)),
            json(serde_json::to_string(&self.tune)),
            json(serde_json::to_string(&self.learn)),
        ]
    }
}

fn executor(dir: &Path, resume: bool, telemetry: &Telemetry) -> Result<Executor, String> {
    Executor::new(ExecutorConfig {
        threads: THREADS,
        store_dir: Some(dir.to_path_buf()),
        resume,
        telemetry: telemetry.clone(),
        ..ExecutorConfig::default()
    })
    .map_err(|e| format!("open store {}: {e}", dir.display()))
}

fn pass(
    specs: &Specs,
    exec: &Executor,
    telemetry: &Telemetry,
    tracer: &Tracer,
    parent: u64,
    names: [&'static str; 4],
) -> Outcomes {
    Outcomes {
        sweep: tracer.span(names[0], parent, || {
            sweep_locations(&specs.sites, &specs.annual, exec)
        }),
        fleet: tracer.span(names[1], parent, || {
            run_fleet_with(&specs.fleet, exec, telemetry)
        }),
        tune: tracer.span(names[2], parent, || {
            run_tune_with(&specs.tune, exec, telemetry)
        }),
        learn: tracer.span(names[3], parent, || {
            run_learn_with(&specs.learn, exec, telemetry)
        }),
    }
}

/// One round's results.
#[derive(Debug)]
pub struct RoundOut {
    /// Cold-pass outcomes.
    pub cold: Outcomes,
    /// Resumed-pass outcomes.
    pub resumed: Outcomes,
    /// Report artifacts read back after the resumed pass (fleet, tune,
    /// learn), as canonical bytes.
    pub read_back: Vec<String>,
    /// Cold executor progress.
    pub cold_progress: ProgressSnapshot,
    /// Resumed executor progress.
    pub resumed_progress: ProgressSnapshot,
    /// Cold plus resumed wall time, seconds.
    pub campaign_s: f64,
    /// Store size after the cold pass, bytes.
    pub store_bytes: u64,
}

/// One round on the fresh store directory `dir`, which it removes at the
/// end, outside the timing.
fn round(
    specs: &Specs,
    dir: &Path,
    telemetry: &Telemetry,
    tracer: &Tracer,
    parent: u64,
) -> Result<RoundOut, String> {
    let started = Instant::now();
    let exec = tracer.span("runner.open", parent, || executor(dir, false, telemetry))?;
    let cold = pass(
        specs,
        &exec,
        telemetry,
        tracer,
        parent,
        ["sweep", "fleet", "tune", "learn"],
    );
    let store = exec.store().ok_or("executor has no store")?;
    tracer
        .span("store.put", parent, || {
            store.put(KIND_FLEET_REPORT, specs.fleet.digest(), &cold.fleet)
        })
        .map_err(|e| format!("put fleet report: {e}"))?;
    tracer
        .span("store.put", parent, || {
            store.put(KIND_TUNE_REPORT, specs.tune.digest(), &cold.tune)
        })
        .map_err(|e| format!("put tune report: {e}"))?;
    tracer
        .span("store.put", parent, || {
            store.put(KIND_LEARN_REPORT, specs.learn.digest(), &cold.learn)
        })
        .map_err(|e| format!("put learn report: {e}"))?;
    let cold_progress = exec.progress();
    drop(exec);
    let cold_s = started.elapsed().as_secs_f64();
    let store_bytes = dir_bytes(dir);

    let started = Instant::now();
    let exec = tracer.span("runner.resume", parent, || executor(dir, true, telemetry))?;
    let resumed = pass(
        specs,
        &exec,
        telemetry,
        tracer,
        parent,
        [
            "resumed.sweep",
            "resumed.fleet",
            "resumed.tune",
            "resumed.learn",
        ],
    );
    let store = exec.store().ok_or("executor has no store")?;
    let fleet: Option<FleetOutcome> = tracer.span("store.get", parent, || {
        store.get(KIND_FLEET_REPORT, specs.fleet.digest())
    });
    let tune: Option<TuneOutcome> = tracer.span("store.get", parent, || {
        store.get(KIND_TUNE_REPORT, specs.tune.digest())
    });
    let learn: Option<LearnOutcome> = tracer.span("store.get", parent, || {
        store.get(KIND_LEARN_REPORT, specs.learn.digest())
    });
    let resumed_progress = exec.progress();
    drop(exec);
    let campaign_s = cold_s + started.elapsed().as_secs_f64();
    let _ = std::fs::remove_dir_all(dir);

    let json = |v: Option<Result<String, serde_json::Error>>| match v {
        Some(Ok(s)) => s,
        Some(Err(e)) => format!("<{e}>"),
        None => "<missing artifact>".to_string(),
    };
    let read_back = vec![
        json(fleet.as_ref().map(serde_json::to_string)),
        json(tune.as_ref().map(serde_json::to_string)),
        json(learn.as_ref().map(serde_json::to_string)),
    ];
    Ok(RoundOut {
        cold,
        resumed,
        read_back,
        cold_progress,
        resumed_progress,
        campaign_s,
        store_bytes,
    })
}

fn dir_bytes(dir: &Path) -> u64 {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return 0;
    };
    entries
        .flatten()
        .map(|e| match e.metadata() {
            Ok(m) if m.is_dir() => dir_bytes(&e.path()),
            Ok(m) => m.len(),
            Err(_) => 0,
        })
        .sum()
}

/// Runs the workload.
pub fn run(args: &RunArgs) -> Report {
    let mut report = Report::default();
    let root = crate::scratch_dir("campaigns");
    if let Err(e) = run_inner(args, &root, &mut report) {
        report.fail(format!("campaigns aborted: {e}"));
    }
    let _ = std::fs::remove_dir_all(&root);
    report
}

/// One set-up sample: the run's specs built and validated
/// [`SETUP_BATCH`] times; returns the mean seconds per build and the
/// last build.
fn set_up(seed: u64, tracer: &Tracer, parent: u64) -> Result<(f64, Specs), String> {
    let t = Instant::now();
    let mut specs = None;
    for _ in 0..SETUP_BATCH {
        let built = tracer.span("specs.build", parent, || Specs::for_seed(seed));
        built.validate()?;
        specs = Some(built);
    }
    let seconds = t.elapsed().as_secs_f64() / SETUP_BATCH as f64;
    Ok((seconds, specs.expect("SETUP_BATCH > 0")))
}

/// What the metrics need of one round. The outcomes themselves are checked
/// and dropped right after their round, so memory stays flat.
#[derive(Debug)]
struct RoundStats {
    campaign_s: f64,
    violation_cmin: f64,
    energy_kwh: f64,
    jobs_done: u64,
    jobs_failed: u64,
    resumed: u64,
    store_bytes: u64,
    lanes: u64,
    rollouts: u64,
}

/// Output checks of one round; `first` holds the first round's outcome
/// bytes, which every later round must reproduce.
fn verify(specs: &Specs, r: &RoundOut, first: &mut Option<Vec<String>>, report: &mut Report) {
    report.ok(8);
    report.check("resumed_executes_nothing", check_resumed(r));
    report.check("reports_read_back", check_read_back(r));
    report.check(
        "fleet_conserves_deferrable_load",
        check_fleet(&specs.fleet, &r.cold.fleet),
    );
    report.check("sweep_coolair_cuts_max_range", check_sweep(&r.cold.sweep));
    report.check("tune_robust_worst_at_most_nominal", check_tune(&r.cold.tune));
    report.check("learn_best_beats_random", check_learn(&r.cold.learn));
    let bytes = r.cold.bytes();
    let first = first.get_or_insert_with(|| bytes.clone());
    report.check(
        "rounds_repeat_exactly",
        match first.iter().zip(&bytes).position(|(a, b)| a != b) {
            None => Ok(()),
            Some(i) => Err(format!("outcome {i} differs from the first round's")),
        },
    );
}

/// Set-up runs [`SETUP_SAMPLES`] times before the timed phase (inside a
/// `setup` span when traced) and, untraced, again after each round.
/// Traced, each traced round follows an untraced reference round of the
/// same operations, the baseline of `trace.overhead_pct`.
fn run_inner(args: &RunArgs, root: &Path, report: &mut Report) -> Result<(), String> {
    let tracer = if args.trace {
        Tracer::enabled()
    } else {
        Tracer::disabled()
    };
    let telemetry = Telemetry::discard();
    let mut fresh = {
        let mut n = 0;
        move || {
            n += 1;
            root.join(format!("store-{n}"))
        }
    };
    let mut setups = Vec::new();
    let mut set_up_samples = |tracer: &Tracer, parent: u64| -> Result<Specs, String> {
        let mut specs = None;
        for _ in 0..SETUP_SAMPLES {
            let (seconds, built) = set_up(args.seed, tracer, parent)?;
            setups.push(seconds);
            specs = Some(built);
        }
        Ok(specs.expect("SETUP_SAMPLES > 0"))
    };
    let span = tracer.begin("setup", 0, 0);
    let specs = set_up_samples(&tracer, span.map_or(0, |s| s.id()))?;
    tracer.end(span);
    let mut first = None;
    let (mut rounds, mut reference_s, mut timed_s) = (Vec::new(), 0.0, 0.0);
    loop {
        if args.trace {
            let reference = round(
                &specs,
                &fresh(),
                &Telemetry::discard(),
                &Tracer::disabled(),
                0,
            )?;
            reference_s += reference.campaign_s;
            timed_s += reference.campaign_s;
            verify(&specs, &reference, &mut first, report);
        }
        let span = tracer.begin("round", 0, 0);
        let out = round(
            &specs,
            &fresh(),
            &telemetry,
            &tracer,
            span.map_or(0, |s| s.id()),
        );
        tracer.end(span);
        let out = out?;
        timed_s += out.campaign_s;
        verify(&specs, &out, &mut first, report);
        let sites = &out.cold.fleet.per_site;
        rounds.push(RoundStats {
            campaign_s: out.campaign_s,
            violation_cmin: sites.iter().map(|p| p.violation_cmin).sum(),
            energy_kwh: sites.iter().map(|p| p.it_kwh + p.cooling_kwh).sum(),
            jobs_done: out.cold_progress.done,
            jobs_failed: out.cold_progress.failed + out.resumed_progress.failed,
            resumed: out.resumed_progress.resumed,
            store_bytes: out.store_bytes,
            lanes: out.cold.fleet.lanes_evaluated,
            rollouts: out.cold.learn.rollouts,
        });
        if !args.trace {
            set_up_samples(&Tracer::disabled(), 0)?;
        }
        if timed_s >= args.seconds {
            break;
        }
    }
    report.ok((setups.len() * SETUP_BATCH) as u64);
    if args.trace {
        traced_layers(args, &tracer, &telemetry, &rounds, reference_s, report);
        return Ok(());
    }
    let times: Vec<f64> = rounds.iter().map(|r| r.campaign_s).collect();
    report.end_to_end(&EndToEnd {
        setup_s: median(&setups).unwrap_or(f64::NAN),
        round_s: median(&times).unwrap_or(f64::NAN),
        violation_cmin: rounds[0].violation_cmin,
        energy_kwh: rounds[0].energy_kwh,
    });
    eprintln!(
        "campaigns: {} rounds over {} sweep sites, round s {:.3?}; {} set-up samples of {SETUP_BATCH} spec builds, median {:.1} us per build",
        rounds.len(),
        specs.sites.len(),
        times,
        setups.len(),
        median(&setups).unwrap_or(f64::NAN) * 1e6,
    );
    Ok(())
}

/// The resumed pass executed no job (everything came from journal
/// replay) and returned byte-identical outcomes.
pub fn check_resumed(r: &RoundOut) -> Result<(), String> {
    let p = &r.resumed_progress;
    if p.scheduled != 0 || p.done != 0 || p.failed != 0 {
        return Err(format!(
            "resumed pass scheduled {}, executed {}, failed {}",
            p.scheduled, p.done, p.failed
        ));
    }
    if p.resumed == 0 {
        return Err("resumed pass replayed no journal entry".to_string());
    }
    let (cold, warm) = (r.cold.bytes(), r.resumed.bytes());
    match cold.iter().zip(&warm).position(|(a, b)| a != b) {
        None => Ok(()),
        Some(i) => Err(format!("resumed outcome {i} differs from the cold one")),
    }
}

/// The report artifacts written after the cold pass read back equal to
/// the outcomes.
pub fn check_read_back(r: &RoundOut) -> Result<(), String> {
    let cold = r.cold.bytes();
    // `bytes()` order: sweep points, sweep failures, fleet, tune, learn.
    match cold[2..].iter().zip(&r.read_back).position(|(a, b)| a != b) {
        None => Ok(()),
        Some(i) => Err(format!("report artifact {i} reads back different bytes")),
    }
}

/// Migration moves load, never creates or destroys it: every epoch
/// carries the spec's loaded-container total and migrates at most the
/// budget and at most the deferrable energy it carries.
pub fn check_fleet(spec: &FleetSpec, outcome: &FleetOutcome) -> Result<(), String> {
    let loaded = spec.loaded_total() as u64;
    if outcome.epochs.is_empty() {
        return Err("fleet ran no epoch".to_string());
    }
    for e in &outcome.epochs {
        let sum: u64 = e.loaded_per_site.iter().sum();
        if sum != loaded {
            return Err(format!(
                "epoch {}: {sum} loaded containers, spec places {loaded}",
                e.epoch
            ));
        }
        if !(e.migrated_mwh <= spec.migration.budget_mwh + 1e-9
            && e.migrated_mwh <= e.deferrable_mwh + 1e-9)
        {
            return Err(format!(
                "epoch {}: migrated {} MWh of {} MWh deferrable (budget {})",
                e.epoch, e.migrated_mwh, e.deferrable_mwh, spec.migration.budget_mwh
            ));
        }
    }
    Ok(())
}

/// The robust design's worst-case violation is at most the nominal
/// design's: robustness is what the tuner optimizes for.
pub fn check_tune(outcome: &TuneOutcome) -> Result<(), String> {
    if outcome.robust_worst_violation <= outcome.nominal_worst_violation {
        Ok(())
    } else {
        Err(format!(
            "robust worst violation {} above nominal {}",
            outcome.robust_worst_violation, outcome.nominal_worst_violation
        ))
    }
}

/// The best learned policy strictly beats the random policy on the
/// lexicographic (violation, energy) cost.
pub fn check_learn(outcome: &LearnOutcome) -> Result<(), String> {
    let row = |name: &str| {
        outcome
            .leaderboard
            .iter()
            .find(|c| c.name == name)
            .map(coolair_learn::Contender::reward)
            .ok_or_else(|| format!("leaderboard has no {name}"))
    };
    let (best, random) = (row(&outcome.best_learned)?, row("random")?);
    if best.better_than(&random) {
        Ok(())
    } else {
        Err(format!(
            "best learned {} ({:?}) does not beat random ({random:?})",
            outcome.best_learned, best
        ))
    }
}

/// Every sweep location ran, and CoolAir's mean yearly maximum range is
/// below the baseline's.
pub fn check_sweep(report: &SweepReport) -> Result<(), String> {
    if let Some((name, e)) = report.failures.first() {
        return Err(format!("sweep failed at {name}: {e}"));
    }
    if report.points.is_empty() {
        return Err("sweep produced no point".to_string());
    }
    let n = report.points.len() as f64;
    let coolair = report
        .points
        .iter()
        .map(|p| p.coolair_max_range)
        .sum::<f64>()
        / n;
    let baseline = report
        .points
        .iter()
        .map(|p| p.baseline_max_range)
        .sum::<f64>()
        / n;
    if coolair < baseline {
        Ok(())
    } else {
        Err(format!(
            "mean max range {coolair:.2} °C not below baseline {baseline:.2} °C"
        ))
    }
}

/// The traced pass's per-layer metrics, from the spans, the executor's
/// progress and the campaign bus's memo counters: `rounds` are the traced
/// rounds, `reference_s` the untraced reference rounds' total.
fn traced_layers(
    args: &RunArgs,
    tracer: &Tracer,
    telemetry: &Telemetry,
    rounds: &[RoundStats],
    reference_s: f64,
    report: &mut Report,
) {
    let spans = tracer.spans();
    crate::write_spans("campaigns", args.seed, &spans);
    let metrics = telemetry.metrics();
    let n = rounds.len() as f64;
    let mut l = Layers::new(&spans);
    let sum = |f: &dyn Fn(&RoundStats) -> u64| rounds.iter().map(f).sum::<u64>() as f64 / n;
    l.set("runner.jobs_done", sum(&|r| r.jobs_done));
    l.set("runner.jobs_failed", sum(&|r| r.jobs_failed));
    l.set("runner.resumed", sum(&|r| r.resumed));
    l.set("runner.resume_ms", l.mean_ms("runner.resume"));
    l.set("store.put_us", l.mean_us("store.put"));
    l.set("store.get_us", l.mean_us("store.get"));
    l.set("store.bytes", sum(&|r| r.store_bytes));
    for (name, metric) in [
        ("sweep", "sweep.ms"),
        ("fleet", "fleet.ms"),
        ("tune", "tune.ms"),
        ("learn", "learn.ms"),
    ] {
        l.set(metric, l.mean_ms(name));
    }
    l.set("fleet.lanes", sum(&|r| r.lanes));
    let memo = |kind: &str| {
        let (hit, miss) = (
            metrics.counter(&format!("{kind}.memo.hit")),
            metrics.counter(&format!("{kind}.memo.miss")),
        );
        ratio(hit, hit + miss)
    };
    l.set("tune.memo_hit_ratio", memo("tune"));
    l.set("learn.memo_hit_ratio", memo("learn"));
    l.set("learn.rollouts", sum(&|r| r.rollouts));

    l.share(
        "self.runner_pct",
        l.total_ns("runner.open") + l.total_ns("runner.resume"),
    );
    l.share(
        "self.store_pct",
        l.total_ns("store.put") + l.total_ns("store.get"),
    );
    for (name, share) in [
        ("sweep", "self.sweep_pct"),
        ("fleet", "self.fleet_pct"),
        ("tune", "self.tune_pct"),
        ("learn", "self.learn_pct"),
    ] {
        l.share(share, l.total_ns(name));
    }
    let resumed: u64 = [
        "resumed.sweep",
        "resumed.fleet",
        "resumed.tune",
        "resumed.learn",
    ]
    .iter()
    .map(|n| l.total_ns(n))
    .sum();
    l.share("self.resumed_pct", resumed);
    let traced_s: f64 = rounds.iter().map(|r| r.campaign_s).sum();
    l.finish(report, reference_s, traced_s);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn seeds_order_one_fixed_sweep_shard_and_the_specs_validate() {
        let a = Specs::for_seed(1);
        assert_eq!(a.sites.len(), SWEEP_GRID / SWEEP_SHARDS);
        assert!(a.validate().is_ok());
        let names = |s: &Specs| {
            let mut v: Vec<String> = s.sites.iter().map(|l| l.name().to_string()).collect();
            v.sort();
            v
        };
        assert_eq!(a.sites, Specs::for_seed(1).sites);
        assert!((0..8).all(|seed| names(&Specs::for_seed(seed)) == names(&a)));
        assert!((0..8).any(|seed| Specs::for_seed(seed).sites != a.sites));
        assert_eq!(a.fleet.digest(), Specs::for_seed(2).fleet.digest());
    }

    /// Real outcomes of small campaigns pass every check; each check
    /// rejects a deliberately corrupted copy.
    #[test]
    fn campaign_checks_accept_real_outcomes_and_reject_corrupted_ones() {
        let telemetry = Telemetry::disabled();
        let exec = Executor::in_memory(THREADS, telemetry.clone());
        let specs = Specs {
            fleet: FleetSpec::smoke(7),
            ..Specs::for_seed(1)
        };
        let cold = pass(
            &specs,
            &exec,
            &telemetry,
            &Tracer::disabled(),
            0,
            ["a", "b", "c", "d"],
        );

        check_fleet(&specs.fleet, &cold.fleet).unwrap();
        let mut moved = cold.fleet.clone();
        moved.epochs[0].loaded_per_site[0] += 1;
        assert!(check_fleet(&specs.fleet, &moved).is_err());
        let mut over = cold.fleet.clone();
        over.epochs[0].migrated_mwh = over.epochs[0].deferrable_mwh + 1.0;
        assert!(check_fleet(&specs.fleet, &over).is_err());

        check_sweep(&cold.sweep).unwrap();
        let mut flipped = cold.sweep.clone();
        for p in &mut flipped.points {
            std::mem::swap(&mut p.coolair_max_range, &mut p.baseline_max_range);
        }
        assert!(check_sweep(&flipped).is_err());
        let mut failed = cold.sweep.clone();
        failed.failures.push(("Nowhere".into(), "boom".into()));
        assert!(check_sweep(&failed).is_err());

        check_tune(&cold.tune).unwrap();
        let mut worse = cold.tune.clone();
        worse.robust_worst_violation = worse.nominal_worst_violation + 1.0;
        assert!(check_tune(&worse).is_err());
        check_learn(&cold.learn).unwrap();
        let mut lost = cold.learn.clone();
        let best = lost.best_learned.clone();
        for c in lost.leaderboard.iter_mut().filter(|c| c.name == best) {
            c.violation_cmin += 1e6;
        }
        assert!(check_learn(&lost).is_err());
        let mut unnamed = cold.learn.clone();
        unnamed.leaderboard.retain(|c| c.name != "random");
        assert!(check_learn(&unnamed).is_err());

        let good = RoundOut {
            read_back: cold.bytes()[2..].to_vec(),
            resumed: cold.clone(),
            cold,
            cold_progress: ProgressSnapshot::default(),
            resumed_progress: ProgressSnapshot {
                resumed: 9,
                ..ProgressSnapshot::default()
            },
            campaign_s: 1.0,
            store_bytes: 1,
        };
        check_resumed(&good).unwrap();
        check_read_back(&good).unwrap();
        let executed = RoundOut {
            resumed_progress: ProgressSnapshot {
                done: 1,
                resumed: 8,
                ..good.resumed_progress
            },
            ..clone_round(&good)
        };
        assert!(check_resumed(&executed).is_err());
        let mut drifted = clone_round(&good);
        drifted.resumed.tune.rounds_run += 1;
        assert!(check_resumed(&drifted).is_err());
        let mut unread = clone_round(&good);
        unread.read_back[1] = "<missing artifact>".into();
        assert!(check_read_back(&unread).is_err());
    }

    fn clone_round(r: &RoundOut) -> RoundOut {
        RoundOut {
            cold: r.cold.clone(),
            resumed: r.resumed.clone(),
            read_back: r.read_back.clone(),
            cold_progress: r.cold_progress,
            resumed_progress: r.resumed_progress,
            campaign_s: r.campaign_s,
            store_bytes: r.store_bytes,
        }
    }
}
