//! Command implementations for the `coolair` CLI.
//!
//! The binary (`src/main.rs`) is a thin argument parser over these
//! functions, which are kept in a library so the command logic is unit
//! testable. Each command returns its report as a `String` (the binary
//! prints it), and errors are plain messages.

#![warn(missing_docs)]

pub mod reporter;

use std::fmt::Write as _;

use coolair::{train_cooling_model, CoolingModel, TrainingConfig, Version};
use coolair_fleet::{fleet_lane_jobs, FleetOutcome, FleetSpec};
use coolair_learn::{LearnOutcome, LearnSpec};
use coolair_runner::{run_campaign, Campaign, Executor, ExecutorConfig};
use coolair_sim::jobs::KIND_COOLING_MODEL;
use coolair_sim::{
    disk_reliability, model_error_cdfs, run_annual_with_model, run_days_traced, sweep_locations,
    sweep_one, train_for_location, AnnualConfig, FaultPlan, FaultRates, ReliabilityParams,
    SystemSpec,
};
use coolair_telemetry::{Telemetry, TraceRecord};
use coolair_tune::{TuneOutcome, TuneSpec};
use coolair_weather::{shard_locations, world_locations, Location, TmySeries, WorldGrid};
use coolair_workload::TraceKind;

use reporter::Table;

/// A CLI-level error: a message for the user.
pub type CliError = String;

/// One registered campaign kind, as the CLI drives it.
struct CliKind {
    name: &'static str,
    command: fn(&[String]) -> Result<String, CliError>,
    render: fn(&str) -> Option<String>,
}

/// A registered campaign's [`CliKind`], for
/// [`coolair_serve::campaign_registry`].
macro_rules! cli_kind {
    ($spec:ty) => {
        CliKind {
            name: <$spec as Campaign>::NAME,
            command: campaign_command::<$spec>,
            render: render_outcome::<$spec>,
        }
    };
}

/// Parses a location name.
///
/// # Errors
///
/// Returns an error listing the known locations when `name` is unknown.
pub fn parse_location(name: &str) -> Result<Location, CliError> {
    match name.to_ascii_lowercase().as_str() {
        "newark" => Ok(Location::newark()),
        "chad" => Ok(Location::chad()),
        "santiago" => Ok(Location::santiago()),
        "iceland" => Ok(Location::iceland()),
        "singapore" => Ok(Location::singapore()),
        "phoenix" => Ok(Location::phoenix()),
        "london" => Ok(Location::london()),
        "tokyo" => Ok(Location::tokyo()),
        "sydney" => Ok(Location::sydney()),
        "moscow" => Ok(Location::moscow()),
        "nairobi" => Ok(Location::nairobi()),
        other => Err(format!(
            "unknown location '{other}' (known: newark, chad, santiago, iceland, singapore, \
             phoenix, london, tokyo, sydney, moscow, nairobi)"
        )),
    }
}

/// Parses a system name. A `+sv` suffix (e.g. `allnd+sv`) wraps the CoolAir
/// version in the degraded-mode supervisor.
///
/// # Errors
///
/// Returns an error listing the known systems when `name` is unknown.
pub fn parse_system(name: &str) -> Result<SystemSpec, CliError> {
    let lower = name.to_ascii_lowercase();
    if let Some(base) = lower.strip_suffix("+sv") {
        return match parse_system(base)? {
            SystemSpec::CoolAir(v) => Ok(SystemSpec::Supervised(v)),
            _ => Err(format!("'{name}': only CoolAir versions can be supervised")),
        };
    }
    match lower.as_str() {
        "baseline" => Ok(SystemSpec::Baseline),
        "temperature" => Ok(SystemSpec::CoolAir(Version::Temperature)),
        "variation" => Ok(SystemSpec::CoolAir(Version::Variation)),
        "energy" => Ok(SystemSpec::CoolAir(Version::Energy)),
        "allnd" | "all-nd" => Ok(SystemSpec::CoolAir(Version::AllNd)),
        "alldef" | "all-def" => Ok(SystemSpec::CoolAir(Version::AllDef)),
        "energydef" | "energy-def" => Ok(SystemSpec::CoolAir(Version::EnergyDef)),
        other => Err(format!(
            "unknown system '{other}' (known: baseline, temperature, variation, energy, allnd, alldef, energydef; append +sv for the supervised variant)"
        )),
    }
}

/// Parses a trace name.
///
/// # Errors
///
/// Returns an error when `name` is neither `facebook` nor `nutch`.
pub fn parse_trace(name: &str) -> Result<TraceKind, CliError> {
    match name.to_ascii_lowercase().as_str() {
        "facebook" | "fb" => Ok(TraceKind::Facebook),
        "nutch" => Ok(TraceKind::Nutch),
        other => Err(format!("unknown trace '{other}' (known: facebook, nutch)")),
    }
}

/// `coolair locations` — list the built-in study locations and a sample of
/// the world grid.
#[must_use]
pub fn cmd_locations() -> String {
    let mut out = String::new();
    let _ = writeln!(out, "{:<12} {:>8} {:>9} {:>10} {:>10}", "name", "lat", "lon", "mean °C", "season ±");
    for l in Location::extended_set() {
        let c = l.climate();
        let _ = writeln!(
            out,
            "{:<12} {:>8.1} {:>9.1} {:>10.1} {:>10.1}",
            l.name(),
            l.latitude(),
            l.longitude(),
            c.mean_temp,
            c.seasonal_amplitude
        );
    }
    let grid = WorldGrid::generate();
    let _ = writeln!(out, "\nworld grid: {} locations (use `coolair compare`)", grid.len());
    out
}

/// `coolair train` — run the §4.2 data-collection campaign and save the
/// learned Cooling Model as JSON.
///
/// # Errors
///
/// Propagates location parsing and file I/O errors.
pub fn cmd_train(location: &str, days: u64, out_path: &str) -> Result<String, CliError> {
    let location = parse_location(location)?;
    let tmy = TmySeries::generate(&location, 42);
    let model = train_cooling_model(&tmy, &TrainingConfig { days, ..TrainingConfig::default() });
    let json = serde_json::to_vec_pretty(&model).map_err(|e| format!("serialise model: {e}"))?;
    std::fs::write(out_path, &json).map_err(|e| format!("write {out_path}: {e}"))?;
    Ok(format!(
        "trained on {days} days at {}: {} regime/transition models, ranking {:?}\nsaved to {out_path} ({} bytes)",
        location.name(),
        model.keys().count(),
        model.recirc_ranking(),
        json.len()
    ))
}

/// Loads a model saved by [`cmd_train`].
///
/// # Errors
///
/// Propagates file and JSON errors.
pub fn load_model(path: &str) -> Result<CoolingModel, CliError> {
    let bytes = std::fs::read(path).map_err(|e| format!("read {path}: {e}"))?;
    serde_json::from_slice(&bytes).map_err(|e| format!("parse {path}: {e}"))
}

/// `coolair annual` — run one system for a (sub-sampled) year and print the
/// summary.
///
/// # Errors
///
/// Propagates parsing errors.
pub fn cmd_annual(
    location: &str,
    system: &str,
    trace: &str,
    stride: u64,
    model_path: Option<&str>,
) -> Result<String, CliError> {
    let location = parse_location(location)?;
    let system = parse_system(system)?;
    let trace = parse_trace(trace)?;
    let mut cfg = AnnualConfig { stride: stride.max(1), ..AnnualConfig::default() };
    if let SystemSpec::CoolAir(v) | SystemSpec::Supervised(v) = &system {
        cfg.deferrable = v.is_deferrable();
    }
    let model = match (&system, model_path) {
        (SystemSpec::Baseline | SystemSpec::BaselineWithSetpoint(_), _) => None,
        (_, Some(path)) => Some(load_model(path)?),
        (_, None) => Some(train_for_location(&location, &cfg)),
    };
    let summary = run_annual_with_model(&system, &location, trace, &cfg, model);
    let reliability = disk_reliability(&summary, &ReliabilityParams::default());

    let mut out = String::new();
    let _ = writeln!(out, "{} @ {} ({} sampled days)", system.name(), location.name(), summary.len());
    let _ = writeln!(out, "  avg violation        {:>8.3} °C", summary.avg_violation());
    let _ = writeln!(
        out,
        "  daily range          {:>8.1} °C avg  [{:.1} .. {:.1}]",
        summary.avg_worst_range(),
        summary.min_worst_range(),
        summary.max_worst_range()
    );
    let _ = writeln!(out, "  PUE                  {:>8.3}", summary.pue());
    let _ = writeln!(
        out,
        "  energy               {:>8.1} kWh cooling / {:.1} kWh IT",
        summary.cooling_kwh(),
        summary.it_kwh()
    );
    let _ = writeln!(out, "  max rate observed    {:>8.1} °C/h", summary.max_rate());
    let _ = writeln!(out, "  jobs completed       {:>8}", summary.jobs_completed());
    let _ = writeln!(
        out,
        "  disk failure factor  {:>8.2}x (Arrhenius {:.2} × variation {:.2})",
        reliability.combined_factor,
        reliability.arrhenius_factor,
        reliability.variation_factor
    );
    if matches!(system, SystemSpec::Supervised(_)) {
        let _ = writeln!(
            out,
            "  supervisor           {:>8} min degraded / {} min failsafe / {} transitions",
            summary.degraded_minutes(),
            summary.failsafe_minutes(),
            summary.fallback_transitions()
        );
    }
    Ok(out)
}

/// `coolair faults` — the resilience experiment: Baseline vs All-ND vs
/// supervised All-ND under a seeded fault plan at one severity. Renders
/// through the shared [`reporter::Table`], the same output path every other
/// report uses.
///
/// # Errors
///
/// Propagates parsing errors.
pub fn cmd_faults(location: &str, seed: u64, severity: f64, stride: u64) -> Result<String, CliError> {
    let location = parse_location(location)?;
    let cfg = AnnualConfig { stride: stride.max(1), ..AnnualConfig::default() };
    let plan = FaultPlan::random(seed, &FaultRates::scaled(severity), &cfg.sampled_days(), 4);
    let windows = plan.windows().len();
    let cfg = AnnualConfig { faults: plan, ..cfg };
    let model = train_for_location(&location, &cfg);

    let mut out = String::new();
    let _ = writeln!(
        out,
        "fault drill @ {} (seed {seed}, severity {severity}, {windows} fault windows, {} sampled days)",
        location.name(),
        cfg.sampled_days().len()
    );
    let mut table = Table::new(&[
        "system",
        "violation °C·min",
        "PUE",
        "fault min",
        "degraded min",
        "failsafe min",
    ]);
    for system in [
        SystemSpec::Baseline,
        SystemSpec::CoolAir(Version::AllNd),
        SystemSpec::Supervised(Version::AllNd),
    ] {
        let m = (!matches!(system, SystemSpec::Baseline)).then(|| model.clone());
        let s = run_annual_with_model(&system, &location, TraceKind::Facebook, &cfg, m);
        table.row(&[
            system.name(),
            format!("{:.0}", s.total_violation()),
            format!("{:.3}", s.pue()),
            s.fault_minutes().to_string(),
            s.degraded_minutes().to_string(),
            s.failsafe_minutes().to_string(),
        ]);
    }
    out.push_str(&table.render());
    Ok(out)
}

/// `coolair run` — simulate one or more specific calendar days with the
/// telemetry bus attached, optionally streaming the event trace as JSONL.
///
/// # Errors
///
/// Propagates parsing and file I/O errors.
pub fn cmd_run(
    location: &str,
    system: &str,
    trace_kind: &str,
    day: u64,
    num_days: u64,
    trace_path: Option<&str>,
) -> Result<String, CliError> {
    let location = parse_location(location)?;
    let system = parse_system(system)?;
    let trace_kind = parse_trace(trace_kind)?;
    // One traced day should not require a 45-day training campaign first.
    let mut cfg = AnnualConfig { training: TrainingConfig::quick(), ..AnnualConfig::default() };
    if let SystemSpec::CoolAir(v) | SystemSpec::Supervised(v) = &system {
        cfg.deferrable = v.is_deferrable();
    }
    let model = match &system {
        SystemSpec::Baseline | SystemSpec::BaselineWithSetpoint(_) => None,
        _ => Some(train_for_location(&location, &cfg)),
    };
    let telemetry = match trace_path {
        Some(path) => {
            let file = std::fs::File::create(path).map_err(|e| format!("create {path}: {e}"))?;
            Telemetry::writer(std::io::BufWriter::new(file))
        }
        None => Telemetry::discard(),
    };
    let days: Vec<u64> = (0..num_days.max(1)).map(|i| (day + i) % 365).collect();
    let summary =
        run_days_traced(&system, &location, trace_kind, &cfg, model, &days, telemetry.clone());
    telemetry.finish();

    let mut out = String::new();
    let _ = writeln!(
        out,
        "{} @ {}: {} day(s) from day {day}",
        system.name(),
        location.name(),
        days.len()
    );
    let _ = writeln!(
        out,
        "  violation {:.0} °C·min, PUE {:.3}, {:.1} kWh cooling / {:.1} kWh IT",
        summary.total_violation(),
        summary.pue(),
        summary.cooling_kwh(),
        summary.it_kwh()
    );
    out.push_str(&reporter::render_scalar_metrics(&telemetry.metrics()));
    let profile = reporter::render_profile(&telemetry.profile());
    if !profile.is_empty() {
        out.push_str(&profile);
    }
    if let Some(path) = trace_path {
        let _ = writeln!(out, "trace written to {path} (render with `coolair report {path}`)");
    }
    Ok(out)
}

/// A report-path failure that keeps the *missing* / *corrupt* distinction
/// a service or script needs: a missing trace is the caller's mistake
/// (exit [`EXIT_NOT_FOUND`], HTTP 404), a corrupt one is the producer's
/// (exit [`EXIT_CORRUPT`], HTTP 500).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ReportError {
    /// The trace file does not exist.
    Missing(String),
    /// The trace file exists but cannot be read or parsed.
    Corrupt(String),
}

/// Exit code when a requested input file does not exist.
pub const EXIT_NOT_FOUND: u8 = 2;
/// Exit code when a requested input file exists but is corrupt.
pub const EXIT_CORRUPT: u8 = 3;

impl ReportError {
    /// The process exit code this error maps to.
    #[must_use]
    pub fn exit_code(&self) -> u8 {
        match self {
            ReportError::Missing(_) => EXIT_NOT_FOUND,
            ReportError::Corrupt(_) => EXIT_CORRUPT,
        }
    }

    /// The user-facing message.
    #[must_use]
    pub fn message(&self) -> &str {
        match self {
            ReportError::Missing(m) | ReportError::Corrupt(m) => m,
        }
    }
}

/// `coolair report` — render a run summary from a `.jsonl` trace file
/// written by `run --trace` (event counts, timeline, histograms, profile),
/// or the report of a campaign outcome written by `tune|fleet|learn
/// --out`.
///
/// # Errors
///
/// [`ReportError::Missing`] when the trace file does not exist;
/// [`ReportError::Corrupt`] for unreadable files, malformed trace lines,
/// and empty traces.
pub fn cmd_report(path: &str) -> Result<String, ReportError> {
    let text = std::fs::read_to_string(path).map_err(|e| {
        if e.kind() == std::io::ErrorKind::NotFound {
            ReportError::Missing(format!("{path}: no such trace file"))
        } else {
            ReportError::Corrupt(format!("read {path}: {e}"))
        }
    })?;
    // A campaign outcome (`--out`, or a fetched `*-report` artifact) is one
    // pretty-printed JSON document spanning many lines, so it can never
    // parse as a JSONL trace — try every registered kind first.
    let kinds = coolair_serve::campaign_registry!(cli_kind);
    if let Some(report) = kinds.iter().find_map(|kind| (kind.render)(&text)) {
        return Ok(report);
    }
    let mut records: Vec<TraceRecord> = Vec::new();
    for (i, line) in text.lines().enumerate() {
        if line.trim().is_empty() {
            continue;
        }
        let record = serde_json::from_str(line)
            .map_err(|e| ReportError::Corrupt(format!("{path}:{}: bad trace record: {e}", i + 1)))?;
        records.push(record);
    }
    if records.is_empty() {
        return Err(ReportError::Corrupt(format!("{path}: empty trace")));
    }
    Ok(reporter::render_records(&records))
}

/// Arguments for `coolair serve`.
#[derive(Debug, Clone)]
pub struct ServeArgs {
    /// Bind address (port 0 picks a free port).
    pub addr: String,
    /// Job worker threads.
    pub threads: usize,
    /// Work-queue bound (submissions beyond it get `503 Retry-After`).
    pub queue_depth: usize,
    /// Concurrent-connection bound.
    pub max_connections: usize,
    /// Epoll event loops / listener shards (0 → sized to the machine).
    pub event_loops: usize,
    /// Artifact store + journal directory; in-memory when absent.
    pub store: Option<String>,
}

impl Default for ServeArgs {
    fn default() -> Self {
        let cfg = coolair_serve::ServeConfig::default();
        ServeArgs {
            addr: cfg.addr,
            threads: cfg.job_threads,
            queue_depth: cfg.queue_depth,
            max_connections: cfg.max_connections,
            event_loops: cfg.event_loops,
            store: None,
        }
    }
}

/// `coolair serve` — run the control-plane daemon until drained.
///
/// Blocks the calling thread; prints the bound address up front (the
/// caller may pass port 0) and returns a drain summary after
/// `POST /shutdown` completes.
///
/// # Errors
///
/// Bind and store I/O failures, and accept-loop errors.
pub fn cmd_serve(args: &ServeArgs) -> Result<String, CliError> {
    let cfg = coolair_serve::ServeConfig {
        addr: args.addr.clone(),
        job_threads: args.threads.max(1),
        queue_depth: args.queue_depth.max(1),
        max_connections: args.max_connections.max(1),
        event_loops: args.event_loops,
        store_dir: args.store.clone().map(std::path::PathBuf::from),
        ..coolair_serve::ServeConfig::default()
    };
    // Discard events but keep the metrics registry: a long-running daemon
    // must not buffer an unbounded event log in memory.
    let telemetry = Telemetry::discard();
    let server = coolair_serve::Server::bind(cfg, telemetry.clone())
        .map_err(|e| format!("bind {}: {e}", args.addr))?;
    let local = server.local_addr().map_err(|e| format!("local addr: {e}"))?;
    println!("coolair-serve listening on http://{local}");
    server.run().map_err(|e| format!("serve: {e}"))?;
    let metrics = telemetry.metrics();
    let requests: u64 = metrics
        .snapshot()
        .filter(|s| s.name.starts_with("serve.requests{"))
        .map(|s| match s.value {
            coolair_telemetry::MetricValue::Counter(v) => v,
            _ => 0,
        })
        .sum();
    Ok(format!("drained cleanly after {requests} requests\n"))
}

/// `coolair validate` — held-out model accuracy (the Figure 5 gates).
///
/// # Errors
///
/// Propagates parsing errors.
pub fn cmd_validate(location: &str, model_path: Option<&str>) -> Result<String, CliError> {
    let location = parse_location(location)?;
    let tmy = TmySeries::generate(&location, 42);
    let model = match model_path {
        Some(path) => load_model(path)?,
        None => train_cooling_model(&tmy, &TrainingConfig::default()),
    };
    let report = model_error_cdfs(&model, &tmy, &[121, 171], 9);
    let mut out = String::new();
    let _ = writeln!(out, "held-out model accuracy at {} (days 121, 171):", location.name());
    let _ = writeln!(
        out,
        "  2-min  within 1°C: {:>5.1}% (no transitions: {:.1}%)",
        report.two_min.fraction_within(1.0) * 100.0,
        report.two_min_no_transition.fraction_within(1.0) * 100.0
    );
    let _ = writeln!(
        out,
        "  10-min within 1°C: {:>5.1}% (no transitions: {:.1}%)",
        report.ten_min.fraction_within(1.0) * 100.0,
        report.ten_min_no_transition.fraction_within(1.0) * 100.0
    );
    let _ = writeln!(
        out,
        "  humidity within 5%RH: {:>5.1}%",
        report.humidity.fraction_within(5.0) * 100.0
    );
    Ok(out)
}

/// `coolair compare` — baseline vs All-ND at one of the world-grid or named
/// locations (one row of the Figure 12/13 sweep).
///
/// # Errors
///
/// Propagates parsing errors.
pub fn cmd_compare(location: &str, stride: u64) -> Result<String, CliError> {
    let location = parse_location(location)?;
    let cfg = AnnualConfig { stride: stride.max(1), ..AnnualConfig::default() };
    let point = sweep_one(&location, &cfg);
    Ok(format!(
        "{}: max daily range {:.1} -> {:.1} °C ({:+.1}), PUE {:.3} -> {:.3} ({:+.3})",
        location.name(),
        point.baseline_max_range,
        point.coolair_max_range,
        -point.range_reduction(),
        point.baseline_pue,
        point.coolair_pue,
        -point.pue_reduction(),
    ))
}

/// Arguments of `coolair sweep`.
#[derive(Debug, Clone)]
pub struct SweepArgs {
    /// World-grid size (the paper's full sweep is 1520).
    pub locations: usize,
    /// Day stride of the annual sub-sampling.
    pub stride: u64,
    /// Training-campaign length per location, days.
    pub training_days: u64,
    /// Worker threads (0 → available parallelism).
    pub threads: usize,
    /// Store directory for the artifact cache and journal; `None` runs in
    /// memory (no caching, no resume).
    pub store: Option<String>,
    /// Replay the store's journal instead of starting a fresh one.
    pub resume: bool,
    /// `(k, n)`: run only the k-th of n interleaved grid shards (1-based).
    pub shard: Option<(usize, usize)>,
    /// Write the merged `WorldPoint` list to this path as pretty JSON.
    pub out: Option<String>,
}

impl Default for SweepArgs {
    fn default() -> Self {
        SweepArgs {
            locations: 60,
            stride: 60,
            training_days: 10,
            threads: 0,
            store: None,
            resume: false,
            shard: None,
            out: None,
        }
    }
}

/// Parses a `--shard k/n` value (1-based, e.g. `2/4`).
///
/// # Errors
///
/// Returns an error unless `1 <= k <= n`.
pub fn parse_shard(value: &str) -> Result<(usize, usize), CliError> {
    let err = || format!("--shard wants k/n with 1 <= k <= n, got '{value}'");
    let (k, n) = value.split_once('/').ok_or_else(err)?;
    let k: usize = k.trim().parse().map_err(|_| err())?;
    let n: usize = n.trim().parse().map_err(|_| err())?;
    if k >= 1 && k <= n {
        Ok((k, n))
    } else {
        Err(err())
    }
}

/// `coolair sweep` — the Figure 12/13 world sweep on the `coolair-runner`
/// executor: resumable via `--store`/`--resume`, shardable across machines
/// via `--shard k/n`, with queue-style progress output.
///
/// # Errors
///
/// Propagates store I/O errors, and reports failed shards as an error
/// after printing the partial report.
pub fn cmd_sweep(args: &SweepArgs) -> Result<String, CliError> {
    let annual = AnnualConfig {
        stride: args.stride.max(1),
        training: TrainingConfig { days: args.training_days.max(1), ..TrainingConfig::default() },
        ..AnnualConfig::default()
    };
    let grid = world_locations(args.locations);
    let (k, n) = args.shard.unwrap_or((1, 1));
    let selected = shard_locations(&grid, k, n);

    let telemetry = Telemetry::discard();
    let exec = open_executor(args.threads, args.store.as_ref(), args.resume, &telemetry)?;

    let started = std::time::Instant::now();
    let report = sweep_locations(&selected, &annual, &exec);
    let elapsed = started.elapsed();

    let mut out = String::new();
    let _ = writeln!(
        out,
        "sweep: {} of {} grid locations (shard {k}/{n}), stride {}, {} training days, {} threads",
        selected.len(),
        grid.len(),
        annual.stride,
        annual.training.days,
        exec.threads()
    );
    out.push_str(&reporter::render_progress(&exec.progress()));
    let trained = telemetry.metrics().counter(&format!("runner.run.{KIND_COOLING_MODEL}"));
    let _ = writeln!(out, "training jobs executed: {trained}");
    let _ = writeln!(out, "wall clock: {:.2} s", elapsed.as_secs_f64());

    if let Some(path) = &args.out {
        let json = serde_json::to_vec_pretty(&report.points)
            .map_err(|e| format!("serialise points: {e}"))?;
        std::fs::write(path, &json).map_err(|e| format!("write {path}: {e}"))?;
        let _ = writeln!(out, "{} points written to {path}", report.points.len());
    }

    if report.failures.is_empty() {
        Ok(out)
    } else {
        let _ = writeln!(out, "\nfailed locations:");
        for (name, error) in &report.failures {
            let _ = writeln!(out, "  {name}: {error}");
        }
        Err(out)
    }
}

/// The spec seed campaign subcommands use when `--seed` is absent.
const DEFAULT_CAMPAIGN_SEED: u64 = 7;

/// Flags shared by every campaign subcommand (`coolair tune`, `fleet`,
/// `learn`, ...).
#[derive(Debug, Clone, Default)]
pub struct CampaignArgs {
    /// Worker threads (0 → available parallelism).
    pub threads: usize,
    /// Store directory for memoized evaluations and the report artifact;
    /// `None` runs in memory (no caching, no resume).
    pub store: Option<String>,
    /// Replay the store's journal instead of starting a fresh one.
    pub resume: bool,
    /// Write the full outcome to this path as pretty JSON (renderable
    /// later with `coolair report`).
    pub out: Option<String>,
}

impl CampaignArgs {
    /// Reads `--threads`, `--store`, `--resume` and `--out`.
    fn from_flags(flags: &Flags) -> Result<Self, CliError> {
        Ok(CampaignArgs {
            threads: flag(flags, "threads")?.unwrap_or(0),
            store: flags.get("store").cloned(),
            resume: flags.contains_key("resume"),
            out: flags.get("out").cloned(),
        })
    }
}

/// Opens an executor, store-backed when `store` is given.
fn open_executor(
    threads: usize,
    store: Option<&String>,
    resume: bool,
    telemetry: &Telemetry,
) -> Result<Executor, CliError> {
    Executor::new(ExecutorConfig {
        threads,
        store_dir: store.map(std::path::PathBuf::from),
        resume,
        telemetry: telemetry.clone(),
        ..ExecutorConfig::default()
    })
    .map_err(|e| format!("open store: {e}"))
}

/// The CLI's side of a registered campaign kind: the flags that build its
/// spec and the renderer of its outcome ([`cmd_campaign`] does the rest).
pub trait CliCampaign: Campaign {
    /// Builds the spec: the shipped (or, with `--smoke`, the smoke) preset
    /// at `seed`, adjusted by the kind's own flags.
    ///
    /// # Errors
    ///
    /// Malformed flag values.
    fn from_flags(seed: u64, smoke: bool, flags: &Flags) -> Result<Self, CliError>;

    /// Renders an outcome: the subcommand's report, and what
    /// `coolair report` prints for a saved outcome.
    fn render(outcome: &Self::Outcome) -> String;

    /// Runs the subcommand; kinds with an extra mode (fleet's `--shard`
    /// warm-up) override it.
    ///
    /// # Errors
    ///
    /// As [`cmd_campaign`].
    fn command(&self, args: &CampaignArgs, _flags: &Flags) -> Result<String, CliError> {
        cmd_campaign(self, args)
    }
}

impl CliCampaign for TuneSpec {
    fn from_flags(seed: u64, smoke: bool, flags: &Flags) -> Result<Self, CliError> {
        let mut spec = if smoke { TuneSpec::smoke(seed) } else { TuneSpec::shipped(seed) };
        if let Some(rounds) = flag::<usize>(flags, "rounds")? {
            spec.rounds = rounds.max(1);
        }
        if let Some(iters) = flag::<usize>(flags, "iters")? {
            spec.iters = iters.max(1);
        }
        Ok(spec)
    }

    fn render(outcome: &TuneOutcome) -> String {
        reporter::render_tune(outcome)
    }
}

impl CliCampaign for FleetSpec {
    fn from_flags(seed: u64, smoke: bool, flags: &Flags) -> Result<Self, CliError> {
        let mut spec = if smoke { FleetSpec::smoke(seed) } else { FleetSpec::shipped(seed) };
        if let Some(containers) = flag(flags, "containers")? {
            spec.containers = containers;
        }
        if let Some(sites) = flags.get("sites") {
            spec.sites = parse_sites(sites)?;
        }
        if let Some(epochs) = flag(flags, "epochs")? {
            spec.epochs = epochs;
        }
        Ok(spec)
    }

    fn render(outcome: &FleetOutcome) -> String {
        reporter::render_fleet(outcome)
    }

    fn command(&self, args: &CampaignArgs, flags: &Flags) -> Result<String, CliError> {
        match flags.get("shard").map(|v| parse_shard(v)).transpose()? {
            Some(shard) => cmd_fleet_shard(self, args, shard),
            None => cmd_campaign(self, args),
        }
    }
}

impl CliCampaign for LearnSpec {
    fn from_flags(seed: u64, smoke: bool, _flags: &Flags) -> Result<Self, CliError> {
        Ok(if smoke { LearnSpec::smoke(seed) } else { LearnSpec::shipped(seed) })
    }

    fn render(outcome: &LearnOutcome) -> String {
        reporter::render_learn(outcome)
    }
}

/// `coolair tune|fleet|learn` — runs one campaign and prints its report
/// plus memo, store-cache and wall-clock lines. The report artifact lands
/// in `--store`, where every evaluation is memoized, so `--resume` replays
/// a killed run byte-identically; `--out` gets the outcome as JSON.
///
/// # Errors
///
/// An invalid spec, a failed run, and store or output-file I/O errors.
pub fn cmd_campaign<C: CliCampaign>(spec: &C, args: &CampaignArgs) -> Result<String, CliError> {
    spec.validate().map_err(|e| format!("invalid {} spec: {e}", C::NAME))?;
    let telemetry = Telemetry::discard();
    let exec = open_executor(args.threads, args.store.as_ref(), args.resume, &telemetry)?;
    let started = std::time::Instant::now();
    let outcome = run_campaign(spec, &exec, &telemetry)?;
    let elapsed = started.elapsed();
    if let Some(path) = &args.out {
        let json = serde_json::to_vec_pretty(&outcome)
            .map_err(|e| format!("serialise {} outcome: {e}", C::NAME))?;
        std::fs::write(path, &json).map_err(|e| format!("write {path}: {e}"))?;
    }

    let mut out = C::render(&outcome);
    let metrics = telemetry.metrics();
    let hits = metrics.counter(&format!("{}.memo.hit", C::NAME));
    let misses = metrics.counter(&format!("{}.memo.miss", C::NAME));
    if hits + misses > 0 {
        let _ = writeln!(out, "memo: {hits} hits / {misses} misses in-process");
    }
    let _ = writeln!(out, "store cache hits: {}", metrics.counter("runner.cache-hit"));
    let _ = writeln!(out, "wall clock: {:.2} s", elapsed.as_secs_f64());
    if exec.store().is_some() {
        let _ = writeln!(out, "report artifact: {}/{}", C::REPORT_KIND, spec.digest());
    }
    if let Some(path) = &args.out {
        let _ = writeln!(out, "outcome written to {path} (render with `coolair report {path}`)");
    }
    Ok(out)
}

/// Parses a `--sites` value: either `world:N` (the first N cells of the
/// 1520-location world grid) or a comma-separated list of named locations
/// (e.g. `iceland,newark,phoenix,singapore`).
///
/// # Errors
///
/// Returns an error for malformed specs or unknown location names.
pub fn parse_sites(value: &str) -> Result<Vec<Location>, CliError> {
    if let Some(count) = value.strip_prefix("world:") {
        let count: usize = count
            .trim()
            .parse()
            .map_err(|_| format!("--sites world:N wants a number, got '{value}'"))?;
        if count == 0 {
            return Err("--sites world:N wants N >= 1".to_string());
        }
        return Ok(world_locations(count));
    }
    let sites: Result<Vec<Location>, CliError> =
        value.split(',').map(str::trim).filter(|s| !s.is_empty()).map(parse_location).collect();
    let sites = sites?;
    if sites.is_empty() {
        return Err(format!("--sites wants at least one location, got '{value}'"));
    }
    Ok(sites)
}

/// `coolair fleet --shard k/n` — warm-up mode: prices lane jobs `k/n` of
/// the campaign's job set into the store and skips the report (another
/// shard, or the final unsharded run, aggregates from the cache).
///
/// # Errors
///
/// A missing store, an invalid spec, a failed lane evaluation, and store
/// I/O errors.
pub fn cmd_fleet_shard(
    spec: &FleetSpec,
    args: &CampaignArgs,
    (k, n): (usize, usize),
) -> Result<String, CliError> {
    if args.store.is_none() {
        return Err("--shard needs --store (shards only exist to warm a store)".to_string());
    }
    spec.validate().map_err(|e| format!("invalid fleet spec: {e}"))?;
    let exec =
        open_executor(args.threads, args.store.as_ref(), args.resume, &Telemetry::discard())?;
    let started = std::time::Instant::now();
    let all = fleet_lane_jobs(spec);
    let mine: Vec<_> =
        all.iter().enumerate().filter(|(i, _)| i % n == k - 1).map(|(_, j)| j.clone()).collect();
    for result in exec.run(&mine) {
        if let coolair_runner::JobResult::Failed { error, .. } = result {
            return Err(format!("lane evaluation failed: {error}"));
        }
    }
    let mut out = String::new();
    let _ = writeln!(
        out,
        "fleet shard {k}/{n}: warmed {} of {} lane jobs (spec {})",
        mine.len(),
        all.len(),
        spec.digest()
    );
    out.push_str(&reporter::render_progress(&exec.progress()));
    let _ = writeln!(out, "wall clock: {:.2} s", started.elapsed().as_secs_f64());
    Ok(out)
}

/// Parses a campaign subcommand's flags and runs it.
fn campaign_command<C: CliCampaign>(args: &[String]) -> Result<String, CliError> {
    let flags = parse_flags_with_switches(args, &["resume", "smoke"])?;
    let seed = flag(&flags, "seed")?.unwrap_or(DEFAULT_CAMPAIGN_SEED);
    let spec = C::from_flags(seed, flags.contains_key("smoke"), &flags)?;
    spec.command(&CampaignArgs::from_flags(&flags)?, &flags)
}

/// Renders `text` if it is a saved outcome of campaign kind `C`.
fn render_outcome<C: CliCampaign>(text: &str) -> Option<String> {
    serde_json::from_str::<C::Outcome>(text).ok().map(|outcome| C::render(&outcome))
}

/// `coolair <campaign> [flags]` for the registered campaign kind called
/// `name` (see [`cmd_campaign`]); `None` when no kind has that name.
#[must_use]
pub fn cmd_campaign_named(name: &str, args: &[String]) -> Option<Result<String, CliError>> {
    let kinds = coolair_serve::campaign_registry!(cli_kind);
    kinds.into_iter().find(|kind| kind.name == name).map(|kind| (kind.command)(args))
}

/// Usage text.
#[must_use]
pub fn usage() -> String {
    "coolair — CoolAir reproduction CLI

USAGE:
    coolair locations
    coolair train    --location <name> [--days N] --out <model.json>
    coolair annual   --location <name> --system <name> [--trace facebook|nutch]
                     [--stride N] [--model <model.json>]
    coolair validate --location <name> [--model <model.json>]
    coolair compare  --location <name> [--stride N]
    coolair sweep    [--locations N] [--stride N] [--training-days N] [--threads N]
                     [--store <dir>] [--resume] [--shard k/n] [--out <points.json>]
    coolair faults   --location <name> [--seed N] [--severity X] [--stride N]
    coolair tune     [--seed N] [--smoke] [--rounds N] [--iters N] [--threads N]
                     [--store <dir>] [--resume] [--out <outcome.json>]
    coolair run      [--location <name>] [--system <name>] [--trace-kind facebook|nutch]
                     [--day N] [--days N] [--trace <out.jsonl>]
    coolair fleet    [--seed N] [--smoke] [--containers N] [--sites world:N|a,b,c]
                     [--epochs N] [--threads N] [--store <dir>] [--resume]
                     [--shard k/n] [--out <outcome.json>]
    coolair learn    [--seed N] [--smoke] [--threads N] [--store <dir>] [--resume]
                     [--out <outcome.json>]
    coolair report   <trace.jsonl | tune/fleet/learn outcome.json>
    coolair serve    [--addr host:port] [--threads N] [--queue-depth N]
                     [--max-connections N] [--event-loops N] [--store <dir>]

SYSTEMS: baseline, temperature, variation, energy, allnd, alldef, energydef
         (append +sv for the supervised variant, e.g. allnd+sv)
LOCATIONS: newark, chad, santiago, iceland, singapore
"
    .to_string()
}

/// Parsed `--flag value` pairs (valueless switches map to `"true"`).
pub type Flags = std::collections::HashMap<String, String>;

/// Extracts `--flag value` pairs from an argument list.
///
/// # Errors
///
/// Returns an error for flags without values or unknown positionals.
pub fn parse_flags(args: &[String]) -> Result<Flags, CliError> {
    parse_flags_with_switches(args, &[])
}

/// Parses the value of `--name`, if given.
///
/// # Errors
///
/// A value that does not parse as `T`.
pub fn flag<T: std::str::FromStr>(flags: &Flags, name: &str) -> Result<Option<T>, CliError>
where
    T::Err: std::fmt::Display,
{
    flags.get(name).map(|v| v.parse().map_err(|e| format!("--{name}: {e}"))).transpose()
}

/// Extracts `--flag value` pairs plus valueless `--switch` flags (stored
/// as `"true"`).
///
/// # Errors
///
/// Returns an error for non-switch flags without values or unknown
/// positionals.
pub fn parse_flags_with_switches(args: &[String], switches: &[&str]) -> Result<Flags, CliError> {
    let mut flags = Flags::new();
    let mut i = 0;
    while i < args.len() {
        let a = &args[i];
        if let Some(name) = a.strip_prefix("--") {
            if switches.contains(&name) {
                flags.insert(name.to_string(), "true".to_string());
                i += 1;
            } else {
                let value = args
                    .get(i + 1)
                    .ok_or_else(|| format!("flag --{name} needs a value"))?;
                flags.insert(name.to_string(), value.clone());
                i += 2;
            }
        } else {
            return Err(format!("unexpected argument '{a}'"));
        }
    }
    Ok(flags)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn location_parsing() {
        assert_eq!(parse_location("Newark").unwrap().name(), "Newark");
        assert_eq!(parse_location("SINGAPORE").unwrap().name(), "Singapore");
        assert!(parse_location("atlantis").is_err());
    }

    #[test]
    fn system_parsing() {
        assert_eq!(parse_system("allnd").unwrap().name(), "All-ND");
        assert_eq!(parse_system("All-DEF").unwrap().name(), "All-DEF");
        assert!(parse_system("turbo").is_err());
    }

    #[test]
    fn supervised_system_parsing() {
        assert_eq!(parse_system("allnd+sv").unwrap().name(), "All-ND+SV");
        assert_eq!(parse_system("Variation+SV").unwrap().name(), "Variation+SV");
        assert!(parse_system("baseline+sv").is_err(), "only CoolAir versions are supervisable");
        assert!(parse_system("turbo+sv").is_err());
    }

    #[test]
    fn flag_parsing() {
        let args: Vec<String> =
            ["--location", "newark", "--days", "8"].iter().map(|s| s.to_string()).collect();
        let flags = parse_flags(&args).unwrap();
        assert_eq!(flags["location"], "newark");
        assert_eq!(flags["days"], "8");
        assert!(parse_flags(&["--x".to_string()]).is_err());
        assert!(parse_flags(&["oops".to_string()]).is_err());
    }

    #[test]
    fn switch_flag_parsing() {
        let args: Vec<String> =
            ["--store", "/tmp/s", "--resume", "--threads", "2"].iter().map(|s| s.to_string()).collect();
        let flags = parse_flags_with_switches(&args, &["resume"]).unwrap();
        assert_eq!(flags["store"], "/tmp/s");
        assert_eq!(flags["resume"], "true");
        assert_eq!(flags["threads"], "2");
        // Without the switch declared, --resume still wants a value.
        assert!(parse_flags(&["--resume".to_string()]).is_err());
    }

    #[test]
    fn shard_parsing() {
        assert_eq!(parse_shard("2/4").unwrap(), (2, 4));
        assert_eq!(parse_shard("1/1").unwrap(), (1, 1));
        assert!(parse_shard("0/4").is_err());
        assert!(parse_shard("5/4").is_err());
        assert!(parse_shard("2").is_err());
        assert!(parse_shard("a/b").is_err());
    }

    #[test]
    fn sweep_smoke_reports_progress() {
        let out = cmd_sweep(&SweepArgs {
            locations: 2,
            stride: 120,
            training_days: 2,
            threads: 2,
            ..SweepArgs::default()
        })
        .unwrap();
        assert!(out.contains("2 of 2 grid locations"), "got: {out}");
        assert!(out.contains("training jobs executed: 2"), "got: {out}");
        assert!(out.contains("wall clock"), "got: {out}");
    }

    #[test]
    fn tune_smoke_reports_and_round_trips_through_report() {
        let dir = std::env::temp_dir().join("coolair_cli_tune_test");
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let out_path = dir.join("tune-outcome.json");
        let out = cmd_campaign(
            &TuneSpec::smoke(3),
            &CampaignArgs {
                threads: 2,
                store: Some(dir.join("store").to_string_lossy().into_owned()),
                out: Some(out_path.to_string_lossy().into_owned()),
                ..CampaignArgs::default()
            },
        )
        .unwrap();
        assert!(out.contains("robust tune (seed 3"), "got: {out}");
        assert!(out.contains("worst-case violation"), "got: {out}");
        assert!(out.contains("robust vs nominal over the scenario suite"), "got: {out}");
        assert!(out.contains("memo:"), "got: {out}");
        assert!(out.contains("report artifact: tune-report/"), "got: {out}");

        // The written outcome renders through `coolair report`.
        let rendered = cmd_report(out_path.to_str().unwrap()).unwrap();
        assert!(rendered.contains("robust tune (seed 3"), "got: {rendered}");
        assert!(rendered.contains("decomposition rounds"), "got: {rendered}");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn fleet_smoke_reports_and_round_trips_through_report() {
        let dir = std::env::temp_dir().join("coolair_cli_fleet_test");
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let out_path = dir.join("fleet-outcome.json");
        let out = cmd_campaign(
            &FleetSpec::smoke(11),
            &CampaignArgs {
                threads: 2,
                store: Some(dir.join("store").to_string_lossy().into_owned()),
                out: Some(out_path.to_string_lossy().into_owned()),
                ..CampaignArgs::default()
            },
        )
        .unwrap();
        assert!(out.contains("fleet campaign (seed 11"), "got: {out}");
        assert!(out.contains("decision epochs"), "got: {out}");
        assert!(out.contains("per-site leaderboard"), "got: {out}");
        assert!(out.contains("follow-the-cold vs independent containers"), "got: {out}");
        assert!(out.contains("store cache hits"), "got: {out}");
        assert!(out.contains("report artifact: fleet-report/"), "got: {out}");

        // The written outcome renders through `coolair report`.
        let rendered = cmd_report(out_path.to_str().unwrap()).unwrap();
        assert!(rendered.contains("fleet campaign (seed 11"), "got: {rendered}");
        assert!(rendered.contains("migration total"), "got: {rendered}");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn learn_smoke_reports_and_round_trips_through_report() {
        let dir = std::env::temp_dir().join("coolair_cli_learn_test");
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let out_path = dir.join("learn-outcome.json");
        let out = cmd_campaign(
            &LearnSpec::smoke(5),
            &CampaignArgs {
                threads: 2,
                store: Some(dir.join("store").to_string_lossy().into_owned()),
                out: Some(out_path.to_string_lossy().into_owned()),
                ..CampaignArgs::default()
            },
        )
        .unwrap();
        assert!(out.contains("learn benchmark (seed 5"), "got: {out}");
        assert!(out.contains("training curve"), "got: {out}");
        assert!(out.contains("leaderboard over the episode suite"), "got: {out}");
        assert!(out.contains("learned vs tks"), "got: {out}");
        assert!(out.contains("store cache hits"), "got: {out}");
        assert!(out.contains("report artifact: learn-report/"), "got: {out}");

        // The written outcome renders through `coolair report`.
        let rendered = cmd_report(out_path.to_str().unwrap()).unwrap();
        assert!(rendered.contains("learn benchmark (seed 5"), "got: {rendered}");
        assert!(rendered.contains("leaderboard over the episode suite"), "got: {rendered}");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn fleet_shard_warms_the_store_and_the_final_run_rides_the_cache() {
        let dir = std::env::temp_dir().join("coolair_cli_fleet_shard_test");
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let store = dir.join("store").to_string_lossy().into_owned();
        let spec = FleetSpec::smoke(11);
        let base = CampaignArgs { threads: 2, store: Some(store), ..CampaignArgs::default() };
        // Two shards cover the whole lane-job set between them.
        for k in 1..=2 {
            let out = cmd_fleet_shard(&spec, &base, (k, 2)).unwrap();
            assert!(out.contains(&format!("fleet shard {k}/2: warmed")), "got: {out}");
        }
        // The aggregating run finds every lane in the store.
        let out = cmd_campaign(&spec, &base).unwrap();
        let hits: u64 = out
            .lines()
            .find_map(|l| l.strip_prefix("store cache hits: "))
            .and_then(|v| v.trim().parse().ok())
            .expect("cache-hit line");
        assert!(hits > 0, "aggregation should hit the warmed store: {out}");

        // Shards refuse to run without a store to warm.
        let err = cmd_fleet_shard(&spec, &CampaignArgs { store: None, ..base.clone() }, (1, 2))
            .unwrap_err();
        assert!(err.contains("--shard needs --store"), "got: {err}");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn campaign_subcommands_come_from_the_registry() {
        let args = |v: &[&str]| v.iter().map(|s| (*s).to_string()).collect::<Vec<_>>();
        assert!(cmd_campaign_named("sweep", &[]).is_none(), "not a campaign kind");
        for name in ["tune", "fleet", "learn"] {
            let err =
                cmd_campaign_named(name, &args(&["--seed", "x"])).expect("registered").unwrap_err();
            assert!(err.starts_with("--seed:"), "{name}: {err}");
        }
        let err = cmd_campaign_named("fleet", &args(&["--smoke", "--shard", "3/2"]))
            .expect("registered")
            .unwrap_err();
        assert!(err.contains("--shard wants k/n"), "got: {err}");
        let err = cmd_campaign_named("fleet", &args(&["--smoke", "--containers", "0"]))
            .expect("registered")
            .unwrap_err();
        assert!(err.starts_with("invalid fleet spec: containers"), "got: {err}");
    }

    #[test]
    fn parse_sites_handles_world_prefix_and_named_lists() {
        assert_eq!(parse_sites("world:3").unwrap().len(), 3);
        let named = parse_sites("iceland, newark").unwrap();
        assert_eq!(named.len(), 2);
        assert_eq!(named[0].name(), "Iceland");
        assert!(parse_sites("world:0").is_err());
        assert!(parse_sites("world:many").is_err());
        assert!(parse_sites("atlantis").is_err());
        assert!(parse_sites(" , ").is_err());
    }

    #[test]
    fn locations_command_lists_five() {
        let out = cmd_locations();
        for name in ["Newark", "Chad", "Santiago", "Iceland", "Singapore"] {
            assert!(out.contains(name), "{name} missing from:\n{out}");
        }
    }

    #[test]
    fn train_save_load_round_trip() {
        let dir = std::env::temp_dir().join("coolair_cli_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("model.json");
        let path = path.to_str().unwrap();
        let msg = cmd_train("newark", 8, path).unwrap();
        assert!(msg.contains("saved to"));
        let model = load_model(path).unwrap();
        assert_eq!(model.pods(), 4);
        let _ = std::fs::remove_file(path);
    }

    #[test]
    fn report_distinguishes_missing_from_corrupt() {
        let dir = std::env::temp_dir().join("coolair_cli_report_test");
        std::fs::create_dir_all(&dir).unwrap();

        let absent = dir.join("no-such-trace.jsonl");
        let _ = std::fs::remove_file(&absent);
        let err = cmd_report(absent.to_str().unwrap()).unwrap_err();
        assert!(matches!(err, ReportError::Missing(_)), "got: {err:?}");
        assert_eq!(err.exit_code(), EXIT_NOT_FOUND);

        let torn = dir.join("torn-trace.jsonl");
        std::fs::write(&torn, b"{ not json\n").unwrap();
        let err = cmd_report(torn.to_str().unwrap()).unwrap_err();
        assert!(matches!(err, ReportError::Corrupt(_)), "got: {err:?}");
        assert_eq!(err.exit_code(), EXIT_CORRUPT);

        let empty = dir.join("empty-trace.jsonl");
        std::fs::write(&empty, b"\n").unwrap();
        let err = cmd_report(empty.to_str().unwrap()).unwrap_err();
        assert!(matches!(err, ReportError::Corrupt(_)), "empty is corrupt, not missing");
    }

    #[test]
    fn usage_names_all_commands() {
        let u = usage();
        for cmd in ["locations", "train", "annual", "validate", "compare", "sweep", "faults"] {
            assert!(u.contains(cmd));
        }
    }
}
