//! `served_episodes`: learned-control traffic against an in-process daemon.
//!
//! One daemon (`coolair-serve`, one event loop, loopback) carries two
//! connections, each driven by its own client thread:
//!
//! * a closed-loop **learner** that creates a one-day episode at the
//!   10-minute cadence, steps it to done under a schedule that varies the
//!   setpoint and the active-server target, reads the episode's status,
//!   and moves on to the next (10 episodes per round, two per paper
//!   location);
//! * an open-loop **monitor** that polls `GET /metrics` every
//!   [`MONITOR_PERIOD`], timing each poll from its due time.
//!
//! With two loops, `SO_REUSEPORT` would hash each connection onto a loop
//! at random per run, which would make the monitor's tail bimodal, so the
//! daemon runs one loop.
//!
//! Episode `i` of a run (round `i / 10`, slot `i % 10`) has its weather,
//! trace and action schedule seeded from `i` alone; the `--seed` argument
//! permutes the order of the ten slots within every round. Each round's
//! episode set, and with it the outcome metrics (summed in slot order over
//! the first round), is therefore the same for every seed.

use std::collections::BTreeMap;
use std::io;
use std::net::SocketAddr;
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::{Duration, Instant};

use coolair_serve::{AppState, ServeConfig, Server};
use coolair_sim::{Action, Episode, EpisodeSpec, Reward, StepResult};
use coolair_telemetry::{MetricValue, Telemetry};
use coolair_weather::Location;
use coolair_workload::ClusterConfig;
use serde::Deserialize as _;

use crate::http::{Conn, Reply};
use crate::layers::Layers;
use crate::report::{EndToEnd, Report};
use crate::stats::{median, mix, quantile, Rng};
use crate::trace::Tracer;
use crate::RunArgs;

/// Daemon starts before the timed phase and again after each round, so
/// `setup_s` (their median) samples the host across the whole run.
const SETUPS_PER_BREAK: usize = 10;
/// The monitor's poll period (200 polls per second).
pub const MONITOR_PERIOD: Duration = Duration::from_millis(5);
/// Monitor polls per p99 window: ten polls beyond the p99, 5 s at 200/s.
const PROBE_WINDOW: usize = 1000;
/// Episodes per round: two per paper location (about half a second), so a
/// run has enough rounds for its medians to ride out bursts of host
/// contention.
const EPISODES_PER_ROUND: u64 = 10;

fn config() -> ServeConfig {
    ServeConfig {
        addr: "127.0.0.1:0".to_string(),
        event_loops: 1,
        job_threads: 1,
        read_timeout: Duration::from_secs(30),
        write_timeout: Duration::from_secs(30),
        ..ServeConfig::default()
    }
}

/// The `index`-th episode of a run: weather and trace seeded from
/// `index`, cycling through the five paper locations.
#[must_use]
pub fn episode_spec(index: u64) -> EpisodeSpec {
    let locations = Location::paper_five();
    let location = locations[(index % locations.len() as u64) as usize].clone();
    EpisodeSpec::seeded(location, mix(0x5EED_0000 + index) % 1_000_000_007)
}

/// The learner's action schedule for episode `index`: a setpoint in
/// 22–32 °C and an active-server target between the covering subset and
/// the whole cluster, redrawn every decision.
#[must_use]
pub fn action_schedule(spec: &EpisodeSpec, index: u64) -> Vec<Action> {
    let cluster = ClusterConfig::parasol();
    let (floor, total) = (cluster.covering_count as u64, cluster.total_servers as u64);
    let mut rng = Rng::new(index, 0xAC70_0000);
    (0..spec.steps())
        .map(|_| Action {
            setpoint_c: 22.0 + rng.below(21) as f64 * 0.5,
            active_servers: (floor + rng.below(total - floor + 1)) as usize,
        })
        .collect()
}

/// Everything the learner saw of one episode.
#[derive(Debug, Clone)]
pub struct ServedEpisode {
    /// The episode's index in the run.
    pub index: u64,
    /// The spec it created.
    pub spec: EpisodeSpec,
    /// The actions it sent, in order.
    pub actions: Vec<Action>,
    /// `POST /episodes` reply.
    pub created: Reply,
    /// One `POST /episodes/{id}/step` reply per action.
    pub steps: Vec<Reply>,
    /// `GET /episodes/{id}` after the last step.
    pub status: Reply,
}

/// One round's raw observations.
#[derive(Debug, Default)]
struct RoundOut {
    episodes: Vec<ServedEpisode>,
    step_us: Vec<f64>,
    probe_us: Vec<f64>,
    late_us: Vec<f64>,
    probe_status: Vec<u16>,
    elapsed_s: f64,
}

/// Sends one request inside a span named `name` under the `episode` span
/// (which is also the request id); returns the reply and its round trip
/// in microseconds.
fn timed(
    conn: &mut Conn,
    tracer: &Tracer,
    name: &'static str,
    episode: u64,
    method: &str,
    path: &str,
    body: &[u8],
) -> io::Result<(Reply, f64)> {
    let open = tracer.begin(name, episode, episode);
    let t = Instant::now();
    let reply = conn.request(method, path, body);
    let us = t.elapsed().as_secs_f64() * 1e6;
    tracer.end(open);
    Ok((reply?, us))
}

/// The learner's part of a round: episodes `first + slot` for each slot
/// of `order`, in that order.
fn learner(
    conn: &mut Conn,
    order: &[u64],
    first: u64,
    tracer: &Tracer,
    parent: u64,
    out: &mut RoundOut,
) -> io::Result<()> {
    for index in order.iter().map(|slot| first + slot) {
        let spec = episode_spec(index);
        let actions = action_schedule(&spec, index);
        let id = spec.digest().to_string();
        let step_path = format!("/episodes/{id}/step");
        let episode = tracer.begin("episode", parent, 0);
        let ep = episode.map_or(0, |e| e.id());
        let body = serde_json::to_vec(&spec).map_err(|e| io::Error::other(e.to_string()))?;
        let (created, _) = timed(conn, tracer, "serve.create", ep, "POST", "/episodes", &body)?;
        let mut steps = Vec::with_capacity(actions.len());
        for action in &actions {
            let body = serde_json::to_vec(action).map_err(|e| io::Error::other(e.to_string()))?;
            let (reply, us) = timed(conn, tracer, "serve.step", ep, "POST", &step_path, &body)?;
            out.step_us.push(us);
            steps.push(reply);
        }
        let status_path = format!("/episodes/{id}");
        let (status, _) = timed(conn, tracer, "serve.status", ep, "GET", &status_path, b"")?;
        tracer.end(episode);
        out.episodes.push(ServedEpisode {
            index,
            spec,
            actions,
            created,
            steps,
            status,
        });
    }
    Ok(())
}

/// The monitor: an open-loop `GET /metrics` every [`MONITOR_PERIOD`]
/// until `stop`; latency counts from each poll's due time, so a late
/// send shows up in the tail instead of being hidden.
fn monitor(
    conn: &mut Conn,
    stop: &AtomicBool,
    tracer: &Tracer,
    parent: u64,
    out: &mut RoundOut,
) -> io::Result<()> {
    let start = Instant::now();
    let mut k: u32 = 0;
    while !stop.load(Ordering::Acquire) {
        let due = start + MONITOR_PERIOD * k;
        k += 1;
        let now = Instant::now();
        if due > now {
            std::thread::sleep(due - now);
        }
        let sent = Instant::now();
        let open = tracer.begin("serve.metrics", parent, 0);
        let reply = conn.request("GET", "/metrics", b"");
        tracer.end(open);
        let done = Instant::now();
        out.probe_status.push(reply?.status);
        out.probe_us.push((done - due).as_secs_f64() * 1e6);
        out.late_us.push((sent - due).as_secs_f64() * 1e6);
    }
    Ok(())
}

/// One round: the learner's episodes with the monitor polling alongside.
fn round(
    learner_conn: &mut Conn,
    monitor_conn: &mut Conn,
    order: &[u64],
    first: u64,
    tracer: &Tracer,
    parent: u64,
) -> io::Result<RoundOut> {
    let stop = AtomicBool::new(false);
    let started = Instant::now();
    let (mut learned, mut polled) = (RoundOut::default(), RoundOut::default());
    let (learner_result, monitor_result) = std::thread::scope(|s| {
        let polls = s.spawn(|| monitor(monitor_conn, &stop, tracer, parent, &mut polled));
        let learner_result = learner(learner_conn, order, first, tracer, parent, &mut learned);
        stop.store(true, Ordering::Release);
        (
            learner_result,
            polls
                .join()
                .unwrap_or_else(|_| Err(io::Error::other("monitor panicked"))),
        )
    });
    learned.elapsed_s = started.elapsed().as_secs_f64();
    learner_result?;
    monitor_result?;
    learned.probe_us = polled.probe_us;
    learned.late_us = polled.late_us;
    learned.probe_status = polled.probe_status;
    Ok(learned)
}

/// Starts a daemon, times bind-to-first-`/healthz`, runs `f` against it,
/// then drains it and waits for every daemon thread to end.
fn with_daemon<T>(f: impl FnOnce(SocketAddr, &AppState) -> T) -> io::Result<(f64, T)> {
    let t = Instant::now();
    let server = Server::bind(config(), Telemetry::discard())?;
    let addr = server.local_addr()?;
    let state = server.state();
    std::thread::scope(|s| {
        let daemon = s.spawn(|| server.run());
        let result = (|| {
            let mut conn = Conn::connect(addr)?;
            let health = conn.request("GET", "/healthz", b"")?;
            if health.status != 200 {
                return Err(io::Error::other(format!(
                    "/healthz answered {}",
                    health.status
                )));
            }
            Ok(t.elapsed().as_secs_f64())
        })();
        let out = result.map(|setup| (setup, f(addr, &state)));
        // Drain on a fresh connection: the clients' may have idled out.
        let drained = Conn::connect(addr).and_then(|mut c| c.request("POST", "/shutdown", b""));
        let joined = daemon
            .join()
            .unwrap_or_else(|_| Err(io::Error::other("daemon panicked")));
        let (out, _) = (out?, drained?);
        joined?;
        Ok(out)
    })
}

/// Request counters and handler-time histograms from the daemon's own
/// registry: endpoint → (count, seconds), plus (requests, non-2xx).
#[derive(Debug, Default)]
struct DaemonStats {
    handler: BTreeMap<String, (u64, f64)>,
    requests: u64,
    non2xx: u64,
}

fn daemon_stats(state: &AppState) -> DaemonStats {
    state.flush_serve_stats();
    let metrics = state.telemetry.metrics();
    let mut stats = DaemonStats::default();
    for sample in metrics.snapshot() {
        match sample.value {
            MetricValue::Histogram(h) => {
                if let Some(endpoint) = label(sample.name, "serve.request_seconds{", "endpoint") {
                    stats.handler.insert(endpoint, (h.count, h.sum));
                }
            }
            MetricValue::Counter(n) => {
                if let Some(status) = label(sample.name, "serve.requests{", "status") {
                    stats.requests += n;
                    if !status.starts_with('2') {
                        stats.non2xx += n;
                    }
                }
            }
            MetricValue::Gauge(_) => {}
        }
    }
    stats
}

/// The value of label `key` in a registry key `prefix…key="value"…}`.
fn label(name: &str, prefix: &str, key: &str) -> Option<String> {
    let rest = name.strip_prefix(prefix)?;
    let start = rest.find(&format!("{key}=\""))? + key.len() + 2;
    let end = rest[start..].find('"')? + start;
    Some(rest[start..end].to_string())
}

impl DaemonStats {
    /// Handler (count, seconds) of `endpoint` accumulated since `before`.
    fn delta(&self, before: &DaemonStats, endpoint: &str) -> (u64, f64) {
        let now = self.handler.get(endpoint).copied().unwrap_or_default();
        let then = before.handler.get(endpoint).copied().unwrap_or_default();
        (now.0 - then.0, now.1 - then.1)
    }
}

const STEP_ENDPOINT: &str = "/episodes/{id}/step";
const CREATE_ENDPOINT: &str = "/episodes";
const STATUS_ENDPOINT: &str = "/episodes/{id}";
const METRICS_ENDPOINT: &str = "/metrics";

/// One round reduced to what the metrics need. The replies themselves are
/// checked and dropped right after their round, so memory stays flat.
#[derive(Debug)]
struct RoundStats {
    seconds: f64,
    reward: Reward,
    days: u64,
    steps: usize,
    step_p50_us: f64,
    step_p99_us: f64,
    step_mean_us: f64,
    probe_us: Vec<f64>,
    late_us: Vec<f64>,
}

impl RoundStats {
    fn of(out: &RoundOut, reward: Reward) -> RoundStats {
        let q = |v: &[f64], p: f64| quantile(v, p).unwrap_or(f64::NAN);
        RoundStats {
            seconds: out.elapsed_s,
            reward,
            days: out.episodes.iter().map(|e| e.spec.horizon_days).sum(),
            steps: out.step_us.len(),
            step_p50_us: q(&out.step_us, 0.5),
            step_p99_us: q(&out.step_us, 0.99),
            step_mean_us: out.step_us.iter().sum::<f64>() / out.step_us.len().max(1) as f64,
            probe_us: out.probe_us.clone(),
            late_us: out.late_us.clone(),
        }
    }
}

/// The timed phase: measured rounds (plus, traced, the untraced reference
/// rounds' total time and the daemon's registry around each traced round).
#[derive(Debug, Default)]
struct Phase {
    measured: Vec<RoundStats>,
    reference_s: f64,
    before: Vec<DaemonStats>,
    after: Vec<DaemonStats>,
}

/// Runs the workload.
pub fn run(args: &RunArgs) -> Report {
    let mut report = Report::default();
    if let Err(e) = run_inner(args, &mut report) {
        report.fail(format!("served_episodes aborted: {e}"));
    }
    report
}

fn start_daemons(n: usize, setups: &mut Vec<f64>) -> io::Result<()> {
    for _ in 0..n {
        setups.push(with_daemon(|_, _| ())?.0);
    }
    Ok(())
}

fn run_inner(args: &RunArgs, report: &mut Report) -> io::Result<()> {
    let tracer = if args.trace {
        Tracer::enabled()
    } else {
        Tracer::disabled()
    };
    let mut setups = Vec::new();
    if !args.trace {
        start_daemons(SETUPS_PER_BREAK - 1, &mut setups)?;
    }
    let setup_span = tracer.begin("setup", 0, 0);
    let (first, phase) = with_daemon(|addr, state| {
        tracer.end(setup_span);
        timed_phase(args, addr, state, &tracer, report, &mut setups)
    })?;
    setups.push(first);
    report.ok(setups.len() as u64);
    let phase = phase?;
    if args.trace {
        traced_layers(&phase, &tracer, report);
        return Ok(());
    }

    let rounds = &phase.measured;
    let med = |f: &dyn Fn(&RoundStats) -> f64| {
        median(&rounds.iter().map(f).collect::<Vec<_>>()).unwrap_or(f64::NAN)
    };
    // Round 0 holds episodes 0..EPISODES_PER_ROUND whatever the seed.
    let outcome = rounds.first().map_or(Reward::zero(), |r| r.reward);
    report.end_to_end(&EndToEnd {
        setup_s: median(&setups).unwrap_or(f64::NAN),
        round_s: med(&|r| r.seconds),
        violation_cmin: outcome.violation_cmin,
        energy_kwh: outcome.energy_kwh,
    });
    let probes: Vec<f64> = rounds
        .iter()
        .flat_map(|r| r.probe_us.iter().copied())
        .collect();
    let per_round =
        |f: &dyn Fn(&RoundStats) -> f64| rounds.iter().map(|r| f(r).round()).collect::<Vec<_>>();
    let windows: Vec<f64> = probes
        .chunks_exact(PROBE_WINDOW)
        .map(|w| quantile(w, 0.99).unwrap_or(f64::NAN).round())
        .collect();
    eprintln!(
        "served_episodes: {} rounds of {EPISODES_PER_ROUND} episodes, {:.2} s timed, \
         {:.1} simulated days/s\n  \
         step p50 per round ({} samples each), us: {:?}\n  step p99 per round, us: {:?}\n  \
         probe p99 per {PROBE_WINDOW}-poll window ({} polls), us: {:?}\n  daemon starts: {} (median {:.3} ms)",
        rounds.len(),
        rounds.iter().map(|r| r.seconds).sum::<f64>(),
        med(&|r| r.days as f64 / r.seconds),
        rounds.first().map_or(0, |r| r.steps),
        per_round(&|r| r.step_p50_us),
        per_round(&|r| r.step_p99_us),
        probes.len(),
        windows,
        setups.len(),
        median(&setups).unwrap_or(f64::NAN) * 1e3,
    );
    Ok(())
}

/// The median over consecutive `window`-sample windows of each window's
/// p99 (the plain p99 when there is no full window): a burst of host
/// contention moves one window, not the result.
fn windowed_p99(samples: &[f64], window: usize) -> f64 {
    let p99s: Vec<f64> = samples
        .chunks_exact(window)
        .filter_map(|w| quantile(w, 0.99))
        .collect();
    median(&p99s)
        .or_else(|| quantile(samples, 0.99))
        .unwrap_or(f64::NAN)
}

/// Output checks of one round, outside its timing: every episode's
/// protocol and local identity, and every monitor reply. Returns the
/// round's total cost, summed in episode-index order so that it does not
/// depend on the order the episodes ran in.
fn verify(out: &RoundOut, report: &mut Report, tracer: &Tracer) -> Reward {
    let requests: u64 = out.episodes.iter().map(|e| e.steps.len() as u64 + 2).sum();
    report.ok(requests + out.probe_status.len() as u64);
    let mut costs = Vec::with_capacity(out.episodes.len());
    for ep in &out.episodes {
        let protocol = check_protocol(ep);
        if let Ok(cost) = protocol {
            costs.push((ep.index, cost));
        }
        report.check("episode_protocol", protocol.map(|_| ()));
        let span = tracer.begin("replay", 0, 0);
        report.check(
            "served_equals_local",
            check_local_identity(ep, tracer, span.map_or(0, |s| s.id())),
        );
        tracer.end(span);
    }
    report.check("monitor_all_200", check_monitor(&out.probe_status));
    costs.sort_by_key(|&(index, _)| index);
    let mut total = Reward::zero();
    for (_, cost) in &costs {
        total.accumulate(cost);
    }
    total
}

fn timed_phase(
    args: &RunArgs,
    addr: SocketAddr,
    state: &AppState,
    tracer: &Tracer,
    report: &mut Report,
    setups: &mut Vec<f64>,
) -> io::Result<Phase> {
    let mut learner_conn = Conn::connect(addr)?;
    let mut monitor_conn = Conn::connect(addr)?;
    let mut phase = Phase::default();
    let mut order: Vec<u64> = (0..EPISODES_PER_ROUND).collect();
    Rng::new(args.seed, 2).shuffle(&mut order);
    let mut next = 0u64;
    let mut timed_s = 0.0;
    loop {
        let out = if args.trace {
            let reference = round(
                &mut learner_conn,
                &mut monitor_conn,
                &order,
                next,
                &Tracer::disabled(),
                0,
            )?;
            next += EPISODES_PER_ROUND;
            phase.reference_s += reference.elapsed_s;
            timed_s += reference.elapsed_s;
            let _ = verify(&reference, report, &Tracer::disabled());
            phase.before.push(daemon_stats(state));
            let span = tracer.begin("round", 0, 0);
            let out = round(
                &mut learner_conn,
                &mut monitor_conn,
                &order,
                next,
                tracer,
                span.map_or(0, |s| s.id()),
            );
            tracer.end(span);
            phase.after.push(daemon_stats(state));
            out?
        } else {
            round(
                &mut learner_conn,
                &mut monitor_conn,
                &order,
                next,
                tracer,
                0,
            )?
        };
        next += EPISODES_PER_ROUND;
        timed_s += out.elapsed_s;
        let reward = verify(&out, report, tracer);
        phase.measured.push(RoundStats::of(&out, reward));
        drop(out);
        if !args.trace {
            start_daemons(SETUPS_PER_BREAK, setups)?;
        }
        if timed_s >= args.seconds {
            break;
        }
    }
    Ok(phase)
}

fn traced_layers(phase: &Phase, tracer: &Tracer, report: &mut Report) {
    let spans = tracer.spans();
    crate::write_spans("served_episodes", 0, &spans);
    let mut l = Layers::new(&spans);
    let mut handler: BTreeMap<&str, (u64, f64)> = BTreeMap::new();
    let (mut requests, mut non2xx) = (0, 0);
    for (before, after) in phase.before.iter().zip(&phase.after) {
        for endpoint in [
            STEP_ENDPOINT,
            CREATE_ENDPOINT,
            STATUS_ENDPOINT,
            METRICS_ENDPOINT,
        ] {
            let (n, s) = after.delta(before, endpoint);
            let e = handler.entry(endpoint).or_default();
            e.0 += n;
            e.1 += s;
        }
        requests += after.requests - before.requests;
        non2xx += after.non2xx - before.non2xx;
    }
    let mean_us = |endpoint: &str| {
        let (n, s) = handler.get(endpoint).copied().unwrap_or_default();
        if n == 0 {
            0.0
        } else {
            s / n as f64 * 1e6
        }
    };
    let rounds = &phase.measured;
    let late: Vec<f64> = rounds
        .iter()
        .flat_map(|r| r.late_us.iter().copied())
        .collect();
    let step_rtt = rounds.iter().map(|r| r.step_mean_us).sum::<f64>() / rounds.len().max(1) as f64;
    l.set("episode.create_ms", l.mean_ms("episode.new"));
    l.set("episode.step_us", l.mean_us("episode.step"));
    l.set("serve.step_handle_us", mean_us(STEP_ENDPOINT));
    l.set("serve.create_handle_ms", mean_us(CREATE_ENDPOINT) / 1e3);
    l.set("serve.metrics_handle_us", mean_us(METRICS_ENDPOINT));
    l.set("serve.step_transport_us", step_rtt - mean_us(STEP_ENDPOINT));
    l.set("serve.requests", requests as f64);
    l.set("serve.non2xx", non2xx as f64);
    let probes: Vec<f64> = rounds
        .iter()
        .flat_map(|r| r.probe_us.iter().copied())
        .collect();
    let step_p50s: Vec<f64> = rounds.iter().map(|r| r.step_p50_us).collect();
    let step_p99s: Vec<f64> = rounds.iter().map(|r| r.step_p99_us).collect();
    let rates: Vec<f64> = rounds.iter().map(|r| r.days as f64 / r.seconds).collect();
    l.set("serve.days_per_s", median(&rates).unwrap_or(0.0));
    l.set("step.p50_us", median(&step_p50s).unwrap_or(0.0));
    l.set("step.p99_us", median(&step_p99s).unwrap_or(0.0));
    l.set("probe.p99_us", windowed_p99(&probes, PROBE_WINDOW));
    l.set("probe.late_p99_us", quantile(&late, 0.99).unwrap_or(0.0));
    l.set("probe.count", late.len() as f64);

    // The learner's timeline: daemon start, then its requests (handler
    // time inside the daemon; the rest is reactor + HTTP + kernel), then
    // the local replays of the output check.
    let handled_s: f64 = [STEP_ENDPOINT, CREATE_ENDPOINT, STATUS_ENDPOINT]
        .iter()
        .map(|e| handler.get(e).map_or(0.0, |h| h.1))
        .sum();
    let handled_ns = (handled_s * 1e9) as u64;
    let learner_ns =
        l.total_ns("serve.create") + l.total_ns("serve.step") + l.total_ns("serve.status");
    l.share("self.daemon_pct", l.total_ns("setup"));
    l.share("self.serve_handle_pct", handled_ns);
    l.share(
        "self.serve_transport_pct",
        learner_ns.saturating_sub(handled_ns),
    );
    l.share(
        "self.episode_pct",
        l.total_ns("episode.new") + l.total_ns("episode.step"),
    );
    let traced: f64 = rounds.iter().map(|r| r.seconds).sum();
    l.finish(report, phase.reference_s, traced);
}

/// The daemon's reply bytes for every step equal the serialized
/// [`StepResult`] of the same step taken on a local [`Episode`] built
/// from the same spec.
pub fn check_local_identity(
    ep: &ServedEpisode,
    tracer: &Tracer,
    parent: u64,
) -> Result<(), String> {
    let mut local = tracer
        .span("episode.new", parent, || Episode::new(&ep.spec))
        .map_err(|e| format!("local episode: {e}"))?;
    for (i, (action, served)) in ep.actions.iter().zip(&ep.steps).enumerate() {
        let result = tracer.span("episode.step", parent, || local.step(action));
        let expected = match result {
            Ok(r) => serde_json::to_vec(&r).map_err(|e| e.to_string())?,
            Err(e) => return Err(format!("local step {i}: {e}")),
        };
        if expected != served.body {
            return Err(format!(
                "{}: step {i} reply differs from the local step",
                ep.spec.scenario.location.name()
            ));
        }
    }
    if ep.steps.len() != ep.actions.len() {
        return Err(format!(
            "{} steps served for {} actions",
            ep.steps.len(),
            ep.actions.len()
        ));
    }
    Ok(())
}

/// Episode protocol: created `201`; exactly `EpisodeSpec::steps()` steps,
/// each `200` with its own index and `done` set only on the last; the
/// per-step rewards sum to the total the status endpoint reports, which
/// is returned.
pub fn check_protocol(ep: &ServedEpisode) -> Result<Reward, String> {
    let name = ep.spec.scenario.location.name();
    if ep.created.status != 201 {
        return Err(format!("{name}: create answered {}", ep.created.status));
    }
    let expected = ep.spec.steps() as usize;
    if ep.steps.len() != expected {
        return Err(format!(
            "{name}: {} steps, spec says {expected}",
            ep.steps.len()
        ));
    }
    let mut sum = Reward::zero();
    for (i, reply) in ep.steps.iter().enumerate() {
        if reply.status != 200 {
            return Err(format!("{name}: step {i} answered {}", reply.status));
        }
        let step: StepResult =
            serde_json::from_slice(&reply.body).map_err(|e| format!("{name}: step {i}: {e}"))?;
        if step.step != i as u64 {
            return Err(format!("{name}: reply {i} carries step {}", step.step));
        }
        if step.done != (i + 1 == expected) {
            return Err(format!(
                "{name}: step {i} of {expected} has done = {}",
                step.done
            ));
        }
        sum.accumulate(&step.reward);
    }
    if ep.status.status != 200 {
        return Err(format!("{name}: status answered {}", ep.status.status));
    }
    let status: serde::Value =
        serde_json::from_slice(&ep.status.body).map_err(|e| format!("{name}: status: {e}"))?;
    let total = status
        .get("total")
        .ok_or_else(|| format!("{name}: status has no total"))
        .and_then(|v| Reward::from_value(v).map_err(|e| format!("{name}: total: {e:?}")))?;
    let close = |a: f64, b: f64| (a - b).abs() <= 1e-9 * a.abs().max(b.abs()).max(1.0);
    if !close(sum.violation_cmin, total.violation_cmin) || !close(sum.energy_kwh, total.energy_kwh)
    {
        return Err(format!(
            "{name}: step rewards sum to ({}, {}), status total is ({}, {})",
            sum.violation_cmin, sum.energy_kwh, total.violation_cmin, total.energy_kwh
        ));
    }
    Ok(total)
}

/// Every monitor poll answered `200`.
pub fn check_monitor(statuses: &[u16]) -> Result<(), String> {
    match statuses.iter().position(|&s| s != 200) {
        None if statuses.is_empty() => Err("the monitor made no poll".to_string()),
        None => Ok(()),
        Some(i) => Err(format!("poll {i} answered {}", statuses[i])),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use coolair_units::SimDuration;

    /// A locally stepped episode dressed up as a served one (hourly
    /// decisions keep it short).
    fn local_episode() -> ServedEpisode {
        let mut spec = episode_spec(1);
        spec.decision_period = SimDuration::from_minutes(60);
        let actions = action_schedule(&spec, 1);
        let mut ep = Episode::new(&spec).unwrap();
        let ok = |body: Vec<u8>, status| Reply { status, body };
        let steps: Vec<Reply> = actions
            .iter()
            .map(|a| ok(serde_json::to_vec(&ep.step(a).unwrap()).unwrap(), 200))
            .collect();
        let total = ep.total_reward();
        let status = format!(
            "{{\"id\":\"x\",\"state\":\"done\",\"total\":{}}}",
            serde_json::to_string(&total).unwrap()
        );
        ServedEpisode {
            index: 1,
            spec,
            actions,
            created: ok(b"{}".to_vec(), 201),
            steps,
            status: ok(status.into_bytes(), 200),
        }
    }

    #[test]
    fn a_faithful_episode_passes_both_checks() {
        let ep = local_episode();
        assert_eq!(ep.steps.len(), 24);
        let total = check_protocol(&ep).unwrap();
        assert!(total.energy_kwh > 0.0);
        check_local_identity(&ep, &Tracer::disabled(), 0).unwrap();
    }

    #[test]
    fn identity_check_rejects_a_changed_byte() {
        let mut ep = local_episode();
        let body = &mut ep.steps[5].body;
        let i = body.iter().position(|b| b.is_ascii_digit()).unwrap();
        body[i] = if body[i] == b'9' { b'8' } else { body[i] + 1 };
        assert!(check_local_identity(&ep, &Tracer::disabled(), 0).is_err());
    }

    #[test]
    fn protocol_check_rejects_each_corruption() {
        let mut short = local_episode();
        short.steps.pop();
        assert!(check_protocol(&short).is_err());
        let mut early = local_episode();
        early.steps[3] = early.steps[23].clone();
        assert!(check_protocol(&early).is_err());
        let mut total = local_episode();
        total.status.body = b"{\"total\":{\"violation_cmin\":0.0,\"energy_kwh\":1.0}}".to_vec();
        assert!(check_protocol(&total).is_err());
        let mut refused = local_episode();
        refused.created.status = 503;
        assert!(check_protocol(&refused).is_err());
    }

    #[test]
    fn monitor_check_rejects_a_non_200() {
        assert!(check_monitor(&[200, 200]).is_ok());
        assert!(check_monitor(&[200, 503, 200]).is_err());
        assert!(check_monitor(&[]).is_err());
    }

    #[test]
    fn windowed_p99_takes_the_median_window() {
        // Windows of 100: 1..=100 (p99 99.01), 101..=200 (199.01),
        // 201..=300 (299.01); the 50 leftover samples are dropped.
        let samples: Vec<f64> = (1..=350).map(f64::from).collect();
        assert!((windowed_p99(&samples, 100) - 199.01).abs() < 1e-9);
        // No full window: the plain p99.
        assert!((windowed_p99(&samples[..100], 1000) - 99.01).abs() < 1e-9);
        assert!(windowed_p99(&[], 10).is_nan());
    }

    #[test]
    fn registry_labels_parse() {
        assert_eq!(
            label(
                "serve.requests{endpoint=\"/metrics\",status=\"200\"}",
                "serve.requests{",
                "status"
            ),
            Some("200".to_string())
        );
        assert_eq!(
            label(
                "serve.request_seconds{endpoint=\"/episodes/{id}/step\"}",
                "serve.request_seconds{",
                "endpoint"
            ),
            Some("/episodes/{id}/step".to_string())
        );
        assert_eq!(
            label("serve.connections", "serve.requests{", "status"),
            None
        );
    }

    #[test]
    fn schedules_and_specs_are_seeded_by_the_episode_index() {
        assert_eq!(episode_spec(4), episode_spec(4));
        assert_ne!(episode_spec(4).digest(), episode_spec(9).digest());
        let spec = episode_spec(0);
        let a = action_schedule(&spec, 0);
        assert_eq!(a.len() as u64, spec.steps());
        assert_eq!(a, action_schedule(&spec, 0));
        assert_ne!(a, action_schedule(&spec, 5));
        let cluster = ClusterConfig::parasol();
        assert!(a.iter().all(|x| (22.0..=32.0).contains(&x.setpoint_c)
            && (cluster.covering_count..=cluster.total_servers).contains(&x.active_servers)));
    }
}
