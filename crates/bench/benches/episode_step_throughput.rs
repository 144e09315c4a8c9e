//! Throughput of the gym-style episode API, merged into
//! `BENCH_perf.json` (schema in EXPERIMENTS.md): decision steps per
//! second through a local [`coolair_sim::Episode`] and through the
//! daemon's `POST /episodes/{id}/step` over a loopback keep-alive
//! socket. The served path pays HTTP parse/route/encode plus the socket
//! round trip on top of the same physics, so the two rows bracket the
//! protocol overhead a remote learner pays per decision. The local rows
//! are means over whole episodes; the served row is the median of its
//! individually timed steps, since a loopback round trip shares the
//! scheduler with the daemon's threads and one stall would move a mean. The local path
//! runs twice: `episode/local_step` keeps every server active, so its job
//! queue never backs up, and `episode/local_step_backlog` follows a
//! learner's schedule, whose targets below demand leave hundreds of jobs
//! queued.
//!
//! Episode *creation* (warm-up simulation) is timed separately — it is a
//! one-off cost per episode, not part of the step loop.

use std::time::Instant;

use coolair_bench::http_client::HttpClient;
use coolair_bench::perf::{merge_into_report, report_path, PerfEntry};
use coolair_serve::{ServeConfig, Server};
use coolair_sim::{Action, Episode, EpisodeSpec};
use coolair_telemetry::Telemetry;
use coolair_units::SimDuration;
use coolair_weather::Location;
use coolair_workload::ClusterConfig;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Full local episodes stepped back to back (each is one simulated day).
const LOCAL_EPISODES: usize = 3;

/// Served episodes stepped back to back, on consecutive start days.
const SERVED_EPISODES: u64 = 8;

/// The benchmark episode: one seeded Newark day at the TKS control
/// cadence (10-minute decisions, 144 steps).
fn bench_spec() -> EpisodeSpec {
    let mut spec = EpisodeSpec::seeded(Location::newark(), 11);
    spec.decision_period = SimDuration::from_minutes(10);
    spec
}

/// A mid-band action that keeps the TKS hysteresis exercised. Every
/// server stays active, so the job queue never backs up.
fn bench_action(step: u64) -> Action {
    Action { setpoint_c: 26.0 + (step % 5) as f64 * 2.0, active_servers: 64 }
}

/// A learner's schedule: a setpoint in 22–32 °C in 0.5 °C steps and an
/// active-server target uniform over the covering subset..=64, redrawn
/// every decision. Targets below demand back the job queue up.
fn learner_actions(steps: u64) -> Vec<Action> {
    let cluster = ClusterConfig::parasol();
    let mut rng = StdRng::seed_from_u64(11);
    (0..steps)
        .map(|_| Action {
            setpoint_c: 22.0 + f64::from(rng.gen_range(0..=20u32)) * 0.5,
            active_servers: rng.gen_range(cluster.covering_count..=cluster.total_servers),
        })
        .collect()
}

/// Mean time of one `Episode::step` over `episodes` stepped to the end,
/// acting `action(i)` at step `i`.
fn mean_step_ns(episodes: &mut [Episode], action: impl Fn(u64) -> Action) -> f64 {
    let t0 = Instant::now();
    let mut steps = 0u64;
    for ep in episodes {
        while !ep.is_done() {
            std::hint::black_box(ep.step(&action(ep.steps_taken())).expect("not done"));
            steps += 1;
        }
    }
    t0.elapsed().as_nanos() as f64 / steps as f64
}

/// Local path: steps/s through `Episode::step` under the all-active
/// action and under the learner's schedule, plus the one-off creation
/// (warm-up) cost.
fn local_rows(spec: &EpisodeSpec) -> (Vec<PerfEntry>, f64) {
    let create = || -> Vec<Episode> {
        (0..LOCAL_EPISODES).map(|_| Episode::new(spec).expect("valid spec")).collect()
    };
    let t0 = Instant::now();
    let mut episodes = create();
    let create_ns = t0.elapsed().as_nanos() as f64 / LOCAL_EPISODES as f64;

    let total_steps = spec.steps() * LOCAL_EPISODES as u64;
    let per_step_ns = mean_step_ns(&mut episodes, bench_action);
    let steps_per_s = 1e9 / per_step_ns.max(1.0);
    let learner = learner_actions(spec.steps());
    let backlog_step_ns = mean_step_ns(&mut create(), |i| learner[i as usize].clone());

    let rows = vec![
        PerfEntry {
            name: "episode/create_warmup".to_string(),
            median_ns: create_ns.round() as u64,
            samples: LOCAL_EPISODES as u64,
            unit: Some("ns".to_string()),
        },
        PerfEntry {
            name: "episode/local_step".to_string(),
            median_ns: per_step_ns.round() as u64,
            samples: total_steps,
            unit: Some("ns".to_string()),
        },
        PerfEntry {
            name: "episode/local_step_backlog".to_string(),
            median_ns: backlog_step_ns.round() as u64,
            samples: total_steps,
            unit: Some("ns".to_string()),
        },
        PerfEntry {
            name: "episode/local_steps_per_s".to_string(),
            median_ns: steps_per_s.round() as u64,
            samples: total_steps,
            unit: Some("steps/s".to_string()),
        },
    ];
    (rows, steps_per_s)
}

/// Served path: the benchmark episode on `SERVED_EPISODES` consecutive
/// start days, each driven through `POST /episodes/{id}/step` on one
/// loopback keep-alive connection. Every step is timed on its own and the
/// row is their median, so one scheduler stall moves it by one sample of
/// 1 152, not by its whole length.
fn served_rows(spec: &EpisodeSpec) -> (Vec<PerfEntry>, f64) {
    let cfg = ServeConfig { addr: "127.0.0.1:0".to_string(), ..ServeConfig::default() };
    let server = Server::bind(cfg, Telemetry::discard()).expect("bind loopback");
    let addr = server.local_addr().expect("local addr");

    let mut step_ns = Vec::new();
    crossbeam::thread::scope(|s| {
        s.spawn(|_| server.run());
        let mut client = HttpClient::connect(addr).expect("connect");
        for day in 0..SERVED_EPISODES {
            let mut spec = spec.clone();
            spec.start_day += day;
            let created = client.post_json("/episodes", &spec).expect("create");
            assert_eq!(created.status, 201, "episode creation failed");
            let target = format!("/episodes/{}/step", spec.digest());
            for i in 0..spec.steps() {
                let t0 = Instant::now();
                let resp = client.post_json(&target, &bench_action(i)).expect("step");
                step_ns.push(t0.elapsed().as_nanos());
                assert_eq!(resp.status, 200, "served step {i} failed");
            }
        }

        let shut = client.post_json("/shutdown", &()).expect("shutdown");
        assert_eq!(shut.status, 200);
    })
    .expect("server scope");

    step_ns.sort_unstable();
    let median_ns = u64::try_from(step_ns[step_ns.len() / 2]).unwrap_or(u64::MAX);
    let steps = step_ns.len() as u64;
    let steps_per_s = 1e9 / median_ns.max(1) as f64;
    let rows = vec![
        PerfEntry {
            name: "episode/served_step".to_string(),
            median_ns,
            samples: steps,
            unit: Some("ns".to_string()),
        },
        PerfEntry {
            name: "episode/served_steps_per_s".to_string(),
            median_ns: steps_per_s.round() as u64,
            samples: steps,
            unit: Some("steps/s".to_string()),
        },
    ];
    (rows, steps_per_s)
}

fn main() {
    let spec = bench_spec();
    let (mut entries, local_sps) = local_rows(&spec);
    let (served, served_sps) = served_rows(&spec);
    entries.extend(served);
    println!(
        "episode_step_throughput: local {local_sps:.0} steps/s, served {served_sps:.0} steps/s \
         ({:.1}% of local over loopback HTTP)",
        served_sps / local_sps.max(1e-9) * 100.0
    );
    assert!(local_sps > 0.0 && served_sps > 0.0);

    let path = report_path();
    match merge_into_report(&path, "episode_step_throughput", entries) {
        Ok(()) => println!("wrote {}", path.display()),
        Err(e) => eprintln!("could not write {}: {e}", path.display()),
    }
}
