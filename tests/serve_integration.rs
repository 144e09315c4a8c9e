//! End-to-end tests of the `coolair-serve` daemon over real sockets:
//! concurrent keep-alive clients, connection-bound backpressure, job
//! submission through to completion, and bit-identical agreement between
//! a job run through the daemon and the same job run offline.

use std::net::TcpStream;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, Instant};

use coolair_suite::bench::http_client::HttpClient;
use coolair_suite::runner::{Executor, Job};
use coolair_suite::serve::{ServeConfig, Server};
use coolair_suite::sim::jobs::AnnualJob;
use coolair_suite::sim::{AnnualConfig, SystemSpec};
use coolair_suite::telemetry::Telemetry;
use coolair_suite::weather::Location;
use coolair_suite::workload::TraceKind;
use serde_json::JsonValue as Value;

fn test_config() -> ServeConfig {
    // CI runs this whole suite twice: COOLAIR_SERVE_LOOPS=1 (single
    // event loop, every connection multiplexed on one epoll instance)
    // and =4 (cross-shard accept distribution). 0 means auto-size.
    let event_loops = std::env::var("COOLAIR_SERVE_LOOPS")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(0);
    ServeConfig {
        addr: "127.0.0.1:0".to_string(),
        read_timeout: Duration::from_secs(2),
        write_timeout: Duration::from_secs(2),
        event_loops,
        ..ServeConfig::default()
    }
}

/// A cheap but real job: a handful of simulated days.
fn quick_job() -> AnnualJob {
    AnnualJob {
        system: SystemSpec::Baseline,
        location: Location::newark(),
        trace: TraceKind::Facebook,
        annual: AnnualConfig { stride: 180, ..AnnualConfig::quick() },
    }
}

fn shutdown(addr: std::net::SocketAddr) {
    // Retried with a deadline rather than asserted on the first attempt:
    // the drain request can race connection teardown (a just-dropped
    // client's slot frees only once its server thread notices the close)
    // and get shed with a 503 — and a panic here would deadlock the
    // enclosing `thread::scope` against a `server.run()` that never
    // received its shutdown.
    let deadline = Instant::now() + Duration::from_secs(10);
    loop {
        let status = HttpClient::connect(addr)
            .and_then(|mut c| c.post_json("/shutdown", &()))
            .map(|resp| resp.status);
        match status {
            Ok(200) => return,
            other if Instant::now() > deadline => {
                panic!("shutdown was never accepted (last: {other:?})")
            }
            _ => std::thread::sleep(Duration::from_millis(50)),
        }
    }
}

fn body_json(body: &[u8]) -> Value {
    serde_json::from_slice(body).expect("response body is JSON")
}

#[test]
fn sixty_four_concurrent_keep_alive_connections_all_succeed() {
    let server = Server::bind(test_config(), Telemetry::discard()).expect("bind");
    let addr = server.local_addr().expect("addr");
    let ok = AtomicU64::new(0);
    std::thread::scope(|s| {
        s.spawn(|| server.run());
        std::thread::scope(|clients| {
            for _ in 0..64 {
                clients.spawn(|| {
                    let mut client = HttpClient::connect(addr).expect("connect");
                    for _ in 0..5 {
                        // Keep-alive: five requests over the one socket.
                        let resp = client.get("/healthz").expect("healthz");
                        assert_eq!(resp.status, 200);
                        ok.fetch_add(1, Ordering::Relaxed);
                    }
                });
            }
        });
        shutdown(addr);
    });
    assert_eq!(ok.load(Ordering::Relaxed), 64 * 5);
}

#[test]
fn connections_beyond_the_bound_get_503_not_a_hang() {
    let cfg = ServeConfig { max_connections: 3, ..test_config() };
    let server = Server::bind(cfg, Telemetry::discard()).expect("bind");
    let addr = server.local_addr().expect("addr");
    std::thread::scope(|s| {
        s.spawn(|| server.run());
        // Fill the bound with established keep-alive connections.
        let mut held: Vec<HttpClient> = (0..3)
            .map(|_| {
                let mut c = HttpClient::connect(addr).expect("connect");
                assert_eq!(c.get("/healthz").expect("fill").status, 200);
                c
            })
            .collect();
        // The next connection must be answered 503 promptly — not queued
        // behind the held sockets, and never left hanging.
        let started = Instant::now();
        let mut extra = HttpClient::connect(addr).expect("extra connect");
        let resp = extra.get("/healthz").expect("overload response");
        assert_eq!(resp.status, 503);
        assert_eq!(resp.header("retry-after"), Some("1"));
        assert!(started.elapsed() < Duration::from_secs(2), "503 was not prompt");
        // Releasing one held connection frees a slot for new clients.
        drop(held.pop());
        let deadline = Instant::now() + Duration::from_secs(5);
        loop {
            let mut retry = HttpClient::connect(addr).expect("retry connect");
            match retry.get("/healthz") {
                Ok(resp) if resp.status == 200 => break,
                _ if Instant::now() > deadline => panic!("slot was never released"),
                _ => std::thread::sleep(Duration::from_millis(50)),
            }
        }
        drop(held);
        shutdown(addr);
    });
}

/// The centrepiece: a job submitted over the wire — while other clients
/// hammer `/metrics` and `/jobs` — must complete and report exactly the
/// summary an offline executor computes for the same spec.
#[test]
fn served_job_results_are_bit_identical_to_offline_runs() {
    let job = quick_job();
    let offline = {
        let exec = Executor::in_memory(1, Telemetry::disabled());
        let mut results = exec.run(std::slice::from_ref(&job));
        match results.pop().expect("one result") {
            coolair_suite::runner::JobResult::Computed(s)
            | coolair_suite::runner::JobResult::Cached(s) => s,
            coolair_suite::runner::JobResult::Failed { error, .. } => {
                panic!("offline run failed: {error}")
            }
        }
    };
    let offline_json = serde_json::to_string(&offline).expect("serialize offline");
    let expected_id = job.digest().to_string();

    let server = Server::bind(test_config(), Telemetry::discard()).expect("bind");
    let addr = server.local_addr().expect("addr");
    std::thread::scope(|s| {
        s.spawn(|| server.run());

        let mut client = HttpClient::connect(addr).expect("connect");
        let resp = client.post_json("/jobs", &job).expect("submit");
        assert_eq!(resp.status, 202, "{}", String::from_utf8_lossy(&resp.body));
        let accepted = body_json(&resp.body);
        assert_eq!(accepted.get("id"), Some(&Value::Str(expected_id.clone())));

        // Background load while the job runs: metrics scrapes and job
        // listings must stay well-formed throughout.
        let done = std::sync::atomic::AtomicBool::new(false);
        std::thread::scope(|bg| {
            bg.spawn(|| {
                let mut noisy = HttpClient::connect(addr).expect("noise connect");
                while !done.load(Ordering::Relaxed) {
                    let m = noisy.get("/metrics").expect("metrics");
                    assert_eq!(m.status, 200);
                    let text = String::from_utf8(m.body).expect("metrics is UTF-8");
                    assert!(text.contains("# TYPE"), "metrics lost its TYPE headers");
                    let l = noisy.get("/jobs").expect("jobs list");
                    assert_eq!(l.status, 200);
                    body_json(&l.body);
                }
            });

            let deadline = Instant::now() + Duration::from_secs(120);
            let result = loop {
                let resp = client.get(&format!("/jobs/{expected_id}")).expect("poll");
                assert_eq!(resp.status, 200);
                let record = body_json(&resp.body);
                match record.get("state") {
                    Some(Value::Str(state)) if state == "done" => {
                        break record.get("result").expect("done record has result").clone();
                    }
                    Some(Value::Str(state)) if state == "failed" => {
                        panic!("served job failed: {record:?}");
                    }
                    _ => {}
                }
                assert!(Instant::now() < deadline, "job did not finish in time");
                std::thread::sleep(Duration::from_millis(50));
            };
            done.store(true, Ordering::Relaxed);

            let served_json = serde_json::to_string(&result).expect("serialize served");
            assert_eq!(served_json, offline_json, "served summary diverged from offline run");
        });

        // Idempotent resubmission: same spec, same id, no second run.
        let resp = client.post_json("/jobs", &job).expect("resubmit");
        assert_eq!(resp.status, 200);
        let record = body_json(&resp.body);
        assert_eq!(record.get("id"), Some(&Value::Str(expected_id.clone())));

        shutdown(addr);
    });
}

/// A slow-loris client dribbling header bytes one at a time must be cut
/// by the read deadline: partial reads never re-arm it, so the
/// connection dies ~`read_timeout` after accept no matter how steadily
/// bytes trickle in — and the daemon stays healthy afterwards.
#[test]
fn a_slow_loris_header_dribble_is_cut_by_the_read_deadline() {
    use std::io::{Read as _, Write as _};
    let cfg = ServeConfig { read_timeout: Duration::from_millis(500), ..test_config() };
    let server = Server::bind(cfg, Telemetry::discard()).expect("bind");
    let addr = server.local_addr().expect("addr");
    std::thread::scope(|s| {
        s.spawn(|| server.run());
        let mut raw = TcpStream::connect(addr).expect("connect");
        // The read timeout doubles as the dribble pacing: one byte per
        // ~50ms, far slower than a real client, never a complete head.
        raw.set_read_timeout(Some(Duration::from_millis(50))).expect("timeout");
        raw.write_all(b"GET /healthz HTTP/1.1\r\nx-dribble: ").expect("start request");
        let started = Instant::now();
        let mut cut = false;
        while started.elapsed() < Duration::from_secs(10) {
            let _ = raw.write_all(b"a");
            let mut buf = [0u8; 64];
            match raw.read(&mut buf) {
                Ok(0) => {
                    cut = true;
                    break;
                }
                Ok(_) => {}
                Err(e)
                    if matches!(
                        e.kind(),
                        std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut
                    ) => {}
                Err(_) => {
                    // A reset counts too: the server closed on us.
                    cut = true;
                    break;
                }
            }
        }
        assert!(cut, "slow-loris connection was never cut");
        assert!(
            started.elapsed() < Duration::from_secs(5),
            "read deadline took {:?} to fire",
            started.elapsed()
        );
        let mut client = HttpClient::connect(addr).expect("connect after loris");
        assert_eq!(client.get("/healthz").expect("healthz").status, 200);
        shutdown(addr);
    });
}

/// A client that requests a large artifact and then stops reading must
/// be cut by the write-stall deadline once the kernel buffers fill and
/// the reactor's writes stop making progress — freeing the slot instead
/// of pinning it until the client deigns to read.
#[test]
fn a_stalled_reader_mid_artifact_trips_the_write_deadline() {
    use std::io::{Read as _, Write as _};
    const ARTIFACT_BYTES: u64 = 16 << 20;
    let dir = std::env::temp_dir()
        .join("coolair_serve_stall")
        .join(std::process::id().to_string());
    let _ = std::fs::remove_dir_all(&dir);
    let cfg = ServeConfig {
        write_timeout: Duration::from_millis(500),
        store_dir: Some(dir.clone()),
        ..test_config()
    };
    let server = Server::bind(cfg, Telemetry::discard()).expect("bind");
    let addr = server.local_addr().expect("addr");
    // Plant an artifact big enough that loopback socket buffers cannot
    // swallow it whole: the stream has to stall while the body is still
    // mostly unsent, which is exactly what the deadline guards.
    let digest: coolair_suite::runner::Digest = "00112233aabbccdd".parse().expect("digest");
    let path =
        server.state().executor.store().expect("store").path_for("annual-summary", digest);
    std::fs::create_dir_all(path.parent().expect("kind dir")).expect("mkdir");
    std::fs::write(&path, vec![b'x'; ARTIFACT_BYTES as usize]).expect("write artifact");

    std::thread::scope(|s| {
        s.spawn(|| server.run());
        let mut raw = TcpStream::connect(addr).expect("connect");
        raw.set_read_timeout(Some(Duration::from_secs(1))).expect("timeout");
        // Shrink our receive window so the server's writes jam quickly
        // and deterministically.
        coolair_suite::serve::sys::set_recv_buffer(&raw, 16 * 1024).expect("rcvbuf");
        raw.write_all(
            format!("GET /artifacts/annual-summary/{digest} HTTP/1.1\r\nhost: t\r\n\r\n")
                .as_bytes(),
        )
        .expect("request");
        // Confirm the stream started, then stall without reading.
        let mut first = [0u8; 4096];
        let n = raw.read(&mut first).expect("first bytes");
        assert!(first[..n].starts_with(b"HTTP/1.1 200"), "stream did not start with 200");
        std::thread::sleep(Duration::from_millis(1500)); // 3x the write deadline
        // Drain whatever the kernel buffered; the server must have closed
        // mid-body rather than waiting out the stall.
        let mut total = n as u64;
        let deadline = Instant::now() + Duration::from_secs(10);
        let mut buf = vec![0u8; 64 * 1024];
        loop {
            assert!(Instant::now() < deadline, "stalled connection was never closed");
            match raw.read(&mut buf) {
                Ok(0) => break,
                Ok(m) => total += m as u64,
                Err(e)
                    if matches!(
                        e.kind(),
                        std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut
                    ) => {}
                Err(_) => break,
            }
        }
        assert!(
            total < ARTIFACT_BYTES,
            "the whole {ARTIFACT_BYTES}-byte artifact arrived ({total} bytes read) — \
             the write never stalled server-side"
        );
        // The slot freed: a fresh client is served immediately.
        let mut client = HttpClient::connect(addr).expect("connect after stall");
        assert_eq!(client.get("/healthz").expect("healthz").status, 200);
        shutdown(addr);
    });
    let _ = std::fs::remove_dir_all(&dir);
}

/// `GET /jobs/{id}/events` replays the job's lifecycle as NDJSON chunks
/// and closes after the terminal record — whose bytes must match a plain
/// `GET /jobs/{id}` poll exactly.
#[test]
fn job_event_stream_replays_the_lifecycle_and_ends_on_the_final_record() {
    use std::io::Write as _;
    let server = Server::bind(test_config(), Telemetry::discard()).expect("bind");
    let addr = server.local_addr().expect("addr");
    std::thread::scope(|s| {
        s.spawn(|| server.run());
        let job = quick_job();
        let mut client = HttpClient::connect(addr).expect("connect");
        let resp = client.post_json("/jobs", &job).expect("submit");
        assert_eq!(resp.status, 202, "{}", String::from_utf8_lossy(&resp.body));
        let Some(Value::Str(id)) = body_json(&resp.body).get("id").cloned() else {
            panic!("accepted reply has no id")
        };

        // A raw socket for the stream: the response ends (and the server
        // closes) only once the job reaches a terminal state, so one
        // blocking read_response sees the whole lifecycle.
        let mut raw = TcpStream::connect(addr).expect("connect stream");
        raw.set_read_timeout(Some(Duration::from_secs(120))).expect("timeout");
        raw.write_all(format!("GET /jobs/{id}/events HTTP/1.1\r\nhost: t\r\n\r\n").as_bytes())
            .expect("stream request");
        let stream =
            coolair_suite::serve::http::read_response(&mut raw).expect("stream response");
        assert_eq!(stream.status, 200);
        assert_eq!(stream.header("content-type"), Some("application/x-ndjson"));
        assert_eq!(stream.header("transfer-encoding"), Some("chunked"));
        let text = String::from_utf8(stream.body).expect("ndjson is UTF-8");
        // Blank lines are keep-alive heartbeats; every other line is one
        // state-transition event for this job.
        let lines: Vec<&str> = text.lines().filter(|l| !l.is_empty()).collect();
        assert!(!lines.is_empty(), "stream carried no events");
        for line in &lines {
            let event: Value = serde_json::from_str(line).expect("event is JSON");
            assert_eq!(event.get("id"), Some(&Value::Str(id.clone())));
        }
        let last = *lines.last().expect("at least one event");
        let final_event: Value = serde_json::from_str(last).expect("final event is JSON");
        assert_eq!(
            final_event.get("state"),
            Some(&Value::Str("done".into())),
            "stream ended on a non-terminal state: {final_event:?}"
        );

        // Byte-identity with the poll endpoint: same record, same
        // serialization path, so the bytes must agree exactly.
        let poll = client.get(&format!("/jobs/{id}")).expect("poll");
        assert_eq!(poll.status, 200);
        assert_eq!(
            last.as_bytes(),
            &poll.body[..],
            "final stream event diverged from GET /jobs/{id}"
        );
        shutdown(addr);
    });
}

/// An idle worker takes a ticket the moment it is queued, so the job's
/// record and `queued` event must exist before the enqueue: otherwise the
/// worker's `running` update finds no record and is lost (and a job that
/// finishes inside that window stays `queued` for good). One-day jobs,
/// each submitted to an idle daemon, keep that window as tight as it gets.
#[test]
fn every_job_submitted_to_an_idle_daemon_streams_queued_running_done() {
    use std::io::Write as _;
    let server = Server::bind(test_config(), Telemetry::discard()).expect("bind");
    let addr = server.local_addr().expect("addr");
    // Streams are collected and checked after shutdown: a panic inside the
    // scope would leave `server.run()` waiting for a shutdown forever.
    let streams: Vec<Result<Vec<String>, String>> = std::thread::scope(|s| {
        s.spawn(|| server.run());
        let mut client = HttpClient::connect(addr).expect("connect");
        let streams = (0..8)
            .map(|seed| {
                let mut job = quick_job();
                job.annual.stride = 400; // day 0 only
                job.annual.weather_seed = 1000 + seed;
                let resp = client.post_json("/jobs", &job).map_err(|e| e.to_string())?;
                if resp.status != 202 {
                    return Err(format!("submit answered {}", resp.status));
                }
                let Some(Value::Str(id)) = body_json(&resp.body).get("id").cloned() else {
                    return Err("accepted reply has no id".to_string());
                };
                // The log keeps every line, so a stream opened after the
                // job ran still replays its whole lifecycle; it ends at the
                // terminal record (a lost `done` stalls it until the read
                // timeout).
                let mut raw = TcpStream::connect(addr).map_err(|e| e.to_string())?;
                raw.set_read_timeout(Some(Duration::from_secs(10))).map_err(|e| e.to_string())?;
                let request = format!("GET /jobs/{id}/events HTTP/1.1\r\nhost: t\r\n\r\n");
                raw.write_all(request.as_bytes()).map_err(|e| e.to_string())?;
                let stream = coolair_suite::serve::http::read_response(&mut raw)
                    .map_err(|e| format!("stream of {id} did not end: {e}"))?;
                let text = String::from_utf8_lossy(&stream.body).into_owned();
                let state = |line: &str| {
                    let event = serde_json::from_str::<Value>(line).ok();
                    match event.and_then(|v| v.get("state").cloned()) {
                        Some(Value::Str(state)) => state,
                        _ => format!("<no state: {line}>"),
                    }
                };
                Ok(text.lines().filter(|l| !l.is_empty()).map(state).collect())
            })
            .collect();
        shutdown(addr);
        streams
    });
    let lifecycle: Vec<String> = ["queued", "running", "done"].map(String::from).into();
    for (seed, states) in streams.into_iter().enumerate() {
        assert_eq!(states, Ok(lifecycle.clone()), "job {seed}");
    }
}

/// Malformed bytes on a fresh socket: the daemon answers 4xx and closes,
/// and stays healthy for the next client.
#[test]
fn garbage_bytes_do_not_poison_the_daemon() {
    let server = Server::bind(test_config(), Telemetry::discard()).expect("bind");
    let addr = server.local_addr().expect("addr");
    std::thread::scope(|s| {
        s.spawn(|| server.run());
        for garbage in [&b"\x00\xffnonsense\r\n\r\n"[..], &b"GET  HTTP/9.9\r\n\r\n"[..]] {
            use std::io::Write as _;
            let mut raw = TcpStream::connect(addr).expect("connect");
            raw.set_read_timeout(Some(Duration::from_secs(2))).expect("timeout");
            raw.write_all(garbage).expect("write garbage");
            // Whatever comes back (an error status or a straight close),
            // the daemon must still serve the next request.
            let mut sink = Vec::new();
            use std::io::Read as _;
            let _ = raw.take(4096).read_to_end(&mut sink);
        }
        let mut client = HttpClient::connect(addr).expect("connect after garbage");
        assert_eq!(client.get("/healthz").expect("healthz").status, 200);
        shutdown(addr);
    });
}
