//! Request routing: maps a parsed [`Request`] onto the daemon endpoints.
//!
//! Handlers are pure with respect to the socket — they return a [`Reply`]
//! and the server decides framing (plain responses get content-length,
//! artifact streams go out chunked). That split keeps every endpoint
//! testable without a live listener.

use std::collections::BTreeMap;
use std::path::PathBuf;
use std::str::FromStr;

use coolair_runner::{ArtifactError, Campaign, Digest};
use coolair_sim::jobs::{AnnualJob, KIND_ANNUAL_SUMMARY};
use coolair_sim::{Action, Episode, EpisodeSpec};
use serde::{Deserialize, Serialize, Value};

use crate::http::{path_segments, Request, Response};
use crate::jobs::{ticket_for, EnqueueOutcome, JobRecord, JobState, QueuedJob};
use crate::prom::encode_prometheus;
use crate::state::AppState;

/// What a handler wants written back.
#[derive(Debug)]
pub enum Reply {
    /// An in-memory response; the server frames it with content-length.
    Full(Response),
    /// A file streamed with chunked transfer encoding (artifacts can be
    /// large; this avoids buffering them on the heap).
    Stream {
        /// Status code (always 200 today).
        status: u16,
        /// `Content-Type` for the stream.
        content_type: &'static str,
        /// File to stream.
        path: PathBuf,
    },
    /// A live NDJSON job-event stream (`GET /jobs/{id}/events`): the
    /// reactor subscribes the connection to the job's event log and
    /// keeps it open until the job reaches a terminal state.
    EventStream {
        /// The job id (also the bus log key). The handler guarantees a
        /// log exists (live, reseeded, or store-seeded) before returning
        /// this variant.
        id: String,
    },
}

/// Builds a JSON object [`Value`] from key/value pairs (the vendored
/// serde stub has no `json!` macro).
fn obj(pairs: Vec<(&str, Value)>) -> Value {
    Value::Map(pairs.into_iter().map(|(k, v)| (k.to_string(), v)).collect())
}

fn s(text: impl Into<String>) -> Value {
    Value::Str(text.into())
}

impl Reply {
    fn json<T: Serialize>(status: u16, value: &T) -> Reply {
        Reply::Full(Response::json(status, value))
    }

    fn error(status: u16, message: &str) -> Reply {
        Reply::json(status, &obj(vec![("error", s(message))]))
    }

    /// Status code of the reply (for the request log and metrics).
    #[must_use]
    pub fn status(&self) -> u16 {
        match self {
            Reply::Full(r) => r.status,
            Reply::Stream { status, .. } => *status,
            Reply::EventStream { .. } => 200,
        }
    }
}

/// Stable, low-cardinality endpoint label for metrics. Path parameters
/// collapse onto their route (`/jobs/abc` → `/jobs/{id}`) so the registry
/// cannot grow without bound under arbitrary request targets.
#[must_use]
pub fn endpoint_class(path: &str) -> &'static str {
    let segs: Vec<&str> = path_segments(path);
    match segs.as_slice() {
        [] => "/",
        ["healthz"] => "/healthz",
        ["version"] => "/version",
        ["metrics"] => "/metrics",
        ["jobs"] => "/jobs",
        ["jobs", _] => "/jobs/{id}",
        ["jobs", _, "events"] => "/jobs/{id}/events",
        ["episodes"] => "/episodes",
        ["episodes", _] => "/episodes/{id}",
        ["episodes", _, "step"] => "/episodes/{id}/step",
        ["artifacts", _, _] => "/artifacts/{kind}/{hash}",
        ["shutdown"] => "/shutdown",
        _ => "other",
    }
}

/// Routes one request. Never panics on untrusted input: unknown routes
/// are `404`, wrong methods `405`, bad payloads `400`.
#[must_use]
pub fn handle(state: &AppState, req: &Request) -> Reply {
    let segs: Vec<&str> = path_segments(req.path());
    match (req.method.as_str(), segs.as_slice()) {
        ("GET", ["healthz"]) => healthz(state),
        ("GET", ["version"]) => version(),
        ("GET", ["metrics"]) => metrics(state),
        ("GET", ["jobs"]) => list_jobs(state),
        ("GET", ["jobs", id]) => get_job(state, id),
        ("GET", ["jobs", id, "events"]) => job_events(state, id),
        ("POST", ["jobs"]) => submit_job(state, &req.body),
        ("POST", ["episodes"]) => create_episode(state, &req.body),
        ("GET", ["episodes", id]) => get_episode(state, id),
        ("POST", ["episodes", id, "step"]) => step_episode(state, id, &req.body),
        ("GET", ["artifacts", kind, hash]) => get_artifact(state, kind, hash),
        ("POST", ["shutdown"]) => shutdown(state),
        (_, ["healthz" | "version" | "metrics" | "shutdown"])
        | (_, ["jobs", ..])
        | (_, ["episodes"] | ["episodes", _] | ["episodes", _, "step"])
        | (_, ["artifacts", _, _]) => Reply::error(405, "method not allowed"),
        _ => Reply::error(404, "no such route"),
    }
}

fn healthz(state: &AppState) -> Reply {
    let status = if state.is_shutting_down() { "draining" } else { "ok" };
    Reply::json(200, &obj(vec![("status", s(status))]))
}

fn version() -> Reply {
    Reply::json(
        200,
        &obj(vec![
            ("name", s(env!("CARGO_PKG_NAME"))),
            ("version", s(env!("CARGO_PKG_VERSION"))),
        ]),
    )
}

fn metrics(state: &AppState) -> Reply {
    // Pull the event loops' batched serve counters in first, so a scrape
    // always reflects every request served before it.
    state.flush_serve_stats();
    // Memoized encoding: the registry version bumps on every mutation, so
    // an unchanged registry serves the cached bytes without re-encoding.
    let version = state.telemetry.metrics_version();
    let mut memo = state.metrics_memo.lock();
    let body = match &*memo {
        Some((cached, body)) if *cached == version => body.clone(),
        _ => {
            let text = encode_prometheus(&state.telemetry.metrics()).into_bytes();
            *memo = Some((version, text.clone()));
            text
        }
    };
    drop(memo);
    Reply::Full(
        Response::new(200)
            .with_header("content-type", "text/plain; version=0.0.4; charset=utf-8")
            .with_body(body),
    )
}

fn list_jobs(state: &AppState) -> Reply {
    let records: Vec<Value> = state.tracker.list().iter().map(|r| r.to_value()).collect();
    Reply::json(200, &obj(vec![("jobs", Value::Seq(records))]))
}

/// Outcome of looking a job id up in the artifact store (the fallback
/// for jobs finished in a previous daemon lifetime).
enum StoreLookup {
    /// A persisted summary exists.
    Hit(Value),
    /// No artifact under any kind (or no store / unparsable id).
    Missing,
    /// An artifact exists but cannot be read — a `500`, not a `404`.
    Unreadable(String),
}

/// A registered campaign's report kind, for [`crate::campaign_registry`].
macro_rules! report_kind {
    ($spec:ty) => {
        <$spec as Campaign>::REPORT_KIND
    };
}

/// Searches every job-report kind for a persisted summary of `id`.
fn store_lookup(state: &AppState, id: &str) -> StoreLookup {
    let Ok(digest) = Digest::from_str(id) else {
        return StoreLookup::Missing;
    };
    let Some(store) = state.executor.store() else {
        return StoreLookup::Missing;
    };
    // A digest names exactly one spec, so at most one kind can hit.
    let campaigns = crate::campaign_registry!(report_kind);
    for kind in std::iter::once(KIND_ANNUAL_SUMMARY).chain(campaigns) {
        match store.try_get::<Value>(kind, digest) {
            Ok(result) => return StoreLookup::Hit(result),
            Err(ArtifactError::NotFound) => {}
            Err(e @ (ArtifactError::Corrupt(_) | ArtifactError::Io(_))) => {
                return StoreLookup::Unreadable(format!("artifact unreadable: {e}"))
            }
        }
    }
    StoreLookup::Missing
}

/// Renders the record `GET /jobs/{id}` answers for a store-only job.
fn store_record(id: &str, result: Value) -> Value {
    obj(vec![
        ("id", s(id)),
        ("state", s(JobState::Done.as_str())),
        ("result", result),
    ])
}

fn get_job(state: &AppState, id: &str) -> Reply {
    if let Some(record) = state.tracker.get(id) {
        return Reply::json(200, &record.to_value());
    }
    // Not submitted this lifetime — a prior run may have left its summary
    // in the artifact store. Absent and corrupt are different failures:
    // 404 means "never ran", 500 means "ran, but the record is damaged".
    match store_lookup(state, id) {
        StoreLookup::Hit(result) => Reply::json(200, &store_record(id, result)),
        StoreLookup::Missing => Reply::error(404, "no such job"),
        StoreLookup::Unreadable(e) => Reply::error(500, &e),
    }
}

/// `GET /jobs/{id}/events` — a live NDJSON stream of the job's state
/// transitions. Live jobs stream from the event bus; store-only jobs
/// (finished in a previous daemon lifetime) get a one-line closed stream
/// whose single event is exactly the `GET /jobs/{id}` record. Either
/// way the final event is byte-identical to a subsequent poll.
fn job_events(state: &AppState, id: &str) -> Reply {
    if let Some(record) = state.tracker.get(id) {
        if !state.bus.has_log(id) {
            // The log was evicted (terminal, unwatched, bus at capacity):
            // reseed from the tracker so the stream replays the record.
            let Ok(line) = serde_json::to_string(&record.to_value()) else {
                return Reply::error(500, "unserializable job record");
            };
            match record.state {
                JobState::Done | JobState::Failed => state.bus.seed_closed(id, line),
                JobState::Queued | JobState::Running => state.bus.publish(id, line, false),
            }
        }
        return Reply::EventStream { id: id.to_string() };
    }
    match store_lookup(state, id) {
        StoreLookup::Hit(result) => {
            let Ok(line) = serde_json::to_string(&store_record(id, result)) else {
                return Reply::error(500, "unserializable job record");
            };
            state.bus.seed_closed(id, line);
            Reply::EventStream { id: id.to_string() }
        }
        StoreLookup::Missing => Reply::error(404, "no such job"),
        StoreLookup::Unreadable(e) => Reply::error(500, &e),
    }
}

/// Parses and validates one registered campaign kind's wrapped spec.
fn parse_campaign<C: Campaign>(spec: &Value) -> Result<QueuedJob, String> {
    let bad = |e: String| format!("bad {} spec: {e}", C::NAME);
    let spec = C::from_value(spec).map_err(|e| bad(e.to_string()))?;
    spec.validate().map_err(bad)?;
    Ok(QueuedJob::Campaign(Box::new(spec)))
}

/// A registered campaign's `(wrapper key, parser)`, for
/// [`crate::campaign_registry`].
macro_rules! campaign_parser {
    ($spec:ty) => {
        (
            <$spec as Campaign>::NAME,
            parse_campaign::<$spec> as fn(&Value) -> Result<QueuedJob, String>,
        )
    };
}

/// Interprets a submission body. A plain object is an [`AnnualJob`]; an
/// object wrapped as `{"<name>": {...}}` is the spec of the registered
/// campaign kind called `name` (`tune`, `fleet`, `learn`, ...). The
/// wrapper key picks the job kind explicitly, so the spec shapes can
/// evolve without overlapping; an invalid campaign spec is a `400` up
/// front, never a queued job that fails on a worker.
fn parse_submission(body: &[u8]) -> Result<QueuedJob, String> {
    let value: Value = serde_json::from_slice(body).map_err(|e| format!("bad job spec: {e}"))?;
    if let Value::Map(pairs) = &value {
        for (name, parse) in crate::campaign_registry!(campaign_parser) {
            if let Some((_, spec)) = pairs.iter().find(|(k, _)| k == name) {
                return parse(spec);
            }
        }
    }
    AnnualJob::from_value(&value)
        .map(|job| QueuedJob::Annual(Box::new(job)))
        .map_err(|e| format!("bad job spec: {e}"))
}

fn submit_job(state: &AppState, body: &[u8]) -> Reply {
    let job = match parse_submission(body) {
        Ok(job) => job,
        Err(e) => return Reply::error(400, &e),
    };
    let ticket = ticket_for(job);
    let id = ticket.digest.to_string();
    // Same spec → same digest → same job: answer from the tracker instead
    // of queueing a duplicate.
    if let Some(existing) = state.tracker.get(&id) {
        return Reply::json(200, &existing.to_value());
    }
    // The record and its queued event exist before the ticket does: an
    // idle worker takes the ticket at once, and its `running` update finds
    // nothing to update without them.
    state.tracker.put(JobRecord {
        id: id.clone(),
        label: ticket.job.label(),
        state: JobState::Queued,
        error: None,
        result: None,
    });
    // Open the job's event log with the queued record, so an events stream
    // attached right after submission replays the full lifecycle.
    crate::jobs::publish_record(&state.bus, &state.tracker, &id, false);
    let refused = match state.queue.try_submit(ticket) {
        EnqueueOutcome::Accepted => {
            return Reply::json(
                202,
                &obj(vec![("id", s(id)), ("state", s(JobState::Queued.as_str()))]),
            );
        }
        EnqueueOutcome::Saturated => Reply::Full(
            Response::json(503, &obj(vec![("error", s("job queue full"))]))
                .with_header("retry-after", "1"),
        ),
        EnqueueOutcome::Draining => Reply::error(503, "daemon is draining"),
    };
    // Never queued: retract the record and its log.
    state.tracker.remove(&id);
    state.bus.retract(&id);
    refused
}

/// Renders an episode's public status record. `observation` is the cached
/// next observation — the one the client should act on.
fn episode_status(id: &str, ep: &Episode) -> Value {
    obj(vec![
        ("id", s(id)),
        ("state", s(if ep.is_done() { "done" } else { "running" })),
        ("step", Value::UInt(ep.steps_taken())),
        ("steps", Value::UInt(ep.spec().steps())),
        ("observation", ep.observe().to_value()),
        ("total", ep.total_reward().to_value()),
    ])
}

/// `POST /episodes` — digest-keyed idempotent creation. The body is an
/// [`EpisodeSpec`], optionally wrapped as `{"episode": {...}}` to mirror
/// the job-submission envelope. Creation is bounded like the job queue:
/// past `max_episodes` (after evicting finished episodes) the reply is
/// `503 Retry-After`. The episode is built (TMY generation plus warm-up,
/// a few milliseconds) without the registry lock, so steps on other
/// event loops never wait behind it; the registry checks run again once
/// the lock is retaken.
fn create_episode(state: &AppState, body: &[u8]) -> Reply {
    if state.is_shutting_down() {
        return Reply::error(503, "daemon is draining");
    }
    let value: Value = match serde_json::from_slice(body) {
        Ok(v) => v,
        Err(e) => return Reply::error(400, &format!("bad episode spec: {e}")),
    };
    let spec_value = match &value {
        Value::Map(pairs) => pairs
            .iter()
            .find(|(k, _)| k == "episode")
            .map_or(&value, |(_, v)| v),
        _ => &value,
    };
    let spec = match EpisodeSpec::from_value(spec_value) {
        Ok(spec) => spec,
        Err(e) => return Reply::error(400, &format!("bad episode spec: {e}")),
    };
    if let Err(e) = spec.validate() {
        return Reply::error(400, &format!("bad episode spec: {e}"));
    }
    let id = spec.digest().to_string();
    let refused = refuse_episode(state, &mut state.episodes.lock(), &id);
    if let Some(reply) = refused {
        return reply;
    }
    let episode = match Episode::new(&spec) {
        Ok(ep) => ep,
        Err(e) => return Reply::error(400, &format!("bad episode spec: {e}")),
    };
    let mut episodes = state.episodes.lock();
    // Another request may have created this episode, or filled the
    // registry, while this one was being built.
    if let Some(reply) = refuse_episode(state, &mut episodes, &id) {
        return reply;
    }
    let status = episode_status(&id, &episode);
    episodes.insert(id, episode);
    Reply::json(201, &status)
}

/// The reply that stops creating episode `id`, if any: `200` with the live
/// episode's status (same spec → same digest → same episode, answered
/// instead of reset), or `503 Retry-After` when the registry is full even
/// after evicting finished episodes.
fn refuse_episode(
    state: &AppState,
    episodes: &mut BTreeMap<String, Episode>,
    id: &str,
) -> Option<Reply> {
    if let Some(existing) = episodes.get(id) {
        return Some(Reply::json(200, &episode_status(id, existing)));
    }
    if episodes.len() >= state.cfg.max_episodes {
        // Finished episodes are kept for late GETs but are the first to
        // go under pressure.
        episodes.retain(|_, ep| !ep.is_done());
    }
    (episodes.len() >= state.cfg.max_episodes).then(|| {
        Reply::Full(
            Response::json(503, &obj(vec![("error", s("episode registry full"))]))
                .with_header("retry-after", "1"),
        )
    })
}

/// `GET /episodes/{id}` — live-episode status, or `404`.
fn get_episode(state: &AppState, id: &str) -> Reply {
    match state.episodes.lock().get(id) {
        Some(ep) => Reply::json(200, &episode_status(id, ep)),
        None => Reply::error(404, "no such episode"),
    }
}

/// `POST /episodes/{id}/step` — applies one [`Action`], optionally
/// wrapped as `{"action": {...}}`. The reply body is exactly the
/// serialized [`coolair_sim::StepResult`], so a served trajectory is
/// byte-identical to a local one. Unknown ids are `404` (not a worker
/// panic), finished episodes `409`.
fn step_episode(state: &AppState, id: &str, body: &[u8]) -> Reply {
    let value: Value = match serde_json::from_slice(body) {
        Ok(v) => v,
        Err(e) => return Reply::error(400, &format!("bad action: {e}")),
    };
    let action_value = match &value {
        Value::Map(pairs) => pairs
            .iter()
            .find(|(k, _)| k == "action")
            .map_or(&value, |(_, v)| v),
        _ => &value,
    };
    let action = match Action::from_value(action_value) {
        Ok(a) => a,
        Err(e) => return Reply::error(400, &format!("bad action: {e}")),
    };
    let mut episodes = state.episodes.lock();
    let Some(episode) = episodes.get_mut(id) else {
        return Reply::error(404, "no such episode");
    };
    if episode.is_done() {
        return Reply::error(409, "episode is done");
    }
    match episode.step(&action) {
        Ok(result) => Reply::json(200, &result),
        Err(e) => Reply::error(409, &e),
    }
}

fn get_artifact(state: &AppState, kind: &str, hash: &str) -> Reply {
    // Kind doubles as a directory name under the store root; restricting
    // its charset (no '/', '.', '\') forecloses path traversal.
    let kind_ok = !kind.is_empty()
        && kind.bytes().all(|b| b.is_ascii_lowercase() || b.is_ascii_digit() || b == b'-');
    if !kind_ok {
        return Reply::error(404, "no such artifact");
    }
    let Ok(digest) = Digest::from_str(hash) else {
        return Reply::error(404, "no such artifact");
    };
    let Some(store) = state.executor.store() else {
        return Reply::error(404, "daemon has no artifact store");
    };
    let path = store.path_for(kind, digest);
    if !path.is_file() {
        return Reply::error(404, "no such artifact");
    }
    Reply::Stream { status: 200, content_type: "application/json", path }
}

fn shutdown(state: &AppState) -> Reply {
    state.begin_shutdown();
    Reply::json(200, &obj(vec![("status", s("draining"))]))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::http::parse_request;
    use crate::jobs::JobQueue;
    use crate::state::ServeConfig;
    use coolair_fleet::FleetSpec;
    use coolair_learn::LearnSpec;
    use coolair_runner::Executor;
    use coolair_telemetry::Telemetry;
    use coolair_tune::TuneSpec;
    use std::sync::mpsc::sync_channel;

    fn state_with_cfg(
        cfg: ServeConfig,
        depth: usize,
    ) -> (AppState, std::sync::mpsc::Receiver<crate::jobs::JobTicket>) {
        let telemetry = Telemetry::discard();
        let executor = Executor::in_memory(1, telemetry.clone());
        let (tx, rx) = sync_channel(depth);
        (AppState::new(cfg, executor, telemetry, JobQueue::new(tx)), rx)
    }

    fn state_with_depth(depth: usize) -> (AppState, std::sync::mpsc::Receiver<crate::jobs::JobTicket>) {
        state_with_cfg(ServeConfig::default(), depth)
    }

    fn get(state: &AppState, target: &str) -> Reply {
        let raw = format!("GET {target} HTTP/1.1\r\nhost: t\r\n\r\n");
        let req = match parse_request(raw.as_bytes(), &crate::http::Limits::default()) {
            crate::http::Parsed::Complete(req, _) => req,
            other => panic!("bad fixture: {other:?}"),
        };
        handle(state, &req)
    }

    fn job_spec(seed: u64) -> AnnualJob {
        let mut annual = coolair_sim::AnnualConfig::quick();
        annual.weather_seed = seed;
        AnnualJob {
            system: coolair_sim::SystemSpec::Baseline,
            location: coolair_weather::Location::newark(),
            trace: coolair_workload::TraceKind::Facebook,
            annual,
        }
    }

    fn post(state: &AppState, target: &str, body: &[u8]) -> Reply {
        let req = Request {
            method: "POST".to_string(),
            target: target.to_string(),
            version: crate::http::HttpVersion::Http11,
            headers: vec![],
            body: body.to_vec(),
        };
        handle(state, &req)
    }

    fn post_jobs(state: &AppState, body: &[u8]) -> Reply {
        post(state, "/jobs", body)
    }

    /// A short episode (4 decisions/day) so handler tests stay quick.
    fn episode_spec(seed: u64) -> EpisodeSpec {
        let mut spec = EpisodeSpec::seeded(coolair_weather::Location::newark(), seed);
        spec.decision_period = coolair_units::SimDuration::from_minutes(360);
        spec
    }

    fn body_of(reply: Reply) -> Vec<u8> {
        let Reply::Full(resp) = reply else { panic!("expected a full reply") };
        resp.body
    }

    #[test]
    fn healthz_version_metrics_answer() {
        let (state, _rx) = state_with_depth(1);
        assert_eq!(get(&state, "/healthz").status(), 200);
        assert_eq!(get(&state, "/version").status(), 200);
        let reply = get(&state, "/metrics");
        assert_eq!(reply.status(), 200);
        let Reply::Full(resp) = reply else { panic!("metrics should not stream") };
        assert!(resp.header("content-type").unwrap_or_default().contains("0.0.4"));
    }

    #[test]
    fn unknown_route_404_wrong_method_405() {
        let (state, _rx) = state_with_depth(1);
        assert_eq!(get(&state, "/nope").status(), 404);
        assert_eq!(post_jobs(&state, b"").status(), 400); // bad body, right route
        let req = Request {
            method: "DELETE".to_string(),
            target: "/healthz".to_string(),
            version: crate::http::HttpVersion::Http11,
            headers: vec![],
            body: vec![],
        };
        assert_eq!(handle(&state, &req).status(), 405);
    }

    #[test]
    fn submit_is_idempotent_then_saturates() {
        let (state, _rx) = state_with_depth(1);
        let body = serde_json::to_vec(&job_spec(1)).unwrap();
        assert_eq!(post_jobs(&state, &body).status(), 202);
        // Same spec again: answered from the tracker, not re-queued.
        assert_eq!(post_jobs(&state, &body).status(), 200);
        // A different spec hits the full queue.
        let other = serde_json::to_vec(&job_spec(99)).unwrap();
        let reply = post_jobs(&state, &other);
        assert_eq!(reply.status(), 503);
        let Reply::Full(resp) = reply else { panic!() };
        assert_eq!(resp.header("retry-after"), Some("1"));
    }

    /// Submits `spec` under its kind's wrapper key: routed, tracked under
    /// `label`, idempotent on resubmission, and `bad` (structurally valid
    /// but nonsensical) is a 400 up front, never a queued job that panics
    /// a worker.
    fn assert_submission_routed<C: Campaign>(spec: C, label: &str, bad: C) {
        let (state, _rx) = state_with_depth(2);
        let wrap = |spec: &C| serde_json::to_vec(&obj(vec![(C::NAME, spec.to_value())])).unwrap();
        assert_eq!(post_jobs(&state, &wrap(&spec)).status(), 202, "{}", C::NAME);
        let record = state.tracker.get(&Campaign::digest(&spec).to_string()).expect("tracked");
        assert_eq!(record.label, label);
        assert_eq!(record.state, JobState::Queued);
        // Same spec again: answered from the tracker, not re-queued.
        assert_eq!(post_jobs(&state, &wrap(&spec)).status(), 200, "{}", C::NAME);
        let reply = post_jobs(&state, &wrap(&bad));
        assert_eq!(reply.status(), 400, "{}", C::NAME);
        let body = String::from_utf8(body_of(reply)).unwrap();
        assert!(body.contains(&format!("bad {} spec", C::NAME)), "{body}");
    }

    macro_rules! name {
        ($spec:ty) => {
            <$spec as Campaign>::NAME
        };
    }

    #[test]
    fn every_campaign_submission_is_routed_validated_and_idempotent() {
        // Every registered kind is covered below.
        assert_eq!(crate::campaign_registry!(name), ["tune", "fleet", "learn"]);
        let mut bad = TuneSpec::smoke(5);
        bad.rounds = 0;
        assert_submission_routed(TuneSpec::smoke(5), "robust tune (seed 5)", bad);
        let mut bad = FleetSpec::smoke(5);
        bad.containers = 0;
        assert_submission_routed(FleetSpec::smoke(5), "fleet campaign (4 containers, seed 5)", bad);
        let mut bad = LearnSpec::smoke(5);
        bad.cem.elites = 0;
        assert_submission_routed(LearnSpec::smoke(5), "learn benchmark (seed 5)", bad);
    }

    /// A report artifact a previous daemon left in the store answers
    /// `GET /jobs/{id}` (done, result equal to the artifact) and its event
    /// stream, whose one event is the polled record; a corrupt one answers
    /// 500 on both.
    fn assert_store_fallback<C: Campaign>() {
        let dir = std::env::temp_dir().join("coolair_serve_store_fallback").join(C::NAME);
        let _ = std::fs::remove_dir_all(&dir);
        let executor = Executor::new(coolair_runner::ExecutorConfig {
            threads: 1,
            store_dir: Some(dir.clone()),
            ..coolair_runner::ExecutorConfig::default()
        })
        .unwrap();
        let (tx, _rx) = sync_channel(1);
        let state = AppState::new(
            ServeConfig::default(),
            executor,
            Telemetry::discard(),
            JobQueue::new(tx),
        );
        let store = state.executor.store().unwrap();
        let artifact = obj(vec![("kind", s(C::REPORT_KIND)), ("seed", Value::UInt(7))]);
        let id = Digest(0x0123_4567_89ab_cdef);
        store.put(C::REPORT_KIND, id, &artifact).unwrap();

        let reply = get(&state, &format!("/jobs/{id}"));
        assert_eq!(reply.status(), 200, "{}", C::NAME);
        let polled = String::from_utf8(body_of(reply)).unwrap();
        let expected =
            obj(vec![("id", s(id.to_string())), ("state", s("done")), ("result", artifact)]);
        assert_eq!(serde_json::from_str::<Value>(&polled).unwrap(), expected, "{}", C::NAME);
        let reply = get(&state, &format!("/jobs/{id}/events"));
        assert!(matches!(reply, Reply::EventStream { .. }), "{}", C::NAME);
        let batch = state.bus.fetch(&id.to_string(), 0);
        assert!(batch.finished);
        assert_eq!(batch.lines, [polled]);

        let torn = Digest(0x0fed_cba9_8765_4321);
        std::fs::write(store.path_for(C::REPORT_KIND, torn), b"{ torn").unwrap();
        assert_eq!(get(&state, &format!("/jobs/{torn}")).status(), 500, "{}", C::NAME);
        assert_eq!(get(&state, &format!("/jobs/{torn}/events")).status(), 500, "{}", C::NAME);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn stored_tune_report_answers_polls_and_streams() {
        assert_store_fallback::<TuneSpec>();
    }

    #[test]
    fn stored_fleet_report_answers_polls_and_streams() {
        assert_store_fallback::<FleetSpec>();
    }

    #[test]
    fn stored_learn_report_answers_polls_and_streams() {
        assert_store_fallback::<LearnSpec>();
    }

    #[test]
    fn unknown_job_is_404_and_draining_submits_503() {
        let (state, _rx) = state_with_depth(1);
        assert_eq!(get(&state, "/jobs/0123456789abcdef").status(), 404);
        assert_eq!(get(&state, "/jobs/not-a-digest").status(), 404);
        state.begin_shutdown();
        let body = serde_json::to_vec(&job_spec(1)).unwrap();
        assert_eq!(post_jobs(&state, &body).status(), 503);
        assert_eq!(get(&state, "/healthz").status(), 200);
    }

    #[test]
    fn artifact_routes_reject_traversal_shapes() {
        let (state, _rx) = state_with_depth(1);
        // In-memory executor has no store: everything is 404, nothing panics.
        assert_eq!(get(&state, "/artifacts/annual-summary/0123456789abcdef").status(), 404);
        assert_eq!(get(&state, "/artifacts/..%2F..%2Fetc/0123456789abcdef").status(), 404);
        assert_eq!(get(&state, "/artifacts/UPPER/0123456789abcdef").status(), 404);
        assert_eq!(get(&state, "/artifacts/annual-summary/xyz").status(), 404);
    }

    #[test]
    fn endpoint_classes_are_bounded() {
        assert_eq!(endpoint_class("/jobs/0123456789abcdef"), "/jobs/{id}");
        assert_eq!(endpoint_class("/artifacts/a/b"), "/artifacts/{kind}/{hash}");
        assert_eq!(endpoint_class("/metrics"), "/metrics");
        assert_eq!(endpoint_class("/episodes"), "/episodes");
        assert_eq!(endpoint_class("/episodes/0123456789abcdef"), "/episodes/{id}");
        assert_eq!(endpoint_class("/episodes/0123456789abcdef/step"), "/episodes/{id}/step");
        assert_eq!(endpoint_class("/a/b/c/d"), "other");
    }

    #[test]
    fn episode_create_is_idempotent_and_steps_match_local_bytes() {
        let (state, _rx) = state_with_depth(1);
        let spec = episode_spec(7);
        let id = spec.digest().to_string();
        let wrapped = serde_json::to_vec(&obj(vec![("episode", spec.to_value())])).unwrap();
        assert_eq!(post(&state, "/episodes", &wrapped).status(), 201);
        // Same spec again (wrapped or bare): the live episode answers.
        assert_eq!(post(&state, "/episodes", &wrapped).status(), 200);
        let bare = serde_json::to_vec(&spec).unwrap();
        assert_eq!(post(&state, "/episodes", &bare).status(), 200);
        let status_body = String::from_utf8(body_of(get(&state, &format!("/episodes/{id}")))).unwrap();
        assert!(status_body.contains("\"state\": \"running\"") || status_body.contains("running"));
        assert!(status_body.contains("observation"));

        // A served step is byte-identical to the same step taken locally.
        let mut local = Episode::new(&spec).expect("valid spec");
        let action = Action { setpoint_c: 28.0, active_servers: 48 };
        let action_body = serde_json::to_vec(&action).unwrap();
        let steps = spec.steps();
        for _ in 0..steps {
            let reply = post(&state, &format!("/episodes/{id}/step"), &action_body);
            assert_eq!(reply.status(), 200);
            let expected =
                serde_json::to_string(&local.step(&action).expect("not done")).unwrap();
            assert_eq!(String::from_utf8(body_of(reply)).unwrap(), expected);
        }
        // Past the horizon the episode is done: stepping is a conflict,
        // but its status record is still served.
        assert_eq!(post(&state, &format!("/episodes/{id}/step"), &action_body).status(), 409);
        let done_body = String::from_utf8(body_of(get(&state, &format!("/episodes/{id}")))).unwrap();
        assert!(done_body.contains("done"));
    }

    #[test]
    fn step_on_unknown_episode_is_404_and_bad_bodies_are_400() {
        let (state, _rx) = state_with_depth(1);
        let action = serde_json::to_vec(&Action { setpoint_c: 30.0, active_servers: 64 }).unwrap();
        // The hardening case: a step against an id that was never created
        // (or was evicted) is a clean 404, not a 500.
        assert_eq!(post(&state, "/episodes/0123456789abcdef/step", &action).status(), 404);
        assert_eq!(get(&state, "/episodes/0123456789abcdef").status(), 404);
        assert_eq!(post(&state, "/episodes", b"{not json").status(), 400);
        assert_eq!(post(&state, "/episodes", b"{\"episode\": 3}").status(), 400);
        // Invalid spec values (horizon 0) are a 400 up front.
        let mut bad = episode_spec(7);
        bad.horizon_days = 0;
        let bad_body = serde_json::to_vec(&bad).unwrap();
        let reply = post(&state, "/episodes", &bad_body);
        assert_eq!(reply.status(), 400);
        assert!(String::from_utf8(body_of(reply)).unwrap().contains("bad episode spec"));
        // Wrong method on every episode route is 405, not 404.
        for target in ["/episodes", "/episodes/abc", "/episodes/abc/step"] {
            let req = Request {
                method: "DELETE".to_string(),
                target: target.to_string(),
                version: crate::http::HttpVersion::Http11,
                headers: vec![],
                body: vec![],
            };
            assert_eq!(handle(&state, &req).status(), 405, "{target}");
        }
    }

    #[test]
    fn concurrent_creates_of_one_spec_make_one_episode() {
        let (state, _rx) = state_with_depth(1);
        let body = serde_json::to_vec(&episode_spec(5)).unwrap();
        let barrier = std::sync::Barrier::new(2);
        let mut statuses: Vec<u16> = std::thread::scope(|scope| {
            let creates: Vec<_> = (0..2)
                .map(|_| {
                    scope.spawn(|| {
                        barrier.wait();
                        post(&state, "/episodes", &body).status()
                    })
                })
                .collect();
            creates.into_iter().map(|c| c.join().expect("create panicked")).collect()
        });
        statuses.sort_unstable();
        assert_eq!(statuses, [200, 201], "one create builds the episode, the other finds it");
        assert_eq!(state.episodes.lock().len(), 1);
    }

    #[test]
    fn episode_registry_is_bounded_and_drains() {
        let cfg = ServeConfig { max_episodes: 1, ..ServeConfig::default() };
        let (state, _rx) = state_with_cfg(cfg, 1);
        let first = episode_spec(1);
        let first_id = first.digest().to_string();
        let body1 = serde_json::to_vec(&first).unwrap();
        assert_eq!(post(&state, "/episodes", &body1).status(), 201);
        // Registry full of *running* episodes: shed with Retry-After.
        let body2 = serde_json::to_vec(&episode_spec(2)).unwrap();
        let reply = post(&state, "/episodes", &body2);
        assert_eq!(reply.status(), 503);
        let Reply::Full(resp) = reply else { panic!() };
        assert_eq!(resp.header("retry-after"), Some("1"));
        // Finish the first episode; it becomes evictable and the second
        // episode's creation succeeds.
        let action = serde_json::to_vec(&Action { setpoint_c: 30.0, active_servers: 64 }).unwrap();
        for _ in 0..first.steps() {
            assert_eq!(post(&state, &format!("/episodes/{first_id}/step"), &action).status(), 200);
        }
        assert_eq!(post(&state, "/episodes", &body2).status(), 201);
        // The finished first episode was evicted to make room.
        assert_eq!(get(&state, &format!("/episodes/{first_id}")).status(), 404);
        // A draining daemon refuses new episodes.
        state.begin_shutdown();
        let body3 = serde_json::to_vec(&episode_spec(3)).unwrap();
        assert_eq!(post(&state, "/episodes", &body3).status(), 503);
    }
}
