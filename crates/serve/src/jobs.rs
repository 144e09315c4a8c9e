//! Job submission: a bounded work queue in front of the persistent
//! executor, plus the tracker that answers `GET /jobs/{id}`.
//!
//! A submitted job is an [`AnnualJob`] spec or the spec of a registered
//! [`Campaign`] kind (see [`crate::campaign_registry`]); its content
//! digest is its public id, so resubmitting the same spec is idempotent
//! (same id, and the artifact store serves the repeat without
//! re-execution). The queue is a `sync_channel` bounded at the configured
//! depth — when it is full the daemon answers `503 Retry-After` instead of
//! buffering without end.

use std::collections::BTreeMap;
use std::fmt::Debug;
use std::sync::mpsc::{Receiver, SyncSender, TrySendError};

use coolair_runner::{run_campaign, Campaign, Digest, Executor, Job, JobResult};
use coolair_sim::jobs::AnnualJob;
use coolair_telemetry::Telemetry;
use parking_lot::Mutex;
use serde::{Serialize, Value};

use crate::events::EventBus;

/// Lifecycle of a submitted job.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum JobState {
    /// Accepted, waiting for a worker.
    Queued,
    /// Executing on a worker.
    Running,
    /// Finished; its summary is available.
    Done,
    /// Exhausted its attempt budget.
    Failed,
}

impl JobState {
    /// Lowercase wire name.
    #[must_use]
    pub fn as_str(self) -> &'static str {
        match self {
            JobState::Queued => "queued",
            JobState::Running => "running",
            JobState::Done => "done",
            JobState::Failed => "failed",
        }
    }
}

impl Serialize for JobState {
    fn to_value(&self) -> Value {
        Value::Str(self.as_str().to_string())
    }
}

/// One tracked submission.
#[derive(Debug, Clone)]
pub struct JobRecord {
    /// Public id (the spec digest, 16 hex digits).
    pub id: String,
    /// Human label (`system @ location`).
    pub label: String,
    /// Current state.
    pub state: JobState,
    /// Failure message, when `state == failed`.
    pub error: Option<String>,
    /// The annual summary, when `state == done`.
    pub result: Option<Value>,
}

impl Serialize for JobRecord {
    // Hand-rolled so absent `error`/`result` are omitted rather than
    // serialized as `null` (the vendored derive has no `skip` attribute).
    fn to_value(&self) -> Value {
        let mut map = vec![
            ("id".to_string(), Value::Str(self.id.clone())),
            ("label".to_string(), Value::Str(self.label.clone())),
            ("state".to_string(), self.state.to_value()),
        ];
        if let Some(error) = &self.error {
            map.push(("error".to_string(), Value::Str(error.clone())));
        }
        if let Some(result) = &self.result {
            map.push(("result".to_string(), result.clone()));
        }
        Value::Map(map)
    }
}

/// Thread-safe id → record map. `BTreeMap` so `GET /jobs` lists in
/// stable order.
#[derive(Debug, Default)]
pub struct JobTracker {
    records: Mutex<BTreeMap<String, JobRecord>>,
}

impl JobTracker {
    /// Inserts or replaces a record.
    pub fn put(&self, record: JobRecord) {
        self.records.lock().insert(record.id.clone(), record);
    }

    /// Removes a record.
    pub fn remove(&self, id: &str) {
        self.records.lock().remove(id);
    }

    /// Updates a record in place.
    pub fn update(&self, id: &str, f: impl FnOnce(&mut JobRecord)) {
        if let Some(record) = self.records.lock().get_mut(id) {
            f(record);
        }
    }

    /// A record by id.
    #[must_use]
    pub fn get(&self, id: &str) -> Option<JobRecord> {
        self.records.lock().get(id).cloned()
    }

    /// Every record, id-ordered.
    #[must_use]
    pub fn list(&self) -> Vec<JobRecord> {
        self.records.lock().values().cloned().collect()
    }
}

/// The campaign registry: expands to an array holding `$entry!(Spec)` for
/// every registered [`Campaign`] kind, in `POST /jobs` precedence order.
///
/// `POST /jobs`, the store fallback of `GET /jobs/{id}`, and the CLI's
/// campaign subcommands and `coolair report` all walk this one list, each
/// through its own `$entry` macro (callers name the campaign crates as
/// dependencies). Adding a campaign kind is its crate, implementing
/// [`Campaign`], plus one line here.
#[macro_export]
macro_rules! campaign_registry {
    ($entry:ident) => {
        [
            $entry!(::coolair_tune::TuneSpec),
            $entry!(::coolair_fleet::FleetSpec),
            $entry!(::coolair_learn::LearnSpec),
        ]
    };
}

/// A campaign spec with its kind erased, so one queue arm and one ticket
/// runner serve every registered kind. Implemented for every
/// [`Campaign`].
pub trait QueuedCampaign: Debug + Send {
    /// The spec digest (the public job id).
    fn digest(&self) -> Digest;

    /// Human label for the tracker.
    fn label(&self) -> String;

    /// Runs the campaign through [`run_campaign`] (panics fenced, report
    /// artifact stored) and renders the outcome as the job's result.
    ///
    /// # Errors
    ///
    /// The run's failure message.
    fn run(&self, executor: &Executor, telemetry: &Telemetry) -> Result<Value, String>;
}

impl<C: Campaign> QueuedCampaign for C {
    fn digest(&self) -> Digest {
        Campaign::digest(self)
    }

    fn label(&self) -> String {
        Campaign::label(self)
    }

    fn run(&self, executor: &Executor, telemetry: &Telemetry) -> Result<Value, String> {
        run_campaign(self, executor, telemetry).map(|outcome| outcome.to_value())
    }
}

/// What a ticket carries: one annual simulation, or a whole campaign. A
/// campaign occupies its worker for the full run, but its evaluations
/// flow through the same shared executor, so they land in (and are served
/// from) the same artifact store as annual jobs. Both are boxed — specs
/// are hundreds of bytes and the enum moves through a bounded channel.
#[derive(Debug)]
pub enum QueuedJob {
    /// A single annual simulation.
    Annual(Box<AnnualJob>),
    /// A registered campaign (robust tune, fleet, learn, ...).
    Campaign(Box<dyn QueuedCampaign>),
}

impl QueuedJob {
    /// Content digest — doubles as the public job id.
    #[must_use]
    pub fn digest(&self) -> Digest {
        match self {
            QueuedJob::Annual(job) => job.digest(),
            QueuedJob::Campaign(spec) => spec.digest(),
        }
    }

    /// Human label for the tracker.
    #[must_use]
    pub fn label(&self) -> String {
        match self {
            QueuedJob::Annual(job) => job.label(),
            QueuedJob::Campaign(spec) => spec.label(),
        }
    }

    /// Runs the job on the shared executor; the result is what the
    /// tracker records. Campaigns run on the daemon's telemetry, so their
    /// counters surface on `/metrics`.
    fn run(&self, executor: &Executor, telemetry: &Telemetry) -> Result<Value, String> {
        match self {
            QueuedJob::Annual(job) => match executor.run(std::slice::from_ref(&**job)).pop() {
                Some(JobResult::Computed(summary) | JobResult::Cached(summary)) => {
                    Ok(summary.to_value())
                }
                Some(JobResult::Failed { error, .. }) => Err(error),
                None => Err("executor returned no result".to_string()),
            },
            QueuedJob::Campaign(spec) => spec.run(executor, telemetry),
        }
    }
}

/// A queued unit of work: the spec plus its precomputed id.
#[derive(Debug)]
pub struct JobTicket {
    /// The spec digest (also the tracker key).
    pub digest: Digest,
    /// The job spec.
    pub job: QueuedJob,
}

/// Outcome of trying to enqueue a submission.
#[derive(Debug, PartialEq, Eq)]
pub enum EnqueueOutcome {
    /// Queued; a worker will pick it up.
    Accepted,
    /// The work queue is at capacity — answer `503 Retry-After`.
    Saturated,
    /// The daemon is draining — no new work is accepted.
    Draining,
}

/// The submission side of the work queue. The sender lives behind a
/// mutex-guarded `Option` so shutdown can drop it: workers then drain
/// what is buffered and exit (the "finish in-flight jobs" half of
/// graceful drain).
#[derive(Debug)]
pub struct JobQueue {
    tx: Mutex<Option<SyncSender<JobTicket>>>,
}

impl JobQueue {
    /// Wraps a bounded sender.
    #[must_use]
    pub fn new(tx: SyncSender<JobTicket>) -> Self {
        JobQueue { tx: Mutex::new(Some(tx)) }
    }

    /// Tries to enqueue without blocking.
    #[must_use]
    pub fn try_submit(&self, ticket: JobTicket) -> EnqueueOutcome {
        let guard = self.tx.lock();
        let Some(tx) = guard.as_ref() else { return EnqueueOutcome::Draining };
        match tx.try_send(ticket) {
            Ok(()) => EnqueueOutcome::Accepted,
            Err(TrySendError::Full(_)) => EnqueueOutcome::Saturated,
            Err(TrySendError::Disconnected(_)) => EnqueueOutcome::Draining,
        }
    }

    /// Drops the sender: workers drain the buffered backlog and exit.
    pub fn close(&self) {
        self.tx.lock().take();
    }
}

/// Publishes a job's current tracker record onto the event bus as one
/// NDJSON line. The line is the exact serialization `GET /jobs/{id}`
/// answers, so the final event of a stream is byte-identical to a
/// subsequent poll. `close` marks the job's log terminal.
pub fn publish_record(bus: &EventBus, tracker: &JobTracker, id: &str, close: bool) {
    if let Some(record) = tracker.get(id) {
        if let Ok(line) = serde_json::to_string(&record.to_value()) {
            bus.publish(id, line, close);
        }
    }
}

/// One worker: pulls tickets until the queue closes *and* drains, runs
/// each on the shared executor, and records the outcome. Successful
/// outputs reach the artifact store (when one is attached) before the
/// tracker records them. Every state transition is mirrored onto the
/// event bus for `GET /jobs/{id}/events` subscribers.
pub fn job_worker(
    rx: &Mutex<Receiver<JobTicket>>,
    executor: &Executor,
    tracker: &JobTracker,
    telemetry: &Telemetry,
    bus: &EventBus,
) {
    loop {
        // Hold the lock only for the take, not for the run.
        let ticket = match rx.lock().recv() {
            Ok(t) => t,
            Err(_) => return, // closed and drained
        };
        let id = ticket.digest.to_string();
        tracker.update(&id, |r| r.state = JobState::Running);
        publish_record(bus, tracker, &id, false);
        let result = ticket.job.run(executor, telemetry);
        tracker.update(&id, |r| match result {
            Ok(value) => {
                r.state = JobState::Done;
                r.result = Some(value);
            }
            Err(error) => {
                r.state = JobState::Failed;
                r.error = Some(error);
            }
        });
        // Terminal transition (done or failed): close the log so streams
        // deliver the final record and end.
        publish_record(bus, tracker, &id, true);
    }
}

/// Builds the ticket for a spec (digest is computed once, here).
#[must_use]
pub fn ticket_for(job: QueuedJob) -> JobTicket {
    JobTicket { digest: job.digest(), job }
}

#[cfg(test)]
mod tests {
    use super::*;
    use coolair_fleet::FleetSpec;
    use coolair_learn::LearnSpec;
    use coolair_tune::TuneSpec;
    use std::sync::mpsc::sync_channel;

    fn record(id: &str) -> JobRecord {
        JobRecord {
            id: id.to_string(),
            label: "probe".to_string(),
            state: JobState::Queued,
            error: None,
            result: None,
        }
    }

    #[test]
    fn tracker_put_update_get_list() {
        let tracker = JobTracker::default();
        tracker.put(record("bb"));
        tracker.put(record("aa"));
        tracker.update("aa", |r| r.state = JobState::Done);
        assert_eq!(tracker.get("aa").unwrap().state, JobState::Done);
        assert_eq!(tracker.get("bb").unwrap().state, JobState::Queued);
        assert!(tracker.get("zz").is_none());
        let ids: Vec<String> = tracker.list().into_iter().map(|r| r.id).collect();
        assert_eq!(ids, vec!["aa", "bb"]);
    }

    #[test]
    fn queue_saturates_then_drains() {
        let (tx, rx) = sync_channel(1);
        let queue = JobQueue::new(tx);
        let job = || {
            ticket_for(QueuedJob::Annual(Box::new(AnnualJob {
                system: coolair_sim::SystemSpec::Baseline,
                location: coolair_weather::Location::newark(),
                trace: coolair_workload::TraceKind::Facebook,
                annual: coolair_sim::AnnualConfig::quick(),
            })))
        };
        assert_eq!(queue.try_submit(job()), EnqueueOutcome::Accepted);
        assert_eq!(queue.try_submit(job()), EnqueueOutcome::Saturated);
        queue.close();
        assert_eq!(queue.try_submit(job()), EnqueueOutcome::Draining);
        // The buffered ticket is still drainable after close.
        assert!(rx.recv().is_ok());
        assert!(rx.recv().is_err());
    }

    #[test]
    fn worker_runs_a_tune_ticket_and_its_counters_reach_the_daemon_telemetry() {
        let telemetry = Telemetry::memory();
        let executor = Executor::in_memory(2, telemetry.clone());
        let tracker = JobTracker::default();
        // Smallest possible tune: one round, one mutation per round.
        let mut spec = TuneSpec::smoke(11);
        spec.rounds = 1;
        spec.iters = 1;
        let ticket = ticket_for(QueuedJob::Campaign(Box::new(spec.clone())));
        let id = ticket.digest.to_string();
        assert_eq!(id, spec.digest().to_string());
        tracker.put(JobRecord {
            id: id.clone(),
            label: ticket.job.label(),
            state: JobState::Queued,
            error: None,
            result: None,
        });
        let (tx, rx) = sync_channel(1);
        tx.send(ticket).expect("enqueue");
        drop(tx); // worker drains the one ticket, then exits
        let rx = Mutex::new(rx);
        let bus = EventBus::default();
        job_worker(&rx, &executor, &tracker, &telemetry, &bus);
        let record = tracker.get(&id).expect("tracked");
        assert_eq!(record.state, JobState::Done);
        assert_eq!(record.label, "robust tune (seed 11)");
        // The worker mirrored running→done onto the event bus, and the
        // final line is byte-identical to the tracker's rendering.
        let batch = bus.fetch(&id, 0);
        assert!(batch.finished, "terminal publish closes the log");
        assert_eq!(batch.lines.len(), 2);
        assert_eq!(
            batch.lines.last().map(String::as_str),
            serde_json::to_string(&record.to_value()).ok().as_deref()
        );
        let Some(Value::Map(result)) = record.result else {
            panic!("tune result should be a JSON object")
        };
        assert!(result.iter().any(|(k, _)| k == "robust_worst_violation"));
        // The tune ran on the daemon's telemetry: memo traffic is visible.
        assert!(telemetry.metrics().counter("tune.memo.miss") > 0);
    }

    #[test]
    fn worker_runs_a_learn_ticket_and_its_memo_traffic_reaches_the_daemon_telemetry() {
        let telemetry = Telemetry::memory();
        let executor = Executor::in_memory(2, telemetry.clone());
        let tracker = JobTracker::default();
        // Smallest possible learn run: one scenario, one-generation CEM,
        // one Q episode.
        let mut spec = LearnSpec::smoke(11);
        spec.scenarios.truncate(1);
        spec.cem.iters = 1;
        spec.cem.population = 3;
        spec.cem.elites = 1;
        spec.q.episodes = 1;
        spec.q.checkpoint_every = 1;
        let ticket = ticket_for(QueuedJob::Campaign(Box::new(spec.clone())));
        let id = ticket.digest.to_string();
        assert_eq!(id, spec.digest().to_string());
        tracker.put(JobRecord {
            id: id.clone(),
            label: ticket.job.label(),
            state: JobState::Queued,
            error: None,
            result: None,
        });
        let (tx, rx) = sync_channel(1);
        tx.send(ticket).expect("enqueue");
        drop(tx); // worker drains the one ticket, then exits
        let rx = Mutex::new(rx);
        job_worker(&rx, &executor, &tracker, &telemetry, &EventBus::default());
        let record = tracker.get(&id).expect("tracked");
        assert_eq!(record.state, JobState::Done);
        assert_eq!(record.label, "learn benchmark (seed 11)");
        let Some(Value::Map(result)) = record.result else {
            panic!("learn result should be a JSON object")
        };
        assert!(result.iter().any(|(k, _)| k == "leaderboard"));
        assert!(result.iter().any(|(k, _)| k == "best_learned"));
        // The run executed on the daemon's telemetry: rollouts counted.
        assert!(telemetry.metrics().counter("learn.rollout.total") > 0);
    }

    #[test]
    fn worker_runs_a_fleet_ticket_and_its_epochs_reach_the_daemon_telemetry() {
        let telemetry = Telemetry::memory();
        let executor = Executor::in_memory(2, telemetry.clone());
        let tracker = JobTracker::default();
        let spec = FleetSpec::smoke(11);
        let ticket = ticket_for(QueuedJob::Campaign(Box::new(spec.clone())));
        let id = ticket.digest.to_string();
        assert_eq!(id, spec.digest().to_string());
        tracker.put(JobRecord {
            id: id.clone(),
            label: ticket.job.label(),
            state: JobState::Queued,
            error: None,
            result: None,
        });
        let (tx, rx) = sync_channel(1);
        tx.send(ticket).expect("enqueue");
        drop(tx); // worker drains the one ticket, then exits
        let rx = Mutex::new(rx);
        job_worker(&rx, &executor, &tracker, &telemetry, &EventBus::default());
        let record = tracker.get(&id).expect("tracked");
        assert_eq!(record.state, JobState::Done);
        assert_eq!(record.label, "fleet campaign (4 containers, seed 11)");
        let Some(Value::Map(result)) = record.result else {
            panic!("fleet result should be a JSON object")
        };
        assert!(result.iter().any(|(k, _)| k == "fleet"));
        assert!(result.iter().any(|(k, _)| k == "independent"));
        // The campaign ran on the daemon's telemetry: epoch events count.
        assert!(telemetry.metrics().counter("fleet-epoch") > 0);
    }
}
