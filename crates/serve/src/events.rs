//! The job-event bus behind `GET /jobs/{id}/events`.
//!
//! Every submitted job owns a bounded, append-only log of NDJSON lines —
//! one line per state transition, each the full [`crate::jobs::JobRecord`]
//! rendering at that moment, so the final line of a stream is
//! byte-identical to what `GET /jobs/{id}` answers. Publishers (the
//! submit handler, job workers) append lines; subscribers (event-stream
//! connections parked on an event loop) hold a cursor into the log and
//! are woken through their loop's `eventfd` when new lines land.
//!
//! Bounds, everywhere: a log keeps at most [`MAX_LINES`] lines (older
//! lines are dropped from the front and accounted in `dropped` — a
//! subscriber that falls behind skips ahead rather than buffering without
//! end), and the bus keeps at most [`MAX_LOGS`] logs (closed,
//! subscriber-free logs are evicted first). Job state itself is never
//! lost — the tracker and artifact store stay authoritative; the bus is
//! purely the live-delivery channel.

use std::collections::{BTreeMap, VecDeque};
use std::fs::File;
use std::io::Write as _;

use parking_lot::Mutex;

/// Per-job line cap; a slow subscriber skips dropped lines.
pub const MAX_LINES: usize = 128;
/// Bus-wide log cap; closed, unwatched logs are evicted beyond it.
pub const MAX_LOGS: usize = 256;

/// A subscriber's address: which loop to wake, and which connection
/// token on that loop to pump.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Subscriber {
    loop_id: usize,
    token: u64,
}

#[derive(Debug, Default)]
struct JobLog {
    /// Absolute index of `lines[0]` (grows as old lines are dropped).
    start: u64,
    lines: VecDeque<String>,
    /// Lines dropped from the front over the log's lifetime.
    dropped: u64,
    /// No further lines will ever be published (job reached a terminal
    /// state, or the daemon is draining).
    closed: bool,
    subscribers: Vec<Subscriber>,
}

/// What a pump reads from a log: the lines past its cursor, the new
/// cursor, and whether the stream is over.
#[derive(Debug)]
pub struct EventBatch {
    /// New lines since the caller's cursor (possibly empty).
    pub lines: Vec<String>,
    /// Cursor to resume from next time.
    pub cursor: u64,
    /// The log is closed and fully delivered — terminate the stream.
    pub finished: bool,
}

/// One event loop's wakeup channel: a dup of its `eventfd` plus the
/// queue of connection tokens with pending event-log activity.
#[derive(Debug)]
struct LoopChannel {
    waker: File,
    pending: Mutex<Vec<u64>>,
}

/// The bus. One per daemon, shared by handlers, job workers and loops.
#[derive(Debug, Default)]
pub struct EventBus {
    logs: Mutex<BTreeMap<String, JobLog>>,
    loops: Mutex<Vec<LoopChannel>>,
}

impl EventBus {
    /// Registers an event loop's wakeup fd (a dup of the `eventfd` the
    /// loop polls) and returns its `loop_id` for subscriptions.
    pub fn register_loop(&self, waker: File) -> usize {
        let mut loops = self.loops.lock();
        loops.push(LoopChannel { waker, pending: Mutex::new(Vec::new()) });
        loops.len() - 1
    }

    fn wake(channel: &LoopChannel) {
        // An eventfd write can only fail if the counter is saturated —
        // in which case the loop is already due a wakeup.
        let _ = (&channel.waker).write_all(&1u64.to_ne_bytes());
    }

    /// Wakes every registered loop (drain uses this so parked streams
    /// and idle loops observe the shutdown flag immediately).
    pub fn wake_all(&self) {
        for channel in self.loops.lock().iter() {
            Self::wake(channel);
        }
    }

    /// Takes the pending connection tokens queued for `loop_id` since the
    /// last call (the loop calls this after draining its eventfd).
    #[must_use]
    pub fn take_pending(&self, loop_id: usize) -> Vec<u64> {
        let loops = self.loops.lock();
        match loops.get(loop_id) {
            Some(channel) => std::mem::take(&mut channel.pending.lock()),
            None => Vec::new(),
        }
    }

    /// Appends a line to a job's log (creating the log if needed) and
    /// wakes every subscriber's loop. `close` marks the log terminal —
    /// streams end once they have delivered through it.
    pub fn publish(&self, id: &str, line: String, close: bool) {
        let subscribers: Vec<Subscriber> = {
            let mut logs = self.logs.lock();
            if !logs.contains_key(id) {
                Self::make_room(&mut logs);
                logs.insert(id.to_string(), JobLog::default());
            }
            let log = logs.get_mut(id).expect("just ensured");
            if log.closed {
                return; // terminal is terminal; late lines are dropped
            }
            log.lines.push_back(line);
            while log.lines.len() > MAX_LINES {
                log.lines.pop_front();
                log.start += 1;
                log.dropped += 1;
            }
            log.closed = close;
            log.subscribers.clone()
        };
        self.notify(&subscribers);
    }

    /// Creates a *closed* log seeded with one line, if no log exists yet.
    /// This is how jobs from a previous daemon life (tracker empty,
    /// artifact store authoritative) get a stream: one terminal record,
    /// then end-of-stream.
    pub fn seed_closed(&self, id: &str, line: String) {
        let mut logs = self.logs.lock();
        if logs.contains_key(id) {
            return;
        }
        Self::make_room(&mut logs);
        let mut log = JobLog::default();
        log.lines.push_back(line);
        log.closed = true;
        logs.insert(id.to_string(), log);
    }

    /// Drops a job's log (a submission that was never queued), waking any
    /// subscriber so its stream ends.
    pub fn retract(&self, id: &str) {
        let subscribers = self.logs.lock().remove(id).map(|log| log.subscribers);
        self.notify(&subscribers.unwrap_or_default());
    }

    /// Whether a log exists for `id`.
    #[must_use]
    pub fn has_log(&self, id: &str) -> bool {
        self.logs.lock().contains_key(id)
    }

    /// Subscribes a connection to a job's log; returns the cursor to
    /// start reading from (the log's oldest retained line, so a fresh
    /// subscriber replays the whole retained history), or `None` when no
    /// log exists.
    #[must_use]
    pub fn subscribe(&self, id: &str, loop_id: usize, token: u64) -> Option<u64> {
        let mut logs = self.logs.lock();
        let log = logs.get_mut(id)?;
        let sub = Subscriber { loop_id, token };
        if !log.subscribers.contains(&sub) {
            log.subscribers.push(sub);
        }
        Some(log.start)
    }

    /// Drops a subscription (connection closed or stream finished).
    pub fn unsubscribe(&self, id: &str, loop_id: usize, token: u64) {
        let mut logs = self.logs.lock();
        if let Some(log) = logs.get_mut(id) {
            log.subscribers.retain(|s| *s != Subscriber { loop_id, token });
        }
    }

    /// Reads everything past `cursor`. A cursor that fell behind the
    /// retention window skips ahead (the dropped count is the log's
    /// overflow accounting, not the subscriber's).
    #[must_use]
    pub fn fetch(&self, id: &str, cursor: u64) -> EventBatch {
        let logs = self.logs.lock();
        let Some(log) = logs.get(id) else {
            // Log evicted mid-stream (only closed logs are): finish.
            return EventBatch { lines: Vec::new(), cursor, finished: true };
        };
        let from = cursor.max(log.start);
        let skip = (from - log.start) as usize;
        let lines: Vec<String> = log.lines.iter().skip(skip).cloned().collect();
        let cursor = from + lines.len() as u64;
        EventBatch { lines, cursor, finished: log.closed }
    }

    fn notify(&self, subscribers: &[Subscriber]) {
        if subscribers.is_empty() {
            return;
        }
        let loops = self.loops.lock();
        let mut woken = vec![false; loops.len()];
        for sub in subscribers {
            if let Some(channel) = loops.get(sub.loop_id) {
                channel.pending.lock().push(sub.token);
                if !woken[sub.loop_id] {
                    Self::wake(channel);
                    woken[sub.loop_id] = true;
                }
            }
        }
    }

    /// Evicts closed, unwatched logs once the bus is at capacity. Open
    /// logs are never evicted — their population is bounded by the job
    /// queue depth plus running workers.
    fn make_room(logs: &mut BTreeMap<String, JobLog>) {
        if logs.len() >= MAX_LOGS {
            logs.retain(|_, log| !log.closed || !log.subscribers.is_empty());
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Read as _;

    #[test]
    fn publish_replay_and_close_round_trip() {
        let bus = EventBus::default();
        bus.publish("job-a", "one".into(), false);
        bus.publish("job-a", "two".into(), false);
        let cursor = bus.subscribe("job-a", 0, 42).expect("log exists");
        let batch = bus.fetch("job-a", cursor);
        assert_eq!(batch.lines, vec!["one", "two"]);
        assert!(!batch.finished);
        bus.publish("job-a", "three".into(), true);
        let batch = bus.fetch("job-a", batch.cursor);
        assert_eq!(batch.lines, vec!["three"]);
        assert!(batch.finished);
        // Terminal is terminal: late lines vanish.
        bus.publish("job-a", "late".into(), false);
        assert!(bus.fetch("job-a", batch.cursor).lines.is_empty());
    }

    #[test]
    fn overflow_drops_oldest_and_cursors_skip_ahead() {
        let bus = EventBus::default();
        let cursor = {
            bus.publish("j", "line-0".into(), false);
            bus.subscribe("j", 0, 1).expect("log")
        };
        for i in 1..=(MAX_LINES + 10) {
            bus.publish("j", format!("line-{i}"), false);
        }
        let batch = bus.fetch("j", cursor);
        assert_eq!(batch.lines.len(), MAX_LINES);
        assert_eq!(batch.lines.first().map(String::as_str), Some("line-11"));
        // The skipped-ahead cursor resumes cleanly.
        bus.publish("j", "fresh".into(), false);
        assert_eq!(bus.fetch("j", batch.cursor).lines, vec!["fresh"]);
    }

    #[test]
    fn subscribers_are_woken_through_their_loop_eventfd() {
        let bus = EventBus::default();
        let efd = crate::sys::new_eventfd().expect("eventfd");
        let loop_id = bus.register_loop(File::from(efd.try_clone().expect("dup")));
        bus.publish("j", "queued".into(), false);
        assert_eq!(bus.subscribe("j", loop_id, 77), Some(0));
        bus.publish("j", "running".into(), false);
        assert_eq!(bus.take_pending(loop_id), vec![77]);
        let mut drain = File::from(efd);
        let mut count = [0u8; 8];
        drain.read_exact(&mut count).expect("woken");
        assert!(u64::from_ne_bytes(count) >= 1);
        bus.unsubscribe("j", loop_id, 77);
        bus.publish("j", "done".into(), true);
        assert!(bus.take_pending(loop_id).is_empty());
    }

    #[test]
    fn seeded_closed_logs_serve_store_only_jobs_and_bus_stays_bounded() {
        let bus = EventBus::default();
        bus.seed_closed("old", "{\"state\":\"done\"}".into(), );
        let batch = bus.fetch("old", 0);
        assert_eq!(batch.lines.len(), 1);
        assert!(batch.finished);
        // Seeding again is a no-op.
        bus.seed_closed("old", "other".into());
        assert_eq!(bus.fetch("old", 0).lines, vec!["{\"state\":\"done\"}"]);
        // Capacity: closed unwatched logs are evicted, the newest insert
        // always lands.
        for i in 0..(MAX_LOGS + 5) {
            bus.seed_closed(&format!("job-{i:04}"), "x".into());
        }
        assert!(bus.has_log(&format!("job-{:04}", MAX_LOGS + 4)));
        let count = bus.logs.lock().len();
        assert!(count <= MAX_LOGS, "bus grew past its bound: {count}");
    }
}
