//! The Hadoop cluster execution model.
//!
//! A slot-based MapReduce simulator over the container's 64 servers, with
//! the paper's three power states, the Covering Subset, spatial placement by
//! an external server priority order, temporal scheduling via per-job
//! earliest-start times, and disk power-cycle accounting (§4.2).

use std::collections::VecDeque;

use coolair_units::{SimDuration, SimTime, Watts};
use serde::{Deserialize, Serialize};

use crate::job::{Job, JobId};
use crate::power_state::PowerState;

/// Cluster configuration.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ClusterConfig {
    /// Total servers.
    pub total_servers: usize,
    /// Number of pods (servers are assigned round-robin blocks:
    /// server *s* belongs to pod `s / (total/pods)`).
    pub pods: usize,
    /// Number of servers in the Covering Subset — the smallest set that
    /// stores a full copy of the dataset and must stay awake for data
    /// availability (§4.2, the Leverich–Kozyrakis scheme). The subset
    /// occupies the first `covering_count` server indices.
    pub covering_count: usize,
    /// How long a decommissioned server waits before sleeping (its data may
    /// still be needed by running jobs).
    pub decommission_grace: SimDuration,
}

impl ClusterConfig {
    /// Parasol's setup: 64 servers in 4 pods, an 8-server covering subset,
    /// 20-minute decommission grace (matching the paper's worst-case
    /// "power-cycle every 20 minutes" analysis).
    #[must_use]
    pub fn parasol() -> Self {
        ClusterConfig {
            total_servers: 64,
            pods: 4,
            covering_count: 8,
            decommission_grace: SimDuration::from_minutes(20),
        }
    }

    /// Servers per pod.
    #[must_use]
    pub fn servers_per_pod(&self) -> usize {
        self.total_servers / self.pods
    }

    /// `true` if server `s` is in the covering subset (the first
    /// `covering_count` servers, which live in the lowest-index pods).
    #[must_use]
    pub fn is_covering(&self, server: usize) -> bool {
        server < self.covering_count
    }

    /// The pod a server belongs to.
    #[must_use]
    pub fn pod_of(&self, server: usize) -> usize {
        server / self.servers_per_pod()
    }
}

impl Default for ClusterConfig {
    fn default() -> Self {
        ClusterConfig::parasol()
    }
}

#[derive(Debug, Clone)]
struct ServerSlot {
    state: PowerState,
    decommissioned_at: Option<SimTime>,
    power_cycles: u64,
}

#[derive(Debug, Clone)]
struct RunningJob {
    job: Job,
    earliest_start: SimTime,
    remaining_map: f64,
    remaining_reduce: f64,
    started: bool,
}

/// Start-delay statistics over completed-or-started jobs.
#[derive(Debug, Clone, Copy, Default, PartialEq, Serialize, Deserialize)]
pub struct DelayStats {
    /// Jobs that have started.
    pub started_jobs: u64,
    /// Total start delay (actual start − submission), seconds.
    pub total_delay_secs: u64,
    /// Largest single start delay, seconds.
    pub max_delay_secs: u64,
}

impl DelayStats {
    /// Mean start delay in seconds (0 when nothing started).
    #[must_use]
    pub fn mean_delay_secs(&self) -> f64 {
        if self.started_jobs == 0 {
            0.0
        } else {
            self.total_delay_secs as f64 / self.started_jobs as f64
        }
    }
}

impl RunningJob {
    fn has_work(&self) -> bool {
        self.remaining_map > 0.0 || self.remaining_reduce > 0.0
    }

    fn current_parallelism(&self) -> usize {
        if self.remaining_map > 0.0 {
            self.job.map_tasks as usize
        } else {
            self.job.reduce_tasks.max(1) as usize
        }
    }

    fn eligible(&self, now: SimTime) -> bool {
        if self.started || self.job.submit > now {
            return self.started;
        }
        if now >= self.earliest_start {
            return true;
        }
        // Never hold a job past its start deadline.
        self.job.latest_start().is_some_and(|l| now >= l)
    }
}

/// Aggregate counters returned by [`Cluster::step`].
#[derive(Debug, Clone, Copy, PartialEq, Default, Serialize, Deserialize)]
pub struct ClusterStats {
    /// Server slots doing work this step.
    pub busy_slots: usize,
    /// Servers in the active state.
    pub active_servers: usize,
    /// Servers awake (active or decommissioned).
    pub awake_servers: usize,
    /// Jobs completed during this step.
    pub completed: u64,
}

/// The cluster simulator.
///
/// A compute tick costs its events, not the server count: the per-state
/// server counts, the last target applied and each pod's power draw are
/// kept up to date as servers change state, so the 64-server walks run
/// only when the target changes or a server is in decommission grace.
#[derive(Debug, Clone)]
pub struct Cluster {
    config: ClusterConfig,
    servers: Vec<ServerSlot>,
    /// Each server's position in the placement priority order (index
    /// order until [`Cluster::set_priority`] installs another).
    rank: Vec<usize>,
    /// Servers in the active state.
    active: usize,
    /// Servers in decommission grace.
    decommissioned: usize,
    /// Servers asleep.
    asleep: usize,
    /// The target [`Cluster::set_active_target`] last applied under the
    /// current priority order. Between two calls only [`Cluster::step`]
    /// changes states, and only from decommissioned to asleep, which the
    /// same target leaves alone, so repeating it is a no-op.
    applied_target: Option<usize>,
    /// Each pod's power draw for the current states and `pod_power_bits`.
    pod_power: Vec<Watts>,
    /// The busy fraction (as bits) `pod_power` was summed for.
    pod_power_bits: u64,
    jobs: VecDeque<RunningJob>,
    /// A job with no positive work was queued since the last step, so
    /// that step drops finished jobs over the whole queue, not just the
    /// prefix it visited.
    workless_queued: bool,
    completed_jobs: u64,
    busy_server_seconds: f64,
    last_busy_fraction: f64,
    deadline_violations: u64,
    late_starts: u64,
    delays: DelayStats,
}

impl Cluster {
    /// Creates a cluster with every server active and no jobs.
    #[must_use]
    pub fn new(config: ClusterConfig) -> Self {
        let servers = (0..config.total_servers)
            .map(|_| ServerSlot {
                state: PowerState::Active,
                decommissioned_at: None,
                power_cycles: 0,
            })
            .collect();
        let mut cluster = Cluster {
            rank: (0..config.total_servers).collect(),
            active: config.total_servers,
            decommissioned: 0,
            asleep: 0,
            applied_target: None,
            pod_power: Vec::with_capacity(config.pods),
            pod_power_bits: 0,
            config,
            servers,
            jobs: VecDeque::new(),
            workless_queued: false,
            completed_jobs: 0,
            busy_server_seconds: 0.0,
            last_busy_fraction: 0.0,
            deadline_violations: 0,
            late_starts: 0,
            delays: DelayStats::default(),
        };
        cluster.sum_pod_power();
        cluster
    }

    /// The cluster's configuration.
    #[must_use]
    pub fn config(&self) -> &ClusterConfig {
        &self.config
    }

    /// Submits a job to run as soon as its submission time arrives.
    pub fn submit(&mut self, job: Job) {
        let submit = job.submit;
        self.submit_with_start(job, submit);
    }

    /// Submits a job that may not start before `earliest_start` — the hook
    /// CoolAir's temporal scheduler uses. The bound is clamped to the job's
    /// start deadline; jobs are *never* delayed beyond it (§3.3).
    pub fn submit_with_start(&mut self, job: Job, earliest_start: SimTime) {
        let earliest = match job.latest_start() {
            Some(latest) if earliest_start > latest => latest,
            _ => earliest_start,
        };
        let earliest = earliest.max(job.submit);
        let queued = RunningJob {
            remaining_map: job.map_work,
            remaining_reduce: job.reduce_work,
            started: false,
            earliest_start: earliest,
            job,
        };
        self.workless_queued |= !queued.has_work();
        self.jobs.push_back(queued);
    }

    /// Servers the queued-and-eligible work could use right now, capped at
    /// the cluster size. The Compute Manager sizes the active set from this.
    #[must_use]
    pub fn demand(&self, now: SimTime) -> usize {
        // The sum only grows, so the scan stops once it reaches the cap.
        let cap = self.config.total_servers;
        let mut d = 0;
        for j in &self.jobs {
            if d >= cap {
                break;
            }
            if j.job.submit <= now && (j.started || j.eligible(now)) {
                d += j.current_parallelism();
            }
        }
        d.min(cap)
    }

    /// Installs the placement priority order: [`Cluster::set_active_target`]
    /// activates servers in this order from then on. The order is checked
    /// here, once, so the per-tick target needs no validation.
    ///
    /// # Panics
    ///
    /// Panics if `priority` is not a permutation of server indices.
    pub fn set_priority(&mut self, priority: &[usize]) {
        assert_eq!(priority.len(), self.servers.len(), "priority must cover all servers");
        let mut seen = vec![false; self.servers.len()];
        for (position, &s) in priority.iter().enumerate() {
            assert!(!seen[s], "priority has duplicate server {s}");
            seen[s] = true;
            self.rank[s] = position;
        }
        self.applied_target = None;
    }

    /// Sets which servers are active. The first `target` servers in the
    /// priority order (index order unless [`Cluster::set_priority`] set
    /// another) become active; the rest are decommissioned and eventually
    /// sleep. Covering-subset servers are always kept active regardless of
    /// the target. Repeating the last target applied returns at once.
    pub fn set_active_target(&mut self, target: usize) {
        if self.applied_target == Some(target) {
            return;
        }
        self.applied_target = Some(target);
        let mut changed = false;
        for (s, slot) in self.servers.iter_mut().enumerate() {
            if self.rank[s] < target || self.config.is_covering(s) {
                match slot.state {
                    PowerState::Active => continue,
                    PowerState::Decommissioned => self.decommissioned -= 1,
                    PowerState::Sleep => self.asleep -= 1,
                }
                slot.state = PowerState::Active;
                slot.decommissioned_at = None;
                self.active += 1;
                changed = true;
            } else if slot.state == PowerState::Active {
                slot.state = PowerState::Decommissioned;
                // Timestamp set lazily at the next step.
                self.active -= 1;
                self.decommissioned += 1;
                changed = true;
            }
        }
        if changed {
            self.sum_pod_power();
        }
    }

    /// Advances execution by `dt` ending at `now + dt`.
    pub fn step(&mut self, now: SimTime, dt: SimDuration) -> ClusterStats {
        let dt_s = dt.as_secs() as f64;

        // Decommissioned servers sleep once their grace expires (sleeping
        // never changes `active`); with none in grace there is nothing to
        // walk.
        let mut slept = false;
        if self.decommissioned > 0 {
            for slot in &mut self.servers {
                if slot.state == PowerState::Decommissioned {
                    match slot.decommissioned_at {
                        None => slot.decommissioned_at = Some(now),
                        Some(t0) if now.saturating_since(t0) >= self.config.decommission_grace => {
                            slot.state = PowerState::Sleep;
                            slot.decommissioned_at = None;
                            slot.power_cycles += 1;
                            self.decommissioned -= 1;
                            self.asleep += 1;
                            slept = true;
                        }
                        _ => {}
                    }
                }
            }
        }
        let awake = self.servers.len() - self.asleep;
        let active = self.active;

        // Allocate slots to eligible jobs in arrival order, up to the first
        // job met with no slot free: only the `visited` prefix can lose work.
        let mut free = active;
        let mut busy = 0usize;
        let mut completed_now = 0u64;
        let mut visited = 0;
        for rj in &mut self.jobs {
            if free == 0 {
                break;
            }
            visited += 1;
            if rj.job.submit > now || !rj.eligible(now) {
                continue;
            }
            if !rj.started {
                rj.started = true;
                let delay = now.saturating_since(rj.job.submit).as_secs();
                self.delays.started_jobs += 1;
                self.delays.total_delay_secs += delay;
                self.delays.max_delay_secs = self.delays.max_delay_secs.max(delay);
                if let Some(latest) = rj.job.latest_start() {
                    if rj.earliest_start > latest {
                        // The scheduler itself broke the §3.3 guarantee.
                        self.deadline_violations += 1;
                    } else if now > latest {
                        // Queueing contention delayed an on-time schedule;
                        // tracked separately (the scheduler honoured the
                        // deadline, the cluster was saturated).
                        self.late_starts += 1;
                    }
                }
            }
            let slots = rj.current_parallelism().min(free);
            let mut budget = slots as f64 * dt_s;
            if rj.remaining_map > 0.0 {
                let used = budget.min(rj.remaining_map);
                rj.remaining_map -= used;
                budget -= used;
            }
            if rj.remaining_map <= 0.0 && budget > 0.0 && rj.remaining_reduce > 0.0 {
                let reduce_slots = (rj.job.reduce_tasks.max(1) as usize).min(slots);
                let reduce_budget = (reduce_slots as f64 * dt_s).min(budget);
                rj.remaining_reduce -= reduce_budget.min(rj.remaining_reduce);
            }
            if rj.remaining_map <= 0.0 && rj.remaining_reduce <= 0.0 {
                completed_now += 1;
            }
            free -= slots;
            busy += slots;
        }
        // Every job that finished was visited (and counted above); a
        // workless submission can sit anywhere and leaves uncounted.
        let bound =
            if std::mem::take(&mut self.workless_queued) { self.jobs.len() } else { visited };
        self.drop_finished(bound);
        self.completed_jobs += completed_now;
        self.busy_server_seconds += busy as f64 * dt_s;
        self.last_busy_fraction = if active > 0 { busy as f64 / active as f64 } else { 0.0 };
        if slept || self.last_busy_fraction.to_bits() != self.pod_power_bits {
            self.sum_pod_power();
        }

        ClusterStats {
            busy_slots: busy,
            active_servers: active,
            awake_servers: awake,
            completed: completed_now,
        }
    }

    /// Drops the jobs with no work left among the first `bound`, keeping
    /// arrival order: kept jobs move back to the end of the prefix, then the
    /// finished ones leave from the front. Jobs past `bound` are not read.
    fn drop_finished(&mut self, bound: usize) {
        let mut kept_from = bound;
        for i in (0..bound).rev() {
            if self.jobs[i].has_work() {
                kept_from -= 1;
                self.jobs.swap(i, kept_from);
            }
        }
        self.jobs.drain(..kept_from);
    }

    /// Per-pod electrical power draw given the current states and the busy
    /// fraction from the last step.
    #[must_use]
    pub fn pod_power(&self) -> Vec<Watts> {
        let mut pods = Vec::new();
        self.write_pod_power(&mut pods);
        pods
    }

    /// [`Cluster::pod_power`] written into `pods` (one entry per pod), so a
    /// caller refreshing the load every tick reuses one buffer.
    pub fn write_pod_power(&self, pods: &mut Vec<Watts>) {
        pods.clear();
        pods.extend_from_slice(&self.pod_power);
    }

    /// Re-sums the pod power cache for the current states and busy
    /// fraction: each pod folds its contiguous block of servers in server
    /// order.
    fn sum_pod_power(&mut self) {
        // Every server draws one of three values; evaluate each once.
        let active = coolair_thermal_server_power(self.last_busy_fraction, false);
        let idle = coolair_thermal_server_power(0.0, false);
        let asleep = coolair_thermal_server_power(0.0, true);
        self.pod_power.clear();
        self.pod_power.extend(self.servers.chunks(self.config.servers_per_pod()).map(|servers| {
            servers.iter().fold(Watts::ZERO, |sum, slot| {
                sum + match slot.state {
                    PowerState::Active => active,
                    PowerState::Decommissioned => idle,
                    PowerState::Sleep => asleep,
                }
            })
        }));
        self.pod_power_bits = self.last_busy_fraction.to_bits();
    }

    /// Total IT power draw.
    #[must_use]
    pub fn total_power(&self) -> Watts {
        self.pod_power().into_iter().sum()
    }

    /// Fraction of servers active (the paper's datacenter "utilization").
    #[must_use]
    pub fn active_fraction(&self) -> f64 {
        self.active as f64 / self.servers.len() as f64
    }

    /// Power state of server `s`.
    ///
    /// # Panics
    ///
    /// Panics if `s` is out of range.
    #[must_use]
    pub fn server_state(&self, s: usize) -> PowerState {
        self.servers[s].state
    }

    /// Jobs completed so far.
    #[must_use]
    pub fn completed_jobs(&self) -> u64 {
        self.completed_jobs
    }

    /// Jobs queued or running.
    #[must_use]
    pub fn outstanding_jobs(&self) -> usize {
        self.jobs.len()
    }

    /// Remaining work in server-seconds.
    #[must_use]
    pub fn pending_work(&self) -> f64 {
        self.jobs.iter().map(|j| j.remaining_map + j.remaining_reduce).sum()
    }

    /// Cumulative busy server-seconds executed.
    #[must_use]
    pub fn busy_server_seconds(&self) -> f64 {
        self.busy_server_seconds
    }

    /// Servers doing work in the last step: its busy fraction times the
    /// active servers, rounded to a count.
    #[must_use]
    pub fn busy_servers(&self) -> usize {
        (self.last_busy_fraction * self.active as f64).round() as usize
    }

    /// Total disk power cycles (sleep entries) across all servers.
    #[must_use]
    pub fn total_power_cycles(&self) -> u64 {
        self.servers.iter().map(|s| s.power_cycles).sum()
    }

    /// The largest power-cycle count on any single server.
    #[must_use]
    pub fn max_power_cycles(&self) -> u64 {
        self.servers.iter().map(|s| s.power_cycles).max().unwrap_or(0)
    }

    /// Jobs whose *scheduled* start exceeded their deadline — a §3.3
    /// violation by the scheduler (stays 0; earliest-start times are
    /// clamped).
    #[must_use]
    pub fn deadline_violations(&self) -> u64 {
        self.deadline_violations
    }

    /// Jobs scheduled on time but whose actual start slipped past the
    /// deadline because the cluster was saturated (heavy deferral piles
    /// work into the same hours).
    #[must_use]
    pub fn late_starts(&self) -> u64 {
        self.late_starts
    }

    /// Start-delay statistics (actual start minus submission) — non-zero
    /// delays come from temporal scheduling and from queueing when the
    /// active set is saturated.
    #[must_use]
    pub fn delay_stats(&self) -> DelayStats {
        self.delays
    }

    /// Earliest-start override for a queued job (temporal re-scheduling).
    /// Returns `false` if the job is unknown or already started.
    pub fn reschedule(&mut self, id: JobId, earliest_start: SimTime) -> bool {
        for rj in &mut self.jobs {
            if rj.job.id == id && !rj.started {
                let earliest = match rj.job.latest_start() {
                    Some(latest) if earliest_start > latest => latest,
                    _ => earliest_start,
                };
                rj.earliest_start = earliest.max(rj.job.submit);
                return true;
            }
        }
        false
    }
}

/// Server power model (duplicated signature of
/// `coolair_thermal::server_power` to avoid a cyclic dependency; the
/// constants are asserted equal in the integration tests).
fn coolair_thermal_server_power(utilization: f64, asleep: bool) -> Watts {
    if asleep {
        return Watts::new(2.0);
    }
    let u = utilization.clamp(0.0, 1.0);
    Watts::new(22.0 + 8.0 * u)
}

#[cfg(test)]
mod tests {
    use super::*;
    use coolair_units::SECS_PER_HOUR;

    fn quick_job(id: u64, submit: u64, work: f64, par: u32) -> Job {
        Job {
            id: JobId(id),
            submit: SimTime::from_secs(submit),
            map_tasks: par,
            reduce_tasks: 1,
            map_work: work,
            reduce_work: 0.0,
            start_deadline: None,
        }
    }

    #[test]
    fn executes_work_and_completes() {
        let mut c = Cluster::new(ClusterConfig::parasol());
        // 6400 server-seconds at parallelism 64 → 100 s wall-clock.
        c.submit(quick_job(1, 0, 6400.0, 64));
        let mut now = SimTime::EPOCH;
        let dt = SimDuration::from_secs(50);
        let mut total_completed = 0;
        for _ in 0..4 {
            total_completed += c.step(now, dt).completed;
            now += dt;
        }
        assert_eq!(total_completed, 1);
        assert_eq!(c.completed_jobs(), 1);
        assert_eq!(c.outstanding_jobs(), 0);
        assert!((c.busy_server_seconds() - 6400.0).abs() < 1.0);
    }

    #[test]
    fn parallelism_caps_progress() {
        let mut c = Cluster::new(ClusterConfig::parasol());
        // 1000 server-seconds but only 2-wide: needs 500 s.
        c.submit(quick_job(1, 0, 1000.0, 2));
        let stats = c.step(SimTime::EPOCH, SimDuration::from_secs(100));
        assert_eq!(stats.busy_slots, 2);
        assert!(c.pending_work() > 0.0);
    }

    #[test]
    fn jobs_wait_for_submission_time() {
        let mut c = Cluster::new(ClusterConfig::parasol());
        c.submit(quick_job(1, 1000, 100.0, 4));
        assert_eq!(c.demand(SimTime::EPOCH), 0);
        let stats = c.step(SimTime::EPOCH, SimDuration::from_secs(60));
        assert_eq!(stats.busy_slots, 0);
        assert_eq!(c.demand(SimTime::from_secs(1000)), 4);
    }

    #[test]
    fn earliest_start_defers_job() {
        let mut c = Cluster::new(ClusterConfig::parasol());
        let job = quick_job(1, 0, 100.0, 4).with_deadline(SimDuration::from_hours(6));
        c.submit_with_start(job, SimTime::from_secs(2 * SECS_PER_HOUR));
        assert_eq!(c.step(SimTime::EPOCH, SimDuration::from_secs(60)).busy_slots, 0);
        let late = SimTime::from_secs(2 * SECS_PER_HOUR);
        assert_eq!(c.step(late, SimDuration::from_secs(60)).busy_slots, 4);
        assert_eq!(c.deadline_violations(), 0);
    }

    #[test]
    fn deferral_clamped_to_start_deadline() {
        let mut c = Cluster::new(ClusterConfig::parasol());
        let job = quick_job(1, 0, 1e9, 4).with_deadline(SimDuration::from_hours(6));
        // Ask for a 10-hour deferral: must be clamped to 6 h.
        c.submit_with_start(job, SimTime::from_secs(10 * SECS_PER_HOUR));
        let at_deadline = SimTime::from_secs(6 * SECS_PER_HOUR);
        assert_eq!(c.step(at_deadline, SimDuration::from_secs(60)).busy_slots, 4);
        assert_eq!(c.deadline_violations(), 0);
    }

    #[test]
    fn covering_subset_never_sleeps() {
        let cfg = ClusterConfig::parasol();
        let mut c = Cluster::new(cfg.clone());
        c.set_active_target(0);
        // Run past the grace period.
        let mut now = SimTime::EPOCH;
        for _ in 0..30 {
            c.step(now, SimDuration::from_minutes(1));
            now += SimDuration::from_minutes(1);
        }
        for s in 0..cfg.total_servers {
            if cfg.is_covering(s) {
                assert_eq!(c.server_state(s), PowerState::Active, "covering server {s}");
            } else {
                assert_eq!(c.server_state(s), PowerState::Sleep, "server {s}");
            }
        }
        // 8 covering servers on Parasol.
        let active = (0..cfg.total_servers).filter(|&s| cfg.is_covering(s)).count();
        assert_eq!(active, 8);
    }

    #[test]
    fn decommission_grace_delays_sleep() {
        let mut c = Cluster::new(ClusterConfig::parasol());
        c.set_active_target(0);
        c.step(SimTime::EPOCH, SimDuration::from_minutes(1));
        assert_eq!(c.server_state(63), PowerState::Decommissioned);
        // 10 minutes in: still awake.
        c.step(SimTime::from_secs(600), SimDuration::from_minutes(1));
        assert_eq!(c.server_state(63), PowerState::Decommissioned);
        // Past 20 minutes: asleep, one power cycle recorded.
        c.step(SimTime::from_secs(1300), SimDuration::from_minutes(1));
        assert_eq!(c.server_state(63), PowerState::Sleep);
        assert!(c.total_power_cycles() > 0);
    }

    #[test]
    fn priority_order_controls_placement() {
        let cfg = ClusterConfig::parasol();
        let mut c = Cluster::new(cfg.clone());
        // Reverse order: highest-index servers first.
        let priority: Vec<usize> = (0..cfg.total_servers).rev().collect();
        c.set_priority(&priority);
        c.set_active_target(16);
        // Servers 48..64 active (plus covering).
        assert_eq!(c.server_state(63), PowerState::Active);
        assert_eq!(c.server_state(20), PowerState::Decommissioned);
        assert_eq!(c.server_state(0), PowerState::Active, "covering stays");
    }

    #[test]
    fn waking_servers_returns_capacity() {
        let mut c = Cluster::new(ClusterConfig::parasol());
        c.set_active_target(0);
        let mut now = SimTime::EPOCH;
        for _ in 0..25 {
            c.step(now, SimDuration::from_minutes(1));
            now += SimDuration::from_minutes(1);
        }
        assert!(c.active_fraction() < 0.2);
        c.set_active_target(64);
        let stats = c.step(now, SimDuration::from_minutes(1));
        assert_eq!(stats.active_servers, 64);
    }

    #[test]
    fn pod_power_reflects_states() {
        let cfg = ClusterConfig::parasol();
        let mut c = Cluster::new(cfg);
        let full = c.total_power();
        assert!((full.value() - 64.0 * 22.0).abs() < 1e-9, "all idle active: {full}");
        c.set_active_target(0);
        let mut now = SimTime::EPOCH;
        for _ in 0..25 {
            c.step(now, SimDuration::from_minutes(1));
            now += SimDuration::from_minutes(1);
        }
        let low = c.total_power();
        // 8 covering active idle + 56 asleep = 8*22 + 56*2 = 288 W.
        assert!((low.value() - 288.0).abs() < 1e-9, "got {low}");
    }

    #[test]
    fn demand_counts_eligible_parallelism() {
        let mut c = Cluster::new(ClusterConfig::parasol());
        c.submit(quick_job(1, 0, 1e6, 10));
        c.submit(quick_job(2, 0, 1e6, 20));
        assert_eq!(c.demand(SimTime::EPOCH), 30);
        // Demand is capped at cluster size.
        c.submit(quick_job(3, 0, 1e6, 1000));
        assert_eq!(c.demand(SimTime::EPOCH), 64);
    }

    #[test]
    fn reschedule_moves_unstarted_jobs_only() {
        let mut c = Cluster::new(ClusterConfig::parasol());
        let j = quick_job(1, 0, 1e6, 4).with_deadline(SimDuration::from_hours(6));
        c.submit(j);
        assert!(c.reschedule(JobId(1), SimTime::from_secs(3600)));
        assert_eq!(c.step(SimTime::EPOCH, SimDuration::from_secs(60)).busy_slots, 0);
        let _ = c.step(SimTime::from_secs(3600), SimDuration::from_secs(60));
        // Started now: rescheduling refuses.
        assert!(!c.reschedule(JobId(1), SimTime::from_secs(7200)));
        assert!(!c.reschedule(JobId(99), SimTime::EPOCH), "unknown job");
    }

    #[test]
    fn two_phase_execution_orders_map_before_reduce() {
        let mut c = Cluster::new(ClusterConfig::parasol());
        let job = Job {
            id: JobId(1),
            submit: SimTime::EPOCH,
            map_tasks: 64,
            reduce_tasks: 1,
            map_work: 6400.0,  // 100 s at full width
            reduce_work: 300.0, // 300 s at width 1
            start_deadline: None,
        };
        c.submit(job);
        let mut now = SimTime::EPOCH;
        let dt = SimDuration::from_secs(100);
        // Step 1: finishes map exactly.
        let s1 = c.step(now, dt);
        assert_eq!(s1.busy_slots, 64);
        now += dt;
        // Subsequent steps: reduce at width 1.
        let s2 = c.step(now, dt);
        assert_eq!(s2.busy_slots, 1);
        now += dt;
        let _ = c.step(now, dt);
        now += dt;
        let s4 = c.step(now, dt);
        assert_eq!(s4.completed, 1);
    }

    #[test]
    fn start_delays_tracked() {
        let mut c = Cluster::new(ClusterConfig::parasol());
        c.submit(quick_job(1, 0, 64.0, 64)); // immediate
        let deferred = quick_job(2, 0, 64.0, 64).with_deadline(SimDuration::from_hours(6));
        c.submit_with_start(deferred, SimTime::from_secs(600));
        let mut now = SimTime::EPOCH;
        for _ in 0..15 {
            c.step(now, SimDuration::from_minutes(1));
            now += SimDuration::from_minutes(1);
        }
        let d = c.delay_stats();
        assert_eq!(d.started_jobs, 2);
        assert_eq!(d.max_delay_secs, 600);
        assert!((d.mean_delay_secs() - 300.0).abs() < 1.0);
    }

    #[test]
    fn saturation_lateness_counted_as_late_start_not_violation() {
        let mut c = Cluster::new(ClusterConfig::parasol());
        // A huge job hogs the whole cluster for hours…
        c.submit(quick_job(1, 0, 64.0 * 7.0 * 3600.0, 64));
        // …and a small deferrable job scheduled on time gets stuck behind it.
        let small = quick_job(2, 0, 100.0, 4).with_deadline(SimDuration::from_hours(1));
        c.submit(small);
        let mut now = SimTime::EPOCH;
        for _ in 0..100 {
            c.step(now, SimDuration::from_minutes(5));
            now += SimDuration::from_minutes(5);
        }
        assert_eq!(c.deadline_violations(), 0, "scheduler honoured the deadline");
        assert_eq!(c.late_starts(), 1, "queueing lateness tracked separately");
    }

    #[test]
    #[should_panic(expected = "priority must cover all servers")]
    fn rejects_short_priority() {
        let mut c = Cluster::new(ClusterConfig::parasol());
        c.set_priority(&[0, 1, 2]);
    }

    #[test]
    fn workless_job_behind_a_saturated_cluster_is_dropped_uncounted() {
        let mut c = Cluster::new(ClusterConfig::parasol());
        // Two wide jobs take every slot for hours; the third has no work.
        c.submit(quick_job(1, 0, 1e7, 64));
        c.submit(quick_job(2, 0, 1e7, 64));
        let mut workless = quick_job(3, 0, 0.0, 4);
        workless.reduce_tasks = 0;
        c.submit(workless);
        let stats = c.step(SimTime::EPOCH, SimDuration::from_minutes(1));
        assert_eq!(stats.busy_slots, 64);
        assert_eq!(stats.completed, 0);
        assert_eq!(c.completed_jobs(), 0, "a dropped job is not a completed one");
        assert_eq!(c.outstanding_jobs(), 2, "the workless job is gone");
        assert_eq!(c.demand(SimTime::EPOCH), 64);
    }

    #[test]
    fn demand_is_capped_over_a_deep_queue() {
        let mut c = Cluster::new(ClusterConfig::parasol());
        for id in 0..5_000 {
            c.submit(quick_job(id, 0, 1e6, 1_000));
        }
        assert_eq!(c.demand(SimTime::EPOCH), 64);
        assert_eq!(c.outstanding_jobs(), 5_000);
    }

    /// The cluster's server bookkeeping as it was before the incremental
    /// counts and the pod power cache: every call walks all the servers.
    struct WalkReference {
        /// Per server: state, decommission time, power cycles.
        servers: Vec<(PowerState, Option<SimTime>, u64)>,
        rank: Vec<usize>,
        active: usize,
        config: ClusterConfig,
    }

    impl WalkReference {
        fn new(config: ClusterConfig) -> Self {
            WalkReference {
                servers: vec![(PowerState::Active, None, 0); config.total_servers],
                rank: (0..config.total_servers).collect(),
                active: config.total_servers,
                config,
            }
        }

        fn set_priority(&mut self, priority: &[usize]) {
            for (position, &s) in priority.iter().enumerate() {
                self.rank[s] = position;
            }
        }

        fn set_active_target(&mut self, target: usize) {
            let mut active = 0;
            for (s, slot) in self.servers.iter_mut().enumerate() {
                if self.rank[s] < target || self.config.is_covering(s) {
                    if slot.0 != PowerState::Active {
                        (slot.0, slot.1) = (PowerState::Active, None);
                    }
                    active += 1;
                } else if slot.0 == PowerState::Active {
                    slot.0 = PowerState::Decommissioned;
                }
            }
            self.active = active;
        }

        /// The grace walk of a step; returns the awake servers and how
        /// many fell asleep.
        fn step(&mut self, now: SimTime) -> (usize, usize) {
            let (mut awake, mut slept) = (0, 0);
            for slot in &mut self.servers {
                if slot.0 == PowerState::Decommissioned {
                    match slot.1 {
                        None => slot.1 = Some(now),
                        Some(t0) if now.saturating_since(t0) >= self.config.decommission_grace => {
                            (slot.0, slot.1) = (PowerState::Sleep, None);
                            slot.2 += 1;
                            slept += 1;
                        }
                        _ => {}
                    }
                }
                awake += usize::from(slot.0.is_awake());
            }
            (awake, slept)
        }

        fn pod_power(&self, busy_fraction: f64) -> Vec<Watts> {
            let active = coolair_thermal_server_power(busy_fraction, false);
            let idle = coolair_thermal_server_power(0.0, false);
            let asleep = coolair_thermal_server_power(0.0, true);
            let per_pod = self.config.servers_per_pod();
            self.servers
                .chunks(per_pod)
                .map(|servers| {
                    servers.iter().fold(Watts::ZERO, |sum, slot| {
                        sum + match slot.0 {
                            PowerState::Active => active,
                            PowerState::Decommissioned => idle,
                            PowerState::Sleep => asleep,
                        }
                    })
                })
                .collect()
        }

        fn check(&self, c: &Cluster, busy_fraction: f64, tick: u64) {
            for (s, slot) in self.servers.iter().enumerate() {
                assert_eq!(c.server_state(s), slot.0, "tick {tick}: server {s}");
            }
            let mut pods = Vec::new();
            c.write_pod_power(&mut pods);
            let want: Vec<u64> =
                self.pod_power(busy_fraction).iter().map(|w| w.value().to_bits()).collect();
            let got: Vec<u64> = pods.iter().map(|w| w.value().to_bits()).collect();
            assert_eq!(got, want, "tick {tick}: pod power");
            let cycles = self.servers.iter().map(|slot| slot.2);
            assert_eq!(c.total_power_cycles(), cycles.clone().sum::<u64>(), "tick {tick}");
            assert_eq!(c.max_power_cycles(), cycles.max().unwrap_or(0), "tick {tick}");
            assert_eq!(c.active_fraction(), self.active as f64 / self.servers.len() as f64);
        }
    }

    /// The incremental server counts, the repeated-target shortcut, the
    /// grace walk skipped with no server in grace and the pod power cache
    /// agree tick by tick with the all-server walks they replace, over a
    /// seeded stream of arrivals and targets: held and repeated targets,
    /// targets under the covering subset and over the server count, drops
    /// that put most of the cluster into grace at once (so whole bursts
    /// expire together), and priority orders installed mid-stream.
    #[test]
    fn incremental_server_state_matches_the_all_server_walks() {
        use rand::rngs::StdRng;
        use rand::seq::SliceRandom;
        use rand::{Rng, SeedableRng};

        let config = ClusterConfig::parasol();
        let mut rng = StdRng::seed_from_u64(0x5EED_C0DE);
        let mut c = Cluster::new(config.clone());
        let mut reference = WalkReference::new(config.clone());
        let dt = SimDuration::from_minutes(1);
        let mut target = 64;
        let mut busy_fraction = 0.0;
        reference.check(&c, busy_fraction, 0);
        let (mut changes, mut repeats, mut under, mut over, mut biggest_burst) = (0, 0, 0, 0, 0);
        for tick in 0..6_000u64 {
            let now = SimTime::from_secs(tick * 60);
            for _ in 0..rng.gen_range(0..=2u32) {
                let map_tasks = rng.gen_range(1..=48u32);
                c.submit(Job {
                    id: JobId(tick),
                    submit: now,
                    map_tasks,
                    reduce_tasks: rng.gen_range(0..=4u32),
                    map_work: f64::from(map_tasks) * rng.gen_range(30.0..900.0),
                    reduce_work: rng.gen_range(0.0..600.0),
                    start_deadline: None,
                });
            }
            if tick == 1_500 || tick == 4_000 {
                let mut priority: Vec<usize> = (0..config.total_servers).collect();
                if tick == 1_500 {
                    priority.reverse();
                } else {
                    priority.shuffle(&mut rng);
                }
                c.set_priority(&priority);
                reference.set_priority(&priority);
            }
            // Hold each target for a while; now and then swing the whole
            // cluster up and back down so a burst of servers expires at once.
            if rng.gen_bool(0.08) {
                target = match rng.gen_range(0..6u32) {
                    0 => rng.gen_range(0..config.covering_count),
                    1 => rng.gen_range(config.total_servers + 1..=2 * config.total_servers),
                    2 if target >= 48 => rng.gen_range(0..=4),
                    2 => config.total_servers,
                    _ => rng.gen_range(0..=config.total_servers),
                };
                changes += 1;
                under += usize::from(target < config.covering_count);
                over += usize::from(target > config.total_servers);
            } else {
                repeats += 1;
            }
            c.set_active_target(target);
            reference.set_active_target(target);
            // Between the target and the step the load reflects the new
            // states at the last step's busy fraction.
            reference.check(&c, busy_fraction, tick);

            let stats = c.step(now, dt);
            let (awake, slept) = reference.step(now);
            biggest_burst = biggest_burst.max(slept);
            assert_eq!(stats.active_servers, reference.active, "tick {tick}: active");
            assert_eq!(stats.awake_servers, awake, "tick {tick}: awake");
            busy_fraction = if reference.active > 0 {
                stats.busy_slots as f64 / reference.active as f64
            } else {
                0.0
            };
            reference.check(&c, busy_fraction, tick);
        }
        assert!(changes > 300 && repeats > 4_000, "{changes} changes, {repeats} repeats");
        assert!(under > 20 && over > 20, "{under} targets under covering, {over} over the count");
        assert!(biggest_burst >= 40, "largest burst of expiries: {biggest_burst}");
    }

    /// FNV-1a over 64-bit words: a digest fixed by this file alone.
    fn fold(hash: &mut u64, word: u64) {
        for byte in word.to_le_bytes() {
            *hash = (*hash ^ u64::from(byte)).wrapping_mul(0x0100_0000_01b3);
        }
    }

    fn log_uniform(rng: &mut rand::rngs::StdRng, lo: f64, hi: f64) -> f64 {
        use rand::Rng;
        (lo.ln() + rng.gen::<f64>() * (hi / lo).ln()).exp()
    }

    /// A seeded random stream — arrivals with and without start deadlines,
    /// deferred earliest starts, a few workless jobs, active targets over
    /// 0..=64 — whose per-tick observables hash to a digest pinned before
    /// the queue compaction and the capped demand scan.
    #[test]
    fn random_stream_observables_match_their_pinned_digest() {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};

        let mut rng = StdRng::seed_from_u64(0xC1A5_7E55);
        let mut c = Cluster::new(ClusterConfig::parasol());
        let dt = SimDuration::from_minutes(1);
        let mut pods = Vec::new();
        let mut hash = 0xcbf2_9ce4_8422_2325_u64;
        let (mut next_id, mut workless, mut deepest, mut drained) = (0u64, 0, 0, 0);
        for tick in 0..3_600u64 {
            let now = SimTime::from_secs(tick * 60);
            // Two busy hours in every twelve fill the queue; the quiet ten
            // drain it.
            let busy = tick % 720 < 120;
            let arrivals = if busy { rng.gen_range(0..=3u32) } else { 0 };
            for _ in 0..arrivals {
                next_id += 1;
                let no_work = rng.gen_bool(0.02);
                let map_tasks = rng.gen_range(1..=80u32);
                let reduce_tasks = rng.gen_range(0..=8u32);
                let mut job = Job {
                    id: JobId(next_id),
                    submit: now + SimDuration::from_secs(rng.gen_range(0..120u64)),
                    map_tasks,
                    reduce_tasks,
                    map_work: f64::from(map_tasks) * log_uniform(&mut rng, 25.0, 600.0),
                    reduce_work: f64::from(reduce_tasks) * log_uniform(&mut rng, 15.0, 300.0),
                    start_deadline: None,
                };
                if no_work {
                    (job.map_work, job.reduce_work) = (0.0, 0.0);
                }
                workless += usize::from(no_work);
                if rng.gen_bool(0.4) {
                    let deadline = SimDuration::from_secs(rng.gen_range(600..3 * 3_600u64));
                    job = job.with_deadline(deadline);
                    let earliest =
                        job.submit + SimDuration::from_secs(rng.gen_range(0..2 * 3_600u64));
                    c.submit_with_start(job, earliest);
                } else {
                    c.submit(job);
                }
            }
            if tick % 10 == 0 {
                c.set_active_target(rng.gen_range(0..=64usize));
            }
            let stats = c.step(now, dt);
            let after = now + dt;
            c.write_pod_power(&mut pods);
            let delays = c.delay_stats();
            for word in [
                stats.busy_slots as u64,
                stats.active_servers as u64,
                stats.awake_servers as u64,
                stats.completed,
                c.demand(after) as u64,
                c.completed_jobs(),
                c.outstanding_jobs() as u64,
                c.pending_work().to_bits(),
                delays.started_jobs,
                delays.total_delay_secs,
                delays.max_delay_secs,
                c.late_starts(),
            ] {
                fold(&mut hash, word);
            }
            for pod in &pods {
                fold(&mut hash, pod.value().to_bits());
            }
            deepest = deepest.max(c.outstanding_jobs());
            drained += usize::from(c.outstanding_jobs() < 20);
        }
        assert!(workless >= 10, "the stream submits workless jobs ({workless})");
        assert!(deepest > 100, "the queue backs up (deepest {deepest})");
        assert!(drained > 100, "the queue drains ({drained} ticks under 20 jobs)");
        assert_eq!(format!("{hash:016x}"), "328268f0a8fccd04", "the cluster's observables changed");
    }
}
