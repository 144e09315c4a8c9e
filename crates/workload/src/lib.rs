//! Hadoop-like workload substrate for the CoolAir reproduction.
//!
//! The paper runs a modified Hadoop on Parasol's 64 servers and drives it
//! with two day-long traces (§5.1):
//!
//! - **Facebook** — a SWIM-scaled trace of ~5500 jobs / ~68 000 tasks with
//!   2–1190 map and 1–63 reduce tasks per job, map phases of 25–13 000 s,
//!   averaging 27 % datacenter utilisation;
//! - **Nutch** — the CloudSuite indexing workload: ~2000 jobs arriving
//!   Poisson with 40 s mean inter-arrival, each 42 map tasks (15–40 s) and
//!   one 150 s reduce, averaging 32 % utilisation.
//!
//! Neither SWIM nor the original traces are available here, so
//! [`facebook_trace`] and [`nutch_trace`] are statistical generators
//! calibrated to those published marginals. [`Cluster`] is the slot-based
//! MapReduce execution model with the paper's three server power states
//! (active / decommissioned / sleep), the Covering Subset that must stay
//! awake for data availability, spatial placement by an externally supplied
//! server priority order, and per-disk power-cycle accounting (§4.2).
//!
//! # Example
//!
//! ```
//! use coolair_workload::{facebook_trace, Cluster, ClusterConfig};
//! use coolair_units::{SimDuration, SimTime};
//!
//! let trace = facebook_trace(42);
//! let mut cluster = Cluster::new(ClusterConfig::parasol());
//! for job in trace.jobs_for_day(0) {
//!     cluster.submit(job);
//! }
//! cluster.set_active_target(cluster.config().total_servers);
//! let mut t = SimTime::EPOCH;
//! for _ in 0..60 {
//!     cluster.step(t, SimDuration::from_minutes(1));
//!     t += SimDuration::from_minutes(1);
//! }
//! assert!(cluster.busy_servers() > 0);
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod cluster;
mod distributions;
mod job;
mod power_state;
mod trace;

pub use cluster::{Cluster, ClusterConfig, ClusterStats, DelayStats};
pub use distributions::{log_uniform, poisson_interarrival, truncated_lognormal};
pub use job::{Job, JobId};
pub use power_state::PowerState;
pub use trace::{facebook_trace, nutch_trace, Trace, TraceKind};
