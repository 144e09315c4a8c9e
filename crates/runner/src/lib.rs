//! Deterministic experiment orchestration for the CoolAir workspace.
//!
//! The paper's heaviest traffic path — the 1520-location world sweep
//! behind Figures 12/13 — used to run as a one-shot thread scope: a panic
//! or kill lost every completed location, and every rerun retrained every
//! Cooling Model from scratch. This crate turns every expensive experiment
//! into a serializable, content-addressed [`Job`] executed by a crossbeam
//! work-stealing pool, with:
//!
//! * **per-job panic isolation** — a panicking job is caught, retried up
//!   to a bounded attempt budget, and recorded as failed; it never aborts
//!   the batch ([`Executor`]);
//! * **a JSONL journal** — each completion appends one line, so a killed
//!   run resumes by replaying the journal and skipping finished shards
//!   ([`Journal`]); resume of a partial run is bit-identical to a fresh
//!   run under the same seed because jobs are pure functions of their
//!   specs;
//! * **a content-addressed artifact store** — outputs are cached at
//!   `artifacts/<kind>/<digest>.json` keyed by a stable FNV-1a hash of the
//!   job's defining content ([`ArtifactStore`], [`stable_digest`]), so a
//!   warm rerun serves trained models and sweep points without executing
//!   anything;
//! * **telemetry threading** — jobs queued/running/done/failed, cache
//!   hits, resumes and retries flow through the existing
//!   `coolair-telemetry` event bus ([`coolair_telemetry::Event::JobState`])
//!   and metrics registry.
//!
//! * **the campaign spine** — a [`Campaign`] is a whole experiment (a
//!   robust tune, a fleet campaign, a learn benchmark) that issues job
//!   batches and folds them into one report artifact; [`run_campaign`]
//!   runs any of them with panics fenced and the report stored, and
//!   [`Memo`] is their shared in-process evaluation memo.
//!
//! The crate is deliberately simulation-agnostic: it depends only on the
//! telemetry bus. `coolair-sim` defines the concrete job types (training
//! campaigns, annual runs, sweep shards), the campaign crates implement
//! [`Campaign`], and `coolair-cli` drives them via
//! `coolair sweep --store <dir> --resume` and the campaign subcommands.
//!
//! # Example
//!
//! ```
//! use coolair_runner::{stable_digest, Digest, Executor, Job, Telemetry};
//!
//! struct Square(u64);
//! impl Job for Square {
//!     type Output = u64;
//!     fn kind(&self) -> &'static str { "square" }
//!     fn digest(&self) -> Digest { stable_digest(&self.0) }
//!     fn label(&self) -> String { format!("{}^2", self.0) }
//!     fn run(&self) -> u64 { self.0 * self.0 }
//! }
//!
//! let exec = Executor::in_memory(2, Telemetry::disabled());
//! let out = exec.run(&[Square(3), Square(4)]);
//! let values: Vec<u64> = out.into_iter().filter_map(|r| r.into_output()).collect();
//! assert_eq!(values, [9, 16]);
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod campaign;
mod executor;
mod hash;
mod job;
mod journal;
mod pool;
mod store;

pub use campaign::{run_campaign, Campaign, Memo};
pub use coolair_telemetry::Telemetry;
pub use executor::{Executor, ExecutorConfig, ProgressSnapshot};
pub use hash::{fnv1a, stable_digest, Digest, SplitMix64};
pub use job::{panic_message, Job, JobResult};
pub use journal::{replay, Journal, JournalEntry, JournalStatus};
pub use pool::{run_stealing, worker_threads, DEFAULT_THREADS};
pub use store::{ArtifactError, ArtifactStore};
