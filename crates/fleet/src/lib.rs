//! Fleet-scale simulation: a geo-distributed campus of CoolAir containers
//! with follow-the-cold load migration.
//!
//! The paper manages one free-cooled container; this crate scales the
//! reproduction out to a fleet of them spread across climates. Two ideas
//! make a fleet-year tractable and worthwhile:
//!
//! - **Batched lanes.** Containers at the same site carrying the same
//!   load class are bit-identical, so the fleet steps as a handful of
//!   *lanes* (structure-of-arrays, like `coolair_thermal::PlantBank` one
//!   level down) instead of N independent annual runs. A 512-container
//!   fleet over 4 sites prices at most 8 lanes per decision epoch.
//! - **Follow the cold.** A [`GlobalComputeManager`] ranks sites each
//!   epoch by free-cooling headroom — the fraction of forecast hours
//!   inside the psychrometric envelope — and migrates deferrable batch
//!   load toward the sites that can cool it for free, under a WAN/energy
//!   budget and per-site capacity. The [`FleetOutcome`] prices the managed
//!   fleet against the same fleet frozen at its initial placement.
//!
//! Everything the manager decides is a pure function of the
//! [`FleetSpec`] (forecast in, placement out — no evaluation feedback),
//! so campaigns shard across machines and resume byte-identically from
//! the content-addressed store. [`FleetSpec`] is a
//! [`coolair_runner::Campaign`] named `fleet`.
//!
//! # Example: a smoke-sized campaign
//!
//! ```no_run
//! use coolair_fleet::{run_fleet_with, FleetSpec};
//! use coolair_runner::{Executor, ExecutorConfig};
//! use coolair_telemetry::Telemetry;
//!
//! let spec = FleetSpec::smoke(42);
//! let exec = Executor::new(ExecutorConfig::default()).expect("in-memory executor");
//! let outcome = run_fleet_with(&spec, &exec, &Telemetry::disabled());
//! println!(
//!     "fleet PUE {:.3} vs independent {:.3}",
//!     outcome.fleet.pue, outcome.independent.pue
//! );
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod jobs;
mod manager;
mod run;
mod spec;
mod state;

pub use jobs::{LaneEval, LaneJob};
pub use manager::GlobalComputeManager;
pub use run::{
    fleet_lane_jobs, run_fleet_with, EpochReport, FleetOutcome, FleetSummary, SiteReport,
};
pub use spec::{FleetSpec, MigrationPolicy, KIND_FLEET_EVAL, KIND_FLEET_REPORT};
pub use state::{FleetState, MigrationRecord};
