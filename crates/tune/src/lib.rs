//! Worst-case-robust controller tuning via adversarial scenario
//! decomposition.
//!
//! The paper hand-picks CoolAir's control knobs — the 30 °C maximum, the
//! adaptive band geometry, the degraded-mode supervisor's trip points —
//! and evaluates them under nominal conditions. This crate asks the harder
//! operational question: *which* configuration should a free-cooled site
//! deploy when weather years, component faults, and workload shapes are
//! all uncertain? It treats the knobs as a serializable
//! [`coolair::DesignVector`], a *scenario* as a (weather-year × fault
//! schedule × workload trace) triple ([`coolair_sim::Scenario`]), and
//! searches for the design whose **worst-case** violation/energy frontier
//! dominates:
//!
//! 1. **Tune** — seeded randomized local search improves the incumbent
//!    against the small *active* scenario pool (feasibility-first
//!    lexicographic objective: energy cap, then worst violation, then mean
//!    violation, then energy).
//! 2. **Adversary** — the incumbent is evaluated against the full
//!    candidate suite; the scenario that most breaks it joins the pool.
//! 3. Repeat until no candidate breaks the incumbent (convergence) or the
//!    round budget ends.
//!
//! Every `(design, scenario)` evaluation is a [`coolair_runner::Job`]
//! keyed by `(config_digest, scenario_digest)`, so the content-addressed
//! artifact store memoizes across probes *and* across process restarts: a
//! killed tune resumed against the same store replays to a bit-identical
//! incumbent and pool. All entropy lives in the [`TuneSpec`] — the run is
//! a pure function of its spec. [`TuneSpec`] is a
//! [`coolair_runner::Campaign`] named `tune`.

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod eval;
mod spec;
mod tuner;

pub use coolair_runner::SplitMix64;
pub use eval::{EvalJob, EvalOutcome, KIND_TUNE_EVAL};
pub use spec::{TuneSpec, KIND_TUNE_REPORT};
pub use tuner::{run_tune_with, RoundLog, ScenarioReport, TuneOutcome};
