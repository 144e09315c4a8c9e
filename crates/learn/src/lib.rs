//! Baseline learned controllers over the gym-style episode API.
//!
//! The paper's CoolAir is a *model-based* controller: an M5P Cooling
//! Predictor plus hand-designed band logic. Moriyama et al. and Fliess et
//! al. (PAPERS.md) argue the same free-cooled-datacenter control problem
//! is a natural reinforcement-learning testbed. This crate supplies the
//! testbed's baselines: two from-scratch, dependency-free learners trained
//! and benchmarked over [`coolair_sim::Episode`] —
//!
//! 1. **Cross-entropy method** ([`run_learn_with`]'s first phase) over a
//!    [`SchedulePolicy`]: a piecewise-constant daily setpoint schedule
//!    plus an active-server fraction, sampled from a seeded diagonal
//!    Gaussian that refits to the elite candidates each generation.
//! 2. **Tabular Q-learning** over a discretized (cooling regime ×
//!    outside-temperature band × demand band) state space and a discrete
//!    (setpoint × active-level) action menu, with epsilon-greedy
//!    exploration whose per-step randomness is a pure function of
//!    `(seed, step)`.
//!
//! Every rollout — training or evaluation — is a content-addressed
//! [`coolair_runner::Job`] (kind [`KIND_LEARN_EVAL`]) keyed by the
//! serialized `(policy, episode)` task, so the artifact store memoizes
//! across iterations and a killed run resumed against the same store
//! replays byte-identically, exactly like `coolair-tune` and
//! `coolair-fleet`. The final [`LearnOutcome`] pits the learned policies
//! against the random-policy floor, the TKS baseline, CoolAir-M5P, and
//! the degraded-mode supervisor on the same episode suite. [`LearnSpec`]
//! is a [`coolair_runner::Campaign`] named `learn`.

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod eval;
mod learner;
mod policy;
mod spec;

pub use eval::{
    classical_systems, EvalJob, EvalOutcome, EvalTask, Transition, KIND_LEARN_EVAL,
    SCALAR_VIOLATION_WEIGHT,
};
pub use learner::{run_learn_with, Contender, IterLog, LearnOutcome};
pub use policy::{
    decode_action, state_of, PolicySpec, QTable, SchedulePolicy, ACTIONS, SETPOINTS_C, STATES,
};
pub use spec::{CemConfig, LearnSpec, QConfig, KIND_LEARN_REPORT};
