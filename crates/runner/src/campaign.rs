//! The campaign spine. A campaign (robust tuning, a fleet, learned
//! control) is a whole experiment driven by one serializable spec: it
//! issues batches of [`Job`]s through an [`Executor`] and folds them into
//! one outcome, stored as the report artifact `<REPORT_KIND>/<digest>`.
//! The CLI command, the daemon's ticket runner and the report registry
//! are written once against [`Campaign`].

use std::collections::{HashMap, HashSet};
use std::fmt::Debug;
use std::panic::{catch_unwind, AssertUnwindSafe};

use coolair_telemetry::Telemetry;
use serde::de::DeserializeOwned;
use serde::Serialize;

use crate::executor::Executor;
use crate::hash::{stable_digest, Digest};
use crate::job::{panic_message, Job, JobResult};

/// One campaign kind: its spec type, its outcome type and how to run it.
///
/// The contract mirrors [`Job`]'s, one level up: `run` is a pure function
/// of the spec (all entropy comes from seeds inside it), and `digest`
/// covers everything that determines the outcome, so the digest names
/// the report artifact and doubles as the daemon's job id.
pub trait Campaign: Serialize + DeserializeOwned + Debug + Send + Sync + 'static {
    /// The CLI subcommand and the `POST /jobs` wrapper key, e.g. `"tune"`.
    const NAME: &'static str;
    /// Artifact kind the outcome is stored under, e.g. `"tune-report"`.
    const REPORT_KIND: &'static str;
    /// The campaign's result artifact.
    type Outcome: Serialize + DeserializeOwned + Send + 'static;

    /// Stable digest of the spec's defining content: its
    /// [`stable_digest`] unless the spec says otherwise.
    fn digest(&self) -> Digest {
        stable_digest(self)
    }

    /// Sanity-checks the spec.
    ///
    /// # Errors
    ///
    /// Every problem found, joined with `"; "`.
    fn validate(&self) -> Result<(), String>;

    /// Short human label for job trackers, e.g. `robust tune (seed 7)`.
    fn label(&self) -> String;

    /// Runs the whole campaign, issuing its evaluations through `exec`
    /// and reporting progress on `telemetry`. May panic (an invalid spec
    /// does); callers go through [`run_campaign`], which fences it.
    fn run(&self, exec: &Executor, telemetry: &Telemetry) -> Self::Outcome;
}

/// Runs a campaign with its panics fenced, then writes the outcome to the
/// executor's store (when one is attached) as the report artifact
/// `<REPORT_KIND>/<digest>`. Callers validate the spec first, where the
/// input arrives.
///
/// # Errors
///
/// A panic during the run, or a failed report write.
pub fn run_campaign<C: Campaign>(
    spec: &C,
    exec: &Executor,
    telemetry: &Telemetry,
) -> Result<C::Outcome, String> {
    let outcome =
        catch_unwind(AssertUnwindSafe(|| spec.run(exec, telemetry))).map_err(|payload| {
            format!("{} run panicked: {}", C::NAME, panic_message(payload.as_ref()))
        })?;
    if let Some(store) = exec.store() {
        store
            .put(C::REPORT_KIND, spec.digest(), &outcome)
            .map_err(|e| format!("store {} report: {e}", C::NAME))?;
    }
    Ok(outcome)
}

/// An in-process get-or-compute memo over job outputs, keyed by job
/// digest. It sits in front of an [`Executor`], whose artifact store is
/// the second, cross-process memo layer.
#[derive(Debug)]
pub struct Memo<T> {
    kind: &'static str,
    hit_counter: String,
    miss_counter: String,
    outputs: HashMap<Digest, T>,
    hits: u64,
    misses: u64,
}

impl<T: Clone> Memo<T> {
    /// An empty memo whose traffic counts as `<kind>.memo.hit` and
    /// `<kind>.memo.miss`.
    #[must_use]
    pub fn new(kind: &'static str) -> Self {
        Memo {
            kind,
            hit_counter: format!("{kind}.memo.hit"),
            miss_counter: format!("{kind}.memo.miss"),
            outputs: HashMap::new(),
            hits: 0,
            misses: 0,
        }
    }

    /// Requested slots served from the memo so far.
    #[must_use]
    pub fn hits(&self) -> u64 {
        self.hits
    }

    /// Requested slots the memo could not serve so far.
    #[must_use]
    pub fn misses(&self) -> u64 {
        self.misses
    }

    /// Resolves one batch: returns one output per requested digest, in
    /// order.
    ///
    /// A digest already in the memo is a hit; every other slot is a miss.
    /// Each missing digest runs once: `build` receives the index of its
    /// first slot, in slot order, and returns those slots' jobs, which
    /// run as one executor batch (`build` is not called when nothing is
    /// missing). Hits and misses count per requested slot, here and on
    /// `telemetry`.
    ///
    /// # Panics
    ///
    /// When a job exhausts the executor's attempt budget.
    pub fn get_or_run<J: Job<Output = T>>(
        &mut self,
        exec: &Executor,
        telemetry: &Telemetry,
        digests: &[Digest],
        build: impl FnOnce(&[usize]) -> Vec<J>,
    ) -> Vec<T> {
        let mut hits = 0_u64;
        let mut pending = HashSet::new();
        let mut first_slots = Vec::new();
        for (i, digest) in digests.iter().enumerate() {
            if self.outputs.contains_key(digest) {
                hits += 1;
            } else if pending.insert(*digest) {
                first_slots.push(i);
            }
        }
        let misses = digests.len() as u64 - hits;
        self.hits += hits;
        self.misses += misses;
        telemetry.counter_add(&self.hit_counter, hits);
        telemetry.counter_add(&self.miss_counter, misses);
        if !first_slots.is_empty() {
            let jobs = build(&first_slots);
            assert_eq!(jobs.len(), first_slots.len(), "build returns one job per missing slot");
            for ((job, &slot), result) in jobs.iter().zip(&first_slots).zip(exec.run(&jobs)) {
                match result {
                    JobResult::Computed(output) | JobResult::Cached(output) => {
                        self.outputs.insert(digests[slot], output);
                    }
                    JobResult::Failed { error, .. } => {
                        panic!("{} evaluation failed for {}: {error}", self.kind, job.label())
                    }
                }
            }
        }
        digests.iter().map(|d| self.outputs[d].clone()).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use serde::Deserialize;

    /// Squares its input.
    struct Square(u64);

    impl Job for Square {
        type Output = u64;
        fn kind(&self) -> &'static str {
            "square"
        }
        fn digest(&self) -> Digest {
            stable_digest(&self.0)
        }
        fn label(&self) -> String {
            format!("{}^2", self.0)
        }
        fn run(&self) -> u64 {
            self.0 * self.0
        }
    }

    #[test]
    fn memo_runs_each_digest_once_and_counts_per_slot() {
        let telemetry = Telemetry::memory();
        let exec = Executor::in_memory(2, telemetry.clone());
        let mut memo = Memo::new("square");
        let inputs = [3_u64, 4, 3];
        let digests: Vec<Digest> = inputs.iter().map(stable_digest).collect();
        let out = memo.get_or_run(&exec, &telemetry, &digests, |slots| {
            slots.iter().map(|&i| Square(inputs[i])).collect()
        });
        assert_eq!(out, [9, 16, 9]);
        assert_eq!(exec.progress().done, 2, "the repeated digest runs once");
        assert_eq!((memo.hits(), memo.misses()), (0, 3));

        let again = memo.get_or_run(&exec, &telemetry, &digests[..2], |_| -> Vec<Square> {
            panic!("everything is memoized")
        });
        assert_eq!(again, [9, 16]);
        assert_eq!((memo.hits(), memo.misses()), (2, 3));
        let m = telemetry.metrics();
        assert_eq!((m.counter("square.memo.hit"), m.counter("square.memo.miss")), (2, 3));
    }

    /// Sums `0..n`; panics when `n` is zero.
    #[derive(Debug, Serialize, Deserialize)]
    struct Sum {
        n: u64,
    }

    impl Campaign for Sum {
        const NAME: &'static str = "sum";
        const REPORT_KIND: &'static str = "sum-report";
        type Outcome = u64;
        fn validate(&self) -> Result<(), String> {
            Ok(())
        }
        fn label(&self) -> String {
            format!("sum (n {})", self.n)
        }
        fn run(&self, _exec: &Executor, _telemetry: &Telemetry) -> u64 {
            assert!(self.n > 0, "empty sum");
            (0..self.n).sum()
        }
    }

    #[test]
    fn run_campaign_fences_panics_and_stores_the_report() {
        let dir = std::env::temp_dir().join("coolair_runner_campaign_test");
        let _ = std::fs::remove_dir_all(&dir);
        let exec = Executor::new(crate::ExecutorConfig {
            threads: 1,
            store_dir: Some(dir.clone()),
            ..crate::ExecutorConfig::default()
        })
        .unwrap();
        let t = Telemetry::disabled();
        let spec = Sum { n: 4 };
        assert_eq!(run_campaign(&spec, &exec, &t), Ok(6));
        let stored: Option<u64> = exec.store().unwrap().get("sum-report", spec.digest());
        assert_eq!(stored, Some(6));

        let err = run_campaign(&Sum { n: 0 }, &exec, &t).unwrap_err();
        assert_eq!(err, "sum run panicked: empty sum");
        assert!(!exec.store().unwrap().contains("sum-report", Sum { n: 0 }.digest()));
        let _ = std::fs::remove_dir_all(&dir);
    }
}
