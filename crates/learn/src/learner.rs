//! The training harness: cross-entropy method over setpoint schedules,
//! tabular Q-learning over the discretized state space, and the final
//! head-to-head leaderboard against the repo's classical controllers.
//!
//! Every rollout is a [`coolair_runner::Job`] keyed by the serialized
//! `(policy, episode)` task, memoized in-process (a
//! [`coolair_runner::Memo`]) and in the content-addressed artifact store
//! — so a killed training run resumed against the same store replays to a
//! bit-identical outcome (the same discipline as tune and fleet). All
//! entropy derives from the spec's master seed; a learn run is a pure
//! function of its [`LearnSpec`].

use coolair_runner::{Digest, Executor, Job, Memo};
use coolair_sim::Reward;
use coolair_telemetry::{Event, Telemetry};
use coolair_tune::SplitMix64;
use serde::{Deserialize, Serialize};

use crate::eval::{classical_systems, EvalJob, EvalOutcome, EvalTask};
use crate::policy::{PolicySpec, QTable, SchedulePolicy};
use crate::spec::LearnSpec;

const GOLDEN: u64 = 0x9E37_79B9_7F4A_7C15;

/// Sampling-distribution floor so the CEM never collapses to a point.
const STD_FLOOR: f64 = 0.02;

/// Setpoint knots are clamped to this band during sampling, °C.
const KNOT_RANGE_C: (f64, f64) = (16.0, 38.0);

/// One training-curve point: a CEM generation or a Q-learning checkpoint.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct IterLog {
    /// Learner name (`cem` or `q`).
    pub learner: String,
    /// Iteration index within the learner (0-based).
    pub iter: u64,
    /// Best-so-far suite violation, °C·min.
    pub best_violation: f64,
    /// Best-so-far suite energy, kWh.
    pub best_energy_kwh: f64,
}

/// One leaderboard row: a policy or classical system summed over the
/// episode suite.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Contender {
    /// Display name (`cem`, `q`, `random`, `tks`, `coolair-m5p`,
    /// `supervisor`).
    pub name: String,
    /// Suite violation, °C·min.
    pub violation_cmin: f64,
    /// Suite total energy, kWh.
    pub energy_kwh: f64,
    /// Suite cooling energy, kWh.
    pub cooling_kwh: f64,
    /// Suite IT energy, kWh.
    pub it_kwh: f64,
}

impl Contender {
    /// The lexicographic (violation, energy) cost pair.
    #[must_use]
    pub fn reward(&self) -> Reward {
        Reward { violation_cmin: self.violation_cmin, energy_kwh: self.energy_kwh }
    }
}

/// The learn run's full result artifact.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct LearnOutcome {
    /// Digest of the [`LearnSpec`] that produced this outcome (16 hex
    /// digits — also the report's artifact key).
    pub spec_digest: String,
    /// The spec's master seed.
    pub seed: u64,
    /// Training curve: CEM generations then Q checkpoints, in order.
    pub iters: Vec<IterLog>,
    /// Head-to-head rows, sorted best-first by lexicographic
    /// (violation, energy).
    pub leaderboard: Vec<Contender>,
    /// Name of the better learned contender (`cem` or `q`).
    pub best_learned: String,
    /// The best learned policy itself, replayable through the episode API.
    pub policy: PolicySpec,
    /// Rollouts that went to the executor (artifact-store misses included).
    pub rollouts: u64,
    /// In-process memo hits over the run.
    pub memo_hits: u64,
    /// In-process memo misses (evaluations that went to the executor,
    /// where the artifact store may still have served them).
    pub memo_misses: u64,
}

/// Per-suite aggregate of one policy's rollouts.
#[derive(Debug, Clone, Copy, PartialEq)]
struct SuiteAgg {
    reward: Reward,
    cooling_kwh: f64,
    it_kwh: f64,
}

impl SuiteAgg {
    fn zero() -> Self {
        SuiteAgg { reward: Reward::zero(), cooling_kwh: 0.0, it_kwh: 0.0 }
    }

    fn add(&mut self, o: &EvalOutcome) {
        self.reward.accumulate(&o.reward());
        self.cooling_kwh += o.cooling_kwh;
        self.it_kwh += o.it_kwh;
    }
}

/// The evaluation memo + executor front-end shared by both learners and
/// the leaderboard.
struct Harness<'a> {
    exec: &'a Executor,
    telemetry: &'a Telemetry,
    memo: Memo<EvalOutcome>,
    rollouts: u64,
}

impl<'a> Harness<'a> {
    fn new(exec: &'a Executor, telemetry: &'a Telemetry) -> Self {
        Harness { exec, telemetry, memo: Memo::new("learn"), rollouts: 0 }
    }

    /// Evaluates tasks in order through the two memo layers (in-process
    /// memo, then the executor's artifact store). A batch can repeat a
    /// task (e.g. two identical candidates); it runs once.
    fn run(&mut self, tasks: Vec<EvalTask>) -> Vec<EvalOutcome> {
        let jobs: Vec<EvalJob> = tasks.into_iter().map(|task| EvalJob { task }).collect();
        let digests: Vec<Digest> = jobs.iter().map(Job::digest).collect();
        let (telemetry, rollouts) = (self.telemetry, &mut self.rollouts);
        self.memo.get_or_run(self.exec, telemetry, &digests, |slots| {
            *rollouts += slots.len() as u64;
            telemetry.counter_add("learn.rollout.total", slots.len() as u64);
            slots.iter().map(|&i| jobs[i].clone()).collect()
        })
    }

    /// Sums each policy's rollouts over the suite, batching every
    /// (policy × episode) job through one executor call.
    fn suite_aggs(&mut self, spec: &LearnSpec, policies: &[PolicySpec]) -> Vec<SuiteAgg> {
        let episodes = spec.episodes();
        let mut tasks = Vec::with_capacity(policies.len() * episodes.len());
        for policy in policies {
            for ep in &episodes {
                tasks.push(EvalTask::Rollout {
                    policy: policy.clone(),
                    episode: ep.clone(),
                    record_transitions: false,
                });
            }
        }
        let outcomes = self.run(tasks);
        let mut aggs = vec![SuiteAgg::zero(); policies.len()];
        for (i, o) in outcomes.iter().enumerate() {
            aggs[i / episodes.len()].add(o);
        }
        aggs
    }
}

/// One standard normal draw via Box-Muller on the spec's seeded stream.
fn gaussian(rng: &mut SplitMix64) -> f64 {
    let u1 = (1.0 - rng.next_f64()).max(1e-12);
    let u2 = rng.next_f64();
    (-2.0 * u1.ln()).sqrt() * (std::f64::consts::TAU * u2).cos()
}

fn schedule_from(vector: &[f64]) -> SchedulePolicy {
    let (knots, frac) = vector.split_at(vector.len() - 1);
    SchedulePolicy { setpoints_c: knots.to_vec(), active_frac: frac[0].clamp(0.0, 1.0) }
}

/// CEM over (setpoint knots, active fraction): sample around the mean,
/// keep the elites, refit. Candidate 0 of every generation is the mean
/// itself, so generation 0 evaluates the paper-baseline schedule and the
/// best-so-far can never end below it.
fn run_cem(
    spec: &LearnSpec,
    harness: &mut Harness<'_>,
    iters: &mut Vec<IterLog>,
) -> (Reward, SchedulePolicy) {
    let dim = spec.cem.knots + 1;
    let mut mean: Vec<f64> = vec![30.0; spec.cem.knots];
    mean.push(1.0);
    let mut std: Vec<f64> = vec![spec.cem.setpoint_std; spec.cem.knots];
    std.push(spec.cem.active_std);
    let mut best: Option<(Reward, SchedulePolicy)> = None;

    for iter in 0..spec.cem.iters as u64 {
        let mut rng = SplitMix64::new(spec.seed ^ 0xCE11 ^ iter.wrapping_mul(GOLDEN));
        let mut vectors: Vec<Vec<f64>> = vec![mean.clone()];
        for _ in 1..spec.cem.population {
            let mut v = Vec::with_capacity(dim);
            for d in 0..dim {
                let x = mean[d] + std[d] * gaussian(&mut rng);
                if d < spec.cem.knots {
                    v.push(x.clamp(KNOT_RANGE_C.0, KNOT_RANGE_C.1));
                } else {
                    v.push(x.clamp(0.0, 1.0));
                }
            }
            vectors.push(v);
        }
        let policies: Vec<PolicySpec> =
            vectors.iter().map(|v| PolicySpec::Schedule(schedule_from(v))).collect();
        let aggs = harness.suite_aggs(spec, &policies);

        let mut order: Vec<usize> = (0..vectors.len()).collect();
        order.sort_by(|&a, &b| {
            let (ra, rb) = (aggs[a].reward, aggs[b].reward);
            ra.violation_cmin
                .total_cmp(&rb.violation_cmin)
                .then(ra.energy_kwh.total_cmp(&rb.energy_kwh))
        });
        let elites = &order[..spec.cem.elites];
        for d in 0..dim {
            let vals: Vec<f64> = elites.iter().map(|&i| vectors[i][d]).collect();
            let m = vals.iter().sum::<f64>() / vals.len() as f64;
            let var = vals.iter().map(|v| (v - m).powi(2)).sum::<f64>() / vals.len() as f64;
            mean[d] = m;
            std[d] = var.sqrt().max(STD_FLOOR);
        }

        let top = order[0];
        let candidate = (aggs[top].reward, schedule_from(&vectors[top]));
        let improved = match &best {
            Some((r, _)) => candidate.0.better_than(r),
            None => true,
        };
        if improved {
            best = Some(candidate);
        }
        let (r, _) = best.as_ref().expect("set above");
        harness.telemetry.emit(Event::LearnIter {
            learner: "cem".to_string(),
            iter,
            best_violation: r.violation_cmin,
            best_energy_kwh: r.energy_kwh,
        });
        iters.push(IterLog {
            learner: "cem".to_string(),
            iter,
            best_violation: r.violation_cmin,
            best_energy_kwh: r.energy_kwh,
        });
    }
    best.expect("iters >= 1")
}

/// Tabular Q-learning: epsilon-greedy rollouts (round-robin over the
/// suite) feed one-step TD updates; the greedy policy is evaluated over
/// the full suite at every checkpoint.
fn run_q(
    spec: &LearnSpec,
    harness: &mut Harness<'_>,
    iters: &mut Vec<IterLog>,
) -> (Reward, QTable) {
    let episodes = spec.episodes();
    let mut table = QTable::zeros();
    let mut best: Option<(Reward, QTable)> = None;
    let mut checkpoint = 0_u64;

    for ep_i in 0..spec.q.episodes {
        let frac = ep_i as f64 / spec.q.episodes as f64;
        let epsilon = (spec.q.epsilon * (1.0 - frac)).max(spec.q.epsilon_min);
        let policy = PolicySpec::Explore {
            table: table.clone(),
            seed: spec.seed ^ 0x9_0000 ^ (ep_i as u64).wrapping_mul(GOLDEN),
            epsilon,
        };
        let episode = episodes[ep_i % episodes.len()].clone();
        let out = harness
            .run(vec![EvalTask::Rollout { policy, episode, record_transitions: true }])
            .remove(0);
        for tr in &out.transitions {
            let (s, a) = (tr.state as usize, tr.action as usize);
            let bootstrap = if tr.done {
                0.0
            } else {
                spec.q.gamma * table.best_value(tr.next_state as usize)
            };
            let current = table.get(s, a);
            table.set(s, a, current + spec.q.alpha * (tr.reward + bootstrap - current));
        }

        if (ep_i + 1) % spec.q.checkpoint_every == 0 || ep_i + 1 == spec.q.episodes {
            let greedy = PolicySpec::Greedy { table: table.clone() };
            let agg = harness.suite_aggs(spec, std::slice::from_ref(&greedy))[0];
            let improved = match &best {
                Some((r, _)) => agg.reward.better_than(r),
                None => true,
            };
            if improved {
                best = Some((agg.reward, table.clone()));
            }
            let (r, _) = best.as_ref().expect("set above");
            harness.telemetry.emit(Event::LearnIter {
                learner: "q".to_string(),
                iter: checkpoint,
                best_violation: r.violation_cmin,
                best_energy_kwh: r.energy_kwh,
            });
            iters.push(IterLog {
                learner: "q".to_string(),
                iter: checkpoint,
                best_violation: r.violation_cmin,
                best_energy_kwh: r.energy_kwh,
            });
            checkpoint += 1;
        }
    }
    best.expect("episodes >= 1 forces a final checkpoint")
}

/// Runs the full learn benchmark: CEM and Q training, then the
/// head-to-head leaderboard (learned policies vs the random floor, TKS,
/// CoolAir-M5P, and the supervisor) over the episode suite.
///
/// Deterministic: the outcome is a pure function of the spec. Running
/// against a store-backed executor memoizes every rollout, so a killed
/// run resumed against the same store reproduces the outcome bit for bit.
///
/// # Panics
///
/// Panics when the spec fails [`LearnSpec::validate`] or an evaluation
/// exhausts the executor's retry budget.
#[must_use]
pub fn run_learn_with(spec: &LearnSpec, exec: &Executor, telemetry: &Telemetry) -> LearnOutcome {
    if let Err(e) = spec.validate() {
        panic!("invalid LearnSpec: {e}");
    }
    let mut harness = Harness::new(exec, telemetry);
    let mut iters: Vec<IterLog> = Vec::new();

    let (cem_reward, cem_policy) = run_cem(spec, &mut harness, &mut iters);
    let (q_reward, q_table) = run_q(spec, &mut harness, &mut iters);

    let (best_learned, policy) = if q_reward.better_than(&cem_reward) {
        ("q".to_string(), PolicySpec::Greedy { table: q_table.clone() })
    } else {
        ("cem".to_string(), PolicySpec::Schedule(cem_policy.clone()))
    };

    // Leaderboard: learned policies plus the episode-level baselines...
    let rows: Vec<(String, PolicySpec)> = vec![
        ("cem".to_string(), PolicySpec::Schedule(cem_policy)),
        ("q".to_string(), PolicySpec::Greedy { table: q_table }),
        ("random".to_string(), PolicySpec::Random { seed: spec.seed }),
        ("tks".to_string(), PolicySpec::Fixed { setpoint_c: 30.0 }),
    ];
    let policies: Vec<PolicySpec> = rows.iter().map(|(_, p)| p.clone()).collect();
    let aggs = harness.suite_aggs(spec, &policies);
    let mut leaderboard: Vec<Contender> = rows
        .iter()
        .zip(aggs.iter())
        .map(|((name, _), agg)| Contender {
            name: name.clone(),
            violation_cmin: agg.reward.violation_cmin,
            energy_kwh: agg.reward.energy_kwh,
            cooling_kwh: agg.cooling_kwh,
            it_kwh: agg.it_kwh,
        })
        .collect();

    // ...plus the classical systems run through the annual engine over the
    // same days.
    let episodes = spec.episodes();
    for (name, system) in classical_systems() {
        let tasks: Vec<EvalTask> = episodes
            .iter()
            .map(|ep| EvalTask::System { system: system.clone(), episode: ep.clone() })
            .collect();
        let mut agg = SuiteAgg::zero();
        for o in harness.run(tasks) {
            agg.add(&o);
        }
        leaderboard.push(Contender {
            name,
            violation_cmin: agg.reward.violation_cmin,
            energy_kwh: agg.reward.energy_kwh,
            cooling_kwh: agg.cooling_kwh,
            it_kwh: agg.it_kwh,
        });
    }
    leaderboard.sort_by(|a, b| {
        a.violation_cmin
            .total_cmp(&b.violation_cmin)
            .then(a.energy_kwh.total_cmp(&b.energy_kwh))
    });

    LearnOutcome {
        spec_digest: spec.digest().to_string(),
        seed: spec.seed,
        iters,
        leaderboard,
        best_learned,
        policy,
        rollouts: harness.rollouts,
        memo_hits: harness.memo.hits(),
        memo_misses: harness.memo.misses(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn gaussian_stream_is_deterministic_and_centered() {
        let mut a = SplitMix64::new(42);
        let mut b = SplitMix64::new(42);
        let mut sum = 0.0;
        for _ in 0..1000 {
            let x = gaussian(&mut a);
            assert_eq!(x, gaussian(&mut b));
            sum += x;
        }
        assert!((sum / 1000.0).abs() < 0.15, "mean of 1000 draws near 0, got {sum}");
    }

    #[test]
    fn schedule_from_splits_knots_and_fraction() {
        let p = schedule_from(&[20.0, 30.0, 1.4]);
        assert_eq!(p.setpoints_c, vec![20.0, 30.0]);
        assert_eq!(p.active_frac, 1.0, "fraction clamps to [0, 1]");
    }
}
