//! The co-scheduling RL environment (paper §IV-C).
//!
//! * **State** — the whole job window: for each of the `W` slots,
//!   `f + 5 = 17` floats (12 min–max-scaled Table III counters, a pending
//!   flag, the CI/MI/US one-hot from the offline characterisation, and
//!   the normalised solo duration). Scheduled slots are zeroed, so the
//!   state visibly shrinks as the episode progresses — matching the
//!   paper's input layer of `W × (f + 5)` neurons.
//! * **Action** — one of the 29 catalog entries (a concurrency plus a
//!   partition template). Since `A = 29` cannot encode *which* jobs join
//!   the group, jobs are bound to the chosen template's slots by the
//!   profile-driven binder: candidate job sets (longest pending jobs per
//!   class pattern, plus the max-`Σr_i` set) are scored with the
//!   [`CoRunPredictor`] — predictions computable from stored profiles
//!   alone, exactly what the paper collects profiles for — and the
//!   best-predicted set takes the slots. The intermediate reward `r_i`
//!   (which the paper defines to "evaluate the resource allocation for a
//!   selected job … before launching") is then paid for the binding.
//! * **Reward** — `w_i · mean(r_i) + w_f · r_f` where `r_f` is the
//!   measured throughput gain of the launched group (Table VI).
//! * **Episode** — ends when the window is drained; the accumulated
//!   groups form the decision `(LJS, LR)`.

use crate::actions::ActionCatalog;
use crate::predict::CoRunPredictor;
use crate::problem::{evaluate_group, ScheduleDecision, ScheduledGroup};
use crate::reward::{final_reward, intermediate_reward, WindowStats};
use crate::rl::{Env, EnvFactory};
use hrp_gpusim::engine::EngineConfig;
use hrp_gpusim::CompiledPartition;
use hrp_profile::{FeatureScaler, JobProfile, ProfileRepository};
use hrp_workloads::{Class, JobQueue, Suite};

/// Per-job feature width: 12 scaled counters + pending + 3-way class
/// one-hot + normalised duration.
pub const JOB_FEATURES: usize = 17;

/// Environment configuration.
#[derive(Debug, Clone)]
pub struct EnvConfig {
    /// Window size `W`.
    pub w: usize,
    /// Concurrency cap `Cmax`.
    pub cmax: usize,
    /// Weight of the intermediate reward in the step reward.
    pub ri_weight: f64,
    /// Weight of the final (throughput) reward in the step reward.
    pub rf_weight: f64,
    /// Inert: the co-run engine takes no configuration. Kept only
    /// because the frozen `benchmark/` names it (ROADMAP item 2f).
    pub engine: EngineConfig,
}

impl EnvConfig {
    /// The paper's evaluation defaults (`W = 12`, `Cmax = 4`).
    #[must_use]
    pub fn paper() -> Self {
        Self {
            w: 12,
            cmax: 4,
            ri_weight: 0.05,
            rf_weight: 0.05,
            engine: EngineConfig,
        }
    }
}

/// Outcome of one environment step.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct StepResult {
    /// Combined reward.
    pub reward: f64,
    /// Whether the window is drained.
    pub done: bool,
    /// Measured final reward `r_f` of the launched group.
    pub rf: f64,
    /// Mean intermediate reward of the bound jobs.
    pub ri_mean: f64,
}

/// The environment. Borrow-cheap: construct one per episode.
pub struct CoScheduleEnv<'a> {
    suite: &'a Suite,
    queue: &'a JobQueue,
    catalog: &'a ActionCatalog,
    cfg: EnvConfig,
    profiles: Vec<&'a JobProfile>,
    features: Vec<[f64; 12]>,
    classes: Vec<Class>,
    stats: WindowStats,
    max_solo: f64,
    pending: Vec<bool>,
    decision: ScheduleDecision,
    compiled: Vec<CompiledPartition>,
    predictor: CoRunPredictor,
}

impl<'a> CoScheduleEnv<'a> {
    /// Build an environment over a queue whose jobs are all profiled.
    ///
    /// # Panics
    /// Panics if a job has no profile in the repository (the online layer
    /// filters unprofiled jobs out before scheduling, per Fig. 7).
    #[must_use]
    pub fn new(
        suite: &'a Suite,
        queue: &'a JobQueue,
        repo: &'a ProfileRepository,
        scaler: &FeatureScaler,
        catalog: &'a ActionCatalog,
        cfg: EnvConfig,
    ) -> Self {
        assert!(queue.len() <= cfg.w, "queue larger than the window");
        let profiles: Vec<&JobProfile> = queue
            .jobs
            .iter()
            .map(|j| {
                repo.get(j.bench).unwrap_or_else(|| {
                    panic!("job '{}' has no profile", suite.by_index(j.bench).app.name)
                })
            })
            .collect();
        let features: Vec<[f64; 12]> = profiles.iter().map(|p| scaler.transform(p)).collect();
        let classes: Vec<Class> = queue
            .jobs
            .iter()
            .map(|j| suite.by_index(j.bench).class)
            .collect();
        let stats = WindowStats::from_profiles(profiles.iter().copied());
        let max_solo = profiles
            .iter()
            .map(|p| p.solo_time)
            .fold(f64::MIN_POSITIVE, f64::max);
        let compiled = catalog
            .schemes()
            .iter()
            .map(|s| s.compile(suite.arch()).expect("catalog schemes compile"))
            .collect();
        let predictor = CoRunPredictor::new(profiles.iter().copied(), suite.arch());
        Self {
            suite,
            queue,
            catalog,
            cfg,
            profiles,
            features,
            classes,
            stats,
            max_solo,
            pending: vec![true; queue.len()],
            decision: ScheduleDecision::default(),
            compiled,
            predictor,
        }
    }

    /// Length of the state vector: `W × 17`.
    #[must_use]
    pub fn state_dim(&self) -> usize {
        self.cfg.w * JOB_FEATURES
    }

    /// Number of still-pending jobs.
    #[must_use]
    pub fn pending_count(&self) -> usize {
        self.pending.iter().filter(|&&p| p).count()
    }

    /// Whether the episode is over.
    #[must_use]
    pub fn done(&self) -> bool {
        self.pending_count() == 0
    }

    /// Encode the current state into a caller-provided buffer (resized
    /// to `W × 17`), avoiding a fresh allocation per step — rollout
    /// workers reuse one buffer per episode.
    pub fn state_into(&self, out: &mut Vec<f32>) {
        out.clear();
        out.resize(self.state_dim(), 0.0);
        for (i, &pending) in self.pending.iter().enumerate() {
            if !pending {
                continue; // scheduled slots stay zero
            }
            let base = i * JOB_FEATURES;
            for (k, &f) in self.features[i].iter().enumerate() {
                out[base + k] = f as f32;
            }
            out[base + 12] = 1.0; // pending flag
            let class_off = match self.classes[i] {
                Class::Ci => 13,
                Class::Mi => 14,
                Class::Us => 15,
            };
            out[base + class_off] = 1.0;
            out[base + 16] = (self.profiles[i].solo_time / self.max_solo) as f32;
        }
    }

    /// Bitmask of currently valid actions.
    #[must_use]
    pub fn valid_mask(&self) -> u64 {
        self.catalog.valid_mask(self.pending_count(), self.cfg.cmax)
    }

    /// Candidate job subsets for a group of size `c`: for every class
    /// pattern (multiset of CI/MI/US of size `c`) take the longest
    /// pending jobs of each class; plus the max-`Σr_i` subset.
    fn candidate_subsets(&self, c: usize, ri: &[Vec<f64>], pending: &[usize]) -> Vec<Vec<usize>> {
        use hrp_workloads::Class;
        // Pending jobs per class, longest first.
        let mut by_class: [Vec<usize>; 3] = [Vec::new(), Vec::new(), Vec::new()];
        let mut order: Vec<usize> = pending.to_vec();
        order.sort_by(|&a, &b| {
            self.profiles[b]
                .solo_time
                .total_cmp(&self.profiles[a].solo_time)
        });
        for &j in &order {
            let k = match self.classes[j] {
                Class::Ci => 0,
                Class::Mi => 1,
                Class::Us => 2,
            };
            by_class[k].push(j);
        }
        let mut candidates: Vec<Vec<usize>> = Vec::new();
        // Enumerate class-count triples (n_ci, n_mi, n_us) summing to c.
        for n_ci in 0..=c {
            for n_mi in 0..=(c - n_ci) {
                let n_us = c - n_ci - n_mi;
                if n_ci > by_class[0].len() || n_mi > by_class[1].len() || n_us > by_class[2].len()
                {
                    continue;
                }
                let counts = [n_ci, n_mi, n_us];
                // Variant A: the longest pending jobs of each class.
                let mut subset = Vec::with_capacity(c);
                subset.extend_from_slice(&by_class[0][..n_ci]);
                subset.extend_from_slice(&by_class[1][..n_mi]);
                subset.extend_from_slice(&by_class[2][..n_us]);
                subset.sort_unstable();
                if !candidates.contains(&subset) {
                    candidates.push(subset.clone());
                }
                // Variant B: duration-matched — anchor on the largest
                // class's longest jobs and pick the other classes'
                // members closest to the anchor duration (mismatched
                // durations waste the static allocation after the short
                // partner finishes).
                let anchor_class = (0..3).max_by_key(|&k| counts[k]).unwrap_or(0);
                if counts[anchor_class] > 0 {
                    let anchor: f64 = by_class[anchor_class][..counts[anchor_class]]
                        .iter()
                        .map(|&j| self.profiles[j].solo_time)
                        .sum::<f64>()
                        / counts[anchor_class] as f64;
                    let mut matched = Vec::with_capacity(c);
                    for k in 0..3 {
                        if counts[k] == 0 {
                            continue;
                        }
                        if k == anchor_class {
                            matched.extend_from_slice(&by_class[k][..counts[k]]);
                        } else {
                            let mut pool = by_class[k].clone();
                            pool.sort_by(|&a, &b| {
                                (self.profiles[a].solo_time - anchor)
                                    .abs()
                                    .total_cmp(&(self.profiles[b].solo_time - anchor).abs())
                            });
                            matched.extend_from_slice(&pool[..counts[k]]);
                        }
                    }
                    matched.sort_unstable();
                    if !candidates.contains(&matched) {
                        candidates.push(matched);
                    }
                }
            }
        }
        // The pure max-Σr_i subset (greedy by best slot value) as the
        // paper-literal fallback candidate.
        let mut scored: Vec<(f64, usize)> = pending
            .iter()
            .enumerate()
            .map(|(p, &j)| {
                let best = ri[p].iter().cloned().fold(f64::NEG_INFINITY, f64::max);
                (best, j)
            })
            .collect();
        scored.sort_by(|a, b| b.0.total_cmp(&a.0));
        let mut greedy: Vec<usize> = scored[..c].iter().map(|&(_, j)| j).collect();
        greedy.sort_unstable();
        if !candidates.contains(&greedy) {
            candidates.push(greedy);
        }
        candidates
    }

    /// Bind jobs to the slots of `part`: choose the candidate subset with
    /// the best *predicted* time saving, then the best predicted slot
    /// assignment; `Σ r_i` of the chosen binding is returned for the
    /// shaping reward. Returns `(job_ids, slot_assignment, ri_sum)`.
    fn bind_jobs(&self, part: &CompiledPartition) -> (Vec<usize>, Vec<usize>, f64) {
        let c = part.slots.len();
        let pending: Vec<usize> = (0..self.queue.len()).filter(|&j| self.pending[j]).collect();
        assert!(pending.len() >= c, "action requires more jobs than pending");

        // r_i matrix: pending-job × slot (needed for the fallback
        // candidate and the shaping reward).
        let ri: Vec<Vec<f64>> = pending
            .iter()
            .map(|&j| {
                (0..c)
                    .map(|s| {
                        let slot = &part.slots[s];
                        let mem = part.domains[slot.domain].bandwidth_frac;
                        intermediate_reward(self.profiles[j], &self.stats, slot.compute_frac, mem)
                    })
                    .collect()
            })
            .collect();

        let mut best: Option<(f64, Vec<usize>, Vec<usize>)> = None;
        for subset in self.candidate_subsets(c, &ri, &pending) {
            let (makespan, assignment) = self.predictor.predict_best_assignment(&subset, part);
            let saved = self.predictor.predicted_solo_sum(&subset) - makespan;
            if best.as_ref().is_none_or(|(s, _, _)| saved > *s) {
                best = Some((saved, subset, assignment));
            }
        }
        let (_, job_ids, assignment) = best.expect("at least one candidate");

        let ri_sum: f64 = job_ids
            .iter()
            .zip(assignment.iter())
            .map(|(&j, &slot)| {
                let p = pending.iter().position(|&x| x == j).expect("job pending");
                ri[p][slot]
            })
            .sum();
        (job_ids, assignment, ri_sum)
    }

    /// Bind `action`'s jobs and run the group on the simulator: the
    /// bound job ids, the group, its final reward r_f (0 for a solo
    /// group) and the sum of the jobs' intermediate rewards r_i.
    ///
    /// # Panics
    /// Panics if the action is invalid for the current mask.
    fn launch(&self, action: usize) -> (Vec<usize>, ScheduledGroup, f64, f64) {
        assert!(
            self.valid_mask() & (1 << action) != 0,
            "action {action} invalid with {} pending",
            self.pending_count()
        );
        let (job_ids, assignment, ri_sum) = self.bind_jobs(&self.compiled[action]);
        let scheme = self.catalog.scheme(action);
        let group = evaluate_group(self.suite, self.queue, &job_ids, scheme, &assignment);
        let rf = if group.concurrency() > 1 {
            final_reward(group.solo_time, group.corun_time)
        } else {
            0.0
        };
        (job_ids, group, rf, ri_sum)
    }

    /// Evaluate an action **without taking it**: returns the group's
    /// measured `(rf, corun_time, solo_time)` under the current binding.
    /// Used by the oracle-greedy reference policy and for debugging; the
    /// RL agent itself never peeks (it must learn the mapping).
    ///
    /// # Panics
    /// Panics if the action is invalid for the current mask.
    #[must_use]
    pub fn peek_action(&self, action: usize) -> (f64, f64, f64) {
        let (_, group, rf, _) = self.launch(action);
        (rf, group.corun_time, group.solo_time)
    }

    /// Take an action: bind jobs, launch the group on the simulator,
    /// collect the reward.
    ///
    /// # Panics
    /// Panics if the action is invalid for the current mask.
    pub fn step(&mut self, action: usize) -> StepResult {
        let (job_ids, group, rf, ri_sum) = self.launch(action);
        let ri_mean = ri_sum / job_ids.len() as f64;
        for &j in &job_ids {
            self.pending[j] = false;
        }
        self.decision.groups.push(group);
        StepResult {
            reward: self.cfg.ri_weight * ri_mean + self.cfg.rf_weight * rf,
            done: self.done(),
            rf,
            ri_mean,
        }
    }

    /// Return to the initial state: every job pending again, the
    /// accumulated decision discarded. The profiles, predictor, and
    /// compiled partitions are episode-invariant and stay as built.
    pub fn reset(&mut self) {
        self.pending.iter_mut().for_each(|p| *p = true);
        self.decision = ScheduleDecision::default();
    }

    /// Consume the environment, returning the accumulated decision.
    #[must_use]
    pub fn into_decision(self) -> ScheduleDecision {
        self.decision
    }

    /// The environment configuration.
    #[must_use]
    pub fn config(&self) -> &EnvConfig {
        &self.cfg
    }
}

impl Env for CoScheduleEnv<'_> {
    type Decision = ScheduleDecision;

    fn state_dim(&self) -> usize {
        CoScheduleEnv::state_dim(self)
    }

    fn n_actions(&self) -> usize {
        self.catalog.len()
    }

    fn done(&self) -> bool {
        CoScheduleEnv::done(self)
    }

    fn state_into(&self, out: &mut Vec<f32>) {
        CoScheduleEnv::state_into(self, out);
    }

    fn valid_mask(&self) -> u64 {
        CoScheduleEnv::valid_mask(self)
    }

    fn step(&mut self, action: usize) -> StepResult {
        CoScheduleEnv::step(self, action)
    }

    fn reset(&mut self) {
        CoScheduleEnv::reset(self);
    }

    fn into_decision(self) -> ScheduleDecision {
        CoScheduleEnv::into_decision(self)
    }
}

/// Stamps out [`CoScheduleEnv`] episodes: the episode-invariant pieces
/// (suite, profiles, scaler, catalog, env config) bundled behind the
/// [`EnvFactory`] interface the generic pipeline consumes.
pub struct CoScheduleEnvFactory<'a> {
    suite: &'a Suite,
    repo: &'a ProfileRepository,
    scaler: &'a FeatureScaler,
    catalog: &'a ActionCatalog,
    cfg: EnvConfig,
}

impl<'a> CoScheduleEnvFactory<'a> {
    /// Bundle the episode-invariant state.
    #[must_use]
    pub fn new(
        suite: &'a Suite,
        repo: &'a ProfileRepository,
        scaler: &'a FeatureScaler,
        catalog: &'a ActionCatalog,
        cfg: EnvConfig,
    ) -> Self {
        Self {
            suite,
            repo,
            scaler,
            catalog,
            cfg,
        }
    }
}

impl EnvFactory for CoScheduleEnvFactory<'_> {
    type Ctx = JobQueue;

    type Env<'e>
        = CoScheduleEnv<'e>
    where
        Self: 'e;

    fn make<'e>(&'e self, queue: &'e JobQueue) -> CoScheduleEnv<'e> {
        CoScheduleEnv::new(
            self.suite,
            queue,
            self.repo,
            self.scaler,
            self.catalog,
            self.cfg.clone(),
        )
    }

    fn state_dim(&self) -> usize {
        self.cfg.w * JOB_FEATURES
    }

    fn n_actions(&self) -> usize {
        self.catalog.len()
    }

    fn episode_steps_hint(&self) -> usize {
        self.cfg.w
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hrp_gpusim::GpuArch;
    use hrp_profile::Profiler;

    fn fixture() -> (
        Suite,
        JobQueue,
        ProfileRepository,
        FeatureScaler,
        ActionCatalog,
    ) {
        let arch = GpuArch::a100();
        let suite = Suite::paper_suite(&arch);
        let queue = JobQueue::from_names(
            "t",
            &[
                "lavaMD",
                "stream",
                "kmeans",
                "pathfinder",
                "bt_solver_A",
                "lud_A",
            ],
            &suite,
        );
        let profiler = Profiler::new(arch, 0.02, 5);
        let repo = ProfileRepository::for_suite(&suite, &profiler);
        let scaler = FeatureScaler::fit(&repo);
        (suite, queue, repo, scaler, ActionCatalog::paper_29())
    }

    fn cfg() -> EnvConfig {
        EnvConfig {
            w: 6,
            cmax: 4,
            ..EnvConfig::paper()
        }
    }

    fn state(env: &CoScheduleEnv<'_>) -> Vec<f32> {
        let mut out = Vec::new();
        env.state_into(&mut out);
        out
    }

    #[test]
    fn state_has_expected_shape_and_flags() {
        let (suite, queue, repo, scaler, catalog) = fixture();
        let env = CoScheduleEnv::new(&suite, &queue, &repo, &scaler, &catalog, cfg());
        let s = state(&env);
        assert_eq!(s.len(), 6 * JOB_FEATURES);
        // Every job pending: flag set in each block.
        for i in 0..6 {
            assert_eq!(s[i * JOB_FEATURES + 12], 1.0);
            // Exactly one class bit.
            let class_bits: f32 = s[i * JOB_FEATURES + 13..i * JOB_FEATURES + 16].iter().sum();
            assert_eq!(class_bits, 1.0);
        }
        // Longest job (bt_solver_A, 45 s) has duration feature 1.0.
        let bt_block = 4 * JOB_FEATURES;
        assert!((s[bt_block + 16] - 1.0).abs() < 1e-6);
    }

    #[test]
    fn scheduled_jobs_zero_out() {
        let (suite, queue, repo, scaler, catalog) = fixture();
        let mut env = CoScheduleEnv::new(&suite, &queue, &repo, &scaler, &catalog, cfg());
        let r = env.step(0); // C = 1 action
        assert!(!r.done);
        let s = state(&env);
        let zeroed: usize = (0..6).filter(|i| s[i * JOB_FEATURES + 12] == 0.0).count();
        assert_eq!(zeroed, 1);
        assert_eq!(env.pending_count(), 5);
    }

    #[test]
    fn episode_drains_window() {
        let (suite, queue, repo, scaler, catalog) = fixture();
        let mut env = CoScheduleEnv::new(&suite, &queue, &repo, &scaler, &catalog, cfg());
        let mut steps = 0;
        while !env.done() {
            // Always pick the first valid action (C=1) — guaranteed legal.
            let mask = env.valid_mask();
            let action = (0..catalog.len()).find(|a| mask & (1 << a) != 0).unwrap();
            env.step(action);
            steps += 1;
            assert!(steps <= 6);
        }
        let d = env.into_decision();
        d.validate(&queue, 4, false).unwrap();
        assert_eq!(d.groups.len(), 6);
    }

    #[test]
    fn mask_shrinks_as_jobs_drain() {
        let (suite, queue, repo, scaler, catalog) = fixture();
        let mut env = CoScheduleEnv::new(&suite, &queue, &repo, &scaler, &catalog, cfg());
        assert_eq!(env.valid_mask().count_ones(), 29);
        // Schedule a 4-way group → 2 pending → only C ≤ 2 actions.
        let four_way = (0..catalog.len())
            .find(|&a| catalog.concurrency(a) == 4)
            .unwrap();
        env.step(four_way);
        assert_eq!(env.pending_count(), 2);
        assert_eq!(env.valid_mask().count_ones(), 8);
    }

    #[test]
    fn binding_matches_complementary_jobs_to_slots() {
        // Action: 80/20 MPS split. The CI job (high Compute ratio, long)
        // should take the big compute slot over the MI job.
        let (suite, queue, repo, scaler, catalog) = fixture();
        let mut env = CoScheduleEnv::new(&suite, &queue, &repo, &scaler, &catalog, cfg());
        // Find the (0.2, 0.8) MPS action.
        let a37 = catalog
            .schemes()
            .iter()
            .position(|s| {
                matches!(s, hrp_gpusim::PartitionScheme::MpsOnly { shares }
                    if shares.len() == 2 && (shares[0] - 0.3).abs() < 1e-9)
            })
            .unwrap();
        let r = env.step(a37);
        let group = &env.decision.groups[0];
        // The group contains two jobs; the one on slot 1 (0.8 compute)
        // must have the higher Compute(SM)% profile.
        let hi = group.job_ids[1];
        let lo = group.job_ids[0];
        let sm = |j: usize| repo.get(queue.jobs[j].bench).unwrap().compute_pct();
        assert!(
            sm(hi) * env.profiles[hi].solo_time >= sm(lo) * env.profiles[lo].solo_time * 0.5,
            "binding should favour compute-heavy long jobs on big slots"
        );
        assert!(r.ri_mean > 0.0);
    }

    #[test]
    fn rewards_reflect_group_quality() {
        // A window whose two longest jobs are a complementary CI/MI pair:
        // the r_i binder (duration-squared dominant) picks them, the CI
        // job lands on the big share, and the measured r_f is positive.
        let (suite, _, repo, scaler, catalog) = fixture();
        let queue = JobQueue::from_names(
            "t2",
            &[
                "bt_solver_A",
                "sp_solver_B",
                "stream",
                "kmeans",
                "pathfinder",
                "dwt2d",
            ],
            &suite,
        );
        let mut env = CoScheduleEnv::new(&suite, &queue, &repo, &scaler, &catalog, cfg());
        let a37 = catalog
            .schemes()
            .iter()
            .position(|s| {
                matches!(s, hrp_gpusim::PartitionScheme::MpsOnly { shares }
                    if shares.len() == 2 && (shares[0] - 0.3).abs() < 1e-9)
            })
            .unwrap();
        let r = env.step(a37);
        assert!(r.rf > 0.0, "co-run should beat time sharing: rf = {}", r.rf);
        assert!(r.reward > 0.0);
        // And the CI job must be on the 0.8 slot.
        let group = &env.decision.groups[0];
        let bt_solver_a = suite.index_of("bt_solver_A").unwrap();
        let bt = queue
            .jobs
            .iter()
            .position(|j| j.bench == bt_solver_a)
            .unwrap();
        let pos = group.job_ids.iter().position(|&j| j == bt).unwrap();
        assert_eq!(group.assignment[pos], 1, "CI job takes the big share");
    }

    #[test]
    #[should_panic(expected = "invalid")]
    fn invalid_action_panics() {
        let (suite, queue, repo, scaler, catalog) = fixture();
        let small = JobQueue {
            label: "one".into(),
            jobs: vec![queue.jobs[0].clone()],
        };
        let mut env = CoScheduleEnv::new(&suite, &small, &repo, &scaler, &catalog, cfg());
        // Any C=2 action must panic with one pending job.
        let two = (0..catalog.len())
            .find(|&a| catalog.concurrency(a) == 2)
            .unwrap();
        env.step(two);
    }
}
