//! The two-level hierarchical environment: the paper's MIG → MPS
//! decision split, trained through the same generic pipeline as the
//! flat formulation.
//!
//! The flat [`CoScheduleEnv`] folds the whole hierarchy into one
//! 29-action catalog entry (concurrency + MIG layout + MPS shares in a
//! single choice). [`HierarchicalEnv`] instead makes each scheduling
//! decision in **two steps**, mirroring the paper's §II resource
//! hierarchy:
//!
//! 1. **MIG level** — choose the *physical* shape: concurrency plus the
//!    GPU-instance layout (no MIG / shared-memory 7g GI / private 3g+4g
//!    GIs). These are the [`HierarchicalCatalog`]'s *groups*: the 29
//!    catalog entries collapse to 10 distinct MIG-level shapes.
//! 2. **MPS level** — choose the *logical* allocation inside that
//!    shape: which MPS share vector the group's clients get (up to 7
//!    variants per shape).
//!
//! Both levels run through the same Q-network: the action space is
//! `n_groups + max_variants` wide (17 for the paper catalog, vs 29
//! flat), the state carries a phase flag plus a one-hot of the chosen
//! MIG group, and each level exposes its own valid-action mask. The
//! MIG-level step pays no immediate reward — the group's measured
//! reward arrives on the MPS-level step and reaches the MIG decision
//! through the one-step bootstrap, exactly the credit-assignment
//! structure of hierarchical value decomposition.
//!
//! By construction every two-level path `(group, variant)` maps to
//! exactly one flat catalog action and vice versa, so the two
//! formulations reach identical decision spaces — pinned by the
//! composition property test in `tests/env_contract.rs`.

use crate::actions::ActionCatalog;
use crate::env::{CoScheduleEnv, CoScheduleEnvFactory, EnvConfig, StepResult, JOB_FEATURES};
use crate::problem::ScheduleDecision;
use crate::rl::{Env, EnvFactory};
use hrp_gpusim::PartitionScheme;
use hrp_profile::{FeatureScaler, ProfileRepository};
use hrp_workloads::{JobQueue, Suite};
use std::fmt;

/// The MIG-level (physical) shape of a catalog action, ignoring the
/// MPS shares inside it.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum MigShape {
    /// MIG disabled: the whole GPU, one shared memory domain.
    NoMig,
    /// One 7g GPU instance (memory stays shared) split into CIs.
    SharedMemory,
    /// Private 3g + 4g GPU instances (isolated memory slices).
    PrivateMemory,
}

impl fmt::Display for MigShape {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Self::NoMig => write!(f, "no-MIG"),
            Self::SharedMemory => write!(f, "MIG-shared"),
            Self::PrivateMemory => write!(f, "MIG-private"),
        }
    }
}

impl MigShape {
    /// Classify a partition scheme's MIG level.
    #[must_use]
    pub fn of(scheme: &PartitionScheme) -> Self {
        match scheme {
            PartitionScheme::MpsOnly { .. } => Self::NoMig,
            PartitionScheme::Mig { gis } if gis.len() == 1 => Self::SharedMemory,
            PartitionScheme::Mig { .. } => Self::PrivateMemory,
        }
    }
}

/// One MIG-level group: a `(concurrency, shape)` pair plus the flat
/// catalog actions (MPS variants) it contains.
#[derive(Debug, Clone)]
pub struct MigGroup {
    /// Concurrency of every member.
    pub lanes: usize,
    /// The physical shape shared by every member.
    pub shape: MigShape,
    /// Flat catalog action indices, in catalog order.
    pub members: Vec<usize>,
}

/// The flat action catalog factored into the two-level hierarchy.
#[derive(Debug, Clone)]
pub struct HierarchicalCatalog {
    groups: Vec<MigGroup>,
    max_variants: usize,
    flat_len: usize,
}

impl HierarchicalCatalog {
    /// Factor a flat catalog by `(lanes, MIG shape)`, preserving catalog
    /// order for both groups and members (deterministic for a fixed
    /// catalog).
    #[must_use]
    pub fn from_catalog(catalog: &ActionCatalog) -> Self {
        let mut groups: Vec<MigGroup> = Vec::new();
        for (i, scheme) in catalog.schemes().iter().enumerate() {
            let lanes = scheme.lanes();
            let shape = MigShape::of(scheme);
            match groups
                .iter_mut()
                .find(|g| g.lanes == lanes && g.shape == shape)
            {
                Some(g) => g.members.push(i),
                None => groups.push(MigGroup {
                    lanes,
                    shape,
                    members: vec![i],
                }),
            }
        }
        let max_variants = groups.iter().map(|g| g.members.len()).max().unwrap_or(0);
        Self {
            groups,
            max_variants,
            flat_len: catalog.len(),
        }
    }

    /// The MIG-level groups, in first-occurrence catalog order.
    #[must_use]
    pub fn groups(&self) -> &[MigGroup] {
        &self.groups
    }

    /// Number of MIG-level actions.
    #[must_use]
    pub fn n_groups(&self) -> usize {
        self.groups.len()
    }

    /// Total hierarchical action-space size:
    /// `n_groups + max_variants` (MIG actions first, then MPS slots).
    #[must_use]
    pub fn n_actions(&self) -> usize {
        self.groups.len() + self.max_variants
    }

    /// The flat catalog action selected by `(group, variant)`.
    ///
    /// # Panics
    /// Panics if the group or variant index is out of range.
    #[must_use]
    pub fn flat_action(&self, group: usize, variant: usize) -> usize {
        self.groups[group].members[variant]
    }

    /// The `(group, variant)` pair that selects flat action `flat` —
    /// the inverse of [`HierarchicalCatalog::flat_action`].
    ///
    /// # Panics
    /// Panics if `flat` is not a catalog action.
    #[must_use]
    pub fn path_of_flat(&self, flat: usize) -> (usize, usize) {
        assert!(flat < self.flat_len, "flat action {flat} out of range");
        self.groups
            .iter()
            .enumerate()
            .find_map(|(g, grp)| {
                grp.members
                    .iter()
                    .position(|&m| m == flat)
                    .map(|variant| (g, variant))
            })
            .expect("every flat action belongs to exactly one group")
    }

    /// MIG-level valid mask given the flat env's mask: a group is
    /// available iff its members are (members share a concurrency, so
    /// they are valid or invalid together).
    #[must_use]
    pub fn level1_mask(&self, flat_mask: u64) -> u64 {
        let mut mask = 0u64;
        for (g, grp) in self.groups.iter().enumerate() {
            if grp.members.iter().any(|&m| flat_mask & (1 << m) != 0) {
                mask |= 1 << g;
            }
        }
        mask
    }

    /// MPS-level valid mask after choosing `group`: variant `k` maps to
    /// hierarchical action `n_groups + k`.
    #[must_use]
    pub fn level2_mask(&self, group: usize, flat_mask: u64) -> u64 {
        let base = self.groups.len();
        let mut mask = 0u64;
        for (k, &m) in self.groups[group].members.iter().enumerate() {
            if flat_mask & (1 << m) != 0 {
                mask |= 1 << (base + k);
            }
        }
        mask
    }
}

/// The two-level environment: a [`CoScheduleEnv`] stepped through
/// MIG-level then MPS-level actions (see the [module docs](self)).
pub struct HierarchicalEnv<'a> {
    inner: CoScheduleEnv<'a>,
    hcat: &'a HierarchicalCatalog,
    /// The pending MIG-level choice, `None` between scheduling decisions.
    chosen_group: Option<usize>,
}

impl<'a> HierarchicalEnv<'a> {
    /// Wrap a flat episode in the two-level action interface.
    #[must_use]
    pub fn new(inner: CoScheduleEnv<'a>, hcat: &'a HierarchicalCatalog) -> Self {
        Self {
            inner,
            hcat,
            chosen_group: None,
        }
    }
}

impl Env for HierarchicalEnv<'_> {
    type Decision = ScheduleDecision;

    fn state_dim(&self) -> usize {
        // Flat window features, then a phase flag, then the chosen-group
        // one-hot (zeroed at the MIG level).
        CoScheduleEnv::state_dim(&self.inner) + 1 + self.hcat.n_groups()
    }

    fn n_actions(&self) -> usize {
        self.hcat.n_actions()
    }

    fn done(&self) -> bool {
        CoScheduleEnv::done(&self.inner)
    }

    fn state_into(&self, out: &mut Vec<f32>) {
        CoScheduleEnv::state_into(&self.inner, out);
        out.push(if self.chosen_group.is_some() {
            1.0
        } else {
            0.0
        });
        let base = out.len();
        out.resize(base + self.hcat.n_groups(), 0.0);
        if let Some(g) = self.chosen_group {
            out[base + g] = 1.0;
        }
    }

    fn valid_mask(&self) -> u64 {
        let flat_mask = CoScheduleEnv::valid_mask(&self.inner);
        match self.chosen_group {
            None => self.hcat.level1_mask(flat_mask),
            Some(g) => self.hcat.level2_mask(g, flat_mask),
        }
    }

    fn step(&mut self, action: usize) -> StepResult {
        assert!(
            self.valid_mask() & (1 << action) != 0,
            "hierarchical action {action} invalid ({} level)",
            if self.chosen_group.is_some() {
                "MPS"
            } else {
                "MIG"
            }
        );
        match self.chosen_group {
            None => {
                // MIG level: commit the physical shape. No reward yet —
                // the group's outcome is credited on the MPS step and
                // reaches this decision through the bootstrap.
                self.chosen_group = Some(action);
                StepResult {
                    reward: 0.0,
                    done: false,
                    rf: 0.0,
                    ri_mean: 0.0,
                }
            }
            Some(g) => {
                let variant = action - self.hcat.n_groups();
                let flat = self.hcat.flat_action(g, variant);
                self.chosen_group = None;
                CoScheduleEnv::step(&mut self.inner, flat)
            }
        }
    }

    fn reset(&mut self) {
        CoScheduleEnv::reset(&mut self.inner);
        self.chosen_group = None;
    }

    fn into_decision(self) -> ScheduleDecision {
        assert!(
            self.chosen_group.is_none(),
            "episode ended mid-decision (MIG level chosen, MPS level pending)"
        );
        CoScheduleEnv::into_decision(self.inner)
    }
}

/// Stamps out [`HierarchicalEnv`] episodes: a flat factory plus the
/// factored catalog.
pub struct HierarchicalEnvFactory<'a> {
    flat: CoScheduleEnvFactory<'a>,
    hcat: HierarchicalCatalog,
    w: usize,
}

impl<'a> HierarchicalEnvFactory<'a> {
    /// Bundle the episode-invariant state and factor the catalog.
    #[must_use]
    pub fn new(
        suite: &'a Suite,
        repo: &'a ProfileRepository,
        scaler: &'a FeatureScaler,
        catalog: &'a ActionCatalog,
        cfg: EnvConfig,
    ) -> Self {
        let w = cfg.w;
        Self {
            flat: CoScheduleEnvFactory::new(suite, repo, scaler, catalog, cfg),
            hcat: HierarchicalCatalog::from_catalog(catalog),
            w,
        }
    }

    /// The factored catalog (shared by every produced env).
    #[must_use]
    pub fn catalog(&self) -> &HierarchicalCatalog {
        &self.hcat
    }
}

impl EnvFactory for HierarchicalEnvFactory<'_> {
    type Ctx = JobQueue;

    type Env<'e>
        = HierarchicalEnv<'e>
    where
        Self: 'e;

    fn make<'e>(&'e self, queue: &'e JobQueue) -> HierarchicalEnv<'e> {
        HierarchicalEnv::new(self.flat.make(queue), &self.hcat)
    }

    fn state_dim(&self) -> usize {
        self.w * JOB_FEATURES + 1 + self.hcat.n_groups()
    }

    fn n_actions(&self) -> usize {
        self.hcat.n_actions()
    }

    fn episode_steps_hint(&self) -> usize {
        // Every scheduling decision takes two env steps.
        2 * self.w
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hrp_gpusim::GpuArch;
    use hrp_profile::Profiler;

    fn fixture() -> (Suite, JobQueue, ProfileRepository, FeatureScaler) {
        let arch = GpuArch::a100();
        let suite = Suite::paper_suite(&arch);
        let queue = JobQueue::from_names(
            "h",
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
        (suite, queue, repo, scaler)
    }

    fn env_cfg() -> EnvConfig {
        EnvConfig {
            w: 6,
            cmax: 4,
            ..EnvConfig::paper()
        }
    }

    #[test]
    fn paper_catalog_factors_into_ten_groups() {
        let hcat = HierarchicalCatalog::from_catalog(&ActionCatalog::paper_29());
        assert_eq!(hcat.n_groups(), 10);
        assert_eq!(hcat.max_variants, 7);
        assert_eq!(hcat.n_actions(), 17);
        // Membership partitions the 29 actions.
        let total: usize = hcat.groups().iter().map(|g| g.members.len()).sum();
        assert_eq!(total, 29);
        // Per-concurrency structure: C=1 has one pure-MPS group; C≥2 has
        // an MPS group plus shared- and private-memory MIG groups.
        for c in 2..=4 {
            let shapes: Vec<MigShape> = hcat
                .groups()
                .iter()
                .filter(|g| g.lanes == c)
                .map(|g| g.shape)
                .collect();
            assert!(shapes.contains(&MigShape::NoMig), "C={c} missing MPS");
            assert!(
                shapes.contains(&MigShape::SharedMemory),
                "C={c} missing shared"
            );
            assert!(
                shapes.contains(&MigShape::PrivateMemory),
                "C={c} missing private"
            );
        }
    }

    #[test]
    fn flat_action_and_path_are_inverse_bijections() {
        let hcat = HierarchicalCatalog::from_catalog(&ActionCatalog::paper_29());
        let mut seen = [false; 29];
        for g in 0..hcat.n_groups() {
            for k in 0..hcat.groups()[g].members.len() {
                let flat = hcat.flat_action(g, k);
                assert!(!seen[flat], "flat action {flat} reachable twice");
                seen[flat] = true;
                assert_eq!(hcat.path_of_flat(flat), (g, k));
            }
        }
        assert!(seen.iter().all(|&s| s), "every flat action reachable");
    }

    #[test]
    fn episode_drains_through_two_level_steps() {
        let (suite, queue, repo, scaler) = fixture();
        let catalog = ActionCatalog::paper_29();
        let factory = HierarchicalEnvFactory::new(&suite, &repo, &scaler, &catalog, env_cfg());
        let mut env = factory.make(&queue);
        assert_eq!(Env::state_dim(&env), 6 * JOB_FEATURES + 1 + 10);
        let mut state = Vec::new();
        let mut steps = 0;
        while !Env::done(&env) {
            Env::state_into(&env, &mut state);
            assert_eq!(state.len(), Env::state_dim(&env));
            let mask = Env::valid_mask(&env);
            assert_ne!(mask, 0, "live env must offer an action");
            let action = (0..Env::n_actions(&env))
                .find(|a| mask & (1 << a) != 0)
                .unwrap();
            let r = Env::step(&mut env, action);
            if env.chosen_group.is_some() {
                assert_eq!(r.reward, 0.0, "MIG-level step pays no reward");
            }
            steps += 1;
            assert!(steps <= 2 * 6, "episode must drain within 2W steps");
        }
        let d = Env::into_decision(env);
        d.validate(&queue, 4, false).unwrap();
    }

    #[test]
    fn state_carries_phase_flag_and_group_one_hot() {
        let (suite, queue, repo, scaler) = fixture();
        let catalog = ActionCatalog::paper_29();
        let factory = HierarchicalEnvFactory::new(&suite, &repo, &scaler, &catalog, env_cfg());
        let mut env = factory.make(&queue);
        let flat_dim = 6 * JOB_FEATURES;
        let mut state = Vec::new();
        Env::state_into(&env, &mut state);
        assert_eq!(state[flat_dim], 0.0, "MIG level: phase flag clear");
        assert!(state[flat_dim + 1..].iter().all(|&v| v == 0.0));
        // Choose group 3 (C=2 MIG-private in the paper catalog order).
        let g = 3;
        assert!(Env::valid_mask(&env) & (1 << g) != 0);
        Env::step(&mut env, g);
        Env::state_into(&env, &mut state);
        assert_eq!(state[flat_dim], 1.0, "MPS level: phase flag set");
        assert_eq!(state[flat_dim + 1 + g], 1.0, "chosen group one-hot");
        assert_eq!(
            state[flat_dim + 1..].iter().filter(|&&v| v != 0.0).count(),
            1
        );
    }

    #[test]
    fn reset_clears_pending_level1_choice() {
        let (suite, queue, repo, scaler) = fixture();
        let catalog = ActionCatalog::paper_29();
        let factory = HierarchicalEnvFactory::new(&suite, &repo, &scaler, &catalog, env_cfg());
        let mut env = factory.make(&queue);
        let first = Env::valid_mask(&env);
        Env::step(&mut env, 0);
        assert!(env.chosen_group.is_some());
        Env::reset(&mut env);
        assert!(env.chosen_group.is_none());
        assert_eq!(Env::valid_mask(&env), first, "reset restores the masks");
    }
}
