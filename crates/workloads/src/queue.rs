//! Job queues: the exact Q1–Q12 mixes of Table V plus the random queue
//! generators used for offline training and window-size scaling studies.

use crate::class::Class;
use crate::suite::Suite;
use hrp_gpusim::rng::SplitMix64;
use serde::{Deserialize, Serialize};

/// One queued job: an instance of a benchmark program, identified by its
/// suite index alone. Its name is `suite.by_index(bench).app.name`, and
/// its id is its position in the queue (`J1` in the paper is job 0). The
/// same program may appear several times in a queue (distinct jobs, one
/// profile — exactly the situation the paper's binary-path matching
/// handles).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Job {
    /// Index into the suite (the profile-repository key).
    pub bench: usize,
}

/// A job queue (the window `Q = {J1 … JW}` of the paper's §IV-A).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct JobQueue {
    /// Human-readable label, e.g. `"Q7"`.
    pub label: String,
    /// The jobs, in queue order.
    pub jobs: Vec<Job>,
}

impl JobQueue {
    /// Build a queue from benchmark names, resolving against the suite.
    ///
    /// # Panics
    /// Panics if a name is unknown — queue definitions are static data,
    /// so a typo should fail loudly.
    #[must_use]
    pub fn from_names(label: &str, names: &[&str], suite: &Suite) -> Self {
        let jobs = names
            .iter()
            .map(|name| Job {
                bench: suite
                    .index_of(name)
                    .unwrap_or_else(|| panic!("unknown benchmark '{name}'")),
            })
            .collect();
        Self {
            label: label.to_owned(),
            jobs,
        }
    }

    /// Window size `W`.
    #[must_use]
    pub fn len(&self) -> usize {
        self.jobs.len()
    }

    /// Whether the queue is empty.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.jobs.is_empty()
    }

    /// Total solo (time-sharing) execution time of the queue.
    #[must_use]
    pub fn total_solo_time(&self, suite: &Suite) -> f64 {
        self.jobs
            .iter()
            .map(|j| suite.by_index(j.bench).app.solo_time)
            .sum()
    }

    /// Number of jobs per class `(CI, MI, US)`.
    #[must_use]
    pub fn class_counts(&self, suite: &Suite) -> (usize, usize, usize) {
        let mut counts = (0, 0, 0);
        for j in &self.jobs {
            match suite.by_index(j.bench).class {
                Class::Ci => counts.0 += 1,
                Class::Mi => counts.1 += 1,
                Class::Us => counts.2 += 1,
            }
        }
        counts
    }
}

/// Job-mix category of the paper's §V-A2.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum MixCategory {
    /// 50% CI, rest round-robin.
    CiDominant,
    /// 50% MI, rest round-robin.
    MiDominant,
    /// 50% US, rest round-robin.
    UsDominant,
    /// Round-robin across all classes.
    Balanced,
}

impl MixCategory {
    /// All categories, in the paper's order.
    pub const ALL: [MixCategory; 4] = [
        MixCategory::CiDominant,
        MixCategory::MiDominant,
        MixCategory::UsDominant,
        MixCategory::Balanced,
    ];

    /// The dominant class, if any.
    #[must_use]
    pub fn dominant(self) -> Option<Class> {
        match self {
            MixCategory::CiDominant => Some(Class::Ci),
            MixCategory::MiDominant => Some(Class::Mi),
            MixCategory::UsDominant => Some(Class::Us),
            MixCategory::Balanced => None,
        }
    }

    /// Class composition for a window of size `w`: the dominant class
    /// fills half the window (rounded down), the rest round-robins over
    /// the remaining classes (Balanced round-robins over all three).
    #[must_use]
    pub fn composition(self, w: usize) -> Vec<Class> {
        let mut out = Vec::with_capacity(w);
        match self.dominant() {
            Some(dom) => {
                let half = w / 2;
                out.extend(std::iter::repeat_n(dom, half));
                let others: Vec<Class> = Class::ALL.iter().copied().filter(|&c| c != dom).collect();
                for i in 0..w - half {
                    out.push(others[i % others.len()]);
                }
            }
            None => {
                for i in 0..w {
                    out.push(Class::ALL[i % 3]);
                }
            }
        }
        out
    }
}

/// The exact Table V queues (W = 12). Starred programs appear verbatim —
/// they are unseen during training.
const TABLE_V: [(&str, &[&str]); 12] = [
    (
        "Q1",
        &[
            "huffman",
            "bt_solver_C",
            "bt_solver_B",
            "hotspot3D",
            "heartwall",
            "lavaMD",
            "lud_B",
            "cfd",
            "sp_solver_B",
            "pathfinder",
            "needle",
            "qs_NoFission",
        ],
    ),
    (
        "Q2",
        &[
            "bt_solver_C",
            "heartwall",
            "lavaMD",
            "huffman",
            "hotspot",
            "hotspot3D",
            "cfd",
            "sp_solver_C",
            "gaussian",
            "pathfinder",
            "needle",
            "qs_Coral_P1",
        ],
    ),
    (
        "Q3",
        &[
            "huffman",
            "bt_solver_C",
            "hotspot3D",
            "hotspot",
            "heartwall",
            "lavaMD",
            "lud_B",
            "stream",
            "sp_solver_C",
            "qs_NoFission",
            "pathfinder",
            "needle",
        ],
    ),
    (
        "Q4",
        &[
            "bt_solver_B",
            "heartwall",
            "bt_solver_C",
            "lud_B",
            "gaussian",
            "sp_solver_B",
            "cfd",
            "sp_solver_C",
            "stream",
            "qs_NoCollisions",
            "pathfinder",
            "qs_Coral_P2",
        ],
    ),
    (
        "Q5",
        &[
            "heartwall",
            "hotspot",
            "bt_solver_B",
            "lud_B",
            "gaussian",
            "randomaccess",
            "stream",
            "lud_C",
            "sp_solver_B",
            "qs_Coral_P2",
            "dwt2d",
            "qs_Coral_P1",
        ],
    ),
    (
        "Q6",
        &[
            "bt_solver_C",
            "huffman",
            "lavaMD",
            "sp_solver_B",
            "gaussian",
            "randomaccess",
            "lud_C",
            "stream",
            "cfd",
            "qs_NoFission",
            "needle",
            "qs_Coral_P1",
        ],
    ),
    (
        "Q7",
        &[
            "heartwall",
            "hotspot",
            "hotspot3D",
            "gaussian",
            "stream",
            "lud_B",
            "pathfinder",
            "qs_NoFission",
            "qs_Coral_P2",
            "backprop",
            "qs_NoCollisions",
            "dwt2d",
        ],
    ),
    (
        "Q8",
        &[
            "bt_solver_C",
            "hotspot3D",
            "lavaMD",
            "stream",
            "cfd",
            "lud_B",
            "qs_Coral_P1",
            "needle",
            "kmeans",
            "qs_Coral_P2",
            "qs_NoFission",
            "qs_NoCollisions",
        ],
    ),
    (
        "Q9",
        &[
            "lavaMD",
            "hotspot3D",
            "hotspot",
            "sp_solver_B",
            "lud_C",
            "randomaccess",
            "qs_Coral_P1",
            "dwt2d",
            "kmeans",
            "needle",
            "qs_NoCollisions",
            "qs_Coral_P2",
        ],
    ),
    (
        "Q10",
        &[
            "lavaMD",
            "huffman",
            "hotspot3D",
            "bt_solver_C",
            "lud_C",
            "lud_B",
            "stream",
            "sp_solver_C",
            "qs_NoCollisions",
            "needle",
            "pathfinder",
            "qs_Coral_P1",
        ],
    ),
    (
        "Q11",
        &[
            "huffman",
            "hotspot3D",
            "hotspot",
            "bt_solver_B",
            "cfd",
            "lud_C",
            "stream",
            "gaussian",
            "qs_Coral_P2",
            "needle",
            "pathfinder",
            "dwt2d",
        ],
    ),
    (
        "Q12",
        &[
            "lavaMD",
            "hotspot",
            "huffman",
            "heartwall",
            "sp_solver_C",
            "lud_C",
            "randomaccess",
            "gaussian",
            "needle",
            "pathfinder",
            "qs_NoCollisions",
            "backprop",
        ],
    ),
];

/// Category of each Table V queue, in order (Q1–Q3 CI-dominant, Q4–Q6
/// MI-dominant, Q7–Q9 US-dominant, Q10–Q12 balanced).
#[must_use]
pub fn table_v_category(index: usize) -> MixCategory {
    match index {
        0..=2 => MixCategory::CiDominant,
        3..=5 => MixCategory::MiDominant,
        6..=8 => MixCategory::UsDominant,
        _ => MixCategory::Balanced,
    }
}

/// Build the twelve evaluation queues of Table V.
#[must_use]
pub fn table_v_queues(suite: &Suite) -> Vec<JobQueue> {
    TABLE_V
        .iter()
        .map(|(label, names)| JobQueue::from_names(label, names, suite))
        .collect()
}

/// Deterministic random queue generation.
#[derive(Debug, Clone)]
pub struct QueueGenerator {
    rng: SplitMix64,
}

impl QueueGenerator {
    /// Create a generator with a fixed seed.
    #[must_use]
    pub fn new(seed: u64) -> Self {
        Self {
            rng: SplitMix64::new(seed),
        }
    }

    /// A random queue with the class composition of `category`.
    /// `seen_only` restricts sampling to the 18 training programs.
    /// Sampling is with replacement (a program may queue several times).
    #[must_use]
    pub fn category_queue(
        &mut self,
        suite: &Suite,
        label: &str,
        w: usize,
        category: MixCategory,
        seen_only: bool,
    ) -> JobQueue {
        let mut jobs = Vec::with_capacity(w);
        for class in category.composition(w) {
            let pool = suite.class_indices(class, seen_only);
            assert!(!pool.is_empty(), "no programs of class {class}");
            let bench = pool[self.rng.next_below(pool.len() as u64) as usize];
            jobs.push(Job { bench });
        }
        // Shuffle so class positions are not deterministic.
        self.rng.shuffle(&mut jobs);
        JobQueue {
            label: label.to_owned(),
            jobs,
        }
    }

    /// The paper's offline-training queues: `n` queues of `w` jobs drawn
    /// uniformly from the 18 seen programs, each guaranteed to contain
    /// all three classes.
    #[must_use]
    pub fn training_queues(&mut self, suite: &Suite, n: usize, w: usize) -> Vec<JobQueue> {
        assert!(w >= 3, "window must fit all three classes");
        let pool = suite.seen_indices();
        (0..n)
            .map(|qi| loop {
                let jobs: Vec<Job> = (0..w)
                    .map(|_| Job {
                        bench: pool[self.rng.next_below(pool.len() as u64) as usize],
                    })
                    .collect();
                let queue = JobQueue {
                    label: format!("T{}", qi + 1),
                    jobs,
                };
                let (ci, mi, us) = queue.class_counts(suite);
                if ci > 0 && mi > 0 && us > 0 {
                    break queue;
                }
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hrp_gpusim::arch::GpuArch;

    fn suite() -> Suite {
        Suite::paper_suite(&GpuArch::a100())
    }

    /// Whether any job is an unseen (starred) program.
    fn any_starred(queue: &JobQueue, suite: &Suite) -> bool {
        queue.jobs.iter().any(|j| suite.by_index(j.bench).unseen)
    }

    #[test]
    fn table_v_has_twelve_queues_of_twelve() {
        let s = suite();
        let queues = table_v_queues(&s);
        assert_eq!(queues.len(), 12);
        for q in &queues {
            assert_eq!(q.len(), 12, "{} wrong size", q.label);
        }
    }

    #[test]
    fn table_v_compositions_match_paper() {
        let s = suite();
        for (i, q) in table_v_queues(&s).iter().enumerate() {
            let (ci, mi, us) = q.class_counts(&s);
            let expect = match table_v_category(i) {
                MixCategory::CiDominant => (6, 3, 3),
                MixCategory::MiDominant => (3, 6, 3),
                MixCategory::UsDominant => (3, 3, 6),
                MixCategory::Balanced => (4, 4, 4),
            };
            assert_eq!((ci, mi, us), expect, "{} composition", q.label);
        }
    }

    #[test]
    fn every_table_v_queue_contains_unseen_programs() {
        // Table V stars appear in all twelve queues — the online phase
        // always faces generalization.
        let s = suite();
        for q in table_v_queues(&s) {
            assert!(any_starred(&q, &s), "{} has no unseen job", q.label);
        }
    }

    #[test]
    fn composition_sizes_scale_with_w() {
        for w in [4, 8, 12, 16, 20] {
            for cat in MixCategory::ALL {
                let comp = cat.composition(w);
                assert_eq!(comp.len(), w);
            }
        }
        // CI-dominant W=12 → 6 CI.
        let comp = MixCategory::CiDominant.composition(12);
        assert_eq!(comp.iter().filter(|&&c| c == Class::Ci).count(), 6);
        // Balanced W=12 → 4/4/4.
        let comp = MixCategory::Balanced.composition(12);
        for class in Class::ALL {
            assert_eq!(comp.iter().filter(|&&c| c == class).count(), 4);
        }
    }

    #[test]
    fn category_queue_honours_composition_and_seed() {
        let s = suite();
        let mut g1 = QueueGenerator::new(7);
        let mut g2 = QueueGenerator::new(7);
        let q1 = g1.category_queue(&s, "A", 12, MixCategory::MiDominant, true);
        let q2 = g2.category_queue(&s, "A", 12, MixCategory::MiDominant, true);
        assert_eq!(q1, q2, "same seed, same queue");
        let (ci, mi, us) = q1.class_counts(&s);
        assert_eq!((ci, mi, us), (3, 6, 3));
        assert!(!any_starred(&q1, &s), "seen_only queue has no stars");
    }

    #[test]
    fn training_queues_contain_all_classes_and_no_stars() {
        let s = suite();
        let mut gen = QueueGenerator::new(42);
        let queues = gen.training_queues(&s, 20, 12);
        assert_eq!(queues.len(), 20);
        for q in &queues {
            let (ci, mi, us) = q.class_counts(&s);
            assert!(ci > 0 && mi > 0 && us > 0, "{}: {ci}/{mi}/{us}", q.label);
            assert!(!any_starred(q, &s));
            assert_eq!(q.len(), 12);
        }
        // Queues differ from each other.
        assert_ne!(queues[0], queues[1]);
    }

    #[test]
    fn total_solo_time_sums_components() {
        let s = suite();
        let q = JobQueue::from_names("t", &["stream", "stream", "lavaMD"], &s);
        let stream = s.get("stream").unwrap().app.solo_time;
        let lava = s.get("lavaMD").unwrap().app.solo_time;
        assert!((q.total_solo_time(&s) - (2.0 * stream + lava)).abs() < 1e-9);
    }

    #[test]
    #[should_panic(expected = "unknown benchmark")]
    fn unknown_name_panics() {
        let s = suite();
        let _ = JobQueue::from_names("bad", &["definitely_not_real"], &s);
    }
}
