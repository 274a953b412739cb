//! Fig. 8 fidelity golden: the throughput of every policy on each of the
//! twelve Table V queues (relative to time sharing) and its arithmetic
//! mean, each pinned within [`BAND`], plus the order of the means.
//!
//! Both passes train the RL agent. The root `Cargo.toml` builds the
//! numeric crates at `opt-level = 3` under `cargo test` too, so both
//! run in tier-1 (`cargo test -q`), in the no-AVX CI leg as well.
//!
//! The quick pass is what `repro --quick --env hierarchical fig8`
//! trains: the hierarchical agent, plus the flat agent with the same
//! settings as its reference (the row `repro --quick fig8` prints).
//! Both trail every co-scheduling heuristic, and the hierarchical one
//! falls below time sharing on Q2; that is the short training budget,
//! and the pins record it as it is. At the paper's scale, at seed 42 —
//! the only seed pinned — the flat agent's mean passes MIG Only and
//! comes within 0.01 of MPS Only.
//!
//! The oracle-greedy reference (`repro oracle`) needs no training; its
//! Table V row is pinned on its own.

use hrp_bench::eval::{
    eval_policy, evaluation_queues, evaluation_repository, run_full, FullEvaluation, PolicyEval,
};
use hrp_core::policies::OracleGreedy;
use hrp_core::rl::EnvKind;
use hrp_core::train::TrainConfig;
use hrp_gpusim::GpuArch;
use hrp_workloads::Suite;

/// How far a pinned throughput may move.
const BAND: f64 = 1e-3;

/// A policy's per-queue throughputs Q1–Q12 and their arithmetic mean.
type Row = (&'static str, [f64; 12], f64);

const TIME_SHARING: Row = ("Time Sharing", [1.0; 12], 1.0);

const MIG_ONLY: Row = (
    "MIG Only (C=2)",
    [
        1.1908, 1.2247, 1.2302, 1.2483, 1.3130, 1.2694, 1.4747, 1.4118, 1.4576, 1.2859, 1.3129,
        1.2930,
    ],
    1.3094,
);

const MPS_ONLY: Row = (
    "MPS Only",
    [
        1.3021, 1.3396, 1.3420, 1.3303, 1.3099, 1.3739, 1.3496, 1.4124, 1.4168, 1.3763, 1.3223,
        1.3586,
    ],
    1.3528,
);

const MIG_MPS_DEFAULT: Row = (
    "MIG+MPS Default",
    [
        1.2397, 1.2744, 1.2506, 1.3780, 1.5196, 1.4212, 1.8110, 1.6901, 1.7456, 1.3858, 1.4723,
        1.3957,
    ],
    1.4653,
);

/// Hold one policy's run over the Table V queues to its pinned row.
fn check_row(run: &PolicyEval, (policy, queues, mean): &Row) {
    let labels: Vec<&str> = run.metrics.iter().map(|m| m.label.as_str()).collect();
    assert_eq!(
        labels,
        ["Q1", "Q2", "Q3", "Q4", "Q5", "Q6", "Q7", "Q8", "Q9", "Q10", "Q11", "Q12"]
    );
    assert_eq!(run.policy, *policy);
    for ((label, got), want) in labels.iter().zip(&run.metrics).zip(queues) {
        let got = got.throughput;
        assert!(
            (got - want).abs() <= BAND,
            "{policy} {label}: {got}, pinned {want}"
        );
    }
    let got = run.mean_throughput();
    assert!(
        (got - mean).abs() <= BAND,
        "{policy} AM: {got}, pinned {mean}"
    );
}

/// Hold `full` to `pinned`, row by row in legend order, and return the
/// policies from the lowest mean to the highest.
fn check(full: &FullEvaluation, pinned: &[Row]) -> Vec<String> {
    let names: Vec<&str> = full.runs.iter().map(|run| run.policy.as_str()).collect();
    let want: Vec<&str> = pinned.iter().map(|row| row.0).collect();
    assert_eq!(names, want);
    for (run, row) in full.runs.iter().zip(pinned) {
        check_row(run, row);
    }
    let mut order: Vec<_> = full.runs.iter().collect();
    order.sort_by(|a, b| a.mean_throughput().total_cmp(&b.mean_throughput()));
    order.into_iter().map(|run| run.policy.clone()).collect()
}

#[test]
fn fig8_at_quick_scale_holds_its_pins_and_order() {
    let cfg = TrainConfig {
        hidden: vec![128, 64],
        episodes: 400,
        env: EnvKind::Hierarchical,
        ..TrainConfig::paper()
    };
    let full = run_full(&Suite::paper_suite(&GpuArch::a100()), cfg);
    let rl = (
        "MIG+MPS w/ RL",
        [
            1.1617, 1.0838, 1.1040, 1.1907, 1.3448, 1.1488, 1.3376, 1.4384, 1.1252, 1.3097, 1.2103,
            1.2959,
        ],
        1.2292,
    );
    let hier = (
        "MIG+MPS w/ RL (hier)",
        [
            1.1155, 0.9588, 1.0675, 1.1110, 1.1550, 1.1189, 1.6930, 1.5088, 1.4822, 1.2069, 1.3014,
            1.1304,
        ],
        1.2375,
    );
    let order = check(
        &full,
        &[TIME_SHARING, MIG_ONLY, MPS_ONLY, MIG_MPS_DEFAULT, rl, hier],
    );
    assert_eq!(
        order,
        [
            "Time Sharing",
            "MIG+MPS w/ RL",
            "MIG+MPS w/ RL (hier)",
            "MIG Only (C=2)",
            "MPS Only",
            "MIG+MPS Default"
        ]
    );
}

#[test]
fn fig8_at_paper_scale_holds_its_pins_and_order() {
    let full = run_full(&Suite::paper_suite(&GpuArch::a100()), TrainConfig::paper());
    let rl = (
        "MIG+MPS w/ RL",
        [
            1.1617, 1.2490, 1.1791, 1.2481, 1.3564, 1.3523, 1.6232, 1.4803, 1.5167, 1.3552, 1.3706,
            1.2452,
        ],
        1.3448,
    );
    let order = check(
        &full,
        &[TIME_SHARING, MIG_ONLY, MPS_ONLY, MIG_MPS_DEFAULT, rl],
    );
    assert_eq!(
        order,
        [
            "Time Sharing",
            "MIG Only (C=2)",
            "MIG+MPS w/ RL",
            "MPS Only",
            "MIG+MPS Default"
        ]
    );
}

#[test]
fn oracle_greedy_holds_its_table_v_pins() {
    let suite = Suite::paper_suite(&GpuArch::a100());
    let queues = evaluation_queues(&suite, 12, 42);
    let repo = evaluation_repository(&suite);
    let run = eval_policy(&suite, &repo, &queues, 4, &OracleGreedy, 0);
    check_row(
        &run,
        &(
            "Oracle Greedy",
            [
                1.2351, 1.2864, 1.2907, 1.3624, 1.5080, 1.4493, 1.7662, 1.6360, 1.7318, 1.4881,
                1.4669, 1.3322,
            ],
            1.4628,
        ),
    );
}
