//! `repro` — regenerate every table and figure of the paper's evaluation.
//!
//! ```text
//! repro [FLAGS] <command>          (`repro --help` lists the flags)
//!
//! commands:
//!   table4    benchmark classification (Table IV)
//!   table5    evaluation queues (Table V)
//!   table7    partition spaces per concurrency (Table VII) + MIG combos
//!   fig3      throughput vs MPS compute split, three mixes
//!   fig4      bandwidth partitioning benefit (shared vs private)
//!   fig5      partition variant comparison, four-program mix
//!   fig8      throughput: five policies x Q1..Q12 + AM
//!   fig9      average throughput vs window size W
//!   fig10     average throughput vs Cmax
//!   fig11     per-application slowdown
//!   fig12     fairness
//!   overhead  online decision latency + offline training cost
//!   oracle    oracle-greedy reference throughput
//!   cluster   multi-node placement comparison (§VI) vs the
//!             single-node baseline
//!   serve     online scheduler service (hrp-serve): one live run that
//!             streams a replayed trace or a load generator through
//!             incremental decision cycles, with kill/resume through
//!             --checkpoint / --restore
//!   ablate-reward | ablate-agent | ablate-interference
//!   all       everything above except serve
//!             (fig8/11/12 share one training run)
//! ```
//!
//! `--quick` shrinks the network and episode count for smoke runs; the
//! defaults reproduce the paper-scale configuration. `--threads N` caps
//! the worker threads; results are identical for any count.
//! `--env hierarchical` trains the paper's two-level MIG → MPS
//! formulation and adds a flat-trained reference row to the evaluation
//! tables.
//!
//! `cluster` simulates `--nodes N` nodes on a `--trace` kind under a
//! `--selector`: `policy` first trains an RL placement agent on same-kind
//! traces and reports it beside round-robin and least-loaded; `easy` and
//! `conservative` run the slot-tree backfilling planner beside strict
//! FCFS and the other backfill policy, against walltime estimates off by
//! up to ±`--walltime-err` of the truth (the simulated runtimes never
//! change). With `--nodes 1` it reproduces the single-node simulator
//! bit-for-bit. `--threads` sets only the placement-training workers of
//! a `policy` run (the nodes advance on one thread), and the timeline
//! and trained policy are identical for any count.
//!
//! `serve` runs the online scheduler service once, on `--nodes` nodes of
//! two GPUs under a heuristic `--selector`, and reports one `serve_run`
//! table and a `# digest` line. Arrivals replay a generated `--trace`
//! (20 000 jobs, 2 000 with `--quick`) or, with `--source
//! poisson|bursty`, come from a load generator at `--rate` jobs per
//! simulated second until `--duration`. `--checkpoint PATH` writes a live
//! `HRPS` snapshot mid-run; `--restore PATH` rebuilds the killed service
//! from it and drains it to the same digest.
//!
//! `--users N` tags arrivals with `N` Zipf-skewed tenants (`--user-skew`
//! sets the exponent). In `serve` it puts the admission tier in front of
//! the selector (`--quota N` in-flight jobs per tenant; `--slo F` rejects
//! a projected slowdown above `F`), and the report gains the
//! deferred/rejected counters and a `# admission digest` line; in
//! `cluster` it appends a per-tenant `cluster_fairness` table.
//! `--restore` rebuilds the tenants and the tier from the snapshot, so it
//! takes none of these flags.
//!
//! Each flag is read by a fixed set of commands (`FLAGS`, the one source
//! of parsing and of the usage message), and every other command rejects
//! it. A malformed invocation — an unknown or unread flag, an unknown
//! command, a missing or out-of-range value, `--user-skew`/`--quota`/
//! `--slo` without `--users`, `--checkpoint` with `--restore`, `serve
//! --selector policy`, an `--out` directory that cannot be created —
//! exits with status 2 and the usage message, never a panic or a silent
//! default.

use hrp_bench::eval::{
    ablate_agent, ablate_interference, ablate_reward, evaluation_queues, run_full, FullEvaluation,
    PolicyEval,
};
use hrp_bench::obs::{fig3_mps_sweep, fig4_bandwidth, fig5_variants, FIG5_MIX};
use hrp_bench::report::{f3, Table};
use hrp_cluster::trace::{TraceKind, MAX_USERS};
use hrp_cluster::SelectorKind;
use hrp_core::actions::{mig_mps_space, mps_only_space, training_search_space};
use hrp_core::metrics::{arithmetic_mean, QueueMetrics};
use hrp_core::rl::EnvKind;
use hrp_core::train::TrainConfig;
use hrp_gpusim::mig::valid_gi_combinations;
use hrp_gpusim::GpuArch;
use hrp_serve::LoadShape;
use hrp_workloads::class::{classify, one_gpc_degradation};
use hrp_workloads::queue::table_v_category;
use hrp_workloads::Suite;
use std::path::PathBuf;

struct Options {
    quick: bool,
    seed: u64,
    out: Option<PathBuf>,
    /// Rollout/evaluation worker threads (0 = available parallelism).
    threads: usize,
    /// Environment formulation the RL agent trains on.
    env: EnvKind,
    /// Simulated nodes for the `cluster` command.
    nodes: usize,
    /// Placement policy for the `cluster` command.
    selector: SelectorKind,
    /// Trace kind for the `cluster` command.
    trace: TraceKind,
    /// Walltime-estimate error fraction for the backfill selectors.
    walltime_err: f64,
    /// Arrival source of the `serve` command.
    source: ServeSource,
    /// `serve` load-generator offered rate (jobs per simulated second).
    rate: f64,
    /// `serve` load-generator horizon (simulated seconds).
    duration: f64,
    /// `serve`: write a live `HRPS` snapshot here mid-run.
    checkpoint: Option<PathBuf>,
    /// `serve`: rebuild a killed service from this snapshot.
    restore: Option<PathBuf>,
    /// Tenants to tag arrivals with (0 = untagged, admission off).
    users: u32,
    /// Zipf exponent of the tenant popularity (`None` = the default).
    user_skew: Option<f64>,
    /// Per-tenant in-flight quota of the admission tier.
    quota: Option<usize>,
    /// Reject SLO (projected-slowdown bound) of the admission tier.
    slo: Option<f64>,
}

/// Where the `serve` command's arrivals come from.
#[derive(Clone, Copy, PartialEq, Eq)]
enum ServeSource {
    /// Replay a finite generated trace (the default).
    Trace,
    /// Open-loop load generator with this arrival shape.
    Load(LoadShape),
}

impl Options {
    fn train_cfg(&self) -> TrainConfig {
        let mut cfg = TrainConfig::paper();
        cfg.seed = self.seed;
        cfg.n_workers = self.threads;
        cfg.env = self.env;
        if self.quick {
            cfg.hidden = vec![128, 64];
            cfg.episodes = 400;
        }
        cfg
    }

    /// A cheaper configuration for the many-training commands
    /// (fig9/fig10/ablations train several agents).
    fn sweep_cfg(&self) -> TrainConfig {
        let mut cfg = self.train_cfg();
        if !self.quick {
            cfg.hidden = vec![256, 128, 64];
            cfg.episodes = 400;
        }
        cfg
    }
}

/// One flag: its spelling, the placeholder of its value, which commands
/// read it, and how its value is checked and stored. `FLAGS` is the one
/// source of parsing and of [`usage`].
struct Flag {
    name: &'static str,
    /// The value's placeholder in the usage message; empty for a switch.
    value: &'static str,
    /// Whether a command reads the flag; any other command rejects it.
    reads: fn(&str) -> bool,
    /// Check the raw value and store it (a bad one is a usage error).
    set: fn(&mut Options, &Flag, &str),
}

const fn flag(
    name: &'static str,
    value: &'static str,
    reads: fn(&str) -> bool,
    set: fn(&mut Options, &Flag, &str),
) -> Flag {
    Flag {
        name,
        value,
        reads,
        set,
    }
}

/// The commands that train the co-scheduling agent, and so read its knobs.
fn trains(cmd: &str) -> bool {
    let training = ["fig8", "fig9", "fig10", "fig11", "fig12", "overhead"];
    training.contains(&cmd) || matches!(cmd, "ablate-reward" | "ablate-agent" | "all")
}

/// The commands that place jobs on simulated nodes.
fn places(cmd: &str) -> bool {
    matches!(cmd, "cluster" | "serve" | "all")
}

fn serves(cmd: &str) -> bool {
    cmd == "serve"
}

/// The commands that evaluate fixed policies on the evaluation queues.
fn evaluates(cmd: &str) -> bool {
    matches!(cmd, "oracle" | "ablate-interference")
}

/// The commands that draw anything from `--seed`.
fn seeded(cmd: &str) -> bool {
    trains(cmd) || places(cmd) || evaluates(cmd) || cmd == "table5"
}

#[rustfmt::skip]
const FLAGS: &[Flag] = &[
    flag("--quick", "", |c| trains(c) || serves(c) || c == "cluster", |o, _, _| o.quick = true),
    flag("--seed", "N", seeded, |o, f, raw| o.seed = number(f, raw)),
    flag("--threads", "N", |c| trains(c) || evaluates(c) || c == "cluster",
         |o, f, raw| o.threads = number(f, raw)),
    flag("--env", "flat|hierarchical", trains,
         |o, f, raw| o.env = EnvKind::parse(raw).unwrap_or_else(|_| unknown(f, raw))),
    flag("--nodes", "N", places,
         |o, f, raw| o.nodes = checked(f, raw, "in 1..=64", |n| (1..=64).contains(n))),
    flag("--selector", "round-robin|least-loaded|policy|fcfs|easy|conservative", places,
         |o, f, raw| o.selector = SelectorKind::parse(raw).unwrap_or_else(|_| unknown(f, raw))),
    flag("--trace", "uniform|bursty|skewed|heavy-tail|colocate|staggered", places,
         |o, f, raw| o.trace = TraceKind::parse(raw).unwrap_or_else(|_| unknown(f, raw))),
    // NaN fails the containment check too.
    flag("--walltime-err", "F", places,
         |o, f, raw| o.walltime_err = checked(f, raw, "in [0, 1)", |x| (0.0..1.0).contains(x))),
    flag("--source", "trace|poisson|bursty", serves, |o, f, raw| o.source = match raw {
        "trace" => ServeSource::Trace,
        "poisson" => ServeSource::Load(LoadShape::Poisson),
        "bursty" => ServeSource::Load(LoadShape::Bursty),
        _ => unknown(f, raw),
    }),
    flag("--rate", "F", serves, |o, f, raw| o.rate = positive_finite(f, raw)),
    flag("--duration", "F", serves, |o, f, raw| o.duration = positive_finite(f, raw)),
    flag("--users", "N", places, |o, f, raw| {
        o.users = checked(f, raw, &format!("at least 1 and at most {MAX_USERS}"),
                          |n| (1..=MAX_USERS).contains(n));
    }),
    flag("--user-skew", "F", places, |o, f, raw| o.user_skew = Some(positive_finite(f, raw))),
    flag("--quota", "N", serves,
         |o, f, raw| o.quota = Some(checked(f, raw, "at least 1", |n| *n > 0))),
    // Infinity is allowed (never reject); NaN fails the comparison.
    flag("--slo", "F", serves, |o, f, raw| o.slo = Some(checked(f, raw, "positive", |x| *x > 0.0))),
    flag("--checkpoint", "PATH", serves, |o, _, raw| o.checkpoint = Some(raw.into())),
    flag("--restore", "PATH", serves, |o, _, raw| o.restore = Some(raw.into())),
    flag("--out", "DIR", |_| true, |o, _, raw| o.out = Some(raw.into())),
    flag("--no-out", "", |_| true, |o, _, _| o.out = None),
];

/// What a command runs.
type Run = fn(&Suite, &Options);

/// Every command and what it runs.
const COMMANDS: &[(&str, Run)] = &[
    ("table4", table4),
    ("table5", table5),
    ("table7", |_, opts| table7(opts)),
    ("fig3", fig3),
    ("fig4", fig4),
    ("fig5", fig5),
    ("fig8", |suite, opts| {
        emit_per_queue(&run_full(suite, opts.train_cfg()), FIG8, opts);
    }),
    ("fig9", fig9),
    ("fig10", fig10),
    ("fig11", |suite, opts| {
        emit_per_queue(&run_full(suite, opts.train_cfg()), FIG11, opts);
    }),
    ("fig12", |suite, opts| {
        emit_per_queue(&run_full(suite, opts.train_cfg()), FIG12, opts);
    }),
    ("overhead", |suite, opts| {
        emit_overhead(&run_full(suite, opts.train_cfg()), opts);
    }),
    ("oracle", oracle_cmd),
    ("cluster", cluster_cmd),
    ("serve", serve_cmd),
    ("ablate-reward", ablate_reward_cmd),
    ("ablate-agent", ablate_agent_cmd),
    ("ablate-interference", ablate_interference_cmd),
    ("all", all_cmd),
];

/// The usage message: every flag, then every command.
fn usage() -> String {
    let flags = FLAGS.iter().map(|flag| match flag.value {
        "" => format!("[{}]", flag.name),
        value => format!("[{} {value}]", flag.name),
    });
    let commands = COMMANDS.iter().map(|(name, _)| (*name).to_owned());
    format!(
        "{}\n{}",
        wrap("usage: repro", flags.chain(["<command>".to_owned()])),
        wrap("commands:", commands)
    )
}

/// `head`, then `words` one space apart, folded at 78 columns and
/// indented under the first word.
fn wrap(head: &str, words: impl Iterator<Item = String>) -> String {
    let mut out = head.to_owned();
    let mut width = head.len();
    for word in words {
        if width + 1 + word.len() > 78 {
            out.push('\n');
            out.push_str(&" ".repeat(head.len()));
            width = head.len();
        }
        out.push(' ');
        out.push_str(&word);
        width += 1 + word.len();
    }
    out
}

/// Reject a malformed invocation: message + usage, exit status 2 (never
/// a panic, never a silent default).
fn fail(msg: &str) -> ! {
    eprintln!("repro: {msg}");
    eprintln!("{}", usage());
    std::process::exit(2);
}

/// A flag's value as a number, or a usage error naming the bad input.
fn number<T: std::str::FromStr>(flag: &Flag, raw: &str) -> T {
    raw.parse()
        .unwrap_or_else(|_| fail(&format!("{} expects a number, got '{raw}'", flag.name)))
}

/// A flag's value as a number `ok` accepts, or a usage error saying
/// what it must be.
fn checked<T: std::str::FromStr>(flag: &Flag, raw: &str, must_be: &str, ok: fn(&T) -> bool) -> T {
    let value = number(flag, raw);
    if !ok(&value) {
        fail(&format!("{} must be {must_be} (got '{raw}')", flag.name));
    }
    value
}

fn positive_finite(flag: &Flag, raw: &str) -> f64 {
    checked(flag, raw, "positive and finite", |x: &f64| {
        x.is_finite() && *x > 0.0
    })
}

/// A value that names none of a flag's choices.
fn unknown(flag: &Flag, raw: &str) -> ! {
    fail(&format!(
        "unknown {} value '{raw}' (expected {})",
        flag.name, flag.value
    ))
}

fn main() {
    let mut opts = Options {
        quick: false,
        seed: 42,
        out: Some(PathBuf::from("results")),
        threads: 0,
        env: EnvKind::Flat,
        nodes: 1,
        selector: SelectorKind::RoundRobin,
        trace: TraceKind::Staggered,
        walltime_err: 0.0,
        source: ServeSource::Trace,
        rate: 8.0,
        duration: 60.0,
        checkpoint: None,
        restore: None,
        users: 0,
        user_skew: None,
        quota: None,
        slo: None,
    };
    let mut given: Vec<&Flag> = Vec::new();
    let mut cmd: Option<String> = None;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        if arg == "--help" || arg == "-h" {
            println!("{}", usage());
            return;
        }
        if !arg.starts_with("--") {
            if let Some(first) = &cmd {
                fail(&format!("unexpected argument '{arg}' after '{first}'"));
            }
            cmd = Some(arg);
            continue;
        }
        let Some(flag) = FLAGS.iter().find(|flag| flag.name == arg) else {
            fail(&format!("unknown flag '{arg}'"));
        };
        let raw = match flag.value {
            "" => String::new(),
            _ => args
                .next()
                .unwrap_or_else(|| fail(&format!("{arg} requires a value"))),
        };
        (flag.set)(&mut opts, flag, &raw);
        given.push(flag);
    }
    let Some(cmd) = cmd else {
        fail("missing command");
    };
    let Some(&(_, run)) = COMMANDS.iter().find(|(name, _)| *name == cmd) else {
        fail(&format!("unknown command '{cmd}'"));
    };
    if let Some(flag) = given.iter().find(|flag| !(flag.reads)(&cmd)) {
        let readers: Vec<&str> = COMMANDS
            .iter()
            .map(|(name, _)| *name)
            .filter(|name| (flag.reads)(name))
            .collect();
        fail(&format!(
            "'{cmd}' does not read {} (read by: {})",
            flag.name,
            readers.join(" ")
        ));
    }
    if opts.users == 0 && (opts.user_skew.is_some() || opts.quota.is_some() || opts.slo.is_some()) {
        fail("--user-skew/--quota/--slo require --users (tenant-tagged arrivals)");
    }
    // Before the command runs: a directory that cannot be created is a
    // bad invocation, not a failure at the end of a training run.
    if let Some(dir) = &opts.out {
        std::fs::create_dir_all(dir).unwrap_or_else(|e| {
            fail(&format!(
                "--out {}: cannot create the directory: {e}",
                dir.display()
            ))
        });
    }
    run(&Suite::paper_suite(&GpuArch::a100()), &opts);
}

/// Every command but `serve`; fig8/11/12 and overhead share one
/// training run.
fn all_cmd(suite: &Suite, opts: &Options) {
    table4(suite, opts);
    table5(suite, opts);
    table7(opts);
    fig3(suite, opts);
    fig4(suite, opts);
    fig5(suite, opts);
    let full = run_full(suite, opts.train_cfg());
    for figure in [FIG8, FIG11, FIG12] {
        emit_per_queue(&full, figure, opts);
    }
    emit_overhead(&full, opts);
    fig9(suite, opts);
    fig10(suite, opts);
    ablate_reward_cmd(suite, opts);
    ablate_agent_cmd(suite, opts);
    ablate_interference_cmd(suite, opts);
    cluster_cmd(suite, opts);
}

fn ablate_reward_cmd(suite: &Suite, opts: &Options) {
    let rows = ablate_reward(suite, opts.sweep_cfg());
    emit_pairs("ablate_reward", "reward shaping", &rows, opts);
}

fn ablate_agent_cmd(suite: &Suite, opts: &Options) {
    let rows = ablate_agent(suite, opts.sweep_cfg());
    emit_pairs("ablate_agent", "agent architecture", &rows, opts);
}

/// Print `t` and, unless `--no-out`, write it into the `--out` directory.
fn emit(t: &Table, name: &str, opts: &Options) {
    t.emit(name, opts.out.as_deref())
        .unwrap_or_else(|e| fail(&format!("--out: cannot write {name}.tsv: {e}")));
}

fn table4(suite: &Suite, opts: &Options) {
    let mut t = Table::new(&[
        "benchmark",
        "table_iv_class",
        "unseen",
        "1gpc_degradation",
        "sm_over_mem",
        "classified",
    ]);
    for b in suite.benchmarks() {
        t.row(vec![
            b.app.name.clone(),
            b.class.to_string(),
            if b.unseen { "*" } else { "" }.into(),
            f3(one_gpc_degradation(&b.app, suite.arch())),
            f3(b.app.compute_memory_ratio()),
            classify(&b.app, suite.arch()).to_string(),
        ]);
    }
    emit(&t, "table4_classification", opts);
}

fn table5(suite: &Suite, opts: &Options) {
    let mut t = Table::new(&["queue", "category", "ci", "mi", "us", "jobs"]);
    for (i, q) in evaluation_queues(suite, 12, opts.seed).iter().enumerate() {
        let (ci, mi, us) = q.class_counts(suite);
        let names: Vec<&str> = q
            .jobs
            .iter()
            .map(|j| suite.by_index(j.bench).app.name.as_str())
            .collect();
        t.row(vec![
            q.label.clone(),
            format!("{:?}", table_v_category(i)),
            ci.to_string(),
            mi.to_string(),
            us.to_string(),
            names.join(","),
        ]);
    }
    emit(&t, "table5_queues", opts);
}

fn table7(opts: &Options) {
    let mut t = Table::new(&["concurrency", "family", "count", "setups"]);
    for c in 2..=4usize {
        let mps: Vec<String> = mps_only_space(c).iter().map(ToString::to_string).collect();
        t.row(vec![
            c.to_string(),
            "MPS only".into(),
            mps.len().to_string(),
            mps.join("; "),
        ]);
        let hier: Vec<String> = mig_mps_space(c)
            .iter()
            .filter(|s| s.uses_mig())
            .map(ToString::to_string)
            .collect();
        t.row(vec![
            c.to_string(),
            "MIG+MPS".into(),
            hier.len().to_string(),
            // The full C=4 list is long; elide the middle like the paper.
            if hier.len() > 6 {
                format!("{}; ...; {}", hier[..3].join("; "), hier[hier.len() - 1])
            } else {
                hier.join("; ")
            },
        ]);
    }
    let combos = valid_gi_combinations(true);
    let rendered: Vec<String> = combos
        .iter()
        .map(|c| {
            c.iter()
                .map(|p| format!("{}g", p.compute_slices()))
                .collect::<Vec<_>>()
                .join("+")
        })
        .collect();
    t.row(vec![
        "-".into(),
        "maximal MIG GI combinations".into(),
        combos.len().to_string(),
        rendered.join("; "),
    ]);
    emit(&t, "table7_partitions", opts);
}

fn fig3(suite: &Suite, opts: &Options) {
    let mut t = Table::new(&["mix", "share_app1", "rel_throughput", "best_share"]);
    for sweep in fig3_mps_sweep(suite) {
        for (share, tp) in &sweep.points {
            t.row(vec![
                sweep.mix.clone(),
                f3(*share),
                f3(*tp),
                f3(sweep.best_share),
            ]);
        }
    }
    emit(&t, "fig3_mps_sweep", opts);
}

fn fig4(suite: &Suite, opts: &Options) {
    let mut t = Table::new(&["mix", "orientation", "shared", "private", "gain"]);
    for c in fig4_bandwidth(suite) {
        t.row(vec![
            c.mix.clone(),
            c.orientation.clone(),
            f3(c.shared),
            f3(c.private),
            f3(c.private / c.shared),
        ]);
    }
    emit(&t, "fig4_bandwidth", opts);
}

fn fig5(suite: &Suite, opts: &Options) {
    println!("# fig5 mix: {}", FIG5_MIX.join(", "));
    let mut t = Table::new(&["option", "rel_throughput", "best_setup"]);
    for v in fig5_variants(suite) {
        t.row(vec![v.option.clone(), f3(v.throughput), v.detail.clone()]);
    }
    emit(&t, "fig5_variants", opts);
}

/// A per-queue table: the metric of one queue, its mean over the queues
/// (the paper's `AM`), and the table's name.
type PerQueue = (
    fn(&QueueMetrics) -> f64,
    fn(&PolicyEval) -> f64,
    &'static str,
);

const FIG8: PerQueue = (
    |m| m.throughput,
    PolicyEval::mean_throughput,
    "fig8_throughput",
);
const FIG11: PerQueue = (
    |m| m.avg_slowdown,
    PolicyEval::mean_slowdown,
    "fig11_slowdown",
);
const FIG12: PerQueue = (|m| m.fairness, PolicyEval::mean_fairness, "fig12_fairness");

/// Figs. 8, 11 and 12: one row per policy, one metric column per queue
/// and the mean last.
fn emit_per_queue(full: &FullEvaluation, (metric, mean, name): PerQueue, opts: &Options) {
    let mut header: Vec<String> = vec!["policy".into()];
    header.extend(full.queues.iter().map(|q| q.label.clone()));
    header.push("AM".into());
    let hdr: Vec<&str> = header.iter().map(String::as_str).collect();
    let mut t = Table::new(&hdr);
    for run in &full.runs {
        let mut row = vec![run.policy.clone()];
        row.extend(run.metrics.iter().map(|m| f3(metric(m))));
        row.push(f3(mean(run)));
        t.row(row);
    }
    emit(&t, name, opts);
}

fn emit_overhead(full: &FullEvaluation, opts: &Options) {
    let mut t = Table::new(&["quantity", "value"]);
    t.row(vec![
        "online decision latency per window [ms]".into(),
        f3(full.online_decision_ms),
    ]);
    // The RL row is last (a hierarchical run adds a flat reference row
    // before it, so the index is not fixed).
    let rl_run = full.runs.last().expect("runs never empty");
    let mean_window_secs = arithmetic_mean(&rl_run.metrics, |m| m.total_time);
    t.row(vec![
        "mean window runtime (RL) [s]".into(),
        f3(mean_window_secs),
    ]);
    t.row(vec![
        "online overhead [% of window runtime]".into(),
        f3(full.online_decision_ms / 10.0 / mean_window_secs),
    ]);
    t.row(vec![
        "offline training wall time [s]".into(),
        f3(full.train_secs),
    ]);
    t.row(vec![
        "training search-space bound (W=12, Cmax=4)".into(),
        format!("{:.3e}", training_search_space(12, 4)),
    ]);
    emit(&t, "overhead", opts);
}

fn fig9(suite: &Suite, opts: &Options) {
    let mut t = Table::new(&["policy", "W", "mean_throughput"]);
    for w in [4usize, 8, 12, 16] {
        let mut cfg = opts.sweep_cfg();
        cfg.w = w;
        let full = run_full(suite, cfg);
        for run in &full.runs {
            t.row(vec![
                run.policy.clone(),
                w.to_string(),
                f3(run.mean_throughput()),
            ]);
        }
    }
    emit(&t, "fig9_window_scaling", opts);
}

fn fig10(suite: &Suite, opts: &Options) {
    let mut t = Table::new(&["policy", "Cmax", "mean_throughput"]);
    for cmax in [2usize, 3, 4] {
        let mut cfg = opts.sweep_cfg();
        cfg.cmax = cmax;
        let full = run_full(suite, cfg);
        for run in &full.runs {
            t.row(vec![
                run.policy.clone(),
                cmax.to_string(),
                f3(run.mean_throughput()),
            ]);
        }
    }
    emit(&t, "fig10_cmax_scaling", opts);
}

fn emit_pairs(name: &str, what: &str, rows: &[(String, f64)], opts: &Options) {
    let mut t = Table::new(&[what, "mean_throughput"]);
    for (label, tp) in rows {
        t.row(vec![label.clone(), f3(*tp)]);
    }
    emit(&t, name, opts);
}

fn oracle_cmd(suite: &Suite, opts: &Options) {
    use hrp_bench::eval::{eval_policy, evaluation_repository};
    use hrp_core::policies::OracleGreedy;
    let queues = evaluation_queues(suite, 12, opts.seed);
    let repo = evaluation_repository(suite);
    let run = eval_policy(suite, &repo, &queues, 4, &OracleGreedy, opts.threads);
    let mut t = Table::new(&["queue", "throughput"]);
    for m in &run.metrics {
        t.row(vec![m.label.clone(), f3(m.throughput)]);
    }
    t.row(vec!["AM".into(), f3(run.mean_throughput())]);
    emit(&t, "oracle_reference", opts);
}

fn cluster_cmd(suite: &Suite, opts: &Options) {
    use hrp_bench::cluster::{evaluation_trace_cfg, placement_comparison, ComparisonOptions};
    use hrp_cluster::trace::generate;
    // 96 jobs even under --quick: shorter traces leave the backfill
    // selectors too few blocked gangs to be distinguishable from FCFS.
    let n_jobs = if opts.quick { 96 } else { 144 };
    let mut trace_cfg = evaluation_trace_cfg(opts.trace, n_jobs, opts.seed);
    if opts.users > 0 {
        trace_cfg = trace_cfg.users(opts.users);
        if let Some(skew) = opts.user_skew {
            trace_cfg = trace_cfg.user_skew(skew);
        }
    }
    let jobs = generate(suite, &trace_cfg);
    // A policy run always shows the heuristics it is measured against,
    // and a backfilling run the other backfill policies; the requested
    // selector is always the last (focus) row. A plain heuristic run
    // shows just the requested row.
    let kinds: Vec<SelectorKind> = match opts.selector {
        SelectorKind::Policy => vec![
            SelectorKind::RoundRobin,
            SelectorKind::LeastLoaded,
            SelectorKind::Policy,
        ],
        SelectorKind::Easy => vec![
            SelectorKind::Fcfs,
            SelectorKind::Conservative,
            SelectorKind::Easy,
        ],
        SelectorKind::Conservative => vec![
            SelectorKind::Fcfs,
            SelectorKind::Easy,
            SelectorKind::Conservative,
        ],
        other => vec![other],
    };
    let cmp = placement_comparison(
        suite,
        &kinds,
        opts.trace,
        &jobs,
        ComparisonOptions {
            nodes: opts.nodes,
            seed: opts.seed,
            quick: opts.quick,
            threads: opts.threads,
            walltime_err: opts.walltime_err,
        },
    );
    println!(
        "# cluster: {} node(s) x {} GPUs, selector {}, trace {}, {} jobs, \
         walltime-err {}",
        opts.nodes,
        hrp_bench::cluster::GPUS_PER_NODE,
        opts.selector.name(),
        opts.trace.name(),
        n_jobs,
        opts.walltime_err
    );
    if let Some((agent, report)) = &cmp.training {
        println!(
            "# policy training: {} episodes over {} {} traces, late return {:.3}",
            agent.config().episodes,
            agent.config().n_traces,
            agent.config().trace.kind.name(),
            report.late_return
        );
    }
    let mut t = Table::new(&[
        "row",
        "jobs",
        "placements",
        "makespan",
        "utilization",
        "avg_wait",
        "throughput",
        "speedup_vs_1node",
        "digest",
    ]);
    // Per-node rows for the *requested* selector's run (the last row).
    let focus = cmp.rows.last().expect("at least one selector");
    for n in &focus.report.per_node {
        t.row(vec![
            format!("node{}", n.node),
            n.jobs.to_string(),
            n.placements.to_string(),
            f3(n.makespan),
            f3(n.utilization),
            f3(n.avg_wait),
            f3(n.throughput()),
            "-".into(),
            "-".into(),
        ]);
    }
    for row in &cmp.rows {
        let agg = &row.report.aggregate;
        t.row(vec![
            row.selector.clone(),
            row.report.completed_jobs().to_string(),
            agg.placements.to_string(),
            f3(agg.makespan),
            f3(agg.utilization),
            f3(agg.avg_wait),
            f3(row.report.throughput()),
            f3(row.speedup()),
            format!("{:016x}", row.report.timeline.digest()),
        ]);
    }
    let baseline = &focus.baseline;
    t.row(vec![
        "single-node baseline".into(),
        n_jobs.to_string(),
        baseline.placements.to_string(),
        f3(baseline.makespan),
        f3(baseline.utilization),
        f3(baseline.avg_wait),
        f3(n_jobs as f64 / baseline.makespan),
        f3(1.0),
        "-".into(),
    ]);
    emit(&t, "cluster_scaling", opts);

    // `--users N` tags the trace with Zipf-skewed tenants; report the
    // per-tenant slowdown balance every selector row achieved.
    if opts.users > 0 {
        use hrp_cluster::fair::user_fairness;
        let mut ft = Table::new(&["row", "tenants", "jain", "spread"]);
        for row in &cmp.rows {
            let fairness = user_fairness(suite, &jobs, &row.report.timeline.events);
            ft.row(vec![
                row.selector.clone(),
                fairness.per_user.len().to_string(),
                f3(fairness.jain),
                f3(fairness.spread),
            ]);
        }
        emit(&ft, "cluster_fairness", opts);
    }
}

/// Mean inter-arrival gap of the replayed trace, in simulated seconds:
/// thin enough that nodes drain to quiescence between bursts, the
/// regime the incremental dirty set exists for.
const SERVE_MEAN_GAP: f64 = 12.0;

fn serve_cmd(suite: &Suite, opts: &Options) {
    use hrp_bench::cluster::GPUS_PER_NODE;
    use hrp_cluster::trace::TraceConfig;
    use hrp_serve::{
        restore_file, AdmissionConfig, LoadGen, SchedulerService, ServeConfig, TraceSource,
    };

    if opts.selector == SelectorKind::Policy {
        fail(
            "serve does not train placement agents; \
             pick a heuristic --selector (or restore a checkpointed policy service)",
        );
    }
    if let (Some(c), Some(r)) = (&opts.checkpoint, &opts.restore) {
        if c == r {
            fail(&format!(
                "--checkpoint and --restore name the same path {c:?}; \
                 refusing to overwrite the snapshot being restored"
            ));
        }
        fail(
            "--checkpoint cannot be combined with --restore (restore, then checkpoint a later run)",
        );
    }
    if opts.restore.is_some() && opts.users > 0 {
        fail(
            "--restore rebuilds the tagged source and admission tier from the snapshot; \
             --users/--user-skew/--quota/--slo have no effect there",
        );
    }

    // Restore mode: rebuild the killed service and drain it.
    if let Some(path) = &opts.restore {
        let mut service = restore_file(suite, path)
            .unwrap_or_else(|e| fail(&format!("--restore {}: {e}", path.display())));
        println!(
            "# serve: restored {} — {} node(s) x {} GPUs, selector {}, \
             {} jobs already consumed",
            path.display(),
            service.config().nodes,
            service.config().gpus_per_node,
            service.selector_kind().name(),
            service.consumed()
        );
        service.run_to_close();
        emit_serve_run(opts, service.finish());
        return;
    }

    let mut cfg = ServeConfig::new(opts.nodes, GPUS_PER_NODE).walltime_err(opts.walltime_err);
    let user_skew = opts
        .user_skew
        .unwrap_or(hrp_cluster::trace::DEFAULT_USER_SKEW);
    if opts.users > 0 {
        let mut acfg = AdmissionConfig::new();
        if let Some(q) = opts.quota {
            acfg = acfg.quota(q);
        }
        if let Some(s) = opts.slo {
            acfg = acfg.slo(s);
        }
        cfg = cfg.admission(acfg);
        println!(
            "# serve: admission on — {} tenants (skew {}), quota {}, slo {}",
            opts.users,
            user_skew,
            opts.quota
                .map_or_else(|| "unlimited".into(), |q| q.to_string()),
            opts.slo.map_or_else(|| "never".into(), |s| s.to_string()),
        );
    }
    match opts.source {
        ServeSource::Trace => {
            let n_jobs = if opts.quick { 2_000 } else { 20_000 };
            let mut trace_cfg = TraceConfig::new(opts.trace, n_jobs, opts.seed)
                .max_gpus(GPUS_PER_NODE)
                .mean_gap(SERVE_MEAN_GAP);
            if opts.users > 0 {
                trace_cfg = trace_cfg.users(opts.users).user_skew(user_skew);
            }
            println!(
                "# serve: {} node(s) x {} GPUs, selector {}, trace {} ({} jobs), \
                 walltime-err {}",
                opts.nodes,
                GPUS_PER_NODE,
                opts.selector.name(),
                opts.trace.name(),
                trace_cfg.jobs,
                opts.walltime_err
            );
            // Checkpoint halfway through the trace.
            let checkpoint_after = trace_cfg.jobs / 2;
            let service = SchedulerService::new(
                suite,
                cfg,
                opts.selector,
                TraceSource::new(suite, trace_cfg),
            );
            drive_serve_run(service, checkpoint_after, opts);
        }
        ServeSource::Load(shape) => {
            println!(
                "# serve: {} node(s) x {} GPUs, selector {}, {} load at \
                 {} jobs/s for {} s, walltime-err {}",
                opts.nodes,
                GPUS_PER_NODE,
                opts.selector.name(),
                shape.name(),
                opts.rate,
                opts.duration,
                opts.walltime_err
            );
            let mut source = LoadGen::new(suite, shape, opts.rate, opts.duration, opts.seed);
            if opts.users > 0 {
                source = source.with_users(opts.users, user_skew);
            }
            // The horizon is open-ended in job count; checkpoint once
            // a small prefix is in flight.
            drive_serve_run(
                SchedulerService::new(suite, cfg, opts.selector, source),
                10,
                opts,
            );
        }
    }
}

/// Drive one live service run: optionally checkpoint once the source
/// has handed out `checkpoint_after` jobs, then drain to close and
/// report.
fn drive_serve_run<S: hrp_serve::ArrivalSource>(
    mut service: hrp_serve::SchedulerService<'_, S>,
    checkpoint_after: usize,
    opts: &Options,
) {
    use hrp_serve::ServiceStep;
    if let Some(path) = &opts.checkpoint {
        while service.consumed() < checkpoint_after {
            match service.step() {
                ServiceStep::Cycle { .. } => {}
                ServiceStep::Pending => {
                    if service.wake_cycle().is_none() {
                        std::thread::yield_now();
                    }
                }
                ServiceStep::Closed => break,
            }
        }
        service
            .checkpoint_to(path)
            .unwrap_or_else(|e| fail(&format!("--checkpoint {}: {e}", path.display())));
        println!(
            "# serve: checkpointed at {} consumed jobs -> {}",
            service.consumed(),
            path.display()
        );
    }
    service.run_to_close();
    emit_serve_run(opts, service.finish());
}

/// One live service run's report: aggregate schedule quality, the
/// logical cycle counters, the decision-latency percentiles, and the
/// grep-friendly `# digest` line the CI kill/resume check compares.
fn emit_serve_run(opts: &Options, served: hrp_serve::ServeReport) {
    let agg = &served.report.aggregate;
    let mut t = Table::new(&["quantity", "value"]);
    t.row(vec![
        "jobs completed".into(),
        served.report.completed_jobs().to_string(),
    ]);
    t.row(vec!["makespan [s]".into(), f3(agg.makespan)]);
    t.row(vec!["utilization".into(), f3(agg.utilization)]);
    t.row(vec!["avg wait [s]".into(), f3(agg.avg_wait)]);
    t.row(vec!["cycles".into(), served.stats.cycles.to_string()]);
    t.row(vec![
        "wake cycles".into(),
        served.stats.wake_cycles.to_string(),
    ]);
    t.row(vec!["decisions".into(), served.stats.decisions.to_string()]);
    t.row(vec![
        "nodes re-planned".into(),
        served.stats.nodes_replanned.to_string(),
    ]);
    t.row(vec![
        "nodes skipped".into(),
        served.stats.nodes_skipped.to_string(),
    ]);
    t.row(vec!["decision p50 [us]".into(), f3(served.latency.p50_us)]);
    t.row(vec!["decision p99 [us]".into(), f3(served.latency.p99_us)]);
    if let Some(adm) = &served.admission {
        t.row(vec!["deferred".into(), served.stats.deferred.to_string()]);
        t.row(vec!["rejected".into(), served.stats.rejected.to_string()]);
        emit(&t, "serve_run", opts);
        println!("# admission digest {:016x}", adm.digest);
    } else {
        emit(&t, "serve_run", opts);
    }
    println!("# digest {:016x}", served.report.timeline.digest());
}

fn ablate_interference_cmd(suite: &Suite, opts: &Options) {
    let mut t = Table::new(&[
        "interference_factor",
        "mps_only_mean",
        "mig_only_mean",
        "mig_over_mps",
    ]);
    for (factor, mps, mig) in ablate_interference(suite, 12, 4, opts.seed, opts.threads) {
        t.row(vec![f3(factor), f3(mps), f3(mig), f3(mig / mps)]);
    }
    emit(&t, "ablate_interference", opts);
}
