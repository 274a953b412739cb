//! One run of one workload in this process: set-up, the measured
//! window (or the traced cycles), the correctness gates, the metrics.

use crate::json::Json;
use crate::spec::{self, WorkloadKind, COUNTERS, END_TO_END};
use crate::stats::{self, fastest_parts, Timing};
use crate::tracer::{self, Span, Totals};
use crate::workloads::{build, timed, Layers, Params, Workload};
use std::time::Instant;

/// How often a run sets its workload up before the window.
pub const SETUP_REPS: usize = 3;

/// An end-to-end run keeps setting the workload up after the window
/// until set-up has taken this long in total (or [`MAX_SETUP_REPS`]
/// times): a set-up of half a second is otherwise measured three times
/// within one breath of the host.
const SETUP_BUDGET_S: f64 = 5.0;
const MAX_SETUP_REPS: usize = 12;

/// The spans that set-up is made of, reported per set-up.
const SETUP_SPANS: [Span; 4] = [
    Span::SuiteBuild,
    Span::RepoBuild,
    Span::PlaceTrain,
    Span::TraceGenerate,
];

/// What `--workload … --seed … --seconds … --trace …` asks for.
#[derive(Debug, Clone, Copy)]
pub struct RunArgs {
    /// The workload.
    pub kind: WorkloadKind,
    /// Seed, smoke-test sizes and the oracle test hook.
    pub params: Params,
    /// Length of the measured window, seconds.
    pub seconds: f64,
    /// Report the per-layer metrics of a traced run instead of the
    /// end-to-end metrics of a bare one.
    pub trace: bool,
}

/// A finished, correct run.
#[derive(Debug, Clone)]
pub struct Outcome {
    /// Operations the measured window (or the traced passes) timed.
    pub attempted: u64,
    /// `(name, value, unit)` of every metric of the mode that ran.
    pub metrics: Vec<(String, f64, &'static str)>,
    /// Facts about the run that are not metrics (sample counts, the
    /// tail percentile, the top spans), for the human-readable report.
    pub notes: Vec<(String, String)>,
    /// Whether the run used the smoke-test sizes.
    pub quick: bool,
}

impl Outcome {
    /// The result line of the driver contract: exactly `correct`,
    /// `attempted`, `failed` and `metrics` (plus `quick` on a smoke
    /// run, which the driver never asks for).
    #[must_use]
    pub fn result_json(&self) -> Json {
        let metrics = self
            .metrics
            .iter()
            .map(|(name, value, unit)| {
                let fields = vec![
                    ("value".to_owned(), Json::Num(*value)),
                    ("unit".to_owned(), Json::Str((*unit).to_owned())),
                ];
                (name.clone(), Json::Obj(fields))
            })
            .collect();
        let mut fields = vec![
            ("correct".to_owned(), Json::Bool(true)),
            ("attempted".to_owned(), Json::Num(self.attempted as f64)),
            // A run whose gates fail prints no result at all, so a
            // printed result never carries failed operations.
            ("failed".to_owned(), Json::Num(0.0)),
            ("metrics".to_owned(), Json::Obj(metrics)),
        ];
        if self.quick {
            fields.push(("quick".to_owned(), Json::Bool(true)));
        }
        Json::Obj(fields)
    }
}

/// `VmHWM` of this process, MiB.
fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("/proc/self/status: {e}"))?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().strip_suffix("kB"))
        .and_then(|v| v.trim().parse::<f64>().ok())
        .map(|kb| kb / 1024.0)
        .ok_or_else(|| "no VmHWM in /proc/self/status".to_owned())
}

/// Set the workload up [`SETUP_REPS`] times from scratch; the last
/// instance is the one that runs. Returns it with the seconds each
/// set-up took.
fn set_up(args: &RunArgs) -> Result<(Box<dyn Workload>, Vec<f64>), String> {
    let mut times = Vec::with_capacity(MAX_SETUP_REPS);
    let mut workload = None;
    for _ in 0..SETUP_REPS {
        drop(workload.take());
        let (built, seconds) = timed(|| build(args.kind, args.params));
        workload = Some(built?);
        times.push(seconds);
    }
    Ok((workload.expect("SETUP_REPS is not zero"), times))
}

/// Run what `args` asks for.
///
/// # Errors
/// A failed correctness gate, or a window in which nothing could be
/// measured; the caller prints no result then.
pub fn run(args: &RunArgs) -> Result<Outcome, String> {
    if args.trace {
        run_traced(args)
    } else {
        run_end_to_end(args)
    }
}

fn run_end_to_end(args: &RunArgs) -> Result<Outcome, String> {
    tracer::set_enabled(false);
    let (mut workload, mut setup_times) = set_up(args)?;
    let mut slices = Vec::new();
    let window = Instant::now();
    while slices.len() < workload.first_cycle() || window.elapsed().as_secs_f64() < args.seconds {
        slices.push(workload.pass(slices.len())?);
    }
    let window_s = window.elapsed().as_secs_f64();
    let rss = peak_rss_mb()?;
    workload.verify()?;
    let exact = workload.exact();
    drop(workload);
    let budget = if args.params.quick {
        0.0
    } else {
        SETUP_BUDGET_S
    };
    while setup_times.iter().sum::<f64>() < budget && setup_times.len() < MAX_SETUP_REPS {
        let (again, seconds) = timed(|| build(args.kind, args.params));
        again?;
        setup_times.push(seconds);
    }
    // The fastest set-up is the one reported, for the reason the timing
    // metrics take every part at its fastest repetition: load from the
    // host's other tenants only ever adds time.
    let setup_s = setup_times.iter().copied().fold(f64::INFINITY, f64::min);

    let Timing {
        throughput_per_s,
        latency_p50_us,
        latency_tail_us,
        latency_tail_ratio,
        tail_percentile,
        samples,
        slices: n_slices,
        inputs,
    } = fastest_parts(&slices)?;
    if exact.offered == 0 {
        return Err("the first cycle offered no work".into());
    }
    let value = |name: &str| match name {
        "setup_s" => setup_s,
        "throughput_per_s" => throughput_per_s,
        "latency_p50_us" => latency_p50_us,
        "latency_tail_ratio" => latency_tail_ratio,
        "peak_rss_mb" => rss,
        "makespan_sim_s" => exact.makespan_sim_s,
        "served_share" => exact.served as f64 / exact.offered as f64,
        other => unreachable!("no value for end-to-end metric {other}"),
    };
    let attempted: u64 = slices.iter().map(|s| s.ops_us.len() as u64).sum();
    let whole_units: u64 = slices.iter().map(|s| s.units).sum();
    let whole_wall: f64 = slices.iter().map(|s| s.wall_s).sum();
    let notes = vec![
        ("setups".to_owned(), setup_times.len().to_string()),
        ("window_s".to_owned(), format!("{window_s:.2}")),
        (
            "slices".to_owned(),
            format!("{n_slices} passes over {inputs} inputs"),
        ),
        ("latency_samples".to_owned(), samples.to_string()),
        (
            "tail_percentile".to_owned(),
            format!("p{tail_percentile:.2}"),
        ),
        (
            "latency_tail_us".to_owned(),
            format!("{latency_tail_us:.4}"),
        ),
        (
            "whole_window_throughput_per_s".to_owned(),
            format!("{:.1}", whole_units as f64 / whole_wall),
        ),
        ("ops_attempted".to_owned(), attempted.to_string()),
        ("ops_failed".to_owned(), "0".to_owned()),
        ("units_offered".to_owned(), exact.offered.to_string()),
        (
            "units_refused".to_owned(),
            (exact.offered - exact.served).to_string(),
        ),
    ];
    Ok(Outcome {
        attempted,
        metrics: END_TO_END
            .iter()
            .map(|m| (m.name.to_owned(), value(m.name), m.unit))
            .collect(),
        notes,
        quick: args.params.quick,
    })
}

fn run_traced(args: &RunArgs) -> Result<Outcome, String> {
    // Set-up runs traced too: it has spans of its own.
    tracer::set_enabled(true);
    let _ = tracer::take_totals();
    let set_up = set_up(args);
    tracer::set_enabled(false);
    let (mut workload, _) = set_up?;
    let setup_totals = tracer::take_totals();

    let mut layers = Layers::default();
    let mut cycles = 0u32;
    let window = Instant::now();
    while cycles == 0 || window.elapsed().as_secs_f64() < args.seconds {
        workload.traced_cycle(&mut layers)?;
        cycles += 1;
    }
    let cycle_totals = tracer::take_totals();
    workload.verify()?;

    let per_cycle = 1.0 / f64::from(cycles);
    let per_rep = 1.0 / SETUP_REPS as f64;
    let mut metrics = Vec::new();
    for span in spec::reported_spans() {
        // Of the set-up only its own spans count: its warm-up pass is
        // a pass like those of the cycles, which report it already.
        let rep = if SETUP_SPANS.contains(&span) {
            per_rep
        } else {
            0.0
        };
        let calls =
            setup_totals.calls(span) as f64 * rep + cycle_totals.calls(span) as f64 * per_cycle;
        let self_ms = setup_totals.self_ms(span) * rep + cycle_totals.self_ms(span) * per_cycle;
        metrics.push((format!("{}.calls", span.name()), calls, "count"));
        metrics.push((format!("{}.self_ms", span.name()), self_ms, "ms"));
    }
    for counter in COUNTERS {
        let value = counter_value(counter.name, &layers, &cycle_totals, per_cycle);
        metrics.push((counter.name.to_owned(), value, counter.unit));
    }

    let mut by_self: Vec<Span> = spec::reported_spans().collect();
    by_self.sort_by(|a, b| {
        cycle_totals
            .self_ms(*b)
            .total_cmp(&cycle_totals.self_ms(*a))
    });
    let top: Vec<String> = by_self
        .iter()
        .take(3)
        .map(|s| {
            format!(
                "{} {:.1} ms",
                s.name(),
                cycle_totals.self_ms(*s) * per_cycle
            )
        })
        .collect();
    Ok(Outcome {
        attempted: layers.traced_ops.max(1),
        metrics,
        notes: vec![
            ("cycles".to_owned(), cycles.to_string()),
            ("top_spans_by_self_time".to_owned(), top.join(", ")),
        ],
        quick: args.params.quick,
    })
}

/// The value of one per-layer counter or ratio.
fn counter_value(name: &str, layers: &Layers, totals: &Totals, per_cycle: f64) -> f64 {
    let ratio = |num: f64, den: f64| if den > 0.0 { num / den } else { 0.0 };
    let total = |spans: &[Span]| spans.iter().map(|s| totals.total_ms(*s)).sum::<f64>();
    let sum = |n: &str| layers.sum(n);
    match name {
        "serve.service.jobs_per_cycle" => {
            ratio(sum("serve.service.decisions"), sum("serve.service.cycles"))
        }
        "serve.service.skip_ratio" => ratio(
            sum("serve.service.nodes_skipped"),
            sum("serve.service.nodes_skipped") + sum("serve.service.nodes_replanned"),
        ),
        "serve.admission.deferred_share" => ratio(sum("deferred"), sum("offered")),
        "serve.admission.rejected_share" => ratio(sum("rejected"), sum("offered")),
        "cluster.fair.jain_index" => ratio(sum("jain"), sum("inputs")),
        // What the service spends around the batch engine's work: its
        // own cycles, wake-ups and drain, minus the replay of the same
        // admitted jobs through `MultiNodeSim::run`.
        "serve.service.overhead_ms" => {
            let serve = [Span::ServiceStep, Span::ServiceWake, Span::ServiceFinish];
            if totals.calls(Span::ServiceStep) == 0 {
                0.0
            } else {
                (total(&serve) - total(&[Span::MultinodeRun])) * per_cycle
            }
        }
        "cluster.multinode.events_per_job" => ratio(sum("events"), sum("replayed_jobs")),
        "cluster.multinode.threads2_ratio" => layers.threads2_ratio.unwrap_or(0.0),
        "core.train.rollout_share" => ratio(
            total(&[Span::MakeEnv, Span::EnvStep, Span::EnvState, Span::Act]),
            total(&[Span::TrainEnv]),
        ),
        "core.train.learner_share" => ratio(
            total(&[Span::Learn, Span::Remember, Span::Snapshot]),
            total(&[Span::TrainEnv]),
        ),
        "alloc.count_per_op" => ratio(layers.allocs.0 as f64, layers.traced_ops as f64),
        "alloc.bytes_per_op" => ratio(layers.allocs.1 as f64, layers.traced_ops as f64),
        "trace.overhead_ratio" => stats::median(&layers.overhead_ratios).unwrap_or(0.0),
        // The root span's self time: the part of a traced pass that no
        // recorded layer accounts for.
        "trace.unattributed_share" => {
            let root = if totals.calls(Span::TrainEnv) > 0 {
                Span::TrainEnv
            } else {
                Span::BenchPass
            };
            ratio(totals.self_ms(root), totals.total_ms(root))
        }
        // Plain sums, reported per cycle.
        other => sum(other) * per_cycle,
    }
}
