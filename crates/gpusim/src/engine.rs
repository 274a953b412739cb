//! Discrete-event co-run simulation.
//!
//! [`simulate_corun`] runs a set of applications to completion on a
//! compiled partition. Between job completions the rate model
//! ([`crate::perf::corun_rates`]) is piecewise-constant, so the engine
//! advances directly from completion to completion (a processor-sharing
//! queue): at each event the finished job leaves, the survivors' rates are
//! re-solved (they speed up — more bandwidth, less interference), and the
//! clock jumps to the next completion.
//!
//! The result records each job's **span** (co-run start → its own finish),
//! which is the paper's `CoRunAppTime(J)`, and the group **makespan**,
//! which is `CoRunTime(JS, R)`.

use crate::app::AppModel;
use crate::error::SimError;
use crate::partition::CompiledPartition;
use crate::perf::corun_rates;

/// Engine knobs.
#[derive(Debug, Clone, PartialEq)]
pub struct EngineConfig {
    /// One-off overhead (seconds) added to the group makespan when MIG is
    /// reconfigured for the group (`nvidia-smi mig -cgi …` takes seconds
    /// on real hardware and needs an idle GPU).
    pub mig_reconfig_overhead: f64,
    /// One-off overhead (seconds) for starting the MPS control daemon.
    pub mps_setup_overhead: f64,
    /// Numerical guard: jobs whose remaining work would take longer than
    /// this are reported as stuck (prevents infinite loops on zero rates).
    pub max_sim_time: f64,
}

impl Default for EngineConfig {
    fn default() -> Self {
        Self {
            mig_reconfig_overhead: 0.0,
            mps_setup_overhead: 0.0,
            max_sim_time: 1e9,
        }
    }
}

/// Outcome of a co-run.
#[derive(Debug, Clone, PartialEq)]
pub struct CoRunResult {
    /// Per-job completion time measured from group start (same order as
    /// the input `apps`). This is the paper's `CoRunAppTime`.
    pub finish_times: Vec<f64>,
    /// Time until the last job finishes (the paper's `CoRunTime`),
    /// including configured overheads.
    pub makespan: f64,
    /// Completion order (indices into `apps`).
    pub completion_order: Vec<usize>,
}

/// Validate a slot assignment.
fn check_assignment(
    apps: &[&AppModel],
    assignment: &[usize],
    part: &CompiledPartition,
) -> Result<(), SimError> {
    if apps.len() != assignment.len() {
        return Err(SimError::AssignmentMismatch {
            apps: apps.len(),
            assignments: assignment.len(),
        });
    }
    let mut used = vec![false; part.slots.len()];
    for &s in assignment {
        if s >= part.slots.len() {
            return Err(SimError::BadSlot(s));
        }
        if used[s] {
            return Err(SimError::SlotCollision(s));
        }
        used[s] = true;
    }
    Ok(())
}

/// Simulate co-running `apps` (app `k` on `part.slots[assignment[k]]`).
///
/// # Panics
/// Panics on invalid assignments; use [`try_simulate_corun`] for the
/// fallible variant.
#[must_use]
pub fn simulate_corun(
    apps: &[&AppModel],
    assignment: &[usize],
    part: &CompiledPartition,
    cfg: &EngineConfig,
) -> CoRunResult {
    try_simulate_corun(apps, assignment, part, cfg).expect("invalid co-run setup")
}

/// Fallible variant of [`simulate_corun`].
pub fn try_simulate_corun(
    apps: &[&AppModel],
    assignment: &[usize],
    part: &CompiledPartition,
    cfg: &EngineConfig,
) -> Result<CoRunResult, SimError> {
    check_assignment(apps, assignment, part)?;
    let n = apps.len();
    let mut finish = vec![0.0f64; n];
    let mut order = Vec::with_capacity(n);
    if n == 0 {
        return Ok(CoRunResult {
            finish_times: finish,
            makespan: 0.0,
            completion_order: order,
        });
    }

    // Remaining work in seconds-of-solo-execution.
    let mut remaining: Vec<f64> = apps.iter().map(|a| a.solo_time).collect();
    let mut alive: Vec<usize> = (0..n).collect();
    let mut clock = 0.0f64;

    let overhead = if part.mig_enabled {
        cfg.mig_reconfig_overhead
    } else {
        0.0
    } + if part.mps_active {
        cfg.mps_setup_overhead
    } else {
        0.0
    };

    while !alive.is_empty() {
        let occupants: Vec<(&AppModel, usize)> =
            alive.iter().map(|&k| (apps[k], assignment[k])).collect();
        let rates = corun_rates(&occupants, part);

        // Time until the next completion.
        let mut dt = f64::INFINITY;
        for (j, &k) in alive.iter().enumerate() {
            let r = rates[j].max(1e-12);
            dt = dt.min(remaining[k] / r);
        }
        if clock + dt > cfg.max_sim_time {
            // Defensive: report everything unfinished at the horizon.
            for &k in &alive {
                finish[k] = cfg.max_sim_time;
                order.push(k);
            }
            clock = cfg.max_sim_time;
            break;
        }

        clock += dt;
        let mut next_alive = Vec::with_capacity(alive.len());
        for (j, &k) in alive.iter().enumerate() {
            let r = rates[j].max(1e-12);
            remaining[k] -= dt * r;
            if remaining[k] <= 1e-9 * apps[k].solo_time.max(1.0) {
                finish[k] = clock;
                order.push(k);
            } else {
                next_alive.push(k);
            }
        }
        alive = next_alive;
    }

    Ok(CoRunResult {
        finish_times: finish,
        makespan: clock + overhead,
        completion_order: order,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::arch::GpuArch;
    use crate::partition::PartitionScheme;

    /// `u` is the roofline compute requirement.
    fn app(name: &str, f: f64, u: f64, b: f64, sigma: f64, t: f64) -> AppModel {
        AppModel::builder(name)
            .parallel_fraction(f)
            .compute_demand(u)
            .mem_demand(b)
            .interference_sensitivity(sigma)
            .solo_time(t)
            .build()
    }

    fn compile(s: PartitionScheme) -> CompiledPartition {
        s.compile(&GpuArch::a100()).unwrap()
    }

    #[test]
    fn solo_run_takes_solo_time() {
        let a = app("a", 0.95, 0.8, 0.5, 0.1, 12.0);
        let part = compile(PartitionScheme::exclusive());
        let r = simulate_corun(&[&a], &[0], &part, &EngineConfig::default());
        assert!((r.makespan - 12.0).abs() < 1e-6);
        assert_eq!(r.completion_order, vec![0]);
    }

    #[test]
    fn empty_corun_is_zero() {
        let part = compile(PartitionScheme::exclusive());
        let r = simulate_corun(&[], &[], &part, &EngineConfig::default());
        assert_eq!(r.makespan, 0.0);
        assert!(r.finish_times.is_empty());
    }

    #[test]
    fn identical_pair_finishes_together() {
        let a = app("a", 0.9, 0.8, 0.3, 0.1, 10.0);
        let b = app("b", 0.9, 0.8, 0.3, 0.1, 10.0);
        let part = compile(PartitionScheme::mps_only(vec![0.5, 0.5]));
        let r = simulate_corun(&[&a, &b], &[0, 1], &part, &EngineConfig::default());
        assert!((r.finish_times[0] - r.finish_times[1]).abs() < 1e-6);
        // Co-run must be faster than time sharing for this benign pair...
        assert!(r.makespan < 20.0);
        // ...but slower than a lone solo run.
        assert!(r.makespan > 10.0);
    }

    #[test]
    fn survivor_speeds_up_after_first_completion() {
        // Two bandwidth hogs: while both run, each is throttled by the
        // shared DRAM pool; once the short one leaves, the survivor gets
        // the whole pool, so its finish is well before the naive
        // constant-rate estimate.
        let short = app("short", 0.95, 0.3, 0.9, 0.1, 2.0);
        let long = app("long", 0.95, 0.3, 0.9, 0.1, 20.0);
        let part = compile(PartitionScheme::mps_only(vec![0.5, 0.5]));
        let r = simulate_corun(&[&short, &long], &[0, 1], &part, &EngineConfig::default());
        assert_eq!(r.completion_order[0], 0);
        // Naive: constant throttled rate for the whole run.
        let occupants = [(&short, 0usize), (&long, 1usize)];
        let both = crate::perf::corun_rates(&occupants, &part);
        let naive = 20.0 / both[1];
        assert!(
            r.makespan < naive - 0.5,
            "makespan {} should undercut naive {naive}",
            r.makespan
        );
    }

    #[test]
    fn completion_order_is_recorded() {
        let a = app("a", 0.9, 0.6, 0.2, 0.0, 5.0);
        let b = app("b", 0.9, 0.6, 0.2, 0.0, 10.0);
        let c = app("c", 0.9, 0.6, 0.2, 0.0, 15.0);
        let part = compile(PartitionScheme::mps_only(vec![0.34, 0.33, 0.33]));
        let r = simulate_corun(&[&c, &a, &b], &[0, 1, 2], &part, &EngineConfig::default());
        assert_eq!(r.completion_order, vec![1, 2, 0]);
        assert!(r.finish_times[1] < r.finish_times[2]);
        assert!(r.finish_times[2] < r.finish_times[0]);
    }

    #[test]
    fn overheads_are_charged() {
        let a = app("a", 0.9, 0.8, 0.3, 0.1, 10.0);
        let b = app("b", 0.9, 0.8, 0.3, 0.1, 10.0);
        let cfg = EngineConfig {
            mig_reconfig_overhead: 2.0,
            mps_setup_overhead: 0.5,
            max_sim_time: 1e9,
        };
        let mig = compile(PartitionScheme::mig_private_3_4());
        let with_mig = simulate_corun(&[&a, &b], &[0, 1], &mig, &cfg);
        let mps = compile(PartitionScheme::mps_only(vec![0.5, 0.5]));
        let with_mps = simulate_corun(&[&a, &b], &[0, 1], &mps, &cfg);
        let nocfg = EngineConfig::default();
        let base_mig = simulate_corun(&[&a, &b], &[0, 1], &mig, &nocfg);
        let base_mps = simulate_corun(&[&a, &b], &[0, 1], &mps, &nocfg);
        // Pure MIG partition: no MPS daemon, only the reconfig cost.
        assert!((with_mig.makespan - base_mig.makespan - 2.0).abs() < 1e-9);
        // MPS-only split: only the daemon start-up cost.
        assert!((with_mps.makespan - base_mps.makespan - 0.5).abs() < 1e-9);
        // Hierarchical MIG+MPS pays both.
        let hier = compile(PartitionScheme::hierarchical_3_4(vec![0.5, 0.5], vec![]));
        let c = app("c", 0.9, 0.8, 0.3, 0.1, 10.0);
        let with_hier = simulate_corun(&[&a, &b, &c], &[0, 1, 2], &hier, &cfg);
        let base_hier = simulate_corun(&[&a, &b, &c], &[0, 1, 2], &hier, &nocfg);
        assert!((with_hier.makespan - base_hier.makespan - 2.5).abs() < 1e-9);
    }

    #[test]
    fn invalid_assignments_rejected() {
        let a = app("a", 0.9, 0.8, 0.3, 0.1, 10.0);
        let part = compile(PartitionScheme::mps_only(vec![0.5, 0.5]));
        let cfg = EngineConfig::default();
        assert!(matches!(
            try_simulate_corun(&[&a], &[0, 1], &part, &cfg),
            Err(SimError::AssignmentMismatch { .. })
        ));
        assert!(matches!(
            try_simulate_corun(&[&a], &[5], &part, &cfg),
            Err(SimError::BadSlot(5))
        ));
        assert!(matches!(
            try_simulate_corun(&[&a, &a], &[1, 1], &part, &cfg),
            Err(SimError::SlotCollision(1))
        ));
    }

    #[test]
    fn relative_throughput_against_time_sharing() {
        let ci = app("ci", 0.97, 0.9, 0.15, 0.05, 10.0);
        let mi = app("mi", 0.95, 0.25, 0.95, 0.25, 10.0);
        let part = compile(PartitionScheme::mps_only(vec![0.8, 0.2]));
        let r = simulate_corun(&[&ci, &mi], &[0, 1], &part, &EngineConfig::default());
        // Sum of the solo times over the co-run makespan.
        let tp = (10.0 + 10.0) / r.makespan;
        assert!(tp > 1.2, "complementary mix should beat time sharing: {tp}");
    }

    #[test]
    fn hierarchical_four_way_runs_all_jobs() {
        let apps = [
            app("ci1", 0.97, 0.9, 0.2, 0.05, 10.0),
            app("mi1", 0.85, 0.3, 0.9, 0.3, 12.0),
            app("us1", 0.01, 0.15, 0.05, 0.0, 8.0),
            app("ci2", 0.95, 0.85, 0.25, 0.05, 15.0),
        ];
        let part = compile(PartitionScheme::hierarchical_3_4(
            vec![0.5, 0.5],
            vec![0.3, 0.7],
        ));
        let refs: Vec<&AppModel> = apps.iter().collect();
        let r = simulate_corun(&refs, &[0, 1, 2, 3], &part, &EngineConfig::default());
        assert_eq!(r.completion_order.len(), 4);
        assert!(r.makespan > 0.0);
        for &t in &r.finish_times {
            assert!(t > 0.0 && t <= r.makespan + 1e-9);
        }
    }
}
