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
//! which is `CoRunTime(JS, R)`. No MIG-reconfiguration or MPS start-up
//! time is charged: the makespan is the last finish.

use crate::app::AppModel;
use crate::partition::CompiledPartition;
use crate::perf::corun_rates;

/// The co-run engine's configuration, which has nothing left to set:
/// the model charges no MIG-reconfiguration or MPS start-up time, and
/// its stuck-job horizon is a constant. It stays a (fieldless) type
/// only because the frozen `benchmark/` copies `TrainConfig::engine`
/// into `EnvConfig::engine` (ROADMAP item 2f).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct EngineConfig;

/// Numerical guard: jobs whose remaining work would take longer than
/// this are reported as stuck at it (prevents infinite loops on zero
/// rates).
const MAX_SIM_TIME: f64 = 1e9;

/// Outcome of a co-run.
#[derive(Debug, Clone, PartialEq)]
pub struct CoRunResult {
    /// Per-job completion time measured from group start (same order as
    /// the input `apps`). This is the paper's `CoRunAppTime`.
    pub finish_times: Vec<f64>,
    /// Time until the last job finishes (the paper's `CoRunTime`).
    pub makespan: f64,
}

/// Check a slot assignment.
///
/// # Panics
/// Panics, naming the condition, if `apps` and `assignment` differ in
/// length, a slot is out of range, or two apps share a slot.
fn check_assignment(apps: &[&AppModel], assignment: &[usize], part: &CompiledPartition) {
    assert_eq!(
        apps.len(),
        assignment.len(),
        "co-run length mismatch: {} applications but {} slot assignments",
        apps.len(),
        assignment.len()
    );
    let mut used = vec![false; part.slots.len()];
    for &s in assignment {
        assert!(
            s < part.slots.len(),
            "co-run slot {s} out of range ({} slots)",
            part.slots.len()
        );
        assert!(
            !used[s],
            "co-run slot collision: two applications on slot {s}"
        );
        used[s] = true;
    }
}

/// Simulate co-running `apps` (app `k` on `part.slots[assignment[k]]`).
///
/// # Panics
/// Panics on an invalid assignment: a length mismatch between `apps`
/// and `assignment`, a slot out of range, or a slot collision.
#[must_use]
pub fn simulate_corun(
    apps: &[&AppModel],
    assignment: &[usize],
    part: &CompiledPartition,
) -> CoRunResult {
    check_assignment(apps, assignment, part);
    let n = apps.len();
    let mut finish = vec![0.0f64; n];
    if n == 0 {
        return CoRunResult {
            finish_times: finish,
            makespan: 0.0,
        };
    }

    // Remaining work in seconds-of-solo-execution.
    let mut remaining: Vec<f64> = apps.iter().map(|a| a.solo_time).collect();
    let mut alive: Vec<usize> = (0..n).collect();
    let mut clock = 0.0f64;

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
        if clock + dt > MAX_SIM_TIME {
            // Defensive: report everything unfinished at the horizon.
            for &k in &alive {
                finish[k] = MAX_SIM_TIME;
            }
            clock = MAX_SIM_TIME;
            break;
        }

        clock += dt;
        let mut next_alive = Vec::with_capacity(alive.len());
        for (j, &k) in alive.iter().enumerate() {
            let r = rates[j].max(1e-12);
            remaining[k] -= dt * r;
            if remaining[k] <= 1e-9 * apps[k].solo_time.max(1.0) {
                finish[k] = clock;
            } else {
                next_alive.push(k);
            }
        }
        alive = next_alive;
    }

    CoRunResult {
        finish_times: finish,
        makespan: clock,
    }
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
        let r = simulate_corun(&[&a], &[0], &part);
        assert!((r.makespan - 12.0).abs() < 1e-6);
        assert_eq!(r.finish_times, vec![r.makespan]);
    }

    #[test]
    fn empty_corun_is_zero() {
        let part = compile(PartitionScheme::exclusive());
        let r = simulate_corun(&[], &[], &part);
        assert_eq!(r.makespan, 0.0);
        assert!(r.finish_times.is_empty());
    }

    #[test]
    fn identical_pair_finishes_together() {
        let a = app("a", 0.9, 0.8, 0.3, 0.1, 10.0);
        let b = app("b", 0.9, 0.8, 0.3, 0.1, 10.0);
        let part = compile(PartitionScheme::mps_only(vec![0.5, 0.5]));
        let r = simulate_corun(&[&a, &b], &[0, 1], &part);
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
        let r = simulate_corun(&[&short, &long], &[0, 1], &part);
        assert!(r.finish_times[0] < r.finish_times[1]);
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

    /// The finish times record the completion order: run as `c`, `a`,
    /// `b`, the three finish `a` first, then `b`, then `c`.
    #[test]
    fn completion_order_is_recorded() {
        let a = app("a", 0.9, 0.6, 0.2, 0.0, 5.0);
        let b = app("b", 0.9, 0.6, 0.2, 0.0, 10.0);
        let c = app("c", 0.9, 0.6, 0.2, 0.0, 15.0);
        let part = compile(PartitionScheme::mps_only(vec![0.34, 0.33, 0.33]));
        let r = simulate_corun(&[&c, &a, &b], &[0, 1, 2], &part);
        assert!(r.finish_times[1] < r.finish_times[2]);
        assert!(r.finish_times[2] < r.finish_times[0]);
    }

    /// The engine has nothing to configure; a knob added back to
    /// `EngineConfig` fails here.
    #[test]
    fn the_engine_config_is_empty() {
        assert_eq!(std::mem::size_of::<EngineConfig>(), 0);
    }

    /// The message `simulate_corun` panics with on `apps`/`slots`.
    fn corun_panic(apps: &[&AppModel], slots: &[usize]) -> String {
        let part = compile(PartitionScheme::mps_only(vec![0.5, 0.5]));
        let err = std::panic::catch_unwind(|| simulate_corun(apps, slots, &part))
            .expect_err("an invalid assignment must panic");
        err.downcast_ref::<String>().cloned().unwrap_or_default()
    }

    #[test]
    fn invalid_assignments_rejected() {
        let a = app("a", 0.9, 0.8, 0.3, 0.1, 10.0);
        for (apps, slots, message) in [
            (
                &[&a][..],
                &[0, 1][..],
                "co-run length mismatch: 1 applications but 2 slot assignments",
            ),
            (&[&a][..], &[5][..], "co-run slot 5 out of range (2 slots)"),
            (
                &[&a, &a][..],
                &[1, 1][..],
                "co-run slot collision: two applications on slot 1",
            ),
        ] {
            let got = corun_panic(apps, slots);
            assert!(got.contains(message), "{got:?} does not name {message:?}");
        }
    }

    #[test]
    fn relative_throughput_against_time_sharing() {
        let ci = app("ci", 0.97, 0.9, 0.15, 0.05, 10.0);
        let mi = app("mi", 0.95, 0.25, 0.95, 0.25, 10.0);
        let part = compile(PartitionScheme::mps_only(vec![0.8, 0.2]));
        let r = simulate_corun(&[&ci, &mi], &[0, 1], &part);
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
        let r = simulate_corun(&refs, &[0, 1, 2, 3], &part);
        assert_eq!(r.finish_times.len(), 4);
        assert!(r.makespan > 0.0);
        for &t in &r.finish_times {
            assert!(t > 0.0 && t <= r.makespan + 1e-9);
        }
    }
}
