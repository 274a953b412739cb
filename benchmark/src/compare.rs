//! `compare A B`: do two sets of `run` outputs agree within the
//! bounds of the end-to-end metrics?

use crate::json::{self, Json};
use crate::spec::{Better, EndToEnd, WorkloadKind, END_TO_END};
use crate::stats::quartiles;
use std::fmt::Write as _;

/// Fewest `run` outputs a result set may hold.
pub const MIN_RUNS: usize = 5;

/// Every `run` output in `text`: the lines that are JSON objects with
/// a `results` field. Other lines (the human-readable report a `run`
/// prints above its result) are skipped.
///
/// # Errors
/// A smoke-test (`--quick`) result, which measures too little to be
/// compared.
pub fn parse_set(text: &str) -> Result<Vec<Json>, String> {
    let mut runs = Vec::new();
    for line in text.lines().filter(|l| l.trim_start().starts_with('{')) {
        let Ok(doc) = json::parse(line) else { continue };
        if doc.get("results").is_none() {
            continue;
        }
        if doc.get("quick").and_then(Json::as_bool) == Some(true) {
            return Err("a --quick result cannot be compared".into());
        }
        runs.push(doc);
    }
    Ok(runs)
}

/// The values of one workload × metric across the runs of a set.
fn series(runs: &[Json], workload: &str, metric: &str) -> Vec<f64> {
    runs.iter()
        .filter_map(|run| {
            run.get("results")?
                .get(workload)?
                .get("metrics")?
                .get(metric)?
                .get("value")?
                .as_f64()
        })
        .collect()
}

/// How far `b`'s median is on the worse side of `a`'s, as a share of
/// `a`'s (negative when `b` is better).
#[must_use]
pub fn worsening(metric: &EndToEnd, median_a: f64, median_b: f64) -> f64 {
    match metric.better {
        Better::Lower => (median_b - median_a) / median_a,
        Better::Higher => (median_a - median_b) / median_a,
    }
}

/// Compare two result sets. Returns the report and whether every
/// workload × metric pair stayed within its bound.
///
/// # Errors
/// A set with fewer than [`MIN_RUNS`] values for some pair.
pub fn compare(a: &[Json], b: &[Json]) -> Result<(String, bool), String> {
    let mut report = String::new();
    let mut ok = true;
    let _ = writeln!(
        report,
        "{:<24} {:<18} {:>14} {:>14} {:>8} {:>7} {:>7} {:>6}  verdict",
        "workload", "metric", "median A", "median B", "worse", "iqr A", "iqr B", "bound"
    );
    for workload in WorkloadKind::ALL {
        for metric in &END_TO_END {
            let (sa, sb) = (
                series(a, workload.name(), metric.name),
                series(b, workload.name(), metric.name),
            );
            if sa.len() < MIN_RUNS || sb.len() < MIN_RUNS {
                return Err(format!(
                    "{} {}: {} and {} values, need at least {MIN_RUNS} in each set",
                    workload.name(),
                    metric.name,
                    sa.len(),
                    sb.len()
                ));
            }
            let [a1, a2, a3] = quartiles(&sa).expect("MIN_RUNS is at least two");
            let [b1, b2, b3] = quartiles(&sb).expect("MIN_RUNS is at least two");
            let worse = worsening(metric, a2, b2);
            let verdict = if worse > metric.bound {
                "REGRESSED"
            } else {
                "ok"
            };
            ok &= worse <= metric.bound;
            let _ = writeln!(
                report,
                "{:<24} {:<18} {:>14.4} {:>14.4} {:>7.2}% {:>6.2}% {:>6.2}% {:>5.0}%  {verdict}",
                workload.name(),
                metric.name,
                a2,
                b2,
                worse * 100.0,
                (a3 - a1) / a2 * 100.0,
                (b3 - b1) / b2 * 100.0,
                metric.bound * 100.0,
            );
        }
    }
    Ok((report, ok))
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A result set in which every metric of every workload reads
    /// `base · (1 + step · run)`.
    fn set(base: f64, step: f64, runs: usize) -> String {
        let mut text = String::from("a human-readable line\n");
        for run in 0..runs {
            let value = base * (1.0 + step * run as f64);
            let metrics: Vec<String> = END_TO_END
                .iter()
                .map(|m| {
                    format!(
                        "\"{}\": {{\"value\": {value}, \"unit\": \"{}\"}}",
                        m.name, m.unit
                    )
                })
                .collect();
            let results: Vec<String> = WorkloadKind::ALL
                .iter()
                .map(|w| {
                    format!(
                        "\"{}\": {{\"metrics\": {{{}}}}}",
                        w.name(),
                        metrics.join(", ")
                    )
                })
                .collect();
            text += &format!(
                "{{\"quick\": false, \"results\": {{{}}}}}\n",
                results.join(", ")
            );
        }
        text
    }

    #[test]
    fn identical_sets_agree_and_a_shift_beyond_a_bound_fails() {
        let a = parse_set(&set(100.0, 0.001, 5)).expect("valid");
        assert_eq!(a.len(), 5);
        assert!(compare(&a, &a).expect("enough runs").1);
        let bounds = END_TO_END.iter().map(|m| m.bound);
        let (least, most) = (
            bounds.clone().fold(f64::INFINITY, f64::min),
            bounds.fold(0.0, f64::max),
        );
        // Either way by less than the tightest bound: nothing regressed.
        for shift in [1.0 + 0.8 * least, 1.0 - 0.8 * least] {
            let b = parse_set(&set(100.0 * shift, 0.001, 5)).expect("valid");
            assert!(compare(&a, &b).expect("enough runs").1, "shift {shift}");
        }
        // Either way by more than the widest: the metrics whose worse
        // side that is regressed.
        for shift in [1.0 + 1.2 * most, 1.0 - 1.2 * most] {
            let b = parse_set(&set(100.0 * shift, 0.001, 5)).expect("valid");
            let (report, ok) = compare(&a, &b).expect("enough runs");
            assert!(!ok && report.contains("REGRESSED"), "shift {shift}");
        }
    }

    #[test]
    fn small_and_quick_sets_are_refused() {
        let four = parse_set(&set(1.0, 0.0, 4)).expect("valid");
        assert!(compare(&four, &four).is_err());
        let quick = set(1.0, 0.0, 5).replace("\"quick\": false", "\"quick\": true");
        assert!(parse_set(&quick).is_err());
    }

    #[test]
    fn worsening_follows_the_direction_of_the_metric() {
        let lower = &END_TO_END[0];
        let higher = END_TO_END
            .iter()
            .find(|m| m.better == Better::Higher)
            .expect("one");
        assert!((worsening(lower, 10.0, 11.0) - 0.1).abs() < 1e-12);
        assert!((worsening(higher, 10.0, 11.0) + 0.1).abs() < 1e-12);
    }
}
