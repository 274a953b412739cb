//! The command line: malformed input exits 2, a smoke run prints a
//! result of the contract's shape, and a corrupted oracle fails it.

use hrp_benchmark::compare::parse_set;
use hrp_benchmark::json::{self, Json};
use hrp_benchmark::spec::{self, WorkloadKind, END_TO_END};
use std::path::Path;
use std::process::{Command, Output};

fn bench(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_hrp-benchmark"))
        .args(args)
        .output()
        .expect("the benchmark binary runs")
}

fn bench_workload(workload: WorkloadKind, flags: &str) -> Output {
    let mut args = vec!["--workload", workload.name()];
    args.extend(flags.split_whitespace());
    bench(&args)
}

fn last_line(output: &Output) -> String {
    let stdout = String::from_utf8_lossy(&output.stdout);
    stdout
        .trim_end()
        .lines()
        .last()
        .unwrap_or_default()
        .to_owned()
}

fn keys(value: &Json) -> Vec<&str> {
    let fields = value.as_obj().expect("an object");
    fields.iter().map(|(k, _)| k.as_str()).collect()
}

#[test]
fn malformed_command_lines_exit_2_with_usage() {
    let cases = [
        "",
        "--workload train_hier --seed x --seconds 1 --trace 0",
        "--workload train_hier --seed -1 --seconds 1 --trace 0",
        "--workload train_hier --seed 1.5 --seconds 1 --trace 0",
        "--workload train_hier --seconds 1 --trace 0",
        "--workload serve_everything --seed 1 --seconds 1 --trace 0",
        "--workload train_hier --seed 1 --seconds 0 --trace 0",
        "--workload train_hier --seed 1 --seconds nan --trace 0",
        "--workload train_hier --seed 1 --seconds 1 --trace 2",
        "--workload train_hier --seed",
        "run --workload train_hier",
        "run --seed x",
        "trace --frobnicate",
        "compare only-one-file",
        "compare /nonexistent/a /nonexistent/b",
    ];
    for case in cases {
        let args: Vec<&str> = case.split_whitespace().collect();
        let out = bench(&args);
        assert_eq!(out.status.code(), Some(2), "{case:?}");
        assert!(out.stdout.is_empty(), "{case:?} printed a result");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(stderr.contains("usage:"), "{case:?}");
    }
}

#[test]
fn a_smoke_run_prints_every_end_to_end_metric_of_every_workload() {
    let out = bench(&["run", "--quick", "--seed", "7"]);
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let doc = json::parse(&last_line(&out)).expect("the last line is JSON");
    assert_eq!(doc.get("quick").and_then(Json::as_bool), Some(true));
    assert_eq!(doc.get("mode"), Some(&Json::Str("run".into())));
    let results = doc.get("results").expect("results");
    let workloads: Vec<&str> = WorkloadKind::ALL.iter().map(|w| w.name()).collect();
    assert_eq!(keys(results), workloads);
    let metric_names: Vec<&str> = END_TO_END.iter().map(|m| m.name).collect();
    for workload in workloads {
        let result = results.get(workload).expect("a result per workload");
        assert_eq!(
            keys(result),
            ["correct", "attempted", "failed", "metrics", "quick"]
        );
        assert_eq!(result.get("correct").and_then(Json::as_bool), Some(true));
        assert!(
            result
                .get("attempted")
                .and_then(Json::as_f64)
                .expect("a number")
                >= 1.0
        );
        assert_eq!(result.get("failed").and_then(Json::as_f64), Some(0.0));
        let metrics = result.get("metrics").expect("metrics");
        assert_eq!(keys(metrics), metric_names, "{workload}");
        for m in &END_TO_END {
            let metric = metrics.get(m.name).expect("listed");
            assert_eq!(keys(metric), ["value", "unit"]);
            assert_eq!(metric.get("unit"), Some(&Json::Str(m.unit.into())));
            let value = metric
                .get("value")
                .and_then(Json::as_f64)
                .expect("a number");
            assert!(
                value.is_finite() && value > 0.0,
                "{workload} {} = {value}",
                m.name
            );
        }
    }
    // The human-readable part names every metric with its unit.
    let stdout = String::from_utf8_lossy(&out.stdout);
    for m in &END_TO_END {
        assert_eq!(
            stdout.matches(&format!("  {} ", m.name)).count(),
            4,
            "{}",
            m.name
        );
    }
    assert_eq!(stdout.matches("# tail_percentile: p").count(), 4);
    assert_eq!(stdout.matches("# ops_attempted: ").count(), 4);
    // A smoke result measures too little to be compared.
    assert!(parse_set(&stdout).is_err());
}

#[test]
fn a_traced_smoke_run_prints_every_per_layer_metric() {
    let layers: Vec<String> = spec::per_layer().into_iter().map(|m| m.0).collect();
    let value = |result: &Json, name: &str| {
        let metric = result.get("metrics").and_then(|m| m.get(name));
        metric
            .and_then(|m| m.get("value"))
            .and_then(Json::as_f64)
            .expect("a number")
    };
    for workload in WorkloadKind::ALL {
        let flags = "--seed 7 --seconds 0.2 --trace 1 --quick";
        let out = bench_workload(workload, flags);
        assert!(
            out.status.success(),
            "{}",
            String::from_utf8_lossy(&out.stderr)
        );
        let result = json::parse(&last_line(&out)).expect("the last line is JSON");
        let names = keys(result.get("metrics").expect("metrics"));
        assert_eq!(names, layers, "{}", workload.name());
        // Inference runs on the policy workload only, the backfill
        // planner on the overload workload only.
        let infers = value(&result, "nn.infer.greedy.calls") > 0.0;
        assert_eq!(infers, workload == WorkloadKind::ServePolicySteady);
        let backfills = value(&result, "cluster.backfill.next_placement.calls") > 0.0;
        assert_eq!(backfills, workload == WorkloadKind::ServeBackfillOverload);
        let stdout = String::from_utf8_lossy(&out.stdout);
        assert!(stdout.contains("# top_spans_by_self_time: "));
    }
}

#[test]
fn a_corrupted_oracle_fails_the_run_without_a_result() {
    for workload in WorkloadKind::ALL {
        for trace in ["0", "1"] {
            let flags = format!("--seed 7 --seconds 0.2 --trace {trace} --quick --corrupt-oracle");
            let out = bench_workload(workload, &flags);
            assert_eq!(
                out.status.code(),
                Some(1),
                "{} trace {trace}",
                workload.name()
            );
            assert!(
                !last_line(&out).starts_with('{'),
                "{} printed a result",
                workload.name()
            );
            assert!(String::from_utf8_lossy(&out.stderr).contains("INCORRECT"));
        }
    }
    let out = bench(&["run", "--quick", "--corrupt-oracle"]);
    assert_eq!(out.status.code(), Some(1));
    assert!(!last_line(&out).starts_with('{'));
}

#[test]
fn benchmark_json_is_what_the_manifest_subcommand_prints() {
    let out = bench(&["manifest"]);
    assert!(out.status.success());
    let printed = String::from_utf8_lossy(&out.stdout).into_owned();
    assert_eq!(printed, spec::manifest());
    let committed = Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    let committed =
        std::fs::read_to_string(committed).expect("BENCHMARK.json at the repository root");
    assert_eq!(
        committed, printed,
        "regenerate with `hrp-benchmark manifest > BENCHMARK.json`"
    );
    let doc = json::parse(&printed).expect("valid JSON");
    let top = [
        "command",
        "paths",
        "run_seconds",
        "workloads",
        "end_to_end",
        "per_layer",
    ];
    assert_eq!(keys(&doc), top);
}
