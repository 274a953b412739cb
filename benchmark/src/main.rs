//! `hrp-benchmark`: see `README.md` for what is measured and why.

use hrp_benchmark::compare::{compare, parse_set};
use hrp_benchmark::json::{self, Json};
use hrp_benchmark::runner::{run, Outcome, RunArgs};
use hrp_benchmark::spec::{self, WorkloadKind, RUN_SECONDS};
use hrp_benchmark::workloads::Params;
use std::process::{Command, ExitCode, Stdio};

const USAGE: &str = "\
usage:
  hrp-benchmark --workload <name> --seed <n> --seconds <s> --trace <0|1> [--quick]
      one workload in this process; the last line of stdout is its result
  hrp-benchmark run   [--seed <n>] [--seconds <s>] [--quick]
      every workload, each in a fresh child process: the end-to-end metrics
  hrp-benchmark trace [--seed <n>] [--seconds <s>] [--quick]
      the same through the Timed* wrappers: the per-layer metrics
  hrp-benchmark compare <A> <B>
      two files of >= 5 `run` outputs each: is B within the bounds of A?
  hrp-benchmark manifest
      print BENCHMARK.json
workloads: serve_policy_steady serve_backfill_overload batch_des_heavytail train_hier";

/// Exit status of a malformed command line.
const BAD_USAGE: u8 = 2;

fn usage(problem: &str) -> ExitCode {
    eprintln!("hrp-benchmark: {problem}\n{USAGE}");
    ExitCode::from(BAD_USAGE)
}

/// The flags every mode shares, parsed.
struct Flags {
    workload: Option<WorkloadKind>,
    seed: Option<u64>,
    seconds: Option<f64>,
    trace: Option<bool>,
    quick: bool,
    corrupt_oracle: bool,
}

fn parse_flags(args: &[String]) -> Result<Flags, String> {
    let mut flags = Flags {
        workload: None,
        seed: None,
        seconds: None,
        trace: None,
        quick: false,
        corrupt_oracle: false,
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let v = value()?;
                flags.workload =
                    Some(WorkloadKind::parse(v).ok_or_else(|| format!("unknown workload '{v}'"))?);
            }
            "--seed" => {
                let v = value()?;
                flags.seed = Some(
                    v.parse()
                        .map_err(|_| format!("--seed '{v}' is not a whole number"))?,
                );
            }
            "--seconds" => {
                let v = value()?;
                let s: f64 = v
                    .parse()
                    .map_err(|_| format!("--seconds '{v}' is not a number"))?;
                if !(s.is_finite() && s > 0.0) {
                    return Err(format!("--seconds '{v}' must be positive"));
                }
                flags.seconds = Some(s);
            }
            "--trace" => {
                flags.trace = Some(match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    v => return Err(format!("--trace '{v}' is neither 0 nor 1")),
                });
            }
            "--quick" => flags.quick = true,
            // Test hook, see `workloads::Params::corrupt_oracle`.
            "--corrupt-oracle" => flags.corrupt_oracle = true,
            other => return Err(format!("unknown argument '{other}'")),
        }
    }
    Ok(flags)
}

impl Flags {
    fn seconds(&self) -> f64 {
        self.seconds.unwrap_or(if self.quick {
            0.5
        } else {
            f64::from(RUN_SECONDS)
        })
    }
}

fn print_report(kind: WorkloadKind, args: &RunArgs, outcome: &Outcome) {
    println!(
        "{} --seed {} --trace {}  (work unit: {}; timed operation: {})",
        kind.name(),
        args.params.seed,
        u8::from(args.trace),
        kind.unit_of_work(),
        kind.op()
    );
    for (name, value, unit) in &outcome.metrics {
        println!("  {name:<40} {value:>18.4} {unit}");
    }
    for (key, value) in &outcome.notes {
        println!("  # {key}: {value}");
    }
}

/// One workload in this process (what the driver and `run`/`trace`
/// children execute).
fn single(flags: &Flags) -> ExitCode {
    let (Some(kind), Some(seed), Some(trace)) = (flags.workload, flags.seed, flags.trace) else {
        return usage("--workload, --seed and --trace are all required");
    };
    let args = RunArgs {
        kind,
        params: Params {
            seed,
            quick: flags.quick,
            corrupt_oracle: flags.corrupt_oracle,
        },
        seconds: flags.seconds(),
        trace,
    };
    match run(&args) {
        Ok(outcome) => {
            print_report(kind, &args, &outcome);
            println!("{}", outcome.result_json().render());
            ExitCode::SUCCESS
        }
        Err(gate) => {
            eprintln!("hrp-benchmark: {}: INCORRECT: {gate}", kind.name());
            ExitCode::FAILURE
        }
    }
}

/// Every workload, each in a child process of its own.
fn all(flags: &Flags, trace: bool) -> ExitCode {
    if flags.workload.is_some() || flags.trace.is_some() {
        return usage("run and trace take --seed, --seconds and --quick only");
    }
    let exe = match std::env::current_exe() {
        Ok(exe) => exe,
        Err(e) => {
            eprintln!("hrp-benchmark: cannot find my own executable: {e}");
            return ExitCode::FAILURE;
        }
    };
    let seed = flags.seed.unwrap_or(42);
    let mut results = Vec::new();
    for kind in WorkloadKind::ALL {
        let mut child = Command::new(&exe);
        child
            .args(["--workload", kind.name()])
            .args(["--seed", &seed.to_string()])
            .args(["--seconds", &flags.seconds().to_string()])
            .args(["--trace", if trace { "1" } else { "0" }])
            .stdin(Stdio::null())
            .stderr(Stdio::inherit());
        if flags.quick {
            child.arg("--quick");
        }
        if flags.corrupt_oracle {
            child.arg("--corrupt-oracle");
        }
        // `output` waits for the child to end before it returns.
        let output = match child.output() {
            Ok(output) => output,
            Err(e) => {
                eprintln!("hrp-benchmark: cannot start {}: {e}", kind.name());
                return ExitCode::FAILURE;
            }
        };
        let stdout = String::from_utf8_lossy(&output.stdout);
        let (report, result) = match stdout.trim_end().rsplit_once('\n') {
            Some((report, result)) => (report, result),
            None => ("", stdout.trim_end()),
        };
        println!("{report}");
        let parsed = json::parse(result).ok().filter(|_| output.status.success());
        let Some(parsed) = parsed else {
            eprintln!("hrp-benchmark: {} failed ({})", kind.name(), output.status);
            return ExitCode::FAILURE;
        };
        results.push((kind.name().to_owned(), parsed));
    }
    let doc = Json::Obj(vec![
        (
            "schema".to_owned(),
            Json::Str("hrp-benchmark/v1".to_owned()),
        ),
        (
            "mode".to_owned(),
            Json::Str(if trace { "trace" } else { "run" }.to_owned()),
        ),
        ("quick".to_owned(), Json::Bool(flags.quick)),
        ("seed".to_owned(), Json::Num(seed as f64)),
        ("seconds".to_owned(), Json::Num(flags.seconds())),
        ("results".to_owned(), Json::Obj(results)),
    ]);
    println!("{}", doc.render());
    ExitCode::SUCCESS
}

fn compare_files(paths: &[String]) -> ExitCode {
    let [a, b] = paths else {
        return usage("compare takes exactly two files");
    };
    let load = |path: &String| {
        let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
        parse_set(&text).map_err(|e| format!("{path}: {e}"))
    };
    let sets = load(a).and_then(|a| Ok((a, load(b)?)));
    let outcome = sets.and_then(|(a, b)| compare(&a, &b));
    match outcome {
        Ok((report, within)) => {
            print!("{report}");
            if within {
                println!("every pair is within its bound");
                ExitCode::SUCCESS
            } else {
                println!("at least one pair is beyond its bound");
                ExitCode::FAILURE
            }
        }
        Err(problem) => usage(&problem),
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let (mode, rest) = match args.first().map(String::as_str) {
        Some(m @ ("run" | "trace" | "compare" | "manifest")) => (m, &args[1..]),
        Some(_) => ("single", &args[..]),
        None => return usage("no arguments"),
    };
    if mode == "compare" {
        return compare_files(rest);
    }
    let flags = match parse_flags(rest) {
        Ok(flags) => flags,
        Err(problem) => return usage(&problem),
    };
    match mode {
        "manifest" => {
            print!("{}", spec::manifest());
            ExitCode::SUCCESS
        }
        "run" => all(&flags, false),
        "trace" => all(&flags, true),
        _ => single(&flags),
    }
}
