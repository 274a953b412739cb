//! One of each in the cluster tier, and this scan keeps it one.
//!
//! A trace kind's RNG draws are written once (`TraceStream`;
//! `generate` collects it), there is one backfilling dispatcher
//! (`BackfillPlanner`), and one function constructs node-local
//! dispatchers (`select::dispatcher_for`, over the one `NODE_W` /
//! `NODE_CMAX` pair, beside `SelectorKind`) — training, batch
//! evaluation, `repro` and every `hrp-serve` tier, the policy tier
//! included, go through it — and one representation of an event
//! stream (`sim::EventLog`, read through borrowed `NodeEvent` views). A
//! second copy of any of them would first show up as one of the
//! patterns below. And every public function has a caller: one that
//! nothing but tests names is either on the reasoned list below or
//! gone. And there is one thread fan-out: outside tests, only
//! `hrp_core::par` starts threads. And there is one test tier: no test
//! but a pin printer is ignored. And no library code holds `unsafe`:
//! every crate root forbids it, but `hrp-cluster`'s, which denies it so
//! that one test allocator may opt back in. And the build has one
//! stand-in per third-party crate a line of code uses: `vendor/` holds
//! `proptest` and `rand` only. And a policy reads profiles from one
//! place, its context's repository: under the policies and the cluster
//! tier, only `window_profiler` constructs a `Profiler`.

mod scan;
use scan::{crate_src_dirs, non_test_hits, non_test_lines, rust_sources};
use std::collections::BTreeSet;

#[test]
fn node_dispatchers_are_constructed_in_one_function_body() {
    let files = rust_sources(&crate_src_dirs());
    for constructor in ["CoSchedulingDispatcher::new(", "BackfillPlanner::new("] {
        let hits: Vec<String> = files
            .iter()
            .flat_map(|(path, text)| non_test_hits(path, text, constructor))
            .collect();
        assert_eq!(
            hits.len(),
            1,
            "{constructor} is called at {hits:?}: build node dispatchers through \
             hrp_cluster::select::dispatcher_for, the one constructor"
        );
        assert!(hits[0].starts_with("crates/cluster/src/select.rs:"));
    }
}

#[test]
fn each_trace_kind_draws_in_one_place() {
    let trace = std::fs::read_to_string(concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/crates/cluster/src/trace.rs"
    ))
    .expect("trace.rs moved?");
    // One marker per family of draws that used to exist twice: the
    // heavy-tail table set-up and the bursty burst size.
    for marker in ["const PARETO_ALPHA", "gen_range(2usize..6)"] {
        assert_eq!(
            trace.matches(marker).count(),
            1,
            "{marker}: a kind's draws are written once, in TraceStream"
        );
    }
}

#[test]
fn the_deleted_second_copies_stay_deleted() {
    // Split in two so that this file does not mention them either.
    let gone = [
        ("Fcfs", "Backfill"),
        ("select", "_policy"),
        ("Pressure", "Policy"),
        ("SERVE", "_W"),
        ("CLUSTER", "_W"),
        // The knob census: options and entry points nothing called.
        ("Queue", "Order"),
        ("with_queue", "_order"),
        ("with_", "pool"),
        ("with_flush", "_partial"),
        ("Trained", "Placement"),
        ("epsilon_greedy", "_action("),
        ("forward", "_into"),
        ("QNet::", "predict("),
        (".predict", "("),
        ("predict", "_batch("),
        ("buffer", "_len"),
        ("n_", "shards"),
        ("into", "_config"),
        ("num", "_features"),
        // The fork census: second paths behind a switch nothing flipped,
        // and public functions nothing but their own tests called.
        ("Cycle", "Mode"),
        ("Fair", "Config"),
        ("fair_", "config"),
        ("parallel", "_map"),
        ("Trained", "Experiment"),
        ("Experiment::", "quick"),
        ("Experiment::", "paper"),
        ("Experiment::", "from_config"),
        (".half", "_life("),
        ("adm_half", "_life"),
        ("LoadGen::", "resume("),
        ("forward_inference", "_batch("),
        ("backward_batch", "_no_dx"),
        ("a100", "_2x"),
        ("mig_compute", "_cap"),
        ("sms_per", "_gpc"),
        ("used_compute", "_slices"),
        ("compute", "_fraction"),
        ("domain", "_peers"),
        ("awaiting_mps", "_level"),
        ("has", "_unseen"),
        ("job", "_key"),
        ("cluster", "_compare"),
        ("zero", "_grad"),
        // No traffic, no code: advance reservations, the wake-up hint
        // path only they fed, and the hook that pre-loaded them.
        ("with_", "reservation"),
        ("with_", "dispatchers"),
        ("rebuild", "_mismatch"),
        ("claim", "_up_to"),
        ("hint", "_wake"),
        ("wakeup", "_hint"),
        ("windows", "_scheduled"),
        ("restore_windows", "_scheduled"),
        ("Claim", "UpTo"),
        // One timing instrument: the micro-bench harness, the allocating
        // twins only it called, and second copies of the seeding mixes.
        ("crit", "erion"),
        ("fn state(&self)", " -> Vec<f32>"),
        ("fn forward(&mut self, x: &[f32]", ") -> Vec<f32>"),
        ("fn backward(&mut self, dq", ": &[f32])"),
        ("EpsilonSchedule::", "paper"),
        ("fn sample", "<'a>"),
        ("fn sample(&mut", " self"),
        ("pub fn for_each", "_small_subset"),
        ("trace", "_seed"),
        ("fn split", "mix64("),
        ("0x9e37_79b9", "_7f4a_7c15u64"),
        // The placement tier keeps what callers vary: an agent no longer
        // shapes its nodes, so the second node constructor, the window
        // fields and bounds, and restore's two-phase dispatcher decode go.
        ("fn node", "_dispatcher("),
        ("MAX_NODE", "_W"),
        ("MAX_NODE", "_CMAX"),
        ("Dispatcher", "Record"),
        ("Placement", "Dispatcher"),
        (".node", "_w"),
        (".node", "_cmax"),
        // A window job is its bench index: no name copied out of the
        // suite per job, and no string-keyed, locked profile store.
        ("name: suite", ".by_index("),
        ("profile_and", "_store"),
        ("HashMap<String,", " JobProfile>"),
        // One inference kernel: the AVX2 fork, the runtime CPU detection
        // that picked it, and the constructor that took a kernel.
        ("is_x86_feature", "_detected"),
        ("target_", "feature"),
        ("with_", "kernel"),
        ("matvec_panels", "_avx2"),
        // One single-sample forward: the row-major batch-1 kernels and
        // the entry points that ran them.
        ("fn mat", "vec("),
        ("matvec", "_transpose"),
        ("fn predict", "_into("),
        ("fn backward", "_no_dx("),
        ("fn forward_inference", "(&self"),
        ("fn forward(&mut self, x: &[f32]", ", y: &mut Vec<f32>)"),
        ("fn backward(&mut self, dy", ": &[f32]"),
        // One fan-out: the persistent pool, its lifetime-erased closure
        // and raw result pointer, and the node locks it made necessary.
        ("Worker", "Pool"),
        ("Erased", "Fn"),
        ("Send", "Ptr"),
        ("unpoi", "soned"),
        ("mem::trans", "mute"),
        // One training pipeline, one replay: the overlapped rounds and
        // the sharded replay that only two retired flags selected.
        ("Sharded", "Replay"),
        ("Inflight", "Round"),
        ("max_snapshot", "_lag"),
        ("MAX_", "SHARDS"),
        // One meaning per selector kind: the demo trace is a trace kind,
        // and the round-robin cursor is the decision count.
        ("staggered", "_trace"),
        ("staggered", "_job"),
        ("rr.", "cursor()"),
        // One fan-out: training's rounds run on `par::for_each_mut`, not
        // on a private pool that reordered episodes as they arrived.
        ("Learner", "State"),
        ("next_to", "_learn"),
        // No gradient buffer: a layer's gradient lives one block at a
        // time and Adam takes it as it is computed, so no second copy of
        // the parameters, no per-layer input copies or transposes, and
        // no separate optimiser sweep.
        ("pub g", "w: Vec<f32>"),
        ("x", "_cache"),
        ("dy", "_bm"),
        ("matmul_dw", "_accumulate"),
        ("adam", "_step("),
        ("weights", "_only("),
    ];
    let mut dirs = crate_src_dirs();
    dirs.extend(["tests", "examples", "src"].map(str::to_owned));
    for (path, text) in rust_sources(&dirs) {
        for (head, tail) in gone {
            let name = format!("{head}{tail}");
            assert!(!text.contains(&name), "{path} mentions {name}");
        }
    }
    // One DES thread: the multi-node engine advances its nodes on the
    // calling thread, so the cluster crate names no fan-out (the Fig. 8
    // evaluation keeps the one in hrp-core).
    for (path, text) in rust_sources(&["crates/cluster/src".to_owned()]) {
        for (head, tail) in [("hrp_core::", "par"), ("for_each", "_mut")] {
            let name = format!("{head}{tail}");
            assert!(!text.contains(&name), "{path} mentions {name}");
        }
    }
}

#[test]
fn threads_start_only_in_the_one_fan_out() {
    // Outside test code, only `par::for_each_mut` starts threads: a
    // second fan-out would first show up as one of these calls.
    let mut dirs = crate_src_dirs();
    dirs.push("src".to_owned());
    let files = rust_sources(&dirs);
    let hits: Vec<String> = ["thread::scope", "thread::spawn", "scope.spawn"]
        .iter()
        .flat_map(|call| {
            files
                .iter()
                .flat_map(move |(path, text)| non_test_hits(path, text, call))
        })
        .collect();
    assert!(!hits.is_empty(), "found the fan-out");
    assert!(
        hits.iter()
            .all(|hit| hit.starts_with("crates/core/src/par.rs:")),
        "threads start at {hits:?}: fan out through hrp_core::par::for_each_mut"
    );
}

#[test]
fn no_library_code_holds_unsafe() {
    // Split so that this file holds none of the attributes.
    let allow = format!("{}(unsafe_code", "allow");
    let fixture = format!("#[{allow})]\n    unsafe impl std::alloc::GlobalAlloc for CountingAlloc");
    let mut dirs = crate_src_dirs();
    dirs.extend(["src", "tests", "examples"].map(str::to_owned));
    let (mut roots, mut allowed) = (0, Vec::new());
    for (path, text) in rust_sources(&dirs) {
        if path == "src/lib.rs" || path.starts_with("crates/") && path.ends_with("/src/lib.rs") {
            // hrp-cluster only denies it, so its test allocator can opt in.
            let cluster = path.starts_with("crates/cluster/");
            let lint = format!(
                "#![{}(unsafe_code)]",
                if cluster { "deny" } else { "forbid" }
            );
            assert!(text.contains(&lint), "{path} lacks {lint}");
            roots += 1;
        }
        if text.contains(&allow) {
            allowed.push((text.matches(&allow).count(), text.contains(&fixture), path));
        }
    }
    assert_eq!(roots, crate_src_dirs().len() + 1, "found every crate root");
    assert_eq!(
        allowed,
        [(1, true, "crates/cluster/src/sim.rs".to_owned())],
        "unsafe code may be allowed only on sim.rs's test allocator"
    );
}

#[test]
fn only_pin_printers_are_ignored() {
    // One test tier: whatever checks something runs under plain `cargo
    // test`, and only a printer that regenerates a pin table is ignored.
    // Split in two so that this file does not match itself.
    let attribute = format!("#[{}", "ignore");
    let dirs = ["crates", "src", "tests", "examples"].map(str::to_owned);
    let files = rust_sources(&dirs);
    assert!(
        files
            .iter()
            .any(|(path, _)| path == "crates/bench/tests/golden_fig8.rs"),
        "the scan covers the crates' own test directories"
    );
    let ignored: Vec<String> = files
        .iter()
        .flat_map(|(path, text)| {
            text.lines()
                .enumerate()
                .map(|(i, line)| (i, line.trim_start()))
                .filter(|(_, line)| line.starts_with(&attribute) && !line.contains("pin printer"))
                .map(move |(i, line)| format!("{path}:{}: {line}", i + 1))
        })
        .collect();
    assert!(
        ignored.is_empty(),
        "only a pin printer may be ignored; tier-1 runs everything else: {ignored:#?}"
    );
}

/// Whether `c` can be part of an identifier.
fn is_ident(c: char) -> bool {
    c.is_alphanumeric() || c == '_'
}

/// The identifiers of a line of code, in order.
fn identifiers(line: &str) -> impl Iterator<Item = &str> {
    line.split(|c: char| !is_ident(c))
        .filter(|word| !word.is_empty())
}

/// The identifiers a line calls or names by path, in order: `f(` (so
/// also `.f(`), `f::<` or `::f`. A field read or a local that shares a
/// function's name is not a call of it.
fn called(line: &str) -> impl Iterator<Item = &str> {
    line.char_indices()
        .filter(move |&(at, c)| is_ident(c) && !line[..at].ends_with(is_ident))
        .filter_map(move |(start, _)| {
            let end = line[start..]
                .find(|c| !is_ident(c))
                .map_or(line.len(), |len| start + len);
            let (before, after) = (&line[..start], &line[end..]);
            let call = after.starts_with('(') || after.starts_with("::<");
            (call || before.ends_with("::")).then(|| &line[start..end])
        })
}

/// The names of the functions a line declares after each `keyword`
/// (`"fn "`, `"pub fn "`).
fn declared<'a>(line: &'a str, keyword: &'a str) -> impl Iterator<Item = &'a str> {
    line.split(keyword)
        .skip(1)
        .filter_map(|rest| identifiers(rest).next())
}

/// A public function stays only if something other than tests calls it:
/// every `pub fn` under `crates/*/src` is called (`f(`, `.f(`, `f::<`)
/// or named by path (`::f`) on a non-test, non-comment line other than a
/// declaration of that name, somewhere under `crates/*/src`, `src/` or
/// `examples/` — or is listed here with the reason it stays. The list is
/// exact: an entry that gains a caller must leave it.
///
/// The scan goes by name, so it under-reports: a function that shares
/// its name with another type's called method, or with a call in a
/// string literal, counts as called (`SchedulerService::with_agent`,
/// which only the frozen benchmark and tests construct through, is named
/// by path in a panic message). What it does report is certain.
#[test]
fn every_pub_fn_has_a_caller() {
    let uncalled_on_purpose = [
        // The batch oracle the admission tier is checked against
        // (`oracle`'s harness, hrp-serve's unit tests).
        "crates/cluster/src/multinode.rs::with_fair_order",
        // Ignores its argument: the nodes advance on the calling thread.
        // It stays only because the frozen `benchmark/` calls it, until
        // ROADMAP item 2f releases the name there.
        "crates/cluster/src/multinode.rs::with_threads",
        // `slots_contract` and `planner_contract` read the profile back
        // point by point; `slots_contract` and `alloc_free` hold its
        // coalescing to a segment count.
        "crates/cluster/src/slots.rs::capacity_at",
        "crates/cluster/src/slots.rs::n_segments",
        // `golden_placement` and the placement unit tests: the env-side
        // greedy rollout the deployed selector must reproduce, and an
        // agent that needs no training run (`decoder_hostile`,
        // `mem_budget`, `trace_contract`, hrp-serve's unit tests).
        "crates/cluster/src/place.rs::greedy_placements",
        "crates/cluster/src/place.rs::untrained",
        // `env_contract`: the two-level action a flat action decodes to.
        "crates/core/src/hierarchy.rs::path_of_flat",
        // The evaluation trace `repro cluster` rows are compared on,
        // which `oracle`'s `backfill/` rows pin.
        "crates/bench/src/cluster.rs::evaluation_trace",
        // `properties.rs`: no compiled partition hands out more compute
        // than the GPU has.
        "crates/gpusim/src/partition.rs::total_compute",
        // The online network's Q-values the golden `q0` pins read
        // (`golden_train`, `golden_placement`); greedy rollouts act
        // through a snapshot instead.
        "crates/nn/src/dqn.rs::q_values",
        // The noise-free profiler hrp-profile's and hrp-core's unit
        // tests profile their fixtures with.
        "crates/profile/src/profiler.rs::exact",
        // The file pair beside `save_bytes` / `load_bytes`:
        // `tests/checkpoint.rs` and the README round-trip through it.
        "crates/core/src/experiment.rs::load_file",
        "crates/core/src/experiment.rs::save_file",
        // hrp-serve's unit test reads back the policy a planner that
        // `dispatcher_for` built runs.
        "crates/cluster/src/backfill.rs::policy",
        // The inverse of `claim`: `slots_contract` checks the profile
        // against a naive one through both, and `alloc_free` books
        // releases onto a slot set (the planner refills its profile by
        // claims alone).
        "crates/cluster/src/slots.rs::release",
        // `env_contract` walks the factored catalog of a hierarchical
        // factory, group by group, against the flat catalog.
        "crates/core/src/hierarchy.rs::catalog",
        "crates/core/src/hierarchy.rs::groups",
        // mig.rs's unit tests read back the placements a profile list
        // compiles to.
        "crates/gpusim/src/mig.rs::placements",
        // The learner's step counter: the frozen benchmark reports it
        // (`nn.dqn.learn_steps`), `alloc_free` and `checkpoint` check it.
        "crates/nn/src/dqn.rs::learn_steps",
        // opt.rs's unit tests hold Adam's bias-correction step count.
        "crates/nn/src/opt.rs::steps",
        // A live service's counters mid-run (`alloc_free` reads them
        // between cycles; a finished run reports them in `ServeReport`).
        "crates/serve/src/service.rs::stats",
    ];
    let mut dirs = crate_src_dirs();
    dirs.extend(["src", "examples"].map(str::to_owned));
    let files = rust_sources(&dirs);
    let mut public = BTreeSet::new();
    let mut named = BTreeSet::new();
    for (path, text) in &files {
        for (_, line) in non_test_lines(text) {
            let here: Vec<&str> = declared(line, "fn ").collect();
            named.extend(called(line).filter(|word| !here.contains(word)));
            if path.starts_with("crates/") {
                public.extend(declared(line, "pub fn ").map(|name| (path.as_str(), name)));
            }
        }
    }
    assert!(public.len() > 400, "found the public functions");
    let uncalled: BTreeSet<String> = public
        .iter()
        .filter(|(_, name)| !named.contains(name))
        .map(|(path, name)| format!("{path}::{name}"))
        .collect();
    let expected: BTreeSet<String> = uncalled_on_purpose.map(str::to_owned).into();
    assert_eq!(
        uncalled, expected,
        "public functions no non-test code names (left) differ from the reasoned list (right)"
    );
}

#[test]
fn policies_read_profiles_only_from_the_repository() {
    // A policy reads a window's profiles from `ScheduleContext::repo`; the
    // one profiler it may name is the constructor of the evaluation's.
    let new = format!("{}::new(", "Profiler");
    let mut builders = 0;
    let dirs = ["crates/core/src/policies", "crates/cluster/src"].map(str::to_owned);
    for (path, text) in rust_sources(&dirs) {
        let mut rest = text.as_str();
        if path == "crates/core/src/policies/window_predictor.rs" {
            let (head, tail) = text
                .split_once("pub fn window_profiler(")
                .expect("window_profiler is declared beside the predictor");
            let (body, after) = tail.split_once("\n}\n").expect("a closed body");
            builders += body.matches(&new).count();
            assert!(!head.contains(&new), "{path} builds a profiler");
            rest = after;
        }
        assert!(
            !rest.contains(&new),
            "{path} builds a profiler: read profiles from the context's repository"
        );
    }
    assert_eq!(builders, 1, "window_profiler builds the one profiler");
}

#[test]
fn an_event_stream_has_one_representation() {
    // A vector of events, or an event that owns its id list, is the
    // representation the log replaced (split so this file holds neither).
    let stream = format!("Vec<{}", "NodeEvent");
    let mut dirs = crate_src_dirs();
    dirs.extend(["tests", "examples", "src"].map(str::to_owned));
    let files = rust_sources(&dirs);
    for (path, text) in &files {
        assert!(
            !text.contains(&stream),
            "{path} holds a {stream}>: hold an EventLog"
        );
    }
    let sim = files
        .iter()
        .find_map(|(path, text)| (path == "crates/cluster/src/sim.rs").then_some(text))
        .expect("sim.rs moved?");
    let kinds = sim
        .split_once("pub enum EventKind")
        .and_then(|(_, rest)| rest.split_once("\n}\n"))
        .expect("EventKind is declared in sim.rs")
        .0;
    assert!(kinds.contains("job_ids: &'a [usize]"), "ids are borrowed");
    assert!(!kinds.contains("Vec<"), "an event view owns nothing");
}

#[test]
fn only_the_used_stand_ins_are_vendored() {
    let root = std::path::Path::new(env!("CARGO_MANIFEST_DIR"));
    let mut vendored: Vec<_> = std::fs::read_dir(root.join("vendor"))
        .expect("vendor directory")
        .map(|entry| entry.expect("readable entry").file_name())
        .collect();
    vendored.sort();
    assert_eq!(
        vendored,
        ["proptest", "rand"],
        "vendor/ holds what code uses"
    );
    let crates = crate_src_dirs()
        .into_iter()
        .map(|dir| dir.replace("/src", "/Cargo.toml"));
    for manifest in crates.chain(["Cargo.toml".to_owned()]) {
        let text = std::fs::read_to_string(root.join(&manifest)).expect("readable manifest");
        for gone in ["serde", "serde_derive", "parking_lot", "bytes"] {
            assert!(
                !text.contains(gone),
                "{manifest} names {gone}: nothing uses it"
            );
        }
    }
}
