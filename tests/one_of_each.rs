//! One of each in the cluster tier, and this scan keeps it one.
//!
//! A trace kind's RNG draws are written once (`TraceStream`;
//! `generate` collects it), there is one backfilling dispatcher
//! (`BackfillPlanner`), and one function body constructs node-local
//! dispatchers (`PlacementDispatcher::new`, over the one `NODE_W` /
//! `NODE_CMAX` pair) — training, batch evaluation, `repro` and
//! `hrp-serve` all go through it — and one representation of an event
//! stream (`sim::EventLog`, read through borrowed `NodeEvent` views). A
//! second copy of any of them would first show up as one of the
//! patterns below. And every option has a caller: a `with_*` builder
//! nothing but its own unit tests sets is either on the reasoned list
//! below or gone.

mod scan;
use scan::{crate_src_dirs, non_test_hits, rust_sources};
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
             hrp_cluster::place::{{PlacementDispatcher::new, dispatcher_for}}"
        );
        assert!(hits[0].starts_with("crates/cluster/src/place.rs:"));
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
    ];
    let mut dirs = crate_src_dirs();
    dirs.extend(["tests", "examples", "src"].map(str::to_owned));
    for (path, text) in rust_sources(&dirs) {
        for (head, tail) in gone {
            let name = format!("{head}{tail}");
            assert!(!text.contains(&name), "{path} mentions {name}");
        }
    }
}

#[test]
fn every_builder_option_has_a_caller() {
    // An option stays only if something other than its own unit tests
    // sets it: every `pub fn with_*` under `crates/*/src` is called from
    // non-test code under `crates/*/src` — or is listed here with the
    // reason it stays. The list is exact: an entry that gains a caller
    // must leave it.
    let uncalled_on_purpose = [
        // The batch oracle the admission tier is checked against
        // (`serve_contract`, `golden_fair`, hrp-serve's unit tests).
        "crates/cluster/src/multinode.rs::with_fair_order",
        // The reservation seam `HRPS` round-trips: a service over
        // planners pre-loaded with advance reservations.
        "crates/cluster/src/backfill.rs::with_reservation",
        "crates/serve/src/service.rs::with_dispatchers",
        // The policy tier's constructor: the frozen benchmark's
        // `serve_policy_steady`, `decoder_hostile` and `mem_budget` build
        // through it; `repro serve` has no policy selector to reach it.
        "crates/serve/src/service.rs::with_agent",
    ];
    let files = rust_sources(&crate_src_dirs());
    let mut uncalled = BTreeSet::new();
    for (path, text) in &files {
        let code = text.split("#[cfg(test)]").next().unwrap_or_default();
        for rest in code.split("pub fn with_").skip(1) {
            let name: String = rest
                .chars()
                .take_while(|c| c.is_alphanumeric() || *c == '_')
                .collect();
            let (call, declaration) = (format!("with_{name}("), format!("fn with_{name}("));
            // A declaration line matches the call pattern too.
            let called = files.iter().any(|(p, t)| {
                non_test_hits(p, t, &call).len() > non_test_hits(p, t, &declaration).len()
            });
            if !called {
                uncalled.insert(format!("{path}::with_{name}"));
            }
        }
    }
    let expected: BTreeSet<String> = uncalled_on_purpose.map(str::to_owned).into();
    assert_eq!(
        uncalled, expected,
        "builders without a non-test caller (left) differ from the reasoned list (right)"
    );
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
