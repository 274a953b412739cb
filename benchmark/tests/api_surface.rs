//! The benchmark may depend only on the `hrp` facade, and only on
//! entry points the roadmap keeps: later changes may not edit these
//! files, so they must stay free to delete everything named here.

use std::fs;
use std::path::{Path, PathBuf};

/// Identifiers the sources must not mention. Split in two so that this
/// file does not mention them either.
const BANNED: [(&str, &str); 10] = [
    ("hrp_", "bench"),
    ("hrp-", "bench"),
    ("render", "_"),
    ("Int8", "Policy"),
    ("learn_per", "_sample"),
    ("with_chunk", "_width"),
    ("with_epoch", "_spawn"),
    ("SpawnPer", "Epoch"),
    ("QNet::", "predict"),
    (".predict", "("),
];

fn sources(dir: &Path, out: &mut Vec<PathBuf>) {
    for entry in fs::read_dir(dir).expect("readable directory") {
        let path = entry.expect("readable entry").path();
        if path.is_dir() {
            sources(&path, out);
        } else if path.extension().is_some_and(|e| e == "rs") {
            out.push(path);
        }
    }
}

fn benchmark_sources() -> Vec<(PathBuf, String)> {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let mut paths = vec![root.join("Cargo.toml")];
    sources(&root.join("src"), &mut paths);
    sources(&root.join("tests"), &mut paths);
    assert!(paths.len() > 10, "found the sources");
    paths
        .into_iter()
        .map(|p| {
            let text = fs::read_to_string(&p).expect("readable source");
            (p, text)
        })
        .collect()
}

#[test]
fn no_source_names_an_entry_point_the_roadmap_may_delete() {
    for (path, text) in benchmark_sources() {
        // This crate's own name begins like the crate it must not use.
        let text = text
            .replace("hrp_benchmark", "")
            .replace("hrp-benchmark", "");
        for (head, tail) in BANNED {
            let banned = format!("{head}{tail}");
            assert!(
                !text.contains(&banned),
                "{} mentions {banned}",
                path.display()
            );
        }
    }
}

#[test]
fn every_import_comes_from_the_facade_or_the_standard_library() {
    let allowed = [
        "hrp::",
        "hrp_benchmark::",
        "crate::",
        "super::",
        "std::",
        "rand::rngs::SmallRng;",
    ];
    for (path, text) in benchmark_sources() {
        for line in text.lines().map(str::trim_start) {
            let Some(import) = line
                .strip_prefix("use ")
                .or_else(|| line.strip_prefix("pub use "))
            else {
                continue;
            };
            assert!(
                allowed.iter().any(|root| import.starts_with(root)),
                "{}: `{line}` imports from outside the facade",
                path.display()
            );
        }
    }
}

#[test]
fn the_manifest_depends_on_the_facade_alone() {
    let manifest = fs::read_to_string(Path::new(env!("CARGO_MANIFEST_DIR")).join("Cargo.toml"))
        .expect("readable manifest");
    let deps = manifest
        .split("[dependencies]")
        .nth(1)
        .expect("a dependencies table");
    let names: Vec<&str> = deps
        .lines()
        .filter(|l| !l.trim_start().starts_with('#'))
        .filter_map(|l| l.split_once('=').map(|(name, _)| name.trim()))
        .collect();
    // `rand` only names `SmallRng` in one trait signature; see Cargo.toml.
    assert_eq!(names, ["hrp", "rand"]);
}
