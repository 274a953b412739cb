//! There is one checkpoint codec, and this scan keeps it one.
//!
//! `hrp-nn::serialize` is the only module that knows the container
//! (`magic | version | payload`), the `key=value` spec grammar, and how
//! to read or write a primitive. A second copy of any of those would
//! first show up as one of the patterns below in some other
//! `crates/*/src` file — so each format's magic may be spelt on exactly
//! one non-test source line (the constant its module hands the codec),
//! and the raw little-endian accessors of the `bytes` stand-in (which
//! panic on underrun) and the spec's line split may appear nowhere but
//! the codec module.

use std::fs;
use std::path::{Path, PathBuf};

/// The one module allowed to do byte plumbing.
const CODEC: &str = "crates/nn/src/serialize.rs";

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

/// `(path relative to the repo root, text)` of every `crates/*/src` file.
fn crate_sources() -> Vec<(String, String)> {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let mut paths = Vec::new();
    for krate in fs::read_dir(root.join("crates")).expect("crates directory") {
        sources(
            &krate.expect("readable entry").path().join("src"),
            &mut paths,
        );
    }
    assert!(paths.len() > 50, "found the sources");
    paths
        .into_iter()
        .map(|p| {
            let text = fs::read_to_string(&p).expect("readable source");
            let rel = p.strip_prefix(root).expect("under the root");
            (rel.to_string_lossy().replace('\\', "/"), text)
        })
        .collect()
}

#[test]
fn each_magic_is_spelt_on_exactly_one_non_test_source_line() {
    let files = crate_sources();
    for magic in ["HRPQ", "HRPE", "HRPP", "HRPS"] {
        let literal = format!("\"{magic}\"");
        let hits: Vec<String> = files
            .iter()
            .flat_map(|(path, text)| {
                // Unit tests sit at the bottom of their file.
                let code = text.split("#[cfg(test)]").next().unwrap_or_default();
                code.lines()
                    .enumerate()
                    .filter(|(_, line)| line.contains(&literal))
                    .map(|(i, _)| format!("{path}:{}", i + 1))
                    .collect::<Vec<_>>()
            })
            .collect();
        assert_eq!(hits.len(), 1, "{literal} is spelt at {hits:?}");
    }
}

#[test]
fn byte_and_spec_plumbing_lives_in_the_codec_module_alone() {
    let plumbing = [
        "get_u32_le",
        "get_f32_le",
        "put_u32_le",
        "put_f32_le",
        "split_once('=')",
    ];
    let files = crate_sources();
    assert!(files.iter().any(|(path, _)| path == CODEC), "codec moved?");
    for (path, text) in &files {
        for pattern in plumbing {
            assert!(
                path == CODEC || !text.contains(pattern),
                "{path} uses {pattern}: go through hrp_nn::serialize instead"
            );
        }
    }
}
