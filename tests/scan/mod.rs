//! Source-scan helpers shared by `one_codec.rs` and `one_of_each.rs`.

use std::fs;
use std::path::{Path, PathBuf};

fn collect(dir: &Path, out: &mut Vec<PathBuf>) {
    for entry in fs::read_dir(dir).expect("readable directory") {
        let path = entry.expect("readable entry").path();
        if path.is_dir() {
            collect(&path, out);
        } else if path.extension().is_some_and(|e| e == "rs") {
            out.push(path);
        }
    }
}

/// `(path relative to the repo root, text)` of every `.rs` file under
/// the given root-relative directories.
pub fn rust_sources(dirs: &[String]) -> Vec<(String, String)> {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let mut paths = Vec::new();
    for dir in dirs {
        collect(&root.join(dir), &mut paths);
    }
    paths
        .into_iter()
        .map(|p| {
            let text = fs::read_to_string(&p).expect("readable source");
            let rel = p.strip_prefix(root).expect("under the root");
            (rel.to_string_lossy().replace('\\', "/"), text)
        })
        .collect()
}

/// The `src` directory of every workspace crate, root-relative.
pub fn crate_src_dirs() -> Vec<String> {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let dirs: Vec<String> = fs::read_dir(root.join("crates"))
        .expect("crates directory")
        .map(|krate| {
            let name = krate.expect("readable entry").file_name();
            format!("crates/{}/src", name.to_string_lossy())
        })
        .collect();
    assert!(dirs.len() >= 8, "found the crates");
    dirs
}

/// The lines of `text` outside comments (doc examples included) and
/// test modules (`#[cfg(test)] mod ..`: they sit at the bottom of their
/// file, or are a fixture module of their own), numbered from 1.
pub fn non_test_lines(text: &str) -> impl Iterator<Item = (usize, &str)> {
    let tests = ["#[cfg(test)]\nmod ", "#[cfg(test)]\npub(crate) mod "]
        .iter()
        .filter_map(|marker| text.find(marker))
        .min()
        .unwrap_or(text.len());
    text[..tests]
        .lines()
        .enumerate()
        .filter(|(_, line)| !line.trim_start().starts_with("//"))
        .map(|(i, line)| (i + 1, line))
}

/// `path:line` of every line of `text` that contains `pattern`, outside
/// comments and test modules ([`non_test_lines`]).
pub fn non_test_hits(path: &str, text: &str, pattern: &str) -> Vec<String> {
    non_test_lines(text)
        .filter(|(_, line)| line.contains(pattern))
        .map(|(i, _)| format!("{path}:{i}"))
        .collect()
}
