//! There is one checkpoint codec, and this scan keeps it one.
//!
//! `hrp-nn::serialize` is the only module that knows the container
//! (`magic | version | payload`), the `key=value` spec grammar, and how
//! to read or write a primitive. A second copy of any of those would
//! first show up as one of the patterns below in some other
//! `crates/*/src` file — so each format's magic may be spelt on exactly
//! one non-test source line (the constant its module hands the codec),
//! and the raw little-endian accessors of the `bytes` crate (which
//! panic on underrun) and the spec's line split may appear nowhere but
//! the codec module. Blobs are plain `Vec<u8>`, and no crate grows a
//! cursor or builder (`Buf`, `BufMut`, `BytesMut`, `split_to`) beside
//! the codec.

mod scan;
use scan::{crate_src_dirs, non_test_hits, rust_sources};

/// The one module allowed to do byte plumbing.
const CODEC: &str = "crates/nn/src/serialize.rs";

/// `(path relative to the repo root, text)` of every `crates/*/src` file.
fn crate_sources() -> Vec<(String, String)> {
    let files = rust_sources(&crate_src_dirs());
    assert!(files.len() > 50, "found the sources");
    files
}

#[test]
fn each_magic_is_spelt_on_exactly_one_non_test_source_line() {
    let files = crate_sources();
    for magic in ["HRPQ", "HRPE", "HRPP", "HRPS"] {
        let literal = format!("\"{magic}\"");
        let hits: Vec<String> = files
            .iter()
            .flat_map(|(path, text)| non_test_hits(path, text, &literal))
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

#[test]
fn the_bytes_stand_in_stays_an_immutable_buffer() {
    for (path, text) in rust_sources(&crate_src_dirs()) {
        for gone in ["BytesMut", "BufMut", "trait Buf", "bytes::Buf", "split_to("] {
            assert!(
                !text.contains(gone),
                "{path} brings back {gone}: read and write through hrp_nn::serialize"
            );
        }
    }
}
