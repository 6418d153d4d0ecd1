//! Pins the crate's unsafe surface: `simd/x86.rs` holds three vector loads
//! (each on a slice that is `LANES` long by construction; the f32
//! prefilter's packed columns go through the same ones) and three
//! feature-probed tier entries, and nothing under `src/` offsets a raw
//! pointer or indexes unchecked — a load's bound is a slice's, checked in
//! release builds (`a_load_past_the_last_full_group_panics_at_every_tier`).
// Panicking is idiomatic in test code; see clippy.toml.
#![allow(clippy::unwrap_used, clippy::expect_used)]

use std::path::Path;

#[test]
fn x86_holds_six_unsafe_blocks_outside_its_tests() {
    let kernel = include_str!("../src/simd/x86.rs");
    let (live, _tests) = kernel.split_once("#[cfg(test)]\nmod tests {").unwrap();
    assert_eq!(live.matches("unsafe {").count(), 6);
}

#[test]
fn no_source_file_offsets_a_raw_pointer_or_indexes_unchecked() {
    fn walk(dir: &Path, hits: &mut Vec<String>) {
        for entry in std::fs::read_dir(dir).unwrap() {
            let path = entry.unwrap().path();
            if path.is_dir() {
                walk(&path, hits);
            } else if path.extension().is_some_and(|e| e == "rs") {
                let text = std::fs::read_to_string(&path).unwrap();
                for needle in ["as_ptr().add", "get_unchecked", "// BOUND:"] {
                    if text.contains(needle) {
                        hits.push(format!("{}: {needle}", path.display()));
                    }
                }
            }
        }
    }
    let mut hits = Vec::new();
    walk(
        &Path::new(env!("CARGO_MANIFEST_DIR")).join("src"),
        &mut hits,
    );
    assert!(hits.is_empty(), "{hits:#?}");
}
