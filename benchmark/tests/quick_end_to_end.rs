//! The whole harness against the real `hdsj`, on the quick profile: both
//! passes of one workload must come back correct and report exactly the
//! declared metrics on the last line.
//!
//! Needs `<target>/release/hdsj` beside this test's target directory (any
//! benchmark run leaves it there); without it the test says so and passes,
//! because building the whole repository is not a unit test's job.

use std::path::Path;
use std::process::Command;

/// Names between `"metrics":{` and the end, without a JSON reader: every
/// metric object is `"name":{"value":…,"unit":"…"}`.
fn metric_names(last_line: &str) -> Vec<String> {
    let metrics = last_line.split_once("\"metrics\":{").map_or("", |(_, m)| m);
    // Each name ends the chunk before its `":{"value":`; the last chunk has
    // none.
    let mut chunks: Vec<&str> = metrics.split("\":{\"value\":").collect();
    chunks.pop();
    chunks
        .iter()
        .filter_map(|chunk| chunk.rsplit_once('"').map(|(_, name)| name.to_string()))
        .collect()
}

#[test]
fn quick_profile_runs_both_passes_correctly() {
    let harness = Path::new(env!("CARGO_BIN_EXE_hdsj-benchmark"));
    let target = harness.parent().and_then(Path::parent).unwrap();
    if !target.join("release").join("hdsj").is_file() {
        eprintln!(
            "skipped: no {}/release/hdsj; run the benchmark once to build it",
            target.display()
        );
        return;
    }
    let manifest =
        std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json"))
            .unwrap();
    for (trace, section, other) in [
        ("0", "\"end_to_end\"", Some("\"per_layer\"")),
        ("1", "\"per_layer\"", None),
    ] {
        let out = Command::new(harness)
            .args([
                "--quick",
                "--workload",
                "lowdim_d4",
                "--seed",
                "1",
                "--seconds",
                "1",
                "--trace",
                trace,
            ])
            .output()
            .unwrap();
        let stdout = String::from_utf8_lossy(&out.stdout);
        assert!(
            out.status.success(),
            "trace {trace}: {}\n{stdout}",
            String::from_utf8_lossy(&out.stderr)
        );
        assert!(
            stdout.contains("QUICK PROFILE"),
            "the quick profile must be labelled"
        );
        let last = stdout.lines().last().unwrap();
        assert!(
            last.starts_with("{\"correct\":true,\"attempted\":"),
            "{last}"
        );
        assert!(last.contains("\"failed\":0,"), "{last}");

        // The names `BENCHMARK.json` declares in this pass's section, in order.
        let declared = manifest.split_once(section).unwrap().1;
        let declared = other
            .and_then(|next| declared.split_once(next))
            .map_or(declared, |(d, _)| d);
        let declared: Vec<String> = declared
            .split("\"name\": \"")
            .skip(1)
            .map(|c| c.split_once('"').unwrap().0.to_string())
            .collect();
        assert!(declared.len() >= 5);
        assert_eq!(metric_names(last), declared, "trace {trace}");
    }
    let results =
        std::fs::read_to_string(target.join("benchmark").join("results.json")).unwrap();
    assert!(
        results.contains("\"profile\": \"quick\"") && results.contains("\"comparable\": false")
    );
    assert!(
        results.contains("\"grid.probe_s\""),
        "lowdim_d4 runs all six algorithms"
    );
    assert!(target.join("benchmark").join("trace.json").is_file());
}
