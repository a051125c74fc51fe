//! Harness self-test: every workload at a tiny size prints every metric
//! `BENCHMARK.json` names, with its unit, and a deliberately wrong
//! reference is counted as a failure rather than ignored.
//!
//! Run with `cargo test --release --manifest-path perfbench/Cargo.toml`.

use lucid_core::interp::scenario::json::{self, Json};
use std::process::Command;

const WORKLOADS: [&str; 3] = ["compile_apps", "sim_mesh", "serve_session"];

fn field<'a>(j: &'a Json, key: &str) -> &'a Json {
    match j {
        Json::Obj(fields) => fields
            .iter()
            .find(|(k, _)| k == key)
            .map(|(_, v)| v)
            .unwrap_or_else(|| panic!("no `{key}` in {j:?}")),
        other => panic!("expected an object, got {other:?}"),
    }
}

fn num(j: &Json) -> f64 {
    match j {
        Json::Num(n) => *n,
        other => panic!("expected a number, got {other:?}"),
    }
}

fn string(j: &Json) -> &str {
    match j {
        Json::Str(s) => s,
        other => panic!("expected a string, got {other:?}"),
    }
}

/// `(name, unit)` of every metric in one section of `BENCHMARK.json`.
fn declared(section: &str) -> Vec<(String, String)> {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json beside perfbench/");
    let doc = json::parse(&text).expect("BENCHMARK.json parses");
    match field(&doc, section) {
        Json::Arr(items) => items
            .iter()
            .map(|m| {
                (
                    string(field(m, "name")).to_string(),
                    string(field(m, "unit")).to_string(),
                )
            })
            .collect(),
        other => panic!("{section}: expected an array, got {other:?}"),
    }
}

/// Run one tiny workload and parse the result line.
fn run(workload: &str, trace: bool, extra: &[&str]) -> Json {
    let out = Command::new(env!("CARGO_BIN_EXE_perfbench"))
        .args(["--workload", workload, "--seed", "3", "--seconds", "0.2"])
        .args(["--trace", if trace { "1" } else { "0" }, "--tiny"])
        .args(extra)
        .output()
        .expect("benchmark binary runs");
    assert!(
        out.status.success(),
        "{workload}: exit {:?}\n{}",
        out.status,
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8(out.stdout).expect("utf-8 output");
    let last = stdout.lines().last().expect("a result line");
    json::parse(last).unwrap_or_else(|e| panic!("{workload}: bad result line {last}: {e}"))
}

fn assert_emits(result: &Json, names: &[(String, String)], workload: &str) {
    let metrics = field(result, "metrics");
    for (name, unit) in names {
        let m = field(metrics, name);
        assert_eq!(string(field(m, "unit")), unit, "{workload}: unit of {name}");
        assert!(num(field(m, "value")).is_finite(), "{workload}: {name}");
    }
}

#[test]
fn every_workload_emits_every_declared_metric() {
    let end_to_end = declared("end_to_end");
    let per_layer = declared("per_layer");
    for w in WORKLOADS {
        let plain = run(w, false, &[]);
        assert_eq!(field(&plain, "correct"), &Json::Bool(true), "{w}");
        assert_eq!(num(field(&plain, "failed")), 0.0, "{w}");
        assert!(num(field(&plain, "attempted")) >= 1.0, "{w}");
        assert_emits(&plain, &end_to_end, w);
        for (name, _) in &end_to_end {
            let v = num(field(field(field(&plain, "metrics"), name), "value"));
            assert!(v > 0.0, "{w}: end-to-end metric {name} reads {v}");
        }
        let traced = run(w, true, &[]);
        assert_eq!(field(&traced, "correct"), &Json::Bool(true), "{w}");
        assert_emits(&traced, &per_layer, w);
    }
}

#[test]
fn a_wrong_reference_counts_as_failure() {
    for w in WORKLOADS {
        let r = run(w, false, &["--wrong-ref"]);
        assert_eq!(field(&r, "correct"), &Json::Bool(false), "{w}");
        assert!(num(field(&r, "failed")) >= 1.0, "{w}");
    }
}
