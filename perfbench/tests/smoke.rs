//! Every workload at a tiny size, in both modes, prints every metric that
//! BENCHMARK.json declares for that mode, with its unit, and passes its
//! output checks.
//!
//! Run with `cargo test --release --manifest-path perfbench/Cargo.toml`.

use std::process::Command;

const BENCHMARK: &str = include_str!("../../BENCHMARK.json");

/// The value of `"key": "..."` on `line`, if present.
fn field<'a>(line: &'a str, key: &str) -> Option<&'a str> {
    let rest = line.split_once(&format!("\"{key}\": \""))?.1;
    rest.split_once('"').map(|(v, _)| v)
}

/// `(name, unit)` of every metric in the BENCHMARK.json section `section`.
fn declared(section: &str) -> Vec<(String, String)> {
    let body = BENCHMARK
        .split_once(&format!("\"{section}\": ["))
        .expect("section present")
        .1;
    let body = body.split_once(']').expect("section closed").0;
    body.lines()
        .filter_map(|l| Some((field(l, "name")?.to_string(), field(l, "unit")?.to_string())))
        .collect()
}

fn workloads() -> Vec<String> {
    let body = BENCHMARK.split_once("\"workloads\": [").unwrap().1;
    let body = body.split_once(']').unwrap().0;
    body.lines()
        .filter_map(|l| field(l, "name").map(str::to_string))
        .collect()
}

fn run(workload: &str, trace: &str) -> String {
    let out = Command::new(env!("CARGO_BIN_EXE_aggclust-perfbench"))
        .args(["--workload", workload, "--seed", "7", "--seconds", "0"])
        .args(["--trace", trace, "--tiny"])
        .current_dir(env!("CARGO_TARGET_TMPDIR"))
        .output()
        .expect("benchmark runs");
    assert!(out.status.success(), "{workload} --trace {trace}: {out:?}");
    let stdout = String::from_utf8(out.stdout).expect("utf-8 output");
    stdout.lines().last().expect("a result line").to_string()
}

#[test]
fn every_workload_reports_every_metric_and_passes_its_checks() {
    let names = workloads();
    assert_eq!(names.len(), 4);
    for (trace, section) in [("0", "end_to_end"), ("1", "per_layer")] {
        let metrics = declared(section);
        assert!(!metrics.is_empty());
        for w in &names {
            let line = run(w, trace);
            assert!(
                line.starts_with("{\"correct\": true, ") && line.contains("\"failed\": 0, "),
                "{w} --trace {trace}: {line}"
            );
            for (name, unit) in &metrics {
                let value = line
                    .split_once(&format!("\"{name}\": {{\"value\": "))
                    .unwrap_or_else(|| panic!("{w} --trace {trace}: no {name} in {line}"))
                    .1;
                let (number, rest) = value.split_once(',').expect("value then unit");
                assert!(number.parse::<f64>().is_ok(), "{name}: {number}");
                assert!(
                    rest.starts_with(&format!(" \"unit\": \"{unit}\"}}")),
                    "{w}: {name} unit"
                );
            }
            assert_eq!(
                line.matches("\"unit\":").count(),
                metrics.len(),
                "{w} --trace {trace}: undeclared metrics in {line}"
            );
        }
    }
}

#[test]
fn unknown_workload_is_refused() {
    let out = Command::new(env!("CARGO_BIN_EXE_aggclust-perfbench"))
        .args(["--workload", "no-such-workload"])
        .output()
        .expect("benchmark runs");
    assert_eq!(out.status.code(), Some(2));
    assert!(out.stdout.is_empty());
}
