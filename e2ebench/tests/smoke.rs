//! Smoke-sized runs of the benchmark binary: every metric `BENCHMARK.json`
//! names is printed with its unit, and a broken output fails the run.
//!
//! ```sh
//! cargo test --release --manifest-path e2ebench/Cargo.toml
//! ```

use raa_sim::jobs::Json;
use std::process::{Command, Output};

const WORKLOADS: [&str; 2] = ["deep_stream", "sweepd"];

fn run(workload: &str, trace: &str, fault: Option<&str>) -> Output {
    let mut cmd = Command::new(env!("CARGO_BIN_EXE_e2ebench"));
    cmd.current_dir(env!("CARGO_TARGET_TMPDIR")).args([
        "--workload",
        workload,
        "--seed",
        "0",
        "--seconds",
        "1",
        "--trace",
        trace,
        "--smoke",
    ]);
    if let Some(fault) = fault {
        cmd.args(["--fault", fault]);
    }
    cmd.output().expect("the benchmark binary runs")
}

/// The result object: the last line of standard output.
fn result(out: &Output) -> Json {
    let stdout = String::from_utf8_lossy(&out.stdout);
    let last = stdout.lines().last().expect("a result line");
    Json::parse(last).expect("the result line is JSON")
}

/// `(name, unit)` of every metric in one `BENCHMARK.json` list.
fn declared(list: &str) -> Vec<(String, String)> {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json beside the benchmark");
    let spec = Json::parse(&text).expect("BENCHMARK.json is JSON");
    spec.get(list)
        .and_then(Json::as_arr)
        .expect("a metric list")
        .iter()
        .map(|m| {
            let field = |k| {
                m.get(k)
                    .and_then(Json::as_str)
                    .expect("name and unit")
                    .to_string()
            };
            (field("name"), field("unit"))
        })
        .collect()
}

fn assert_prints_every_metric(workload: &str) {
    for (trace, list) in [("0", "end_to_end"), ("1", "per_layer")] {
        let out = run(workload, trace, None);
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(out.status.success(), "{workload} --trace {trace}: {stderr}");
        let result = result(&out);
        assert_eq!(result.get("correct"), Some(&Json::Bool(true)));
        assert_eq!(result.get("failed").and_then(Json::as_f64), Some(0.0));
        assert!(result.get("attempted").and_then(Json::as_f64) >= Some(1.0));
        let Some(Json::Obj(metrics)) = result.get("metrics") else {
            panic!("{workload}: no metrics object");
        };
        let printed: Vec<(String, String)> = metrics
            .iter()
            .map(|(name, m)| {
                assert!(
                    m.get("value")
                        .and_then(Json::as_f64)
                        .is_some_and(f64::is_finite),
                    "{workload}: {name} has no finite value"
                );
                let unit = m.get("unit").and_then(Json::as_str).expect("a unit");
                (name.clone(), unit.to_string())
            })
            .collect();
        assert_eq!(printed, declared(list), "{workload} --trace {trace}");
    }
}

#[test]
fn deep_stream_prints_every_metric_with_its_unit() {
    assert_prints_every_metric("deep_stream");
}

#[test]
fn sweepd_prints_every_metric_with_its_unit() {
    assert_prints_every_metric("sweepd");
}

fn assert_fails(workload: &str, fault: &str, message: &str) {
    let out = run(workload, "0", Some(fault));
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(
        out.status.code(),
        Some(1),
        "{workload} --fault {fault}: {stderr}"
    );
    let result = result(&out);
    assert_eq!(result.get("correct"), Some(&Json::Bool(false)));
    assert!(result.get("failed").and_then(Json::as_f64) >= Some(1.0));
    assert!(
        stderr.contains(message),
        "{workload} --fault {fault}: {stderr}"
    );
}

#[test]
fn a_wrong_expected_anchor_fails_the_run() {
    for workload in WORKLOADS {
        assert_fails(workload, "anchor", "cal: anchors");
    }
    assert_fails(
        "deep_stream",
        "anchor",
        "deep: 14 failures at seed 0, pinned 15",
    );
}

#[test]
fn a_byte_mismatched_record_fails_the_run() {
    assert_fails(
        "deep_stream",
        "record",
        "warm records are not byte-identical",
    );
    assert_fails(
        "sweepd",
        "record",
        "warm query did not return the 8 local records",
    );
}
