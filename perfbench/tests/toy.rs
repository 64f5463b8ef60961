//! The benchmark's own checks, on toy-sized inputs: every workload prints
//! each metric `BENCHMARK.json` names, with its unit, and a deliberately
//! corrupted output fails the run.

use std::collections::BTreeSet;
use std::path::{Path, PathBuf};
use std::process::Command;
use std::sync::OnceLock;

use aq_serve::Json;

const WORKLOADS: [&str; 3] = ["grover", "gse", "serve"];

/// `aq-served`, built next to the harness in the same profile.
fn server() -> &'static Path {
    static BUILT: OnceLock<PathBuf> = OnceLock::new();
    BUILT.get_or_init(|| {
        let manifest = Path::new(env!("CARGO_MANIFEST_DIR")).join("Cargo.toml");
        let mut cargo = Command::new(env!("CARGO"));
        cargo.args([
            "build",
            "--offline",
            "--quiet",
            "-p",
            "aq-serve",
            "--bin",
            "aq-served",
        ]);
        if !cfg!(debug_assertions) {
            cargo.arg("--release");
        }
        let status = cargo
            .arg("--manifest-path")
            .arg(manifest)
            .status()
            .expect("cargo runs");
        assert!(status.success(), "building aq-served failed");
        Path::new(env!("CARGO_BIN_EXE_perfbench")).with_file_name("aq-served")
    })
}

/// Runs one toy-sized workload; returns the exit code and the result line.
fn run(workload: &str, trace: bool, corrupt: bool) -> (i32, Json) {
    let out = Path::new(env!("CARGO_TARGET_TMPDIR")).join(format!("{workload}-{trace}-{corrupt}"));
    let mut cmd = Command::new(env!("CARGO_BIN_EXE_perfbench"));
    cmd.args([
        "--workload",
        workload,
        "--seed",
        "7",
        "--seconds",
        "1",
        "--toy",
    ])
    .args(["--trace", if trace { "1" } else { "0" }])
    .arg("--out")
    .arg(&out)
    .arg("--server")
    .arg(server());
    if corrupt {
        cmd.arg("--corrupt");
    }
    let output = cmd.output().expect("the harness runs");
    let stdout = String::from_utf8(output.stdout).expect("UTF-8 output");
    let last = stdout.lines().last().unwrap_or_default();
    let result =
        Json::parse(last).unwrap_or_else(|e| panic!("{workload}: bad result line {last:?}: {e}"));
    (output.status.code().unwrap_or(-1), result)
}

/// `(name, unit)` of every metric in one list of `BENCHMARK.json`.
fn declared(list: &str) -> Vec<(String, String)> {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    let text = std::fs::read_to_string(&path).expect("BENCHMARK.json is readable");
    let json = Json::parse(&text).expect("BENCHMARK.json parses");
    let Some(Json::Arr(metrics)) = json.get(list) else {
        panic!("BENCHMARK.json has no `{list}` list");
    };
    metrics
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

fn metric_unit<'a>(result: &'a Json, name: &str) -> Option<&'a str> {
    let m = result.get("metrics")?.get(name)?;
    m.get("value")?.as_f64()?;
    m.get("unit")?.as_str()
}

fn printed(result: &Json) -> Vec<String> {
    match result.get("metrics") {
        Some(Json::Obj(members)) => members.iter().map(|(k, _)| k.clone()).collect(),
        _ => Vec::new(),
    }
}

fn assert_passed(workload: &str, code: i32, result: &Json) {
    assert_eq!(code, 0, "{workload}: {}", result.render());
    assert_eq!(
        result.get("correct").and_then(Json::as_bool),
        Some(true),
        "{workload}"
    );
    assert!(
        result.get("attempted").and_then(Json::as_u64).unwrap_or(0) >= 1,
        "{workload}"
    );
    assert_eq!(
        result.get("failed").and_then(Json::as_u64),
        Some(0),
        "{workload}"
    );
}

#[test]
fn every_workload_prints_each_end_to_end_metric_with_its_unit() {
    let e2e = declared("end_to_end");
    for workload in WORKLOADS {
        let (code, result) = run(workload, false, false);
        assert_passed(workload, code, &result);
        assert_eq!(
            printed(&result).len(),
            e2e.len(),
            "{workload}: {}",
            result.render()
        );
        for (name, unit) in &e2e {
            assert_eq!(
                metric_unit(&result, name),
                Some(unit.as_str()),
                "{workload}: {name}"
            );
        }
    }
}

#[test]
fn every_traced_run_prints_each_per_layer_metric_with_its_unit() {
    let layers = declared("per_layer");
    for workload in WORKLOADS {
        let (code, result) = run(workload, true, false);
        assert_passed(workload, code, &result);
        let names: BTreeSet<String> = printed(&result).into_iter().collect();
        assert_eq!(names.len(), layers.len(), "{workload}: {}", result.render());
        for (name, unit) in &layers {
            assert_eq!(
                metric_unit(&result, name),
                Some(unit.as_str()),
                "{workload}: {name}"
            );
        }
    }
}

#[test]
fn a_corrupted_output_fails_the_run() {
    for workload in WORKLOADS {
        let (code, result) = run(workload, false, true);
        assert_eq!(code, 1, "{workload}: {}", result.render());
        assert_eq!(
            result.get("correct").and_then(Json::as_bool),
            Some(false),
            "{workload}"
        );
        assert!(
            result.get("failed").and_then(Json::as_u64).unwrap_or(0) >= 1,
            "{workload}"
        );
    }
}
