//! Smoke test: every workload at a tiny size, untraced and traced. Each
//! run must exit 0, report `failed == 0`, and print exactly its metric set
//! with the registry's units; the registry must match `BENCHMARK.json`.

use std::path::{Path, PathBuf};
use std::process::Command;

use arvis_core::json::{self, JsonKind, JsonValue};
use arvis_perfbench::report::{Metric, END_TO_END, PER_LAYER};
use arvis_perfbench::{EXTRA_WORKLOADS, WORKLOADS};

fn repo_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .expect("perfbench sits one level below the repository root")
        .to_path_buf()
}

fn members(v: &JsonValue) -> &[json::Member] {
    match &v.kind {
        JsonKind::Obj(members) => members,
        other => panic!("expected an object, got {other:?}"),
    }
}

fn get<'a>(v: &'a JsonValue, key: &str) -> &'a JsonValue {
    members(v)
        .iter()
        .find(|m| m.key == key)
        .map(|m| &m.value)
        .unwrap_or_else(|| panic!("missing key {key}"))
}

fn names(v: &JsonValue) -> Vec<(String, String)> {
    v.as_array()
        .expect("array")
        .iter()
        .map(|m| {
            let name = get(m, "name").as_str().expect("name").to_string();
            let unit = get(m, "unit").as_str().expect("unit").to_string();
            (name, unit)
        })
        .collect()
}

fn registry(set: &[Metric]) -> Vec<(String, String)> {
    set.iter()
        .map(|m| (m.name.to_string(), m.unit.to_string()))
        .collect()
}

#[test]
fn registry_matches_benchmark_json() {
    let text = std::fs::read_to_string(repo_root().join("BENCHMARK.json")).expect("BENCHMARK.json");
    let spec = json::parse(&text).expect("BENCHMARK.json parses");
    assert_eq!(names(get(&spec, "end_to_end")), registry(END_TO_END));
    assert_eq!(names(get(&spec, "per_layer")), registry(PER_LAYER));
    let workloads: Vec<String> = get(&spec, "workloads")
        .as_array()
        .expect("workloads")
        .iter()
        .map(|w| get(w, "name").as_str().expect("name").to_string())
        .collect();
    assert_eq!(workloads, WORKLOADS);
}

#[test]
fn every_workload_prints_its_metrics_and_passes_its_checks() {
    for workload in WORKLOADS.iter().chain(EXTRA_WORKLOADS) {
        for (trace, set) in [("0", END_TO_END), ("1", PER_LAYER)] {
            let output = Command::new(env!("CARGO_BIN_EXE_arvis-perfbench"))
                .args(["--workload", workload, "--seed", "7", "--seconds", "0.2"])
                .args(["--trace", trace, "--smoke"])
                .arg("--root")
                .arg(repo_root())
                .output()
                .expect("the benchmark binary runs");
            let stdout = String::from_utf8_lossy(&output.stdout);
            assert!(
                output.status.success(),
                "{workload} trace={trace} failed: {}",
                String::from_utf8_lossy(&output.stderr)
            );
            let last = stdout.lines().last().expect("a result line");
            let result = json::parse(last).expect("the result line is JSON");
            let keys: Vec<&str> = members(&result).iter().map(|m| m.key.as_str()).collect();
            assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
            assert!(
                get(&result, "correct").as_bool().expect("bool"),
                "{workload}: {stdout}"
            );
            assert_eq!(
                get(&result, "failed").as_u64().expect("count"),
                0,
                "{workload}"
            );
            assert!(get(&result, "attempted").as_u64().expect("count") >= 1);
            let metrics = get(&result, "metrics");
            let printed: Vec<&str> = members(metrics).iter().map(|m| m.key.as_str()).collect();
            let wanted: Vec<&str> = set.iter().map(|m| m.name).collect();
            assert_eq!(printed, wanted, "{workload} trace={trace}");
            for metric in set {
                let m = get(metrics, metric.name);
                assert_eq!(get(m, "unit").as_str().expect("unit"), metric.unit);
                assert!(get(m, "value").as_f64().expect("number").is_finite());
                if trace == "0" {
                    assert!(
                        get(m, "value").as_f64().expect("number") > 0.0,
                        "{workload}: {} is 0",
                        metric.name
                    );
                }
            }
            assert!(
                stdout.contains("failed_frac"),
                "{workload}: the table prints failed_frac"
            );
        }
    }
}
