//! Runs the built harness at smoke size and holds its output against
//! `BENCHMARK.json`: every workload runs with no failed op, every run
//! reports exactly the metrics the contract names for its mode, every
//! end-to-end value is non-zero, and every per-layer metric is measured
//! by at least one workload.

use std::collections::BTreeMap;
use std::path::Path;
use std::process::Command;

use ntg_explore::Json;

fn contract() -> Json {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    Json::parse(&std::fs::read_to_string(path).expect("BENCHMARK.json at the repo root"))
        .expect("BENCHMARK.json parses")
}

/// The names under `key`, sorted (the order a `BTreeMap` lists them in).
fn names(contract: &Json, key: &str) -> Vec<String> {
    let Some(Json::Arr(items)) = contract.get(key) else {
        panic!("BENCHMARK.json has no list `{key}`");
    };
    let name = |m: &Json| {
        m.get("name")
            .and_then(Json::as_str)
            .expect("a name")
            .to_string()
    };
    let mut names: Vec<String> = items.iter().map(name).collect();
    names.sort();
    names
}

/// One smoke run; returns the metrics of its result object.
fn smoke(workload: &str, trace: bool) -> BTreeMap<String, f64> {
    let out = Command::new(env!("CARGO_BIN_EXE_ntg-benchmark"))
        .args(["--smoke", "--workload", workload, "--seed", "3"])
        .args(["--trace", if trace { "1" } else { "0" }])
        .output()
        .expect("run the harness");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        out.status.success(),
        "{workload} trace={trace} failed:\n{stdout}\n{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let result = Json::parse(stdout.lines().last().expect("a result line")).expect("result JSON");
    let Json::Obj(fields) = &result else {
        panic!("result is not an object");
    };
    let keys: Vec<&str> = fields.iter().map(|f| f.0.as_str()).collect();
    assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
    assert_eq!(result.get("correct").and_then(Json::as_bool), Some(true));
    assert_eq!(result.get("failed").and_then(Json::as_u64), Some(0));
    assert!(result.get("attempted").and_then(Json::as_u64).unwrap() >= 1);
    let Some(Json::Obj(metrics)) = result.get("metrics") else {
        panic!("no metrics object");
    };
    metrics
        .iter()
        .map(|(name, m)| {
            assert!(
                m.get("unit").and_then(Json::as_str).is_some(),
                "{name} has no unit"
            );
            let value = m.get("value").and_then(Json::as_f64);
            (
                name.clone(),
                value.unwrap_or_else(|| panic!("{name} has no value")),
            )
        })
        .collect()
}

#[test]
fn every_named_workload_and_metric_is_emitted() {
    let contract = contract();
    let workloads = names(&contract, "workloads");
    let end_to_end = names(&contract, "end_to_end");
    let per_layer = names(&contract, "per_layer");
    let mut measured: BTreeMap<String, usize> = BTreeMap::new();
    for w in &workloads {
        let e2e = smoke(w, false);
        assert_eq!(
            e2e.keys().cloned().collect::<Vec<_>>(),
            end_to_end,
            "{w}: untraced run reports exactly the end-to-end metrics"
        );
        for (name, v) in &e2e {
            assert!(*v > 0.0 && v.is_finite(), "{w}: {name} = {v}");
        }
        let layers = smoke(w, true);
        assert_eq!(
            layers.keys().cloned().collect::<Vec<_>>(),
            per_layer,
            "{w}: traced run reports exactly the per-layer metrics"
        );
        for (name, v) in layers {
            assert!(v.is_finite(), "{w}: {name} = {v}");
            if v != 0.0 {
                *measured.entry(name).or_default() += 1;
            }
        }
        let trace_file = Path::new(env!("CARGO_MANIFEST_DIR")).join(format!("out/trace-{w}.json"));
        let spans = Json::parse(&std::fs::read_to_string(trace_file).expect("span file written"));
        assert!(spans.is_ok_and(|s| matches!(s.get("spans"), Some(Json::Arr(v)) if !v.is_empty())));
    }
    // Exact zero is a legitimate reading for these two on a healthy run.
    let may_be_zero = ["serve.remote_errors", "trace_overhead_pct"];
    for name in &per_layer {
        assert!(
            measured.contains_key(name) || may_be_zero.contains(&name.as_str()),
            "no workload measured `{name}`"
        );
    }
}

#[test]
fn an_unknown_workload_is_refused() {
    let out = Command::new(env!("CARGO_BIN_EXE_ntg-benchmark"))
        .args(["--workload", "nope", "--smoke"])
        .output()
        .expect("run the harness");
    assert!(!out.status.success());
    assert!(out.stdout.is_empty(), "no result line for a refused run");
}
