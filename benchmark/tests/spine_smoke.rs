//! Smoke test of the whole spine: every workload, untraced and traced,
//! in `--quick` mode (scale 2, 1 s window), against the contract in
//! `BENCHMARK.json`.
//!
//! Run with `cargo test --manifest-path benchmark/Cargo.toml`.

use std::collections::BTreeMap;
use std::process::Command;

use parj_benchmark::json::{self, Value};
use parj_benchmark::metrics::{END_TO_END, PER_LAYER};

const BIN: &str = env!("CARGO_BIN_EXE_parj-bench");
const WORKLOADS: [&str; 4] = ["lubm_scan", "watdiv_serve", "mutate_read", "bulk_load"];

fn contract() -> Value {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    json::parse(&std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root"))
        .expect("BENCHMARK.json parses")
}

/// `(name, unit)` of every entry of a metric list of the contract.
fn listed(contract: &Value, list: &str) -> Vec<(String, String)> {
    contract
        .get(list)
        .and_then(Value::as_arr)
        .unwrap_or_else(|| panic!("BENCHMARK.json has no {list}"))
        .iter()
        .map(|m| {
            let field = |k: &str| {
                m.get(k)
                    .and_then(Value::as_str)
                    .unwrap_or_else(|| panic!("{list} entry without {k}"))
            };
            assert!(matches!(field("better"), "higher" | "lower"));
            (field("name").to_string(), field("unit").to_string())
        })
        .collect()
}

/// Runs one quick workload the way the driver does and parses the last
/// line of its standard output.
fn quick_run(workload: &str, trace: bool) -> Value {
    let out = Command::new(BIN)
        .args([
            "run",
            "--quick",
            "--workload",
            workload,
            "--seed",
            "5",
            "--seconds",
            "1",
        ])
        .args(["--trace", if trace { "1" } else { "0" }])
        .output()
        .expect("parj-bench runs");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        out.status.success(),
        "{workload} trace={trace} exited with {}:\n{}",
        out.status,
        String::from_utf8_lossy(&out.stderr)
    );
    // Every metric is also printed as `name unit value`.
    assert!(stdout
        .lines()
        .any(|l| l.split(' ').count() == 3 && !l.starts_with('{')));
    json::parse(stdout.lines().last().expect("a result line")).expect("the last line is JSON")
}

fn metrics_of(result: &Value) -> BTreeMap<String, (f64, String)> {
    result
        .get("metrics")
        .and_then(Value::as_obj)
        .expect("metrics object")
        .iter()
        .map(|(name, m)| {
            let value = m
                .get("value")
                .and_then(Value::as_f64)
                .unwrap_or_else(|| panic!("{name} has no numeric value"));
            (
                name.clone(),
                (
                    value,
                    m.get("unit")
                        .and_then(Value::as_str)
                        .expect("unit")
                        .to_string(),
                ),
            )
        })
        .collect()
}

#[test]
fn contract_lists_the_catalogue_and_the_workloads() {
    let contract = contract();
    let pairs = |cat: &[(&str, &str)]| {
        cat.iter()
            .map(|(n, u)| (n.to_string(), u.to_string()))
            .collect::<Vec<_>>()
    };
    assert_eq!(listed(&contract, "end_to_end"), pairs(END_TO_END));
    assert_eq!(listed(&contract, "per_layer"), pairs(PER_LAYER));
    assert!(END_TO_END.len() <= 16 && PER_LAYER.len() <= 128);
    let named: Vec<&str> = contract
        .get("workloads")
        .and_then(Value::as_arr)
        .expect("workloads")
        .iter()
        .map(|w| {
            w.get("name")
                .and_then(Value::as_str)
                .expect("workload name")
        })
        .collect();
    assert_eq!(named, WORKLOADS);
    for m in contract
        .get("end_to_end")
        .and_then(Value::as_arr)
        .expect("end_to_end")
    {
        let bound = m.get("bound").and_then(Value::as_f64).expect("bound");
        assert!(bound > 0.0 && bound <= 0.25);
    }
}

#[test]
fn every_workload_emits_exactly_the_contract_metrics() {
    for workload in WORKLOADS {
        for (trace, catalogue) in [(false, END_TO_END), (true, PER_LAYER)] {
            let result = quick_run(workload, trace);
            let keys: Vec<&str> = result
                .as_obj()
                .expect("result object")
                .iter()
                .map(|(k, _)| k.as_str())
                .collect();
            assert_eq!(
                keys,
                ["correct", "attempted", "failed", "metrics"],
                "{workload}"
            );
            assert_eq!(
                result.get("correct"),
                Some(&Value::Bool(true)),
                "{workload} trace={trace}"
            );
            assert_eq!(
                result.get("failed").and_then(Value::as_u64),
                Some(0),
                "{workload} trace={trace}"
            );
            assert!(
                result
                    .get("attempted")
                    .and_then(Value::as_u64)
                    .expect("attempted")
                    >= 1
            );

            let metrics = metrics_of(&result);
            let want: Vec<&str> = catalogue.iter().map(|(n, _)| *n).collect();
            let mut sorted = want.clone();
            sorted.sort_unstable();
            assert_eq!(
                metrics.keys().map(String::as_str).collect::<Vec<_>>(),
                sorted,
                "{workload} trace={trace}"
            );
            for (name, unit) in catalogue {
                let (value, got_unit) = &metrics[*name];
                assert_eq!(got_unit, unit, "{name}");
                assert!(value.is_finite(), "{workload}: {name} = {value}");
                assert!(name
                    .chars()
                    .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)));
                if !trace {
                    assert!(
                        *value > 0.0,
                        "{workload}: end-to-end {name} must never read 0"
                    );
                }
            }
        }
    }
}

#[test]
fn exact_counts_repeat_between_traced_runs() {
    for workload in ["lubm_scan", "mutate_read"] {
        let (a, b) = (
            metrics_of(&quick_run(workload, true)),
            metrics_of(&quick_run(workload, true)),
        );
        for name in [
            "join.sequential_share",
            "join.binary_share",
            "join.index_share",
            "join.group_probes_per_pass",
            "join.words_touched_per_row",
            "join.makespan_ratio",
            "store.compactions",
            "store.delta_resident_pairs_max",
            "store.value_bytes_per_triple",
        ] {
            assert_eq!(
                a[name].0, b[name].0,
                "{workload}: {name} is a count and must repeat exactly"
            );
        }
        assert!(
            a["join.group_probes_per_pass"].0 > 0.0,
            "{workload} probes groups"
        );
    }
}

#[test]
fn traced_runs_show_which_layers_a_workload_reaches() {
    let scan = metrics_of(&quick_run("lubm_scan", true));
    assert!(scan["join.exec_share"].0 > 0.5, "lubm_scan is join-bound");
    assert_eq!(
        scan["server.overhead_p50_us"].0, 0.0,
        "lubm_scan never touches the server"
    );
    assert_eq!(scan["rio.parse_share"].0, 0.0);
    assert!((0.8..=1.2).contains(&scan["trace.coverage"].0));

    let load = metrics_of(&quick_run("bulk_load", true));
    assert_eq!(
        load["join.exec_share"].0, 0.0,
        "bulk_load never runs a join"
    );
    let shares =
        load["rio.parse_share"].0 + load["dict.encode_share"].0 + load["store.build_share"].0;
    assert!(
        shares > 0.8,
        "parse + encode + build are the load: {shares}"
    );
}

#[test]
fn a_debug_build_only_runs_quick() {
    if !cfg!(debug_assertions) {
        return;
    }
    let out = Command::new(BIN)
        .args(["run", "--workload", "lubm_scan", "--seconds", "1"])
        .output()
        .expect("parj-bench runs");
    assert!(!out.status.success(), "a debug build must refuse to time");
    assert!(String::from_utf8_lossy(&out.stderr).contains("debug build"));
    assert!(out.stdout.is_empty(), "and print no result");
}
