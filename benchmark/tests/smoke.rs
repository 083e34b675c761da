//! Runs every workload for a second and holds the output to the contract:
//! the names in `BENCHMARK.json` are the names in `src/names.rs`, each is
//! printed exactly once with its unit and a finite value, and a seed
//! reproduces the counts.

#[path = "../src/names.rs"]
#[allow(dead_code)]
mod names;

use names::{MetricDef, END_TO_END, PER_LAYER, WORKLOADS};
use serde_json::Value;
use std::path::Path;
use std::process::Command;

fn repo_root() -> &'static Path {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .expect("the package sits in the repository")
}

fn benchmark_json() -> Value {
    let text = std::fs::read_to_string(repo_root().join("BENCHMARK.json"))
        .expect("BENCHMARK.json is at the root");
    serde_json::from_str(&text).expect("BENCHMARK.json parses")
}

/// One run from the repository root; returns the raw result line.
fn run(workload: &str, trace: bool) -> String {
    let out = Command::new(env!("CARGO_BIN_EXE_webml-benchmark"))
        .current_dir(repo_root())
        .args([
            "--workload",
            workload,
            "--seed",
            "7",
            "--seconds",
            "1",
            "--trace",
            if trace { "1" } else { "0" },
        ])
        .output()
        .expect("the benchmark starts");
    assert!(
        out.status.success(),
        "{workload} exited with {:?}: {}",
        out.status,
        String::from_utf8_lossy(&out.stderr)
    );
    String::from_utf8(out.stdout)
        .expect("utf-8 output")
        .lines()
        .last()
        .expect("a result line")
        .to_string()
}

fn check_line(workload: &str, line: &str, defs: &[MetricDef]) -> Value {
    let result: Value = serde_json::from_str(line).expect("the last line is JSON");
    assert_eq!(
        result["correct"].as_bool(),
        Some(true),
        "{workload}: {line}"
    );
    assert_eq!(result["failed"].as_u64(), Some(0), "{workload}: {line}");
    assert!(
        result["attempted"]
            .as_u64()
            .expect("attempted is a whole number")
            >= 1
    );
    let printed = result["metrics"]
        .as_object_entries()
        .expect("metrics is an object");
    assert_eq!(
        printed.len(),
        defs.len(),
        "{workload}: prints the declared metrics and no others"
    );
    for def in defs {
        assert_eq!(
            line.matches(&format!("\"{}\":", def.name)).count(),
            1,
            "{workload}: {} printed once",
            def.name
        );
        let metric = &result["metrics"][def.name];
        assert_eq!(
            metric["unit"].as_str(),
            Some(def.unit),
            "{workload}: unit of {}",
            def.name
        );
        assert!(
            metric["value"].as_f64().is_some_and(f64::is_finite),
            "{workload}: {} is finite",
            def.name
        );
    }
    result
}

#[test]
fn benchmark_json_repeats_the_name_table() {
    let file = benchmark_json();
    let listed = |key: &str, field: &str| -> Vec<String> {
        file[key]
            .as_array()
            .expect(key)
            .iter()
            .map(|m| m[field].as_str().expect(field).to_string())
            .collect()
    };
    let workloads: Vec<&str> = WORKLOADS.iter().map(|(name, _)| *name).collect();
    assert_eq!(listed("workloads", "name"), workloads);
    let reasons: Vec<&str> = WORKLOADS.iter().map(|(_, why)| *why).collect();
    assert_eq!(listed("workloads", "why"), reasons);
    for (key, defs) in [
        ("end_to_end", &END_TO_END[..]),
        ("per_layer", &PER_LAYER[..]),
    ] {
        assert_eq!(
            listed(key, "name"),
            defs.iter().map(|d| d.name).collect::<Vec<_>>(),
            "{key} names"
        );
        assert_eq!(
            listed(key, "unit"),
            defs.iter().map(|d| d.unit).collect::<Vec<_>>(),
            "{key} units"
        );
        assert_eq!(
            listed(key, "better"),
            defs.iter().map(|d| d.better.as_str()).collect::<Vec<_>>(),
            "{key} directions"
        );
    }
    assert!(END_TO_END
        .iter()
        .any(|d| d.name == "setup_s" && d.unit == "s"));
}

#[test]
fn names_fit_the_contract() {
    let names = WORKLOADS
        .iter()
        .map(|(n, _)| *n)
        .chain(END_TO_END.iter().chain(&PER_LAYER).map(|d| d.name));
    let mut seen = std::collections::BTreeSet::new();
    for name in names {
        assert!(
            name.len() <= 64 && name.starts_with(|c: char| c.is_ascii_alphanumeric()),
            "{name}"
        );
        assert!(
            name.chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)),
            "{name}"
        );
        assert!(seen.insert(name), "{name} is used twice");
    }
    assert!(WORKLOADS
        .iter()
        .all(|(_, why)| why.len() <= 200 && !why.contains('\n')));
    assert!(PER_LAYER.len() <= 128);
}

#[test]
fn every_workload_prints_every_metric_and_a_seed_repeats_the_counts() {
    for (workload, _) in WORKLOADS {
        let first = check_line(workload, &run(workload, false), &END_TO_END);
        let second = check_line(workload, &run(workload, false), &END_TO_END);
        for end_to_end in [&first, &second] {
            for def in &END_TO_END {
                assert!(
                    end_to_end["metrics"][def.name]["value"].as_f64() > Some(0.0),
                    "{workload}: {} is never 0",
                    def.name
                );
            }
        }
        assert_eq!(
            first["metrics"]["peak_bytes"], second["metrics"]["peak_bytes"],
            "{workload}: peak_bytes repeats"
        );

        let layers = check_line(workload, &run(workload, true), &PER_LAYER);
        let value = |name: &str| layers["metrics"][name]["value"].as_f64().expect(name);
        assert_eq!(value("failed_share"), 0.0, "{workload}");
        assert_eq!(value("leaked_tensors"), 0.0, "{workload}");
        // A workload must not touch the layers it claims to bypass.
        let sims = value("webgl-sim.programs_per_op") + value("webgpu-sim.dispatches_per_op");
        let serve = value("serve.submit_ms_per_op");
        match workload {
            "train_native" => {
                assert!(sims == 0.0 && serve == 0.0 && value("converter.execute_ms_per_op") == 0.0)
            }
            "serve_fleet" => assert!(serve > 0.0 && value("serve.accounting_gap") == 0.0),
            _ => assert!(sims > 0.0 && serve == 0.0),
        }
        let trace = repo_root().join(format!("benchmark/out/trace-{workload}.json"));
        let spans: Value =
            serde_json::from_str(&std::fs::read_to_string(trace).expect("trace file"))
                .expect("trace parses");
        assert!(!spans.as_array().expect("an array of spans").is_empty());
    }
}
