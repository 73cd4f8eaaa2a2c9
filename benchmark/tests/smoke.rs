//! End-to-end self-check: every workload at smoke size (20k keys, 2-s
//! run) through the real binary — child server, load, both phases, the
//! kill-and-restart durability check — plus one traced run. Asserts only
//! what must hold on any machine: the run completes, no op fails, and
//! every metric `BENCHMARK.json` names is printed.

use std::process::Command;

fn run(workload: &str, trace: &str) -> String {
    let out = Command::new(env!("CARGO_BIN_EXE_kvbench"))
        .args([
            "--workload",
            workload,
            "--seed",
            "7",
            "--seconds",
            "2",
            "--trace",
            trace,
            "--smoke",
        ])
        .output()
        .expect("spawn kvbench");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(out.status.success(), "{workload}: {stderr}");
    let stdout = String::from_utf8(out.stdout).expect("utf-8");
    let last = stdout.lines().last().unwrap_or_default().to_string();
    assert!(
        last.starts_with("{\"correct\": true, "),
        "{workload}: {last}\n{stderr}"
    );
    assert!(last.contains("\"failed\": 0, "), "{workload}: {last}");
    last
}

/// The `"name": "..."` values inside the JSON array that follows `key`.
fn names_in(json: &str, key: &str) -> Vec<String> {
    let from = json.find(&format!("\"{key}\"")).expect("key present");
    let body = &json[from..];
    let body = &body[..body.find(']').expect("array closes")];
    body.split("\"name\":")
        .skip(1)
        .map(|s| s.split('"').nth(1).expect("quoted name").to_string())
        .collect()
}

#[test]
fn every_workload_runs_clean_and_prints_the_contract_metrics() {
    let contract =
        std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json"))
            .expect("BENCHMARK.json at the repo root");
    let workloads = names_in(&contract, "workloads");
    assert_eq!(workloads.len(), 4);
    for w in &workloads {
        let line = run(w, "0");
        for m in names_in(&contract, "end_to_end") {
            assert!(
                line.contains(&format!("\"{m}\": {{\"value\": ")),
                "{w} lacks {m}: {line}"
            );
        }
    }
    // One traced run is enough to check the per-layer names: every
    // workload prints all of them. The one that writes has the most
    // moving parts (checkpointer, restart).
    let line = run("rw_durable", "1");
    let per_layer = names_in(&contract, "per_layer");
    assert!(per_layer.len() > 30);
    for m in &per_layer {
        assert!(
            line.contains(&format!("\"{m}\": {{\"value\": ")),
            "trace lacks {m}"
        );
    }
    assert_eq!(
        line.matches("\"unit\": ").count(),
        per_layer.len(),
        "the traced run prints a metric BENCHMARK.json does not list"
    );
}

#[test]
fn bad_arguments_fail_without_a_result_line() {
    for args in [&["--workload", "nope"][..], &["--seed"][..], &[][..]] {
        let out = Command::new(env!("CARGO_BIN_EXE_kvbench"))
            .args(args)
            .output()
            .expect("spawn");
        assert!(!out.status.success());
        assert!(out.stdout.is_empty());
    }
}
