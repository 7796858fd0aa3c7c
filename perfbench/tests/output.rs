//! Runs the benchmark binary briefly on every workload, untraced and
//! traced, and checks the result line against `BENCHMARK.json`: every
//! metric by name with its unit, nothing else, outputs correct. On
//! `bulk-infer` the traced ledger must account for the wall time within
//! the stated residual.

use dtdinfer_perfbench::ledger::RESIDUAL_PCT;
use std::path::Path;
use std::process::Command;

/// `(name, unit)` of every metric in one section of `BENCHMARK.json`.
fn listed(section: &str) -> Vec<(String, String)> {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    let text = std::fs::read_to_string(&path).expect("BENCHMARK.json at the repository root");
    let start = text
        .find(&format!("\"{section}\""))
        .expect("section present");
    let body = &text[start..];
    let body = &body[..body.find(']').expect("section is a list")];
    body.lines()
        .filter(|l| l.contains("\"unit\""))
        .map(|l| (string_field(l, "name"), string_field(l, "unit")))
        .collect()
}

fn string_field(line: &str, key: &str) -> String {
    let at = line.find(&format!("\"{key}\": \"")).expect("field") + key.len() + 5;
    line[at..at + line[at..].find('"').expect("closing quote")].to_owned()
}

/// Runs one workload for one second and returns the last stdout line.
fn run(workload: &str, trace: u8) -> String {
    let dir = Path::new(env!("CARGO_TARGET_TMPDIR")).join(format!("{workload}-{trace}"));
    std::fs::create_dir_all(&dir).unwrap();
    let out = Command::new(env!("CARGO_BIN_EXE_dtdinfer-perfbench"))
        .args(["--workload", workload, "--seed", "5", "--seconds", "1"])
        .args(["--trace", &trace.to_string()])
        .current_dir(&dir)
        .output()
        .expect("benchmark runs");
    assert!(
        out.status.success(),
        "{workload}: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert!(
        std::fs::read_dir(&dir).unwrap().next().is_none(),
        "the run leaves no files behind"
    );
    let stdout = String::from_utf8(out.stdout).unwrap();
    assert!(stdout.starts_with("{\"fingerprint\": "), "{stdout}");
    stdout.lines().last().unwrap().to_owned()
}

/// The value of metric `name` in a result line.
fn value(line: &str, name: &str) -> f64 {
    let key = format!("\"{name}\": {{\"value\": ");
    let at = line.find(&key).unwrap_or_else(|| panic!("{name} missing")) + key.len();
    let rest = &line[at..];
    rest[..rest.find(',').unwrap()].parse().unwrap()
}

fn check(workload: &str) {
    for (trace, section) in [(0, "end_to_end"), (1, "per_layer")] {
        let line = run(workload, trace);
        assert!(
            line.starts_with("{\"correct\": true, \"attempted\": "),
            "{workload}: {line}"
        );
        assert!(line.contains("\"failed\": 0,"), "{workload}: {line}");
        let metrics = listed(section);
        assert_eq!(
            line.matches("\"unit\": ").count(),
            metrics.len(),
            "{workload} trace {trace} prints exactly the listed metrics: {line}"
        );
        for (name, unit) in &metrics {
            let at = line
                .find(&format!("\"{name}\": {{\"value\": "))
                .unwrap_or_else(|| panic!("{workload} trace {trace}: {name} missing"));
            let tail = &line[at..];
            let entry = &tail[..tail.find('}').unwrap()];
            assert!(
                entry.ends_with(&format!("\"unit\": \"{unit}\"")),
                "{workload}: {name} has the wrong unit: {entry}"
            );
            assert!(value(&line, name).is_finite());
        }
        if trace == 1 && workload == "bulk-infer" {
            let residual = value(&line, "ledger.unattributed_pct");
            assert!(
                residual.abs() <= RESIDUAL_PCT,
                "layer self times leave {residual}% of the traced wall time unattributed"
            );
        }
    }
}

#[test]
fn bulk_infer_prints_every_metric() {
    check("bulk-infer");
}

#[test]
fn wide_warm_start_prints_every_metric() {
    check("wide-warm-start");
}

#[test]
fn unknown_workload_fails_without_a_result() {
    let out = Command::new(env!("CARGO_BIN_EXE_dtdinfer-perfbench"))
        .args([
            "--workload",
            "nope",
            "--seed",
            "1",
            "--seconds",
            "1",
            "--trace",
            "0",
        ])
        .output()
        .unwrap();
    assert!(!out.status.success());
    assert!(out.stdout.is_empty());
}
