//! Runs every workload briefly, untraced and traced, and checks that the
//! result line names each metric of `BENCHMARK.json` with its unit.
//!
//! Run with `cargo test --release --manifest-path livebench/Cargo.toml`;
//! a debug build trains the 1 Mi-element workload far too slowly.

use std::path::{Path, PathBuf};
use std::process::Command;

fn repo_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .expect("livebench sits inside the repository")
        .to_path_buf()
}

/// The JSON array that follows `"key":` in `text`, brackets included.
fn array_after<'a>(text: &'a str, key: &str) -> &'a str {
    let at = text
        .find(&format!("\"{key}\""))
        .unwrap_or_else(|| panic!("BENCHMARK.json has no {key}"));
    let open = at + text[at..].find('[').expect("array opens");
    let mut depth = 0;
    for (i, c) in text[open..].char_indices() {
        match c {
            '[' => depth += 1,
            ']' => {
                depth -= 1;
                if depth == 0 {
                    return &text[open..=open + i];
                }
            }
            _ => {}
        }
    }
    panic!("unterminated {key} array");
}

/// The string value of `"field": "..."` in one JSON object's text.
fn field(object: &str, name: &str) -> Option<String> {
    let at = object.find(&format!("\"{name}\""))?;
    let rest = &object[at + name.len() + 2..];
    let start = rest.find('"')? + 1;
    let len = rest[start..].find('"')?;
    Some(rest[start..start + len].to_string())
}

/// `(name, unit)` of every metric object in `section`, or the names of
/// the workloads when `unit` is absent.
fn entries(section: &str, with_unit: bool) -> Vec<(String, String)> {
    section
        .split('{')
        .skip(1)
        .filter_map(|obj| {
            let name = field(obj, "name")?;
            let unit = if with_unit {
                field(obj, "unit")?
            } else {
                String::new()
            };
            Some((name, unit))
        })
        .collect()
}

fn run(workload: &str, trace: u8) -> String {
    let out = Command::new(env!("CARGO_BIN_EXE_livebench"))
        .current_dir(repo_root())
        .args(["--workload", workload, "--seed", "7", "--seconds", "1"])
        .args(["--trace", &trace.to_string()])
        .output()
        .expect("run livebench");
    assert!(out.status.success(), "{workload}: exit {:?}", out.status);
    let stdout = String::from_utf8(out.stdout).expect("utf-8 output");
    stdout.lines().last().expect("a result line").to_string()
}

#[test]
fn every_workload_prints_every_metric_with_its_unit() {
    let spec =
        std::fs::read_to_string(repo_root().join("BENCHMARK.json")).expect("read BENCHMARK.json");
    let end_to_end = entries(array_after(&spec, "end_to_end"), true);
    let per_layer = entries(array_after(&spec, "per_layer"), true);
    let mut workloads: Vec<String> = entries(array_after(&spec, "workloads"), false)
        .into_iter()
        .map(|(n, _)| n)
        .collect();
    assert!(!end_to_end.is_empty() && !per_layer.is_empty() && workloads.len() >= 2);
    // Runnable but left out of BENCHMARK.json (see livebench/README.md).
    workloads.push("uds-1k".into());
    for workload in &workloads {
        for (trace, metrics) in [(0, &end_to_end), (1, &per_layer)] {
            let result = run(workload, trace);
            for key in [
                "\"correct\":",
                "\"attempted\":",
                "\"failed\":",
                "\"metrics\":",
            ] {
                assert!(result.contains(key), "{workload}: no {key} in {result}");
            }
            for (name, unit) in metrics.iter() {
                let entry = format!("\"{name}\":{{\"value\":");
                let at = result
                    .find(&entry)
                    .unwrap_or_else(|| panic!("{workload} trace {trace}: no {name}"));
                let tail = &result[at..];
                let object = &tail[..tail.find('}').expect("metric object closes")];
                assert_eq!(
                    field(object, "unit").as_deref(),
                    Some(unit.as_str()),
                    "{workload}: unit of {name}"
                );
            }
        }
    }
}
