//! End-to-end checks: the fixture suite behaves as declared and the real
//! workspace passes clean under the checked-in waiver file. This is the
//! same gate CI's `invariants` job runs via the binary; having it as a
//! cargo test keeps `cargo test --workspace` self-contained.

use std::path::{Path, PathBuf};

use elan_verify::waiver::parse_waivers;
use elan_verify::{apply_waivers, run_all, self_test, Workspace};

fn repo_root() -> PathBuf {
    // crates/elan-verify -> crates -> repo root
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .ancestors()
        .nth(2)
        .expect("manifest dir has two ancestors")
        .to_path_buf()
}

#[test]
fn fixtures_fire_exactly_their_declared_rule() {
    let results = self_test(&repo_root()).expect("fixture suite runs");
    assert!(!results.is_empty(), "fixture suite must not be empty");
    for r in &results {
        assert!(
            r.pass,
            "fixture {} expected {:?} but fired {:?}",
            r.name, r.expected, r.fired
        );
    }
}

#[test]
fn workspace_is_clean_under_checked_in_waivers() {
    let root = repo_root();
    let ws = Workspace::load(&root).expect("workspace loads");
    let mut diags = run_all(&ws).expect("all rules run");
    let waivers = parse_waivers(&root.join("verify-allow.toml")).expect("waiver file parses");
    let applied = apply_waivers(&mut diags, waivers);
    let active: Vec<_> = diags.iter().filter(|d| !d.waived).collect();
    assert!(
        active.is_empty(),
        "workspace has unwaived diagnostics:\n{:#?}",
        active
    );
    let stale: Vec<_> = applied
        .iter()
        .filter(|w| w.used == 0)
        .map(|w| format!("{} @ {} (line {})", w.rule, w.file, w.line))
        .collect();
    assert!(
        stale.is_empty(),
        "stale waivers (no longer match anything): {stale:?}"
    );
}

#[test]
fn known_bad_fixture_is_not_clean() {
    // Guards against the checker rotting into a yes-machine: the seeded
    // lock-cycle fixture must keep producing a diagnostic when run raw.
    let path = repo_root().join("crates/elan-verify/fixtures/lock_cycle.rs");
    let ws = Workspace::load_fixture(&path).expect("fixture loads");
    let diags = run_all(&ws).expect("rules run");
    assert_eq!(diags.len(), 1, "got {diags:?}");
    assert_eq!(diags[0].rule, "LOCK_ORDER_CYCLE");
}

#[test]
fn wire_renumber_fixture_is_caught() {
    // CI's negative control for the wire-format gate: a deliberately
    // renumbered tag must keep producing exactly one WIRE_COMPAT
    // diagnostic when the fixture is run raw.
    let path = repo_root().join("crates/elan-verify/fixtures/wire_tag_renumber.rs");
    let ws = Workspace::load_fixture(&path).expect("fixture loads");
    let diags = run_all(&ws).expect("rules run");
    assert_eq!(diags.len(), 1, "got {diags:?}");
    assert_eq!(diags[0].rule, "WIRE_COMPAT");
    assert!(
        diags[0].message.contains("renumbered or removed"),
        "{}",
        diags[0].message
    );
}

#[test]
fn reachability_diagnostics_print_call_paths() {
    // The path attribution is part of the contract: a transitive finding
    // must name every hop with file:line, not just the sink.
    let path = repo_root().join("crates/elan-verify/fixtures/blocking_under_lock.rs");
    let ws = Workspace::load_fixture(&path).expect("fixture loads");
    let diags = run_all(&ws).expect("rules run");
    assert_eq!(diags.len(), 1, "got {diags:?}");
    let msg = &diags[0].message;
    assert!(msg.contains("`Hub::relay` ("), "missing first hop: {msg}");
    assert!(msg.contains("`Hub::emit` ("), "missing second hop: {msg}");
    assert!(msg.contains("write_all"), "missing sink: {msg}");
}

#[test]
fn committed_codec_surface_is_current() {
    let root = repo_root();
    let ws = Workspace::load(&root).expect("workspace loads");
    let current = elan_verify::rules::wirecompat::surface(&ws).expect("codec surface extracts");
    let committed = std::fs::read_to_string(root.join("codec_surface.txt"))
        .expect("codec_surface.txt is committed at the workspace root");
    assert_eq!(
        committed, current,
        "codec_surface.txt is stale; regenerate with \
         `cargo run -p elan-verify -- --emit-codec-surface > codec_surface.txt`"
    );
}

#[test]
fn every_workspace_diagnostic_is_waived_with_a_reason() {
    let root = repo_root();
    let waivers = parse_waivers(&root.join("verify-allow.toml")).expect("waiver file parses");
    for w in &waivers {
        assert!(
            !w.reason.trim().is_empty(),
            "waiver for {} in {} has an empty reason",
            w.rule,
            w.file
        );
    }
}
