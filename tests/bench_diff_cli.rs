//! `prox bench diff` through the binary: the exit codes the regression
//! gate promises (0 equal, 1 differs, 2 not comparable) and the report it
//! writes, starting from the committed `reports/manifest_chaos.json`.
//!
//! Every input and every `--out` report lives in a per-test temp
//! directory; nothing is written under `reports/`.

// Harness helpers outside #[test] fns still panic on broken setup.
#![allow(clippy::expect_used)]

use std::fs;
use std::process::Command;

use prox::obs::Json;

const COMMITTED: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/reports/manifest_chaos.json");

fn committed() -> Json {
    let body = fs::read_to_string(COMMITTED).expect("committed chaos manifest");
    Json::parse(&body).expect("committed manifest is JSON")
}

/// The committed manifest with `key` of the top-level object `section`
/// set to `value`.
fn edited(section: &str, key: &str, value: impl Into<Json>) -> Json {
    let mut manifest = committed();
    let mut inner = manifest.get(section).cloned().expect("section present");
    inner.set(key, value);
    manifest.set(section, inner);
    manifest
}

/// What the gate compares a byte copy of the committed manifest with.
enum Current {
    /// The copy itself.
    Same,
    /// A manifest, written sorted and pretty as `RunManifest` writes it.
    Edited(Json),
    /// A path with no file.
    Missing,
}

/// Run the gate in a fresh temp directory named after `test`; returns
/// its exit code, its stderr and the report, if it wrote one.
fn gate(test: &str, current: Current) -> (i32, String, Option<Json>) {
    let dir =
        std::env::temp_dir().join(format!("prox-bench-diff-cli-{}-{test}", std::process::id()));
    let _ = fs::remove_dir_all(&dir);
    fs::create_dir_all(&dir).expect("temp dir");
    let baseline = dir.join("baseline.json");
    fs::copy(COMMITTED, &baseline).expect("copy the committed manifest");
    let current = match current {
        Current::Same => baseline.clone(),
        Current::Edited(manifest) => {
            let path = dir.join("current.json");
            fs::write(&path, manifest.sorted().pretty()).expect("write the edited copy");
            path
        }
        Current::Missing => dir.join("no_such_manifest.json"),
    };
    let out = dir.join("regression.json");
    let output = Command::new(env!("CARGO_BIN_EXE_prox"))
        .args(["bench", "diff"])
        .arg(&baseline)
        .arg(&current)
        .arg("--out")
        .arg(&out)
        .output()
        .expect("prox runs");
    let report = fs::read_to_string(&out)
        .ok()
        .map(|body| Json::parse(&body).expect("report is JSON"));
    let _ = fs::remove_dir_all(&dir);
    let code = output.status.code().expect("prox exits with a code");
    (
        code,
        String::from_utf8_lossy(&output.stderr).into_owned(),
        report,
    )
}

#[test]
fn the_committed_manifest_against_itself_exits_0() {
    let (code, stderr, report) = gate("same", Current::Same);
    assert_eq!(code, 0, "{stderr}");
    let report = report.expect("report written");
    assert_eq!(report.get("status").and_then(Json::as_str), Some("ok"));
    assert_eq!(report.get("differences"), Some(&Json::Arr(Vec::new())));
}

#[test]
fn one_changed_counter_exits_1_and_names_its_path() {
    let hits = committed()
        .get("counters")
        .and_then(|c| c.get("serve/cache_hit"))
        .and_then(Json::as_u64)
        .expect("committed cache-hit counter");
    let current = edited("counters", "serve/cache_hit", hits + 1);
    let (code, stderr, report) = gate("counter", Current::Edited(current));
    assert_eq!(code, 1, "{stderr}");
    let report = report.expect("report written");
    assert_eq!(
        report.get("status").and_then(Json::as_str),
        Some("regressed")
    );
    let expected = Json::obj()
        .with("baseline", hits)
        .with("current", hits + 1)
        .with("path", "counters.serve/cache_hit");
    assert_eq!(report.get("differences"), Some(&Json::Arr(vec![expected])));
}

#[test]
fn a_flipped_scale_exits_2() {
    let quick = committed().get("scale").and_then(|s| s.get("quick")) == Some(&Json::Bool(true));
    let current = edited("scale", "quick", !quick);
    let (code, stderr, report) = gate("scale", Current::Edited(current));
    assert_eq!(code, 2, "{stderr}");
    assert!(stderr.contains("scale") && report.is_none(), "{stderr}");
}

#[test]
fn a_timed_manifest_exits_2() {
    let mut timed = committed();
    timed.set("wall_time_ms", 1234u64);
    let (code, stderr, report) = gate("timed", Current::Edited(timed));
    assert_eq!(code, 2, "{stderr}");
    assert!(
        stderr.contains("PROX_DETERMINISTIC=1") && report.is_none(),
        "{stderr}"
    );
}

#[test]
fn a_missing_file_exits_2() {
    let (code, stderr, report) = gate("missing", Current::Missing);
    assert_eq!(code, 2, "{stderr}");
    assert!(
        stderr.contains("cannot read") && report.is_none(),
        "{stderr}"
    );
}
