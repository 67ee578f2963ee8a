//! Golden-fixture corpus for the cross-file rules (L6–L8).
//!
//! Each fixture under `tests/fixtures/` is a small source file with a
//! known violation — or its clean counterpart — fed to the [`Linter`]
//! under library paths (`crates/fx/src/…`) so the cross-file passes treat
//! them as shipping code. The real workspace walk classifies the fixture
//! directory as test scope, so the violations planted here never count
//! against the tree itself.
//!
//! The final test is the det-coverage parity gate: the taint pass
//! replaced the hand-maintained `det_files` list, and every file on the
//! old list that has hash-order sites must still be covered by the
//! computed set.

use prox_lint::{Diagnostic, LintConfig, Linter};

/// Lint a set of fixtures as one mini-workspace and return the
/// diagnostics plus the computed determinism-relevant file set.
fn lint(files: &[(&str, &str)]) -> (Vec<Diagnostic>, Vec<String>) {
    let mut linter = Linter::new(fixture_cfg());
    for (rel, src) in files {
        linter.check_source(rel, src);
    }
    let (diags, _, det) = linter.finish();
    (diags, det)
}

fn fixture_cfg() -> LintConfig {
    LintConfig {
        budget_files: Vec::new(),
        fault_grammar_file: "crates/fx/src/fault.rs".to_string(),
        sink_fns: vec![("crates/fx/src/l8_sink.rs".to_string(), "*".to_string())],
        barrier_files: vec!["crates/fx/src/l8_barrier.rs".to_string()],
    }
}

/// Only the cross-file diagnostics — fixtures may carry incidental L1
/// findings (they are synthetic snippets, not production code).
fn cross_file(diags: &[Diagnostic]) -> Vec<&Diagnostic> {
    diags
        .iter()
        .filter(|d| matches!(d.rule, "L6" | "L7" | "L8"))
        .collect()
}

macro_rules! fixture {
    ($name:literal) => {
        (
            concat!("crates/fx/src/", $name),
            include_str!(concat!("fixtures/", $name)),
        )
    };
}

// --- L6: lock discipline ---------------------------------------------------

#[test]
fn l6_opposite_acquisition_orders_close_a_cycle() {
    let (diags, _) = lint(&[fixture!("l6_order_cycle.rs")]);
    let l6 = cross_file(&diags);
    assert_eq!(l6.len(), 1, "one cycle, reported once: {diags:?}");
    assert_eq!(l6[0].rule, "L6");
    assert!(
        l6[0].message.contains("lock order cycle"),
        "{}",
        l6[0].message
    );
    assert!(
        l6[0].message.contains("ALPHA") && l6[0].message.contains("BETA"),
        "{}",
        l6[0].message
    );
}

#[test]
fn l6_consistent_order_is_clean() {
    let (diags, _) = lint(&[fixture!("l6_order_clean.rs")]);
    assert!(cross_file(&diags).is_empty(), "{diags:?}");
}

#[test]
fn l6_guard_held_across_recv_is_flagged() {
    let (diags, _) = lint(&[fixture!("l6_blocking_hold.rs")]);
    let l6 = cross_file(&diags);
    assert_eq!(l6.len(), 1, "{diags:?}");
    assert!(
        l6[0].message.contains("held across") && l6[0].message.contains("recv"),
        "{}",
        l6[0].message
    );
    assert!(l6[0].message.contains("PENDING"), "{}", l6[0].message);
}

#[test]
fn l6_guard_confined_to_inner_block_is_clean() {
    let (diags, _) = lint(&[fixture!("l6_blocking_clean.rs")]);
    assert!(cross_file(&diags).is_empty(), "{diags:?}");
}

// --- L7: atomic ordering ---------------------------------------------------

#[test]
fn l7_undocumented_relaxed_handoff_flag_is_flagged() {
    let (diags, _) = lint(&[fixture!("l7_relaxed_flag.rs")]);
    let l7 = cross_file(&diags);
    assert_eq!(l7.len(), 1, "{diags:?}");
    assert_eq!(l7[0].rule, "L7");
    assert!(l7[0].message.contains("READY"), "{}", l7[0].message);
    assert!(
        l7[0].message.contains("document the Relaxed contract"),
        "{}",
        l7[0].message
    );
}

#[test]
fn l7_documented_relaxed_contract_is_clean() {
    let (diags, _) = lint(&[fixture!("l7_relaxed_documented.rs")]);
    assert!(cross_file(&diags).is_empty(), "{diags:?}");
}

#[test]
fn l7_mixed_orderings_flagged_at_declaration() {
    let (diags, _) = lint(&[fixture!("l7_mixed_ordering.rs")]);
    let l7 = cross_file(&diags);
    assert_eq!(l7.len(), 1, "{diags:?}");
    assert!(
        l7[0].message.contains("TICKS") && l7[0].message.contains("mixes"),
        "{}",
        l7[0].message
    );
    // Anchored at the declaration line, not a call site.
    assert!(
        l7[0].line_text.contains("static TICKS"),
        "{}",
        l7[0].line_text
    );
}

#[test]
fn l7_release_acquire_discipline_is_clean() {
    let (diags, _) = lint(&[fixture!("l7_consistent.rs")]);
    assert!(cross_file(&diags).is_empty(), "{diags:?}");
}

// --- L8: determinism taint -------------------------------------------------

/// The diamond: `publish_report` reaches the sink through both
/// `fold_left` and `fold_right`. Taint must reach the apex, carry a full
/// source→sink trace, and flag each hash-order line exactly once even
/// though two paths exist.
#[test]
fn l8_diamond_taints_apex_once_per_line_with_trace() {
    let (diags, det) = lint(&[
        fixture!("l8_sink.rs"),
        fixture!("l8_left.rs"),
        fixture!("l8_right.rs"),
        fixture!("l8_top.rs"),
    ]);
    let l8: Vec<&Diagnostic> = diags.iter().filter(|d| d.rule == "L8").collect();
    assert!(!l8.is_empty(), "apex HashMap must be flagged: {diags:?}");
    assert!(
        l8.iter().all(|d| d.file == "crates/fx/src/l8_top.rs"),
        "{l8:?}"
    );
    // One diagnostic per distinct source line, despite the two paths.
    let mut lines: Vec<u32> = l8.iter().map(|d| d.line).collect();
    lines.sort_unstable();
    let before = lines.len();
    lines.dedup();
    assert_eq!(before, lines.len(), "duplicate per-path findings: {l8:?}");
    // Every finding carries the call-graph justification, ending at the
    // configured sink.
    for d in &l8 {
        assert!(!d.trace.is_empty(), "{d:?}");
        let rendered = d.trace.join("\n");
        assert!(
            rendered.contains("emits output"),
            "trace must end at the sink:\n{rendered}"
        );
        assert!(
            rendered.contains("fold_left") || rendered.contains("fold_right"),
            "trace must pass through an arm of the diamond:\n{rendered}"
        );
    }
    // All four files are determinism-relevant: the sink itself, both
    // arms, and the apex.
    for f in [
        "crates/fx/src/l8_sink.rs",
        "crates/fx/src/l8_left.rs",
        "crates/fx/src/l8_right.rs",
        "crates/fx/src/l8_top.rs",
    ] {
        assert!(det.contains(&f.to_string()), "{f} missing from {det:?}");
    }
}

#[test]
fn l8_hashmap_away_from_sinks_is_clean() {
    let (diags, det) = lint(&[fixture!("l8_sink.rs"), fixture!("l8_clean.rs")]);
    let l8: Vec<&Diagnostic> = diags.iter().filter(|d| d.rule == "L8").collect();
    assert!(l8.is_empty(), "{l8:?}");
    assert!(
        !det.contains(&"crates/fx/src/l8_clean.rs".to_string()),
        "{det:?}"
    );
}

#[test]
fn l8_barrier_stops_taint_propagation() {
    let (diags, det) = lint(&[
        fixture!("l8_sink.rs"),
        fixture!("l8_barrier.rs"),
        fixture!("l8_behind_barrier.rs"),
    ]);
    let l8: Vec<&Diagnostic> = diags.iter().filter(|d| d.rule == "L8").collect();
    assert!(
        l8.is_empty(),
        "calling instrumentation must not taint the caller: {l8:?}"
    );
    assert!(
        !det.contains(&"crates/fx/src/l8_behind_barrier.rs".to_string()),
        "{det:?}"
    );
}

// --- det-coverage parity with the retired hand-maintained list -------------

/// The files the deleted `det_files` config enumerated by hand, less the
/// ones since deleted from the tree. The computed set must still cover
/// every one of them that has hash-order sites to flag — proof the taint
/// pass lost no coverage.
const OLD_DET_FILES: &[&str] = &[
    "crates/bench/src/report.rs",
    "crates/bench/src/manifest.rs",
    "crates/bench/src/series.rs",
    "crates/bench/src/experiments.rs",
    "crates/bench/src/runner.rs",
    "crates/bench/src/chaos.rs",
    "crates/bench/src/workload.rs",
    "crates/bench/src/bin/experiments.rs",
    "crates/obs/src/json.rs",
    "crates/obs/src/registry.rs",
    "crates/obs/src/sink.rs",
    "crates/obs/src/prom.rs",
    "crates/obs/src/trace.rs",
    "crates/obs/src/window.rs",
    "crates/obs/src/alloc.rs",
    "crates/obs/src/prof.rs",
    "crates/serve/src/health.rs",
    "crates/serve/src/ratelimit.rs",
    "crates/bench/src/diff.rs",
    "crates/system/src/render.rs",
    "crates/system/src/insights.rs",
];

#[test]
fn computed_det_set_covers_the_old_hand_maintained_list() {
    let root = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
    let report = prox_lint::run_workspace(&root, None).expect("linter runs on the workspace");
    let mut uncovered = Vec::new();
    for old in OLD_DET_FILES {
        if report.det_files.iter().any(|f| f == old) {
            continue;
        }
        // Not in the computed set: acceptable only when the file has
        // nothing the old per-file rule would have flagged.
        let src = std::fs::read_to_string(root.join(old)).expect(old);
        let has_sites = ["HashMap", "HashSet", "RandomState", "DefaultHasher"]
            .iter()
            .any(|needle| src.contains(needle));
        if has_sites {
            uncovered.push(*old);
        }
    }
    assert!(
        uncovered.is_empty(),
        "old det files with hash-order sites no longer covered: {uncovered:?}"
    );
}

// --- Walk scope: nested workspaces ------------------------------------------

/// A subdirectory whose `Cargo.toml` opens its own `[workspace]` is a
/// separate build and out of the walk's scope; a plain member package,
/// and the root workspace itself, are in it.
#[test]
fn walk_skips_subdirectories_that_are_workspaces_of_their_own() {
    let root = std::env::temp_dir().join(format!("prox-lint-nested-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&root);
    let lib = include_str!("fixtures/nested_workspace_lib.rs");
    let files = [
        ("Cargo.toml", "[workspace]\nmembers = [\"crates/*\"]\n"),
        ("crates/a/Cargo.toml", "[package]\nname = \"a\"\n"),
        ("crates/a/src/lib.rs", lib),
        (
            "bench/Cargo.toml",
            "[package]\nname = \"bench\"\n\n[workspace]\nmembers = [\".\"]\n",
        ),
        ("bench/src/lib.rs", lib),
        (
            "tools/Cargo.toml",
            "[package]\nname = \"tools\"\n\n[workspace.package]\nversion = \"0.1.0\"\n",
        ),
        ("tools/src/lib.rs", lib),
    ];
    for (rel, text) in files {
        let path = root.join(rel);
        std::fs::create_dir_all(path.parent().expect("fixture paths have parents"))
            .expect("fixture dir is creatable");
        std::fs::write(&path, text).expect("fixture file is writable");
    }
    let report = prox_lint::run_workspace(&root, None).expect("linter runs on the fixture tree");
    let _ = std::fs::remove_dir_all(&root);
    assert_eq!(report.files_scanned, 1, "only crates/a is in scope");
    assert!(
        !report.violations.is_empty(),
        "the member's unwrap is found"
    );
    for d in &report.violations {
        assert_eq!(d.file, "crates/a/src/lib.rs", "{d}");
    }
}
