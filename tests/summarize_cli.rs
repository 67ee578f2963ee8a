//! `prox summarize` through the binary: the demo run, a run over a
//! segment store that `prox store build` wrote, and the exit codes of a
//! corrupt store and an unknown flag.
//!
//! A store run must print what the in-process pipeline behind
//! `POST /summarize/store` computes over the whole store:
//! `SegmentStore::collect`, then `summarize_selection`. Clean runs unset
//! `PROX_FAULT`, which a fault-injection run may have exported.

// Harness helpers outside #[test] fns still panic on broken setup.
#![allow(clippy::expect_used)]

use std::path::{Path, PathBuf};
use std::process::{Command, Output};

use prox::core::{ExecutionBudget, SummaryResult};
use prox::datasets::MovieLens;
use prox::provenance::ProvExpr;
use prox::serve::service::DEMO_DATASET;
use prox::system::selection::{select, Selection};
use prox::system::{summarize, summarize_selection, SummarizationRequest};
use prox_store::SegmentStore;

fn prox(args: &[&str]) -> Command {
    let mut cmd = Command::new(env!("CARGO_BIN_EXE_prox"));
    cmd.args(args).env_remove("PROX_FAULT");
    cmd
}

/// Run `prox` with `args` and no fault plan.
fn run(args: &[&str]) -> Output {
    prox(args).output().expect("run prox")
}

/// Build a small store with `prox store build` into a fresh per-test
/// directory.
fn built_store(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("prox_summarize_cli_{tag}_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let out = run(&[
        "store",
        "build",
        "--out",
        dir.to_str().expect("utf-8 temp dir"),
        "--users",
        "12",
        "--movies",
        "4",
        "--unique",
        "60",
        "--logical",
        "600",
        "--seed",
        "9",
    ]);
    assert!(out.status.success(), "store build: {out:?}");
    dir
}

/// The report `prox summarize` prints.
fn report(result: &SummaryResult<ProvExpr>) -> String {
    format!(
        "steps: {}\nsize: {} -> {}\ndistance: {:.4}\nstop: {:?}\n",
        result.history.len(),
        result.initial_size,
        result.final_size(),
        result.final_distance,
        result.stop_reason,
    )
}

fn stdout(out: &Output) -> String {
    String::from_utf8(out.stdout.clone()).expect("utf-8 stdout")
}

/// Three steps, and a run to the end: only the latter tells the
/// pipeline's valuation class from the demo's on this store, whose first
/// merges cost no distance under either.
#[test]
fn store_summary_matches_the_in_process_pipeline() {
    let dir = built_store("pipeline");
    let mut store = SegmentStore::open(Path::new(&dir)).expect("store opens");
    let (selection, outcome) = store
        .collect(&mut ExecutionBudget::unlimited().start())
        .expect("store folds");
    assert!(outcome.stopped.is_none());

    for steps in [3, 20] {
        let out = run(&[
            "summarize",
            "--store",
            dir.to_str().expect("utf-8 temp dir"),
            "--steps",
            &steps.to_string(),
        ]);
        let mut anns = store.anns().clone();
        let request = SummarizationRequest {
            steps,
            ..Default::default()
        };
        let result = summarize_selection(&selection, &mut anns, request.config()).expect("summary");
        assert!(out.status.success(), "prox summarize --store: {out:?}");
        assert!(!result.history.is_empty(), "the store has merges to make");
        assert_eq!(stdout(&out), report(&result), "--steps {steps}");
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn corrupt_store_exits_two() {
    let dir = built_store("corrupt");
    let out = prox(&[
        "summarize",
        "--store",
        dir.to_str().expect("utf-8 temp dir"),
    ])
    .env("PROX_FAULT", "corrupt@1:42")
    .output()
    .expect("run prox");
    let _ = std::fs::remove_dir_all(&dir);
    assert_eq!(out.status.code(), Some(2), "{out:?}");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("corrupt data"), "{stderr}");
}

#[test]
fn load_flag_is_unknown() {
    let out = run(&["summarize", "--load", "x.json"]);
    assert_eq!(out.status.code(), Some(2), "{out:?}");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("unknown flag"), "{stderr}");
}

#[test]
fn demo_summary_matches_the_in_process_service() {
    let out = run(&["summarize", "--steps", "3"]);

    let request = SummarizationRequest {
        steps: 3,
        ..Default::default()
    };
    let mut data = MovieLens::generate(DEMO_DATASET);
    let sel = select(&mut data, &Selection::All, request.aggregation);
    let result = summarize(&mut data, &sel, request).expect("summary").result;

    assert!(out.status.success(), "prox summarize: {out:?}");
    assert_eq!(stdout(&out), report(&result));
}
