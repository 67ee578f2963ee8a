//! A reader that closes stdout early is not a crash. `println!` panics
//! when its write meets a broken pipe (exit 101 and a backtrace on
//! stderr); the CLI writes through one writer that ends the run quietly
//! instead. Each run here gets a pipe whose read end is closed before
//! the process starts, so its first write fails.

// Harness helpers outside #[test] fns still panic on broken setup.
#![allow(clippy::expect_used)]

use std::process::{Command, Output};

fn prox(args: &[&str]) -> Command {
    let mut cmd = Command::new(env!("CARGO_BIN_EXE_prox"));
    cmd.args(args).env_remove("PROX_FAULT");
    cmd
}

/// Run `prox` with stdout already closed at the reading end.
fn run_into_closed_pipe(args: &[&str]) -> Output {
    let (reader, writer) = std::io::pipe().expect("create a pipe");
    drop(reader);
    prox(args).stdout(writer).output().expect("run prox")
}

fn assert_quiet_exit(args: &[&str], out: &Output) {
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_ne!(out.status.code(), Some(101), "{args:?} panicked: {stderr}");
    assert!(!stderr.contains("panicked"), "{args:?}: {stderr}");
    assert!(out.status.success(), "{args:?}: {:?} {stderr}", out.status);
}

#[test]
fn summarize_into_a_closed_pipe_exits_quietly() {
    let args = ["summarize", "--steps", "2"];
    assert_quiet_exit(&args, &run_into_closed_pipe(&args));
}

#[test]
fn store_stat_into_a_closed_pipe_exits_quietly() {
    let dir = std::env::temp_dir().join(format!("prox_broken_pipe_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let dir_arg = dir.to_str().expect("utf-8 temp dir");
    let built = prox(&[
        "store",
        "build",
        "--out",
        dir_arg,
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
    ])
    .output()
    .expect("run prox store build");
    assert!(built.status.success(), "store build: {built:?}");

    let args = ["store", "stat", dir_arg, "--sample", "3"];
    assert_quiet_exit(&args, &run_into_closed_pipe(&args));
    let _ = std::fs::remove_dir_all(&dir);
}
