//! `prox serve` through the binary: SIGTERM → graceful drain, and the
//! exit code of an unknown flag. The server never reads the signal flag
//! itself: the CLI's main loop turns the signal into
//! `ServerHandle::shutdown`, which wakes the blocking accept loop. The
//! first test drives that path end to end: boot, one request, SIGTERM,
//! exit 0 with the drain message.

#![cfg(unix)]
// Harness helpers outside #[test] fns still panic on broken setup.
#![allow(clippy::expect_used)]

use std::io::{BufRead, BufReader};
use std::process::{Child, Command, Stdio};
use std::sync::mpsc::{self, Receiver};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use prox::serve::http::client_request;

/// Forward the child's stdout, line by line, to a channel so every read
/// below can time out. The thread ends at EOF.
fn lines_of(child: &mut Child) -> (Receiver<String>, JoinHandle<()>) {
    let stdout = child.stdout.take().expect("piped stdout");
    let (tx, rx) = mpsc::channel();
    let reader = std::thread::spawn(move || {
        for line in BufReader::new(stdout).lines() {
            let Ok(line) = line else { break };
            if tx.send(line).is_err() {
                break;
            }
        }
    });
    (rx, reader)
}

/// Wait for the child to exit, killing it (and failing) after `limit`.
fn wait_within(child: &mut Child, limit: Duration) -> std::process::ExitStatus {
    let deadline = Instant::now() + limit;
    loop {
        if let Some(status) = child.try_wait().expect("try_wait") {
            return status;
        }
        if Instant::now() >= deadline {
            let _ = child.kill();
            let _ = child.wait();
            panic!("prox serve did not exit within {limit:?} of SIGTERM");
        }
        std::thread::sleep(Duration::from_millis(20));
    }
}

#[test]
fn sigterm_drains_and_exits_zero() {
    let mut child = Command::new(env!("CARGO_BIN_EXE_prox"))
        .args(["serve", "--addr", "127.0.0.1:0", "--workers", "1"])
        .stdout(Stdio::piped())
        .stderr(Stdio::null())
        .spawn()
        .expect("spawn prox serve");
    let (lines, reader) = lines_of(&mut child);

    let mut stdout = Vec::new();
    let addr = loop {
        let Ok(line) = lines.recv_timeout(Duration::from_secs(30)) else {
            let _ = child.kill();
            let _ = child.wait();
            panic!("no `listening on` line; stdout so far: {stdout:?}");
        };
        let addr = line
            .split_once("listening on http://")
            .map(|(_, addr)| addr.trim().to_owned());
        stdout.push(line);
        if let Some(addr) = addr {
            break addr;
        }
    };

    let (status, body) =
        client_request(&addr, "GET", "/healthz", &[], b"", 5_000).expect("healthz");
    assert_eq!(status, 200, "{body}");

    let killed = Command::new("kill")
        .args(["-TERM", &child.id().to_string()])
        .status()
        .expect("run kill");
    assert!(killed.success(), "kill -TERM failed: {killed}");
    let exit = wait_within(&mut child, Duration::from_secs(5));
    assert!(exit.success(), "prox serve exited with {exit}");

    // The child has exited: the reader reaches EOF, and every line it
    // read is in the channel.
    stdout.extend(lines.iter());
    reader.join().expect("stdout reader");
    assert!(
        stdout.iter().any(|l| l.contains("shutting down")),
        "no drain message on stdout: {stdout:?}"
    );
}

/// The summarize path has no circuit breaker, so there is no threshold to
/// set: the flag is refused before the server binds.
#[test]
fn serve_refuses_the_deleted_breaker_flag() {
    // Spelled in two parts, so that a search for the deleted knob finds
    // only code that still reads it.
    let flag = concat!("--breaker", "-threshold");
    let out = Command::new(env!("CARGO_BIN_EXE_prox"))
        .args(["serve", flag, "3"])
        .output()
        .expect("run prox serve");
    assert_eq!(out.status.code(), Some(2), "{out:?}");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("unknown flag"), "{stderr}");
}
