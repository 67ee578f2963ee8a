//! Shutdown wakes the blocking accept loop with a loopback connection of
//! its own, and that connection is neither counted, queued nor shed.
//!
//! Lives in its own integration-test binary because the `serve/*`
//! counters are process-global: the deltas below must see only this
//! file's traffic. For the same reason the file holds one test.

// Harness helpers outside #[test] fns still panic on broken setup.
#![allow(clippy::expect_used)]

use std::time::{Duration, Instant};

use prox_serve::http::client_request;
use prox_serve::{Server, ServerConfig};

fn counter(name: &str) -> u64 {
    prox_obs::counter_value(name).unwrap_or(0)
}

/// A server bound to the unspecified address is woken through the
/// loopback address, drains without waiting on a timer, and counts
/// exactly the client's connections.
#[test]
fn wake_connection_is_prompt_and_neither_counted_nor_shed() {
    // Counters are a no-op while the registry is disabled.
    prox_obs::set_enabled(true);
    let handle = Server::start(ServerConfig {
        addr: "0.0.0.0:0".to_owned(),
        workers: 1,
        queue_capacity: 4,
        cache_capacity: 4,
        ..ServerConfig::default()
    })
    .expect("server starts on an ephemeral port");
    assert!(handle.addr().ip().is_unspecified(), "{}", handle.addr());
    let addr = format!("127.0.0.1:{}", handle.addr().port());
    let (connections, shed) = (counter("serve/connections"), counter("serve/shed"));

    const N: u64 = 5;
    for _ in 0..N {
        let (status, body) =
            client_request(&addr, "GET", "/healthz", &[], b"", 5_000).expect("healthz");
        assert_eq!(status, 200, "{body}");
    }

    let started = Instant::now();
    handle.shutdown();
    assert!(
        started.elapsed() < Duration::from_secs(1),
        "shutdown took {:?}",
        started.elapsed()
    );
    assert_eq!(counter("serve/connections") - connections, N);
    assert_eq!(counter("serve/shed"), shed);
}
