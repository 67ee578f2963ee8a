//! A request is admitted the moment it arrives: the accept loop blocks in
//! `accept()` rather than polling with a sleep, so a sequential client's
//! round trip carries no timer. A loop that slept 2 ms after every empty
//! poll would put each round trip above 2 ms; a blocking one answers
//! `/healthz` in a fraction of a millisecond.
//!
//! Lives in its own integration-test binary so no other test shares the
//! cores while the round trips are timed.

// Harness helpers outside #[test] fns still panic on broken setup.
#![allow(clippy::expect_used)]

use std::time::{Duration, Instant};

use prox_serve::http::client_request;
use prox_serve::{Server, ServerConfig};

const ROUND_TRIPS: usize = 41;

#[test]
fn sequential_healthz_round_trip_median_is_below_a_millisecond() {
    let handle = Server::start(ServerConfig {
        addr: "127.0.0.1:0".to_owned(),
        workers: 1,
        ..ServerConfig::default()
    })
    .expect("server starts on an ephemeral port");
    let addr = handle.addr().to_string();
    let healthz = || {
        let (status, body) =
            client_request(&addr, "GET", "/healthz", &[], b"", 5_000).expect("healthz");
        assert_eq!(status, 200, "{body}");
    };
    healthz(); // warm-up
    let mut rtt: Vec<Duration> = (0..ROUND_TRIPS)
        .map(|_| {
            let t = Instant::now();
            healthz();
            t.elapsed()
        })
        .collect();
    handle.shutdown();
    rtt.sort();
    let median = rtt[ROUND_TRIPS / 2];
    assert!(
        median < Duration::from_millis(1),
        "median /healthz round trip {median:?} (fastest {:?}, slowest {:?})",
        rtt[0],
        rtt[ROUND_TRIPS - 1]
    );
}
