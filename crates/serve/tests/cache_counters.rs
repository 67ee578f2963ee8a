//! Cache observability: hit/miss/evict counters in the prox-obs registry,
//! for one client and for several clients sharing one cache.
//!
//! Lives in its own integration-test binary because the registry is
//! process-global: counter-delta assertions must not race requests made
//! by unrelated tests in the same process. For the same reason the file
//! holds one test, run in phases.

// Harness helpers outside #[test] fns still panic on broken setup.
#![allow(clippy::expect_used)]

use prox_obs::Json;
use prox_serve::http::client_request;
use prox_serve::{Server, ServerConfig};

fn counter(name: &str) -> u64 {
    prox_obs::counter_value(name).unwrap_or(0)
}

fn post(addr: &str, body: &str) -> (u16, String) {
    client_request(addr, "POST", "/summarize", &[], body.as_bytes(), 30_000)
        .expect("request completes")
}

#[test]
fn cache_hits_misses_and_evictions_are_counted() {
    // Counters are a no-op while the registry is disabled.
    prox_obs::set_enabled(true);
    let handle = Server::start(ServerConfig {
        addr: "127.0.0.1:0".to_owned(),
        workers: 2,
        queue_capacity: 8,
        cache_capacity: 2,
        default_budget_ms: 10_000,
        io_deadline_ms: 10_000,
        ..ServerConfig::default()
    })
    .expect("server starts");
    let addr = handle.addr().to_string();
    let post = |body: &str| post(&addr, body);

    let (miss0, hit0, evict0) = (
        counter("serve/cache_miss"),
        counter("serve/cache_hit"),
        counter("serve/cache_evict"),
    );

    let body = r#"{"dataset": "small", "steps": 3}"#;
    let (s1, b1) = post(body);
    assert_eq!(s1, 200, "{b1}");
    assert_eq!(
        counter("serve/cache_miss"),
        miss0 + 1,
        "first request misses"
    );
    assert_eq!(counter("serve/cache_hit"), hit0);

    let (s2, b2) = post(body);
    assert_eq!(s2, 200);
    assert_eq!(b1, b2, "hit must be byte-identical");
    assert_eq!(counter("serve/cache_hit"), hit0 + 1, "second request hits");
    assert_eq!(counter("serve/cache_miss"), miss0 + 1);

    // Two more distinct requests overflow the capacity-2 cache.
    let (s3, _) = post(r#"{"dataset": "small", "steps": 2}"#);
    let (s4, _) = post(r#"{"dataset": "small", "steps": 1}"#);
    assert_eq!((s3, s4), (200, 200));
    assert_eq!(
        counter("serve/cache_evict"),
        evict0 + 1,
        "LRU entry evicted"
    );

    // The JSON snapshot endpoint exposes the same counters; the
    // Prometheus exposition carries them as labelled series.
    let (status, body) =
        client_request(&addr, "GET", "/metrics.json", &[], b"", 10_000).expect("metrics.json");
    assert_eq!(status, 200);
    let snap = Json::parse(&body).expect("metrics.json is JSON");
    assert!(
        snap.get("counters")
            .and_then(|c| c.get("serve/cache_hit"))
            .and_then(Json::as_u64)
            .is_some(),
        "serve counters missing from /metrics.json: {body}"
    );
    let (status, body) =
        client_request(&addr, "GET", "/metrics", &[], b"", 10_000).expect("metrics");
    assert_eq!(status, 200);
    assert!(
        body.contains("prox_counter_total{name=\"serve/cache_hit\"}"),
        "cache-hit series missing from Prometheus exposition: {body}"
    );
    handle.shutdown();

    several_clients_share_one_cache();
}

/// Concurrent clients against one cache sized to the working set: bodies
/// are unique per client and each is sent `REPEATS` times in rounds, so
/// round one misses, every later round hits, and nothing is evicted.
fn several_clients_share_one_cache() {
    const CLIENTS: usize = 2;
    const BODIES_PER_CLIENT: usize = 2;
    const REPEATS: usize = 3;
    let handle = Server::start(ServerConfig {
        addr: "127.0.0.1:0".to_owned(),
        workers: 2,
        queue_capacity: 8,
        cache_capacity: CLIENTS * BODIES_PER_CLIENT,
        default_budget_ms: 10_000,
        io_deadline_ms: 10_000,
        ..ServerConfig::default()
    })
    .expect("server starts");
    let addr = handle.addr().to_string();
    let (miss0, hit0, evict0) = (
        counter("serve/cache_miss"),
        counter("serve/cache_hit"),
        counter("serve/cache_evict"),
    );

    let client = |client: usize| {
        let bodies: Vec<String> = (1..=BODIES_PER_CLIENT)
            .map(|steps| {
                format!(r#"{{"dataset": "small", "steps": {steps}, "target_size": {client}}}"#)
            })
            .collect();
        let mut first = Vec::new();
        for round in 0..REPEATS {
            for (ix, body) in bodies.iter().enumerate() {
                let (status, answer) = post(&addr, body);
                assert_eq!(status, 200, "{body}: {answer}");
                match round {
                    0 => first.push(answer),
                    _ => assert_eq!(answer, first[ix], "repeat of {body} must be byte-identical"),
                }
            }
        }
    };
    std::thread::scope(|scope| {
        for id in 1..=CLIENTS {
            scope.spawn(move || client(id));
        }
    });

    let distinct = (CLIENTS * BODIES_PER_CLIENT) as u64;
    let total = distinct * REPEATS as u64;
    assert_eq!(
        counter("serve/cache_miss") - miss0,
        distinct,
        "one miss per body"
    );
    assert_eq!(
        counter("serve/cache_hit") - hit0,
        total - distinct,
        "repeats hit"
    );
    assert_eq!(counter("serve/cache_evict"), evict0, "the working set fits");
    handle.shutdown();
}
