//! End-to-end resilience: worker supervision under the `panic` fault
//! site (a failure streak is answered 500 by 500 and refuses no later
//! request), per-tenant 429 semantics over a real socket, and the
//! draining health state during shutdown.
//!
//! Own test binary: the fault plan is process-global, so injected panics
//! must not share a process with tests expecting healthy workers. Within
//! this file every test that summarizes holds a `FaultGuard` — its own
//! plan or `FaultGuard::disabled()` — so the parallel runner serializes
//! them on the harness.

use prox_obs::Json;
use prox_robust::FaultGuard;
use prox_serve::http::{client_request, client_request_full};
use prox_serve::{HealthState, Server, ServerConfig};

fn config() -> ServerConfig {
    ServerConfig {
        addr: "127.0.0.1:0".to_owned(),
        workers: 2,
        queue_capacity: 8,
        cache_capacity: 8,
        default_budget_ms: 10_000,
        io_deadline_ms: 10_000,
        ..ServerConfig::default()
    }
}

fn header<'a>(headers: &'a [(String, String)], name: &str) -> Option<&'a str> {
    headers
        .iter()
        .find(|(n, _)| n == name)
        .map(|(_, v)| v.as_str())
}

#[test]
fn workers_survive_injected_panics_and_answer_typed_500s() {
    prox_obs::set_enabled(true);
    let count = |name: &str| prox_obs::counter_value(name).unwrap_or(0);
    let shed0 = count("serve/shed");
    let handle = Server::start(config()).expect("server starts");
    let addr = handle.addr().to_string();

    {
        // Every summarize panics, eight times in a row under the default
        // config; each must come back as a typed 500, never a shed, a
        // hung or a reset connection. No other test in this binary can
        // answer an error while the guard is held.
        let _g = FaultGuard::install("panic@1:7").expect("valid spec");
        let errors0 = count("serve/errors");
        let panics0 = count("serve/worker_panics");
        for i in 0..8 {
            let (status, body) = client_request(
                &addr,
                "POST",
                "/summarize",
                &[],
                format!(r#"{{"dataset": "small", "steps": {}}}"#, 2 + i).as_bytes(),
                30_000,
            )
            .expect("panicked request is still answered");
            assert_eq!(status, 500, "attempt {i}: {body}");
            let parsed = Json::parse(&body).expect("panic body is JSON");
            assert_eq!(parsed.get("kind").and_then(Json::as_str), Some("internal"));
        }
        assert_eq!(count("serve/errors") - errors0, 8);
        assert_eq!(count("serve/worker_panics") - panics0, 8);
        assert_eq!(handle.health().state(), HealthState::Degraded);
    }

    // Harness restored: the same workers summarize successfully — the
    // pool recovered without dropping a thread. The guard keeps another
    // test's plan out while this one expects healthy workers.
    let _clean = FaultGuard::disabled();
    let (status, body) = client_request(
        &addr,
        "POST",
        "/summarize",
        &[],
        br#"{"dataset": "small", "steps": 3}"#,
        30_000,
    )
    .expect("request completes");
    assert_eq!(
        status, 200,
        "the failure streak refuses no later request: {body}"
    );
    assert_eq!(count("serve/shed"), shed0);
    let (status, body) = client_request(&addr, "GET", "/healthz", &[], b"", 10_000).expect("hz");
    assert_eq!(status, 200);
    assert!(body.contains("\"status\":\"ok\""), "{body}");
    handle.shutdown();
}

#[test]
fn panicking_request_does_not_drop_requests_queued_behind_it() {
    let mut cfg = config();
    cfg.workers = 1; // one worker: queued requests sit behind the panic
    let handle = Server::start(cfg).expect("server starts");
    let addr = handle.addr().to_string();
    let _g = FaultGuard::install("panic@1:11").expect("valid spec");

    // Fire several requests; the single supervised worker must answer
    // every one with a typed 500 (queue drained, worker alive).
    let threads: Vec<_> = (0..4)
        .map(|i| {
            let addr = addr.clone();
            std::thread::spawn(move || {
                client_request(
                    &addr,
                    "POST",
                    "/summarize",
                    &[],
                    format!(r#"{{"dataset": "small", "steps": {}}}"#, 2 + i).as_bytes(),
                    30_000,
                )
            })
        })
        .collect();
    for t in threads {
        let (status, body) = t.join().expect("client thread").expect("answered");
        assert_eq!(status, 500, "{body}");
    }
    drop(_g);
    handle.shutdown();
}

#[test]
fn hot_tenant_gets_429_with_retry_after_and_other_tenants_are_isolated() {
    // Every summarize here must succeed: hold the harness off so another
    // test's injected panics cannot reach these workers.
    let _clean = FaultGuard::disabled();
    let mut cfg = config();
    cfg.tenant_rate = 0.1; // refills far slower than the test fires
    cfg.tenant_burst = 2.0;
    let handle = Server::start(cfg).expect("server starts");
    let addr = handle.addr().to_string();
    let body = br#"{"dataset": "small", "steps": 2}"#;

    let mut saw_429 = false;
    for i in 0..4 {
        let (status, headers, resp) = client_request_full(
            &addr,
            "POST",
            "/summarize",
            &[("X-Prox-Tenant", "hog".to_owned())],
            body,
            30_000,
        )
        .expect("answered");
        if i < 2 {
            assert_eq!(status, 200, "burst admits the first two: {resp}");
        } else {
            assert_eq!(status, 429, "bucket empty: {resp}");
            saw_429 = true;
            let retry = header(&headers, "retry-after").expect("429 carries Retry-After");
            assert!(retry.parse::<u64>().expect("integer seconds") >= 1);
            let parsed = Json::parse(&resp).expect("JSON error body");
            assert_eq!(
                parsed.get("kind").and_then(Json::as_str),
                Some("rate_limited")
            );
        }
    }
    assert!(saw_429);

    // A different tenant — and an unlabelled request — are unaffected.
    let (status, _, _) = client_request_full(
        &addr,
        "POST",
        "/summarize",
        &[("X-Prox-Tenant", "quiet".to_owned())],
        body,
        30_000,
    )
    .expect("answered");
    assert_eq!(status, 200);
    let (status, _) =
        client_request(&addr, "POST", "/summarize", &[], body, 30_000).expect("answered");
    assert_eq!(status, 200, "no tenant header bypasses the limiter");
    handle.shutdown();
}

#[test]
fn draining_healthz_is_503_with_retry_after() {
    let handle = Server::start(config()).expect("server starts");
    let health = handle.health();
    assert_eq!(health.state(), HealthState::Healthy);
    // `shutdown()` joins the pool, so probe the state machine through the
    // same handle the server uses rather than racing the drain over TCP.
    health.begin_drain();
    let ctx = prox_serve::service::ServiceCtx::new(4, 1_000, handle.shutdown_flag());
    ctx.health.begin_drain();
    let req = prox_serve::Request {
        method: "GET".into(),
        path: "/healthz".into(),
        headers: Vec::new(),
        body: Vec::new(),
    };
    let resp = prox_serve::service::route(&req, &ctx);
    assert_eq!(resp.status, 503);
    assert_eq!(resp.retry_after, Some(1));
    assert!(
        resp.body.contains("\"status\":\"draining\""),
        "{}",
        resp.body
    );
    handle.shutdown();
}
