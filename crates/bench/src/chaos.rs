//! Chaos soak: drive the serve stack through a deterministic overload
//! storm with the L5 fault harness armed (`slowread` + `conndrop` +
//! `panic`) and record how the resilience layer held up.
//!
//! The driver is a single sequential client — one request in flight at a
//! time — so the fault sites' per-call counters and the per-tenant token
//! buckets (virtual clock under `PROX_DETERMINISTIC`) advance in an order
//! that is a pure function of the schedule. Two same-seed runs produce
//! byte-stable `reports/manifest_chaos.json` files, so `prox bench diff`
//! gates the result against the committed baseline exactly: any moved
//! tally fails.
//!
//! The report answers the overload questions directly: shed rate (429 +
//! 503 finals over offered), whether every shed carried `Retry-After`
//! (`missing_retry_after` must be 0), worker panics recovered without a
//! pool death — each one answered as a typed 500 — and a final `/healthz`
//! probe proving the server outlived the storm.

use std::collections::BTreeMap;
use std::thread;
use std::time::{Duration, Instant};

use prox_obs::Json;
use prox_robust::fault;
use prox_robust::{Backoff, ProxError};
use prox_serve::http::client_request_full;
use prox_serve::ratelimit::tenant_denials;
use prox_serve::{Server, ServerConfig};

use crate::manifest::RunManifest;
use crate::Scale;

/// The canonical storm: 5ms read stalls, 8% connection drops, 30%
/// injected worker panics. Used whenever the environment did not arm its
/// own `PROX_FAULT` plan; CI sets the same spec explicitly.
pub const CHAOS_FAULT_SPEC: &str = "slowread@5:41,conndrop@0.08:42,panic@0.3:43";

/// Shed/transport retries granted to each chaos request.
const MAX_RETRIES: u32 = 2;

/// The request schedule: `rounds` round-robin sweeps over `tenants`
/// tenants, bodies cycling through `distinct` summarize parameter sets.
#[derive(Clone, Copy)]
struct ChaosPlan {
    tenants: usize,
    rounds: usize,
    distinct: usize,
}

impl ChaosPlan {
    fn for_scale(scale: Scale) -> ChaosPlan {
        if scale.quick {
            ChaosPlan {
                tenants: 3,
                rounds: 16,
                distinct: 4,
            }
        } else {
            ChaosPlan {
                tenants: 4,
                rounds: 60,
                distinct: 4,
            }
        }
    }

    fn total(&self) -> usize {
        self.tenants * self.rounds
    }
}

/// Aggregated outcomes of the storm, by final response disposition.
#[derive(Default)]
struct StormTally {
    ok: u64,
    internal_500: u64,
    rate_limited_429: u64,
    shed_503: u64,
    other: u64,
    transport_errors: u64,
    retries: u64,
    missing_retry_after: u64,
    latencies_ns: Vec<u64>,
}

/// `sorted` must be ascending; `q` in [0, 1]. Nearest-rank on the last
/// index for an empty-safe percentile.
fn percentile_us(sorted: &[u64], q: f64) -> u64 {
    if sorted.is_empty() {
        return 0;
    }
    let ix = ((sorted.len() - 1) as f64 * q).round() as usize;
    sorted[ix.min(sorted.len() - 1)] / 1_000
}

fn counter_delta(name: &str, before: u64) -> u64 {
    prox_obs::counter_value(name)
        .unwrap_or(0)
        .saturating_sub(before)
}

fn header<'a>(headers: &'a [(String, String)], name: &str) -> Option<&'a str> {
    headers
        .iter()
        .find(|(n, _)| n.eq_ignore_ascii_case(name))
        .map(|(_, v)| v.as_str())
}

/// Send one storm request, retrying sheds (429/503) and transport drops
/// under a seeded backoff. Every shed attempt — retried or final — is
/// checked for `Retry-After`; a shed without it counts against the run.
fn storm_request(addr: &str, tenant: &str, body: &str, seed: u64, tally: &mut StormTally) {
    let headers = [("X-Prox-Tenant", tenant.to_owned())];
    let mut backoff = Backoff::new(seed, 2, 50, MAX_RETRIES);
    loop {
        let outcome = client_request_full(
            addr,
            "POST",
            "/summarize",
            &headers,
            body.as_bytes(),
            30_000,
        );
        let shed = matches!(outcome, Ok((429 | 503, _, _)));
        if let Ok((429 | 503, ref resp_headers, _)) = outcome {
            if header(resp_headers, "retry-after").is_none() {
                tally.missing_retry_after += 1;
            }
        }
        if !shed && outcome.is_ok() {
            match outcome {
                Ok((200, _, _)) => tally.ok += 1,
                Ok((500, _, _)) => tally.internal_500 += 1,
                _ => tally.other += 1,
            }
            return;
        }
        match backoff.next_delay_ms() {
            Some(delay_ms) => {
                tally.retries += 1;
                thread::sleep(Duration::from_millis(delay_ms));
            }
            None => {
                match outcome {
                    Ok((429, _, _)) => tally.rate_limited_429 += 1,
                    Ok((503, _, _)) => tally.shed_503 += 1,
                    Ok(_) => tally.other += 1,
                    Err(_) => tally.transport_errors += 1,
                }
                return;
            }
        }
    }
}

/// Probe `/healthz` after the storm, retrying through any lingering
/// connection drops. Returns the final status and attempts consumed.
fn final_healthz(addr: &str) -> (u16, u32) {
    let mut backoff = Backoff::new(0x6EA17, 2, 50, 5);
    loop {
        match client_request_full(addr, "GET", "/healthz", &[], b"", 10_000) {
            Ok((status, _, _)) if status == 200 => return (status, backoff.attempts() + 1),
            outcome => match backoff.next_delay_ms() {
                Some(delay_ms) => thread::sleep(Duration::from_millis(delay_ms)),
                None => {
                    let status = match outcome {
                        Ok((s, _, _)) => s,
                        Err(_) => 0,
                    };
                    return (status, backoff.attempts() + 1);
                }
            },
        }
    }
}

/// Run the chaos soak and record the report as the manifest's `chaos`
/// section. Arms [`CHAOS_FAULT_SPEC`] for the storm when no ambient
/// `PROX_FAULT` plan is active, and disarms it afterwards.
pub fn chaos_experiment(scale: Scale, manifest: &mut RunManifest) -> Result<(), ProxError> {
    let plan = ChaosPlan::for_scale(scale);
    let installed_here = if fault::enabled() {
        false
    } else {
        fault::install(Some(fault::parse_spec(CHAOS_FAULT_SPEC)?));
        true
    };
    let result = chaos_storm(scale, plan, manifest);
    if installed_here {
        fault::install(None);
    }
    result
}

fn chaos_storm(
    _scale: Scale,
    plan: ChaosPlan,
    manifest: &mut RunManifest,
) -> Result<(), ProxError> {
    // A slow bucket: the storm must actually exhaust tenants, or the soak
    // proves nothing.
    let config = ServerConfig {
        addr: "127.0.0.1:0".to_owned(),
        workers: 2,
        queue_capacity: 8,
        cache_capacity: plan.distinct,
        default_budget_ms: 30_000,
        io_deadline_ms: 30_000,
        tenant_rate: 2.0,
        tenant_burst: 3.0,
        ..ServerConfig::default()
    };
    let tenant_rate = config.tenant_rate;
    let tenant_burst = config.tenant_burst;
    let workers = config.workers;

    let panics0 = prox_obs::counter_value("serve/worker_panics").unwrap_or(0);
    let denials0: BTreeMap<String, u64> = tenant_denials().into_iter().collect();

    let handle = Server::start(config)?;
    let addr = handle.addr().to_string();

    let t = Instant::now();
    let mut tally = StormTally::default();
    for i in 0..plan.total() {
        let tenant = format!("tenant-{}", i % plan.tenants);
        let body = format!(
            r#"{{"dataset": "small", "steps": {}, "target_size": {}}}"#,
            2 + (i / plan.tenants) % plan.distinct,
            1 + i % 2,
        );
        let req_start = Instant::now();
        storm_request(&addr, &tenant, &body, 0xC4A05 ^ i as u64, &mut tally);
        tally
            .latencies_ns
            .push(req_start.elapsed().as_nanos() as u64);
    }
    let elapsed = t.elapsed();

    // The storm is over; the pool must still be serving. Probe through any
    // remaining conndrop schedule.
    let (healthz_status, healthz_attempts) = final_healthz(&addr);
    let health_state = handle.health().state().name();
    handle.shutdown();

    let shed_finals = tally.rate_limited_429 + tally.shed_503;
    let answered =
        tally.ok + tally.internal_500 + tally.rate_limited_429 + tally.shed_503 + tally.other;
    let denials_now: BTreeMap<String, u64> = tenant_denials().into_iter().collect();
    let mut tenants_429 = Json::obj();
    for (tenant, count) in &denials_now {
        let delta = count.saturating_sub(denials0.get(tenant).copied().unwrap_or(0));
        if delta > 0 {
            tenants_429.set(tenant, delta);
        }
    }

    let mut report = Json::obj()
        .with(
            "server",
            Json::obj()
                .with("workers", workers)
                .with("tenant_rate", tenant_rate)
                .with("tenant_burst", tenant_burst),
        )
        .with(
            "load",
            Json::obj()
                .with("tenants", plan.tenants)
                .with("rounds", plan.rounds)
                .with("total_requests", plan.total()),
        )
        .with(
            "responses",
            Json::obj()
                .with("ok", tally.ok)
                .with("internal_500", tally.internal_500)
                .with("rate_limited_429", tally.rate_limited_429)
                .with("shed_503", tally.shed_503)
                .with("other", tally.other)
                .with("transport_errors", tally.transport_errors)
                .with("retries", tally.retries)
                .with("answered", answered),
        )
        .with(
            "shed",
            Json::obj()
                .with("count", shed_finals)
                .with("rate", shed_finals as f64 / plan.total() as f64)
                .with("missing_retry_after", tally.missing_retry_after),
        )
        .with(
            "workers_recovered",
            Json::obj()
                .with("panics", counter_delta("serve/worker_panics", panics0))
                .with("health_state_final", health_state),
        )
        .with("tenants_429", tenants_429)
        .with(
            "final_healthz",
            Json::obj()
                .with("status", u64::from(healthz_status))
                .with("attempts", healthz_attempts),
        );

    // Wall-clock overload numbers (p99 under storm, wall seconds) are
    // dropped from deterministic manifests, like every other timing.
    if !manifest.deterministic() {
        tally.latencies_ns.sort_unstable();
        report.set(
            "latency_us",
            Json::obj()
                .with("p50", percentile_us(&tally.latencies_ns, 0.50))
                .with("p99", percentile_us(&tally.latencies_ns, 0.99)),
        );
        report.set("wall_seconds", elapsed.as_secs_f64());
    }
    manifest.extra("chaos", report);
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use prox_robust::FaultGuard;

    #[test]
    fn percentiles_are_empty_safe_and_monotone() {
        assert_eq!(percentile_us(&[], 0.5), 0);
        let sorted: Vec<u64> = (1..=100).map(|i| i * 1_000).collect();
        let p50 = percentile_us(&sorted, 0.50);
        let p99 = percentile_us(&sorted, 0.99);
        assert!(p50 <= p99);
        assert_eq!(p99, 99, "nearest rank of 0.99 over 100 samples");
        assert_eq!(percentile_us(&sorted, 1.0), 100);
    }

    #[test]
    fn quick_chaos_soak_recovers_and_sheds_politely() {
        // Arm the canonical storm under the global fault lock so parallel
        // tests never see injected panics.
        let _g = FaultGuard::install(CHAOS_FAULT_SPEC).expect("canonical spec parses");
        prox_obs::set_enabled(true);
        let scale = Scale::quick();
        let mut manifest = RunManifest::new("chaos", scale);
        manifest.set_deterministic(true);
        chaos_experiment(scale, &mut manifest).expect("chaos run completes");
        let json = manifest.to_json();
        let chaos = json.get("chaos").expect("chaos section recorded");

        // Every offered request was answered with a typed response —
        // conndrop finals aside, nothing hung and nothing was lost.
        let load = chaos.get("load").expect("load");
        let responses = chaos.get("responses").expect("responses");
        let total = load
            .get("total_requests")
            .and_then(Json::as_u64)
            .expect("total");
        let answered = responses
            .get("answered")
            .and_then(Json::as_u64)
            .expect("answered");
        let dropped = responses
            .get("transport_errors")
            .and_then(Json::as_u64)
            .expect("transport errors");
        assert_eq!(answered + dropped, total);

        // The storm actually stormed: panics were injected and recovered,
        // every one reached its client as a typed 500, and nothing else
        // answered 500.
        let workers = chaos.get("workers_recovered").expect("workers");
        let panics = workers.get("panics").and_then(Json::as_u64).unwrap_or(0);
        assert!(panics > 0);
        assert_eq!(
            responses.get("internal_500").and_then(Json::as_u64),
            Some(panics)
        );

        // Every shed carried Retry-After, and the pool outlived the storm.
        let shed = chaos.get("shed").expect("shed");
        assert_eq!(
            shed.get("missing_retry_after").and_then(Json::as_u64),
            Some(0)
        );
        let healthz = chaos.get("final_healthz").expect("final healthz");
        assert_eq!(healthz.get("status").and_then(Json::as_u64), Some(200));

        // Deterministic mode: wall-clock sections are dropped.
        assert!(chaos.get("latency_us").is_none());
        assert!(chaos.get("wall_seconds").is_none());
    }
}
