//! Process-global sliding-window request aggregation.
//!
//! The serve layer reports every finished request here ([`record_request`])
//! and every shed admission ([`record_shed`]). The window keeps, per
//! endpoint:
//!
//! * cumulative totals since start/reset (requests, errors, degraded runs,
//!   cache hits/misses) — monotone, wall-clock-free, and therefore safe to
//!   expose under `PROX_DETERMINISTIC`;
//! * per-second latency buckets over the last [`WINDOW_SECS`] seconds,
//!   from which `GET /metrics` and `prox stats` derive p50/p95/p99/mean.
//!
//! Recording is gated on the registry's enabled flag, so the disabled cost
//! is one relaxed atomic load (the workspace cost model). Enabled cost is
//! one short-held mutex; latency samples are capped per bucket so memory
//! is fixed.
//!
//! Determinism (rule L2): output is sorted by endpoint name, and
//! [`stats`]`(true)` omits everything derived from the wall clock —
//! window counts, percentiles, means — leaving only the cumulative
//! totals, which depend solely on the request schedule.

use std::sync::Mutex;
use std::time::Instant;

use crate::json::Json;
use crate::registry;

/// Length of the sliding window, in seconds.
pub const WINDOW_SECS: u64 = 60;

/// Per-second ring slots; a little larger than the window so a slot is
/// never read and rewritten in the same second.
const NBUCKETS: usize = 64;

/// Latency samples kept per endpoint per second; beyond this the bucket
/// keeps counts but drops samples (fixed memory under load).
const MAX_SAMPLES: usize = 512;

/// One finished request, as reported by the serve layer.
#[derive(Debug)]
pub struct RequestObservation<'a> {
    /// Endpoint path with any query string stripped, e.g. `"/summarize"`.
    pub endpoint: &'a str,
    /// HTTP status of the response.
    pub status: u16,
    /// End-to-end duration in microseconds.
    pub dur_us: u64,
    /// Did the run degrade to its anytime best-so-far answer?
    pub degraded: bool,
    /// `Some(true)` = summary-cache hit, `Some(false)` = miss,
    /// `None` = not a cacheable route.
    pub cache: Option<bool>,
}

#[derive(Debug, Default, Clone)]
struct Tally {
    requests: u64,
    errors: u64,
    degraded: u64,
    cache_hits: u64,
    cache_misses: u64,
}

impl Tally {
    fn absorb(&mut self, obs: &RequestObservation<'_>) {
        self.requests += 1;
        if obs.status >= 400 {
            self.errors += 1;
        }
        if obs.degraded {
            self.degraded += 1;
        }
        match obs.cache {
            Some(true) => self.cache_hits += 1,
            Some(false) => self.cache_misses += 1,
            None => {}
        }
    }
}

#[derive(Debug)]
struct BucketEndpoint {
    endpoint: String,
    tally: Tally,
    lat_us: Vec<u64>,
    lat_sum_us: u64,
    lat_count: u64,
}

#[derive(Debug)]
struct Bucket {
    /// Seconds since `t0` when this slot was last written; slots whose
    /// epoch has fallen out of the window are ignored (and rewritten).
    epoch: u64,
    endpoints: Vec<BucketEndpoint>,
    shed: u64,
}

#[derive(Debug)]
struct WindowState {
    t0: Instant,
    buckets: Vec<Bucket>,
    totals: Vec<(String, Tally)>,
    shed_total: u64,
}

impl WindowState {
    fn new() -> WindowState {
        WindowState {
            t0: Instant::now(),
            buckets: (0..NBUCKETS)
                .map(|_| Bucket {
                    epoch: u64::MAX,
                    endpoints: Vec::new(),
                    shed: 0,
                })
                .collect(),
            totals: Vec::new(),
            shed_total: 0,
        }
    }

    fn bucket_now(&mut self) -> &mut Bucket {
        let epoch = self.t0.elapsed().as_secs();
        let slot = &mut self.buckets[(epoch % NBUCKETS as u64) as usize];
        if slot.epoch != epoch {
            slot.epoch = epoch;
            slot.endpoints.clear();
            slot.shed = 0;
        }
        slot
    }
}

static WINDOW: Mutex<Option<WindowState>> = Mutex::new(None);

fn with_state<R>(f: impl FnOnce(&mut WindowState) -> R) -> R {
    let mut guard = crate::lock(&WINDOW);
    f(guard.get_or_insert_with(WindowState::new))
}

/// Report one finished request. A no-op (one relaxed load) while
/// observability is disabled.
pub fn record_request(obs: &RequestObservation<'_>) {
    if !registry::enabled() {
        return;
    }
    with_state(|state| {
        match state.totals.iter_mut().find(|(ep, _)| ep == obs.endpoint) {
            Some((_, tally)) => tally.absorb(obs),
            None => {
                let mut tally = Tally::default();
                tally.absorb(obs);
                state.totals.push((obs.endpoint.to_owned(), tally));
            }
        }
        let bucket = state.bucket_now();
        if !bucket.endpoints.iter().any(|e| e.endpoint == obs.endpoint) {
            bucket.endpoints.push(BucketEndpoint {
                endpoint: obs.endpoint.to_owned(),
                tally: Tally::default(),
                lat_us: Vec::new(),
                lat_sum_us: 0,
                lat_count: 0,
            });
        }
        let Some(slot) = bucket
            .endpoints
            .iter_mut()
            .find(|e| e.endpoint == obs.endpoint)
        else {
            return;
        };
        slot.tally.absorb(obs);
        slot.lat_sum_us += obs.dur_us;
        slot.lat_count += 1;
        if slot.lat_us.len() < MAX_SAMPLES {
            slot.lat_us.push(obs.dur_us);
        }
    });
}

/// Report one shed admission (503 before routing). A no-op while
/// observability is disabled.
pub fn record_shed() {
    if !registry::enabled() {
        return;
    }
    with_state(|state| {
        state.shed_total += 1;
        state.bucket_now().shed += 1;
    });
}

/// Zero the window (totals, buckets, shed counts). The clock restarts.
pub(crate) fn reset() {
    *crate::lock(&WINDOW) = None;
}

/// Aggregated view of one endpoint, cumulative totals plus (outside
/// deterministic mode) sliding-window latency statistics.
#[derive(Debug, Clone)]
pub struct EndpointStats {
    /// Endpoint path, e.g. `"/summarize"`.
    pub endpoint: String,
    /// Cumulative request count since start/reset.
    pub requests: u64,
    /// Cumulative responses with status >= 400.
    pub errors: u64,
    /// Cumulative degraded (anytime best-so-far) runs.
    pub degraded: u64,
    /// Cumulative summary-cache hits.
    pub cache_hits: u64,
    /// Cumulative summary-cache misses.
    pub cache_misses: u64,
    /// Requests inside the sliding window (`None` in deterministic mode).
    pub window_requests: Option<u64>,
    /// Sum of window latencies in microseconds.
    pub lat_sum_us: Option<u64>,
    /// Window latency percentiles/mean in microseconds (nearest-rank;
    /// `None` in deterministic mode or with no window samples).
    pub p50_us: Option<u64>,
    /// 95th percentile, see [`EndpointStats::p50_us`].
    pub p95_us: Option<u64>,
    /// 99th percentile, see [`EndpointStats::p50_us`].
    pub p99_us: Option<u64>,
    /// Window mean, see [`EndpointStats::p50_us`].
    pub mean_us: Option<u64>,
}

/// Aggregated view over all endpoints, sorted by endpoint name.
#[derive(Debug, Clone)]
pub struct WindowStats {
    /// The window length used for latency statistics.
    pub window_secs: u64,
    /// Cumulative shed admissions since start/reset.
    pub shed: u64,
    /// Per-endpoint statistics, sorted by endpoint.
    pub endpoints: Vec<EndpointStats>,
}

/// Nearest-rank percentile of an ascending-sorted slice.
fn percentile(sorted: &[u64], q: f64) -> Option<u64> {
    if sorted.is_empty() {
        return None;
    }
    let rank = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
    Some(sorted[rank - 1])
}

/// Snapshot the window. With `deterministic` set, everything derived from
/// the wall clock (window counts, percentiles, means) is omitted and only
/// the cumulative, schedule-determined totals remain.
pub fn stats(deterministic: bool) -> WindowStats {
    with_state(|state| {
        let mut endpoints: Vec<EndpointStats> = state
            .totals
            .iter()
            .map(|(ep, t)| EndpointStats {
                endpoint: ep.clone(),
                requests: t.requests,
                errors: t.errors,
                degraded: t.degraded,
                cache_hits: t.cache_hits,
                cache_misses: t.cache_misses,
                window_requests: None,
                lat_sum_us: None,
                p50_us: None,
                p95_us: None,
                p99_us: None,
                mean_us: None,
            })
            .collect();
        endpoints.sort_by(|a, b| a.endpoint.cmp(&b.endpoint));

        if !deterministic {
            let now_epoch = state.t0.elapsed().as_secs();
            for stat in &mut endpoints {
                let mut samples: Vec<u64> = Vec::new();
                let mut in_window = 0u64;
                let mut sum = 0u64;
                for bucket in &state.buckets {
                    let live = bucket.epoch <= now_epoch && now_epoch - bucket.epoch < WINDOW_SECS;
                    if !live {
                        continue;
                    }
                    if let Some(slot) = bucket
                        .endpoints
                        .iter()
                        .find(|e| e.endpoint == stat.endpoint)
                    {
                        in_window += slot.lat_count;
                        sum += slot.lat_sum_us;
                        samples.extend_from_slice(&slot.lat_us);
                    }
                }
                stat.window_requests = Some(in_window);
                stat.lat_sum_us = Some(sum);
                samples.sort_unstable();
                stat.p50_us = percentile(&samples, 0.50);
                stat.p95_us = percentile(&samples, 0.95);
                stat.p99_us = percentile(&samples, 0.99);
                stat.mean_us = if samples.is_empty() {
                    None
                } else {
                    Some(sum / in_window.max(1))
                };
            }
        }

        WindowStats {
            window_secs: WINDOW_SECS,
            shed: state.shed_total,
            endpoints,
        }
    })
}

/// Render [`stats`] as JSON for `/metrics.json` and `prox stats`:
///
/// ```json
/// {"window_secs": 60, "shed": 0,
///  "endpoints": {"/summarize": {"requests": 4, "errors": 0, "degraded": 1,
///                "cache_hits": 2, "cache_misses": 2,
///                "window_requests": 4, "p50_us": 812, ...}}}
/// ```
///
/// Deterministic mode drops the wall-clock fields (`window_requests` and
/// the latency statistics) so same-seed runs render byte-identically.
pub fn window_json(deterministic: bool) -> Json {
    let stats = stats(deterministic);
    let mut endpoints = Json::obj();
    for e in &stats.endpoints {
        let mut entry = Json::obj()
            .with("requests", e.requests)
            .with("errors", e.errors)
            .with("degraded", e.degraded)
            .with("cache_hits", e.cache_hits)
            .with("cache_misses", e.cache_misses);
        if let Some(n) = e.window_requests {
            entry.set("window_requests", n);
            entry.set("p50_us", e.p50_us.map_or(Json::Null, Json::UInt));
            entry.set("p95_us", e.p95_us.map_or(Json::Null, Json::UInt));
            entry.set("p99_us", e.p99_us.map_or(Json::Null, Json::UInt));
            entry.set("mean_us", e.mean_us.map_or(Json::Null, Json::UInt));
        }
        endpoints.set(&e.endpoint, entry);
    }
    Json::obj()
        .with("window_secs", stats.window_secs)
        .with("shed", stats.shed)
        .with("endpoints", endpoints)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn obs(endpoint: &str, status: u16, dur_us: u64) -> RequestObservation<'_> {
        RequestObservation {
            endpoint,
            status,
            dur_us,
            degraded: false,
            cache: None,
        }
    }

    #[test]
    fn records_totals_and_percentiles() {
        let _serial = crate::test_lock();
        crate::set_enabled(true);
        reset();
        for i in 1..=100u64 {
            record_request(&obs("/w", 200, i * 10));
        }
        record_request(&RequestObservation {
            endpoint: "/w",
            status: 408,
            dur_us: 5,
            degraded: true,
            cache: Some(false),
        });
        record_shed();

        let s = stats(false);
        assert_eq!(s.shed, 1);
        let e = s.endpoints.iter().find(|e| e.endpoint == "/w").expect("/w");
        assert_eq!(e.requests, 101);
        assert_eq!(e.errors, 1);
        assert_eq!(e.degraded, 1);
        assert_eq!(e.cache_misses, 1);
        assert_eq!(e.window_requests, Some(101));
        let p50 = e.p50_us.expect("p50");
        let p99 = e.p99_us.expect("p99");
        assert!(p50 <= p99, "p50={p50} p99={p99}");
        assert!((400..=600).contains(&p50), "p50={p50}");
        reset();
    }

    #[test]
    fn deterministic_stats_omit_wall_clock_fields() {
        let _serial = crate::test_lock();
        crate::set_enabled(true);
        reset();
        record_request(&obs("/d", 200, 123));
        let s = stats(true);
        let e = s.endpoints.iter().find(|e| e.endpoint == "/d").expect("/d");
        assert_eq!(e.requests, 1);
        assert_eq!(e.window_requests, None);
        assert_eq!(e.p50_us, None);
        let rendered = window_json(true).render();
        assert!(!rendered.contains("p50_us"), "{rendered}");
        assert!(!rendered.contains("window_requests"), "{rendered}");
        reset();
    }

    #[test]
    fn endpoints_render_sorted() {
        let _serial = crate::test_lock();
        crate::set_enabled(true);
        reset();
        record_request(&obs("/z", 200, 1));
        record_request(&obs("/a", 200, 1));
        let s = stats(true);
        let names: Vec<&str> = s.endpoints.iter().map(|e| e.endpoint.as_str()).collect();
        assert_eq!(names, vec!["/a", "/z"]);
        reset();
    }

    #[test]
    fn percentile_is_nearest_rank() {
        assert_eq!(percentile(&[], 0.5), None);
        assert_eq!(percentile(&[7], 0.5), Some(7));
        assert_eq!(percentile(&[1, 2, 3, 4], 0.5), Some(2));
        assert_eq!(percentile(&[1, 2, 3, 4], 0.99), Some(4));
    }
}
