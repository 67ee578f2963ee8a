//! The process-global observability registry.
//!
//! Holds every [`Counter`] and [`SpanTimer`] that has self-registered
//! (i.e. has been touched at least once while enabled) and turns them
//! into deterministic JSON snapshots. The enabled flag is a single
//! relaxed `AtomicBool`: while it is off, every counter call in the
//! workspace reduces to one load and an early return, and an untraced span
//! to that load plus one clock read, so shipping instrumented binaries
//! costs ~nothing.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Mutex;

use crate::counter::Counter;
use crate::gauge::Gauge;
use crate::json::Json;
use crate::sink;
use crate::span::SpanTimer;
use crate::window;

static ENABLED: AtomicBool = AtomicBool::new(false);
pub(crate) static COUNTERS: Mutex<Vec<&'static Counter>> = Mutex::new(Vec::new());
pub(crate) static GAUGES: Mutex<Vec<&'static Gauge>> = Mutex::new(Vec::new());
pub(crate) static SPANS: Mutex<Vec<&'static SpanTimer>> = Mutex::new(Vec::new());

/// Is observability collection on? Inlined into every hot-path gate.
#[inline(always)]
pub fn enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

/// Turn collection on or off. Already-collected values are kept.
pub fn set_enabled(on: bool) {
    ENABLED.store(on, Ordering::Relaxed);
}

/// Enable collection — and install a JSONL trace sink — from the
/// environment: `PROX_TRACE=<path>` enables tracing to `<path>`,
/// `PROX_TRACE=1` (or empty) enables collection without a sink.
/// Returns whether collection ended up enabled.
pub fn init_from_env() -> bool {
    match std::env::var("PROX_TRACE") {
        Err(_) => enabled(),
        Ok(v) if v.is_empty() || v == "1" || v == "true" => {
            set_enabled(true);
            true
        }
        Ok(path) => {
            set_enabled(true);
            if let Err(e) = sink::install(&path) {
                eprintln!("prox-obs: cannot open PROX_TRACE={path}: {e}");
            }
            true
        }
    }
}

/// Add `entry` to `list` the first time any caller finds `registered`
/// unset: how counters, gauges and span timers register on first use. A
/// relaxed load answers every later call, so a hot counter pays no
/// read-modify-write; the swap lets exactly one of several racing first
/// callers push. Both stay relaxed because the flag publishes nothing:
/// `list` is read only under its own lock.
#[inline]
pub(crate) fn register_once<T>(
    registered: &AtomicBool,
    list: &Mutex<Vec<&'static T>>,
    entry: &'static T,
) {
    if !registered.load(Ordering::Relaxed) && !registered.swap(true, Ordering::Relaxed) {
        crate::lock(list).push(entry);
    }
}

/// Zero every registered counter, gauge, and histogram — and the request
/// window — keeping registrations, so the next snapshot still lists them.
/// Used between bench experiments.
pub fn reset() {
    for c in crate::lock(&COUNTERS).iter() {
        c.reset();
    }
    for g in crate::lock(&GAUGES).iter() {
        g.reset();
    }
    for s in crate::lock(&SPANS).iter() {
        s.reset();
    }
    window::reset();
    // Re-base the allocation counters so per-experiment manifests report
    // peak/total for their own window. Profiler samples are deliberately
    // NOT cleared: a folded profile covers the whole process run.
    crate::alloc::epoch_reset();
}

/// Current value of a registered counter, by name.
pub fn counter_value(name: &str) -> Option<u64> {
    crate::lock(&COUNTERS)
        .iter()
        .find(|c| c.name() == name)
        .map(|c| c.get())
}

/// Name/value pairs of every registered counter, in registration order.
/// Used by trace contexts to compute per-span counter deltas.
pub(crate) fn counter_values() -> Vec<(&'static str, u64)> {
    crate::lock(&COUNTERS)
        .iter()
        .map(|c| (c.name(), c.get()))
        .collect()
}

/// Sorted `(name, value)` pairs of every registered counter.
pub fn counters_sorted() -> Vec<(String, u64)> {
    let mut counters: Vec<(String, u64)> = crate::lock(&COUNTERS)
        .iter()
        .map(|c| (c.name().to_owned(), c.get()))
        .collect();
    counters.sort();
    counters
}

/// Sorted `(name, value)` pairs of every registered gauge.
pub fn gauges_sorted() -> Vec<(String, i64)> {
    let mut gauges: Vec<(String, i64)> = crate::lock(&GAUGES)
        .iter()
        .map(|g| (g.name().to_owned(), g.get()))
        .collect();
    gauges.sort();
    gauges
}

/// Sorted `(name, count, total_ns)` triples of every registered span
/// timer. Used by the Prometheus renderer.
pub fn spans_sorted() -> Vec<(String, u64, u64)> {
    let mut spans: Vec<(String, u64, u64)> = crate::lock(&SPANS)
        .iter()
        .map(|s| {
            let h = s.histogram();
            (s.name().to_owned(), h.count(), h.total_ns())
        })
        .collect();
    spans.sort();
    spans
}

/// A deterministic JSON snapshot of everything registered:
///
/// ```json
/// {"counters": {"distance/evaluations": 123, ...},
///  "spans": {"summarize/step": {"count":..,"total_ns":..,"min_ns":..,
///            "max_ns":..,"mean_ns":..,"buckets":[[ub_ns,count],..]}, ...}}
/// ```
///
/// Counter and span names are sorted, bucket lists omit empty buckets.
pub fn snapshot() -> Json {
    let mut counters: Vec<(String, u64)> = crate::lock(&COUNTERS)
        .iter()
        .map(|c| (c.name().to_owned(), c.get()))
        .collect();
    counters.sort();
    let mut counters_json = Json::obj();
    for (name, value) in counters {
        counters_json.set(&name, value);
    }

    let mut gauges_json = Json::obj();
    for (name, value) in gauges_sorted() {
        gauges_json.set(&name, Json::Int(value));
    }

    let mut spans: Vec<(String, Json)> = crate::lock(&SPANS)
        .iter()
        .map(|s| {
            let h = s.histogram();
            let buckets: Vec<Json> = h
                .nonzero_buckets()
                .into_iter()
                .map(|(ub, n)| Json::Arr(vec![Json::UInt(ub), Json::UInt(n)]))
                .collect();
            let entry = Json::obj()
                .with("count", h.count())
                .with("total_ns", h.total_ns())
                .with("min_ns", h.min_ns().map_or(Json::Null, Json::UInt))
                .with("max_ns", h.max_ns().map_or(Json::Null, Json::UInt))
                .with("mean_ns", h.mean_ns().map_or(Json::Null, Json::UInt))
                .with("alloc_bytes", s.alloc_bytes())
                .with("allocs", s.alloc_count())
                .with("buckets", Json::Arr(buckets));
            (s.name().to_owned(), entry)
        })
        .collect();
    spans.sort_by(|a, b| a.0.cmp(&b.0));
    let mut spans_json = Json::obj();
    for (name, entry) in spans {
        spans_json.set(&name, entry);
    }

    Json::obj()
        .with("counters", counters_json)
        .with("gauges", gauges_json)
        .with("spans", spans_json)
}

/// Render [`snapshot`] for humans: counters first, then span timings with
/// totals in milliseconds.
pub fn render_snapshot() -> String {
    let snap = snapshot();
    let mut out = String::new();
    out.push_str("counters:\n");
    let counters = snap.get("counters").and_then(Json::entries).unwrap_or(&[]);
    if counters.is_empty() {
        out.push_str("  (none recorded)\n");
    }
    for (name, value) in counters {
        let v = value.as_u64().unwrap_or(0);
        out.push_str(&format!("  {name:<40} {v}\n"));
    }
    let gauges = snap.get("gauges").and_then(Json::entries).unwrap_or(&[]);
    if !gauges.is_empty() {
        out.push_str("gauges:\n");
        for (name, value) in gauges {
            out.push_str(&format!("  {name:<40} {}\n", value.render()));
        }
    }
    out.push_str("spans:\n");
    let spans = snap.get("spans").and_then(Json::entries).unwrap_or(&[]);
    if spans.is_empty() {
        out.push_str("  (none recorded)\n");
    }
    for (name, entry) in spans {
        let count = entry.get("count").and_then(Json::as_u64).unwrap_or(0);
        let total = entry.get("total_ns").and_then(Json::as_u64).unwrap_or(0);
        let mean = entry.get("mean_ns").and_then(Json::as_u64).unwrap_or(0);
        let alloc_bytes = entry.get("alloc_bytes").and_then(Json::as_u64).unwrap_or(0);
        if alloc_bytes > 0 {
            out.push_str(&format!(
                "  {name:<40} n={count:<8} total={:.3}ms mean={:.3}ms alloc={:.1}KiB\n",
                total as f64 / 1e6,
                mean as f64 / 1e6,
                alloc_bytes as f64 / 1024.0,
            ));
        } else {
            out.push_str(&format!(
                "  {name:<40} n={count:<8} total={:.3}ms mean={:.3}ms\n",
                total as f64 / 1e6,
                mean as f64 / 1e6,
            ));
        }
    }
    out.push_str("memory:\n");
    let mem = crate::alloc::stats();
    if mem.installed {
        out.push_str(&format!("  {:<40} {}\n", "live_bytes", mem.live_bytes));
        out.push_str(&format!("  {:<40} {}\n", "peak_bytes", mem.peak_bytes));
        out.push_str(&format!("  {:<40} {}\n", "total_bytes", mem.total_bytes));
        out.push_str(&format!("  {:<40} {}\n", "allocations", mem.allocs));
    } else {
        out.push_str("  (counting allocator not installed in this binary)\n");
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    static SNAP_COUNTER: Counter = Counter::new("test/snapshot_counter");
    static SNAP_SPAN: SpanTimer = SpanTimer::new("test/snapshot_span");

    #[test]
    fn snapshot_contains_registered_entries() {
        let _serial = crate::test_lock();
        set_enabled(true);
        SNAP_COUNTER.add(7);
        SNAP_SPAN.start().finish();
        let snap = snapshot();
        let counters = snap.get("counters").expect("counters");
        assert!(counters.get("test/snapshot_counter").is_some());
        assert!(counter_value("test/snapshot_counter").expect("registered") >= 7);
        let span = snap
            .get("spans")
            .and_then(|s| s.get("test/snapshot_span"))
            .expect("span entry");
        assert!(span.get("count").and_then(Json::as_u64).unwrap() >= 1);
        // Snapshot renders to valid JSON.
        Json::parse(&snap.pretty()).expect("valid snapshot JSON");
        // Human rendering mentions both.
        let text = render_snapshot();
        assert!(text.contains("test/snapshot_counter"));
        assert!(text.contains("test/snapshot_span"));
    }
}
