//! Prometheus text exposition (version 0.0.4) for `GET /metrics`.
//!
//! Every family is label-based — `prox_counter_total{name="..."}` rather
//! than one family per counter — so arbitrary hierarchical counter names
//! never need mangling and each `# HELP`/`# TYPE` pair appears exactly
//! once. Series within a family are sorted by label value, so output
//! order is deterministic (rule L2).
//!
//! Deterministic mode (`PROX_DETERMINISTIC`) drops every wall-clock
//! derived series — span durations, window latency quantiles, summary
//! sums — leaving only schedule-determined counts, so same-seed runs
//! scrape byte-identically.

use crate::alloc;
use crate::registry;
use crate::window;

/// The HTTP `Content-Type` for the rendered exposition.
pub const PROMETHEUS_CONTENT_TYPE: &str = "text/plain; version=0.0.4";

/// Escape a label value per the exposition format: backslash, double
/// quote, and newline must be escaped.
fn escape_label(value: &str) -> String {
    let mut out = String::with_capacity(value.len());
    for c in value.chars() {
        match c {
            '\\' => out.push_str("\\\\"),
            '"' => out.push_str("\\\""),
            '\n' => out.push_str("\\n"),
            c => out.push(c),
        }
    }
    out
}

fn family(out: &mut String, name: &str, help: &str, kind: &str) {
    out.push_str("# HELP ");
    out.push_str(name);
    out.push(' ');
    out.push_str(help);
    out.push('\n');
    out.push_str("# TYPE ");
    out.push_str(name);
    out.push(' ');
    out.push_str(kind);
    out.push('\n');
}

fn series(out: &mut String, name: &str, labels: &[(&str, &str)], value: impl std::fmt::Display) {
    out.push_str(name);
    if !labels.is_empty() {
        out.push('{');
        for (i, (k, v)) in labels.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(k);
            out.push_str("=\"");
            out.push_str(&escape_label(v));
            out.push('"');
        }
        out.push('}');
    }
    out.push(' ');
    out.push_str(&value.to_string());
    out.push('\n');
}

/// Render the full registry + request window as Prometheus text. With
/// `deterministic` set, wall-clock derived series are omitted (see module
/// docs).
pub fn render_prometheus(deterministic: bool) -> String {
    let mut out = String::new();

    family(
        &mut out,
        "prox_counter_total",
        "Workspace counters, by hierarchical name.",
        "counter",
    );
    for (name, value) in registry::counters_sorted() {
        series(&mut out, "prox_counter_total", &[("name", &name)], value);
    }

    family(
        &mut out,
        "prox_gauge",
        "Workspace gauges (queue depth, in-flight requests, busy workers).",
        "gauge",
    );
    for (name, value) in registry::gauges_sorted() {
        series(&mut out, "prox_gauge", &[("name", &name)], value);
    }

    family(
        &mut out,
        "prox_span_count_total",
        "Completed span-timer observations, by span name.",
        "counter",
    );
    let spans = registry::spans_sorted();
    for (name, count, _) in &spans {
        series(&mut out, "prox_span_count_total", &[("name", name)], count);
    }
    if !deterministic {
        family(
            &mut out,
            "prox_span_duration_ns_total",
            "Total time spent inside each span timer, in nanoseconds.",
            "counter",
        );
        for (name, _, total_ns) in &spans {
            series(
                &mut out,
                "prox_span_duration_ns_total",
                &[("name", name)],
                total_ns,
            );
        }
    }

    // Allocator gauges: only meaningful when a CountingAlloc is routing
    // this binary's heap, and — like all measurements — omitted from the
    // deterministic exposition (heap state is not schedule-determined).
    if !deterministic && alloc::installed() {
        let mem = alloc::stats();
        family(
            &mut out,
            "prox_memory_bytes",
            "Heap bytes from the counting allocator (live/peak/total since epoch).",
            "gauge",
        );
        series(
            &mut out,
            "prox_memory_bytes",
            &[("kind", "live")],
            mem.live_bytes,
        );
        series(
            &mut out,
            "prox_memory_bytes",
            &[("kind", "peak")],
            mem.peak_bytes,
        );
        series(
            &mut out,
            "prox_memory_bytes",
            &[("kind", "total")],
            mem.total_bytes,
        );
        family(
            &mut out,
            "prox_memory_allocations_total",
            "Allocation events since the last epoch reset.",
            "counter",
        );
        series(&mut out, "prox_memory_allocations_total", &[], mem.allocs);
    }

    let stats = window::stats(deterministic);
    family(
        &mut out,
        "prox_http_requests_total",
        "HTTP requests served, by endpoint.",
        "counter",
    );
    for e in &stats.endpoints {
        series(
            &mut out,
            "prox_http_requests_total",
            &[("endpoint", &e.endpoint)],
            e.requests,
        );
    }
    family(
        &mut out,
        "prox_http_errors_total",
        "HTTP responses with status >= 400, by endpoint.",
        "counter",
    );
    for e in &stats.endpoints {
        series(
            &mut out,
            "prox_http_errors_total",
            &[("endpoint", &e.endpoint)],
            e.errors,
        );
    }
    family(
        &mut out,
        "prox_http_degraded_total",
        "Requests that degraded to their anytime best-so-far answer.",
        "counter",
    );
    for e in &stats.endpoints {
        series(
            &mut out,
            "prox_http_degraded_total",
            &[("endpoint", &e.endpoint)],
            e.degraded,
        );
    }
    family(
        &mut out,
        "prox_http_shed_total",
        "Connections shed by admission control (503 before routing).",
        "counter",
    );
    series(&mut out, "prox_http_shed_total", &[], stats.shed);

    family(
        &mut out,
        "prox_cache_requests_total",
        "Summary-cache lookups, by endpoint and outcome.",
        "counter",
    );
    for e in &stats.endpoints {
        if e.cache_hits + e.cache_misses == 0 {
            continue;
        }
        series(
            &mut out,
            "prox_cache_requests_total",
            &[("endpoint", &e.endpoint), ("outcome", "hit")],
            e.cache_hits,
        );
        series(
            &mut out,
            "prox_cache_requests_total",
            &[("endpoint", &e.endpoint), ("outcome", "miss")],
            e.cache_misses,
        );
    }

    if !deterministic {
        family(
            &mut out,
            "prox_http_request_duration_us",
            "Request latency over the sliding window, in microseconds.",
            "summary",
        );
        for e in &stats.endpoints {
            let (Some(p50), Some(p95), Some(p99)) = (e.p50_us, e.p95_us, e.p99_us) else {
                continue;
            };
            series(
                &mut out,
                "prox_http_request_duration_us",
                &[("endpoint", &e.endpoint), ("quantile", "0.5")],
                p50,
            );
            series(
                &mut out,
                "prox_http_request_duration_us",
                &[("endpoint", &e.endpoint), ("quantile", "0.95")],
                p95,
            );
            series(
                &mut out,
                "prox_http_request_duration_us",
                &[("endpoint", &e.endpoint), ("quantile", "0.99")],
                p99,
            );
            series(
                &mut out,
                "prox_http_request_duration_us_sum",
                &[("endpoint", &e.endpoint)],
                e.lat_sum_us.unwrap_or(0),
            );
            series(
                &mut out,
                "prox_http_request_duration_us_count",
                &[("endpoint", &e.endpoint)],
                e.window_requests.unwrap_or(0),
            );
        }
    }

    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;

    #[test]
    fn label_escaping_covers_specials() {
        assert_eq!(escape_label(r#"a\b"c"#), r#"a\\b\"c"#);
        assert_eq!(escape_label("x\ny"), "x\\ny");
    }

    /// Structural validity: every non-comment line is `name{labels} value`,
    /// every series name is introduced by HELP+TYPE, no duplicate series.
    #[test]
    fn exposition_is_well_formed_with_no_duplicates() {
        let _serial = crate::test_lock();
        crate::set_enabled(true);
        window::record_request(&window::RequestObservation {
            endpoint: "/summarize",
            status: 200,
            dur_us: 100,
            degraded: false,
            cache: Some(true),
        });
        let text = render_prometheus(false);
        let mut helped = BTreeSet::new();
        let mut typed = BTreeSet::new();
        let mut seen = BTreeSet::new();
        for line in text.lines() {
            if let Some(rest) = line.strip_prefix("# HELP ") {
                let fam = rest.split(' ').next().unwrap().to_owned();
                assert!(helped.insert(fam.clone()), "duplicate HELP for {fam}");
                continue;
            }
            if let Some(rest) = line.strip_prefix("# TYPE ") {
                let fam = rest.split(' ').next().unwrap().to_owned();
                assert!(typed.insert(fam.clone()), "duplicate TYPE for {fam}");
                continue;
            }
            let (series_id, value) = line.rsplit_once(' ').expect("name value");
            assert!(value.parse::<f64>().is_ok(), "bad value in {line}");
            assert!(
                seen.insert(series_id.to_owned()),
                "duplicate series {series_id}"
            );
            let base = series_id.split('{').next().unwrap();
            let base = base
                .strip_suffix("_sum")
                .or_else(|| base.strip_suffix("_count"))
                .filter(|b| helped.contains(*b))
                .unwrap_or(base);
            assert!(helped.contains(base), "series {base} missing HELP");
            assert!(typed.contains(base), "series {base} missing TYPE");
        }
        assert!(text.contains("prox_http_requests_total{endpoint=\"/summarize\"}"));
        assert!(text.contains("quantile=\"0.99\""));
    }

    #[test]
    fn deterministic_exposition_has_no_wall_clock_series() {
        let _serial = crate::test_lock();
        crate::set_enabled(true);
        let text = render_prometheus(true);
        assert!(!text.contains("prox_span_duration_ns_total"), "{text}");
        assert!(!text.contains("quantile="), "{text}");
    }
}
