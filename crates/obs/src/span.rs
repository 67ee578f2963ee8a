//! RAII span timers with hierarchical names — the one way to time a phase.
//!
//! A [`SpanTimer`] is a `static` naming one phase of the system
//! (`"summarize/step/score"`, `"hac/linkage"`, ...).
//! [`SpanTimer::enter`] reads the clock once and returns a [`SpanGuard`];
//! one guard feeds every consumer of the phase:
//!
//! * while observability is enabled, its close records the elapsed time
//!   into the timer's log-spaced [`Histogram`], adds the allocation delta,
//!   emits one JSONL event if a trace sink is installed, and pushes/pops
//!   exactly one profiler frame named after the span;
//! * when entered with a [`TraceContext`], it opens a trace node named
//!   after the span's last `/` segment and closes it on drop, whether or
//!   not observability is enabled;
//! * [`SpanGuard::elapsed`] and [`SpanGuard::finish`] hand the same
//!   duration to callers that keep their own record (`StepRecord`).
//!
//! While observability is disabled and no trace is given, `enter` is one
//! relaxed atomic load plus one clock read, and dropping the guard does
//! nothing.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::time::{Duration, Instant};

use crate::histogram::Histogram;
use crate::json::Json;
use crate::trace::TraceContext;
use crate::{alloc, prof, registry, sink};

/// A named span timer feeding a duration histogram.
pub struct SpanTimer {
    name: &'static str,
    hist: Histogram,
    registered: AtomicBool,
    /// Heap bytes / allocation events attributed to closed instances of
    /// this span (process-global deltas, so concurrent threads' traffic
    /// is included — see `obs/src/alloc.rs` docs).
    alloc_bytes: AtomicU64,
    allocs: AtomicU64,
}

impl SpanTimer {
    /// Create a span timer. `const`, so timers can be plain statics.
    pub const fn new(name: &'static str) -> SpanTimer {
        SpanTimer {
            name,
            hist: Histogram::new(),
            registered: AtomicBool::new(false),
            alloc_bytes: AtomicU64::new(0),
            allocs: AtomicU64::new(0),
        }
    }

    /// The span's hierarchical name, e.g. `"summarize/step/enumerate"`.
    pub fn name(&self) -> &'static str {
        self.name
    }

    /// Enter the phase: read the clock, push a profiler frame while
    /// observability is on, and open a node in `trace` when one is given.
    /// Everything is recorded when the returned guard closes.
    #[inline]
    pub fn enter(&'static self, trace: Option<&TraceContext>) -> SpanGuard {
        let on = registry::enabled();
        let pushed = on && prof::push(self.name);
        let alloc_at_entry = if on { Some(alloc::totals()) } else { None };
        let start = Instant::now();
        let node = trace.and_then(|t| {
            let tail = self
                .name
                .rsplit_once('/')
                .map_or(self.name, |(_, tail)| tail);
            t.span(tail, start).map(|ix| (t.clone(), ix))
        });
        SpanGuard {
            timer: self,
            start,
            alloc_at_entry,
            pushed,
            node,
        }
    }

    /// [`SpanTimer::enter`] with no trace.
    #[inline]
    pub fn start(&'static self) -> SpanGuard {
        self.enter(None)
    }

    fn record(&'static self, d: Duration) {
        registry::register_once(&self.registered, &registry::SPANS, self);
        let ns = u64::try_from(d.as_nanos()).unwrap_or(u64::MAX);
        self.hist.record_ns(ns);
        if sink::active() {
            sink::emit(
                Json::obj()
                    .with("type", "span")
                    .with("name", self.name)
                    .with("dur_ns", ns),
            );
        }
    }

    /// The underlying histogram (for snapshots and tests).
    pub fn histogram(&self) -> &Histogram {
        &self.hist
    }

    /// Heap bytes attributed to closed instances of this span since the
    /// last reset (0 when no counting allocator is installed).
    pub fn alloc_bytes(&self) -> u64 {
        self.alloc_bytes.load(Ordering::Relaxed)
    }

    /// Allocation events attributed to closed instances of this span.
    pub fn alloc_count(&self) -> u64 {
        self.allocs.load(Ordering::Relaxed)
    }

    fn add_alloc_delta(&'static self, bytes: u64, allocs: u64) {
        if bytes > 0 || allocs > 0 {
            self.alloc_bytes.fetch_add(bytes, Ordering::Relaxed);
            self.allocs.fetch_add(allocs, Ordering::Relaxed);
        }
    }

    pub(crate) fn reset(&self) {
        self.hist.reset();
        self.alloc_bytes.store(0, Ordering::Relaxed);
        self.allocs.store(0, Ordering::Relaxed);
    }
}

/// RAII guard returned by [`SpanTimer::enter`]; closes the phase on drop
/// or at [`SpanGuard::finish`].
pub struct SpanGuard {
    timer: &'static SpanTimer,
    start: Instant,
    /// Allocator totals at entry; `Some` iff observability was on then, so
    /// this guard records into its timer.
    alloc_at_entry: Option<(u64, u64)>,
    /// Whether this guard pushed a profiler frame (and so must pop one).
    pushed: bool,
    /// The trace node this guard closes.
    node: Option<(TraceContext, usize)>,
}

impl SpanGuard {
    /// Time since the phase was entered.
    pub fn elapsed(&self) -> Duration {
        self.start.elapsed()
    }

    /// Close the phase now and return its duration — the one recorded in
    /// the histogram and the trace.
    pub fn finish(mut self) -> Duration {
        self.close()
    }

    /// Pop the profiler frame, then record, then close the trace node: the
    /// profiler and trace locks are taken one after the other, never
    /// nested. Leaves the guard inert, so a later drop does nothing.
    fn close(&mut self) -> Duration {
        let dur = self.start.elapsed();
        if std::mem::take(&mut self.pushed) {
            prof::pop();
        }
        if let Some((bytes0, allocs0)) = self.alloc_at_entry.take() {
            let (bytes1, allocs1) = alloc::totals();
            self.timer.add_alloc_delta(
                bytes1.saturating_sub(bytes0),
                allocs1.saturating_sub(allocs0),
            );
            self.timer.record(dur);
        }
        if let Some((trace, ix)) = self.node.take() {
            trace.close(ix, dur);
        }
        dur
    }
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        if self.pushed || self.alloc_at_entry.is_some() || self.node.is_some() {
            self.close();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::trace::trace_id_from;

    static SPAN: SpanTimer = SpanTimer::new("test/span");
    static TRACED: SpanTimer = SpanTimer::new("test/traced");
    static PHASE: SpanTimer = SpanTimer::new("test/traced/phase");

    #[test]
    fn guard_records_on_drop() {
        let _serial = crate::test_lock();
        crate::set_enabled(true);
        let before = SPAN.histogram().count();
        {
            let g = SPAN.start();
            std::thread::sleep(Duration::from_millis(1));
            assert!(g.elapsed() >= Duration::from_millis(1));
        }
        let total = SPAN.histogram().total_ns();
        let d = SPAN.start().finish();
        assert_eq!(SPAN.histogram().count(), before + 2);
        assert!(SPAN.histogram().max_ns().expect("recorded") >= 1_000_000);
        assert_eq!(
            SPAN.histogram().total_ns() - total,
            u64::try_from(d.as_nanos()).expect("short span"),
            "finish returns the recorded duration"
        );
    }

    #[test]
    fn traced_guard_opens_a_node_named_after_the_last_segment() {
        let _serial = crate::test_lock();
        let trace = TraceContext::new(trace_id_from(5, 0));
        {
            let _outer = TRACED.enter(Some(&trace));
            PHASE.enter(Some(&trace)).finish();
        }
        let tree = trace.to_json();
        let Some(Json::Arr(roots)) = tree.get("spans") else {
            panic!("spans not an array: {tree:?}");
        };
        assert_eq!(roots.len(), 1);
        assert_eq!(roots[0].get("name").and_then(Json::as_str), Some("traced"));
        let Some(Json::Arr(children)) = roots[0].get("children") else {
            panic!("children missing: {tree:?}");
        };
        assert_eq!(
            children[0].get("name").and_then(Json::as_str),
            Some("phase")
        );
        assert!(children[0].get("dur_us").and_then(Json::as_u64).is_some());
    }
}
