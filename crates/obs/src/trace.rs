//! Request-scoped trace contexts and the retained-trace ring buffer.
//!
//! A [`TraceContext`] records one request's span tree: each span carries a
//! name, its parent, a start offset, a duration, the per-span deltas of
//! every registered counter, and arbitrary attributes (`stop_reason`,
//! candidate counts, HTTP status). Nodes open and close only through
//! [`crate::SpanGuard`]s entered with the context
//! (`SpanTimer::enter(Some(&trace))`), so a traced phase is timed once for
//! the trace and the registry alike. The context is a cheap-to-clone `Arc`
//! designed to piggyback on the `ExecutionBudget` plumbing, so the serve
//! request path carries it into the summarizer, HAC, and candidate
//! enumeration without new parameter threading.
//!
//! Completed traces land in a fixed-capacity [`TraceRing`] under a
//! tail-sampling policy: errored/degraded/slow requests are always
//! retained, the rest are sampled at a seeded, deterministic rate
//! ([`keep_sampled`]). When the ring is full the oldest *sampled* trace is
//! evicted first, so the interesting tail survives bursts of healthy
//! traffic.
//!
//! Determinism: trace ids come from [`trace_id_from`] — an FNV-1a hash of
//! a configured seed and a process-local sequence number — never from the
//! wall clock or the PID (rule L2).

use std::collections::VecDeque;
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use crate::fnv::fnv64;
use crate::json::Json;
use crate::{alloc, registry};

/// Spans retained per trace; further spans are counted as dropped.
pub const MAX_TRACE_SPANS: usize = 256;

/// Deterministic trace id for the `seq`-th request of a server seeded
/// with `seed`. Never zero.
pub fn trace_id_from(seed: u64, seq: u64) -> u64 {
    let mut bytes = [0u8; 16];
    bytes[..8].copy_from_slice(&seed.to_le_bytes());
    bytes[8..].copy_from_slice(&seq.to_le_bytes());
    fnv64(&bytes).max(1)
}

/// Deterministic tail-sampling decision: should a *healthy* request with
/// this trace id be retained at `rate` (in `[0,1]`)? Same seed, id, and
/// rate always agree, across processes.
pub fn keep_sampled(seed: u64, trace_id: u64, rate: f64) -> bool {
    if rate >= 1.0 {
        return true;
    }
    if rate <= 0.0 {
        return false;
    }
    let h = fnv64(&(seed ^ trace_id.rotate_left(17)).to_le_bytes());
    ((h % 1_000_000) as f64) < rate * 1_000_000.0
}

#[derive(Debug)]
struct SpanNode {
    name: &'static str,
    parent: Option<usize>,
    start_us: u64,
    dur_us: Option<u64>,
    /// Registered counter values at span start; drained into
    /// `counter_deltas` when the span closes.
    counters_at_start: Vec<(&'static str, u64)>,
    counter_deltas: Vec<(&'static str, u64)>,
    /// Cumulative `(bytes, allocs)` from the counting allocator at span
    /// start; turned into `alloc_bytes`/`allocs` deltas at close.
    alloc_at_start: (u64, u64),
    alloc_bytes: u64,
    allocs: u64,
    attrs: Vec<(String, Json)>,
}

#[derive(Debug, Default)]
struct TraceState {
    spans: Vec<SpanNode>,
    /// Indices of currently-open spans, innermost last.
    stack: Vec<usize>,
    /// Trace-level attributes (no span open when noted).
    attrs: Vec<(String, Json)>,
    dropped: u64,
}

#[derive(Debug)]
struct TraceInner {
    trace_id: u64,
    t0: Instant,
    state: Mutex<TraceState>,
}

/// A request-scoped trace: an id plus a span tree, shared via `Arc` so it
/// can ride inside a cloned `ExecutionBudget`.
#[derive(Clone, Debug)]
pub struct TraceContext {
    inner: Arc<TraceInner>,
}

impl TraceContext {
    /// Start a trace with the given id (see [`trace_id_from`]).
    pub fn new(trace_id: u64) -> TraceContext {
        TraceContext {
            inner: Arc::new(TraceInner {
                trace_id,
                t0: Instant::now(),
                state: Mutex::new(TraceState::default()),
            }),
        }
    }

    /// The numeric trace id.
    pub fn trace_id(&self) -> u64 {
        self.inner.trace_id
    }

    /// The trace id as the canonical 16-hex-digit string carried in
    /// `X-Prox-Trace-Id`.
    pub fn id_hex(&self) -> String {
        format!("{:016x}", self.inner.trace_id)
    }

    /// Open a node named `name` under the innermost open node, started at
    /// `start`, and return its index for [`TraceContext::close`]. Beyond
    /// [`MAX_TRACE_SPANS`] no node opens and the trace's `dropped_spans`
    /// count grows instead. Only a [`crate::SpanGuard`] opens nodes.
    pub(crate) fn span(&self, name: &'static str, start: Instant) -> Option<usize> {
        let start_us = u64::try_from(start.saturating_duration_since(self.inner.t0).as_micros())
            .unwrap_or(u64::MAX);
        let counters_at_start = registry::counter_values();
        let alloc_at_start = alloc::totals();
        let mut state = crate::lock(&self.inner.state);
        if state.spans.len() >= MAX_TRACE_SPANS {
            state.dropped += 1;
            return None;
        }
        let parent = state.stack.last().copied();
        let ix = state.spans.len();
        state.spans.push(SpanNode {
            name,
            parent,
            start_us,
            dur_us: None,
            counters_at_start,
            counter_deltas: Vec::new(),
            alloc_at_start,
            alloc_bytes: 0,
            allocs: 0,
            attrs: Vec::new(),
        });
        state.stack.push(ix);
        Some(ix)
    }

    /// Attach an attribute to the innermost open span (or to the trace
    /// itself when no span is open). Later notes with the same key win.
    pub fn note(&self, key: &str, value: impl Into<Json>) {
        let value = value.into();
        let mut state = crate::lock(&self.inner.state);
        let slot = match state.stack.last().copied() {
            Some(ix) => &mut state.spans[ix].attrs,
            None => &mut state.attrs,
        };
        if let Some(entry) = slot.iter_mut().find(|(k, _)| k == key) {
            entry.1 = value;
        } else {
            slot.push((key.to_owned(), value));
        }
    }

    /// Find an attribute by key, searching trace-level attributes first
    /// and then spans newest-first. Used by the serve layer to classify a
    /// finished request (e.g. `stop_reason`) for tail-sampling.
    pub fn find_attr(&self, key: &str) -> Option<Json> {
        let state = crate::lock(&self.inner.state);
        if let Some((_, v)) = state.attrs.iter().find(|(k, _)| k == key) {
            return Some(v.clone());
        }
        state.spans.iter().rev().find_map(|s| {
            s.attrs
                .iter()
                .find(|(k, _)| k == key)
                .map(|(_, v)| v.clone())
        })
    }

    /// Close the node [`TraceContext::span`] opened, `dur` after its start:
    /// record its duration, counter deltas and allocation delta.
    pub(crate) fn close(&self, ix: usize, dur: Duration) {
        let dur_us = u64::try_from(dur.as_micros()).unwrap_or(u64::MAX);
        let now = registry::counter_values();
        let (bytes_now, allocs_now) = alloc::totals();
        let mut state = crate::lock(&self.inner.state);
        let node = &mut state.spans[ix];
        node.dur_us = Some(dur_us);
        node.alloc_bytes = bytes_now.saturating_sub(node.alloc_at_start.0);
        node.allocs = allocs_now.saturating_sub(node.alloc_at_start.1);
        let at_start = std::mem::take(&mut node.counters_at_start);
        for (name, value) in now {
            let before = at_start
                .iter()
                .find(|(n, _)| *n == name)
                .map_or(0, |(_, v)| *v);
            let delta = value.saturating_sub(before);
            if delta > 0 {
                node.counter_deltas.push((name, delta));
            }
        }
        state.stack.retain(|&open| open != ix);
    }

    /// Render the full span tree:
    ///
    /// ```json
    /// {"trace_id": "00ab..", "attrs": {..}, "dropped_spans": 0,
    ///  "spans": [{"name": "request", "start_us": 0, "dur_us": 1234,
    ///             "attrs": {"status": 200}, "counters": {"serve/requests": 1},
    ///             "children": [..]}]}
    /// ```
    ///
    /// Open (unclosed) spans render with `dur_us: null`.
    pub fn to_json(&self) -> Json {
        let state = crate::lock(&self.inner.state);
        let n = state.spans.len();
        let mut children: Vec<Vec<usize>> = vec![Vec::new(); n];
        let mut roots: Vec<usize> = Vec::new();
        for (ix, node) in state.spans.iter().enumerate() {
            match node.parent {
                Some(p) if p < n => children[p].push(ix),
                _ => roots.push(ix),
            }
        }
        fn render(ix: usize, spans: &[SpanNode], children: &[Vec<usize>]) -> Json {
            let node = &spans[ix];
            let mut out = Json::obj()
                .with("name", node.name)
                .with("start_us", node.start_us)
                .with("dur_us", node.dur_us.map_or(Json::Null, Json::UInt));
            if node.allocs > 0 {
                out.set("alloc_bytes", node.alloc_bytes);
                out.set("allocs", node.allocs);
            }
            if !node.attrs.is_empty() {
                let mut attrs = Json::obj();
                for (k, v) in &node.attrs {
                    attrs.set(k, v.clone());
                }
                out.set("attrs", attrs);
            }
            if !node.counter_deltas.is_empty() {
                let mut deltas = Json::obj();
                for (name, delta) in &node.counter_deltas {
                    deltas.set(name, *delta);
                }
                out.set("counters", deltas);
            }
            let kids: Vec<Json> = children[ix]
                .iter()
                .map(|&c| render(c, spans, children))
                .collect();
            if !kids.is_empty() {
                out.set("children", Json::Arr(kids));
            }
            out
        }
        let mut attrs = Json::obj();
        for (k, v) in &state.attrs {
            attrs.set(k, v.clone());
        }
        Json::obj()
            .with("trace_id", self.id_hex())
            .with("attrs", attrs)
            .with("dropped_spans", state.dropped)
            .with(
                "spans",
                Json::Arr(
                    roots
                        .iter()
                        .map(|&r| render(r, &state.spans, &children))
                        .collect(),
                ),
            )
    }
}

/// Why a trace was retained in the ring.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum RetainReason {
    /// The response status was an error (>= 400).
    Error,
    /// The run degraded to its anytime best-so-far answer
    /// (budget/deadline/cancel stop reasons).
    Degraded,
    /// The request exceeded the slow threshold (`PROX_SLOW_MS`).
    Slow,
    /// A healthy request kept by the deterministic sampler.
    Sampled,
}

impl RetainReason {
    /// Stable lowercase name used in JSON output.
    pub fn name(self) -> &'static str {
        match self {
            RetainReason::Error => "error",
            RetainReason::Degraded => "degraded",
            RetainReason::Slow => "slow",
            RetainReason::Sampled => "sampled",
        }
    }
}

/// One finished, retained trace.
#[derive(Clone, Debug)]
pub struct RetainedTrace {
    /// Canonical 16-hex trace id.
    pub trace_id: String,
    /// Request endpoint (path with any query string stripped).
    pub endpoint: String,
    /// HTTP status of the response.
    pub status: u16,
    /// End-to-end request duration in microseconds.
    pub dur_us: u64,
    /// Why the trace survived tail-sampling.
    pub reason: RetainReason,
    /// The span tree, as produced by [`TraceContext::to_json`].
    pub tree: Json,
}

/// Fixed-capacity ring of retained traces. Push is O(capacity) worst case
/// (one linear scan to find the oldest sampled victim) under a single
/// short-held mutex; readers take the same lock only for `/debug/traces`.
#[derive(Debug)]
pub struct TraceRing {
    items: Mutex<VecDeque<RetainedTrace>>,
    capacity: usize,
}

impl TraceRing {
    /// Create a ring holding at most `capacity` traces (minimum 1).
    pub fn new(capacity: usize) -> TraceRing {
        TraceRing {
            items: Mutex::new(VecDeque::new()),
            capacity: capacity.max(1),
        }
    }

    /// Retain a trace, evicting the oldest *sampled* trace first when
    /// full — errored/degraded/slow traces are only displaced once no
    /// sampled victim remains.
    pub fn push(&self, trace: RetainedTrace) {
        let mut items = crate::lock(&self.items);
        if items.len() >= self.capacity {
            let victim = items
                .iter()
                .position(|t| t.reason == RetainReason::Sampled)
                .unwrap_or(0);
            items.remove(victim);
        }
        items.push_back(trace);
    }

    /// Number of retained traces.
    pub fn len(&self) -> usize {
        crate::lock(&self.items).len()
    }

    /// Whether the ring is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Summaries of every retained trace, oldest first:
    /// `{"count": n, "capacity": c, "traces": [{trace_id, endpoint,
    /// status, dur_us, retained}, ..]}`.
    pub fn list_json(&self) -> Json {
        let items = crate::lock(&self.items);
        let traces: Vec<Json> = items
            .iter()
            .map(|t| {
                Json::obj()
                    .with("trace_id", t.trace_id.as_str())
                    .with("endpoint", t.endpoint.as_str())
                    .with("status", u64::from(t.status))
                    .with("dur_us", t.dur_us)
                    .with("retained", t.reason.name())
            })
            .collect();
        Json::obj()
            .with("count", items.len())
            .with("capacity", self.capacity)
            .with("traces", Json::Arr(traces))
    }

    /// The full span tree of the trace with this hex id, wrapped with its
    /// retention metadata; `None` when the id is unknown (evicted or
    /// never retained).
    pub fn get_json(&self, trace_id_hex: &str) -> Option<Json> {
        let items = crate::lock(&self.items);
        items.iter().find(|t| t.trace_id == trace_id_hex).map(|t| {
            t.tree
                .clone()
                .with("endpoint", t.endpoint.as_str())
                .with("status", u64::from(t.status))
                .with("dur_us", t.dur_us)
                .with("retained", t.reason.name())
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::SpanTimer;

    static REQUEST: SpanTimer = SpanTimer::new("trace_test/request");
    static ENUMERATE: SpanTimer = SpanTimer::new("trace_test/request/enumerate");
    static TICK: SpanTimer = SpanTimer::new("trace_test/tick");
    static SUMMARIZE: SpanTimer = SpanTimer::new("trace_test/summarize");

    fn retained(id: u64, reason: RetainReason) -> RetainedTrace {
        RetainedTrace {
            trace_id: format!("{id:016x}"),
            endpoint: "/summarize".to_owned(),
            status: if reason == RetainReason::Error {
                400
            } else {
                200
            },
            dur_us: 10,
            reason,
            tree: Json::obj().with("trace_id", format!("{id:016x}")),
        }
    }

    #[test]
    fn trace_ids_are_deterministic_and_nonzero() {
        assert_eq!(trace_id_from(7, 0), trace_id_from(7, 0));
        assert_ne!(trace_id_from(7, 0), trace_id_from(7, 1));
        assert_ne!(trace_id_from(7, 0), trace_id_from(8, 0));
        assert_ne!(trace_id_from(0, 0), 0);
    }

    #[test]
    fn sampling_is_deterministic_and_respects_bounds() {
        for seq in 0..64 {
            let id = trace_id_from(42, seq);
            assert!(keep_sampled(42, id, 1.0));
            assert!(!keep_sampled(42, id, 0.0));
            assert_eq!(keep_sampled(42, id, 0.3), keep_sampled(42, id, 0.3));
        }
        let kept = (0..1000)
            .filter(|&seq| keep_sampled(1, trace_id_from(1, seq), 0.5))
            .count();
        assert!((300..700).contains(&kept), "rate 0.5 kept {kept}/1000");
    }

    #[test]
    fn span_tree_nests_and_records_attrs() {
        let _serial = crate::test_lock();
        let ctx = TraceContext::new(trace_id_from(3, 0));
        {
            let _root = REQUEST.enter(Some(&ctx));
            {
                let _child = ENUMERATE.enter(Some(&ctx));
                ctx.note("candidates", 12u64);
            }
            ctx.note("status", 200u64);
        }
        let tree = ctx.to_json();
        assert_eq!(
            tree.get("trace_id").and_then(Json::as_str),
            Some(ctx.id_hex()).as_deref()
        );
        let spans = match tree.get("spans") {
            Some(Json::Arr(s)) => s,
            other => panic!("spans not an array: {other:?}"),
        };
        assert_eq!(spans.len(), 1);
        let root = &spans[0];
        assert_eq!(root.get("name").and_then(Json::as_str), Some("request"));
        assert_eq!(
            root.get("attrs")
                .and_then(|a| a.get("status"))
                .and_then(Json::as_u64),
            Some(200)
        );
        let children = match root.get("children") {
            Some(Json::Arr(c)) => c,
            other => panic!("children missing: {other:?}"),
        };
        assert_eq!(
            children[0].get("name").and_then(Json::as_str),
            Some("enumerate")
        );
        assert_eq!(
            children[0]
                .get("attrs")
                .and_then(|a| a.get("candidates"))
                .and_then(Json::as_u64),
            Some(12)
        );
        assert!(children[0].get("dur_us").and_then(Json::as_u64).is_some());
    }

    #[test]
    fn span_cap_counts_drops_instead_of_growing() {
        let _serial = crate::test_lock();
        let ctx = TraceContext::new(1);
        for _ in 0..(MAX_TRACE_SPANS + 5) {
            let _s = TICK.enter(Some(&ctx));
        }
        let tree = ctx.to_json();
        assert_eq!(
            tree.get("dropped_spans").and_then(Json::as_u64),
            Some(5),
            "{tree:?}"
        );
    }

    #[test]
    fn find_attr_sees_span_and_trace_attrs() {
        let _serial = crate::test_lock();
        let ctx = TraceContext::new(2);
        {
            let _s = SUMMARIZE.enter(Some(&ctx));
            ctx.note("stop_reason", "budget_exhausted");
        }
        ctx.note("endpoint", "/summarize");
        assert_eq!(
            ctx.find_attr("stop_reason").and_then(|j| match j {
                Json::Str(s) => Some(s),
                _ => None,
            }),
            Some("budget_exhausted".to_owned())
        );
        assert!(ctx.find_attr("endpoint").is_some());
        assert!(ctx.find_attr("absent").is_none());
    }

    #[test]
    fn ring_evicts_oldest_sampled_first() {
        let ring = TraceRing::new(2);
        ring.push(retained(1, RetainReason::Sampled));
        ring.push(retained(2, RetainReason::Error));
        // Full. A new trace must displace #1 (oldest sampled), not #2.
        ring.push(retained(3, RetainReason::Sampled));
        assert!(ring.get_json(&format!("{:016x}", 1u64)).is_none());
        assert!(ring.get_json(&format!("{:016x}", 2u64)).is_some());
        assert!(ring.get_json(&format!("{:016x}", 3u64)).is_some());
        // Now [error#2, sampled#3]: the sampled one goes even though it
        // is newer than the error.
        ring.push(retained(4, RetainReason::Degraded));
        assert!(ring.get_json(&format!("{:016x}", 3u64)).is_none());
        assert!(ring.get_json(&format!("{:016x}", 2u64)).is_some());
        // No sampled victim left: fall back to the oldest overall.
        ring.push(retained(5, RetainReason::Error));
        assert!(ring.get_json(&format!("{:016x}", 2u64)).is_none());
        assert_eq!(ring.len(), 2);
        let list = ring.list_json();
        assert_eq!(list.get("count").and_then(Json::as_u64), Some(2));
    }
}
