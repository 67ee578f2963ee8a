//! # prox-obs — workspace-wide instrumentation
//!
//! Dependency-free (std only) observability for the PROX workspace:
//!
//! * [`SpanTimer`] — the one way to time a phase: RAII timers with
//!   hierarchical names (`"summarize/step/enumerate"`, `"hac/linkage"`,
//!   `"eval/phi"`) whose [`SpanGuard`] feeds a fixed-bucket log-spaced
//!   duration [`Histogram`], the allocation delta, the profiler stack, an
//!   optional request [`TraceContext`], and callers' own step records;
//! * [`Counter`] — atomic counters for hot quantities (candidates
//!   enumerated, distance evaluations, ...);
//! * a process-global registry with [`snapshot`]/[`reset`] and an optional
//!   JSONL event sink enabled via `PROX_TRACE=<path>` (see
//!   [`init_from_env`]);
//! * [`Json`] — a tiny ordered JSON value used for snapshots, trace
//!   events, and bench run manifests;
//! * [`CountingAlloc`] (module [`alloc`]) — an opt-in
//!   `#[global_allocator]` wrapper counting live/peak/total heap bytes,
//!   with per-span deltas on [`SpanTimer`]s and trace spans;
//! * module [`prof`] — a sampling self-profiler folding the per-thread
//!   span stacks into flamegraph-compatible output (`PROX_PROFILE`);
//! * [`fnv64`] — the FNV-1a 64 hash behind trace ids, request
//!   fingerprints and the store's content addresses.
//!
//! ## Cost model
//!
//! Everything is gated on one process-global relaxed `AtomicBool` (see
//! [`enabled`]). While it is off — the default — every counter add is a
//! single relaxed load plus an early return, and an untraced span entry is
//! that load plus one clock read (the duration callers may ask the guard
//! for): no locks, no allocation. Instrumentation can therefore live
//! permanently in hot loops.
//!
//! ## Usage
//!
//! ```
//! use prox_obs::{Counter, SpanTimer};
//!
//! static EVALS: Counter = Counter::new("demo/evals");
//! static PHASE: SpanTimer = SpanTimer::new("demo/phase");
//!
//! prox_obs::set_enabled(true);
//! {
//!     let _span = PHASE.start(); // records on drop
//!     EVALS.incr();
//! }
//! let snap = prox_obs::snapshot();
//! assert_eq!(snap.get("counters").unwrap().get("demo/evals").unwrap().as_u64(), Some(1));
//! ```

pub mod alloc;
mod counter;
mod fnv;
mod gauge;
mod histogram;
mod json;
pub mod prof;
mod prom;
mod registry;
mod sink;
mod span;
mod trace;
pub mod window;

pub use alloc::{CountingAlloc, MemStats};
pub use counter::Counter;
pub use fnv::{fnv64, fnv64_update, FNV_OFFSET};
pub use gauge::Gauge;
pub use histogram::{Histogram, NBUCKETS};
pub use json::{Json, JsonError};
pub use prom::{render_prometheus, PROMETHEUS_CONTENT_TYPE};
pub use registry::{
    counter_value, counters_sorted, enabled, gauges_sorted, init_from_env, render_snapshot, reset,
    set_enabled, snapshot, spans_sorted,
};
pub use span::{SpanGuard, SpanTimer};
pub use trace::{
    keep_sampled, trace_id_from, RetainReason, RetainedTrace, TraceContext, TraceRing,
    MAX_TRACE_SPANS,
};

/// Counters for the out-of-core segment store (`crates/store`). Declared
/// here — not in the store crate — so the names are part of the shared
/// observability vocabulary: every binary that links the store surfaces
/// them in `/metrics`, `metrics.json`, and bench run manifests through
/// the process-global registry, exactly like the `serve/*` and
/// `budget/*` families.
pub mod store_metrics {
    use crate::Counter;

    /// Page request served from the bounded page cache.
    pub static PAGE_HIT: Counter = Counter::new("store/page_hit");
    /// Page request that faulted a page in from a segment file.
    pub static PAGE_MISS: Counter = Counter::new("store/page_miss");
    /// Appended expression already present under its fingerprint
    /// (content-address dedup of shared subexpressions).
    pub static DEDUP_HIT: Counter = Counter::new("store/dedup_hit");
    /// Bytes read from segment, log, and annotation files.
    pub static BYTES_READ: Counter = Counter::new("store/bytes_read");
}

/// Is `PROX_DETERMINISTIC` set (non-empty, not `"0"`)? Deterministic mode
/// makes snapshots, window aggregation, and the Prometheus exposition
/// byte-identical across same-seed runs by omitting wall-clock data.
pub fn deterministic_mode() -> bool {
    std::env::var("PROX_DETERMINISTIC").is_ok_and(|v| !v.is_empty() && v != "0")
}

/// Lock a mutex, recovering the data if a panicking holder poisoned it.
/// Observability state is monotonic (append-only registration, buffered
/// trace lines), so a poisoned lock cannot be logically inconsistent —
/// and instrumentation must never take the process down (no-panic
/// contract, rule L1).
pub(crate) fn lock<T>(m: &std::sync::Mutex<T>) -> std::sync::MutexGuard<'_, T> {
    m.lock().unwrap_or_else(|e| e.into_inner())
}

/// Serialize this crate's unit tests that touch process-global state:
/// installing or closing the trace sink, toggling the enabled flag or the
/// profiler mode, entering a span, emitting an event, or resetting the
/// allocation epoch. Tests share one process, so without it a span from
/// one test lands in another's sink file, and an epoch reset re-bases the
/// allocation totals another test is comparing.
#[cfg(test)]
pub(crate) fn test_lock() -> std::sync::MutexGuard<'static, ()> {
    static TEST_LOCK: std::sync::Mutex<()> = std::sync::Mutex::new(());
    lock(&TEST_LOCK)
}

/// Install a JSONL trace sink at `path` (also enables collection).
pub fn install_sink(path: &str) -> std::io::Result<()> {
    sink::install(path)
}

/// Is a trace sink currently installed?
pub fn sink_active() -> bool {
    sink::active()
}

/// Emit a custom event to the trace sink (no-op when none is installed).
/// A `"type"` field is conventional; a `t_us` timestamp is added.
pub fn emit_event(event: Json) {
    sink::emit(event)
}

/// Flush the trace sink's buffer to disk.
pub fn flush_sink() {
    sink::flush()
}

/// Flush and close the trace sink (collection stays enabled).
pub fn close_sink() {
    sink::close()
}
