//! Allocation accounting: a counting `#[global_allocator]` wrapper.
//!
//! [`CountingAlloc`] wraps [`std::alloc::System`] and counts every heap
//! event into process-global relaxed atomics: bytes currently live, the
//! peak of that value, and cumulative allocated bytes / allocation count.
//! The counters are plain statics — no locks, no registration, no
//! allocation — because this code runs *inside* the allocator, where
//! taking any lock that an allocating caller might hold would deadlock.
//!
//! Binaries opt in at their root:
//!
//! ```ignore
//! #[global_allocator]
//! static ALLOC: prox_obs::CountingAlloc = prox_obs::CountingAlloc::system();
//! ```
//!
//! The `prox` CLI and the bench `experiments` binary install it; test
//! binaries that assert on memory numbers install their own. Everything
//! else reads zeros and [`installed`] stays `false`, so downstream
//! consumers (manifests, `/metrics`, `prox stats`) can label the numbers
//! honestly instead of reporting a misleading 0.
//!
//! ## Epochs
//!
//! Bench runs one experiment per observability window ([`crate::reset`]),
//! so cumulative counters are exposed *relative to the last epoch*:
//! [`epoch_reset`] (called by `prox_obs::reset`) snapshots the cumulative
//! totals and re-bases the peak to the currently-live bytes. `live_bytes`
//! is always absolute — heap occupancy has no epoch.
//!
//! ## Determinism
//!
//! Heap numbers are *measurements*, not schedule-determined quantities:
//! allocator behavior varies with thread interleaving and with what ran
//! earlier in the process. Deterministic-mode consumers treat them
//! exactly like wall-clock durations — the manifest `memory` section
//! keeps only the `allocator` tag and the Prometheus exposition drops
//! the memory families (rule L2).

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};

use crate::json::Json;

/// `true` once any allocation has been routed through a [`CountingAlloc`]
/// — i.e. the running binary actually installed it.
static INSTALLED: AtomicBool = AtomicBool::new(false);

/// Bytes currently live (allocated minus freed). Absolute.
static LIVE_BYTES: AtomicU64 = AtomicU64::new(0);
/// High-water mark of [`LIVE_BYTES`] since the last [`epoch_reset`].
static PEAK_BYTES: AtomicU64 = AtomicU64::new(0);
/// Cumulative bytes ever allocated (process lifetime).
static TOTAL_BYTES: AtomicU64 = AtomicU64::new(0);
/// Cumulative allocation events (process lifetime).
static TOTAL_ALLOCS: AtomicU64 = AtomicU64::new(0);

/// Cumulative totals at the last [`epoch_reset`]; subtracted in [`stats`].
static EPOCH_BYTES: AtomicU64 = AtomicU64::new(0);
static EPOCH_ALLOCS: AtomicU64 = AtomicU64::new(0);

#[inline]
fn record_alloc(size: usize) {
    INSTALLED.store(true, Ordering::Relaxed);
    let size = size as u64;
    TOTAL_BYTES.fetch_add(size, Ordering::Relaxed);
    TOTAL_ALLOCS.fetch_add(1, Ordering::Relaxed);
    let live = LIVE_BYTES.fetch_add(size, Ordering::Relaxed) + size;
    PEAK_BYTES.fetch_max(live, Ordering::Relaxed);
}

#[inline]
fn record_dealloc(size: usize) {
    // Saturating: a dealloc racing an epoch-less start (or a foreign
    // pointer freed here) must never wrap the gauge.
    let size = size as u64;
    let mut live = LIVE_BYTES.load(Ordering::Relaxed);
    loop {
        let next = live.saturating_sub(size);
        match LIVE_BYTES.compare_exchange_weak(live, next, Ordering::Relaxed, Ordering::Relaxed) {
            Ok(_) => break,
            Err(actual) => live = actual,
        }
    }
}

/// A counting wrapper around the system allocator. Install as the
/// `#[global_allocator]` of a binary to light up [`stats`].
pub struct CountingAlloc;

impl CountingAlloc {
    /// The wrapper over [`std::alloc::System`] (`const`, so it can be the
    /// `#[global_allocator]` static).
    pub const fn system() -> CountingAlloc {
        CountingAlloc
    }
}

// SAFETY: defers entirely to `System` for memory management; the wrapper
// only adds relaxed atomic bookkeeping, which allocates nothing and takes
// no locks (reentrancy- and deadlock-free by construction).
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let p = System.alloc(layout);
        if !p.is_null() {
            record_alloc(layout.size());
        }
        p
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        let p = System.alloc_zeroed(layout);
        if !p.is_null() {
            record_alloc(layout.size());
        }
        p
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        record_dealloc(layout.size());
        System.dealloc(ptr, layout);
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        let p = System.realloc(ptr, layout, new_size);
        if !p.is_null() {
            // One event: the old block is gone, the new size is live.
            record_dealloc(layout.size());
            record_alloc(new_size);
        }
        p
    }
}

/// A point-in-time reading of the allocation counters.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct MemStats {
    /// Whether a [`CountingAlloc`] is routing this binary's allocations.
    /// When `false` every other field is 0 and means "not measured".
    pub installed: bool,
    /// Bytes currently live (absolute heap occupancy).
    pub live_bytes: u64,
    /// Peak live bytes since the last [`epoch_reset`].
    pub peak_bytes: u64,
    /// Bytes allocated since the last [`epoch_reset`].
    pub total_bytes: u64,
    /// Allocation events since the last [`epoch_reset`].
    pub allocs: u64,
}

/// Current allocation statistics (epoch-relative; see module docs).
pub fn stats() -> MemStats {
    MemStats {
        installed: installed(),
        live_bytes: LIVE_BYTES.load(Ordering::Relaxed),
        peak_bytes: PEAK_BYTES.load(Ordering::Relaxed),
        total_bytes: TOTAL_BYTES
            .load(Ordering::Relaxed)
            .saturating_sub(EPOCH_BYTES.load(Ordering::Relaxed)),
        allocs: TOTAL_ALLOCS
            .load(Ordering::Relaxed)
            .saturating_sub(EPOCH_ALLOCS.load(Ordering::Relaxed)),
    }
}

/// Is a [`CountingAlloc`] actually installed in this binary?
pub fn installed() -> bool {
    INSTALLED.load(Ordering::Relaxed)
}

/// Raw cumulative `(bytes, allocs)` over the process lifetime — the
/// monotone pair span guards snapshot to compute per-phase deltas
/// (epoch resets must not make a span's delta go negative).
pub fn totals() -> (u64, u64) {
    (
        TOTAL_BYTES.load(Ordering::Relaxed),
        TOTAL_ALLOCS.load(Ordering::Relaxed),
    )
}

/// Start a new accounting epoch: re-base the cumulative counters and set
/// the peak to the currently-live bytes. Called by [`crate::reset`] so
/// each bench experiment's manifest covers exactly that experiment.
pub fn epoch_reset() {
    EPOCH_BYTES.store(TOTAL_BYTES.load(Ordering::Relaxed), Ordering::Relaxed);
    EPOCH_ALLOCS.store(TOTAL_ALLOCS.load(Ordering::Relaxed), Ordering::Relaxed);
    PEAK_BYTES.store(LIVE_BYTES.load(Ordering::Relaxed), Ordering::Relaxed);
}

/// The memory stats as JSON. Always carries the `allocator` tag
/// (`"counting"` / `"system"`); the measured numbers are included only
/// when the counting allocator is installed *and* `deterministic` is
/// off — heap measurements are environment-dependent, so deterministic
/// outputs treat them like wall-clock data (rule L2).
pub fn memory_json(deterministic: bool) -> Json {
    let m = stats();
    let mut out = Json::obj().with("allocator", if m.installed { "counting" } else { "system" });
    if m.installed && !deterministic {
        out.set("live_bytes", m.live_bytes);
        out.set("peak_bytes", m.peak_bytes);
        out.set("total_bytes", m.total_bytes);
        out.set("allocs", m.allocs);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    // Unit tests run in prox-obs's own test binary, which installs the
    // counting allocator here so the counters observe real traffic.
    #[global_allocator]
    static ALLOC: CountingAlloc = CountingAlloc::system();

    #[test]
    fn counters_observe_allocations_and_peak_dominates_live() {
        let _serial = crate::test_lock();
        let before = stats();
        assert!(before.installed, "global allocator must be routing");
        let v: Vec<u8> = Vec::with_capacity(1 << 16);
        let after = stats();
        assert!(
            after.total_bytes >= before.total_bytes + (1 << 16),
            "total must grow by at least the allocation: {before:?} -> {after:?}"
        );
        assert!(after.allocs > before.allocs);
        assert!(after.peak_bytes >= after.live_bytes.min(after.peak_bytes));
        drop(v);
        let freed = stats();
        assert!(
            freed.live_bytes <= after.live_bytes,
            "dropping must not raise live bytes"
        );
        // Peak is a high-water mark: dropping never lowers it.
        assert!(freed.peak_bytes >= after.peak_bytes.min(freed.peak_bytes));
    }

    #[test]
    fn epoch_reset_rebases_cumulative_and_peak() {
        let _serial = crate::test_lock();
        let _keep: Vec<u8> = Vec::with_capacity(4096);
        epoch_reset();
        let s = stats();
        // Fresh epoch: cumulative counters restart near zero (other test
        // threads may allocate concurrently, so allow slack, not exact 0).
        assert!(s.peak_bytes >= s.live_bytes || s.peak_bytes > 0);
        let grow: Vec<u8> = Vec::with_capacity(1 << 20);
        let s2 = stats();
        assert!(s2.total_bytes >= 1 << 20);
        assert!(s2.peak_bytes >= s.peak_bytes);
        drop(grow);
    }

    #[test]
    fn memory_json_gates_measurements_on_deterministic() {
        let full = memory_json(false);
        assert_eq!(
            full.get("allocator").and_then(Json::as_str),
            Some("counting")
        );
        assert!(full.get("peak_bytes").and_then(Json::as_u64).is_some());
        let det = memory_json(true);
        assert_eq!(
            det.get("allocator").and_then(Json::as_str),
            Some("counting")
        );
        assert!(det.get("peak_bytes").is_none(), "{det:?}");
        assert!(det.get("live_bytes").is_none());
    }
}
