//! Process-wide gauges: point-in-time values that go up *and* down.
//!
//! A [`Gauge`] is declared as a `static` at its point of use, exactly like
//! a [`crate::Counter`]:
//!
//! ```
//! use prox_obs::Gauge;
//! static QUEUE_DEPTH: Gauge = Gauge::new("serve/queue_depth");
//!
//! prox_obs::set_enabled(true);
//! QUEUE_DEPTH.set(3);
//! QUEUE_DEPTH.add(-1);
//! assert_eq!(QUEUE_DEPTH.get(), 2);
//! ```
//!
//! Gauges self-register with the global registry the first time they are
//! written while observability is enabled. When the registry is disabled
//! (the default), every write is a single relaxed atomic load and an
//! early return — the same cost model as counters.

use std::sync::atomic::{AtomicBool, AtomicI64, Ordering};

use crate::registry;

/// A named gauge backed by a relaxed `AtomicI64`. Unlike a
/// [`crate::Counter`], a gauge may decrease (queue depth, in-flight
/// requests, utilization).
pub struct Gauge {
    name: &'static str,
    value: AtomicI64,
    registered: AtomicBool,
}

impl Gauge {
    /// Create a gauge. `const`, so gauges can be plain statics.
    pub const fn new(name: &'static str) -> Gauge {
        Gauge {
            name,
            value: AtomicI64::new(0),
            registered: AtomicBool::new(false),
        }
    }

    /// The gauge's hierarchical name, e.g. `"serve/queue_depth"`.
    pub fn name(&self) -> &'static str {
        self.name
    }

    /// Set the gauge to `v`. A no-op (one relaxed load) while
    /// observability is disabled.
    #[inline]
    pub fn set(&'static self, v: i64) {
        if !registry::enabled() {
            return;
        }
        self.register();
        self.value.store(v, Ordering::Relaxed);
    }

    /// Add `d` (which may be negative) and return the new value. A no-op
    /// returning the current value while observability is disabled.
    #[inline]
    pub fn add(&'static self, d: i64) -> i64 {
        if !registry::enabled() {
            return self.get();
        }
        self.register();
        self.value.fetch_add(d, Ordering::Relaxed) + d
    }

    /// Current value.
    pub fn get(&self) -> i64 {
        self.value.load(Ordering::Relaxed)
    }

    fn register(&'static self) {
        registry::register_once(&self.registered, &registry::GAUGES, self);
    }

    pub(crate) fn reset(&self) {
        self.value.store(0, Ordering::Relaxed);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    static DEPTH: Gauge = Gauge::new("test/gauge_depth");

    #[test]
    fn set_add_and_snapshot() {
        let _serial = crate::test_lock();
        crate::set_enabled(true);
        DEPTH.set(5);
        assert_eq!(DEPTH.add(-2), 3);
        assert_eq!(DEPTH.get(), 3);
        let snap = crate::snapshot();
        let gauges = snap.get("gauges").expect("gauges section");
        assert!(gauges.get("test/gauge_depth").is_some());
    }
}
