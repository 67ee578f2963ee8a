//! Process-wide monotonic counters.
//!
//! A [`Counter`] is declared as a `static` at its point of use:
//!
//! ```
//! use prox_obs::Counter;
//! static DISTANCE_EVALUATIONS: Counter = Counter::new("distance/evaluations");
//!
//! prox_obs::set_enabled(true);
//! DISTANCE_EVALUATIONS.add(3);
//! ```
//!
//! Counters self-register with the global registry the first time they are
//! incremented, so instrumented crates never have to coordinate a
//! registration pass. When the registry is disabled (the default), `add`
//! is a single relaxed atomic load and an early return; once a counter is
//! registered, an enabled `add` is two relaxed loads and a `fetch_add`.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};

use crate::registry;

/// A named monotonic counter backed by a relaxed `AtomicU64`.
pub struct Counter {
    name: &'static str,
    value: AtomicU64,
    registered: AtomicBool,
}

impl Counter {
    /// Create a counter. `const`, so counters can be plain statics.
    pub const fn new(name: &'static str) -> Counter {
        Counter {
            name,
            value: AtomicU64::new(0),
            registered: AtomicBool::new(false),
        }
    }

    /// The counter's hierarchical name, e.g. `"distance/evaluations"`.
    pub fn name(&self) -> &'static str {
        self.name
    }

    /// Add `n`. A no-op (one relaxed load) while observability is disabled.
    #[inline]
    pub fn add(&'static self, n: u64) {
        if !registry::enabled() {
            return;
        }
        registry::register_once(&self.registered, &registry::COUNTERS, self);
        self.value.fetch_add(n, Ordering::Relaxed);
    }

    /// Add one.
    #[inline]
    pub fn incr(&'static self) {
        self.add(1);
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        self.value.load(Ordering::Relaxed)
    }

    pub(crate) fn reset(&self) {
        self.value.store(0, Ordering::Relaxed);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    static CONCURRENT: Counter = Counter::new("test/concurrent");
    static DISABLED: Counter = Counter::new("test/disabled");

    #[test]
    fn concurrent_increments_sum_correctly() {
        let _serial = crate::test_lock();
        crate::set_enabled(true);
        let before = CONCURRENT.get();
        let threads: Vec<_> = (0..8)
            .map(|_| {
                std::thread::spawn(|| {
                    for _ in 0..10_000 {
                        CONCURRENT.incr();
                    }
                })
            })
            .collect();
        for t in threads {
            t.join().expect("thread");
        }
        assert_eq!(CONCURRENT.get() - before, 80_000);
    }

    static FIRST_USE: Counter = Counter::new("test/first_use_race");

    #[test]
    fn racing_first_increments_register_once() {
        let _serial = crate::test_lock();
        crate::set_enabled(true);
        // Nothing else touches this counter: its first increments are the
        // threads' own, released together.
        let start = std::sync::Arc::new(std::sync::Barrier::new(8));
        let threads: Vec<_> = (0..8)
            .map(|_| {
                let start = std::sync::Arc::clone(&start);
                std::thread::spawn(move || {
                    start.wait();
                    for _ in 0..1_000 {
                        FIRST_USE.incr();
                    }
                })
            })
            .collect();
        for t in threads {
            t.join().expect("thread");
        }
        let listed: Vec<u64> = crate::counters_sorted()
            .into_iter()
            .filter(|(name, _)| name == "test/first_use_race")
            .map(|(_, value)| value)
            .collect();
        assert_eq!(listed, [8_000]);
    }

    #[test]
    fn disabled_counter_stays_zero() {
        // Use a dedicated counter: other tests in this binary may enable
        // the registry concurrently, but nothing else touches this one
        // while observability is off at the call site below.
        if !crate::enabled() {
            DISABLED.add(5);
            // Either it stayed 0 (registry still disabled at add time) or
            // a parallel test enabled it in between; both keep it <= 5.
            assert!(DISABLED.get() <= 5);
        }
    }
}
