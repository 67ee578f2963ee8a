//! Seeded, deterministic fault injection.
//!
//! Activated by the `PROX_FAULT` environment variable (call
//! [`init_from_env`] once from a binary's `main`, or install a plan
//! programmatically in tests via [`FaultGuard`]). The spec grammar is a
//! comma-separated list of `site[@param]:seed` clauses:
//!
//! ```text
//! PROX_FAULT="corrupt@0.01:42,budget@3:7"
//! ```
//!
//! | site       | param meaning                              | hook                      |
//! |------------|--------------------------------------------|---------------------------|
//! | `corrupt`  | per-byte flip probability in `[0, 1]`      | [`corrupt_bytes`]         |
//! | `truncate` | fraction of the dataset to *keep*, `[0, 1]`| [`truncate_keep`]         |
//! | `budget`   | trip the budget after this many checks     | [`budget_trip_after`]     |
//! | `taxflip`  | number of taxonomy edges to reverse        | [`taxonomy_flip_edges`]   |
//! | `slowread` | injected request-read delay in ms          | [`slowread_delay_ms`]     |
//! | `conndrop` | per-request connection-drop probability    | [`conndrop_fire`]         |
//! | `panic`    | per-request worker-panic probability       | [`maybe_panic`]           |
//!
//! Determinism: each clause carries its own seed, and every hook call mixes
//! the seed with the clause's call counter through splitmix64, so the same
//! spec replays the same faults in the same order regardless of timing.
//!
//! Cost when disabled: every hook starts with one relaxed atomic load and
//! returns immediately — no lock, no RNG, no allocation.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Mutex, MutexGuard, Once};

use prox_obs::Counter;

use crate::error::ProxError;
use crate::DetRng;

static ENABLED: AtomicBool = AtomicBool::new(false);
static PLAN: Mutex<Option<FaultPlan>> = Mutex::new(None);
static INIT: Once = Once::new();
/// Serializes tests that install plans; see [`FaultGuard`].
static TEST_LOCK: Mutex<()> = Mutex::new(());

static CORRUPTIONS: Counter = Counter::new("fault/corrupt_calls");
static TRUNCATIONS: Counter = Counter::new("fault/truncate_calls");
static BUDGET_ARMS: Counter = Counter::new("fault/budget_arms");
static TAXFLIPS: Counter = Counter::new("fault/taxflip_calls");
static SLOWREADS: Counter = Counter::new("fault/slowread_calls");
static CONNDROPS: Counter = Counter::new("fault/conndrop_calls");
static PANICS: Counter = Counter::new("fault/panic_calls");

/// Where a fault clause applies.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum FaultSite {
    /// Flip bits in bytes as they are read: a segment store's annotation
    /// table and frames, and HTTP request bodies.
    Corrupt,
    /// Truncate generated datasets.
    Truncate,
    /// Trip execution budgets after a fixed number of checks.
    Budget,
    /// Reverse taxonomy edges.
    TaxFlip,
    /// Stall the serve-layer request read by a fixed delay.
    SlowRead,
    /// Drop accepted connections before a response is written.
    ConnDrop,
    /// Panic inside the serve-layer request handler.
    Panic,
}

impl FaultSite {
    fn parse(s: &str) -> Option<FaultSite> {
        match s {
            "corrupt" => Some(FaultSite::Corrupt),
            "truncate" => Some(FaultSite::Truncate),
            "budget" => Some(FaultSite::Budget),
            "taxflip" => Some(FaultSite::TaxFlip),
            "slowread" => Some(FaultSite::SlowRead),
            "conndrop" => Some(FaultSite::ConnDrop),
            "panic" => Some(FaultSite::Panic),
            _ => None,
        }
    }
}

#[derive(Clone, Debug)]
struct FaultSpec {
    site: FaultSite,
    param: f64,
    seed: u64,
    calls: u64,
}

/// A parsed `PROX_FAULT` plan: one clause per site (later clauses for the
/// same site win).
#[derive(Clone, Debug, Default)]
pub struct FaultPlan {
    specs: Vec<FaultSpec>,
}

impl FaultPlan {
    fn get_mut(&mut self, site: FaultSite) -> Option<&mut FaultSpec> {
        self.specs.iter_mut().rev().find(|s| s.site == site)
    }
}

/// Parse a `PROX_FAULT` spec string into a plan.
///
/// Grammar: `clause ("," clause)*` where `clause = site ["@" param] ":" seed`.
/// `param` defaults to `1.0`. Errors are [`ProxError::Config`].
pub fn parse_spec(spec: &str) -> Result<FaultPlan, ProxError> {
    let mut specs = Vec::new();
    for part in spec.split(',').map(str::trim).filter(|p| !p.is_empty()) {
        let (head, seed) = part.rsplit_once(':').ok_or_else(|| {
            ProxError::config(format!("fault clause {part:?}: missing ':<seed>'"))
        })?;
        let seed: u64 = seed
            .trim()
            .parse()
            .map_err(|_| ProxError::config(format!("fault clause {part:?}: seed must be a u64")))?;
        let (site_str, param) = match head.split_once('@') {
            Some((s, p)) => {
                let param: f64 = p.trim().parse().map_err(|_| {
                    ProxError::config(format!("fault clause {part:?}: param must be a number"))
                })?;
                (s.trim(), param)
            }
            None => (head.trim(), 1.0),
        };
        let site = FaultSite::parse(site_str).ok_or_else(|| {
            ProxError::config(format!(
                "fault clause {part:?}: unknown site {site_str:?} \
                 (expected corrupt|truncate|budget|taxflip|slowread|conndrop|panic)"
            ))
        })?;
        let in_range = match site {
            FaultSite::Corrupt | FaultSite::Truncate | FaultSite::ConnDrop | FaultSite::Panic => {
                (0.0..=1.0).contains(&param)
            }
            FaultSite::Budget | FaultSite::TaxFlip | FaultSite::SlowRead => {
                param >= 0.0 && param.fract() == 0.0
            }
        };
        if !in_range {
            return Err(ProxError::config(format!(
                "fault clause {part:?}: param {param} out of range for {site:?}"
            )));
        }
        specs.push(FaultSpec {
            site,
            param,
            seed,
            calls: 0,
        });
    }
    if specs.is_empty() {
        return Err(ProxError::config("empty PROX_FAULT spec"));
    }
    Ok(FaultPlan { specs })
}

/// Install a plan (or clear with `None`). Used by [`init_from_env`] and
/// [`FaultGuard`]; binaries normally call [`init_from_env`] instead.
pub fn install(plan: Option<FaultPlan>) {
    let enabled = plan.is_some();
    *lock(&PLAN) = plan;
    ENABLED.store(enabled, Ordering::SeqCst);
}

/// Read `PROX_FAULT` once and install the resulting plan. Unset, empty,
/// `"0"`, and `"off"` leave the harness disabled. A malformed spec prints
/// a diagnostic to stderr and leaves the harness disabled — init never
/// panics.
pub fn init_from_env() {
    INIT.call_once(|| {
        let Ok(spec) = std::env::var("PROX_FAULT") else {
            return;
        };
        let spec = spec.trim();
        if spec.is_empty() || spec == "0" || spec == "off" {
            return;
        }
        match parse_spec(spec) {
            Ok(plan) => install(Some(plan)),
            Err(e) => eprintln!("PROX_FAULT ignored: {e}"),
        }
    });
}

/// Is any fault plan installed? (One relaxed load — the hot-path guard.)
pub fn enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(|e| e.into_inner())
}

/// Run `f` against the active clause for `site`, bumping its call counter.
fn with_site<R>(site: FaultSite, f: impl FnOnce(&FaultSpec) -> R) -> Option<R> {
    if !enabled() {
        return None;
    }
    let mut plan = lock(&PLAN);
    let spec = plan.as_mut()?.get_mut(site)?;
    spec.calls += 1;
    let frozen = spec.clone();
    drop(plan);
    Some(f(&frozen))
}

fn call_seed(spec: &FaultSpec) -> u64 {
    // calls was bumped before we got here, so the first call mixes in 1.
    spec.seed ^ spec.calls.wrapping_mul(0x9E37_79B9_7F4A_7C15)
}

/// Corrupt bytes in place per the active `corrupt` clause. Returns whether
/// anything was flipped. When the clause is active with a positive
/// probability and the buffer is nonempty, at least one bit is flipped —
/// tests rely on the fault actually firing.
pub fn corrupt_bytes(bytes: &mut [u8]) -> bool {
    with_site(FaultSite::Corrupt, |spec| {
        if bytes.is_empty() || spec.param <= 0.0 {
            return false;
        }
        CORRUPTIONS.incr();
        let mut rng = DetRng::new(call_seed(spec));
        let mut hit = false;
        for b in bytes.iter_mut() {
            if rng.chance(spec.param) {
                *b ^= 1 << (rng.next_u64() % 8);
                hit = true;
            }
        }
        if !hit {
            let ix = rng.below(bytes.len());
            bytes[ix] ^= 1 << (rng.next_u64() % 8);
            hit = true;
        }
        hit
    })
    .unwrap_or(false)
}

/// How many of `len` generated items to keep per the active `truncate`
/// clause (`len` itself when the harness is off).
pub fn truncate_keep(len: usize) -> usize {
    with_site(FaultSite::Truncate, |spec| {
        TRUNCATIONS.incr();
        (((len as f64) * spec.param).floor() as usize).min(len)
    })
    .unwrap_or(len)
}

/// If a `budget` clause is active, the number of budget checks after which
/// sessions should trip with `BudgetStop::Injected`.
pub fn budget_trip_after() -> Option<u64> {
    with_site(FaultSite::Budget, |spec| {
        BUDGET_ARMS.incr();
        spec.param.max(0.0) as u64
    })
}

/// Indices (into an edge list of length `edge_count`) of taxonomy edges to
/// reverse per the active `taxflip` clause. Empty when the harness is off.
pub fn taxonomy_flip_edges(edge_count: usize) -> Vec<usize> {
    with_site(FaultSite::TaxFlip, |spec| {
        let n = (spec.param as usize).min(edge_count);
        if n == 0 {
            return Vec::new();
        }
        TAXFLIPS.incr();
        let mut rng = DetRng::new(call_seed(spec));
        let mut picked: Vec<usize> = Vec::with_capacity(n);
        while picked.len() < n {
            let ix = rng.below(edge_count);
            if !picked.contains(&ix) {
                picked.push(ix);
            }
        }
        picked
    })
    .unwrap_or_default()
}

/// If a `slowread` clause is active, the delay in milliseconds the serve
/// layer should inject before reading a request. `None` when the harness
/// is off — the caller then reads at full speed.
pub fn slowread_delay_ms() -> Option<u64> {
    with_site(FaultSite::SlowRead, |spec| {
        SLOWREADS.incr();
        spec.param.max(0.0) as u64
    })
}

/// Should the server drop this connection without responding, per the
/// active `conndrop` clause? Fires with probability `param`, seeded per
/// call, so the drop schedule is a pure function of the spec.
pub fn conndrop_fire() -> bool {
    with_site(FaultSite::ConnDrop, |spec| {
        let fire = DetRng::new(call_seed(spec)).chance(spec.param);
        if fire {
            CONNDROPS.incr();
        }
        fire
    })
    .unwrap_or(false)
}

/// Panic with probability `param` per the active `panic` clause — the
/// worker-supervision fault site. The panic unwinds to the worker pool's
/// `catch_unwind` boundary, which converts it to a typed 500 and keeps
/// the worker alive; the counter is bumped *before* unwinding so
/// recoveries stay observable.
pub fn maybe_panic() {
    let fire = with_site(FaultSite::Panic, |spec| {
        let fire = DetRng::new(call_seed(spec)).chance(spec.param);
        if fire {
            PANICS.incr();
        }
        fire
    })
    .unwrap_or(false);
    if fire {
        panic!("injected fault: panic site fired");
    }
}

/// RAII plan installer for tests.
///
/// Holds a global lock so fault-injection tests serialize (the plan is
/// process-global state), installs the given spec, and restores the prior
/// plan on drop. [`FaultGuard::hold`] takes the lock without changing the
/// plan — use it in tests that must observe the harness *disabled*.
pub struct FaultGuard {
    _lock: MutexGuard<'static, ()>,
    prior: Option<FaultPlan>,
    prior_enabled: bool,
}

impl FaultGuard {
    /// Lock, parse `spec`, and install it as the active plan.
    pub fn install(spec: &str) -> Result<FaultGuard, ProxError> {
        let guard = lock(&TEST_LOCK);
        let plan = parse_spec(spec)?;
        let (prior, prior_enabled) = (lock(&PLAN).clone(), ENABLED.load(Ordering::SeqCst));
        install(Some(plan));
        Ok(FaultGuard {
            _lock: guard,
            prior,
            prior_enabled,
        })
    }

    /// Lock and force the harness off for the guard's lifetime.
    pub fn disabled() -> FaultGuard {
        let guard = lock(&TEST_LOCK);
        let (prior, prior_enabled) = (lock(&PLAN).clone(), ENABLED.load(Ordering::SeqCst));
        install(None);
        FaultGuard {
            _lock: guard,
            prior,
            prior_enabled,
        }
    }

    /// Lock without changing the active plan (serialize against other
    /// fault tests while observing the current state).
    pub fn hold() -> FaultGuard {
        let guard = lock(&TEST_LOCK);
        let (prior, prior_enabled) = (lock(&PLAN).clone(), ENABLED.load(Ordering::SeqCst));
        FaultGuard {
            _lock: guard,
            prior,
            prior_enabled,
        }
    }
}

impl Drop for FaultGuard {
    fn drop(&mut self) {
        *lock(&PLAN) = self.prior.take();
        ENABLED.store(self.prior_enabled, Ordering::SeqCst);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn grammar_accepts_the_documented_forms() {
        let plan = parse_spec("corrupt@0.01:42,budget@3:7").unwrap();
        assert_eq!(plan.specs.len(), 2);
        assert_eq!(plan.specs[0].site, FaultSite::Corrupt);
        assert!((plan.specs[0].param - 0.01).abs() < 1e-12);
        assert_eq!(plan.specs[0].seed, 42);
        assert_eq!(plan.specs[1].site, FaultSite::Budget);
        // param defaults to 1.0
        let plan = parse_spec("taxflip:9").unwrap();
        assert!((plan.specs[0].param - 1.0).abs() < 1e-12);
    }

    #[test]
    fn grammar_rejects_malformed_clauses() {
        for bad in [
            "",
            "corrupt",
            "corrupt@0.5",
            "corrupt@2.0:1",
            "corrupt@-0.1:1",
            "budget@1.5:1",
            "explode:3",
            "corrupt@x:1",
            "corrupt@0.1:notaseed",
        ] {
            assert!(parse_spec(bad).is_err(), "accepted {bad:?}");
        }
    }

    #[test]
    fn disabled_harness_hooks_are_identity() {
        let _g = FaultGuard::disabled();
        let mut bytes = vec![1, 2, 3];
        assert!(!corrupt_bytes(&mut bytes));
        assert_eq!(bytes, vec![1, 2, 3]);
        assert_eq!(truncate_keep(17), 17);
        assert_eq!(budget_trip_after(), None);
        assert!(taxonomy_flip_edges(5).is_empty());
        assert_eq!(slowread_delay_ms(), None);
        assert!(!conndrop_fire());
        maybe_panic(); // must be a no-op, not a panic
    }

    #[test]
    fn corruption_is_deterministic_per_seed_and_always_fires() {
        let run = |spec: &str| {
            let _g = FaultGuard::install(spec).unwrap();
            let mut bytes = b"the quick brown fox".to_vec();
            assert!(corrupt_bytes(&mut bytes));
            bytes
        };
        let a = run("corrupt@0.05:42");
        let b = run("corrupt@0.05:42");
        let c = run("corrupt@0.05:43");
        assert_eq!(a, b, "same seed must replay the same corruption");
        assert_ne!(a, b"the quick brown fox".as_slice());
        // Different seed *may* coincide but practically never does here.
        assert_ne!(a, c);
    }

    #[test]
    fn truncate_keeps_the_requested_fraction() {
        let _g = FaultGuard::install("truncate@0.5:1").unwrap();
        assert_eq!(truncate_keep(100), 50);
        assert_eq!(truncate_keep(1), 0);
        assert_eq!(truncate_keep(0), 0);
    }

    #[test]
    fn taxflip_picks_distinct_in_range_edges() {
        let _g = FaultGuard::install("taxflip@3:9").unwrap();
        let picked = taxonomy_flip_edges(10);
        assert_eq!(picked.len(), 3);
        for &ix in &picked {
            assert!(ix < 10);
        }
        let mut dedup = picked.clone();
        dedup.sort_unstable();
        dedup.dedup();
        assert_eq!(dedup.len(), 3);
        // Asking for more flips than edges clamps.
        let picked = taxonomy_flip_edges(2);
        assert_eq!(picked.len(), 2);
        assert!(taxonomy_flip_edges(0).is_empty());
    }

    #[test]
    fn budget_clause_arms_sessions() {
        let _g = FaultGuard::install("budget@2:5").unwrap();
        assert_eq!(budget_trip_after(), Some(2));
        let mut s = crate::budget::ExecutionBudget::unlimited().start();
        assert!(s.check().is_ok());
        assert!(s.check().is_ok());
        assert_eq!(s.check(), Err(crate::budget::BudgetStop::Injected));
    }

    #[test]
    fn slowread_reports_the_configured_delay() {
        let _g = FaultGuard::install("slowread@7:3").unwrap();
        assert_eq!(slowread_delay_ms(), Some(7));
        assert_eq!(slowread_delay_ms(), Some(7));
        // Non-integer delays are rejected at parse time.
        assert!(parse_spec("slowread@0.5:3").is_err());
    }

    #[test]
    fn conndrop_schedule_is_deterministic_per_seed() {
        let run = |spec: &str| {
            let _g = FaultGuard::install(spec).unwrap();
            (0..32).map(|_| conndrop_fire()).collect::<Vec<_>>()
        };
        let a = run("conndrop@0.3:11");
        let b = run("conndrop@0.3:11");
        assert_eq!(a, b, "same seed must replay the same drop schedule");
        assert!(a.iter().any(|&f| f), "p=0.3 over 32 calls should fire");
        assert!(!a.iter().all(|&f| f), "p=0.3 must not always fire");
        let _g = FaultGuard::install("conndrop@0:1").unwrap();
        assert!(!(0..16).any(|_| conndrop_fire()));
    }

    #[test]
    fn panic_site_fires_probabilistically_and_is_catchable() {
        let _g = FaultGuard::install("panic@1:7").unwrap();
        let caught = std::panic::catch_unwind(maybe_panic);
        assert!(caught.is_err(), "panic@1 must always unwind");
        drop(_g);
        let _g = FaultGuard::install("panic@0:7").unwrap();
        maybe_panic(); // p=0 never fires
    }

    #[test]
    fn guard_restores_prior_plan() {
        let outer = FaultGuard::install("truncate@0.5:1").unwrap();
        assert_eq!(truncate_keep(10), 5);
        drop(outer);
        let _g = FaultGuard::hold();
        // Whatever the ambient state is, the inner guard restored it; with
        // no env plan installed in unit tests, the harness is off again.
    }
}
