//! # prox-serve — the concurrent service layer
//!
//! PROX's summarization engine (§6, Algorithm 1) is a library; the paper's
//! system (§7) exposes it to users. This crate is that exposure path for
//! the workspace: a std-only, multi-threaded TCP server speaking a minimal
//! HTTP/1.1 subset, with three properties the rest of the workspace
//! already enforces in-library carried across the wire:
//!
//! * **Admission control** — a fixed worker pool pulls connections from a
//!   bounded queue ([`queue::Bounded`]); when the queue is full the accept
//!   loop sheds load immediately with `503` + `Retry-After` instead of
//!   letting latency collapse (tail-tolerant, not buffer-everything).
//! * **Budgeted execution** — every request runs under an
//!   [`prox_robust::ExecutionBudget`] derived from the `X-Prox-Budget-Ms`
//!   header (or a server default), so a slow summarization degrades to the
//!   anytime best-so-far answer with a recorded stop reason rather than
//!   hanging the connection. Budgets exhausted *upfront* map to `408`.
//! * **Deterministic caching** — responses are cached in an LRU keyed by a
//!   canonical fingerprint of the request (dataset seed, weights, bounds;
//!   [`cache::SummaryCache`]). Identical seeded requests produce
//!   byte-identical response bodies, so a cache hit is observationally
//!   equivalent to a recompute — and counted in the `prox-obs` registry.
//!
//! Endpoints: `POST /summarize`, `POST /provision`, `GET /datasets`,
//! `GET /healthz`, `GET /metrics` (the prox-obs snapshot). Bodies are
//! [`prox_obs::Json`]; errors map [`prox_robust::ErrorKind`] to HTTP
//! status codes (input → 400, budget → 408, internal → 500).
//!
//! Graceful shutdown: [`server::ServerHandle::shutdown`] (which `prox
//! serve` calls on SIGTERM/SIGINT, see [`signal`]) wakes the blocking
//! accept loop, stops accepting, closes the queue, drains
//! already-admitted connections, and cancels in-flight budgets so long
//! runs return their best-so-far summaries promptly.
//!
//! Overload hardening (see [`health`], [`ratelimit`]): workers run every
//! connection under `catch_unwind`, converting panics to typed 500s and
//! feeding a `healthy`/`degraded`/`draining` state machine surfaced on
//! `/healthz`; and per-tenant token buckets keyed by `X-Prox-Tenant`
//! answer hot tenants `429` + `Retry-After` ahead of the queue. One guard
//! per job: the queue bounds the server's load, the buckets each
//! tenant's share, and supervision a handler's failure. Both run on
//! request-schedule (virtual) clocks so behavior replays byte-identically
//! under `PROX_DETERMINISTIC`.

pub mod cache;
pub mod health;
pub mod http;
pub mod queue;
pub mod ratelimit;
pub mod server;
pub mod service;
pub mod signal;

pub use cache::{fingerprint, SummaryCache};
pub use health::{Health, HealthState};
pub use http::{Request, Response};
pub use queue::Bounded;
pub use ratelimit::RateLimiter;
pub use server::{Server, ServerConfig, ServerHandle};
pub use signal::{install_signal_handlers, signalled};

/// Lock a mutex, recovering the data if a panicking holder poisoned it.
/// Shared server state (cache, queue) stays structurally valid under
/// poisoning — entries are whole strings swapped atomically under the
/// lock — and the server must never take the process down (rule L1).
pub(crate) fn lock<T>(m: &std::sync::Mutex<T>) -> std::sync::MutexGuard<'_, T> {
    m.lock().unwrap_or_else(|e| e.into_inner())
}
