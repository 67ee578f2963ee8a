//! # prox-robust
//!
//! The workspace's fault-tolerance substrate. Five pieces:
//!
//! * [`error`] — the typed [`ProxError`] hierarchy replacing bare
//!   `Result<_, String>` across the library crates, with a coarse
//!   [`ErrorKind`] classification that maps to CLI exit codes (input
//!   errors → 2, budget exhaustion → 3, internal errors → 4);
//! * [`budget`] — [`ExecutionBudget`], a wall-clock deadline / max-steps /
//!   memo-cap / cooperative-cancel bundle threaded through every
//!   summarization loop. Exhaustion mid-run yields the **best-so-far valid
//!   summary** (the anytime contract); exhaustion before any work is done
//!   is a [`ProxError::Budget`] error;
//! * [`fault`] — a seeded, deterministic fault-injection harness driven by
//!   the `PROX_FAULT` environment variable (`site@param:seed`, comma
//!   separated). Zero-cost when disabled: every hook is a single relaxed
//!   atomic load;
//! * [`backoff`] — a seeded decorrelated-jitter retry schedule used by the
//!   serve-layer bench clients, replayable from its seed;
//! * [`rng`] — [`DetRng`], the workspace's one seeded generator, which the
//!   fault harness, the backoff, the dataset generators and every property
//!   suite draw from.
//!
//! The crate deliberately sits at the bottom of the dependency graph
//! (std + `prox-obs` only) so `prox-provenance` and everything above it
//! can share one error type.

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod backoff;
pub mod budget;
pub mod error;
pub mod fault;
pub mod rng;

pub use backoff::Backoff;
pub use budget::{BudgetSession, BudgetStop, CancelFlag, ExecutionBudget, CLOCK_STRIDE};
pub use error::{ErrorKind, ProxError};
pub use fault::{FaultGuard, FaultPlan, FaultSite};
pub use rng::DetRng;
