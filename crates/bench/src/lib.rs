//! # prox-bench
//!
//! The experiment harness regenerating every table and figure of the PROX
//! evaluation (Chapter 6), plus ablations:
//!
//! | Figure | Experiment | Function |
//! |--------|------------|----------|
//! | 6.1a/6.2a | wDist sweep (MovieLens) | [`experiments::wdist_experiment`] |
//! | 6.1b | TARGET-SIZE sweep | [`experiments::target_size_experiment`] |
//! | 6.2b | TARGET-DIST sweep | [`experiments::target_dist_experiment`] |
//! | 6.3a/b | varying step budget | [`experiments::steps_experiment`] |
//! | 6.4a/b | usage-time ratio | [`experiments::usage_time_experiment`] |
//! | 6.5a/b | candidate & summarization time | [`experiments::timing_experiment`] |
//! | 6.6–6.7 | Wikipedia sweeps | same functions over [`workload::wikipedia`] |
//! | 6.8–6.9 | DDP sweeps | same functions over [`workload::ddp`] |
//! | Table 5.1 | dataset matrix | [`experiments::table51`] |
//! | — | chaos soak (faults + overload) | [`chaos::chaos_experiment`] |
//! | A.1–A.3 | k-way, score-mode, sampler ablations | [`experiments`] |
//!
//! Run everything with
//! `cargo run -p prox-bench --release --bin experiments -- all`.

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod chaos;
pub mod diff;
pub mod experiments;
pub mod manifest;
pub mod report;
pub mod runner;
pub mod series;
pub mod store_bench;
pub mod workload;

pub use experiments::Scale;
pub use manifest::RunManifest;
pub use runner::{clear_experiment_deadline, run, set_experiment_deadline, Algo};
pub use series::{Figure, Series};
pub use workload::Workload;
