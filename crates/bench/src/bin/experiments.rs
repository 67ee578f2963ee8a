//! The experiments binary: regenerates every table and figure of the PROX
//! evaluation chapter.
//!
//! Usage: `cargo run -p prox-bench --release --bin experiments -- <exp>`
//! where `<exp>` is one of the ids below, or `all`. Results print as text
//! tables and land in `reports/` as `.txt` + `.json`.

// Top-level CLI entry point: an unwritable reports/ directory has no
// recovery path, so the expects double as the error report.
#![allow(clippy::expect_used)]

use prox_bench::experiments::{
    kway_experiment, sampler_accuracy_experiment, score_mode_experiment, steps_experiment, table51,
    target_dist_experiment, target_size_experiment, timing_experiment, usage_time_experiment,
    wdist_experiment, Scale,
};
use prox_bench::report::{emit, emit_text};
use prox_bench::workload;
use prox_bench::RunManifest;
use prox_cluster::Linkage;
use prox_provenance::{AggKind, ValuationClass};

// Route the bench binary's heap through the counting allocator so every
// manifest's `memory` section carries real peak/total/allocation numbers.
#[global_allocator]
static ALLOC: prox_obs::CountingAlloc = prox_obs::CountingAlloc::system();

const USAGE: &str = "experiments -- <exp> [--quick]
  table51            Table 5.1 (dataset/parameter matrix)
  wdist-ml           Figs 6.1a + 6.2a (MovieLens wDist sweep)
  target-size-ml     Fig 6.1b
  target-dist-ml     Fig 6.2b
  steps-ml           Figs 6.3a + 6.3b
  usage-time-ml      Figs 6.4a + 6.4b
  timing-ml          Figs 6.5a + 6.5b
  wdist-wiki         Figs 6.6a + 6.7a (Wikipedia)
  target-size-wiki   Fig 6.6b
  target-dist-wiki   Fig 6.7b
  wdist-ddp          Figs 6.8a + 6.9a (DDP)
  target-size-ddp    Fig 6.8b
  target-dist-ddp    Fig 6.9b
  kway-ml            Ablation A.1 (k-way merging)
  score-mode-ml      Ablation A.2 (rank vs normalized score)
  sampler-accuracy   Ablation A.3 (Prop 4.1.2 empirically)
  greedy-gap         Ablation A.4 (greedy vs exhaustive optimum)
  chaos              chaos soak: faults + overload against the serve stack
  store              out-of-core segment store: build, verify, fold, summarize
  all                everything above";

fn ml(scale: Scale) -> Vec<prox_bench::Workload<prox_provenance::ProvExpr>> {
    // §6.4's setting: Cancel Single Attribute, MAX aggregation.
    workload::movielens(
        scale.instances,
        ValuationClass::CancelSingleAttribute,
        AggKind::Max,
        Linkage::Single,
    )
}

fn wiki(scale: Scale) -> Vec<prox_bench::Workload<prox_provenance::ProvExpr>> {
    // §6.10: Cancel Single Annotation, SUM aggregation.
    workload::wikipedia(
        scale.instances,
        ValuationClass::CancelSingleAnnotation,
        Linkage::Single,
    )
}

fn ddp(scale: Scale) -> Vec<prox_bench::Workload<prox_provenance::DdpExpr>> {
    // §6.10: Cancel Single Attribute for DDP.
    workload::ddp(scale.instances, ValuationClass::CancelSingleAttribute)
}

fn run_experiment(name: &str, scale: Scale, manifest: &mut RunManifest) -> bool {
    let ok = |r: std::io::Result<()>| r.expect("writing reports");
    match name {
        "table51" => ok(emit_text("table51", &table51())),
        "wdist-ml" => {
            let ws = ml(scale);
            manifest.datasets(&ws);
            let steps = if scale.quick { 5 } else { 20 };
            let (d, s) = wdist_experiment(&ws, scale, steps, "6.1a", "6.2a", "MovieLens");
            ok(emit(&d));
            ok(emit(&s));
        }
        "target-size-ml" => {
            let ws = ml(scale);
            manifest.datasets(&ws);
            ok(emit(&target_size_experiment(
                &ws,
                scale,
                "6.1b",
                "MovieLens",
            )));
        }
        "target-dist-ml" => {
            let ws = ml(scale);
            manifest.datasets(&ws);
            ok(emit(&target_dist_experiment(
                &ws,
                scale,
                "6.2b",
                "MovieLens",
            )));
        }
        "steps-ml" => {
            let ws = ml(scale);
            manifest.datasets(&ws);
            let (d, s) = steps_experiment(&ws, scale, "6.3b", "6.3a", "MovieLens");
            ok(emit(&s));
            ok(emit(&d));
        }
        "usage-time-ml" => {
            let ws = ml(scale);
            manifest.datasets(&ws);
            for fig in usage_time_experiment(&ws, scale, &[("6.4a", 20), ("6.4b", 30)]) {
                ok(emit(&fig));
            }
        }
        "timing-ml" => {
            let ws = ml(scale);
            manifest.datasets(&ws);
            let (c, s) = timing_experiment(&ws, scale, "6.5a", "6.5b");
            ok(emit(&c));
            ok(emit(&s));
        }
        "wdist-wiki" => {
            let ws = wiki(scale);
            manifest.datasets(&ws);
            let steps = if scale.quick { 5 } else { 20 };
            let (d, s) = wdist_experiment(&ws, scale, steps, "6.6a", "6.7a", "Wikipedia");
            ok(emit(&d));
            ok(emit(&s));
        }
        "target-size-wiki" => {
            let ws = wiki(scale);
            manifest.datasets(&ws);
            ok(emit(&target_size_experiment(
                &ws,
                scale,
                "6.6b",
                "Wikipedia",
            )));
        }
        "target-dist-wiki" => {
            let ws = wiki(scale);
            manifest.datasets(&ws);
            ok(emit(&target_dist_experiment(
                &ws,
                scale,
                "6.7b",
                "Wikipedia",
            )));
        }
        "wdist-ddp" => {
            let ws = ddp(scale);
            manifest.datasets(&ws);
            let steps = if scale.quick { 4 } else { 10 };
            let (d, s) = wdist_experiment(&ws, scale, steps, "6.8a", "6.9a", "DDP");
            ok(emit(&d));
            ok(emit(&s));
        }
        "target-size-ddp" => {
            let ws = ddp(scale);
            manifest.datasets(&ws);
            let fractions = if scale.quick {
                vec![0.9, 0.95]
            } else {
                vec![0.8, 0.82, 0.84, 0.86, 0.88, 0.9, 0.92, 0.94, 0.96, 0.98]
            };
            ok(emit(&prox_bench::experiments::target_size_experiment_with(
                &ws,
                scale,
                "6.8b",
                "DDP",
                Some(fractions),
            )));
        }
        "target-dist-ddp" => {
            let ws = ddp(scale);
            manifest.datasets(&ws);
            let grid = if scale.quick {
                vec![0.002, 0.008]
            } else {
                (1..=10).map(|i| i as f64 / 1000.0).collect()
            };
            ok(emit(&prox_bench::experiments::target_dist_experiment_with(
                &ws,
                scale,
                "6.9b",
                "DDP",
                Some(grid),
            )));
        }
        "kway-ml" => {
            let ws = ml(scale);
            manifest.datasets(&ws);
            ok(emit(&kway_experiment(&ws, scale)));
        }
        "score-mode-ml" => {
            let ws = ml(scale);
            manifest.datasets(&ws);
            ok(emit(&score_mode_experiment(&ws, scale)));
        }
        "sampler-accuracy" => {
            ok(emit(&sampler_accuracy_experiment(scale)));
        }
        "greedy-gap" => {
            ok(emit(&prox_bench::experiments::greedy_gap_experiment(scale)));
        }
        "chaos" => {
            // A failure to even start/drive the server is an experiment
            // failure: panic so the runner's retry/skip machinery records it.
            if let Err(e) = prox_bench::chaos::chaos_experiment(scale, manifest) {
                panic!("chaos soak failed: {e}");
            }
        }
        "store" => {
            if let Err(e) = prox_bench::store_bench::store_experiment(scale, manifest) {
                panic!("store experiment failed: {e}");
            }
        }
        _ => return false,
    }
    true
}

const ALL: &[&str] = &[
    "table51",
    "wdist-ml",
    "target-size-ml",
    "target-dist-ml",
    "steps-ml",
    "usage-time-ml",
    "timing-ml",
    "wdist-wiki",
    "target-size-wiki",
    "target-dist-wiki",
    "wdist-ddp",
    "target-size-ddp",
    "target-dist-ddp",
    "kway-ml",
    "score-mode-ml",
    "sampler-accuracy",
    "greedy-gap",
    "chaos",
    "store",
];

/// Per-experiment wall-clock timeout (milliseconds): `PROX_EXP_TIMEOUT_MS`
/// overrides the defaults (2 minutes quick, 30 minutes full). The runner
/// tightens every run's execution budget to this deadline, so a slow
/// experiment degrades to best-so-far summaries instead of hanging the
/// suite.
fn experiment_timeout_ms(scale: Scale) -> u64 {
    std::env::var("PROX_EXP_TIMEOUT_MS")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(if scale.quick { 120_000 } else { 1_800_000 })
}

/// Executions per experiment before it is marked `skipped`.
const MAX_ATTEMPTS: u32 = 2;

/// The `run/stop/*` counters that mark a run as budget-degraded.
const BUDGET_STOPS: [&str; 3] = [
    "run/stop/deadline_exceeded",
    "run/stop/budget_exhausted",
    "run/stop/cancelled",
];

/// Run one experiment with a fresh observability window, a per-experiment
/// deadline, and bounded retry on panic; write its manifest with the
/// outcome (`completed` / `degraded` / `skipped`). Returns false for
/// unknown experiment names.
fn run_one(name: &str, scale: Scale) -> bool {
    use std::panic::{catch_unwind, AssertUnwindSafe};

    use prox_bench::runner::{clear_experiment_deadline, set_experiment_deadline};

    let timeout_ms = experiment_timeout_ms(scale);
    let mut attempts = 0u32;
    loop {
        attempts += 1;
        eprintln!("── running {name} (attempt {attempts}/{MAX_ATTEMPTS}) ──");
        prox_obs::reset();
        let mut manifest = RunManifest::new(name, scale);
        let t = std::time::Instant::now();
        set_experiment_deadline(t + std::time::Duration::from_millis(timeout_ms));
        let outcome = catch_unwind(AssertUnwindSafe(|| {
            run_experiment(name, scale, &mut manifest)
        }));
        clear_experiment_deadline();
        match outcome {
            // Unknown experiment name: no manifest, caller prints usage.
            Ok(false) => return false,
            Ok(true) => {
                let degraded = BUDGET_STOPS
                    .iter()
                    .any(|c| prox_obs::counter_value(c).unwrap_or(0) > 0);
                let status = if degraded { "degraded" } else { "completed" };
                manifest.wall_time(t.elapsed());
                manifest.outcome(status, attempts, Some(timeout_ms));
                match manifest.write() {
                    Ok(path) => {
                        eprintln!("   {status}: {} ({:.1?})", path.display(), t.elapsed())
                    }
                    Err(e) => eprintln!("   manifest write failed: {e} ({:.1?})", t.elapsed()),
                }
                return true;
            }
            Err(_) => {
                eprintln!("   {name} panicked on attempt {attempts}/{MAX_ATTEMPTS}");
                if attempts >= MAX_ATTEMPTS {
                    // Record the failure so the suite's output is complete,
                    // then move on to the next experiment.
                    let mut manifest = RunManifest::new(name, scale);
                    manifest.wall_time(t.elapsed());
                    manifest.outcome("skipped", attempts, Some(timeout_ms));
                    match manifest.write() {
                        Ok(path) => eprintln!("   skipped: {}", path.display()),
                        Err(e) => eprintln!("   manifest write failed: {e}"),
                    }
                    return true;
                }
            }
        }
    }
}

fn main() {
    // Counters/spans are always collected in bench runs so manifests are
    // complete; PROX_TRACE=<path> additionally streams a JSONL trace.
    prox_obs::init_from_env();
    // PROX_FAULT arms the deterministic fault harness for chaos runs.
    prox_robust::fault::init_from_env();
    prox_obs::set_enabled(true);
    // PROX_PROFILE=<path> folds the span stacks into flamegraph input
    // covering the whole suite (boundary mode under PROX_DETERMINISTIC).
    let profile_path = prox_obs::prof::init_from_env();
    let args: Vec<String> = std::env::args().skip(1).collect();
    let quick = args.iter().any(|a| a == "--quick");
    let scale = if quick { Scale::quick() } else { Scale::full() };
    let names: Vec<&str> = args
        .iter()
        .filter(|a| *a != "--quick")
        .map(String::as_str)
        .collect();
    if names.is_empty() {
        eprintln!("{USAGE}");
        std::process::exit(2);
    }
    for name in names {
        if name == "all" {
            for exp in ALL {
                run_one(exp, scale);
            }
        } else if !run_one(name, scale) {
            eprintln!("unknown experiment {name:?}\n{USAGE}");
            std::process::exit(2);
        }
    }
    if let Some(path) = profile_path {
        prox_obs::prof::disable();
        match prox_obs::prof::write_folded(&path) {
            Ok(()) => eprintln!("profile (folded stacks) written to {path}"),
            Err(e) => eprintln!("cannot write PROX_PROFILE={path}: {e}"),
        }
    }
    prox_obs::flush_sink();
}
