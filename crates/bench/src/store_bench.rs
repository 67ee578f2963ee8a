//! The out-of-core store experiment: build a synthetic MovieLens-shaped
//! segment store (ten million logical expressions at full scale), verify
//! it, fold it through a fixed page-cache ceiling keeping only a
//! selection in memory, and summarize that selection — proving the
//! summarizer runs over provenance that never fully resides in memory.
//!
//! The manifest's `store` section records the spec, the build and verify
//! reports, the scan outcome, the reader statistics (including the
//! page-cache peak, which must stay under the configured ceiling), and
//! the summarization result. Under `PROX_DETERMINISTIC` the section is
//! byte-identical across same-seed runs: every recorded number is a
//! function of the seed, and wall-clock measurements are omitted.

use std::time::Instant;

use prox_core::SummarizeConfig;
use prox_obs::Json;
use prox_robust::{ExecutionBudget, ProxError};
use prox_store::{build_synthetic, verify_store, SegmentStore, SynthSpec};
use prox_system::summarize_selection;

use crate::{RunManifest, Scale};

/// Generator seed for the synthetic store (the repo's canonical seed).
const STORE_SEED: u64 = 2016;
/// Page size for the bounded cache.
const PAGE_BYTES: usize = 64 * 1024;
/// Page-cache ceiling: the whole fold must fit its reads through this.
const CACHE_BYTES: usize = 2 * 1024 * 1024;
/// Objects (movies) in the summarized selection — the interactive flow
/// summarizes a selection, not the whole catalogue.
const SELECT_OBJECTS: usize = 4;
/// Merge steps for the summarization pass.
const SUMMARY_STEPS: usize = 12;

/// Build, verify, fold, and summarize a synthetic segment store; record
/// everything as the manifest's `store` section.
pub fn store_experiment(scale: Scale, manifest: &mut RunManifest) -> Result<(), ProxError> {
    let (spec, tag) = if scale.quick {
        (SynthSpec::quick(STORE_SEED), "quick")
    } else {
        (SynthSpec::full(STORE_SEED), "full")
    };
    let dir = std::env::temp_dir().join(format!("prox-store-bench-{tag}"));
    if dir.exists() {
        std::fs::remove_dir_all(&dir)
            .map_err(|e| ProxError::io(format!("remove {}", dir.display()), &e))?;
    }

    let t_build = Instant::now();
    let built = build_synthetic(&dir, &spec)?;
    let build_ms = t_build.elapsed().as_millis() as u64;

    let t_verify = Instant::now();
    let verify = verify_store(&dir)?;
    let verify_ms = t_verify.elapsed().as_millis() as u64;

    // Fold off the store only the selection the summarizer needs — the
    // first few objects, the way the UI summarizes a user's selection
    // rather than the catalogue.
    let mut store = SegmentStore::open_with(&dir, PAGE_BYTES, CACHE_BYTES)?;
    let budget = ExecutionBudget::unlimited();
    let mut session = budget.start();
    let t_fold = Instant::now();
    let fold = store.fold(&mut session, SELECT_OBJECTS)?;
    let fold_ms = t_fold.elapsed().as_millis() as u64;
    if fold.outcome.logical_seen != spec.logical {
        return Err(ProxError::internal(format!(
            "store fold saw {} logical expressions, spec says {}",
            fold.outcome.logical_seen, spec.logical
        )));
    }

    let mut anns = store.overlay();
    let config = SummarizeConfig {
        max_steps: SUMMARY_STEPS,
        ..SummarizeConfig::default()
    };
    let t_sum = Instant::now();
    let result = summarize_selection(&fold.selection, &mut anns, config)?;
    let summarize_ms = t_sum.elapsed().as_millis() as u64;

    let stats = store.stats_json();
    let cache_peak = stats
        .get("page_cache")
        .and_then(|c| c.get("peak_bytes"))
        .and_then(Json::as_u64)
        .unwrap_or(0);
    if cache_peak > CACHE_BYTES as u64 {
        return Err(ProxError::internal(format!(
            "page cache peaked at {cache_peak} bytes, over the {CACHE_BYTES}-byte ceiling"
        )));
    }

    let mut section = Json::obj()
        .with(
            "spec",
            Json::obj()
                .with("users", spec.users)
                .with("movies", spec.movies)
                .with("unique_frames", spec.unique_frames)
                .with("logical", spec.logical)
                .with("seed", spec.seed),
        )
        .with(
            "build",
            Json::obj()
                .with("logical", built.summary.logical)
                .with("unique", built.summary.unique)
                .with("log_entries", built.summary.log_entries)
                .with("payload_bytes", built.summary.payload_bytes)
                .with("segments", built.summary.segments.len())
                .with("dedup_ratio", round6(built.summary.dedup_ratio())),
        )
        .with("verify", verify.to_json())
        .with(
            "fold",
            Json::obj()
                .with("logical_seen", fold.outcome.logical_seen)
                .with("records_seen", fold.outcome.records_seen)
                .with("stopped", fold.outcome.stopped.is_some())
                .with("objects", fold.objects)
                .with("tensors", fold.size),
        )
        .with("reader", reader_stats(stats, tag))
        .with("cache_ceiling_bytes", CACHE_BYTES)
        .with(
            "summary",
            Json::obj()
                .with("selected_objects", SELECT_OBJECTS)
                .with("selection_size", fold.selection.size())
                .with("steps", result.history.len())
                .with("initial_size", result.initial_size)
                .with("final_size", result.final_size())
                .with("final_distance", round6(result.final_distance))
                .with("stop_reason", format!("{:?}", result.stop_reason)),
        );
    if !manifest.deterministic() {
        section.set(
            "timing_ms",
            Json::obj()
                .with("build", build_ms)
                .with("verify", verify_ms)
                .with("fold", fold_ms)
                .with("summarize", summarize_ms),
        );
    }
    manifest.extra("store", section);
    Ok(())
}

/// The reader's `stats_json` with the temp-dir path replaced by a stable
/// tag, so manifests never depend on where the store was staged.
fn reader_stats(mut stats: Json, tag: &str) -> Json {
    stats.set("dir", format!("prox-store-bench-{tag}"));
    stats
}

fn round6(x: f64) -> f64 {
    (x * 1e6).round() / 1e6
}
