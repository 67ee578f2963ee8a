//! A page miss reads into the buffer of the page it evicts, so a fold
//! through a page cache smaller than the store allocates no more than
//! the same fold through a cache that holds it. The counting allocator
//! is process-global, so this file holds one test and no other test's
//! allocations land in its count.

use prox_obs::alloc::{installed, totals};
use prox_obs::CountingAlloc;
use prox_robust::fault::FaultGuard;
use prox_robust::ExecutionBudget;
use prox_store::{build_synthetic, SegmentStore, SynthSpec};

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc::system();

const PAGE_BYTES: usize = 4096;

/// Allocations of a cold 1-object fold and of a warm one after it, on
/// the store at `dir` opened with 4 KiB pages under `cache_bytes`.
fn fold_allocs(dir: &std::path::Path, cache_bytes: usize) -> (u64, u64, u64) {
    let mut store = SegmentStore::open_with(dir, PAGE_BYTES, cache_bytes)
        .unwrap_or_else(|e| panic!("open: {e}"));
    let mut counts = [0; 2];
    for count in &mut counts {
        let (_, before) = totals();
        let fold = store
            .fold(&mut ExecutionBudget::unlimited().start(), 1)
            .unwrap_or_else(|e| panic!("fold: {e}"));
        let (_, after) = totals();
        *count = after - before;
        drop(fold);
    }
    (counts[0], counts[1], store.cache_stats().misses)
}

#[test]
fn a_fold_through_a_small_cache_allocates_no_more_than_through_a_large_one() {
    let _clean = FaultGuard::disabled();
    let dir = std::env::temp_dir().join(format!("prox-store-page-allocs-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    build_synthetic(&dir, &SynthSpec::quick(2016)).expect("quick build succeeds");

    let (cold_large, warm_large, misses_large) = fold_allocs(&dir, 4 << 20);
    let (cold_small, warm_small, misses_small) = fold_allocs(&dir, 4 * PAGE_BYTES);

    assert!(installed(), "the counting allocator routes this binary");
    println!(
        "1-object folds, 4 KiB pages: cold {cold_large} / warm {warm_large} allocations \
         holding the store ({misses_large} misses), cold {cold_small} / warm {warm_small} \
         under 4 pages ({misses_small} misses)"
    );
    assert!(
        misses_small > 10 * misses_large,
        "the small cache misses again and again"
    );
    assert!(
        cold_small <= cold_large,
        "cold: {cold_small} allocations through 4 pages, {cold_large} through the whole store"
    );
    assert!(
        warm_small <= warm_large,
        "warm: {warm_small} allocations through 4 pages, {warm_large} with every page cached"
    );
    let _ = std::fs::remove_dir_all(&dir);
}
