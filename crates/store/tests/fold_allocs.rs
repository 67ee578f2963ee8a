//! A selected fold allocates for the frames it keeps, not for the frames
//! it reads: every frame is still fetched and checked, but only a kept
//! frame is decoded. The counting allocator is process-global, so this
//! file holds one test and no other test's allocations land in its count.

use prox_obs::alloc::{installed, totals};
use prox_obs::CountingAlloc;
use prox_robust::fault::FaultGuard;
use prox_robust::ExecutionBudget;
use prox_store::{build_synthetic, SegmentStore, SynthSpec};

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc::system();

/// Allocations a kept frame may cost: its decoded tensor and its place
/// in the selection's maps.
const PER_KEPT_FRAME: u64 = 16;
/// Allocations a fold may cost whatever it reads: its per-frame and
/// per-object tables, the log reader, the frame buffer's growth, the
/// page loads of a store that fits the cache, and the selection.
const PER_FOLD: u64 = 128;

#[test]
fn a_one_object_fold_allocates_for_its_kept_frames_only() {
    let _clean = FaultGuard::disabled();
    let dir = std::env::temp_dir().join(format!("prox-store-allocs-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    build_synthetic(&dir, &SynthSpec::quick(2016)).expect("quick build succeeds");
    let mut store = SegmentStore::open(&dir).expect("fresh store opens");
    let mut session = ExecutionBudget::unlimited().start();

    let (_, before) = totals();
    let fold = store.fold(&mut session, 1).expect("fold succeeds");
    let (_, after) = totals();

    assert!(installed(), "the counting allocator routes this binary");
    let allocs = after - before;
    let kept = fold.selection.tensors().count() as u64;
    let frames = store.info().unique;
    println!("1-object fold: {allocs} allocations, {kept} kept frames of {frames}");
    assert!(kept > 0, "the selected object has frames");
    assert!(
        PER_KEPT_FRAME * kept + PER_FOLD < frames / 4,
        "the bound is well below one allocation per frame read"
    );
    assert!(
        allocs <= PER_KEPT_FRAME * kept + PER_FOLD,
        "{allocs} allocations for {kept} kept frames of {frames}"
    );
    let _ = std::fs::remove_dir_all(&dir);
}
