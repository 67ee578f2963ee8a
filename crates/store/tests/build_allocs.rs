//! A store build allocates for its annotation table and its segments, not
//! for its frames: an append encodes into the builder's one buffer and
//! adds a fingerprint to the dedup set, so the only per-frame heap
//! traffic left is the growth of that set and of the segment indexes.
//! The counting allocator is process-global, so this file holds one test
//! and no other test's allocations land in its count.

use prox_obs::alloc::{installed, totals};
use prox_obs::CountingAlloc;
use prox_provenance::{AggKind, AggValue, AnnId, Polynomial, Tensor};
use prox_robust::fault::FaultGuard;
use prox_robust::DetRng;
use prox_store::synth::{synth_annstore, SynthAnns};
use prox_store::{StoreBuilder, SynthSpec};

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc::system();

#[test]
fn appending_allocates_less_than_once_per_four_frames() {
    let _clean = FaultGuard::disabled();
    let spec = SynthSpec::quick(2016);
    let dir = std::env::temp_dir().join(format!("prox-store-build-allocs-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let SynthAnns {
        anns,
        users,
        movies,
    } = synth_annstore(&spec);
    // The frames `build_synthetic` appends, drawn the same way, built
    // before counting starts.
    let mut rng = DetRng::new(spec.seed);
    let base = spec.logical / spec.unique_frames;
    let extra = spec.logical % spec.unique_frames;
    let frames: Vec<(AnnId, Tensor, u64)> = (0..spec.unique_frames)
        .map(|i| {
            let user = users[rng.below(users.len())];
            let movie = movies[rng.below(movies.len())];
            let rating = 0.5 * (1 + rng.below(10)) as f64;
            let tensor = Tensor::new(Polynomial::var(user), AggValue::single(rating));
            (movie, tensor, base + u64::from(i < extra))
        })
        .collect();
    let mut builder = StoreBuilder::create(&dir, &anns, AggKind::Max).expect("builder opens");

    let (_, before) = totals();
    for (movie, tensor, n) in &frames {
        builder.append(*movie, tensor, *n).expect("append succeeds");
    }
    let summary = builder.finish().expect("finish succeeds");
    let (_, after) = totals();

    assert!(installed(), "the counting allocator routes this binary");
    let allocs = after - before;
    let appended = frames.len() as u64;
    println!(
        "{appended} appends ({} unique frames) and finish: {allocs} allocations",
        summary.unique
    );
    assert_eq!(summary.logical, spec.logical);
    assert!(
        allocs * 4 < appended,
        "{allocs} allocations for {appended} appended frames"
    );
    let _ = std::fs::remove_dir_all(&dir);
}
