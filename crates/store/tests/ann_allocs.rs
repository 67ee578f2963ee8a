//! An annotation costs two allocations in a store's table: its name,
//! shared by its record and the name index, and its attribute list. That
//! holds for the synthetic generator's table and for one decoded from
//! `anns.bin`, at the benchmark's store-rw shape. The counting allocator
//! is process-global, so this file holds one test and no other test's
//! allocations land in its count.

use prox_obs::alloc::{installed, totals};
use prox_obs::CountingAlloc;
use prox_store::synth::{synth_annstore, SynthAnns};
use prox_store::{decode_annstore, encode_annstore, SynthSpec};

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc::system();

/// Allocations a table may make whatever its size: the growth of its
/// vectors and name maps, and its domain, attribute and value names.
const PER_TABLE: u64 = 256;

fn allocs<T>(f: impl FnOnce() -> T) -> (T, u64) {
    let (_, before) = totals();
    let out = f();
    let (_, after) = totals();
    (out, after - before)
}

#[test]
fn a_table_allocates_twice_per_annotation() {
    let spec = SynthSpec {
        unique_frames: 50_000,
        ..SynthSpec::full(2016)
    };
    let (SynthAnns { anns, .. }, built) = allocs(|| synth_annstore(&spec));
    let blob = encode_annstore(&anns).expect("base annotations encode");
    let (decoded, read) = allocs(|| decode_annstore(&blob).expect("the blob decodes"));

    assert!(installed(), "the counting allocator routes this binary");
    let n = anns.len() as u64;
    println!("{n} annotations: built with {built} allocations, decoded with {read}");
    assert_eq!(n, u64::from(spec.users + spec.movies));
    assert!(built <= 2 * n + PER_TABLE, "{built} allocations build {n}");
    assert!(read <= 2 * n + PER_TABLE, "{read} allocations decode {n}");
    assert_eq!(decoded.len(), anns.len());
    for (id, ann) in anns.iter() {
        assert_eq!(decoded.name(id), &*ann.name);
        assert_eq!(decoded.by_name(&ann.name), Some(id));
    }
}
