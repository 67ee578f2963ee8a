//! Property tests for the store's binary framing and file formats.
//!
//! Random cases come from the workspace's deterministic splitmix64
//! generator ([`prox_robust::DetRng`]), same discipline as the
//! provenance property suite: every failure replays from its fixed seed
//! and the harness runs identically offline.
//!
//! The properties: encode→decode is the identity on canonical entries;
//! the skim accepts exactly the payloads the decoder accepts and reports
//! the decoded object and size, canonical or not; truncated frames and
//! checksum-damaged blobs are typed [`prox_robust::ProxError`]s — never
//! panics; a `PROX_FAULT=corrupt` read path degrades to typed errors;
//! same-seed synthetic builds are byte-identical on disk, and quick
//! builds write pinned bytes; and a selected fold keeps exactly the
//! selection an oracle cuts from the full record stream, with the reads
//! of an unselected one.

use std::collections::BTreeMap;
use std::io;
use std::path::{Path, PathBuf};

use prox_obs::{fnv64, Json};
use prox_provenance::{
    AggKind, AggValue, AnnId, AnnStore, CmpOp, Guard, Monomial, Polynomial, ProvExpr, Tensor,
};
use prox_robust::fault::{self, FaultGuard};
use prox_robust::{BudgetStop, DetRng, ErrorKind, ExecutionBudget, ProxError, CLOCK_STRIDE};
use prox_store::codec::{entry_fingerprint, Enc};
use prox_store::{
    build_synthetic, decode_annstore, decode_entry, encode_annstore, encode_entry, skim_entry,
    verify_store, ScanOutcome, SegmentStore, StoreBuilder, SynthSpec, DEFAULT_CACHE_BYTES,
    DEFAULT_PAGE_BYTES, MANIFEST_FILE,
};

/// Cases per property.
const CASES: usize = 64;
/// Annotation universe for random entries (also the decoder bound).
const MAX_ANN: usize = 32;

const OPS: [CmpOp; 6] = [
    CmpOp::Gt,
    CmpOp::Ge,
    CmpOp::Lt,
    CmpOp::Le,
    CmpOp::Eq,
    CmpOp::Ne,
];

fn ann(rng: &mut DetRng) -> AnnId {
    AnnId::from_index(rng.below(MAX_ANN))
}

/// A random canonical polynomial: 1–4 terms of degree 0–3, coefficients
/// 1–5. Built through `from_terms` so it is already in the normal form
/// the decoder produces.
fn random_poly(rng: &mut DetRng) -> Polynomial {
    let n_terms = rng.below(4) + 1;
    Polynomial::from_terms((0..n_terms).map(|_| {
        let degree = rng.below(4);
        let factors: Vec<AnnId> = (0..degree).map(|_| ann(rng)).collect();
        (Monomial::from_factors(factors), rng.next_u64() % 5 + 1)
    }))
}

/// A value with two decimal digits — round-trips bit-exactly.
fn random_value(rng: &mut DetRng) -> f64 {
    (rng.next_u64() % 10_000) as f64 / 100.0
}

fn random_guard(rng: &mut DetRng) -> Guard {
    let n_lhs = rng.below(2) + 1;
    Guard {
        lhs: (0..n_lhs)
            .map(|_| (random_poly(rng), random_value(rng)))
            .collect(),
        op: OPS[rng.below(OPS.len())],
        rhs: random_value(rng),
    }
}

/// A random entry: object id, canonical polynomial, 0–3 guards covering
/// every comparison op over the cases, and an aggregation value.
fn random_entry(rng: &mut DetRng) -> (AnnId, Tensor) {
    let object = ann(rng);
    let prov = random_poly(rng);
    let guards: Vec<Guard> = (0..rng.below(4)).map(|_| random_guard(rng)).collect();
    let value = AggValue::new(random_value(rng), rng.next_u64() % 7 + 1);
    let tensor = if guards.is_empty() {
        Tensor::new(prov, value)
    } else {
        Tensor::guarded(prov, guards, value)
    };
    (object, tensor)
}

/// Check the skim against the decoder on one payload: both accept it or
/// both reject it as an input error, and when they accept, the skim
/// reports the decoded object and size. Returns the decoder's verdict.
fn skim_agrees(payload: &[u8], case: &str) -> Result<(AnnId, Tensor), ProxError> {
    let decoded = decode_entry(payload, MAX_ANN);
    let skimmed = skim_entry(payload, MAX_ANN);
    match (&decoded, &skimmed) {
        (Ok((object, tensor)), Ok(skim)) => {
            assert_eq!(*skim, (*object, tensor.size()), "{case}: skim = decode");
        }
        (Err(d), Err(s)) => {
            assert_eq!(d.kind(), ErrorKind::Input, "{case}: decode error {d}");
            assert_eq!(s.kind(), ErrorKind::Input, "{case}: skim error {s}");
        }
        (d, s) => panic!("{case}: decode {d:?} but skim {s:?}"),
    }
    decoded
}

/// A unique scratch dir under the system temp dir.
fn scratch(tag: &str) -> io::Result<PathBuf> {
    let dir = std::env::temp_dir().join(format!("prox-store-prop-{tag}-{}", std::process::id()));
    if dir.exists() {
        std::fs::remove_dir_all(&dir)?;
    }
    Ok(dir)
}

/// Encoding then decoding a canonical entry is the identity, and the
/// frame's content address is exactly the FNV of its bytes.
#[test]
fn entry_encode_decode_roundtrip() {
    let mut rng = DetRng::new(0x57_0123);
    for case in 0..CASES {
        let (object, tensor) = random_entry(&mut rng);
        let payload = encode_entry(object, &tensor);
        let (object2, tensor2) = skim_agrees(&payload, &format!("case {case}"))
            .unwrap_or_else(|e| panic!("case {case}: {e}"));
        assert_eq!(object, object2, "case {case}: object survives");
        assert_eq!(tensor, tensor2, "case {case}: tensor survives");
        assert_eq!(
            entry_fingerprint(object, &tensor),
            fnv64(&payload),
            "case {case}: the content address is the FNV of the frame bytes"
        );
        let mut trailing = payload.clone();
        trailing.push(0);
        let err = skim_agrees(&trailing, &format!("case {case} + 1 byte"))
            .expect_err("a trailing byte never decodes");
        assert!(err.to_string().contains("trailing"), "case {case}: {err}");
    }
}

/// Every strict prefix of a valid frame decodes to a typed error (the
/// payload is self-delimiting, so losing tail bytes is always caught) —
/// and never panics.
#[test]
fn truncated_frames_are_typed_errors() {
    let mut rng = DetRng::new(0x57_4444);
    for case in 0..16 {
        let (object, tensor) = random_entry(&mut rng);
        let payload = encode_entry(object, &tensor);
        for len in 0..payload.len() {
            skim_agrees(&payload[..len], &format!("case {case} prefix {len}"))
                .expect_err("a strict prefix never decodes");
        }
    }
}

/// Single-bit damage to a frame payload either still decodes (the flip
/// landed in a value) or yields a typed input error — never a panic.
/// The segment layer's per-frame checksum is what catches the silent
/// decodes; this property pins down the codec's own behaviour.
#[test]
fn bitflipped_frames_never_panic() {
    let mut rng = DetRng::new(0x57_9999);
    for _ in 0..16 {
        let (object, tensor) = random_entry(&mut rng);
        let payload = encode_entry(object, &tensor);
        for byte in 0..payload.len() {
            for bit in 0..8 {
                let mut damaged = payload.clone();
                damaged[byte] ^= 1 << bit;
                // Ok when the flip landed in a value; the frame checksum
                // layer catches those.
                let _ = skim_agrees(&damaged, &format!("byte {byte} bit {bit}"));
            }
        }
    }
}

/// A polynomial's terms as `(factor ids, coefficient)`, to be written as
/// given, without the normalization `encode_entry` relies on.
type RawPoly<'a> = &'a [(&'a [u32], u64)];

fn put_raw_poly(enc: &mut Enc, terms: RawPoly<'_>) {
    enc.put_u32(terms.len() as u32);
    for &(factors, coeff) in terms {
        enc.put_u32(factors.len() as u32);
        for &a in factors {
            enc.put_u32(a);
        }
        enc.put_u64(coeff);
    }
}

/// A payload for object `object` with provenance `prov` and one guard
/// whose lhs is `lhs` (no guard when `lhs` is `None`) and op tag `op`.
fn raw_entry(object: u32, prov: RawPoly<'_>, lhs: Option<RawPoly<'_>>, op: u8) -> Vec<u8> {
    let mut enc = Enc::new();
    enc.put_u32(object);
    put_raw_poly(&mut enc, prov);
    match lhs {
        Some(lhs) => {
            enc.put_u32(1);
            enc.put_u32(1);
            put_raw_poly(&mut enc, lhs);
            enc.put_f64(2.5);
            enc.put_u8(op);
            enc.put_f64(1.0);
        }
        None => enc.put_u32(0),
    }
    enc.put_f64(4.0);
    enc.put_u64(1);
    enc.into_bytes()
}

/// Payloads no encoder writes, but which decode: repeated, unsorted, or
/// zero-coefficient monomials and unsorted factors, in the provenance and
/// in a guard. The decoder normalizes them, which can shrink the size;
/// the skim must report the size the decoder does.
#[test]
fn skim_matches_decode_on_non_canonical_payloads() {
    let canonical: RawPoly = &[(&[1, 2], 1), (&[3], 2)];
    let cases: [(&str, RawPoly); 7] = [
        ("repeated monomial", &[(&[1, 2], 1), (&[1, 2], 3)]),
        ("unsorted monomials", &[(&[3], 2), (&[1, 2], 1)]),
        ("unsorted factors", &[(&[2, 1], 1), (&[3], 2)]),
        ("repeat up to factor order", &[(&[1, 2], 1), (&[2, 1], 1)]),
        ("zero coefficient", &[(&[1, 2], 0), (&[3], 2)]),
        ("all zero", &[(&[4, 5, 6], 0)]),
        ("empty monomial twice", &[(&[], 1), (&[], 1), (&[7], 1)]),
    ];
    for (name, terms) in cases {
        for (place, payload) in [
            ("prov", raw_entry(3, terms, None, 0)),
            ("guard", raw_entry(3, canonical, Some(terms), 1)),
        ] {
            let case = format!("{name} in {place}");
            let (object, tensor) = skim_agrees(&payload, &case)
                .unwrap_or_else(|e| panic!("{case}: a non-canonical payload decodes: {e}"));
            assert_eq!(object.index(), 3, "{case}");
            assert!(
                tensor.size() <= 6,
                "{case}: normalizing never grows a polynomial"
            );
        }
    }

    // Random raw polynomials: factor order, repeats, and zero
    // coefficients drawn freely.
    let mut rng = DetRng::new(0x57_c0de);
    for case in 0..CASES {
        let factor_lists: Vec<Vec<u32>> = (0..rng.below(5))
            .map(|_| (0..rng.below(3)).map(|_| rng.below(4) as u32).collect())
            .collect();
        let terms: Vec<(&[u32], u64)> = factor_lists
            .iter()
            .map(|f| (f.as_slice(), rng.next_u64() % 3))
            .collect();
        let guarded = rng.below(2) == 0;
        let payload = if guarded {
            raw_entry(rng.below(MAX_ANN) as u32, canonical, Some(&terms), 5)
        } else {
            raw_entry(rng.below(MAX_ANN) as u32, &terms, None, 0)
        };
        skim_agrees(&payload, &format!("random case {case}"))
            .unwrap_or_else(|e| panic!("random case {case}: {e}"));
    }
}

/// Hand-made malformed payloads that no bit flip of a small frame
/// reaches reliably: both paths reject each one with a typed input error
/// naming the fault.
#[test]
fn skim_and_decode_reject_malformed_payloads() {
    let ok: RawPoly = &[(&[1, 2], 1)];
    let far = MAX_ANN as u32;
    let out_of_range: RawPoly = &[(&[1, far], 1)];
    let mut huge_count = raw_entry(0, ok, None, 0);
    huge_count[4..8].copy_from_slice(&u32::MAX.to_le_bytes());
    let cases = [
        (
            "object id out of range",
            raw_entry(far, ok, None, 0),
            "out of range",
        ),
        (
            "factor id out of range",
            raw_entry(0, out_of_range, None, 0),
            "out of range",
        ),
        (
            "guard factor id out of range",
            raw_entry(0, ok, Some(out_of_range), 0),
            "out of range",
        ),
        ("unknown op tag", raw_entry(0, ok, Some(ok), 6), "op tag"),
        ("count past the payload", huge_count, "exceeds"),
    ];
    for (name, payload, needle) in cases {
        let err = skim_agrees(&payload, name).expect_err("a malformed payload never decodes");
        assert!(err.to_string().contains(needle), "{name}: {err}");
        let skim = skim_entry(&payload, MAX_ANN).expect_err("the skim rejects it too");
        assert!(skim.to_string().contains(needle), "{name}: {skim}");
    }
}

/// The annotation-store blob round-trips through its canonical encoding,
/// and its embedded checksum catches every single-bit flip and every
/// truncation with a typed error.
#[test]
fn annstore_blob_roundtrip_and_checksum() {
    let _clean = FaultGuard::disabled();
    let dir = scratch("anns").expect("scratch dir is removable");
    let spec = SynthSpec {
        users: 12,
        movies: 6,
        unique_frames: 60,
        logical: 600,
        seed: 5,
    };
    build_synthetic(&dir, &spec).expect("small build succeeds");
    let store = SegmentStore::open(&dir).expect("fresh store opens");
    let blob = encode_annstore(store.anns()).expect("base annotations encode");
    let decoded = decode_annstore(&blob).expect("canonical blob decodes");
    assert_eq!(
        encode_annstore(&decoded).expect("decoded store re-encodes"),
        blob,
        "decode is a section of encode"
    );

    for len in 0..blob.len() {
        let err = decode_annstore(&blob[..len]).expect_err("a strict prefix never decodes");
        assert_eq!(err.kind(), ErrorKind::Input, "truncation at {len}: {err}");
    }
    let mut rng = DetRng::new(0x57_AAAA);
    for _ in 0..256 {
        let byte = rng.below(blob.len());
        let bit = rng.below(8);
        let mut damaged = blob.clone();
        damaged[byte] ^= 1 << bit;
        let err =
            decode_annstore(&damaged).expect_err("the checksum catches every single-bit flip");
        assert_eq!(err.kind(), ErrorKind::Input, "flip {byte}.{bit}: {err}");
    }
    let _ = std::fs::remove_dir_all(&dir);
}

/// Under `PROX_FAULT=corrupt`, opening, folding, and verifying a store
/// degrade to typed input errors (or survive when the flip lands in a
/// value the checksums re-validate) — never panics, never silent trash.
#[test]
fn fault_corrupt_reads_degrade_to_typed_errors() {
    let dir = scratch("fault").expect("scratch dir is removable");
    {
        let _clean = FaultGuard::disabled();
        build_synthetic(&dir, &SynthSpec::quick(2016)).expect("clean build succeeds");
        verify_store(&dir).expect("clean store verifies");
    }
    for seed in [1u64, 2, 3, 42, 99] {
        let _g = FaultGuard::install(&format!("corrupt@0.02:{seed}")).expect("valid spec");
        match SegmentStore::open(&dir) {
            Ok(mut store) => {
                let budget = ExecutionBudget::unlimited();
                let mut session = budget.start();
                match store.collect(&mut session) {
                    Ok((expr, outcome)) => {
                        assert!(outcome.logical_seen > 0, "a full fold saw the log");
                        assert!(expr.size() > 0, "a full fold produced tensors");
                    }
                    Err(e) => assert_eq!(e.kind(), ErrorKind::Input, "fold: {e}"),
                }
            }
            Err(e) => assert_eq!(e.kind(), ErrorKind::Input, "open: {e}"),
        }
        match verify_store(&dir) {
            Ok(report) => assert!(report.frames > 0),
            Err(e) => assert_eq!(e.kind(), ErrorKind::Input, "verify: {e}"),
        }
    }
    let _clean = FaultGuard::disabled();
    let _ = std::fs::remove_dir_all(&dir);
}

/// Two same-seed synthetic builds are byte-identical file for file, and
/// the fold off either sees exactly the spec's logical stream.
#[test]
fn same_seed_builds_are_byte_identical() {
    let _clean = FaultGuard::disabled();
    let spec = SynthSpec {
        users: 30,
        movies: 15,
        unique_frames: 300,
        logical: 20_000,
        seed: 7,
    };
    let dir_a = scratch("det-a").expect("scratch dir is removable");
    let dir_b = scratch("det-b").expect("scratch dir is removable");
    build_synthetic(&dir_a, &spec).expect("build a succeeds");
    build_synthetic(&dir_b, &spec).expect("build b succeeds");

    let mut names: Vec<String> = std::fs::read_dir(&dir_a)
        .expect("store dir lists")
        .map(|e| {
            e.expect("dir entry")
                .file_name()
                .to_string_lossy()
                .into_owned()
        })
        .collect();
    names.sort();
    assert!(!names.is_empty(), "the build wrote files");
    for name in &names {
        let a = std::fs::read(dir_a.join(name)).expect("file a reads");
        let b = std::fs::read(dir_b.join(name)).expect("file b reads");
        assert_eq!(a, b, "{name}: same-seed builds are byte-identical");
    }

    let mut store = SegmentStore::open(&dir_a).expect("store opens");
    let budget = ExecutionBudget::unlimited();
    let mut session = budget.start();
    let (expr, outcome) = store.collect(&mut session).expect("fold succeeds");
    assert_eq!(outcome.logical_seen, spec.logical);
    assert!(outcome.stopped.is_none(), "an unlimited budget never trips");
    assert!(expr.num_objects() > 0);
    let _ = std::fs::remove_dir_all(&dir_a);
    let _ = std::fs::remove_dir_all(&dir_b);
}

/// `fnv64` of every file `build_synthetic` writes for `SynthSpec::quick`
/// at two seeds. A same-tree comparison passes whatever the generator
/// draws and however the builder encodes; these pins fail when the draw
/// order, the frame encoding or any file layout moves.
const QUICK_STORE_FILES: [(u64, [(&str, u64); 19]); 2] = [
    (
        2016,
        [
            ("anns.bin", 0x20b3_2c3c_1a0f_87f4),
            ("log.bin", 0x037d_7934_12d3_3071),
            ("seg-00.seg", 0xf908_6486_cea7_dbd3),
            ("seg-01.seg", 0x87d6_e945_bb4f_13d6),
            ("seg-02.seg", 0x0e27_90b9_d8c8_72fa),
            ("seg-03.seg", 0xcb0f_9d35_9651_a2ef),
            ("seg-04.seg", 0xd023_2170_88ea_5627),
            ("seg-05.seg", 0xb0fa_9a66_1255_ad4b),
            ("seg-06.seg", 0x8470_27b9_478d_3ead),
            ("seg-07.seg", 0xd02e_7787_a5f5_9d15),
            ("seg-08.seg", 0x1b48_6da5_0003_f341),
            ("seg-09.seg", 0xb743_9539_ceaa_7c4d),
            ("seg-0a.seg", 0xc69b_fe27_fdfa_8fc9),
            ("seg-0b.seg", 0x0b03_3452_91e4_37b4),
            ("seg-0c.seg", 0x771c_a161_6c15_f216),
            ("seg-0d.seg", 0x5590_a9c4_4444_5fdc),
            ("seg-0e.seg", 0x54b8_2572_1274_3fdb),
            ("seg-0f.seg", 0x1531_f014_ceac_b348),
            ("store.json", 0x032a_0154_8254_a180),
        ],
    ),
    (
        7777,
        [
            ("anns.bin", 0x3602_40e2_f616_01c1),
            ("log.bin", 0xa2f8_23c5_01a1_7e17),
            ("seg-00.seg", 0x4859_62fc_232a_18a2),
            ("seg-01.seg", 0x79bd_063a_81e1_36eb),
            ("seg-02.seg", 0x610d_229e_ca27_8b72),
            ("seg-03.seg", 0x885e_4743_cbdc_5fce),
            ("seg-04.seg", 0x6c0f_216c_fba9_7887),
            ("seg-05.seg", 0xaff6_ec19_d626_0b23),
            ("seg-06.seg", 0x21bf_efc6_8dc9_ce2c),
            ("seg-07.seg", 0xd841_cc87_a50f_ff47),
            ("seg-08.seg", 0x797d_d26c_0b7a_1f5d),
            ("seg-09.seg", 0x4f24_7666_45f4_28a7),
            ("seg-0a.seg", 0xa868_5136_fa12_b068),
            ("seg-0b.seg", 0xd79e_5a96_3808_371c),
            ("seg-0c.seg", 0xec83_d51d_3bbc_581f),
            ("seg-0d.seg", 0x5ed2_c83a_1e8f_bbee),
            ("seg-0e.seg", 0x893c_9848_24f9_c372),
            ("seg-0f.seg", 0x69ef_10f0_39fa_7e72),
            ("store.json", 0xe2af_b475_2408_d26e),
        ],
    ),
];

/// Synthetic quick builds write exactly the pinned files, byte for byte.
#[test]
fn quick_builds_write_the_pinned_bytes() {
    let _clean = FaultGuard::disabled();
    for (seed, files) in QUICK_STORE_FILES {
        let dir = scratch(&format!("pinned-{seed}")).expect("scratch dir is removable");
        build_synthetic(&dir, &SynthSpec::quick(seed)).expect("quick build succeeds");
        let mut written: Vec<(String, u64)> = std::fs::read_dir(&dir)
            .expect("store dir lists")
            .map(|e| {
                let e = e.expect("dir entry");
                let bytes = std::fs::read(e.path()).expect("store file reads");
                (e.file_name().to_string_lossy().into_owned(), fnv64(&bytes))
            })
            .collect();
        written.sort();
        let pinned: Vec<(String, u64)> = files
            .iter()
            .map(|&(name, fp)| (name.to_owned(), fp))
            .collect();
        assert_eq!(
            written, pinned,
            "seed {seed}: the files a quick build writes"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }
}

/// Open the store at `dir`; test helpers panic with the error.
fn open(dir: &Path) -> SegmentStore {
    SegmentStore::open(dir).unwrap_or_else(|e| panic!("open {}: {e}", dir.display()))
}

/// A page size and a page-cache ceiling to open a store with.
#[derive(Clone, Copy, Debug)]
struct Pages {
    page_bytes: usize,
    cache_bytes: usize,
}

/// The reader's defaults: 64 KiB pages under a 2 MiB ceiling, which
/// hold a quick store whole.
const DEFAULT_PAGES: Pages = Pages {
    page_bytes: DEFAULT_PAGE_BYTES,
    cache_bytes: DEFAULT_CACHE_BYTES,
};

/// Pages small enough that many frames straddle two, under a ceiling
/// of eight of them, so a fold evicts pages all the way through.
const SMALL_PAGES: Pages = Pages {
    page_bytes: 512,
    cache_bytes: 4096,
};

fn open_with(dir: &Path, pages: Pages) -> SegmentStore {
    SegmentStore::open_with(dir, pages.page_bytes, pages.cache_bytes)
        .unwrap_or_else(|e| panic!("open {}: {e}", dir.display()))
}

/// Run `f` with every frame read copied into the reader's frame buffer
/// and checked there: an armed fault harness sends every read down that
/// path, and a `corrupt` clause with probability 0 flips nothing. The
/// caller holds the fault lock (`FaultGuard`), whose drop restores the
/// plan it found.
fn copying<T>(f: impl FnOnce() -> T) -> T {
    let plan = fault::parse_spec("corrupt@0:1").unwrap_or_else(|e| panic!("spec: {e}"));
    fault::install(Some(plan));
    let out = f();
    fault::install(None);
    out
}

/// What a fold read: bytes, and the page cache's hits, misses,
/// evictions and peak.
fn reads(store: &SegmentStore) -> (u64, u64, u64, u64, u64) {
    let c = store.cache_stats();
    (
        store.bytes_read(),
        c.hits,
        c.misses,
        c.evictions,
        c.peak_bytes,
    )
}

/// What a selected fold must return, built from `scan()`'s record stream:
/// frames grouped by object and merged by content address.
struct Oracle {
    /// object → fingerprint → (tensor, summed multiplicity).
    frames: BTreeMap<usize, BTreeMap<u64, (Tensor, u64)>>,
    outcome: ScanOutcome,
}

impl Oracle {
    fn scan(dir: &Path, budget: &ExecutionBudget) -> Oracle {
        let mut store = open(dir);
        let mut frames: BTreeMap<usize, BTreeMap<u64, (Tensor, u64)>> = BTreeMap::new();
        let outcome = store
            .scan(&mut budget.start(), &mut |object, tensor, count| {
                let fp = fnv64(&encode_entry(object, &tensor));
                frames
                    .entry(object.index())
                    .or_default()
                    .entry(fp)
                    .and_modify(|(_, n)| *n += count)
                    .or_insert((tensor, count));
                Ok(())
            })
            .unwrap_or_else(|e| panic!("scan: {e}"));
        Oracle { frames, outcome }
    }

    /// The first `objects` objects, tensors by fingerprint, each frame's
    /// multiplicity folded into its value.
    fn selection(&self, objects: usize, agg: AggKind) -> ProvExpr {
        let mut expr = ProvExpr::new(agg);
        for (&object, frames) in self.frames.iter().take(objects) {
            for (tensor, n) in frames.values() {
                let mut tensor = tensor.clone();
                tensor.value = tensor.value.scaled(*n, agg);
                expr.push(AnnId::from_index(object), tensor);
            }
        }
        expr
    }

    fn size(&self) -> usize {
        self.frames
            .values()
            .flat_map(|frames| frames.values())
            .map(|(tensor, _)| tensor.size())
            .sum()
    }
}

/// Check `SegmentStore::fold` on the store at `dir`, opened with
/// `pages`, against the oracle, for selections of 1, 4, all, and more
/// than all objects, and under step budgets that trip at several record
/// counts. Each fold also equals a reference fold that copies every
/// frame, and reads what it reads. Returns what a whole fold read.
fn check_selected_fold(dir: &Path, label: &str, pages: Pages) -> (u64, u64, u64, u64, u64) {
    let agg = open(dir).info().agg;
    let full = Oracle::scan(dir, &ExecutionBudget::unlimited());
    let all = full.frames.len();
    assert!(
        all > 4,
        "{label}: the store has more objects than a selection"
    );
    let mut whole = None;
    for objects in [1, 4, all, all + 3] {
        let mut store = open_with(dir, pages);
        let fold = store
            .fold(&mut ExecutionBudget::unlimited().start(), objects)
            .unwrap_or_else(|e| panic!("fold: {e}"));
        let case = format!("{label}, {pages:?}, {objects} objects");
        assert_eq!(
            fold.selection,
            full.selection(objects, agg),
            "{case}: selection"
        );
        assert_eq!(fold.objects, all, "{case}: object tally");
        assert_eq!(fold.size, full.size(), "{case}: size tally");
        assert!(fold.outcome.stopped.is_none(), "{case}: unlimited budget");

        // Checking frames in place reads what copying them reads.
        let mut reference = open_with(dir, pages);
        let copied = copying(|| reference.fold(&mut ExecutionBudget::unlimited().start(), objects))
            .unwrap_or_else(|e| panic!("copying fold: {e}"));
        assert_eq!(fold.selection, copied.selection, "{case}: copied selection");
        assert_eq!(
            (fold.objects, fold.frames, fold.size),
            (copied.objects, copied.frames, copied.size),
            "{case}: copied tallies"
        );
        assert_eq!(reads(&store), reads(&reference), "{case}: copied reads");

        // The selection never changes what is read.
        let mut fresh = open_with(dir, pages);
        let (_, collected) = fresh
            .collect(&mut ExecutionBudget::unlimited().start())
            .unwrap_or_else(|e| panic!("collect: {e}"));
        assert_eq!(fold.outcome.logical_seen, collected.logical_seen, "{case}");
        assert_eq!(
            fold.outcome.logical_seen, full.outcome.logical_seen,
            "{case}"
        );
        assert_eq!(fold.outcome.records_seen, collected.records_seen, "{case}");
        assert_eq!(reads(&store), reads(&fresh), "{case}: reads");
        whole = Some(reads(&store));
    }

    let records = full.outcome.records_seen as usize;
    for steps in [0, 1, records / 3, records - 1] {
        let budget = ExecutionBudget::unlimited().with_max_steps(steps);
        let partial = Oracle::scan(dir, &budget);
        assert_eq!(partial.outcome.records_seen, steps as u64);
        for objects in [1, 4, all + 3] {
            let case = format!("{label}, {objects} objects, trip after {steps} records");
            let mut store = open_with(dir, pages);
            let fold = store
                .fold(&mut budget.start(), objects)
                .unwrap_or_else(|e| panic!("a budget trip is not an error: {e}"));
            assert!(fold.outcome.stopped.is_some(), "{case}: budget tripped");
            assert_eq!(fold.outcome.records_seen, steps as u64, "{case}");
            assert_eq!(
                fold.outcome.logical_seen, partial.outcome.logical_seen,
                "{case}"
            );
            assert_eq!(
                fold.selection,
                partial.selection(objects, agg),
                "{case}: partial selection"
            );
            assert_eq!(fold.objects, partial.frames.len(), "{case}: object tally");
            assert_eq!(fold.size, partial.size(), "{case}: size tally");
        }
    }
    whole.unwrap_or_default()
}

/// A selected fold over seeded quick synthetic stores equals the oracle.
#[test]
fn selected_fold_matches_the_scan_oracle_on_synthetic_stores() {
    let _clean = FaultGuard::disabled();
    let mut rng = DetRng::new(0x57_5e1e);
    for _ in 0..2 {
        let seed = rng.next_u64() % 100_000;
        let dir = scratch(&format!("select-{seed}")).expect("scratch dir is removable");
        build_synthetic(&dir, &SynthSpec::quick(seed)).expect("build succeeds");
        for pages in [DEFAULT_PAGES, SMALL_PAGES] {
            check_selected_fold(&dir, &format!("quick store {seed}"), pages);
        }
        let _ = std::fs::remove_dir_all(&dir);
    }
}

/// On `SynthSpec::quick(2016)`, a fold reads the bytes and makes the
/// page-cache hits, misses, evictions and peak the copying reader made
/// before frames were checked in place and evicted pages' buffers were
/// reused; the figures are that reader's. Small pages make frames
/// straddle pages and a small ceiling evicts them.
#[test]
fn folds_read_the_pinned_pages() {
    let _clean = FaultGuard::disabled();
    let dir = scratch("pinned-reads").expect("scratch dir is removable");
    build_synthetic(&dir, &SynthSpec::quick(2016)).expect("build succeeds");
    let pinned = [
        (DEFAULT_PAGES, (488_832, 3_975, 16, 0, 303_892)),
        (SMALL_PAGES, (1_471_596, 1_839, 2_513, 2_505, 4_096)),
        (
            Pages {
                page_bytes: 4096,
                cache_bytes: 16 * 1024,
            },
            (12_571_244, 998, 3_024, 3_020, 16_384),
        ),
    ];
    for (pages, want) in pinned {
        let got = check_selected_fold(&dir, "quick store 2016", pages);
        assert_eq!(
            got, want,
            "{pages:?}: (bytes, hits, misses, evictions, peak)"
        );
    }
    let _ = std::fs::remove_dir_all(&dir);
}

/// A fold whose deadline has passed stops within
/// [`prox_robust::CLOCK_STRIDE`] records: the walk reads the clock on
/// its first record and every stride after. It is the anytime partial
/// fold, not an error.
#[test]
fn a_passed_deadline_stops_the_fold_within_a_clock_stride() {
    let _clean = FaultGuard::disabled();
    let dir = scratch("deadline").expect("scratch dir is removable");
    build_synthetic(&dir, &SynthSpec::quick(2016)).expect("build succeeds");
    let budget = ExecutionBudget::unlimited().with_deadline_at(std::time::Instant::now());
    let fold = open(&dir)
        .fold(&mut budget.start(), 4)
        .unwrap_or_else(|e| panic!("a deadline trip is not an error: {e}"));
    assert_eq!(fold.outcome.stopped, Some(BudgetStop::Deadline));
    assert!(
        (fold.outcome.records_seen as usize) < CLOCK_STRIDE,
        "{} records past the deadline",
        fold.outcome.records_seen
    );
    let _ = std::fs::remove_dir_all(&dir);
}

/// `PROX_FAULT=budget@N` trips a fold after exactly `N` records: the
/// walk polls once per record, and an injected trip is counted on every
/// poll, clock read or not.
#[test]
fn an_injected_budget_trip_stops_the_fold_after_n_records() {
    let dir = scratch("injected").expect("scratch dir is removable");
    {
        let _clean = FaultGuard::disabled();
        build_synthetic(&dir, &SynthSpec::quick(2016)).expect("build succeeds");
    }
    for n in [0u64, 1, 37, 64, 65, 1000] {
        let _g = FaultGuard::install(&format!("budget@{n}:1")).expect("valid spec");
        let budget = ExecutionBudget::unlimited().with_deadline_ms(60_000);
        let fold = open(&dir)
            .fold(&mut budget.start(), 4)
            .unwrap_or_else(|e| panic!("an injected trip is not an error: {e}"));
        assert_eq!(
            fold.outcome.stopped,
            Some(BudgetStop::Injected),
            "budget@{n}"
        );
        assert_eq!(fold.outcome.records_seen, n, "budget@{n}");
    }
    let _ = std::fs::remove_dir_all(&dir);
}

/// A store whose log repeats fingerprints in non-adjacent runs: a pool of
/// random entries appended in random order with random multiplicities,
/// led by `a, b, a` so at least one repeat is never adjacent. SUM makes
/// every multiplicity show in the folded values.
#[test]
fn selected_fold_merges_non_adjacent_repeats() {
    let _clean = FaultGuard::disabled();
    let mut rng = DetRng::new(0x57_4e44);
    let mut anns = AnnStore::new();
    for i in 0..MAX_ANN {
        let parity = if i % 2 == 0 { "even" } else { "odd" };
        anns.add_base_with(&format!("a{i}"), "item", &[("parity", parity)]);
    }
    let pool: Vec<(AnnId, Tensor)> = (0..24).map(|_| random_entry(&mut rng)).collect();
    let mut order = vec![0, 1, 0];
    order.extend((0..200).map(|_| rng.below(pool.len())));

    let dir = scratch("select-repeats").expect("scratch dir is removable");
    let mut builder = StoreBuilder::create(&dir, &anns, AggKind::Sum).expect("builder opens");
    for ix in order {
        let (object, tensor) = &pool[ix];
        builder
            .append(*object, tensor, rng.next_u64() % 5 + 1)
            .expect("append succeeds");
    }
    let summary = builder.finish().expect("store finishes");
    assert!(
        summary.log_entries > summary.unique,
        "the log repeats fingerprints"
    );
    for pages in [DEFAULT_PAGES, SMALL_PAGES] {
        check_selected_fold(&dir, "repeating store", pages);
    }
    let _ = std::fs::remove_dir_all(&dir);
}

/// A fingerprint indexed twice — here a manifest that lists one segment
/// twice — is a typed input error at open, never a silently doubled fold.
#[test]
fn duplicate_fingerprints_fail_the_open() {
    let _clean = FaultGuard::disabled();
    let dir = scratch("dup-index").expect("scratch dir is removable");
    build_synthetic(&dir, &SynthSpec::quick(2016)).expect("build succeeds");
    let manifest = dir.join(MANIFEST_FILE);
    let mut json = Json::parse(&std::fs::read_to_string(&manifest).expect("manifest reads"))
        .expect("manifest parses");
    if let Json::Obj(fields) = &mut json {
        for (key, value) in fields.iter_mut() {
            if let (true, Json::Arr(segments)) = (key == "segments", value) {
                segments.push(segments[0].clone());
            }
        }
    }
    std::fs::write(&manifest, json.render()).expect("manifest writes");
    let err = match SegmentStore::open(&dir) {
        Ok(_) => panic!("a doubled index must not open"),
        Err(e) => e,
    };
    assert_eq!(err.kind(), ErrorKind::Input, "{err}");
    assert!(err.to_string().contains("duplicate fingerprint"), "{err}");
    let _ = std::fs::remove_dir_all(&dir);
}

/// Under `PROX_FAULT=corrupt`, a selected fold is a typed input error or
/// a checksum-valid result — never a panic.
#[test]
fn fault_corrupt_selected_folds_are_typed_errors() {
    let dir = scratch("select-fault").expect("scratch dir is removable");
    {
        let _clean = FaultGuard::disabled();
        build_synthetic(&dir, &SynthSpec::quick(2016)).expect("clean build succeeds");
    }
    for seed in [1u64, 2, 3, 42, 99] {
        let _g = FaultGuard::install(&format!("corrupt@0.02:{seed}")).expect("valid spec");
        match SegmentStore::open(&dir) {
            Ok(mut store) => match store.fold(&mut ExecutionBudget::unlimited().start(), 4) {
                Ok(fold) => assert!(fold.outcome.logical_seen > 0, "a full fold saw the log"),
                Err(e) => assert_eq!(e.kind(), ErrorKind::Input, "fold: {e}"),
            },
            Err(e) => assert_eq!(e.kind(), ErrorKind::Input, "open: {e}"),
        }
    }
    let _clean = FaultGuard::disabled();
    let _ = std::fs::remove_dir_all(&dir);
}
