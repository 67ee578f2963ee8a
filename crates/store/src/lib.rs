//! # prox-store — out-of-core content-addressable provenance store
//!
//! An append-only segment store for provenance expressions, built so the
//! summarizer can work over provenance far larger than memory:
//!
//! * **Binary framing** ([`codec`]) — each entry `(object, tensor)` is a
//!   canonical length-prefixed frame, the one on-disk provenance format;
//!   the in-tree `prox_obs::Json` shape is its debug view.
//! * **Content addressing** ([`fp`]) — frames are addressed by the
//!   FNV-1a 64 hash of their bytes ([`prox_obs::fnv64`], which the serve
//!   cache fingerprints requests with), so identical subexpressions share
//!   one frame (*dedup*).
//! * **Segments** ([`segment`]) — frames are sharded by fingerprint
//!   prefix into append-only `seg-XX.seg` files, each with a sorted
//!   offset index and a checksummed footer.
//! * **Logical log** ([`builder`]) — the expression *stream* is a
//!   run-length list of fingerprints, so ten million logical
//!   expressions over a hundred thousand distinct frames stay small.
//! * **Paged reads** ([`pagecache`], [`reader`]) — frame loads go
//!   through a bounded LRU page cache whose misses reuse the buffers of
//!   the pages they evict; a frame inside one cached page is checked in
//!   place. Scans poll their [`prox_robust::BudgetSession`] once per log
//!   record, before the page loads that record makes: step budgets,
//!   cancel flags and injected trips act on the exact record, and the
//!   deadline is read every [`prox_robust::CLOCK_STRIDE`] records. A
//!   budget trip returns the partial fold (the anytime contract).
//! * **Verification** ([`verify`]) — an offline full-checksum pass with
//!   typed [`prox_robust::ProxError::Corrupt`] errors, wired through the
//!   `PROX_FAULT` harness.
//!
//! Observability: the `store/{page_hit,page_miss,dedup_hit,bytes_read}`
//! counters (declared in `prox_obs::store_metrics`) feed `/metrics` and
//! bench manifests automatically.

pub mod builder;
pub mod codec;
pub mod fp;
pub mod pagecache;
pub mod reader;
pub mod segment;
pub mod synth;
pub mod verify;

pub use builder::{agg_from_name, StoreBuilder, StoreSummary, ANNS_FILE, LOG_FILE, MANIFEST_FILE};
pub use codec::{
    decode_annstore, decode_entry, encode_annstore, encode_entry, entry_to_json, skim_entry,
};
pub use fp::{render_fp, shard_of, SHARDS};
pub use pagecache::{CacheStats, PageCache, DEFAULT_CACHE_BYTES, DEFAULT_PAGE_BYTES};
pub use reader::{read_info, Fold, ScanOutcome, SegInfo, SegmentStore, StoreInfo};
pub use segment::{SegmentMeta, SegmentWriter};
pub use synth::{build_synthetic, SynthReport, SynthSpec};
pub use verify::{verify_store, VerifyReport};
