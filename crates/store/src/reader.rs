//! Reading a segment store: paged lazy loads, budget-polled scans, and
//! offline verification.
//!
//! [`SegmentStore::open`] loads only the manifest, the annotation table,
//! and the per-segment offset indexes; frame payloads stay on disk and
//! are faulted in page-by-page through the bounded [`PageCache`], so a
//! store far larger than memory can be summarized under a fixed cache
//! ceiling. Every scan polls its [`BudgetSession`] once per log record,
//! before the page loads that record makes: step budgets, cancel flags
//! and injected trips interrupt a scan at the exact record, and the
//! deadline is read every [`prox_robust::CLOCK_STRIDE`] records. The
//! partial fold is returned as the anytime best-so-far.
//!
//! Every frame read goes one way: the log's fingerprint is located
//! through a bucket directory over the sorted index, and the frame's
//! length, header and checksum are checked where it lies in its cached
//! page, or, when it straddles pages or the fault harness is armed, in
//! one reused buffer it is copied into. A fold then decodes the payload
//! if it keeps the frame's object and skims it otherwise.

use std::collections::BTreeMap;
use std::fs::File;
use std::io::{Read, Seek, SeekFrom};
use std::path::{Path, PathBuf};
use std::sync::Arc;

use prox_obs::store_metrics::BYTES_READ;
use prox_obs::{fnv64, fnv64_update, Json, FNV_OFFSET};
use prox_provenance::{AggExpr, AggKind, AnnId, AnnStore, ProvExpr, Tensor};
use prox_robust::{fault, BudgetSession, BudgetStop, ProxError};

use crate::builder::{
    agg_from_name, ANNS_FILE, FORMAT, LOG_ENTRY_BYTES, LOG_FILE, LOG_MAGIC, MANIFEST_FILE,
};
use crate::codec::{decode_annstore, decode_entry, entry_object, skim_entry};
use crate::pagecache::{CacheStats, PageCache, PageKey, DEFAULT_CACHE_BYTES, DEFAULT_PAGE_BYTES};
use crate::segment::{parse_footer, parse_index_region, segment_file, FOOTER_BYTES, SEG_MAGIC};

/// One segment as described by the manifest.
#[derive(Clone, Debug)]
pub struct SegInfo {
    pub shard: u8,
    pub file: String,
    pub frames: u64,
    pub payload_bytes: u64,
    pub file_bytes: u64,
}

/// Parsed `store.json`.
#[derive(Clone, Debug)]
pub struct StoreInfo {
    pub agg: AggKind,
    pub logical: u64,
    pub unique: u64,
    pub log_entries: u64,
    pub annotations: u64,
    pub payload_bytes: u64,
    pub log_checksum: u64,
    pub segments: Vec<SegInfo>,
}

impl StoreInfo {
    pub fn dedup_ratio(&self) -> f64 {
        if self.unique == 0 {
            0.0
        } else {
            self.logical as f64 / self.unique as f64
        }
    }
}

fn manifest_field<'a>(j: &'a Json, key: &str) -> Result<&'a Json, ProxError> {
    j.get(key)
        .ok_or_else(|| ProxError::corrupt("store manifest", format!("missing field '{key}'")))
}

fn manifest_u64(j: &Json, key: &str) -> Result<u64, ProxError> {
    manifest_field(j, key)?.as_u64().ok_or_else(|| {
        ProxError::corrupt("store manifest", format!("field '{key}' is not an integer"))
    })
}

fn manifest_str<'a>(j: &'a Json, key: &str) -> Result<&'a str, ProxError> {
    manifest_field(j, key)?.as_str().ok_or_else(|| {
        ProxError::corrupt("store manifest", format!("field '{key}' is not a string"))
    })
}

/// Read and parse `<dir>/store.json`.
pub fn read_info(dir: &Path) -> Result<StoreInfo, ProxError> {
    let path = dir.join(MANIFEST_FILE);
    let text = std::fs::read_to_string(&path)
        .map_err(|e| ProxError::io(format!("read {}", path.display()), &e))?;
    let j = Json::parse(&text).map_err(|e| {
        ProxError::corrupt(
            "store manifest",
            format!("{}: {}", path.display(), e.message()),
        )
    })?;
    let format = manifest_str(&j, "format")?;
    if format != FORMAT {
        return Err(ProxError::unsupported(format!(
            "store format '{format}' (this build reads '{FORMAT}')"
        )));
    }
    let counts = manifest_field(&j, "counts")?;
    let log = manifest_field(&j, "log")?;
    let checksum_hex = manifest_str(log, "checksum")?;
    let log_checksum = u64::from_str_radix(checksum_hex, 16).map_err(|e| {
        ProxError::corrupt(
            "store manifest",
            format!("bad log checksum '{checksum_hex}': {e}"),
        )
    })?;
    let mut segments = Vec::new();
    match manifest_field(&j, "segments")? {
        Json::Arr(items) => {
            for item in items {
                let shard_hex = manifest_str(item, "shard")?;
                let shard = u8::from_str_radix(shard_hex, 16).map_err(|e| {
                    ProxError::corrupt("store manifest", format!("bad shard '{shard_hex}': {e}"))
                })?;
                segments.push(SegInfo {
                    shard,
                    file: manifest_str(item, "file")?.to_string(),
                    frames: manifest_u64(item, "frames")?,
                    payload_bytes: manifest_u64(item, "payload_bytes")?,
                    file_bytes: manifest_u64(item, "file_bytes")?,
                });
            }
        }
        _ => {
            return Err(ProxError::corrupt(
                "store manifest",
                "field 'segments' is not an array",
            ))
        }
    }
    Ok(StoreInfo {
        agg: agg_from_name(manifest_str(&j, "agg")?)?,
        logical: manifest_u64(counts, "logical")?,
        unique: manifest_u64(counts, "unique")?,
        log_entries: manifest_u64(counts, "log_entries")?,
        annotations: manifest_u64(counts, "annotations")?,
        payload_bytes: manifest_u64(counts, "payload_bytes")?,
        log_checksum,
        segments,
    })
}

/// How far a scan got before returning.
#[derive(Clone, Copy, Debug, Default)]
pub struct ScanOutcome {
    /// Logical expressions delivered (multiplicities included).
    pub logical_seen: u64,
    /// Log records consumed.
    pub records_seen: u64,
    /// `Some` when the budget interrupted the scan (anytime partial).
    pub stopped: Option<BudgetStop>,
}

/// What [`SegmentStore::fold`] returns: the selected objects' provenance
/// and tallies over the whole fold.
#[derive(Clone, Debug)]
pub struct Fold {
    /// The first `objects` objects in object order, each with its tensors
    /// in fingerprint order and every frame's multiplicity folded into
    /// its value.
    pub selection: ProvExpr,
    /// Distinct objects over every frame read, selected or not.
    pub objects: usize,
    /// Distinct frames read: each is read once, however often the log
    /// repeats it.
    pub frames: usize,
    /// Provenance size (annotation occurrences) over every frame read:
    /// the `size()` of what [`SegmentStore::collect`] returns.
    pub size: usize,
    /// How far the fold got.
    pub outcome: ScanOutcome,
}

/// Where one frame lives: its segment shard, byte offset, and payload
/// length.
#[derive(Clone, Copy, Debug)]
struct FrameLoc {
    fp: u64,
    shard: u8,
    offset: u64,
    len: u32,
}

/// Marks a frame the fold has not read yet: no object id reaches it,
/// because ids are below the annotation count, itself a `u32` field.
const ABSENT: u32 = u32::MAX;

/// Every segment's index entries sorted by fingerprint, which is
/// unique, so a frame's position here identifies it within a fold; and
/// a directory of fingerprint buckets over them.
///
/// The entries are held as parallel vectors, 21 bytes a frame rather
/// than the 24 of a padded [`FrameLoc`]. That saving pays for the
/// directory, and a lookup's binary search reads fingerprints only.
///
/// Bucket `k` holds the fingerprints whose top `64 - shift` bits equal
/// `k`, at positions `starts[k]..starts[k + 1]`. With about
/// [`FRAMES_PER_BUCKET`] frames per bucket, a lookup binary-searches a
/// handful of entries rather than the whole index. Skewed fingerprints
/// only lengthen some buckets; when one bucket holds every frame, the
/// lookup is the plain binary search.
struct FrameIndex {
    fps: Vec<u64>,
    shards: Vec<u8>,
    offsets: Vec<u64>,
    lens: Vec<u32>,
    shift: u32,
    starts: Vec<u32>,
}

/// Frames per fingerprint bucket the directory aims at: one `u32` per
/// bucket then costs about one byte per frame.
const FRAMES_PER_BUCKET: usize = 4;

impl FrameIndex {
    /// Sort the frames by fingerprint, reject a fingerprint indexed
    /// twice, and build the bucket directory.
    fn new(mut frames: Vec<FrameLoc>) -> Result<FrameIndex, ProxError> {
        frames.sort_unstable_by_key(|loc| (loc.fp, loc.shard));
        if let Some(pair) = frames.windows(2).find(|pair| pair[0].fp == pair[1].fp) {
            return Err(ProxError::corrupt(
                "segment index",
                format!(
                    "{}: duplicate fingerprint {:016x}",
                    segment_file(pair[1].shard),
                    pair[1].fp
                ),
            ));
        }
        if u32::try_from(frames.len()).is_err() {
            return Err(ProxError::unsupported(format!(
                "{} frames: index positions are u32",
                frames.len()
            )));
        }
        let buckets = (frames.len() / FRAMES_PER_BUCKET).next_power_of_two();
        Ok(FrameIndex::with_bits(&frames, buckets.trailing_zeros()))
    }

    /// The index of frames already sorted, unique, and counted by a
    /// `u32`, with `2^bits` buckets.
    fn with_bits(frames: &[FrameLoc], bits: u32) -> FrameIndex {
        let mut index = FrameIndex {
            fps: frames.iter().map(|loc| loc.fp).collect(),
            shards: frames.iter().map(|loc| loc.shard).collect(),
            offsets: frames.iter().map(|loc| loc.offset).collect(),
            lens: frames.iter().map(|loc| loc.len).collect(),
            shift: 64 - bits,
            starts: vec![0; (1 << bits) + 1],
        };
        for &fp in &index.fps {
            let k = index.bucket(fp);
            index.starts[k] += 1;
        }
        // Counts to starts: each bucket starts where the ones before end.
        let mut total = 0;
        for start in &mut index.starts {
            total += std::mem::replace(start, total);
        }
        index
    }

    fn bucket(&self, fp: u64) -> usize {
        // A shift of 64 means one bucket.
        fp.checked_shr(self.shift).unwrap_or(0) as usize
    }

    fn len(&self) -> usize {
        self.fps.len()
    }

    fn get(&self, pos: usize) -> FrameLoc {
        FrameLoc {
            fp: self.fps[pos],
            shard: self.shards[pos],
            offset: self.offsets[pos],
            len: self.lens[pos],
        }
    }

    /// The position of a fingerprint the log references.
    fn locate(&self, fp: u64) -> Result<usize, ProxError> {
        let k = self.bucket(fp);
        let start = self.starts[k] as usize;
        let end = self.starts[k + 1] as usize;
        self.fps[start..end]
            .binary_search(&fp)
            .map(|i| start + i)
            .map_err(|_| {
                ProxError::corrupt(
                    "segment read",
                    format!("log references unknown fingerprint {fp:016x}"),
                )
            })
    }
}

/// An open store: manifest + annotation table + offset indexes in
/// memory, frame data paged in on demand.
pub struct SegmentStore {
    dir: PathBuf,
    info: StoreInfo,
    /// Decoded once at open; every read's summary annotations go in an
    /// overlay over it ([`SegmentStore::overlay`]).
    anns: Arc<AnnStore>,
    files: BTreeMap<u8, SegFile>,
    index: FrameIndex,
    cache: PageCache,
    bytes_read: u64,
    /// The frame last copied, reused by every read that copies.
    frame: Vec<u8>,
}

/// An open segment file and its length at open.
struct SegFile {
    file: File,
    len: u64,
}

/// Bytes a frame adds to its payload: the `u32` length before it and the
/// `u64` checksum after it.
const FRAME_OVERHEAD: usize = 4 + 8;

impl SegmentStore {
    /// Open a store with the default page size and cache ceiling.
    pub fn open(dir: &Path) -> Result<SegmentStore, ProxError> {
        SegmentStore::open_with(dir, DEFAULT_PAGE_BYTES, DEFAULT_CACHE_BYTES)
    }

    /// Open a store with an explicit page size and page-cache ceiling
    /// (bytes). Only indexes are loaded eagerly.
    pub fn open_with(
        dir: &Path,
        page_bytes: usize,
        cache_bytes: usize,
    ) -> Result<SegmentStore, ProxError> {
        let info = read_info(dir)?;
        let ann_path = dir.join(ANNS_FILE);
        let mut ann_bytes = std::fs::read(&ann_path)
            .map_err(|e| ProxError::io(format!("read {}", ann_path.display()), &e))?;
        BYTES_READ.add(ann_bytes.len() as u64);
        fault::corrupt_bytes(&mut ann_bytes);
        let anns = decode_annstore(&ann_bytes)?;
        if anns.len() as u64 != info.annotations {
            return Err(ProxError::corrupt(
                "store manifest",
                format!(
                    "manifest says {} annotations, anns.bin holds {}",
                    info.annotations,
                    anns.len()
                ),
            ));
        }
        let mut files = BTreeMap::new();
        let mut index = Vec::new();
        let mut bytes_read = ann_bytes.len() as u64;
        for seg in &info.segments {
            let path = dir.join(&seg.file);
            let mut file = File::open(&path)
                .map_err(|e| ProxError::io(format!("open {}", path.display()), &e))?;
            let (read, len) = load_segment_index(&mut file, seg.shard, &mut index)?;
            bytes_read += read;
            files.insert(seg.shard, SegFile { file, len });
        }
        let index = FrameIndex::new(index)?;
        if index.len() as u64 != info.unique {
            return Err(ProxError::corrupt(
                "store manifest",
                format!(
                    "manifest says {} unique frames, indexes hold {}",
                    info.unique,
                    index.len()
                ),
            ));
        }
        Ok(SegmentStore {
            dir: dir.to_path_buf(),
            info,
            anns: Arc::new(anns),
            files,
            index,
            cache: PageCache::new(page_bytes, cache_bytes),
            bytes_read,
            frame: Vec::new(),
        })
    }

    pub fn info(&self) -> &StoreInfo {
        &self.info
    }

    pub fn anns(&self) -> &AnnStore {
        &self.anns
    }

    /// A store of its own over the annotation table, for one run to add
    /// summary annotations to: the table is shared, not copied, and
    /// stays as it is.
    pub fn overlay(&self) -> AnnStore {
        AnnStore::over(Arc::clone(&self.anns))
    }

    pub fn dir(&self) -> &Path {
        &self.dir
    }

    pub fn cache_stats(&self) -> CacheStats {
        self.cache.stats()
    }

    pub fn bytes_read(&self) -> u64 {
        self.bytes_read
    }

    /// Make `key` the cache's last page: a hit, or a miss that reads the
    /// page into the buffer of the page it evicts. Either is counted.
    fn fetch(&mut self, key: PageKey) -> Result<(), ProxError> {
        if self.cache.get(key).is_some() {
            return Ok(());
        }
        let shard = key.shard;
        let seg = self.files.get_mut(&shard).ok_or_else(|| {
            ProxError::corrupt(
                "segment read",
                format!("no open file for shard {shard:02x}"),
            )
        })?;
        let page_bytes = self.cache.page_bytes();
        let page_start = key.page * page_bytes as u64;
        // What the loop below reads unless the file changed since open:
        // the cache makes room for exactly that before the read.
        let expected = seg.len.saturating_sub(page_start).min(page_bytes as u64) as usize;
        let mut buf = self.cache.make_room(expected);
        buf.resize(expected, 0);
        seg.file
            .seek(SeekFrom::Start(page_start))
            .map_err(|e| ProxError::io(format!("seek {}", segment_file(shard)), &e))?;
        let mut filled = 0;
        while filled < expected {
            let n = seg
                .file
                .read(&mut buf[filled..])
                .map_err(|e| ProxError::io(format!("read {}", segment_file(shard)), &e))?;
            if n == 0 {
                break;
            }
            filled += n;
        }
        buf.truncate(filled);
        BYTES_READ.add(filled as u64);
        self.bytes_read += filled as u64;
        self.cache.insert(key, buf);
        Ok(())
    }

    /// Fetch and checksum-verify one frame payload by content address.
    pub fn read_frame(&mut self, fp: u64) -> Result<Vec<u8>, ProxError> {
        let pos = self.index.locate(fp)?;
        Ok(self.read_frame_at(pos)?.to_vec())
    }

    /// Read the frame at index position `pos`, check its length, header
    /// and checksum, and return its payload.
    ///
    /// A frame inside one cached page is checked and returned in place.
    /// One that straddles pages is copied into the reused frame buffer
    /// and checked there; so is every frame while the `PROX_FAULT`
    /// harness is armed, because its `corrupt` hook flips bits in the
    /// bytes a read checks, and a cached page must never take them. Both
    /// ways look up the same pages in the same order.
    fn read_frame_at(&mut self, pos: usize) -> Result<&[u8], ProxError> {
        let loc = self.index.get(pos);
        let want = FRAME_OVERHEAD + loc.len as usize;
        let page_bytes = self.cache.page_bytes() as u64;
        let within = (loc.offset % page_bytes) as usize;
        self.fetch(PageKey {
            shard: loc.shard,
            page: loc.offset / page_bytes,
        })?;
        if !fault::enabled() && within + want <= self.cache.last_page().len() {
            let frame = &self.cache.last_page()[within..within + want];
            check_header(frame, loc)?;
            return check_payload(frame, loc);
        }
        let mut frame = std::mem::take(&mut self.frame);
        frame.clear();
        let copied = self.copy_range(loc.shard, loc.offset, want, &mut frame);
        self.frame = frame;
        copied?;
        if self.frame.len() != want {
            return Err(frame_corrupt(
                loc,
                format!("short read ({} bytes)", self.frame.len()),
            ));
        }
        check_header(&self.frame, loc)?;
        // Fault-injection hook: `PROX_FAULT=corrupt` flips bits here and
        // must surface as a typed checksum error, never a panic.
        fault::corrupt_bytes(&mut self.frame[4..want - 8]);
        check_payload(&self.frame, loc)
    }

    /// Append `len` bytes starting at `offset` in `shard` to `out`,
    /// beginning with the cache's last page, which must hold `offset`,
    /// and fetching each page after it.
    fn copy_range(
        &mut self,
        shard: u8,
        offset: u64,
        len: usize,
        out: &mut Vec<u8>,
    ) -> Result<(), ProxError> {
        let page_bytes = self.cache.page_bytes() as u64;
        let end = offset + len as u64;
        let mut pos = offset;
        while pos < end {
            if pos > offset {
                self.fetch(PageKey {
                    shard,
                    page: pos / page_bytes,
                })?;
            }
            let within = (pos % page_bytes) as usize;
            let bytes = self.cache.last_page().get(within..).unwrap_or(&[]);
            let take = bytes.len().min((end - pos) as usize);
            if take == 0 {
                return Err(ProxError::corrupt(
                    "segment read",
                    format!(
                        "{}: range {offset}+{len} runs past end of file",
                        segment_file(shard)
                    ),
                ));
            }
            out.extend_from_slice(&bytes[..take]);
            pos += take as u64;
        }
        Ok(())
    }

    /// Decode one entry by content address. The object id it returns is
    /// below `anns().len()`.
    pub fn read_entry(&mut self, fp: u64) -> Result<(AnnId, Tensor), ProxError> {
        let pos = self.index.locate(fp)?;
        let max_ann = self.anns.len();
        decode_entry(self.read_frame_at(pos)?, max_ann)
    }

    fn open_log(&self) -> Result<(File, u64), ProxError> {
        let path = self.dir.join(LOG_FILE);
        let mut file =
            File::open(&path).map_err(|e| ProxError::io(format!("open {}", path.display()), &e))?;
        let len = file
            .metadata()
            .map_err(|e| ProxError::io(format!("stat {}", path.display()), &e))?
            .len();
        let corrupt =
            |detail: String| ProxError::corrupt("store log", format!("{LOG_FILE}: {detail}"));
        let header_and_footer = (LOG_MAGIC.len() + FOOTER_BYTES) as u64;
        if len < header_and_footer {
            return Err(corrupt(format!("file too short ({len} bytes)")));
        }
        let mut magic = [0u8; 8];
        file.read_exact(&mut magic)
            .map_err(|e| ProxError::io("read log magic", &e))?;
        if &magic != LOG_MAGIC {
            return Err(corrupt("bad header magic".into()));
        }
        let body = len - header_and_footer;
        if !body.is_multiple_of(LOG_ENTRY_BYTES as u64) {
            return Err(corrupt(format!(
                "record region is {body} bytes, not a multiple of {LOG_ENTRY_BYTES}"
            )));
        }
        let records = body / LOG_ENTRY_BYTES as u64;
        if records != self.info.log_entries {
            return Err(corrupt(format!(
                "manifest says {} records, file holds {records}",
                self.info.log_entries
            )));
        }
        Ok((file, records))
    }

    /// Walk the logical log, handing `f` each run-length record's
    /// `(fingerprint, count)`. Polls the budget session once per record,
    /// as one fine step ([`BudgetSession::note_fine_step`]), before any
    /// page load `f` makes: the step cap, the cancel flag and an injected
    /// trip act on the exact record, and the deadline is read every
    /// [`prox_robust::CLOCK_STRIDE`] records. Returns the partial outcome
    /// when the budget trips (anytime contract). The record stream's
    /// running checksum is verified when the walk completes.
    fn walk_log<F>(
        &mut self,
        session: &mut BudgetSession,
        mut f: F,
    ) -> Result<ScanOutcome, ProxError>
    where
        F: FnMut(&mut SegmentStore, u64, u64) -> Result<(), ProxError>,
    {
        let (file, records) = self.open_log()?;
        let mut reader = std::io::BufReader::new(file);
        let mut outcome = ScanOutcome::default();
        let mut checksum = FNV_OFFSET;
        let mut rec = [0u8; LOG_ENTRY_BYTES];
        for _ in 0..records {
            if let Err(stop) = session.note_fine_step() {
                outcome.stopped = Some(stop);
                return Ok(outcome);
            }
            reader
                .read_exact(&mut rec)
                .map_err(|e| ProxError::io("read log record", &e))?;
            BYTES_READ.add(LOG_ENTRY_BYTES as u64);
            self.bytes_read += LOG_ENTRY_BYTES as u64;
            checksum = fnv64_update(checksum, &rec);
            let mut a = [0u8; 8];
            a.copy_from_slice(&rec[..8]);
            let fp = u64::from_le_bytes(a);
            a.copy_from_slice(&rec[8..]);
            let count = u64::from_le_bytes(a);
            f(self, fp, count)?;
            outcome.records_seen += 1;
            outcome.logical_seen += count;
        }
        if checksum != self.info.log_checksum {
            return Err(ProxError::corrupt(
                "store log",
                format!(
                    "record checksum mismatch: manifest {:016x}, computed {checksum:016x}",
                    self.info.log_checksum
                ),
            ));
        }
        Ok(outcome)
    }

    /// Stream the logical log, delivering `(object, tensor, count)` for
    /// every run-length record. Unlike [`SegmentStore::fold`], a repeated
    /// fingerprint is read and decoded again. The budget is polled once
    /// per record, and the log checksum verified at the end, as in every
    /// walk of the log.
    pub fn scan(
        &mut self,
        session: &mut BudgetSession,
        f: &mut dyn FnMut(AnnId, Tensor, u64) -> Result<(), ProxError>,
    ) -> Result<ScanOutcome, ProxError> {
        self.walk_log(session, |store, fp, count| {
            let (object, tensor) = store.read_entry(fp)?;
            f(object, tensor, count)
        })
    }

    /// Fold the store, keeping in memory only the tensors of the first
    /// `objects` objects in object order: the selection the summarizer
    /// works on.
    ///
    /// The reads do not depend on `objects`: every log record is read,
    /// and every fingerprint's frame is fetched and checked the first
    /// time it appears, never again. A repeat only adds its count to the
    /// frame's multiplicity, which is folded into the aggregation value
    /// at the end. Only a frame whose object the selection keeps is
    /// decoded; every other one is skimmed for its object and size,
    /// under the same checks, without allocating. What stays in memory is
    /// one entry per fingerprint and per object id seen, plus the
    /// selected objects' tensors. The returned tallies cover every frame
    /// read, selected or not. A budget trip keeps the anytime contract:
    /// the selection and tallies are those of the partial fold.
    pub fn fold(&mut self, session: &mut BudgetSession, objects: usize) -> Result<Fold, ProxError> {
        // Per index position: the object id of a frame this fold has read,
        // or ABSENT.
        let mut seen = vec![ABSENT; self.index.len()];
        let max_ann = self.anns.len();
        // Per object id: whether any frame read so far belongs to it.
        let mut object_seen = vec![false; max_ann];
        let mut object_count = 0;
        let mut frames_read = 0;
        let mut size = 0;
        // object → fingerprint → (tensor, multiplicity), for the (at most)
        // `objects` smallest object ids seen so far.
        let mut kept: BTreeMap<AnnId, BTreeMap<u64, (Tensor, u64)>> = BTreeMap::new();
        let outcome = self.walk_log(session, |store, fp, count| {
            let pos = store.index.locate(fp)?;
            if seen[pos] != ABSENT {
                let object = AnnId::from_index(seen[pos] as usize);
                let frame = kept.get_mut(&object).and_then(|frames| frames.get_mut(&fp));
                if let Some((_, n)) = frame {
                    *n += count;
                }
                return Ok(());
            }
            let payload = store.read_frame_at(pos)?;
            // An object evicted below never returns: the ids seen only
            // grow, so the `objects` smallest only get smaller.
            let keeps = |object: usize| {
                kept.len() < objects
                    || kept
                        .last_key_value()
                        .is_some_and(|(last, _)| object <= last.index())
            };
            let (object, frame_size, tensor) = if entry_object(payload).is_some_and(keeps) {
                let (object, tensor) = decode_entry(payload, max_ann)?;
                (object, tensor.size(), Some(tensor))
            } else {
                let (object, frame_size) = skim_entry(payload, max_ann)?;
                (object, frame_size, None)
            };
            // Below `max_ann`, itself a u32 count, so never ABSENT.
            seen[pos] = object.index() as u32;
            if !object_seen[object.index()] {
                object_seen[object.index()] = true;
                object_count += 1;
            }
            frames_read += 1;
            size += frame_size;
            if let Some(tensor) = tensor {
                kept.entry(object).or_default().insert(fp, (tensor, count));
                if kept.len() > objects {
                    kept.pop_last();
                }
            }
            Ok(())
        })?;
        let agg = self.info.agg;
        let mut entries = Vec::with_capacity(kept.len());
        for (object, frames) in kept {
            // Anytime contract: keep polling, but a trip here does not
            // void the fold — the selection is already read and bounded.
            let _ = session.note_step();
            let mut expr = AggExpr::new(agg);
            for (mut tensor, n) in frames.into_values() {
                tensor.value = tensor.value.scaled(n, agg);
                expr.push(tensor);
            }
            entries.push((object, expr));
        }
        Ok(Fold {
            selection: ProvExpr::from_entries(agg, entries),
            objects: object_count,
            frames: frames_read,
            size,
            outcome,
        })
    }

    /// Fold the whole store into one in-memory [`ProvExpr`]: the
    /// [`SegmentStore::fold`] that selects every object. Live memory is
    /// proportional to the number of unique frames, never to the logical
    /// size of the store.
    pub fn collect(
        &mut self,
        session: &mut BudgetSession,
    ) -> Result<(ProvExpr, ScanOutcome), ProxError> {
        let fold = self.fold(session, usize::MAX)?;
        Ok((fold.selection, fold.outcome))
    }

    /// Store + cache statistics as JSON (the shape `prox store stat`,
    /// `/metrics.json`, and the bench manifest all share).
    pub fn stats_json(&self) -> Json {
        let cache = self.cache_stats();
        let mut cj = Json::obj();
        cj.set("capacity_bytes", cache.capacity_bytes);
        cj.set("page_bytes", self.cache.page_bytes());
        cj.set("hits", cache.hits);
        cj.set("misses", cache.misses);
        cj.set("evictions", cache.evictions);
        cj.set("live_bytes", cache.live_bytes);
        cj.set("peak_bytes", cache.peak_bytes);
        cj.set("hit_rate", round6(cache.hit_rate()));

        let mut j = Json::obj();
        j.set("dir", self.dir.display().to_string());
        j.set("agg", self.info.agg.name());
        j.set("logical_expressions", self.info.logical);
        j.set("unique_frames", self.info.unique);
        j.set("dedup_ratio", round6(self.info.dedup_ratio()));
        j.set("log_entries", self.info.log_entries);
        j.set("annotations", self.info.annotations);
        j.set("segments", self.info.segments.len());
        j.set("payload_bytes", self.info.payload_bytes);
        j.set("bytes_read", self.bytes_read);
        j.set("page_cache", cj);
        j
    }
}

/// Check that a frame's header declares the length its index entry
/// gives.
fn check_header(frame: &[u8], loc: FrameLoc) -> Result<(), ProxError> {
    let declared = u32::from_le_bytes([frame[0], frame[1], frame[2], frame[3]]);
    if declared != loc.len {
        return Err(frame_corrupt(
            loc,
            format!("index says {} bytes, frame header says {declared}", loc.len),
        ));
    }
    Ok(())
}

/// Check a whole frame's payload against its checksum, and return the
/// payload.
fn check_payload(frame: &[u8], loc: FrameLoc) -> Result<&[u8], ProxError> {
    let (payload, sum) = frame[4..].split_at(loc.len as usize);
    let want = u64::from_le_bytes([
        sum[0], sum[1], sum[2], sum[3], sum[4], sum[5], sum[6], sum[7],
    ]);
    let got = fnv64(payload);
    if got != want {
        return Err(frame_corrupt(
            loc,
            format!("payload checksum mismatch (stored {want:016x}, computed {got:016x})"),
        ));
    }
    Ok(payload)
}

#[cold]
fn frame_corrupt(loc: FrameLoc, detail: String) -> ProxError {
    ProxError::corrupt(
        "segment frame",
        format!(
            "{} frame {:016x}: {detail}",
            segment_file(loc.shard),
            loc.fp
        ),
    )
}

/// Round to 6 decimal places so ratios render identically across runs.
fn round6(x: f64) -> f64 {
    (x * 1e6).round() / 1e6
}

/// Append a segment's index entries to `index`; returns the bytes read
/// and the file's length.
fn load_segment_index(
    file: &mut File,
    shard: u8,
    index: &mut Vec<FrameLoc>,
) -> Result<(u64, u64), ProxError> {
    let len = file
        .metadata()
        .map_err(|e| ProxError::io(format!("stat {}", segment_file(shard)), &e))?
        .len();
    let corrupt = |detail: String| {
        ProxError::corrupt(
            "segment index",
            format!("{}: {detail}", segment_file(shard)),
        )
    };
    if len < (SEG_MAGIC.len() + FOOTER_BYTES) as u64 {
        return Err(corrupt(format!("file too short ({len} bytes)")));
    }
    let io = |what: &str, e: &std::io::Error| {
        ProxError::io(format!("{what} {}", segment_file(shard)), e)
    };
    let mut magic = [0u8; 8];
    file.seek(SeekFrom::Start(0)).map_err(|e| io("seek", &e))?;
    file.read_exact(&mut magic).map_err(|e| io("read", &e))?;
    if &magic != SEG_MAGIC {
        return Err(corrupt("bad header magic".into()));
    }
    let mut tail = [0u8; FOOTER_BYTES];
    file.seek(SeekFrom::Start(len - FOOTER_BYTES as u64))
        .map_err(|e| io("seek", &e))?;
    file.read_exact(&mut tail).map_err(|e| io("read", &e))?;
    let (index_offset, want_sum) = parse_footer(&tail, len, shard)?;
    let index_len = (len - FOOTER_BYTES as u64 - index_offset) as usize;
    let mut index_bytes = vec![0u8; index_len];
    file.seek(SeekFrom::Start(index_offset))
        .map_err(|e| io("seek", &e))?;
    file.read_exact(&mut index_bytes)
        .map_err(|e| io("read", &e))?;
    let read = (magic.len() + tail.len() + index_len) as u64;
    BYTES_READ.add(read);
    index.extend(
        parse_index_region(&index_bytes, want_sum, index_offset, shard)?
            .into_iter()
            .map(|e| FrameLoc {
                fp: e.fp,
                shard,
                offset: e.offset,
                len: e.len,
            }),
    );
    Ok((read, len))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fp::shard_of;
    use prox_robust::{DetRng, ErrorKind};

    /// Index entries for `fps`, sorted and unique, as `open_with` reads
    /// them from the segments.
    fn frames(fps: impl IntoIterator<Item = u64>) -> Vec<FrameLoc> {
        let mut fps: Vec<u64> = fps.into_iter().collect();
        fps.sort_unstable();
        fps.dedup();
        fps.into_iter()
            .enumerate()
            .map(|(i, fp)| FrameLoc {
                fp,
                shard: shard_of(fp),
                offset: 8 + 64 * i as u64,
                len: 40 + i as u32 % 7,
            })
            .collect()
    }

    /// The directory finds every indexed fingerprint at its position,
    /// and answers each probe as the plain binary search over all
    /// fingerprints does: the same position, or the typed error for a
    /// fingerprint the index does not hold.
    fn check_against_binary_search(frames: &[FrameLoc], index: &FrameIndex, label: &str) {
        assert_eq!(index.len(), frames.len(), "{label}");
        let mut probes = vec![0, 1, u64::MAX, u64::MAX - 1];
        for (pos, loc) in frames.iter().enumerate() {
            let got = index.locate(loc.fp).map(|p| index.get(p));
            let got = got.unwrap_or_else(|e| panic!("{label}: {:016x}: {e}", loc.fp));
            assert_eq!(
                (got.fp, got.shard, got.offset, got.len),
                (loc.fp, loc.shard, loc.offset, loc.len),
                "{label}: position {pos}"
            );
            probes.extend([loc.fp.wrapping_sub(1), loc.fp.wrapping_add(1)]);
        }
        for k in 0..index.starts.len() as u64 {
            let first = k.checked_shl(index.shift).unwrap_or(0);
            probes.extend([first, first.wrapping_sub(1)]);
        }
        let mut rng = DetRng::new(0x57_d1);
        probes.extend((0..256).map(|_| rng.next_u64()));
        for fp in probes {
            match (
                frames.binary_search_by_key(&fp, |loc| loc.fp),
                index.locate(fp),
            ) {
                (Ok(want), Ok(got)) => assert_eq!(got, want, "{label}: {fp:016x}"),
                (Err(_), Err(e)) => {
                    assert_eq!(e.kind(), ErrorKind::Input, "{label}: {e}");
                    assert!(e.to_string().contains("unknown fingerprint"), "{e}");
                }
                (want, got) => panic!("{label}: {fp:016x}: search {want:?}, directory {got:?}"),
            }
        }
    }

    fn index(frames: &[FrameLoc]) -> FrameIndex {
        FrameIndex::new(frames.to_vec()).unwrap_or_else(|e| panic!("index: {e}"))
    }

    #[test]
    fn directory_agrees_with_binary_search_on_random_fingerprints() {
        let mut rng = DetRng::new(0x57_b0c4);
        for n in [2, 3, 4, 5, 8, 9, 63, 64, 65, 1000, 4099] {
            let frames = frames((0..n).map(|_| rng.next_u64()));
            check_against_binary_search(&frames, &index(&frames), &format!("{n} random"));
        }
    }

    #[test]
    fn directory_survives_every_fingerprint_in_one_bucket() {
        let low = frames(0..500);
        let high = frames((0..500).map(|i| u64::MAX - 3 * i));
        for (label, frames) in [("lowest bucket", low), ("highest bucket", high)] {
            let index = index(&frames);
            assert!(index.starts.len() > 2, "{label}: several buckets");
            check_against_binary_search(&frames, &index, label);
            for bits in [0, 1, 12] {
                let forced = FrameIndex::with_bits(&frames, bits);
                check_against_binary_search(&frames, &forced, &format!("{label}, {bits} bits"));
            }
        }
    }

    #[test]
    fn directory_handles_empty_and_single_frame_indexes() {
        let empty = frames([]);
        check_against_binary_search(&empty, &index(&empty), "no frames");
        for fp in [0, 0x8abc_0000_0000_0001, u64::MAX] {
            let one = frames([fp]);
            check_against_binary_search(&one, &index(&one), &format!("one frame {fp:016x}"));
        }
    }

    #[test]
    fn directory_costs_about_a_byte_per_frame() {
        let mut rng = DetRng::new(0x57_512e);
        let frames = frames((0..49_994).map(|_| rng.next_u64()));
        let index = index(&frames);
        assert_eq!(
            index.starts.len(),
            (1 << 14) + 1,
            "four frames a bucket or fewer"
        );
        check_against_binary_search(&frames, &index, "store-rw shape");
    }
}
