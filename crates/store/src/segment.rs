//! Append-only segment files.
//!
//! Layout of `seg-XX.seg` (all integers little-endian):
//!
//! ```text
//! "PROXSEG1"                                      8-byte magic
//! frame*:   [u32 payload_len][payload][u64 fnv(payload)]
//! index:    [u32 n] then n × [u64 fp][u64 offset][u32 payload_len]
//! footer:   [u64 index_offset][u64 fnv(index bytes)]["PROXEND1"]
//! ```
//!
//! `offset` addresses the frame's length prefix from the start of the
//! file. The index is sorted by fingerprint, written once at close, and
//! checksummed in the footer; each frame additionally carries its own
//! payload checksum, so corruption is detected at frame granularity.
//! Crash safety is the append-only kind: a segment without a valid
//! footer is an unfinished write and is rejected as a whole.

use std::fs::File;
use std::io::{BufWriter, Write};
use std::path::{Path, PathBuf};

use prox_obs::{fnv64, fnv64_update, FNV_OFFSET};
use prox_robust::ProxError;

use crate::codec::{END_MAGIC, MAX_FRAME_BYTES};

/// Magic prefix of every segment file.
pub const SEG_MAGIC: &[u8; 8] = b"PROXSEG1";
/// Fixed footer size: index offset, index checksum, end magic.
pub const FOOTER_BYTES: usize = 24;
/// Bytes per frame in the offset index.
pub const INDEX_ENTRY_BYTES: usize = 20;

/// File name of a shard's segment.
pub fn segment_file(shard: u8) -> String {
    format!("seg-{shard:02x}.seg")
}

/// One sorted index entry: where a fingerprint's frame lives.
#[derive(Clone, Copy, Debug)]
pub struct IndexEntry {
    pub fp: u64,
    pub offset: u64,
    pub len: u32,
}

/// Summary of a finished segment, recorded in the store manifest.
#[derive(Clone, Debug)]
pub struct SegmentMeta {
    pub shard: u8,
    pub frames: u64,
    /// Total payload bytes (pre-framing).
    pub payload_bytes: u64,
    /// Final file size including index and footer.
    pub file_bytes: u64,
}

/// Streaming writer for one shard. Frames go straight to a `BufWriter`;
/// only the (fingerprint → offset) index is buffered until close.
pub struct SegmentWriter {
    shard: u8,
    path: PathBuf,
    out: BufWriter<File>,
    offset: u64,
    payload_bytes: u64,
    index: Vec<IndexEntry>,
}

impl SegmentWriter {
    pub fn create(dir: &Path, shard: u8) -> Result<SegmentWriter, ProxError> {
        let path = dir.join(segment_file(shard));
        let file = File::create(&path)
            .map_err(|e| ProxError::io(format!("create segment {}", path.display()), &e))?;
        let mut out = BufWriter::new(file);
        out.write_all(SEG_MAGIC)
            .map_err(|e| ProxError::io("write segment magic", &e))?;
        Ok(SegmentWriter {
            shard,
            path,
            out,
            offset: SEG_MAGIC.len() as u64,
            payload_bytes: 0,
            index: Vec::new(),
        })
    }

    /// Append one frame; returns the entry recorded in the index. `fp`
    /// is `fnv64(payload)`: the frame's address and its checksum.
    pub fn append(&mut self, fp: u64, payload: &[u8]) -> Result<IndexEntry, ProxError> {
        if payload.len() > MAX_FRAME_BYTES {
            return Err(ProxError::internal(format!(
                "frame payload {} bytes exceeds cap {MAX_FRAME_BYTES}",
                payload.len()
            )));
        }
        let entry = IndexEntry {
            fp,
            offset: self.offset,
            len: payload.len() as u32,
        };
        let io = |e: &std::io::Error| ProxError::io("append segment frame", e);
        self.out
            .write_all(&(payload.len() as u32).to_le_bytes())
            .map_err(|e| io(&e))?;
        self.out.write_all(payload).map_err(|e| io(&e))?;
        self.out.write_all(&fp.to_le_bytes()).map_err(|e| io(&e))?;
        self.offset += 4 + payload.len() as u64 + 8;
        self.payload_bytes += payload.len() as u64;
        self.index.push(entry);
        Ok(entry)
    }

    pub fn frames(&self) -> u64 {
        self.index.len() as u64
    }

    /// Write the sorted index and footer, flush, and return the meta. The
    /// index streams out with its checksum running beside it.
    pub fn finish(mut self) -> Result<SegmentMeta, ProxError> {
        // Offsets are distinct, so the unstable sort orders as a stable one.
        self.index.sort_unstable_by_key(|e| (e.fp, e.offset));
        let index_offset = self.offset;
        let io = |e: &std::io::Error| ProxError::io("finish segment", e);
        let count = (self.index.len() as u32).to_le_bytes();
        self.out.write_all(&count).map_err(|e| io(&e))?;
        let mut checksum = fnv64_update(FNV_OFFSET, &count);
        let mut rec = [0u8; INDEX_ENTRY_BYTES];
        for e in &self.index {
            rec[..8].copy_from_slice(&e.fp.to_le_bytes());
            rec[8..16].copy_from_slice(&e.offset.to_le_bytes());
            rec[16..].copy_from_slice(&e.len.to_le_bytes());
            self.out.write_all(&rec).map_err(|e| io(&e))?;
            checksum = fnv64_update(checksum, &rec);
        }
        self.out
            .write_all(&index_offset.to_le_bytes())
            .map_err(|e| io(&e))?;
        self.out
            .write_all(&checksum.to_le_bytes())
            .map_err(|e| io(&e))?;
        self.out.write_all(END_MAGIC).map_err(|e| io(&e))?;
        self.out
            .flush()
            .map_err(|e| ProxError::io(format!("flush segment {}", self.path.display()), &e))?;
        let index_bytes = 4 + self.index.len() * INDEX_ENTRY_BYTES;
        let file_bytes = index_offset + index_bytes as u64 + FOOTER_BYTES as u64;
        Ok(SegmentMeta {
            shard: self.shard,
            frames: self.index.len() as u64,
            payload_bytes: self.payload_bytes,
            file_bytes,
        })
    }
}

/// Parse a segment footer (its final [`FOOTER_BYTES`] bytes) given the
/// file's total length. Returns `(index_offset, index_checksum)`.
pub fn parse_footer(tail: &[u8], file_len: u64, shard: u8) -> Result<(u64, u64), ProxError> {
    let corrupt = |detail: String| {
        ProxError::corrupt(
            "segment footer",
            format!("{}: {detail}", segment_file(shard)),
        )
    };
    if file_len < (SEG_MAGIC.len() + FOOTER_BYTES) as u64 || tail.len() != FOOTER_BYTES {
        return Err(corrupt(format!("file too short ({file_len} bytes)")));
    }
    if &tail[16..] != END_MAGIC {
        return Err(corrupt("bad end magic (unfinished write?)".into()));
    }
    let mut a = [0u8; 8];
    a.copy_from_slice(&tail[..8]);
    let index_offset = u64::from_le_bytes(a);
    a.copy_from_slice(&tail[8..16]);
    let want_sum = u64::from_le_bytes(a);
    let foot = file_len - FOOTER_BYTES as u64;
    if index_offset < SEG_MAGIC.len() as u64 || index_offset > foot {
        return Err(corrupt(format!("index offset {index_offset} out of range")));
    }
    Ok((index_offset, want_sum))
}

/// Checksum and parse the index region (everything between
/// `index_offset` and the footer). Frame extents are validated against
/// the data region `[8, index_offset)`.
pub fn parse_index_region(
    index_bytes: &[u8],
    want_sum: u64,
    index_offset: u64,
    shard: u8,
) -> Result<Vec<IndexEntry>, ProxError> {
    let corrupt = |detail: String| {
        ProxError::corrupt(
            "segment index",
            format!("{}: {detail}", segment_file(shard)),
        )
    };
    let got_sum = fnv64(index_bytes);
    if got_sum != want_sum {
        return Err(corrupt(format!(
            "index checksum mismatch: stored {want_sum:016x}, computed {got_sum:016x}"
        )));
    }
    if index_bytes.len() < 4 {
        return Err(corrupt("index shorter than its count field".into()));
    }
    let mut c = [0u8; 4];
    c.copy_from_slice(&index_bytes[..4]);
    let n = u32::from_le_bytes(c) as usize;
    if index_bytes.len() != 4 + n * INDEX_ENTRY_BYTES {
        return Err(corrupt(format!(
            "index declares {n} entries but holds {} bytes",
            index_bytes.len() - 4
        )));
    }
    let mut a = [0u8; 8];
    let mut entries = Vec::with_capacity(n);
    let mut pos = 4;
    for _ in 0..n {
        a.copy_from_slice(&index_bytes[pos..pos + 8]);
        let fp = u64::from_le_bytes(a);
        a.copy_from_slice(&index_bytes[pos + 8..pos + 16]);
        let offset = u64::from_le_bytes(a);
        c.copy_from_slice(&index_bytes[pos + 16..pos + 20]);
        let len = u32::from_le_bytes(c);
        let end = offset
            .checked_add(4 + len as u64 + 8)
            .ok_or_else(|| corrupt("frame extent overflow".into()))?;
        if offset < SEG_MAGIC.len() as u64 || end > index_offset {
            return Err(corrupt(format!(
                "frame at {offset} (+{len}) escapes data region [8, {index_offset})"
            )));
        }
        entries.push(IndexEntry { fp, offset, len });
        pos += INDEX_ENTRY_BYTES;
    }
    Ok(entries)
}

/// Parse and checksum-verify a segment's footer + index from its full
/// byte image. Returns the sorted index entries.
pub fn parse_index(bytes: &[u8], shard: u8) -> Result<Vec<IndexEntry>, ProxError> {
    let corrupt = |detail: String| {
        ProxError::corrupt(
            "segment index",
            format!("{}: {detail}", segment_file(shard)),
        )
    };
    if bytes.len() < SEG_MAGIC.len() + FOOTER_BYTES {
        return Err(corrupt(format!("file too short ({} bytes)", bytes.len())));
    }
    if &bytes[..SEG_MAGIC.len()] != SEG_MAGIC {
        return Err(corrupt("bad header magic".into()));
    }
    let foot = bytes.len() - FOOTER_BYTES;
    let (index_offset, want_sum) = parse_footer(&bytes[foot..], bytes.len() as u64, shard)?;
    parse_index_region(
        &bytes[index_offset as usize..foot],
        want_sum,
        index_offset,
        shard,
    )
}

/// Walk every frame in a segment image, checking each payload checksum
/// against its stored value and each index entry against the frame it
/// points at. Returns the index, parsed and checked once. `bytes` is
/// the full file (verification is an offline, whole-file pass; the
/// serving read path uses the page cache instead).
pub fn verify_segment(bytes: &[u8], shard: u8) -> Result<Vec<IndexEntry>, ProxError> {
    let entries = parse_index(bytes, shard)?;
    let corrupt = |detail: String| {
        ProxError::corrupt(
            "segment frame",
            format!("{} shard {shard:02x}: {detail}", segment_file(shard)),
        )
    };
    for e in &entries {
        let off = e.offset as usize;
        let len_field = bytes
            .get(off..off + 4)
            .ok_or_else(|| corrupt(format!("truncated length prefix at {off}")))?;
        let mut c = [0u8; 4];
        c.copy_from_slice(len_field);
        let declared = u32::from_le_bytes(c);
        if declared != e.len {
            return Err(corrupt(format!(
                "frame {:016x}: index says {} bytes, frame header says {declared}",
                e.fp, e.len
            )));
        }
        let payload = bytes
            .get(off + 4..off + 4 + e.len as usize)
            .ok_or_else(|| corrupt(format!("truncated payload at {off}")))?;
        let sum_field = bytes
            .get(off + 4 + e.len as usize..off + 4 + e.len as usize + 8)
            .ok_or_else(|| corrupt(format!("truncated checksum at {off}")))?;
        let mut a = [0u8; 8];
        a.copy_from_slice(sum_field);
        let want = u64::from_le_bytes(a);
        let got = fnv64(payload);
        if got != want {
            return Err(corrupt(format!(
                "frame {:016x}: payload checksum mismatch (stored {want:016x}, computed {got:016x})",
                e.fp
            )));
        }
        if got != e.fp {
            return Err(corrupt(format!(
                "frame content hash {got:016x} does not match its address {:016x}",
                e.fp
            )));
        }
    }
    Ok(entries)
}
