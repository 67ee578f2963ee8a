//! Building a segment store: streaming writes, content-address dedup,
//! and the run-length logical log.
//!
//! A store directory contains:
//!
//! * `store.json`  — manifest (counts, shard list, checksums); the
//!   JSON debug/interchange view of the store's shape;
//! * `anns.bin`    — the annotation tables (see `codec::encode_annstore`);
//! * `seg-XX.seg`  — one segment per fingerprint-prefix shard holding
//!   each unique frame exactly once;
//! * `log.bin`     — the *logical* entry stream as run-length records
//!   `[u64 fingerprint][u64 count]`, so ten million logical expressions
//!   that share a hundred thousand distinct frames stay proportional to
//!   the distinct count on disk.
//!
//! Dedup is exact: a frame is written the first time its fingerprint is
//! seen; every later logical occurrence only grows a run in the log and
//! the `store/dedup_hit` counter.
//!
//! An append allocates nothing of its own: each entry is encoded into one
//! reused buffer, and the only per-frame heap traffic left is the growth
//! of the fingerprint set and of the segment indexes (DESIGN §14.9).

use std::collections::BTreeSet;
use std::fs::File;
use std::io::{BufWriter, Write};
use std::path::{Path, PathBuf};

use prox_obs::store_metrics::DEDUP_HIT;
use prox_obs::{fnv64, fnv64_update, Json, FNV_OFFSET};
use prox_provenance::{AggKind, AnnId, AnnStore, Tensor};
use prox_robust::ProxError;

use crate::codec::{encode_annstore, encode_entry_into, END_MAGIC};
use crate::fp::{shard_of, SHARDS};
use crate::segment::{SegmentMeta, SegmentWriter};

/// Magic prefix of `log.bin`.
pub const LOG_MAGIC: &[u8; 8] = b"PROXLOG1";
/// Bytes per run-length record in the log.
pub const LOG_ENTRY_BYTES: usize = 16;
/// Manifest file name.
pub const MANIFEST_FILE: &str = "store.json";
/// Annotation table file name.
pub const ANNS_FILE: &str = "anns.bin";
/// Logical log file name.
pub const LOG_FILE: &str = "log.bin";
/// Manifest format tag.
pub const FORMAT: &str = "prox-store/v1";

/// What `StoreBuilder::finish` reports (and writes into `store.json`).
#[derive(Clone, Debug)]
pub struct StoreSummary {
    pub logical: u64,
    pub unique: u64,
    pub log_entries: u64,
    pub annotations: u64,
    pub payload_bytes: u64,
    pub segments: Vec<SegmentMeta>,
}

impl StoreSummary {
    /// Logical expressions per stored frame (1.0 when nothing repeats).
    pub fn dedup_ratio(&self) -> f64 {
        if self.unique == 0 {
            0.0
        } else {
            self.logical as f64 / self.unique as f64
        }
    }
}

/// Streaming store writer. Segment frames and log records go through
/// `BufWriter`s as they arrive; only the dedup set (the fingerprint of
/// every unique frame) and the per-segment offset indexes are held in
/// memory.
pub struct StoreBuilder {
    dir: PathBuf,
    agg: AggKind,
    writers: Vec<Option<SegmentWriter>>,
    /// Fingerprints of the frames written so far.
    seen: BTreeSet<u64>,
    /// The entry being appended, encoded; one buffer for every append.
    frame: Vec<u8>,
    log: BufWriter<File>,
    log_entries: u64,
    log_checksum: u64,
    logical: u64,
    payload_bytes: u64,
    run: Option<(u64, u64)>,
    annotations: u64,
}

impl StoreBuilder {
    /// Create `dir` (and parents), write the annotation table, and open
    /// the logical log. The annotation store is fixed at creation: every
    /// frame appended later refers into it by id.
    pub fn create(dir: &Path, anns: &AnnStore, agg: AggKind) -> Result<StoreBuilder, ProxError> {
        std::fs::create_dir_all(dir)
            .map_err(|e| ProxError::io(format!("create store dir {}", dir.display()), &e))?;
        let ann_bytes = encode_annstore(anns)?;
        let ann_path = dir.join(ANNS_FILE);
        std::fs::write(&ann_path, &ann_bytes)
            .map_err(|e| ProxError::io(format!("write {}", ann_path.display()), &e))?;
        let log_path = dir.join(LOG_FILE);
        let log_file = File::create(&log_path)
            .map_err(|e| ProxError::io(format!("create {}", log_path.display()), &e))?;
        let mut log = BufWriter::new(log_file);
        log.write_all(LOG_MAGIC)
            .map_err(|e| ProxError::io("write log magic", &e))?;
        let mut writers = Vec::with_capacity(SHARDS);
        writers.resize_with(SHARDS, || None);
        Ok(StoreBuilder {
            dir: dir.to_path_buf(),
            agg,
            writers,
            seen: BTreeSet::new(),
            frame: Vec::new(),
            log,
            log_entries: 0,
            log_checksum: FNV_OFFSET,
            logical: 0,
            payload_bytes: 0,
            run: None,
            annotations: anns.len() as u64,
        })
    }

    /// Append `multiplicity` logical occurrences of one expression.
    /// Returns its content address. The frame itself is written only on
    /// first sight; duplicates count as dedup hits.
    pub fn append(
        &mut self,
        object: AnnId,
        tensor: &Tensor,
        multiplicity: u64,
    ) -> Result<u64, ProxError> {
        if multiplicity == 0 {
            return Err(ProxError::config("store append with multiplicity 0"));
        }
        encode_entry_into(&mut self.frame, object, tensor);
        let fp = fnv64(&self.frame);
        if self.seen.insert(fp) {
            if let Err(e) = self.write_frame(fp) {
                // Not written, so not seen: the counts stay those of the
                // frames on disk.
                self.seen.remove(&fp);
                return Err(e);
            }
            self.payload_bytes += self.frame.len() as u64;
            // The first logical occurrence pays for the frame; the rest
            // of this run already shares it.
            DEDUP_HIT.add(multiplicity - 1);
        } else {
            DEDUP_HIT.add(multiplicity);
        }
        self.logical += multiplicity;
        match &mut self.run {
            Some((run_fp, count)) if *run_fp == fp => *count += multiplicity,
            _ => {
                self.flush_run()?;
                self.run = Some((fp, multiplicity));
            }
        }
        Ok(fp)
    }

    /// Write the encoded entry in `frame` to its fingerprint's segment.
    fn write_frame(&mut self, fp: u64) -> Result<(), ProxError> {
        let shard = shard_of(fp);
        let writer = match &mut self.writers[shard as usize] {
            Some(w) => w,
            slot @ None => slot.insert(SegmentWriter::create(&self.dir, shard)?),
        };
        writer.append(fp, &self.frame)?;
        Ok(())
    }

    fn flush_run(&mut self) -> Result<(), ProxError> {
        if let Some((fp, count)) = self.run.take() {
            let mut rec = [0u8; LOG_ENTRY_BYTES];
            rec[..8].copy_from_slice(&fp.to_le_bytes());
            rec[8..].copy_from_slice(&count.to_le_bytes());
            self.log
                .write_all(&rec)
                .map_err(|e| ProxError::io("append log record", &e))?;
            self.log_checksum = fnv64_update(self.log_checksum, &rec);
            self.log_entries += 1;
        }
        Ok(())
    }

    /// Seal every segment, footer the log, and write the manifest.
    pub fn finish(mut self) -> Result<StoreSummary, ProxError> {
        self.flush_run()?;
        let io = |what: &str, e: &std::io::Error| ProxError::io(format!("finish log: {what}"), e);
        self.log
            .write_all(&self.log_entries.to_le_bytes())
            .map_err(|e| io("entry count", &e))?;
        self.log
            .write_all(&self.log_checksum.to_le_bytes())
            .map_err(|e| io("checksum", &e))?;
        self.log
            .write_all(END_MAGIC)
            .map_err(|e| io("end magic", &e))?;
        self.log.flush().map_err(|e| io("flush", &e))?;

        let mut segments = Vec::with_capacity(SHARDS);
        for writer in self.writers.into_iter().flatten() {
            segments.push(writer.finish()?);
        }
        let summary = StoreSummary {
            logical: self.logical,
            unique: self.seen.len() as u64,
            log_entries: self.log_entries,
            annotations: self.annotations,
            payload_bytes: self.payload_bytes,
            segments,
        };
        let manifest = manifest_json(&summary, self.agg, self.log_checksum);
        let path = self.dir.join(MANIFEST_FILE);
        let mut text = manifest.pretty();
        text.push('\n');
        std::fs::write(&path, text)
            .map_err(|e| ProxError::io(format!("write {}", path.display()), &e))?;
        Ok(summary)
    }
}

/// The manifest, every object's keys set in sorted order: it is written
/// as built, with no sorted copy.
fn manifest_json(s: &StoreSummary, agg: AggKind, log_checksum: u64) -> Json {
    let mut counts = Json::obj();
    counts.set("annotations", s.annotations);
    counts.set("log_entries", s.log_entries);
    counts.set("logical", s.logical);
    counts.set("payload_bytes", s.payload_bytes);
    counts.set("unique", s.unique);

    let segs = Json::Arr(
        s.segments
            .iter()
            .map(|m| {
                let mut j = Json::obj();
                j.set("file", crate::segment::segment_file(m.shard));
                j.set("file_bytes", m.file_bytes);
                j.set("frames", m.frames);
                j.set("payload_bytes", m.payload_bytes);
                j.set("shard", format!("{:02x}", m.shard));
                j
            })
            .collect(),
    );

    let mut log = Json::obj();
    log.set("checksum", format!("{log_checksum:016x}"));
    log.set("entries", s.log_entries);
    log.set("file", LOG_FILE);

    let mut j = Json::obj();
    j.set("agg", agg.name());
    j.set("anns_file", ANNS_FILE);
    j.set("counts", counts);
    j.set("fingerprint", "fnv1a64");
    j.set("format", FORMAT);
    j.set("log", log);
    j.set("segments", segs);
    j.set("version", 1u64);
    j
}

/// Parse an `AggKind` back from its manifest name.
pub fn agg_from_name(name: &str) -> Result<AggKind, ProxError> {
    match name {
        "MAX" => Ok(AggKind::Max),
        "MIN" => Ok(AggKind::Min),
        "SUM" => Ok(AggKind::Sum),
        "COUNT" => Ok(AggKind::Count),
        other => Err(ProxError::corrupt(
            "store manifest",
            format!("unknown aggregation kind '{other}'"),
        )),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn manifest_is_built_in_key_order() {
        let summary = StoreSummary {
            logical: 9,
            unique: 2,
            log_entries: 3,
            annotations: 4,
            payload_bytes: 88,
            segments: vec![SegmentMeta {
                shard: 10,
                frames: 2,
                payload_bytes: 88,
                file_bytes: 160,
            }],
        };
        let manifest = manifest_json(&summary, AggKind::Max, 0xfeed);
        assert_eq!(manifest, manifest.sorted());
    }
}
