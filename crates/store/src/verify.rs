//! Offline store verification: `prox store verify <dir>`.
//!
//! A full pass over every file in the store directory: header and
//! footer magics, per-frame payload checksums, index checksums, the
//! logical log's running checksum, and cross-checks against the
//! manifest counts. All failures are typed [`ProxError::Corrupt`]
//! (exit code 2 at the CLI) — never panics.
//!
//! The read path runs through the fault-injection hooks: under
//! `PROX_FAULT=truncate` each file is cut short before checking, and
//! under `PROX_FAULT=corrupt` bits are flipped — CI uses this to assert
//! that injected damage is actually detected.

use std::path::Path;

use prox_obs::store_metrics::BYTES_READ;
use prox_obs::{fnv64_update, Json, FNV_OFFSET};
use prox_robust::{fault, ProxError};

use crate::builder::{ANNS_FILE, LOG_ENTRY_BYTES, LOG_FILE, LOG_MAGIC};
use crate::codec::{decode_annstore, END_MAGIC};
use crate::reader::read_info;
use crate::segment::{verify_segment, FOOTER_BYTES};

/// What a successful verification pass covered.
#[derive(Clone, Copy, Debug, Default)]
pub struct VerifyReport {
    pub segments: u64,
    pub frames: u64,
    pub payload_bytes: u64,
    pub log_records: u64,
    pub logical: u64,
    pub annotations: u64,
    pub bytes_checked: u64,
}

impl VerifyReport {
    pub fn to_json(&self) -> Json {
        let mut j = Json::obj();
        j.set("status", "ok");
        j.set("segments", self.segments);
        j.set("frames", self.frames);
        j.set("payload_bytes", self.payload_bytes);
        j.set("log_records", self.log_records);
        j.set("logical", self.logical);
        j.set("annotations", self.annotations);
        j.set("bytes_checked", self.bytes_checked);
        j
    }
}

/// Read a store file fully, routing the bytes through the
/// fault-injection harness (truncation, then bit corruption).
fn read_file(dir: &Path, name: &str) -> Result<Vec<u8>, ProxError> {
    let path = dir.join(name);
    let mut bytes =
        std::fs::read(&path).map_err(|e| ProxError::io(format!("read {}", path.display()), &e))?;
    BYTES_READ.add(bytes.len() as u64);
    let keep = fault::truncate_keep(bytes.len());
    bytes.truncate(keep);
    fault::corrupt_bytes(&mut bytes);
    Ok(bytes)
}

/// Verify every file in a store directory. Returns the coverage report
/// or the first typed corruption found.
pub fn verify_store(dir: &Path) -> Result<VerifyReport, ProxError> {
    let info = read_info(dir)?;
    let mut report = VerifyReport {
        annotations: info.annotations,
        ..VerifyReport::default()
    };

    // Decoding checks the table; only its size outlives this block.
    let annotations = {
        let ann_bytes = read_file(dir, ANNS_FILE)?;
        report.bytes_checked += ann_bytes.len() as u64;
        decode_annstore(&ann_bytes)?.len() as u64
    };
    if annotations != info.annotations {
        return Err(ProxError::corrupt(
            "store verify",
            format!(
                "manifest says {} annotations, anns.bin holds {annotations}",
                info.annotations
            ),
        ));
    }

    // Every segment's fingerprints, sorted below for the log's lookups.
    let mut fps: Vec<u64> = Vec::new();
    for seg in &info.segments {
        let bytes = read_file(dir, &seg.file)?;
        report.bytes_checked += bytes.len() as u64;
        let index = verify_segment(&bytes, seg.shard)?;
        let frames = index.len() as u64;
        if frames != seg.frames {
            return Err(ProxError::corrupt(
                "store verify",
                format!(
                    "{}: manifest says {} frames, segment holds {frames}",
                    seg.file, seg.frames
                ),
            ));
        }
        fps.extend(index.iter().map(|e| e.fp));
        report.segments += 1;
        report.frames += frames;
        report.payload_bytes += index.iter().map(|e| u64::from(e.len)).sum::<u64>();
    }
    fps.sort_unstable();
    if report.frames != info.unique {
        return Err(ProxError::corrupt(
            "store verify",
            format!(
                "manifest says {} unique frames, segments hold {}",
                info.unique, report.frames
            ),
        ));
    }

    let log = read_file(dir, LOG_FILE)?;
    report.bytes_checked += log.len() as u64;
    let corrupt = |detail: String| ProxError::corrupt("store log", format!("{LOG_FILE}: {detail}"));
    let overhead = LOG_MAGIC.len() + FOOTER_BYTES;
    if log.len() < overhead {
        return Err(corrupt(format!("file too short ({} bytes)", log.len())));
    }
    if &log[..LOG_MAGIC.len()] != LOG_MAGIC {
        return Err(corrupt("bad header magic".into()));
    }
    let foot = log.len() - FOOTER_BYTES;
    if &log[foot + 16..] != END_MAGIC {
        return Err(corrupt("bad end magic (unfinished write?)".into()));
    }
    let body = &log[LOG_MAGIC.len()..foot];
    if body.len() % LOG_ENTRY_BYTES != 0 {
        return Err(corrupt(format!(
            "record region is {} bytes, not a multiple of {LOG_ENTRY_BYTES}",
            body.len()
        )));
    }
    let mut a = [0u8; 8];
    a.copy_from_slice(&log[foot..foot + 8]);
    let declared_records = u64::from_le_bytes(a);
    a.copy_from_slice(&log[foot + 8..foot + 16]);
    let declared_sum = u64::from_le_bytes(a);
    let records = (body.len() / LOG_ENTRY_BYTES) as u64;
    if records != declared_records {
        return Err(corrupt(format!(
            "footer says {declared_records} records, file holds {records}"
        )));
    }
    if records != info.log_entries {
        return Err(corrupt(format!(
            "manifest says {} records, file holds {records}",
            info.log_entries
        )));
    }
    let mut checksum = FNV_OFFSET;
    let mut logical = 0u64;
    for rec in body.chunks_exact(LOG_ENTRY_BYTES) {
        checksum = fnv64_update(checksum, rec);
        a.copy_from_slice(&rec[..8]);
        let fp = u64::from_le_bytes(a);
        a.copy_from_slice(&rec[8..]);
        logical += u64::from_le_bytes(a);
        if fps.binary_search(&fp).is_err() {
            return Err(corrupt(format!(
                "record references fingerprint {fp:016x} missing from every segment"
            )));
        }
    }
    if checksum != declared_sum {
        return Err(corrupt(format!(
            "record checksum mismatch: footer {declared_sum:016x}, computed {checksum:016x}"
        )));
    }
    if checksum != info.log_checksum {
        return Err(corrupt(format!(
            "record checksum mismatch: manifest {:016x}, computed {checksum:016x}",
            info.log_checksum
        )));
    }
    if logical != info.logical {
        return Err(corrupt(format!(
            "manifest says {} logical expressions, log sums to {logical}",
            info.logical
        )));
    }
    report.log_records = records;
    report.logical = logical;
    Ok(report)
}
