//! Optional JSONL trace sink.
//!
//! When installed (via `PROX_TRACE=<path>` or [`install`]), every span
//! completion — and any custom [`event`] — is appended as one JSON object
//! per line. The active check is a relaxed atomic load, so an absent sink
//! costs nothing; writes go through a mutex-guarded `BufWriter`.

use std::fs::File;
use std::io::{self, BufWriter, Write};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Mutex;
use std::time::Instant;

use crate::json::Json;

struct SinkInner {
    writer: BufWriter<File>,
    t0: Instant,
}

static ACTIVE: AtomicBool = AtomicBool::new(false);
static SINK: Mutex<Option<SinkInner>> = Mutex::new(None);

/// Is a sink installed?
#[inline]
pub fn active() -> bool {
    ACTIVE.load(Ordering::Relaxed)
}

/// Open (truncating) `path` and route trace events to it. Also enables
/// observability collection — a sink without collection records nothing.
pub fn install(path: &str) -> io::Result<()> {
    let file = File::create(path)?;
    let mut guard = crate::lock(&SINK);
    *guard = Some(SinkInner {
        writer: BufWriter::new(file),
        t0: Instant::now(),
    });
    ACTIVE.store(true, Ordering::Relaxed);
    crate::registry::set_enabled(true);
    Ok(())
}

/// Emit one event. Each event gains a `t_us` field: microseconds since the
/// sink was installed. A no-op when no sink is installed.
pub fn emit(event: Json) {
    if !active() {
        return;
    }
    let mut guard = crate::lock(&SINK);
    if let Some(inner) = guard.as_mut() {
        let t_us = u64::try_from(inner.t0.elapsed().as_micros()).unwrap_or(u64::MAX);
        // Render the whole line (newline included) up front and hand it to
        // the writer as a single `write_all`, so one event is one atomic
        // append and concurrent serve workers can never interleave partial
        // lines in the JSONL output.
        let mut line = event.with("t_us", t_us).render();
        line.push('\n');
        // Ignore I/O errors: tracing must never take the process down.
        let _ = inner.writer.write_all(line.as_bytes());
    }
}

/// Flush buffered events to disk.
pub fn flush() {
    if let Some(inner) = crate::lock(&SINK).as_mut() {
        let _ = inner.writer.flush();
    }
}

/// Flush and close the sink. Collection stays enabled.
pub fn close() {
    let mut guard = crate::lock(&SINK);
    if let Some(mut inner) = guard.take() {
        let _ = inner.writer.flush();
    }
    ACTIVE.store(false, Ordering::Relaxed);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sink_writes_one_valid_json_object_per_line() {
        let _serial = crate::test_lock();
        let path = std::env::temp_dir().join(format!("prox-obs-sink-{}.jsonl", std::process::id()));
        let path_str = path.to_str().expect("utf8 temp path");
        install(path_str).expect("install sink");
        emit(Json::obj().with("type", "event").with("name", "alpha"));
        emit(
            Json::obj()
                .with("type", "span")
                .with("name", "beta/gamma")
                .with("dur_ns", 1234u64),
        );
        close();
        assert!(!active());

        let text = std::fs::read_to_string(&path).expect("read back");
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 2);
        for line in &lines {
            let obj = Json::parse(line).expect("valid JSON line");
            assert!(obj.get("type").is_some(), "{line}");
            assert!(obj.get("t_us").and_then(Json::as_u64).is_some(), "{line}");
        }
        assert_eq!(
            Json::parse(lines[1])
                .unwrap()
                .get("dur_ns")
                .and_then(Json::as_u64),
            Some(1234)
        );
        let _ = std::fs::remove_file(&path);
    }

    /// Many concurrent writers, every line must still parse as one JSON
    /// object (no interleaving, no torn lines).
    #[test]
    fn concurrent_emitters_never_interleave_lines() {
        let _serial = crate::test_lock();
        const THREADS: usize = 8;
        const EVENTS: usize = 200;
        let path =
            std::env::temp_dir().join(format!("prox-obs-sink-stress-{}.jsonl", std::process::id()));
        let path_str = path.to_str().expect("utf8 temp path");
        install(path_str).expect("install sink");
        let handles: Vec<_> = (0..THREADS)
            .map(|t| {
                std::thread::spawn(move || {
                    for i in 0..EVENTS {
                        emit(
                            Json::obj()
                                .with("type", "stress")
                                .with("thread", t as u64)
                                .with("i", i as u64)
                                // Long padding makes a torn write visible.
                                .with("pad", "x".repeat(64).as_str()),
                        );
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().expect("writer thread");
        }
        close();

        let text = std::fs::read_to_string(&path).expect("read back");
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), THREADS * EVENTS);
        for line in &lines {
            let obj = Json::parse(line).expect("valid JSON line");
            assert_eq!(obj.get("type").and_then(Json::as_str), Some("stress"));
            assert!(obj.get("t_us").and_then(Json::as_u64).is_some());
        }
        let _ = std::fs::remove_file(&path);
    }
}
