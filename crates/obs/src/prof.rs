//! Sampling self-profiler producing folded-stack (flamegraph) output.
//!
//! Every open [`crate::SpanTimer`] guard pushes exactly one frame, the
//! span's full name, onto a per-thread stack while profiling is enabled.
//! Samples of those stacks are folded into `name1;name2;name3 count`
//! lines — the input format of `flamegraph.pl` / `inferno` — in one of
//! two modes:
//!
//! * **interval** ([`enable_interval`]): a background thread walks every
//!   live thread's stack at a fixed period and folds whatever is open.
//!   This is a classic wall-clock sampling profiler: counts approximate
//!   time spent, at ~zero cost to the instrumented threads beyond a
//!   short mutex hold per span boundary.
//! * **boundary** ([`enable_boundary`]): each span close contributes
//!   exactly one sample of the stack as it was at close (the closing
//!   span as leaf). Counts approximate *span counts*, not time — but the
//!   output is a pure function of the span sequence, so under
//!   `PROX_DETERMINISTIC` two same-seed runs produce byte-identical
//!   folded output (rule L2: no clock in the data path).
//!
//! [`init_from_env`] reads `PROX_PROFILE=<path>` and picks the mode from
//! [`crate::deterministic_mode`]; `prox serve --profile <path>` and the
//! bench `experiments` binary call it. The caller writes the folded text
//! out at exit via [`write_folded`].
//!
//! Lock order (deadlock freedom): `THREADS` → a thread's `frames` →
//! `SAMPLES`. Every path acquires in that order and never holds two of
//! them while taking an earlier one.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, AtomicU8, Ordering};
use std::sync::{Arc, Mutex, Weak};
use std::time::Duration;

const OFF: u8 = 0;
const INTERVAL: u8 = 1;
const BOUNDARY: u8 = 2;

static MODE: AtomicU8 = AtomicU8::new(OFF);
/// Folded stack -> sample count. BTreeMap keeps [`folded`] sorted.
static SAMPLES: Mutex<BTreeMap<String, u64>> = Mutex::new(BTreeMap::new());
/// Weak handles to every thread's stack; dead threads prune on upgrade.
static THREADS: Mutex<Vec<Weak<ThreadStack>>> = Mutex::new(Vec::new());
/// Tells the interval sampler thread to exit. Relaxed suffices (L7): the
/// flag carries no data — the sampler only ever observes it monotonically
/// flipping to true and exits; [`disable`] then joins the thread, which
/// is the real synchronization point.
static SAMPLER_STOP: AtomicBool = AtomicBool::new(false);
static SAMPLER: Mutex<Option<std::thread::JoinHandle<()>>> = Mutex::new(None);

/// One thread's stack of open span names, shared with the sampler.
struct ThreadStack {
    frames: Mutex<Vec<&'static str>>,
}

thread_local! {
    static LOCAL: Arc<ThreadStack> = {
        let stack = Arc::new(ThreadStack { frames: Mutex::new(Vec::new()) });
        crate::lock(&THREADS).push(Arc::downgrade(&stack));
        stack
    };
}

/// Is any profiling mode active?
#[inline]
pub fn enabled() -> bool {
    MODE.load(Ordering::Relaxed) != OFF
}

/// Push `name` onto this thread's span stack. Returns whether a frame was
/// actually pushed — the caller must call [`pop`] on drop iff it was, so
/// enabling/disabling mid-span never underflows the stack.
#[inline]
pub(crate) fn push(name: &'static str) -> bool {
    if !enabled() {
        return false;
    }
    LOCAL.with(|s| crate::lock(&s.frames).push(name));
    true
}

/// Pop this thread's innermost frame. In boundary mode the stack is
/// folded (closing span as leaf) before popping, so every span close is
/// one deterministic sample.
pub(crate) fn pop() {
    let mode = MODE.load(Ordering::Relaxed);
    LOCAL.with(|s| {
        let mut frames = crate::lock(&s.frames);
        if mode == BOUNDARY && !frames.is_empty() {
            let folded = frames.join(";");
            drop(frames);
            *crate::lock(&SAMPLES).entry(folded).or_insert(0) += 1;
            frames = crate::lock(&s.frames);
        }
        frames.pop();
    });
}

fn sample_all_threads() {
    let mut threads = crate::lock(&THREADS);
    threads.retain(|weak| {
        let Some(stack) = weak.upgrade() else {
            return false; // thread exited; drop its handle
        };
        let folded = {
            let frames = crate::lock(&stack.frames);
            if frames.is_empty() {
                return true;
            }
            frames.join(";")
        };
        *crate::lock(&SAMPLES).entry(folded).or_insert(0) += 1;
        true
    });
}

/// Enable interval sampling at `period` (clamped to ≥ 100µs): spawns the
/// sampler thread and clears previously collected samples.
pub fn enable_interval(period: Duration) {
    disable();
    crate::lock(&SAMPLES).clear();
    SAMPLER_STOP.store(false, Ordering::Relaxed);
    MODE.store(INTERVAL, Ordering::Relaxed);
    let period = period.max(Duration::from_micros(100));
    let handle = std::thread::Builder::new()
        .name("prox-prof".into())
        .spawn(move || {
            while !SAMPLER_STOP.load(Ordering::Relaxed) {
                std::thread::sleep(period);
                if MODE.load(Ordering::Relaxed) == INTERVAL {
                    sample_all_threads();
                }
            }
        });
    match handle {
        Ok(h) => *crate::lock(&SAMPLER) = Some(h),
        Err(e) => {
            // Could not spawn (resource exhaustion): profiling degrades
            // to a no-op rather than failing the workload.
            MODE.store(OFF, Ordering::Relaxed);
            eprintln!("prox-obs: cannot start profiler thread: {e}");
        }
    }
}

/// Enable deterministic boundary sampling (one sample per span close) and
/// clear previously collected samples.
pub fn enable_boundary() {
    disable();
    crate::lock(&SAMPLES).clear();
    MODE.store(BOUNDARY, Ordering::Relaxed);
}

/// Stop profiling. Collected samples are kept for [`folded`] /
/// [`write_folded`]; joins the interval sampler thread if one is running.
pub fn disable() {
    MODE.store(OFF, Ordering::Relaxed);
    SAMPLER_STOP.store(true, Ordering::Relaxed);
    let handle = crate::lock(&SAMPLER).take();
    if let Some(h) = handle {
        let _ = h.join();
    }
}

/// Drop all collected samples (mode is unchanged).
pub fn reset() {
    crate::lock(&SAMPLES).clear();
}

/// The collected samples in folded-stack format: one
/// `root;child;leaf count` line per distinct stack, sorted by stack name
/// (BTreeMap order), trailing newline. Empty string when nothing was
/// sampled.
pub fn folded() -> String {
    let samples = crate::lock(&SAMPLES);
    let mut out = String::new();
    for (stack, count) in samples.iter() {
        out.push_str(stack);
        out.push(' ');
        out.push_str(&count.to_string());
        out.push('\n');
    }
    out
}

/// Write [`folded`] to `path` (single write, truncating).
pub fn write_folded(path: &str) -> std::io::Result<()> {
    std::fs::write(path, folded())
}

/// Enable profiling from `PROX_PROFILE=<path>`: boundary mode under
/// `PROX_DETERMINISTIC`, else interval sampling at 1ms. Returns the path
/// the caller should [`write_folded`] to at exit, if profiling was
/// requested.
pub fn init_from_env() -> Option<String> {
    let path = std::env::var("PROX_PROFILE").ok()?;
    if path.is_empty() || path == "0" {
        return None;
    }
    if crate::deterministic_mode() {
        enable_boundary();
    } else {
        enable_interval(Duration::from_millis(1));
    }
    Some(path)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::SpanTimer;

    static OUTER: SpanTimer = SpanTimer::new("prof_test/outer");
    static INNER: SpanTimer = SpanTimer::new("prof_test/inner");

    fn run_spans() {
        let _o = OUTER.start();
        for _ in 0..3 {
            let _i = INNER.start();
        }
    }

    /// Only this module's lines — other tests in the binary may open
    /// spans concurrently, and those must not affect our assertions.
    fn ours(folded: &str) -> String {
        folded
            .lines()
            .filter(|l| l.starts_with("prof_test/"))
            .map(|l| format!("{l}\n"))
            .collect()
    }

    #[test]
    fn boundary_mode_is_deterministic_and_nested() {
        let _serial = crate::test_lock();
        crate::set_enabled(true);
        enable_boundary();
        run_spans();
        let first = ours(&folded());
        enable_boundary(); // clears samples
        run_spans();
        let second = ours(&folded());
        disable();
        assert_eq!(first, second, "boundary sampling must be reproducible");
        assert!(
            first.contains("prof_test/outer;prof_test/inner 3"),
            "nested stack with counts, got:\n{first}"
        );
        assert!(
            first.contains("prof_test/outer 1"),
            "outer close sampled as its own line, got:\n{first}"
        );
    }

    #[test]
    fn disabled_push_is_inert_and_pop_safe() {
        let _serial = crate::test_lock();
        disable();
        assert!(!push("prof_test/never"));
        // A guard that never pushed must not call pop(); but even a stray
        // pop on an empty stack must not panic or underflow.
        pop();
        assert!(!enabled());
    }

    #[test]
    fn interval_mode_samples_open_spans() {
        let _serial = crate::test_lock();
        crate::set_enabled(true);
        enable_interval(Duration::from_micros(200));
        {
            let _o = OUTER.start();
            std::thread::sleep(Duration::from_millis(20));
        }
        disable();
        let out = folded();
        assert!(
            out.contains("prof_test/outer"),
            "sampler should observe the open span, got:\n{out}"
        );
    }
}
