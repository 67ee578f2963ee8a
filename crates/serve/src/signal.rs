//! Minimal async-signal-safe shutdown flag.
//!
//! `SIGINT`/`SIGTERM` handlers may only touch lock-free state; the handler
//! here does a single atomic store into a process-global flag. The server
//! itself never reads it: `prox serve`'s main loop polls [`signalled`] and
//! turns a signal into [`crate::ServerHandle::shutdown`], which wakes the
//! blocking accept loop. Registration goes through libc's `signal(2)`
//! directly — std already links libc, so this adds no dependency — and is
//! a no-op on non-unix targets.

use std::sync::atomic::{AtomicBool, Ordering};

static SIGNALLED: AtomicBool = AtomicBool::new(false);

/// Has a termination signal been observed since the last [`reset`]?
pub fn signalled() -> bool {
    SIGNALLED.load(Ordering::SeqCst)
}

/// Clear the flag (tests).
pub fn reset() {
    SIGNALLED.store(false, Ordering::SeqCst);
}

/// Trip the flag as if a signal had arrived (tests). Only `prox serve`'s
/// main loop reads it: a server started in-process keeps running.
pub fn raise() {
    SIGNALLED.store(true, Ordering::SeqCst);
}

#[cfg(unix)]
mod sys {
    extern "C" {
        fn signal(signum: i32, handler: usize) -> usize;
    }

    extern "C" fn on_signal(_signum: i32) {
        super::SIGNALLED.store(true, super::Ordering::SeqCst);
    }

    const SIGINT: i32 = 2;
    const SIGTERM: i32 = 15;

    pub fn install() {
        // SAFETY: the handler only performs an atomic store, which is
        // async-signal-safe; `signal` itself is safe to call with a valid
        // function pointer for these two standard signal numbers.
        let handler = on_signal as *const () as usize;
        unsafe {
            signal(SIGINT, handler);
            signal(SIGTERM, handler);
        }
    }
}

/// Route `SIGINT`/`SIGTERM` into [`signalled`] (no-op off unix).
pub fn install_signal_handlers() {
    #[cfg(unix)]
    sys::install();
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn raise_and_reset_round_trip() {
        reset();
        assert!(!signalled());
        raise();
        assert!(signalled());
        reset();
        assert!(!signalled());
    }
}
