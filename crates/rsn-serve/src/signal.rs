//! SIGTERM / SIGINT (ctrl-c) → an atomic shutdown flag, with no external
//! crates: the handler is registered through the C `signal` symbol that the
//! std runtime already links against on Unix.
//!
//! The daemon polls [`triggered`] and converts it into a graceful
//! [`ShutdownHandle::shutdown`](crate::server::ShutdownHandle::shutdown) —
//! the handler itself only flips the flag, which is the entirety of what is
//! async-signal-safe to do.

use std::sync::atomic::{AtomicBool, Ordering};
use std::time::Duration;

use crate::server::ShutdownHandle;

static TRIGGERED: AtomicBool = AtomicBool::new(false);

#[cfg(unix)]
mod imp {
    use super::{Ordering, TRIGGERED};

    const SIGINT: i32 = 2;
    const SIGTERM: i32 = 15;

    extern "C" fn on_signal(_signum: i32) {
        TRIGGERED.store(true, Ordering::SeqCst);
    }

    extern "C" {
        /// `sighandler_t signal(int signum, sighandler_t handler)` from libc,
        /// which std already links.
        fn signal(signum: i32, handler: extern "C" fn(i32)) -> usize;
    }

    pub fn install() {
        // SAFETY: `on_signal` only performs an atomic store, which is
        // async-signal-safe; `signal` itself is safe to call with a valid
        // function pointer.
        unsafe {
            let _ = signal(SIGINT, on_signal);
            let _ = signal(SIGTERM, on_signal);
        }
    }
}

#[cfg(not(unix))]
mod imp {
    /// No-op on platforms without Unix signals; shutdown then requires the
    /// process to be killed or the shutdown handle to be used directly.
    pub fn install() {}
}

/// Installs the SIGINT/SIGTERM handlers (idempotent).
pub fn install() {
    imp::install();
}

/// Whether a shutdown signal has been received.
#[must_use]
pub fn triggered() -> bool {
    TRIGGERED.load(Ordering::SeqCst)
}

/// Installs the handlers and turns the first signal into
/// `handle.shutdown()`, from a watcher thread that polls [`triggered`].
pub fn shutdown_on_signal(handle: ShutdownHandle) {
    install();
    std::thread::spawn(move || {
        while !triggered() {
            std::thread::sleep(Duration::from_millis(50));
        }
        handle.shutdown();
    });
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn install_is_idempotent_and_flag_starts_clear() {
        install();
        install();
        // The flag may legitimately be set if the test runner received a
        // signal; only assert that reading it does not panic.
        let _ = triggered();
    }
}
