//! Minimal, dependency-free SIGINT/SIGTERM handling for crash-safe runs,
//! and the default SIGPIPE disposition for every command.
//!
//! The handlers do the only async-signal-safe thing possible: store the
//! signal number and raise a shared [`AtomicBool`]. Long-running commands
//! thread that flag into the simulation/sweep/campaign engines as a
//! cooperative shutdown request; the engines then write a final checkpoint
//! and flush their manifests before returning. `main` translates a received
//! signal into the conventional `128 + signo` exit code (130 for SIGINT,
//! 143 for SIGTERM) so callers can distinguish "interrupted but resumable"
//! from ordinary failure.
//!
//! The Rust runtime ignores SIGPIPE, so printing to a pipe whose reader
//! has gone (`heteronoc lint | head -1`) panics in `println!`.
//! [`default_sigpipe`] restores the default disposition: the process then
//! ends quietly on SIGPIPE, as any Unix filter does. A sweep or campaign
//! cut short this way keeps every finished point in the result cache.

use std::sync::atomic::{AtomicBool, AtomicI32, Ordering};
use std::sync::{Arc, OnceLock};

/// POSIX SIGINT (Ctrl-C).
pub const SIGINT: i32 = 2;
/// POSIX SIGTERM (polite kill).
pub const SIGTERM: i32 = 15;
/// POSIX SIGPIPE (write to a pipe without a reader).
const SIGPIPE: i32 = 13;

/// Last signal delivered (0 = none yet).
static RECEIVED: AtomicI32 = AtomicI32::new(0);
/// The cooperative-shutdown flag shared with the engines.
static FLAG: OnceLock<Arc<AtomicBool>> = OnceLock::new();

extern "C" fn on_signal(sig: i32) {
    RECEIVED.store(sig, Ordering::SeqCst);
    if let Some(flag) = FLAG.get() {
        flag.store(true, Ordering::SeqCst);
    }
}

extern "C" {
    // ISO C `signal(2)`; declared by hand to stay free of a libc crate
    // dependency. `None` is `SIG_DFL` (the null handler). The return value
    // (previous handler) is unused.
    fn signal(signum: i32, handler: Option<extern "C" fn(i32)>) -> usize;
}

/// Installs the SIGINT/SIGTERM handlers (idempotent) and returns the
/// shared shutdown flag to thread into a run, sweep, or campaign.
pub fn install() -> Arc<AtomicBool> {
    let flag = Arc::clone(FLAG.get_or_init(|| Arc::new(AtomicBool::new(false))));
    // SAFETY: `on_signal` only stores to atomics, which is
    // async-signal-safe, and it stays valid for the life of the process.
    unsafe {
        signal(SIGINT, Some(on_signal));
        signal(SIGTERM, Some(on_signal));
    }
    flag
}

/// Restores the default SIGPIPE disposition (see the module docs).
pub fn default_sigpipe() {
    // SAFETY: `SIG_DFL` installs no handler code; it only resets what the
    // runtime changed before `main`.
    unsafe {
        signal(SIGPIPE, None);
    }
}

/// The signal received so far, if any.
pub fn received() -> Option<i32> {
    match RECEIVED.load(Ordering::SeqCst) {
        0 => None,
        s => Some(s),
    }
}

/// Conventional shell exit code for dying of `sig`: `128 + signo`.
pub fn exit_code(sig: i32) -> u8 {
    128u8.wrapping_add(u8::try_from(sig & 0x7f).unwrap_or(0))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn exit_codes_follow_the_128_plus_signo_convention() {
        assert_eq!(exit_code(SIGINT), 130);
        assert_eq!(exit_code(SIGTERM), 143);
    }

    #[test]
    fn install_is_idempotent_and_the_flag_is_shared() {
        let a = install();
        let b = install();
        a.store(true, Ordering::SeqCst);
        assert!(b.load(Ordering::SeqCst));
        a.store(false, Ordering::SeqCst);
    }
}
