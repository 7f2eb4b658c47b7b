//! Machine-checkable experiment verdicts.
//!
//! Experiments print `PASS` / `FAIL` lines for humans; this module
//! additionally records every FAIL in a process-wide flag so the
//! `experiments` binary can exit nonzero — and CI can gate on the exit
//! code instead of scraping stdout.

use std::sync::atomic::{AtomicBool, Ordering};

static FAILED: AtomicBool = AtomicBool::new(false);

/// The verdict word for a boolean check; a FAIL is recorded for
/// [`any_failed`].
pub fn word(pass: bool) -> &'static str {
    if pass {
        "PASS"
    } else {
        FAILED.store(true, Ordering::Relaxed);
        "FAIL"
    }
}

/// True if any verdict since the last [`reset`] was FAIL.
pub fn any_failed() -> bool {
    FAILED.load(Ordering::Relaxed)
}

/// Clear the failure flag.
pub fn reset() {
    FAILED.store(false, Ordering::Relaxed);
}

#[cfg(test)]
mod tests {
    use super::*;

    // One test owns the whole lifecycle: the flag is process-global, so
    // splitting these assertions across parallel tests would race.
    #[test]
    fn fail_sets_the_flag_and_pass_does_not() {
        reset();
        assert!(!any_failed());
        assert_eq!(word(true), "PASS");
        assert!(!any_failed());
        assert_eq!(word(false), "FAIL");
        assert!(any_failed());
        reset();
        assert!(!any_failed());
    }
}
