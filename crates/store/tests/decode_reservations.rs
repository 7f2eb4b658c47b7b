//! What the recovery decoders reserve before they validate: a WAL
//! record payload and a checkpoint file whose CRCs hold but whose entry
//! counts claim `u32::MAX` entries with no bytes behind them must be
//! refused without reserving for the claim.
//!
//! This binary installs a counting `#[global_allocator]`. The counter is
//! per thread, so the tests here can run in parallel (and beside the
//! harness's own threads) without seeing each other.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::io;

use waves_store::checkpoint::{decode_checkpoint, CHECKPOINT_MAGIC};
use waves_store::crc::crc32;
use waves_store::wal::{decode_batch_payload, REC_BATCH, STORE_VERSION};

struct Counting;

thread_local! {
    /// Bytes this thread has asked the allocator for, never decreased.
    static ASKED: Cell<usize> = const { Cell::new(0) };
}

fn count(bytes: usize) {
    ASKED.with(|a| a.set(a.get() + bytes));
}

// SAFETY: every call is forwarded unchanged to `System`; the counter is
// a plain thread-local cell with no destructor, so touching it neither
// allocates nor re-enters.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        // SAFETY: the caller's contract, passed through.
        unsafe { System.alloc(layout) }
    }
    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        // SAFETY: the caller's contract, passed through.
        unsafe { System.alloc_zeroed(layout) }
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: the caller's contract, passed through.
        unsafe { System.dealloc(ptr, layout) }
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count(new_size);
        // SAFETY: the caller's contract, passed through.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

/// `f`'s result and the bytes it asked the allocator for.
fn measured<T>(f: impl FnOnce() -> T) -> (T, usize) {
    let before = ASKED.with(Cell::get);
    let out = f();
    (out, ASKED.with(Cell::get) - before)
}

/// Refused as `InvalidData`, having asked for under 4 KiB.
fn refused_cheaply<T: std::fmt::Debug>(what: &str, decode: impl FnOnce() -> io::Result<T>) {
    let (result, asked) = measured(decode);
    let err = result.expect_err(what);
    assert_eq!(err.kind(), io::ErrorKind::InvalidData, "{what}: {err}");
    assert!(asked < 4 << 10, "{what}: {asked} bytes asked for");
}

#[test]
fn a_wal_payload_claiming_u32_max_entries_reserves_nothing_for_them() {
    // Five bytes: the record type and a count, no entries.
    let mut payload = vec![REC_BATCH];
    payload.extend(u32::MAX.to_be_bytes());
    refused_cheaply("WAL payload", || decode_batch_payload(&payload));
}

#[test]
fn a_checkpoint_claiming_u32_max_entries_reserves_nothing_for_them() {
    // Twenty-four bytes: the header with its count, no entries, a valid CRC.
    let mut bytes = CHECKPOINT_MAGIC.to_vec();
    bytes.extend(STORE_VERSION.to_be_bytes());
    bytes.extend([0, 0]);
    bytes.extend(7u64.to_be_bytes());
    bytes.extend(u32::MAX.to_be_bytes());
    bytes.extend(crc32(&bytes).to_be_bytes());
    assert_eq!(bytes.len(), 24);
    refused_cheaply("checkpoint", || decode_checkpoint(&bytes));
}
