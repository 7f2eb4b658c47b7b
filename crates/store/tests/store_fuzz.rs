//! Seeded fuzz of the store's three file formats through the paths that
//! read them back: a WAL segment through `ShardStore::recover`, a
//! checkpoint through `ShardStore::recover`, and `META` through
//! `Store::open`, each in a scratch directory.
//!
//! Every case starts from a valid file and either mutates it (bit flips,
//! a cut, an overwritten run, appended garbage, or a change under a CRC
//! that is then recomputed, so the decoders behind the checksum see it)
//! or replaces it with arbitrary bytes. The oracles:
//! - a segment recovers every batch that lies before its first changed
//!   byte, then nothing but the batches written there (a record resealed
//!   over a change may decode to other bits), and a second recovery
//!   reads the same;
//! - a checkpoint recovers `Ok`, as what `decode_checkpoint` reads from
//!   it: its valid entries or none, unless its CRC was recomputed;
//! - a WAL payload decodes or is refused as `InvalidData`;
//! - `META` opens only as its exact valid bytes, and is refused as
//!   `InvalidData` otherwise;
//! - nothing panics.
//!
//! This binary installs the same per-thread counting allocator as
//! `decode_reservations.rs`, and holds the two record decoders to a
//! stated budget: decoding a WAL payload or a checkpoint of `n` bytes
//! asks the allocator for at most `4n + 1 KiB`.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::io;
use std::ops::Range;
use std::path::{Path, PathBuf};

use waves_core::bits::Bits;
use waves_obs::NoopRecorder;
use waves_store::checkpoint::{
    checkpoint_file_name, decode_checkpoint, encode_checkpoint, Checkpoint,
};
use waves_store::crc::crc32;
use waves_store::wal::{
    decode_batch_payload, encode_batch_payload, segment_file_name, RECORD_HEADER_LEN,
    SEGMENT_HEADER_LEN,
};
use waves_store::{scratch_dir, RecoveredShard, ShardStore, Store, SyncPolicy};

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

/// Decoding `n` input bytes may ask for at most `BUDGET_FACTOR * n +
/// BUDGET_CONST` bytes. A WAL entry of 16 bytes or more becomes a
/// 40-byte `(u64, Bits)` slot plus its words (no more bytes than it
/// read); a checkpoint entry of 12 or more becomes a 32-byte slot plus
/// its copied bytes. Both stay under `3.7n`; the constant covers an
/// error's message.
const BUDGET_FACTOR: usize = 4;
const BUDGET_CONST: usize = 1 << 10;

/// `f`'s result, held to the decode budget for `n` input bytes.
fn within_budget<T>(what: &str, n: usize, f: impl FnOnce() -> T) -> T {
    let before = ASKED.with(Cell::get);
    let out = f();
    let asked = ASKED.with(Cell::get) - before;
    let budget = BUDGET_FACTOR * n + BUDGET_CONST;
    assert!(
        asked <= budget,
        "{what}: {n} bytes asked for {asked} (budget {budget})"
    );
    out
}

const CASES: u64 = 300;

/// SplitMix64: a seeded stream with no dependency.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: usize) -> usize {
        (self.next() % n.max(1) as u64) as usize
    }

    fn bytes(&mut self, n: usize) -> Vec<u8> {
        (0..n).map(|_| self.next() as u8).collect()
    }
}

fn valid_batches() -> Vec<Vec<(u64, Bits)>> {
    let mut rng = Rng(41);
    (0..6)
        .map(|_| {
            (0..1 + rng.below(3))
                .map(|_| {
                    let bools: Vec<bool> =
                        (0..rng.below(200)).map(|_| rng.next() & 1 == 1).collect();
                    (rng.next() % 1000, Bits::from_bools(&bools))
                })
                .collect()
        })
        .collect()
}

/// Damage `bytes` one of six ways: flip one to three bits, cut it,
/// overwrite a run, append garbage, replace it with arbitrary bytes, or
/// flip one bit in `resealable` and return that bit's byte, so the
/// caller recomputes the CRC over it and the decoders behind that CRC
/// see the change.
fn damage(rng: &mut Rng, bytes: &mut Vec<u8>, resealable: Range<usize>) -> Option<usize> {
    match rng.below(6) {
        0 => {
            for _ in 0..1 + rng.below(3) {
                let bit = rng.below(bytes.len() * 8);
                bytes[bit / 8] ^= 1 << (bit % 8);
            }
        }
        1 => bytes.truncate(rng.below(bytes.len())),
        2 => {
            let at = rng.below(bytes.len());
            let n = 1 + rng.below(8);
            let run = rng.bytes(n);
            bytes[at..].iter_mut().zip(run).for_each(|(b, r)| *b = r);
        }
        3 => {
            let n = 1 + rng.below(40);
            bytes.extend(rng.bytes(n));
        }
        4 => {
            let at = resealable.start + rng.below(resealable.len());
            bytes[at] ^= 1 << rng.below(8);
            return Some(at);
        }
        _ => {
            let n = rng.below(300);
            *bytes = rng.bytes(n);
        }
    }
    None
}

/// Recompute the CRC-32 trailer over everything before it.
fn reseal_trailer(bytes: &mut [u8]) {
    let body = bytes.len() - 4;
    let crc = crc32(&bytes[..body]);
    bytes[body..].copy_from_slice(&crc.to_be_bytes());
}

fn fresh_dir(tag: &str) -> PathBuf {
    let dir = scratch_dir(tag);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

fn recover(dir: &Path) -> RecoveredShard {
    ShardStore::recover(dir, SyncPolicy::OnCheckpoint, 8 << 20, &NoopRecorder)
        .expect("recovery reads a damaged file as a shorter history, not an error")
}

#[test]
fn a_damaged_segment_recovers_a_prefix_of_its_batches() {
    let batches = valid_batches();
    let dir = fresh_dir("fuzz-segment-src");
    let mut store = recover(&dir).store;
    let ends: Vec<usize> = batches
        .iter()
        .map(|b| store.append_batch(b, &NoopRecorder).unwrap().offset as usize)
        .collect();
    store.sync(&NoopRecorder).unwrap();
    drop(store);
    let name = segment_file_name(0);
    let valid = std::fs::read(dir.join(&name)).unwrap();
    std::fs::remove_dir_all(&dir).unwrap();

    let mut rng = Rng(0x5E6);
    for case in 0..CASES {
        let mut bytes = valid.clone();
        let header = SEGMENT_HEADER_LEN as usize;
        // The record a resealed flip landed in: its CRC is recomputed
        // over the payload as written, so a flip in its length field
        // still fails the check.
        let resealed = damage(&mut rng, &mut bytes, header..valid.len()).map(|at| {
            let record = ends.iter().position(|&e| at < e).unwrap();
            let start = if record == 0 {
                header
            } else {
                ends[record - 1]
            };
            let body = start + RECORD_HEADER_LEN as usize;
            let crc = crc32(&bytes[body..ends[record]]);
            bytes[start + 4..body].copy_from_slice(&crc.to_be_bytes());
            record
        });
        let first_change = (0..bytes.len().min(valid.len()))
            .find(|&i| bytes[i] != valid[i])
            .unwrap_or(bytes.len().min(valid.len()));
        let untouched = ends.iter().filter(|&&e| e <= first_change).count();

        let dir = fresh_dir("fuzz-segment");
        std::fs::write(dir.join(&name), &bytes).unwrap();
        let got = recover(&dir).batches;
        assert!(
            (untouched..=batches.len()).contains(&got.len()),
            "case {case}: {} batches recovered, {untouched} untouched",
            got.len()
        );
        for (i, batch) in got.iter().enumerate() {
            // Only a record resealed over a change may decode to other
            // bits; every other recovered batch is the one written there.
            if resealed != Some(i) {
                assert_eq!(batch, &batches[i], "case {case}: batch {i}");
            }
        }
        // Recovery cut what it refused, so a second pass reads the same.
        assert_eq!(recover(&dir).batches, got, "case {case}: second recovery");
        std::fs::remove_dir_all(&dir).unwrap();
    }
}

#[test]
fn a_damaged_wal_payload_decodes_within_budget_or_is_invalid_data() {
    let batches = valid_batches();
    let mut rng = Rng(0xBA7C4);
    for case in 0..CASES {
        let batch = &batches[rng.below(batches.len())];
        let mut payload = encode_batch_payload(batch);
        let len = payload.len();
        damage(&mut rng, &mut payload, 0..len);
        let got = within_budget("WAL payload", payload.len(), || {
            decode_batch_payload(&payload)
        });
        match got {
            Ok(decoded) => {
                if payload == encode_batch_payload(batch) {
                    assert_eq!(&decoded, batch, "case {case}");
                }
            }
            Err(e) => assert_eq!(e.kind(), io::ErrorKind::InvalidData, "case {case}: {e}"),
        }
    }
}

#[test]
fn a_damaged_checkpoint_recovers_whole_or_not_at_all() {
    let mut rng = Rng(0xC4E);
    let valid_ckpt = Checkpoint {
        wal_seq: 0,
        entries: (0..5)
            .map(|k| {
                let n = rng.below(120);
                (k * 11, rng.bytes(n))
            })
            .collect(),
    };
    let valid = encode_checkpoint(&valid_ckpt);
    let name = checkpoint_file_name(0);
    for case in 0..CASES {
        let mut bytes = valid.clone();
        let resealed = damage(&mut rng, &mut bytes, 0..valid.len() - 4).is_some();
        if resealed {
            reseal_trailer(&mut bytes);
        }
        let decoded = within_budget("checkpoint", bytes.len(), || decode_checkpoint(&bytes));
        let expect = match decoded {
            Ok(ckpt) if ckpt.wal_seq == 0 => ckpt.entries,
            Ok(_) => Vec::new(),
            Err(e) => {
                assert_eq!(e.kind(), io::ErrorKind::InvalidData, "case {case}: {e}");
                Vec::new()
            }
        };
        if !resealed && !expect.is_empty() {
            assert_eq!(expect, valid_ckpt.entries, "case {case}");
        }
        let dir = fresh_dir("fuzz-checkpoint");
        std::fs::write(dir.join(&name), &bytes).unwrap();
        let got = recover(&dir);
        assert_eq!(got.entries, expect, "case {case}");
        assert!(got.batches.is_empty(), "case {case}");
        std::fs::remove_dir_all(&dir).unwrap();
    }
}

#[test]
fn a_damaged_meta_is_refused_as_invalid_data() {
    let root = fresh_dir("fuzz-meta-src");
    Store::open(&root, 3).unwrap();
    let valid = std::fs::read(root.join("META")).unwrap();
    std::fs::remove_dir_all(&root).unwrap();
    let mut rng = Rng(0x3E7A);
    for case in 0..CASES {
        let mut bytes = valid.clone();
        if damage(&mut rng, &mut bytes, 0..valid.len() - 4).is_some() {
            reseal_trailer(&mut bytes);
        }
        let root = fresh_dir("fuzz-meta");
        std::fs::write(root.join("META"), &bytes).unwrap();
        match Store::open(&root, 3) {
            Ok(_) => assert_eq!(bytes, valid, "case {case}: damaged META opened"),
            Err(e) => {
                assert_ne!(bytes, valid, "case {case}: valid META refused: {e}");
                assert_eq!(e.kind(), io::ErrorKind::InvalidData, "case {case}: {e}");
            }
        }
        std::fs::remove_dir_all(&root).unwrap();
    }
}
