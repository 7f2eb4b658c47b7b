//! Golden bytes for the store's two file formats: one WAL segment and one
//! checkpoint, pinned as hex. Round-trip tests cannot see a framing or
//! CRC change that writer and reader make alike; these literals can.
//! Each was produced by the store before its records were framed in
//! place and before the CRC gained a folding kernel, and the store must
//! still write exactly these bytes.
//!
//! The segment holds three records, one entry each: a 0-bit, a 70-bit
//! and a 1 024-bit stream, so the record CRCs run both short of and past
//! the fold's 64-byte threshold. The checkpoint's CRC covers more than
//! 64 bytes too.

use waves_core::bits::Bits;
use waves_obs::NoopRecorder;
use waves_store::{scratch_dir, ShardStore, SyncPolicy};

const SEGMENT: &str = concat!(
    "574c4f4700020000000000000000000000000015e2c3db640100000001000000",
    "0000000011000000000000000000000025a8ebe7420100000001000000000000",
    "222200000000000000468448871290400a86240000000000000000000095fb74",
    "d5d601000000010000000000333333000000000000040088052076200a8220e4",
    "a0efa104201b2c1c18c11810d5018110f85c0e580095c1d4102ff8880989e4fb",
    "7b0ec98461006058591a0c4036112d811660c20d02000140d638994e2540704a",
    "0115e907a0040fc50986b2882d1a80321020de5208d0156b68804170d4d22200",
    "611360230c0b5190300281c02400a904be108061049007",
);

const CHECKPOINT: &str = concat!(
    "57434b5000020000000000000000000100000002000000000000001100000028",
    "5a7f1035cee38459721728cde6bb5c710a2fc0e5be53740922c798bd566b0c21",
    "fa9fb0556e0324f90000000000002222000000030102033d884cdd",
);

fn hex(bytes: &[u8]) -> String {
    bytes.iter().map(|b| format!("{b:02x}")).collect()
}

fn lcg_bits(seed: u64, len: usize) -> Bits {
    let mut x = seed;
    let bools: Vec<bool> = (0..len)
        .map(|_| {
            x = x
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            (x >> 33).is_multiple_of(3)
        })
        .collect();
    Bits::from_bools(&bools)
}

fn batches() -> Vec<Vec<(u64, Bits)>> {
    vec![
        vec![(0x11, Bits::new())],
        vec![(0x2222, lcg_bits(7, 70))],
        vec![(0x0033_3333, lcg_bits(11, 1024))],
    ]
}

fn checkpoint_entries() -> Vec<(u64, Vec<u8>)> {
    vec![
        (0x11, (0..40u8).map(|i| i.wrapping_mul(37) ^ 0x5A).collect()),
        (0x2222, vec![1, 2, 3]),
    ]
}

#[test]
fn segment_and_checkpoint_bytes_are_pinned() {
    let dir = scratch_dir("golden-store");
    let rec = NoopRecorder;
    let mut store = ShardStore::recover(&dir, SyncPolicy::EveryBatch, 8 << 20, &rec)
        .unwrap()
        .store;
    for batch in batches() {
        store.append_batch(&batch, &rec).unwrap();
    }
    let segment = std::fs::read(dir.join("wal-0000000000000000.log")).unwrap();
    store.checkpoint(checkpoint_entries(), &rec).unwrap();
    let checkpoint = std::fs::read(dir.join("ckpt-0000000000000001.ckpt")).unwrap();
    drop(store);
    let recovered = ShardStore::recover(&dir, SyncPolicy::EveryBatch, 8 << 20, &rec).unwrap();
    assert_eq!(recovered.entries, checkpoint_entries());
    assert!(recovered.batches.is_empty());
    std::fs::remove_dir_all(&dir).unwrap();

    assert_eq!(hex(&segment), SEGMENT, "WAL segment bytes moved");
    assert_eq!(hex(&checkpoint), CHECKPOINT, "checkpoint bytes moved");
}
