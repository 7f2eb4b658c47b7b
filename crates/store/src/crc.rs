//! CRC-32 (IEEE 802.3, reflected, polynomial `0xEDB88320`) — the same
//! checksum gzip and PNG use. Every durable record and file in
//! `waves-store` carries one so torn or bit-flipped bytes are detected,
//! never replayed, and `waves-net` reuses it to trailer wire frames.
//!
//! Two kernels compute the same function. Word-packed ingest moves
//! whole `u64` words across the wire and into the WAL, so the checksum
//! has to keep pace with memcpy-speed encode/decode, not dominate it:
//!
//! * **Fold** (x86-64 hosts with `pclmulqdq` and SSE4.1, inputs of 64
//!   bytes or more): four 128-bit lanes are folded 64 bytes at a time
//!   by carry-less multiplication, merged into one lane, and reduced to
//!   32 bits with a Barrett step — the method and reflected constants of
//!   Intel's "Fast CRC Computation for Generic Polynomials Using
//!   PCLMULQDQ Instruction", as Linux's `crc32-pclmul` uses them. The
//!   feature test is std's cached `is_x86_feature_detected!`, made per
//!   call.
//! * **Table** (slicing-by-16): sixteen const-built 256-entry tables
//!   fold one 16-byte chunk per iteration instead of one byte, breaking
//!   the serial lookup dependency of the classic one-table loop. It
//!   finishes the fold's last < 16 bytes, takes every shorter input,
//!   and is the whole kernel on other targets.

const fn make_tables() -> [[u32; 256]; 16] {
    let mut tables = [[0u32; 256]; 16];
    let mut i = 0;
    while i < 256 {
        let mut c = i as u32;
        let mut k = 0;
        while k < 8 {
            c = if c & 1 != 0 {
                0xEDB8_8320 ^ (c >> 1)
            } else {
                c >> 1
            };
            k += 1;
        }
        tables[0][i] = c;
        i += 1;
    }
    let mut t = 1;
    while t < 16 {
        let mut i = 0;
        while i < 256 {
            let prev = tables[t - 1][i];
            tables[t][i] = tables[0][(prev & 0xFF) as usize] ^ (prev >> 8);
            i += 1;
        }
        t += 1;
    }
    tables
}

static TABLES: [[u32; 256]; 16] = make_tables();

/// Shortest input the fold takes: one 64-byte round of its four lanes.
const FOLD_MIN_LEN: usize = 64;

/// CRC-32 of `data` (init `0xFFFFFFFF`, final xor `0xFFFFFFFF`).
pub fn crc32(data: &[u8]) -> u32 {
    #[cfg(target_arch = "x86_64")]
    if data.len() >= FOLD_MIN_LEN && fold_available() {
        // SAFETY: `fold_available` just confirmed this host executes
        // `pclmulqdq` and SSE4.1, the features `crc32_fold` enables.
        return unsafe { crc32_fold(data) };
    }
    crc32_table(data)
}

/// [`crc32`] computed by the table kernel alone.
fn crc32_table(data: &[u8]) -> u32 {
    !table_update(!0, data)
}

/// Run the slicing-by-16 kernel over `data` from CRC register `c` (the
/// running remainder, before the final xor).
fn table_update(mut c: u32, data: &[u8]) -> u32 {
    let mut chunks = data.chunks_exact(16);
    for chunk in &mut chunks {
        let a = u32::from_le_bytes(chunk[0..4].try_into().unwrap()) ^ c;
        let b = u32::from_le_bytes(chunk[4..8].try_into().unwrap());
        let d = u32::from_le_bytes(chunk[8..12].try_into().unwrap());
        let e = u32::from_le_bytes(chunk[12..16].try_into().unwrap());
        c = TABLES[15][(a & 0xFF) as usize]
            ^ TABLES[14][(a >> 8 & 0xFF) as usize]
            ^ TABLES[13][(a >> 16 & 0xFF) as usize]
            ^ TABLES[12][(a >> 24) as usize]
            ^ TABLES[11][(b & 0xFF) as usize]
            ^ TABLES[10][(b >> 8 & 0xFF) as usize]
            ^ TABLES[9][(b >> 16 & 0xFF) as usize]
            ^ TABLES[8][(b >> 24) as usize]
            ^ TABLES[7][(d & 0xFF) as usize]
            ^ TABLES[6][(d >> 8 & 0xFF) as usize]
            ^ TABLES[5][(d >> 16 & 0xFF) as usize]
            ^ TABLES[4][(d >> 24) as usize]
            ^ TABLES[3][(e & 0xFF) as usize]
            ^ TABLES[2][(e >> 8 & 0xFF) as usize]
            ^ TABLES[1][(e >> 16 & 0xFF) as usize]
            ^ TABLES[0][(e >> 24) as usize];
    }
    for &b in chunks.remainder() {
        c = TABLES[0][((c ^ b as u32) & 0xFF) as usize] ^ (c >> 8);
    }
    c
}

/// Whether this host can run [`crc32_fold`].
#[cfg(target_arch = "x86_64")]
fn fold_available() -> bool {
    is_x86_feature_detected!("pclmulqdq") && is_x86_feature_detected!("sse4.1")
}

/// [`crc32`] by carry-less folding: every whole 16-byte block of `data`
/// through the lanes, the remaining < 16 bytes through the tables.
/// Inputs shorter than [`FOLD_MIN_LEN`] take the tables alone.
///
/// The constants are `x^k mod P` for the fold distances, bit-reflected
/// and shifted one place as the reflected domain needs: `R1`/`R2` fold a
/// lane 512 bits ahead, `R3`/`R4` 128 bits, `R4` again 64 bits and `R5`
/// 32; `MU` is `floor(x^64 / P)` and `POLY` is `P` itself.
///
/// # Safety
///
/// The host must support `pclmulqdq` and SSE4.1 ([`fold_available`]).
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "pclmulqdq,sse4.1")]
unsafe fn crc32_fold(data: &[u8]) -> u32 {
    use std::arch::x86_64::*;

    const R1: i64 = 0x1_5444_2bd4;
    const R2: i64 = 0x1_c6e4_1596;
    const R3: i64 = 0x1_7519_97d0;
    const R4: i64 = 0x0_ccaa_009e;
    const R5: i64 = 0x1_63cd_6124;
    const MU: i64 = 0x1_f701_1641;
    const POLY: i64 = 0x1_db71_0641;

    if data.len() < FOLD_MIN_LEN {
        return crc32_table(data);
    }
    let load = |block: &[u8]| {
        assert!(block.len() >= 16);
        // SAFETY: `block` holds at least 16 readable bytes (asserted),
        // and an unaligned load needs no more.
        unsafe { _mm_loadu_si128(block.as_ptr().cast()) }
    };
    // `x * k.lo` for `x`'s low half plus `x * k.hi` for its high half
    // moves `x` forward by the distance `k` encodes; `next` is the data
    // it lands on.
    let fold = |x: __m128i, k: __m128i, next: __m128i| {
        let lo = _mm_clmulepi64_si128(x, k, 0x00);
        let hi = _mm_clmulepi64_si128(x, k, 0x11);
        _mm_xor_si128(_mm_xor_si128(lo, hi), next)
    };

    let (blocks, tail) = data.split_at(data.len() & !15);
    let mut lanes = [0, 16, 32, 48].map(|at| load(&blocks[at..]));
    // The initial register 0xFFFFFFFF, xored into the first 4 bytes.
    lanes[0] = _mm_xor_si128(lanes[0], _mm_cvtsi32_si128(-1));
    let mut rest = &blocks[FOLD_MIN_LEN..];
    let k512 = _mm_set_epi64x(R2, R1);
    while rest.len() >= 64 {
        for (i, lane) in lanes.iter_mut().enumerate() {
            *lane = fold(*lane, k512, load(&rest[16 * i..]));
        }
        rest = &rest[64..];
    }
    let k128 = _mm_set_epi64x(R4, R3);
    let mut x = fold(lanes[0], k128, lanes[1]);
    x = fold(x, k128, lanes[2]);
    x = fold(x, k128, lanes[3]);
    for block in rest.chunks_exact(16) {
        x = fold(x, k128, load(block));
    }

    // 128 -> 64 bits: the low half times R4, onto the high half.
    x = _mm_xor_si128(_mm_srli_si128(x, 8), _mm_clmulepi64_si128(k128, x, 0x01));
    // 64 -> 32 bits: the low 32 times R5, onto the rest.
    let low32 = _mm_set_epi32(0, 0, 0, -1);
    let k32 = _mm_set_epi64x(0, R5);
    x = _mm_xor_si128(
        _mm_srli_si128(x, 4),
        _mm_clmulepi64_si128(_mm_and_si128(x, low32), k32, 0x00),
    );
    // Barrett: q = (x mod x^32) * MU, then x + (q mod x^32) * P leaves the
    // remainder in bits 32..64.
    let barrett = _mm_set_epi64x(MU, POLY);
    let q = _mm_clmulepi64_si128(_mm_and_si128(x, low32), barrett, 0x10);
    let r = _mm_clmulepi64_si128(_mm_and_si128(q, low32), barrett, 0x00);
    let c = _mm_extract_epi32(_mm_xor_si128(x, r), 1) as u32;
    !table_update(c, tail)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The one-table reference loop both kernels must match.
    fn crc32_bytewise(data: &[u8]) -> u32 {
        let mut c = 0xFFFF_FFFFu32;
        for &b in data {
            c = TABLES[0][((c ^ b as u32) & 0xFF) as usize] ^ (c >> 8);
        }
        c ^ 0xFFFF_FFFF
    }

    /// Every length 0..=300 at every start offset 0..16, then 1 MiB:
    /// the fold's lane, block and tail counts all take every residue.
    fn assert_matches_bytewise(kernel: fn(&[u8]) -> u32) {
        let data: Vec<u8> = (0..316u32).map(|i| (i * 31 + 7) as u8).collect();
        for start in 0..16 {
            for len in 0..=300 {
                let s = &data[start..start + len];
                assert_eq!(kernel(s), crc32_bytewise(s), "start {start} len {len}");
            }
        }
        let mut x = 0x9E37_79B9_7F4A_7C15u64;
        let big: Vec<u8> = (0..1 << 20)
            .map(|_| {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                x as u8
            })
            .collect();
        assert_eq!(kernel(&big), crc32_bytewise(&big), "1 MiB");
    }

    #[test]
    fn known_vectors() {
        // The canonical check value for CRC-32/ISO-HDLC.
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
        assert_eq!(crc32(b"a"), 0xE8B7_BE43);
        // 64 bytes, the fold's shortest input where the host has it.
        assert_eq!(crc32(&[0u8; 64]), 0x758D_6336);
    }

    #[test]
    fn sliced_matches_bytewise_at_every_alignment() {
        assert_matches_bytewise(crc32_table);
    }

    #[test]
    fn fold_kernel_matches_bytewise() {
        #[cfg(target_arch = "x86_64")]
        if fold_available() {
            // SAFETY: `fold_available` confirmed the features it enables.
            assert_matches_bytewise(|d| unsafe { crc32_fold(d) });
            return;
        }
        eprintln!("skipped: this host has no pclmulqdq + sse4.1 fold kernel");
    }

    #[test]
    fn sensitive_to_single_bit_flips() {
        // 256 bytes: past FOLD_MIN_LEN, so the fold is held to it too.
        let mut bytes: Vec<u8> = (0..256u32).map(|i| (i * 131 + 17) as u8).collect();
        let base = crc32(&bytes);
        for i in 0..bytes.len() * 8 {
            bytes[i / 8] ^= 1 << (i % 8);
            assert_ne!(crc32(&bytes), base, "flip at bit {i} undetected");
            bytes[i / 8] ^= 1 << (i % 8);
        }
    }
}
