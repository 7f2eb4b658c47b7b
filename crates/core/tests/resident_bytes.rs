//! `space_report().resident_bytes` against the allocator: the figure
//! every capacity plan and the benchmark's `synopsis_bytes_per_key` rest
//! on must count every heap byte a wave holds, and the push path must
//! never reach the allocator at all.
//!
//! This binary installs a counting `#[global_allocator]`. The counters
//! are per thread, so the tests here can run in parallel (and beside the
//! harness's own threads) without seeing each other.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use waves_core::{Bits, DetWave, NthRecentWave, SumWave, TimestampSumWave, TimestampWave};

struct Counting;

thread_local! {
    /// Bytes this thread has allocated and not freed.
    static LIVE: Cell<isize> = const { Cell::new(0) };
    /// Allocator calls this thread has made, of any kind.
    static CALLS: Cell<usize> = const { Cell::new(0) };
}

fn count(bytes: isize) {
    LIVE.with(|l| l.set(l.get() + bytes));
    CALLS.with(|c| c.set(c.get() + 1));
}

// SAFETY: every call is forwarded unchanged to `System`; the counters
// are plain thread-local cells with no destructor, so touching them
// neither allocates nor re-enters.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count(layout.size() as isize);
        // SAFETY: the caller's contract, passed through.
        unsafe { System.alloc(layout) }
    }
    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count(layout.size() as isize);
        // SAFETY: the caller's contract, passed through.
        unsafe { System.alloc_zeroed(layout) }
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        count(-(layout.size() as isize));
        // SAFETY: the caller's contract, passed through.
        unsafe { System.dealloc(ptr, layout) }
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count(new_size as isize - layout.size() as isize);
        // SAFETY: the caller's contract, passed through.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

/// `f`'s result, the heap bytes it left live, and its allocator calls.
fn measured<T>(f: impl FnOnce() -> T) -> (T, isize, usize) {
    let (live, calls) = (LIVE.with(Cell::get), CALLS.with(Cell::get));
    let out = f();
    (
        out,
        LIVE.with(Cell::get) - live,
        CALLS.with(Cell::get) - calls,
    )
}

/// A wave built by `$build` holds exactly the heap bytes its report
/// says, less its own `size_of`; with `$decode`, so does the wave decoded
/// from its encoding after `$fill` has run.
macro_rules! assert_report_is_the_allocator {
    ($ty:ty, $build:expr, $fill:expr $(, $decode:expr)?) => {{
        let (mut wave, heap, _) = measured(|| $build);
        let inline = std::mem::size_of::<$ty>();
        let report = wave.space_report().resident_bytes;
        assert_eq!(heap as usize + inline, report, "{} built", stringify!($ty));
        let (_, grown, calls) = measured(|| $fill(&mut wave));
        assert_eq!((grown, calls), (0, 0), "{} pushes", stringify!($ty));
        assert_eq!(wave.space_report().resident_bytes, report);
        $(
            let bytes = wave.encode();
            let (decoded, heap, _) = measured(|| $decode(&bytes).expect("own encoding"));
            assert_eq!(heap as usize + inline, report, "{} decoded", stringify!($ty));
            assert_eq!(decoded.space_report().resident_bytes, report);
        )?
    }};
}

/// `calls` steps from a fixed LCG.
fn drive(calls: u32, mut step: impl FnMut(u64)) {
    let mut x = 7u64;
    for _ in 0..calls {
        x = x
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        step(x >> 33);
    }
}

#[test]
fn space_report_counts_every_heap_byte_and_pushes_never_allocate() {
    // Narrow slots (N' <= 2^32) and wide ones (N = 2^40); 200 000
    // pushes at the size the benchmark serves, a tenth elsewhere.
    for (n, eps) in [(1u64, 0.5), (100, 0.25), (65_536, 0.05), (1 << 40, 0.05)] {
        let calls = if n == 65_536 { 200_000 } else { 20_000 };
        assert_report_is_the_allocator!(
            DetWave,
            DetWave::new(n, eps).unwrap(),
            |w: &mut DetWave| drive(calls, |x| w.push_bit(x % 2 == 0)),
            DetWave::decode
        );
        assert_report_is_the_allocator!(
            SumWave,
            SumWave::new(n, 1000, eps).unwrap(),
            |w: &mut SumWave| drive(calls, |x| w.push_value(x % 1001).unwrap()),
            SumWave::decode
        );
        assert_report_is_the_allocator!(
            NthRecentWave,
            NthRecentWave::new(n, eps).unwrap(),
            |w: &mut NthRecentWave| drive(calls, |x| w.push_bit(x % 3 == 0))
        );
        assert_report_is_the_allocator!(
            TimestampWave,
            TimestampWave::new(n, 4 * n, eps).unwrap(),
            |w: &mut TimestampWave| {
                let mut ts = 0;
                drive(calls, |x| {
                    ts += x % 3;
                    w.push(ts, x % 2 == 0).unwrap();
                })
            },
            TimestampWave::decode
        );
        assert_report_is_the_allocator!(
            TimestampSumWave,
            TimestampSumWave::new(n, 4 * n, 1000, eps).unwrap(),
            |w: &mut TimestampSumWave| {
                let mut ts = 0;
                drive(calls, |x| {
                    ts += x % 3;
                    w.push(ts, x % 1001).unwrap();
                })
            },
            TimestampSumWave::decode
        );
    }
}

#[test]
fn batch_pushes_and_skips_never_allocate() {
    let dense: Bits = (0..200u64).map(|i| i % 5 != 0).collect();
    let sparse: Bits = (0..200u64).map(|i| i % 67 == 0).collect();
    for n in [100u64, 65_536, 1 << 40] {
        let mut w = DetWave::new(n, 0.05).unwrap();
        let (_, grown, calls) = measured(|| {
            drive(200_000, |x| match x % 4 {
                0 => w.push_words(dense.as_ref()),
                1 => w.push_words(sparse.as_ref()),
                // Short skips, and ones past the window and past 2^32.
                2 => w.skip_zeros(x % 200),
                _ => w.skip_zeros(x % (3 * n).min(1 << 34)),
            })
        });
        assert_eq!((grown, calls), (0, 0), "N={n}");
        assert!(w.pos() > 200_000 && w.rank() > 200_000);
    }
}

/// OPERATIONS.md §3.2's table and formula, pinned where they are
/// computed: N = 65 536, eps = 0.05 is 153 slots of 8 bytes, 13 rings
/// of 8 and the 112-byte wave itself.
#[test]
fn the_served_wave_costs_what_the_capacity_table_says() {
    let table = [
        (4_096, 0.05, 1_056),
        (4_096, 0.1, 712),
        (16_384, 0.05, 1_248),
        (16_384, 0.1, 824),
        (65_536, 0.05, 1_440),
        (65_536, 0.1, 936),
    ];
    for (n, eps, bytes) in table {
        let w = DetWave::new(n, eps).unwrap();
        assert_eq!(w.space_report().resident_bytes, bytes, "N={n} eps={eps}");
    }
    assert_eq!(1_440, 153 * 8 + 13 * 8 + std::mem::size_of::<DetWave>());
}

/// What a push-mode ship costs the allocator: refreshing the shadow
/// (`clone_from`) nothing at all, the encoding its buffer and the two
/// side writers of the one-walk body, each sized before its first write.
#[test]
fn a_ship_copies_into_the_shadow_and_sizes_its_buffers_once() {
    for (n, eps) in [
        (100u64, 0.25),
        (65_536, 0.05),
        (65_536, 0.004),
        (1 << 40, 0.05),
    ] {
        let mut live = DetWave::new(n, eps).unwrap();
        let mut shadow = live.clone();
        for density in [2, 7, 200] {
            drive(50_000, |x| live.push_bit(x % density == 0));
            let (_, grown, calls) = measured(|| shadow.clone_from(&live));
            assert_eq!((grown, calls), (0, 0), "N={n} eps={eps}");
            let (bytes, _, calls) = measured(|| live.encode());
            // Three allocations and the side writers' two frees: no buffer grew.
            assert!(
                calls <= 5,
                "N={n} eps={eps}: {calls} calls, {} B",
                bytes.len()
            );
            assert_eq!(shadow.encode(), bytes);
        }
    }
}
