//! What the harness needs from the host: one-CPU pinning, a monotonic
//! nanosecond clock, the `/proc` counters that say whether a run can be
//! trusted, and a fixed integer kernel to detect a drifting machine.

use std::hint::black_box;
use std::sync::OnceLock;
use std::time::Instant;

/// `cpu_set_t` is 1024 bits on Linux.
const CPU_SET_WORDS: usize = 16;

#[cfg(target_os = "linux")]
mod c {
    /// `struct timespec` on 64-bit Linux.
    #[repr(C)]
    pub struct Timespec {
        pub sec: i64,
        pub nsec: i64,
    }
    pub const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;

    extern "C" {
        pub fn sched_getaffinity(pid: i32, cpusetsize: usize, mask: *mut u64) -> i32;
        pub fn sched_setaffinity(pid: i32, cpusetsize: usize, mask: *const u64) -> i32;
        pub fn clock_gettime(clock: i32, ts: *mut Timespec) -> i32;
    }
}

/// Pin the calling thread — call it from `main` before anything spawns,
/// so every engine/server thread inherits the mask — to the
/// highest-numbered CPU the process is allowed to run on. On the 2-vCPU
/// build box (README "CPU pinning") the two CPUs measure the same within
/// noise, but CPU 0 takes the VM's control-channel and balloon
/// interrupts while CPU 1 takes only the block device's, which during a
/// run are the benchmark's own fsyncs. Returns the CPU, or `None` when
/// the kernel refuses (the run then goes ahead unpinned and reports
/// `harness.pinned = 0`).
#[cfg(target_os = "linux")]
pub fn pin_to_one_cpu() -> Option<usize> {
    let mut allowed = [0u64; CPU_SET_WORDS];
    // SAFETY: `allowed` is a live, writable buffer of exactly the byte
    // length passed; pid 0 names the calling thread.
    let rc =
        unsafe { c::sched_getaffinity(0, std::mem::size_of_val(&allowed), allowed.as_mut_ptr()) };
    if rc != 0 {
        return None;
    }
    let cpu = (0..CPU_SET_WORDS * 64).rfind(|&i| allowed[i / 64] >> (i % 64) & 1 == 1)?;
    let mut one = [0u64; CPU_SET_WORDS];
    one[cpu / 64] = 1 << (cpu % 64);
    // SAFETY: `one` is a live buffer of exactly the byte length passed
    // and is only read by the call.
    let rc = unsafe { c::sched_setaffinity(0, std::mem::size_of_val(&one), one.as_ptr()) };
    (rc == 0).then_some(cpu)
}

#[cfg(not(target_os = "linux"))]
pub fn pin_to_one_cpu() -> Option<usize> {
    None
}

/// Nanoseconds since the first call; every span and latency in a run
/// shares this origin.
pub fn now_ns() -> u64 {
    static ORIGIN: OnceLock<Instant> = OnceLock::new();
    ORIGIN.get_or_init(Instant::now).elapsed().as_nanos() as u64
}

/// Nanoseconds of CPU every thread of this process has run for. On the
/// one pinned core, wall time minus this is what the process spent
/// blocked on the disk or off the core (`harness.off_cpu_share`). Where
/// the clock is missing it falls back to wall time.
#[cfg(all(target_os = "linux", target_pointer_width = "64"))]
pub fn process_cpu_ns() -> u64 {
    let mut ts = c::Timespec { sec: 0, nsec: 0 };
    // SAFETY: `ts` is a live, writable `timespec` of the layout the
    // 64-bit Linux ABI defines; the call writes it and nothing else.
    if unsafe { c::clock_gettime(c::CLOCK_PROCESS_CPUTIME_ID, &mut ts) } != 0 {
        return now_ns();
    }
    ts.sec as u64 * 1_000_000_000 + ts.nsec as u64
}

#[cfg(not(all(target_os = "linux", target_pointer_width = "64")))]
pub fn process_cpu_ns() -> u64 {
    now_ns()
}

/// The fixed integer kernel: the same xorshift walk every time, so its
/// wall time changes only when the *machine* does (frequency, steal, a
/// noisy neighbour). Timed before and after a run; the relative
/// difference is `harness.calib_drift`.
pub fn calibration_ns() -> u64 {
    let walk = |iters: u64| {
        let t0 = Instant::now();
        let mut x = 0x9E37_79B9_7F4A_7C15u64;
        for _ in 0..iters {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
        }
        black_box(x);
        t0.elapsed().as_nanos() as u64
    };
    // Best of many short walks: the kernel itself must not be the noisy
    // thing, and a ~4 ms walk often fits between two bursts.
    (0..16).map(|_| walk(2_000_000)).min().unwrap_or(0)
}

/// Cost of one `now_ns()` read, for the harness row of the budget.
pub fn clock_read_ns() -> f64 {
    const READS: u64 = 200_000;
    let t0 = now_ns();
    for _ in 0..READS {
        black_box(now_ns());
    }
    (now_ns() - t0) as f64 / READS as f64
}

/// The field of `/proc/self/stat` the harness reports.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SelfStat {
    pub num_threads: u64,
}

/// Parse `/proc/self/stat`. The command name (field 2) may contain
/// spaces and parentheses, so fields are counted from the *last* `)`.
pub fn parse_self_stat(text: &str) -> Option<SelfStat> {
    let rest = &text[text.rfind(')')? + 1..];
    // `rest` starts at field 3 (state).
    let f: Vec<&str> = rest.split_ascii_whitespace().collect();
    let field = |n: usize| f.get(n - 3)?.parse::<u64>().ok();
    Some(SelfStat {
        num_threads: field(20)?,
    })
}

/// One CPU's jiffies from `/proc/stat`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct CpuTimes {
    pub total: u64,
    pub steal: u64,
}

/// Parse the `cpu<N>` line of `/proc/stat` (`None` = the aggregate
/// `cpu` line). Columns: user nice system idle iowait irq softirq steal
/// guest guest_nice; guest time is already inside user/nice.
pub fn parse_proc_stat(text: &str, cpu: Option<usize>) -> Option<CpuTimes> {
    let label = match cpu {
        Some(n) => format!("cpu{n}"),
        None => "cpu".to_string(),
    };
    let line = text
        .lines()
        .find(|l| l.split_ascii_whitespace().next() == Some(label.as_str()))?;
    let cols: Vec<u64> = line
        .split_ascii_whitespace()
        .skip(1)
        .map(|c| c.parse().ok())
        .collect::<Option<_>>()?;
    if cols.len() < 8 {
        return None;
    }
    Some(CpuTimes {
        total: cols[..8].iter().sum(),
        steal: cols[7],
    })
}

/// The field of `/proc/self/io` the harness reports: bytes passed to
/// `write`-family syscalls (files *and* sockets), an exact count.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct SelfIo {
    pub wchar: u64,
}

pub fn parse_self_io(text: &str) -> Option<SelfIo> {
    let get = |name: &str| {
        text.lines()
            .find_map(|l| l.strip_prefix(name)?.strip_prefix(':')?.trim().parse().ok())
    };
    Some(SelfIo {
        wchar: get("wchar")?,
    })
}

fn read_proc(path: &str) -> Option<String> {
    std::fs::read_to_string(path).ok()
}

pub fn self_stat() -> Option<SelfStat> {
    parse_self_stat(&read_proc("/proc/self/stat")?)
}

pub fn cpu_times(cpu: Option<usize>) -> Option<CpuTimes> {
    parse_proc_stat(&read_proc("/proc/stat")?, cpu)
}

pub fn self_io() -> Option<SelfIo> {
    parse_self_io(&read_proc("/proc/self/io")?)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_stat_survives_a_hostile_command_name() {
        let text = "4242 (waves) bench) x) S 1 4242 4242 0 -1 4194304 1027 0 0 0 \
                    311 47 0 0 20 0 3 0 123456 10000000 900 18446744073709551615 \
                    1 1 0 0 0 0 0 0 0 0 0 0 17 1 0 0 0 0 0 0 0 0 0 0 0 0 0";
        assert_eq!(parse_self_stat(text), Some(SelfStat { num_threads: 3 }));
        assert_eq!(parse_self_stat("no parens here"), None);
        assert_eq!(parse_self_stat("1 (x) S 1 2"), None);
    }

    #[test]
    fn proc_stat_picks_the_right_cpu_line() {
        let text = "cpu  100 0 50 800 10 0 5 35 0 0\n\
                    cpu0 60 0 30 400 5 0 3 2 0 0\n\
                    cpu1 40 0 20 400 5 0 2 33 0 0\n\
                    cpu10 1 1 1 1 1 1 1 1 0 0\n\
                    intr 12345\n";
        assert_eq!(
            parse_proc_stat(text, None),
            Some(CpuTimes {
                total: 1000,
                steal: 35
            })
        );
        assert_eq!(
            parse_proc_stat(text, Some(1)),
            Some(CpuTimes {
                total: 500,
                steal: 33
            })
        );
        assert_eq!(parse_proc_stat(text, Some(10)).map(|c| c.total), Some(8));
        assert_eq!(parse_proc_stat(text, Some(2)), None);
        assert_eq!(parse_proc_stat("cpu0 1 2 3\n", Some(0)), None);
    }

    #[test]
    fn self_io_reads_the_char_counters() {
        let text = "rchar: 2012\nwchar: 8123\nsyscr: 7\nsyscw: 9\n\
                    read_bytes: 0\nwrite_bytes: 4096\ncancelled_write_bytes: 0\n";
        assert_eq!(parse_self_io(text), Some(SelfIo { wchar: 8123 }));
        assert_eq!(parse_self_io("rchar: 1\n"), None);
    }

    #[test]
    fn live_proc_files_parse_on_linux() {
        if cfg!(target_os = "linux") {
            assert!(self_stat().is_some());
            assert!(cpu_times(None).is_some());
            assert!(self_io().is_some());
        }
    }

    #[test]
    fn clocks_are_monotonic_and_cpu_time_skips_sleep() {
        let (wall0, cpu0) = (now_ns(), process_cpu_ns());
        std::thread::sleep(std::time::Duration::from_millis(30));
        let mut x = 1u64;
        while process_cpu_ns() - cpu0 < 2_000_000 {
            x = black_box(x.wrapping_mul(3));
        }
        let (wall, cpu) = (now_ns() - wall0, process_cpu_ns() - cpu0);
        assert!(wall >= 30_000_000);
        // Other tests run in this process too, so only the ordering of
        // magnitudes is safe to assert: asleep is not on-CPU.
        if cfg!(target_os = "linux") {
            assert!(cpu >= 2_000_000);
        }
    }
}
