//! The thin syscall floor under the poller: `epoll_create1`,
//! `epoll_ctl`, `epoll_wait`, and `eventfd2`, invoked
//! directly (no libc wrappers) on the architectures this workspace
//! targets.
//!
//! On x86_64 and aarch64 the calls are inline-asm `syscall`/`svc 0`
//! instructions with the per-architecture numbers; errors come back as
//! `-errno` and are mapped to [`std::io::Error`]. aarch64 never had an
//! `epoll_wait` syscall, so both architectures go through
//! `epoll_pwait` with a null signal mask — identical semantics. Other
//! Linux architectures fall back to the libc symbols std already links
//! (same behavior, numbered by someone else); non-Linux targets fail to
//! compile with a clear message rather than pretending.

#![allow(clippy::missing_safety_doc)]

use std::io;

#[cfg(not(target_os = "linux"))]
compile_error!("the vendored `poll` crate is epoll-based and Linux-only");

// ---------------------------------------------------------------------------
// epoll ABI constants (stable kernel ABI, identical on every arch)
// ---------------------------------------------------------------------------

pub const EPOLLIN: u32 = 0x001;
pub const EPOLLOUT: u32 = 0x004;
pub const EPOLLERR: u32 = 0x008;
pub const EPOLLHUP: u32 = 0x010;
pub const EPOLLRDHUP: u32 = 0x2000;

pub const EPOLL_CTL_ADD: i32 = 1;
pub const EPOLL_CTL_DEL: i32 = 2;
pub const EPOLL_CTL_MOD: i32 = 3;

const EPOLL_CLOEXEC: i32 = 0o2000000;
const EFD_CLOEXEC: i32 = 0o2000000;
const EFD_NONBLOCK: i32 = 0o0004000;

/// One kernel `struct epoll_event`. Packed on x86_64 (the one ABI
/// where the kernel declares it so), naturally aligned elsewhere.
#[derive(Debug, Clone, Copy, Default)]
#[cfg_attr(target_arch = "x86_64", repr(C, packed))]
#[cfg_attr(not(target_arch = "x86_64"), repr(C))]
pub struct EpollEvent {
    pub events: u32,
    pub data: u64,
}

// ---------------------------------------------------------------------------
// Direct syscalls: x86_64
// ---------------------------------------------------------------------------

#[cfg(target_arch = "x86_64")]
mod imp {
    use std::io;

    mod nr {
        pub const EPOLL_CTL: i64 = 233;
        pub const EPOLL_PWAIT: i64 = 281;
        pub const EPOLL_CREATE1: i64 = 291;
        pub const EVENTFD2: i64 = 290;
    }

    /// Raw 6-argument syscall. Returns the kernel's value verbatim
    /// (negative = `-errno`).
    unsafe fn syscall6(n: i64, a: i64, b: i64, c: i64, d: i64, e: i64, f: i64) -> i64 {
        let ret: i64;
        core::arch::asm!(
            "syscall",
            inlateout("rax") n => ret,
            in("rdi") a,
            in("rsi") b,
            in("rdx") c,
            in("r10") d,
            in("r8") e,
            in("r9") f,
            lateout("rcx") _,
            lateout("r11") _,
            options(nostack),
        );
        ret
    }

    fn check(ret: i64) -> io::Result<i64> {
        if ret < 0 {
            Err(io::Error::from_raw_os_error(-ret as i32))
        } else {
            Ok(ret)
        }
    }

    pub fn epoll_create1(flags: i32) -> io::Result<i32> {
        check(unsafe { syscall6(nr::EPOLL_CREATE1, flags as i64, 0, 0, 0, 0, 0) }).map(|v| v as i32)
    }

    pub fn epoll_ctl(epfd: i32, op: i32, fd: i32, ev: *mut super::EpollEvent) -> io::Result<()> {
        check(unsafe {
            syscall6(
                nr::EPOLL_CTL,
                epfd as i64,
                op as i64,
                fd as i64,
                ev as i64,
                0,
                0,
            )
        })
        .map(|_| ())
    }

    pub fn epoll_wait(
        epfd: i32,
        events: *mut super::EpollEvent,
        max: i32,
        timeout_ms: i32,
    ) -> io::Result<usize> {
        // epoll_pwait with a null sigmask is epoll_wait; going through
        // the pwait entry point keeps x86_64 and aarch64 on the same
        // call shape (aarch64 has no epoll_wait syscall at all).
        check(unsafe {
            syscall6(
                nr::EPOLL_PWAIT,
                epfd as i64,
                events as i64,
                max as i64,
                timeout_ms as i64,
                0,
                8,
            )
        })
        .map(|v| v as usize)
    }

    pub fn eventfd2(initval: u32, flags: i32) -> io::Result<i32> {
        check(unsafe { syscall6(nr::EVENTFD2, initval as i64, flags as i64, 0, 0, 0, 0) })
            .map(|v| v as i32)
    }
}

// ---------------------------------------------------------------------------
// Direct syscalls: aarch64
// ---------------------------------------------------------------------------

#[cfg(target_arch = "aarch64")]
mod imp {
    use std::io;

    mod nr {
        pub const EPOLL_CTL: i64 = 21;
        pub const EPOLL_PWAIT: i64 = 22;
        pub const EPOLL_CREATE1: i64 = 20;
        pub const EVENTFD2: i64 = 19;
    }

    unsafe fn syscall6(n: i64, a: i64, b: i64, c: i64, d: i64, e: i64, f: i64) -> i64 {
        let ret: i64;
        core::arch::asm!(
            "svc 0",
            in("x8") n,
            inlateout("x0") a => ret,
            in("x1") b,
            in("x2") c,
            in("x3") d,
            in("x4") e,
            in("x5") f,
            options(nostack),
        );
        ret
    }

    fn check(ret: i64) -> io::Result<i64> {
        if ret < 0 {
            Err(io::Error::from_raw_os_error(-ret as i32))
        } else {
            Ok(ret)
        }
    }

    pub fn epoll_create1(flags: i32) -> io::Result<i32> {
        check(unsafe { syscall6(nr::EPOLL_CREATE1, flags as i64, 0, 0, 0, 0, 0) }).map(|v| v as i32)
    }

    pub fn epoll_ctl(epfd: i32, op: i32, fd: i32, ev: *mut super::EpollEvent) -> io::Result<()> {
        check(unsafe {
            syscall6(
                nr::EPOLL_CTL,
                epfd as i64,
                op as i64,
                fd as i64,
                ev as i64,
                0,
                0,
            )
        })
        .map(|_| ())
    }

    pub fn epoll_wait(
        epfd: i32,
        events: *mut super::EpollEvent,
        max: i32,
        timeout_ms: i32,
    ) -> io::Result<usize> {
        check(unsafe {
            syscall6(
                nr::EPOLL_PWAIT,
                epfd as i64,
                events as i64,
                max as i64,
                timeout_ms as i64,
                0,
                8,
            )
        })
        .map(|v| v as usize)
    }

    pub fn eventfd2(initval: u32, flags: i32) -> io::Result<i32> {
        check(unsafe { syscall6(nr::EVENTFD2, initval as i64, flags as i64, 0, 0, 0, 0) })
            .map(|v| v as i32)
    }
}

// ---------------------------------------------------------------------------
// Fallback: other Linux architectures, through the libc symbols std
// already links (same kernel interface, numbered by someone else).
// ---------------------------------------------------------------------------

#[cfg(all(
    target_os = "linux",
    not(any(target_arch = "x86_64", target_arch = "aarch64"))
))]
mod imp {
    use std::io;

    mod c {
        use std::os::raw::{c_int, c_uint};

        extern "C" {
            pub fn epoll_create1(flags: c_int) -> c_int;
            pub fn epoll_ctl(
                epfd: c_int,
                op: c_int,
                fd: c_int,
                event: *mut crate::sys::EpollEvent,
            ) -> c_int;
            pub fn epoll_wait(
                epfd: c_int,
                events: *mut crate::sys::EpollEvent,
                maxevents: c_int,
                timeout: c_int,
            ) -> c_int;
            pub fn eventfd(initval: c_uint, flags: c_int) -> c_int;
        }
    }

    fn check(ret: i32) -> io::Result<i32> {
        if ret < 0 {
            Err(io::Error::last_os_error())
        } else {
            Ok(ret)
        }
    }

    pub fn epoll_create1(flags: i32) -> io::Result<i32> {
        check(unsafe { c::epoll_create1(flags) })
    }

    pub fn epoll_ctl(epfd: i32, op: i32, fd: i32, ev: *mut super::EpollEvent) -> io::Result<()> {
        check(unsafe { c::epoll_ctl(epfd, op, fd, ev) }).map(|_| ())
    }

    pub fn epoll_wait(
        epfd: i32,
        events: *mut super::EpollEvent,
        max: i32,
        timeout_ms: i32,
    ) -> io::Result<usize> {
        check(unsafe { c::epoll_wait(epfd, events, max, timeout_ms) }).map(|v| v as usize)
    }

    pub fn eventfd2(initval: u32, flags: i32) -> io::Result<i32> {
        check(unsafe { c::eventfd(initval, flags) })
    }
}

// ---------------------------------------------------------------------------
// The surface lib.rs builds on
// ---------------------------------------------------------------------------

pub fn epoll_create() -> io::Result<i32> {
    imp::epoll_create1(EPOLL_CLOEXEC)
}

pub fn epoll_ctl(epfd: i32, op: i32, fd: i32, events: u32, data: u64) -> io::Result<()> {
    let mut ev = EpollEvent { events, data };
    let ptr = if op == EPOLL_CTL_DEL {
        std::ptr::null_mut()
    } else {
        &mut ev as *mut EpollEvent
    };
    imp::epoll_ctl(epfd, op, fd, ptr)
}

pub fn epoll_wait(epfd: i32, events: &mut [EpollEvent], timeout_ms: i32) -> io::Result<usize> {
    debug_assert!(!events.is_empty());
    imp::epoll_wait(epfd, events.as_mut_ptr(), events.len() as i32, timeout_ms)
}

pub fn eventfd() -> io::Result<i32> {
    imp::eventfd2(0, EFD_CLOEXEC | EFD_NONBLOCK)
}
