//! The thin syscall floor under the poller: `epoll_create1`,
//! `epoll_ctl`, `epoll_wait`, and `eventfd`, called through the libc
//! symbols std already links on every Linux target — one path, no
//! per-architecture syscall numbers. Errors come back as `-1` plus
//! `errno` and are mapped to [`std::io::Error`]; non-Linux targets fail
//! to compile with a clear message rather than pretending.

use std::io;
use std::os::raw::{c_int, c_uint};

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
/// where the kernel, and glibc after it, declares it so), naturally
/// aligned elsewhere.
#[derive(Debug, Clone, Copy, Default)]
#[cfg_attr(target_arch = "x86_64", repr(C, packed))]
#[cfg_attr(not(target_arch = "x86_64"), repr(C))]
pub struct EpollEvent {
    pub events: u32,
    pub data: u64,
}

mod c {
    use super::{c_int, c_uint, EpollEvent};

    extern "C" {
        pub fn epoll_create1(flags: c_int) -> c_int;
        pub fn epoll_ctl(epfd: c_int, op: c_int, fd: c_int, event: *mut EpollEvent) -> c_int;
        pub fn epoll_wait(
            epfd: c_int,
            events: *mut EpollEvent,
            maxevents: c_int,
            timeout: c_int,
        ) -> c_int;
        pub fn eventfd(initval: c_uint, flags: c_int) -> c_int;
    }
}

fn check(ret: c_int) -> io::Result<c_int> {
    if ret < 0 {
        Err(io::Error::last_os_error())
    } else {
        Ok(ret)
    }
}

// ---------------------------------------------------------------------------
// The surface lib.rs builds on
// ---------------------------------------------------------------------------

pub fn epoll_create() -> io::Result<i32> {
    // SAFETY: takes no pointers; the kernel validates the flags.
    check(unsafe { c::epoll_create1(EPOLL_CLOEXEC) })
}

pub fn epoll_ctl(epfd: i32, op: i32, fd: i32, events: u32, data: u64) -> io::Result<()> {
    let mut ev = EpollEvent { events, data };
    let ptr = if op == EPOLL_CTL_DEL {
        std::ptr::null_mut()
    } else {
        &mut ev as *mut EpollEvent
    };
    // SAFETY: `ptr` is null (DEL ignores it) or points at `ev`, which
    // outlives the call; the kernel copies it in before returning.
    check(unsafe { c::epoll_ctl(epfd, op, fd, ptr) }).map(|_| ())
}

pub fn epoll_wait(epfd: i32, events: &mut [EpollEvent], timeout_ms: i32) -> io::Result<usize> {
    debug_assert!(!events.is_empty());
    let (ptr, max) = (events.as_mut_ptr(), events.len() as c_int);
    // SAFETY: the kernel writes at most `max` entries into `events`,
    // which is exclusively borrowed for the call and `max` long.
    check(unsafe { c::epoll_wait(epfd, ptr, max, timeout_ms) }).map(|n| n as usize)
}

pub fn eventfd() -> io::Result<i32> {
    // SAFETY: takes no pointers; the kernel validates the flags.
    check(unsafe { c::eventfd(0, EFD_CLOEXEC | EFD_NONBLOCK) })
}
