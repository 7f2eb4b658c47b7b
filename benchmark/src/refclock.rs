//! The reference clock: how fast is the box running *right now*?
//!
//! The benchmark's host is a small shared VM without a cycle counter,
//! and its effective speed wanders by ±10 % over seconds to minutes
//! (host frequency, a neighbour on the sibling hyperthread or the
//! last-level cache). Every timing of a serving path wanders with it,
//! and so does a fixed kernel that shares none of the repo's code: over
//! 200-second runs the two correlate at 0.7–0.9 in 6-second bins
//! (README, "Reference clock"). So the harness runs such a kernel
//! between blocks of rounds and reports every gated timing *on the
//! reference clock*: wall time divided by how much slower than nominal
//! the kernel ran around it.
//!
//! The kernel is a fixed mix of the three things on this box that do
//! wander and that the serving paths are made of, each scaled by its
//! nominal cost on the build box and then averaged: a pointer chase
//! that stays in L2, a pointer chase that leaves the last-level cache,
//! and a TCP loopback ping-pong between two threads (system calls, the
//! kernel's TCP path, context switches). A dependent ALU chain was
//! tried as a fourth part and left out: it moves by ±2 % while the
//! serving paths move by ±10 %, so it only dilutes the other three.
//! The kernel reads nothing of the repo's crates, so no change to them
//! can move it; a change to this file is a change to the benchmark.

use std::hint::black_box;
use std::io::{Read, Write};
use std::net::{Shutdown, TcpListener, TcpStream};
use std::thread::JoinHandle;

use crate::host::now_ns;
use crate::stats;

/// One kernel of the mix: how many steps a sample takes and what one
/// step costs on the build box (CPU 1 of the 2-vCPU VM, medians over
/// 200- to 300-second runs). The nominal costs only fix the scale — a
/// box twice as fast reads 0.5 throughout — and weigh the three
/// equally.
struct Kernel {
    steps: u32,
    nominal_ns_per_step: f64,
}

const CHASE_L2: Kernel = Kernel {
    steps: 500_000,
    nominal_ns_per_step: 5.4,
};
const CHASE_MEM: Kernel = Kernel {
    steps: 100_000,
    nominal_ns_per_step: 140.0,
};
const PING_PONG: Kernel = Kernel {
    steps: 500,
    nominal_ns_per_step: 5_200.0,
};

/// Bytes the two chases walk: inside a 1 MiB L2, beyond the VM's share
/// of the last-level cache.
const CHASE_L2_BYTES: usize = 256 << 10;
const CHASE_MEM_BYTES: usize = 8 << 20;
/// Bytes each way per ping-pong round trip: a small frame.
const PING_BYTES: usize = 64;

pub struct RefClock {
    l2: Vec<u32>,
    mem: Vec<u32>,
    /// Where each chase stopped, so the next sample walks on.
    at: [u32; 2],
    near: TcpStream,
    echo: Option<JoinHandle<()>>,
}

/// One random cycle through `bytes / 4` slots (Sattolo's shuffle with a
/// fixed xorshift stream): every load depends on the one before.
fn cycle(bytes: usize) -> Vec<u32> {
    let n = bytes / 4;
    let mut next: Vec<u32> = (0..n as u32).collect();
    let mut x = 0x2545_F491_4F6C_DD1Du64;
    for i in (1..n).rev() {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        next.swap(i, (x % i as u64) as usize);
    }
    next
}

fn chase(next: &[u32], at: &mut u32, steps: u32) {
    let mut p = *at;
    for _ in 0..steps {
        p = next[p as usize];
    }
    *at = black_box(p);
}

impl RefClock {
    /// Connects a loopback pair and spawns the echo thread of the
    /// ping-pong kernel; it inherits the caller's CPU mask and sleeps in
    /// `read` between samples.
    pub fn new() -> std::io::Result<RefClock> {
        let listener = TcpListener::bind("127.0.0.1:0")?;
        let near = TcpStream::connect(listener.local_addr()?)?;
        let (mut far, _) = listener.accept()?;
        near.set_nodelay(true)?;
        far.set_nodelay(true)?;
        let echo = std::thread::Builder::new()
            .name("bench-refclock-echo".into())
            .spawn(move || {
                let mut frame = [0u8; PING_BYTES];
                while far.read_exact(&mut frame).is_ok() && far.write_all(&frame).is_ok() {}
            })?;
        Ok(RefClock {
            l2: cycle(CHASE_L2_BYTES),
            mem: cycle(CHASE_MEM_BYTES),
            at: [0, 0],
            near,
            echo: Some(echo),
        })
    }

    /// Run the mix once (about 18 ms) and return how much slower than
    /// nominal the box ran it: 1.0 on the build box on an average
    /// minute, 1.1 when everything takes a tenth longer.
    pub fn sample(&mut self) -> f64 {
        let t0 = now_ns();
        chase(&self.l2, &mut self.at[0], CHASE_L2.steps);
        let t1 = now_ns();
        chase(&self.mem, &mut self.at[1], CHASE_MEM.steps);
        let t2 = now_ns();
        let mut frame = [1u8; PING_BYTES];
        for _ in 0..PING_PONG.steps {
            let ok =
                self.near.write_all(&frame).is_ok() && self.near.read_exact(&mut frame).is_ok();
            assert!(ok, "the echo thread lives as long as the clock");
        }
        let t3 = now_ns();
        let slower = |k: &Kernel, ns: u64| ns as f64 / (k.steps as f64 * k.nominal_ns_per_step);
        (slower(&CHASE_L2, t1 - t0) + slower(&CHASE_MEM, t2 - t1) + slower(&PING_PONG, t3 - t2))
            / 3.0
    }
}

impl Drop for RefClock {
    fn drop(&mut self) {
        // End of file ends the echo loop; wait for the thread.
        let _ = self.near.shutdown(Shutdown::Both);
        if let Some(echo) = self.echo.take() {
            let _ = echo.join();
        }
    }
}

/// Samples taken at block boundaries, turned into one slowdown per
/// block: a single 18 ms sample can catch a burst, so each is first
/// replaced by the median of itself and its two neighbours (the speed
/// wanders over seconds, samples are about half a second apart), and a block
/// gets the mean of the sample before it and the sample after it.
pub fn block_slowdowns(samples: &[f64]) -> Vec<f64> {
    let smooth: Vec<f64> = (0..samples.len())
        .map(|i| {
            let lo = i.saturating_sub(1);
            let hi = (i + 2).min(samples.len());
            stats::median(&samples[lo..hi])
        })
        .collect();
    smooth.windows(2).map(|w| (w[0] + w[1]) / 2.0).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_cycle_visits_every_slot_once() {
        let next = cycle(4096);
        let mut seen = vec![false; next.len()];
        let mut p = 0u32;
        for _ in 0..next.len() {
            assert!(!seen[p as usize]);
            seen[p as usize] = true;
            p = next[p as usize];
        }
        assert_eq!(p, 0);
    }

    #[test]
    fn a_sample_is_a_positive_ratio_and_the_thread_ends() {
        let mut clock = RefClock::new().expect("loopback pair");
        let s = clock.sample();
        // Any machine this runs on is within 50x of the build box.
        assert!(s.is_finite() && s > 0.02 && s < 50.0, "{s}");
        drop(clock); // joins the echo thread; a hang fails the test
    }

    #[test]
    fn blocks_get_smoothed_neighbour_means() {
        // One burst in the middle does not reach any block.
        let s = [1.0, 1.0, 5.0, 1.0, 1.0];
        assert_eq!(block_slowdowns(&s), vec![1.0, 1.0, 1.0, 1.0]);
        // A step change does.
        let s = [1.0, 1.0, 1.2, 1.2];
        let b = block_slowdowns(&s);
        assert_eq!(b.len(), 3);
        assert!((b[0] - 1.0).abs() < 1e-12 && (b[2] - 1.2).abs() < 1e-12);
        assert!(b[1] > 1.0 && b[1] < 1.2 + 1e-12);
        // Two samples bound one block.
        assert_eq!(block_slowdowns(&[1.0, 1.2]), vec![1.1]);
        assert!(block_slowdowns(&[1.0]).is_empty());
    }
}
