//! Fault injection for the wire layer: a TCP proxy that forwards
//! client<->server traffic while misbehaving on demand.
//!
//! [`ChaosProxy`] binds an ephemeral port, forwards every accepted
//! connection to the upstream server, and applies one [`Fault`] to the
//! **server -> client** direction (requests pass through untouched, so
//! the server's view stays clean and the client is the one that must
//! cope). Integration tests point a [`crate::Client`] at the proxy and
//! assert that every fault surfaces as a typed [`waves_core::WaveError`]
//! — `Io` for closed/corrupt streams, `Timeout` for stalls — within the
//! client's configured budget, never a hang and never a panic.

use std::io::{Read, Write};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};
use std::thread::JoinHandle;
use std::time::Duration;

/// What the proxy does to server->client bytes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Fault {
    /// Forward everything unchanged (baseline / control).
    None,
    /// Accept the client's connection and close it immediately; nothing
    /// reaches the upstream. The client sees EOF / reset.
    DropConnection,
    /// Stall each server->client chunk by this long before forwarding.
    /// Longer than the client's read timeout => `WaveError::Timeout`.
    Delay(Duration),
    /// Forward only the first `n` server->client bytes, then close both
    /// sides — the client sees a frame cut off mid-flight.
    TruncateAfter(usize),
    /// XOR 0xFF into the server->client byte at this stream offset,
    /// corrupting a header or payload in place.
    CorruptByteAt(usize),
}

/// A running fault-injection proxy. Dropping it closes the listener and
/// every proxied connection and joins all pump threads.
pub struct ChaosProxy {
    local_addr: SocketAddr,
    shared: Arc<Shared>,
    accept: Option<JoinHandle<()>>,
}

/// What the proxy and its accept thread both hold.
#[derive(Default)]
struct Shared {
    stopping: AtomicBool,
    /// A clone of every proxied stream, so shutdown can unblock the pumps.
    streams: Mutex<Vec<TcpStream>>,
    pumps: Mutex<Vec<JoinHandle<()>>>,
    bytes_forwarded: AtomicU64,
}

impl ChaosProxy {
    /// Start proxying `127.0.0.1:<ephemeral>` -> `upstream` with the
    /// given fault.
    pub fn start(upstream: SocketAddr, fault: Fault) -> std::io::Result<ChaosProxy> {
        let listener = TcpListener::bind("127.0.0.1:0")?;
        let local_addr = listener.local_addr()?;
        let shared = Arc::new(Shared::default());
        let accept = {
            let shared = Arc::clone(&shared);
            std::thread::Builder::new()
                .name("waves-chaos-accept".into())
                .spawn(move || accept_loop(listener, upstream, fault, &shared))?
        };
        Ok(ChaosProxy {
            local_addr,
            shared,
            accept: Some(accept),
        })
    }

    /// The address clients should connect to instead of the upstream.
    pub fn local_addr(&self) -> SocketAddr {
        self.local_addr
    }

    /// Total server->client bytes actually forwarded (post-fault).
    pub fn bytes_forwarded(&self) -> u64 {
        self.shared.bytes_forwarded.load(Ordering::Relaxed)
    }

    /// Stop proxying: close the listener and force-close every proxied
    /// stream so pump threads unblock.
    pub fn shutdown(&self) {
        if self.shared.stopping.swap(true, Ordering::SeqCst) {
            return;
        }
        for s in lock(&self.shared.streams).iter() {
            let _ = s.shutdown(Shutdown::Both);
        }
        let _ = TcpStream::connect_timeout(&self.local_addr, Duration::from_secs(1));
    }
}

impl Drop for ChaosProxy {
    fn drop(&mut self) {
        self.shutdown();
        if let Some(h) = self.accept.take() {
            let _ = h.join();
        }
        let pumps = std::mem::take(&mut *lock(&self.shared.pumps));
        for h in pumps {
            let _ = h.join();
        }
    }
}

fn accept_loop(listener: TcpListener, upstream: SocketAddr, fault: Fault, shared: &Arc<Shared>) {
    for client in listener.incoming() {
        if shared.stopping.load(Ordering::SeqCst) {
            break;
        }
        let client = match client {
            Ok(s) => s,
            Err(_) => break,
        };
        if fault == Fault::DropConnection {
            // Close without even dialing upstream; the dropped stream
            // sends FIN/RST to the client.
            drop(client);
            continue;
        }
        let server = match TcpStream::connect_timeout(&upstream, Duration::from_secs(5)) {
            Ok(s) => s,
            Err(_) => {
                drop(client);
                continue;
            }
        };
        let _ = client.set_nodelay(true);
        let _ = server.set_nodelay(true);
        // Keep clones so shutdown can unblock both pumps.
        {
            let mut guard = lock(&shared.streams);
            if let Ok(c) = client.try_clone() {
                guard.push(c);
            }
            if let Ok(s) = server.try_clone() {
                guard.push(s);
            }
        }
        // client -> server: always a clean copy.
        let c2s = {
            let (mut from, mut to) = match (client.try_clone(), server.try_clone()) {
                (Ok(f), Ok(t)) => (f, t),
                _ => continue,
            };
            std::thread::Builder::new()
                .name("waves-chaos-c2s".into())
                .spawn(move || {
                    pump(&mut from, &mut to, Fault::None, &AtomicU64::new(0));
                })
        };
        // server -> client: the fault applies here.
        let s2c = {
            let (mut from, mut to) = (server, client);
            let shared = Arc::clone(shared);
            std::thread::Builder::new()
                .name("waves-chaos-s2c".into())
                .spawn(move || {
                    pump(&mut from, &mut to, fault, &shared.bytes_forwarded);
                })
        };
        let mut guard = lock(&shared.pumps);
        if let Ok(h) = c2s {
            guard.push(h);
        }
        if let Ok(h) = s2c {
            guard.push(h);
        }
    }
}

/// Each list only gains an element under its lock, so a poisoned lock
/// still guards a valid list.
fn lock<T>(list: &Mutex<Vec<T>>) -> MutexGuard<'_, Vec<T>> {
    list.lock().unwrap_or_else(PoisonError::into_inner)
}

/// Copy bytes `from -> to`, applying the fault. Exits when either side
/// closes or the fault decides to kill the connection.
fn pump(from: &mut TcpStream, to: &mut TcpStream, fault: Fault, forwarded: &AtomicU64) {
    let mut buf = [0u8; 4096];
    let mut offset = 0usize;
    loop {
        let n = match from.read(&mut buf) {
            Ok(0) | Err(_) => break,
            Ok(n) => n,
        };
        let mut chunk = buf[..n].to_vec();
        match fault {
            Fault::None | Fault::DropConnection => {}
            Fault::Delay(d) => std::thread::sleep(d),
            Fault::CorruptByteAt(pos) => {
                if pos >= offset && pos < offset + n {
                    chunk[pos - offset] ^= 0xFF;
                }
            }
            Fault::TruncateAfter(limit) => {
                if offset >= limit {
                    break;
                }
                chunk.truncate(limit - offset);
            }
        }
        // Counted before the write, so a client that has read these bytes
        // always finds them counted.
        forwarded.fetch_add(chunk.len() as u64, Ordering::Relaxed);
        if to.write_all(&chunk).is_err() {
            forwarded.fetch_sub(chunk.len() as u64, Ordering::Relaxed);
            break;
        }
        offset += n;
        if let Fault::TruncateAfter(limit) = fault {
            if offset >= limit {
                break;
            }
        }
    }
    // Propagate the close both ways so the peer's blocked reads end.
    let _ = from.shutdown(Shutdown::Both);
    let _ = to.shutdown(Shutdown::Both);
}
