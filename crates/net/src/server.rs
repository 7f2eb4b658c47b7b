//! The TCP server: a [`waves_engine::Engine`] plus a networked referee
//! behind the frame protocol.
//!
//! One event-loop thread owns every socket: a [`poll::Poller`]
//! (vendored epoll shim — the workspace is std-only) watches the
//! listener, a waker, and every live connection for readiness, and all
//! reads and writes happen non-blockingly on that thread. Connections
//! are state machines: bytes accumulate in a read buffer until
//! [`WireCodec::decode_tagged`] can peel a whole frame off the front
//! (wire v6 carries a correlation id, so many requests can be in
//! flight per connection), and responses queue in a per-connection
//! bounded write queue until the socket accepts them — possibly out of
//! request order.
//!
//! Frame *handling* runs on a small pool of dispatch workers, so a
//! slow engine operation never stalls the loop. The loop hands each
//! decoded frame to the pool over a channel; workers run
//! `dispatch`, encode the reply under the request's header tag, and
//! hand the bytes back over a completion channel, poking the loop's
//! waker. Backpressure is explicit at both ends: a connection with
//! [`ServerConfig::max_inflight`] requests outstanding has its read
//! interest dropped until replies drain, and one whose write queue
//! exceeds [`ServerConfig::max_write_queue`] bytes (a slow or stalled
//! reader) is evicted rather than buffered without bound.
//!
//! Shutdown ([`Server::shutdown`], a client [`Frame::Shutdown`], or
//! [`Drop`]) flips the stop flag and wakes the loop, which stops
//! reading, lets in-flight dispatches complete, and flushes write
//! queues under a bounded [`ServerConfig::drain_deadline`] before
//! closing every socket — so dropping a `Server` cannot leak threads,
//! file descriptors, or the bound port, and a replied shutdown frame
//! actually reaches its sender.

use std::collections::{HashMap, VecDeque};
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc::{Receiver, Sender};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use poll::{Events, Interest, Poller, Token, Waker};
use waves_core::{DetWave, WaveError};
use waves_distributed::combine_estimates;
use waves_engine::{Engine, EngineConfig};
use waves_obs::trace::{next_span_id, now_ns, Span, Stage, TraceCtx, TraceId, ROOT_SPAN_ID};
use waves_obs::{Event, HistId, MetricId, NoopRecorder, Recorder};

use crate::frame::{Frame, FrameError, FrameTag, PartySynopsis, SynopsisKind, WireCodec};

/// Server configuration: the embedded engine's config plus transport
/// knobs.
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Configuration for the hosted serving engine.
    pub engine: EngineConfig,
    /// Per-connection idle timeout. `None` (the default) keeps silent
    /// connections open indefinitely — safe because shutdown closes
    /// sockets rather than waiting on them. `Some(d)` disconnects a
    /// connection that neither sends a byte nor has a request in
    /// flight for `d`.
    pub read_timeout: Option<Duration>,
    /// Dispatch-duration threshold for the slow-request log. A request
    /// whose handler runs longer than this bumps
    /// `net_slow_requests_total` and emits a `net.slow_request` event
    /// naming the trace id (0 if the request was untraced). `None`
    /// disables the check.
    pub slow_request: Option<Duration>,
    /// Accepted-connection cap. Connections beyond this are accepted
    /// and immediately closed (the kernel backlog would otherwise hold
    /// them in limbo). Sized under the process fd limit by default.
    pub max_connections: usize,
    /// Pipelining depth: requests a single connection may have in
    /// flight (decoded but not yet replied). At the cap the loop stops
    /// reading from that connection until replies drain.
    pub max_inflight: usize,
    /// Write-queue byte cap per connection. A peer that stops reading
    /// while responses accumulate past this is evicted
    /// (`net_connections_evicted_total`) instead of buffered without
    /// bound.
    pub max_write_queue: usize,
    /// Dispatch worker threads. `0` (the default) sizes from available
    /// parallelism, capped at 4 — frame handling is cheap; the engine
    /// has its own shard workers.
    pub dispatch_threads: usize,
    /// Shutdown flush budget: how long the event loop keeps flushing
    /// queued responses (and letting in-flight dispatches finish)
    /// after stop is requested, before force-closing sockets.
    pub drain_deadline: Duration,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            engine: EngineConfig::default(),
            read_timeout: None,
            slow_request: Some(Duration::from_millis(500)),
            max_connections: 10_240,
            max_inflight: 128,
            max_write_queue: 8 << 20,
            dispatch_threads: 0,
            drain_deadline: Duration::from_secs(1),
        }
    }
}

/// A decoded request travelling loop -> worker.
struct Job {
    conn: usize,
    frame: Frame,
    tag: FrameTag,
}

/// An encoded reply travelling worker -> loop.
struct Done {
    conn: usize,
    bytes: Vec<u8>,
    /// The request was [`Frame::Shutdown`]: stop the server once this
    /// reply is flushed to its sender.
    shutdown_after: bool,
}

/// One party's slot in the networked referee.
struct RefereeEntry {
    /// Last installed synopsis (pull-mode push or monitoring delta).
    syn: PartySynopsis,
    /// Highest PUSH_DELTA sequence seen and the slack declared with
    /// it; `None` until the party pushes a delta. A delta whose
    /// sequence does not advance it is a no-op, so retried and late
    /// reordered pushes cannot roll the referee back.
    delta: Option<(u64, f64)>,
}

struct Shared<R: Recorder + Send + Sync + 'static> {
    engine: Engine<DetWave, R>,
    /// Party id -> its referee slot, queried by `Combine`.
    referee: Mutex<HashMap<u64, RefereeEntry>>,
    rec: Arc<R>,
    slow_request: Option<Duration>,
    stopping: AtomicBool,
    /// Wakes the event loop out of `Poller::wait` — for completions
    /// and for external shutdown.
    waker: Arc<Waker>,
}

/// A running server. Bind with [`Server::start`] (or
/// [`Server::start_recorded`] to wire `waves-obs` in), query
/// [`Server::local_addr`] for the actual port when binding port 0, and
/// either [`Server::wait`] for a client-driven [`Frame::Shutdown`] or
/// drop the handle to stop.
pub struct Server<R: Recorder + Send + Sync + 'static = NoopRecorder> {
    shared: Arc<Shared<R>>,
    local_addr: SocketAddr,
    event_loop: Option<JoinHandle<()>>,
    workers: Vec<JoinHandle<()>>,
}

impl Server<NoopRecorder> {
    /// Bind `addr` (e.g. `"127.0.0.1:0"` for an ephemeral port) and
    /// start serving with observability disabled.
    pub fn start<A: ToSocketAddrs>(addr: A, cfg: ServerConfig) -> Result<Self, WaveError> {
        Self::start_recorded(addr, cfg, Arc::new(NoopRecorder))
    }
}

impl<R: Recorder + Send + Sync + 'static> Server<R> {
    /// Bind `addr` and start serving, recording per-connection frame /
    /// byte / latency telemetry into `rec` (and threading it through to
    /// the hosted engine).
    pub fn start_recorded<A: ToSocketAddrs>(
        addr: A,
        cfg: ServerConfig,
        rec: Arc<R>,
    ) -> Result<Self, WaveError> {
        let listener = TcpListener::bind(addr).map_err(WaveError::io)?;
        listener.set_nonblocking(true).map_err(WaveError::io)?;
        let local_addr = listener.local_addr().map_err(WaveError::io)?;
        let (n, eps) = (cfg.engine.max_window, cfg.engine.eps);
        let engine = Engine::with_factory_recorded(
            cfg.engine.clone(),
            move || DetWave::new(n, eps),
            Arc::clone(&rec),
        )?;
        let poller = Poller::new().map_err(WaveError::io)?;
        let waker = Waker::new(&poller, WAKER).map_err(WaveError::io)?;
        let shared = Arc::new(Shared {
            engine,
            referee: Mutex::new(HashMap::new()),
            rec,
            slow_request: cfg.slow_request,
            stopping: AtomicBool::new(false),
            waker,
        });

        let (job_tx, job_rx) = std::sync::mpsc::channel::<Job>();
        let (done_tx, done_rx) = std::sync::mpsc::channel::<Done>();
        let job_rx = Arc::new(Mutex::new(job_rx));
        let threads = match cfg.dispatch_threads {
            0 => std::thread::available_parallelism()
                .map(|p| p.get())
                .unwrap_or(1)
                .min(4),
            n => n,
        };
        let mut workers = Vec::with_capacity(threads);
        for i in 0..threads {
            let shared = Arc::clone(&shared);
            let job_rx = Arc::clone(&job_rx);
            let done_tx = done_tx.clone();
            let h = std::thread::Builder::new()
                .name(format!("waves-net-dispatch-{i}"))
                .spawn(move || dispatch_worker(shared, job_rx, done_tx))
                .map_err(WaveError::io)?;
            workers.push(h);
        }
        drop(done_tx);

        let event_loop = {
            let shared = Arc::clone(&shared);
            let el = EventLoop {
                listener,
                poller,
                shared,
                job_tx,
                done_rx,
                conns: HashMap::new(),
                next_conn: 0,
                read_timeout: cfg.read_timeout,
                max_connections: cfg.max_connections,
                max_inflight: cfg.max_inflight.max(1),
                max_write_queue: cfg.max_write_queue.max(1),
                drain_deadline: cfg.drain_deadline,
            };
            std::thread::Builder::new()
                .name("waves-net-loop".into())
                .spawn(move || el.run())
                .map_err(WaveError::io)?
        };
        Ok(Server {
            shared,
            local_addr,
            event_loop: Some(event_loop),
            workers,
        })
    }

    /// The address actually bound (resolves port 0).
    pub fn local_addr(&self) -> SocketAddr {
        self.local_addr
    }

    /// Parties currently registered with the networked referee.
    pub fn referee_parties(&self) -> usize {
        self.shared.referee.lock().unwrap().len()
    }

    /// Highest PUSH_DELTA sequence number seen from `party` (continuous
    /// monitoring), or `None` if the party has never pushed a delta.
    pub fn monitor_seq_of(&self, party: u64) -> Option<u64> {
        let referee = self.shared.referee.lock().unwrap();
        referee.get(&party)?.delta.map(|(seq, _)| seq)
    }

    /// Sum of the slack budgets declared by parties that have pushed
    /// deltas: the staleness bound on `Combine` answers over them.
    pub fn monitor_slack_total(&self) -> f64 {
        let referee = self.shared.referee.lock().unwrap();
        referee.values().filter_map(|e| e.delta).map(|d| d.1).sum()
    }

    /// The hosted engine. Lets a harness drive engine-level operations
    /// that have no wire frame — durable checkpoints and crash
    /// simulation (`Engine::crash_on_drop`) in `waves-dst`.
    pub fn engine(&self) -> &Engine<DetWave, R> {
        &self.shared.engine
    }

    /// Begin stopping: refuse new connections, stop reading, drain
    /// write queues under the configured deadline. Idempotent; returns
    /// without joining (see [`Server::wait`] / `Drop`).
    pub fn shutdown(&self) {
        self.shared.stopping.store(true, Ordering::SeqCst);
        self.shared.waker.wake();
    }

    /// Block until the server stops (a client sent [`Frame::Shutdown`],
    /// or another thread called [`Server::shutdown`]), then join the
    /// event loop and every dispatch worker.
    pub fn wait(mut self) {
        self.join_all();
    }

    fn join_all(&mut self) {
        if let Some(h) = self.event_loop.take() {
            let _ = h.join();
        }
        for h in self.workers.drain(..) {
            let _ = h.join();
        }
    }
}

impl<R: Recorder + Send + Sync + 'static> Drop for Server<R> {
    fn drop(&mut self) {
        self.shutdown();
        self.join_all();
    }
}

/// Poll token for the listening socket.
const LISTENER: Token = Token(usize::MAX);
/// Poll token for the loop waker's eventfd.
const WAKER: Token = Token(usize::MAX - 1);
/// Read chunk size; also the initial write burst granularity.
const READ_CHUNK: usize = 64 << 10;

/// One connection's state machine. All I/O on it is non-blocking and
/// happens on the event-loop thread; dispatch workers only ever see
/// decoded frames and produce encoded replies.
struct Conn {
    sock: TcpStream,
    /// Unparsed inbound bytes: a partial frame's prefix, or complete
    /// frames beyond the in-flight cap waiting for replies to drain.
    rbuf: Vec<u8>,
    /// Outbound frames not yet accepted by the socket, front first.
    wq: VecDeque<Vec<u8>>,
    /// Bytes across `wq` (minus `woff`), checked against the cap.
    wq_bytes: usize,
    /// Bytes of `wq.front()` already written.
    woff: usize,
    /// Requests decoded but not yet replied.
    inflight: usize,
    /// Read interest dropped: at the in-flight cap, after a framing
    /// violation, or while stopping.
    paused: bool,
    /// Peer closed its write half (clean EOF); no more requests, but
    /// queued replies still flush.
    read_closed: bool,
    /// Close once the write queue drains and nothing is in flight.
    closing: bool,
    /// This connection replied to [`Frame::Shutdown`]: once its write
    /// queue drains, stop the whole server.
    shutdown_after: bool,
    /// Last byte read or reply enqueued, for the idle timeout.
    last_activity: Instant,
    interest: Interest,
}

struct EventLoop<R: Recorder + Send + Sync + 'static> {
    listener: TcpListener,
    poller: Poller,
    shared: Arc<Shared<R>>,
    job_tx: Sender<Job>,
    done_rx: Receiver<Done>,
    conns: HashMap<usize, Conn>,
    next_conn: usize,
    read_timeout: Option<Duration>,
    max_connections: usize,
    max_inflight: usize,
    max_write_queue: usize,
    drain_deadline: Duration,
}

impl<R: Recorder + Send + Sync + 'static> EventLoop<R> {
    fn run(mut self) {
        let rec = Arc::clone(&self.shared.rec);
        if self
            .poller
            .register(&self.listener, LISTENER, Interest::READ)
            .is_err()
        {
            return;
        }
        let mut events = Events::with_capacity(1024);
        // Serving phase: until stop is requested.
        while !self.shared.stopping.load(Ordering::SeqCst) {
            // With an idle timeout configured the loop must wake on its
            // own to sweep silent connections; otherwise readiness (or
            // the waker) is the only schedule.
            let timeout = self.read_timeout.map(|d| d.min(Duration::from_millis(100)));
            let n = match self.poller.wait(&mut events, timeout) {
                Ok(n) => n,
                Err(_) => break,
            };
            if rec.enabled() {
                rec.incr(MetricId::PollWakeups, 1);
                rec.observe(HistId::PollEventsPerWake, n as u64);
            }
            // Re-check before touching sockets: a stop requested while
            // we slept must not race a request that arrived in the same
            // readiness batch into dispatch. Level triggering re-reports
            // anything unconsumed, so the batch isn't lost.
            if self.shared.stopping.load(Ordering::SeqCst) {
                break;
            }
            for ev in events.iter() {
                match ev.token {
                    LISTENER => self.accept_ready(),
                    WAKER => self.shared.waker.ack(),
                    Token(id) => self.conn_ready(id, ev.readable, ev.writable || ev.error),
                }
            }
            self.drain_completions();
            self.sweep_idle();
        }
        self.drain_and_close();
    }

    /// Accept until the listener would block. Beyond the connection
    /// cap, accept-and-close: leaving sockets in the backlog would
    /// stall clients invisibly rather than failing them fast.
    fn accept_ready(&mut self) {
        loop {
            let (sock, _) = match self.listener.accept() {
                Ok(ok) => ok,
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => return,
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
                Err(_) => return,
            };
            if self.conns.len() >= self.max_connections {
                drop(sock);
                continue;
            }
            if sock.set_nonblocking(true).is_err() {
                continue;
            }
            let _ = sock.set_nodelay(true);
            let id = self.next_conn;
            // Skip the reserved control tokens on wraparound.
            self.next_conn = self.next_conn.wrapping_add(1);
            if self.next_conn >= usize::MAX - 1 {
                self.next_conn = 0;
            }
            if self
                .poller
                .register(&sock, Token(id), Interest::READ)
                .is_err()
            {
                continue;
            }
            self.shared.rec.incr(MetricId::NetConnectionsAccepted, 1);
            self.conns.insert(
                id,
                Conn {
                    sock,
                    rbuf: Vec::new(),
                    wq: VecDeque::new(),
                    wq_bytes: 0,
                    woff: 0,
                    inflight: 0,
                    paused: false,
                    read_closed: false,
                    closing: false,
                    shutdown_after: false,
                    last_activity: Instant::now(),
                    interest: Interest::READ,
                },
            );
        }
    }

    fn conn_ready(&mut self, id: usize, readable: bool, writable: bool) {
        if readable && self.read_ready(id) {
            return; // connection closed
        }
        if writable {
            self.write_ready(id);
        }
    }

    /// Pull bytes and parse frames. Returns true if the connection was
    /// closed.
    fn read_ready(&mut self, id: usize) -> bool {
        let mut failed = false;
        {
            let Some(conn) = self.conns.get_mut(&id) else {
                return true;
            };
            if conn.paused || conn.read_closed || conn.closing {
                return false;
            }
            let mut chunk = [0u8; READ_CHUNK];
            loop {
                match conn.sock.read(&mut chunk) {
                    Ok(0) => {
                        conn.read_closed = true;
                        break;
                    }
                    Ok(n) => {
                        conn.rbuf.extend_from_slice(&chunk[..n]);
                        conn.last_activity = Instant::now();
                        if n < chunk.len() {
                            break;
                        }
                    }
                    Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => break,
                    Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
                    Err(_) => {
                        failed = true;
                        break;
                    }
                }
            }
        }
        if failed {
            self.close(id);
            return true;
        }
        self.parse_frames(id);
        self.finish_if_drained(id)
    }

    /// Peel complete frames off the connection's read buffer and hand
    /// them to the dispatch pool, stopping at the in-flight cap (the
    /// remainder stays buffered; [`EventLoop::drain_completions`]
    /// re-parses when replies free slots).
    fn parse_frames(&mut self, id: usize) {
        let mut error_reply = None;
        {
            let max_inflight = self.max_inflight;
            let poller = &self.poller;
            let job_tx = &self.job_tx;
            let rec = &self.shared.rec;
            let Some(conn) = self.conns.get_mut(&id) else {
                return;
            };
            let mut consumed = 0;
            while !conn.closing {
                if conn.inflight >= max_inflight {
                    if !conn.paused {
                        conn.paused = true;
                        set_interest(poller, conn, Token(id), false);
                    }
                    break;
                }
                match WireCodec::decode_tagged(&conn.rbuf[consumed..]) {
                    Ok((frame, used, tag)) => {
                        consumed += used;
                        conn.inflight += 1;
                        if rec.enabled() {
                            rec.incr(MetricId::NetFramesReceived, 1);
                            rec.incr(MetricId::NetBytesReceived, used as u64);
                            rec.observe(HistId::NetFrameBytes, used as u64);
                            rec.observe(HistId::NetInflightPerConn, conn.inflight as u64);
                        }
                        let _ = job_tx.send(Job {
                            conn: id,
                            frame,
                            tag,
                        });
                    }
                    Err(FrameError::Truncated) => break,
                    Err(e) => {
                        // Framing violation: a best-effort error reply,
                        // then close once it (and any in-flight
                        // replies) flush. The rest of the buffer is
                        // garbage.
                        rec.incr(MetricId::NetRequestErrors, 1);
                        let reply = Frame::ErrorResp(WaveError::io(std::io::Error::new(
                            std::io::ErrorKind::InvalidData,
                            format!("bad frame: {e}"),
                        )));
                        error_reply = Some(WireCodec::encode_tagged(&reply, FrameTag::default()));
                        conn.rbuf.clear();
                        consumed = 0;
                        conn.closing = true;
                        if !conn.paused {
                            conn.paused = true;
                            set_interest(poller, conn, Token(id), false);
                        }
                        break;
                    }
                }
            }
            if consumed > 0 {
                conn.rbuf.drain(..consumed);
            }
        }
        if let Some(bytes) = error_reply {
            self.enqueue_reply(id, bytes);
        }
    }

    /// Queue an encoded reply on a connection, evicting the peer if
    /// its write queue is past the cap, then push bytes opportunistically.
    fn enqueue_reply(&mut self, id: usize, bytes: Vec<u8>) {
        let evict = {
            let rec = &self.shared.rec;
            let Some(conn) = self.conns.get_mut(&id) else {
                return;
            };
            if conn.wq_bytes + bytes.len() > self.max_write_queue {
                rec.incr(MetricId::NetConnectionsEvicted, 1);
                rec.event(Event {
                    name: "net.conn_evicted",
                    fields: &[("queued_bytes", conn.wq_bytes as u64)],
                });
                true
            } else {
                conn.wq_bytes += bytes.len();
                conn.last_activity = Instant::now();
                if rec.enabled() {
                    rec.observe(HistId::NetWriteQueueBytes, conn.wq_bytes as u64);
                }
                conn.wq.push_back(bytes);
                false
            }
        };
        if evict {
            self.close(id);
        } else {
            self.write_ready(id);
        }
    }

    /// Flush the write queue as far as the socket allows, keep write
    /// interest only while bytes remain, and finish close/shutdown
    /// transitions once drained.
    fn write_ready(&mut self, id: usize) {
        let mut failed = false;
        {
            let rec = &self.shared.rec;
            let poller = &self.poller;
            let Some(conn) = self.conns.get_mut(&id) else {
                return;
            };
            while let Some(front) = conn.wq.front() {
                match conn.sock.write(&front[conn.woff..]) {
                    Ok(n) => {
                        conn.woff += n;
                        conn.wq_bytes -= n;
                        if rec.enabled() {
                            rec.incr(MetricId::NetBytesSent, n as u64);
                        }
                        if conn.woff == front.len() {
                            conn.wq.pop_front();
                            conn.woff = 0;
                            rec.incr(MetricId::NetFramesSent, 1);
                        }
                    }
                    Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => break,
                    Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
                    Err(_) => {
                        failed = true;
                        break;
                    }
                }
            }
            if !failed {
                set_interest(poller, conn, Token(id), !conn.paused && !conn.read_closed);
            }
        }
        if failed {
            self.close(id);
            return;
        }
        self.finish_if_drained(id);
    }

    /// Apply end-of-life transitions for a connection whose queues may
    /// have just emptied. Returns true if it was closed.
    fn finish_if_drained(&mut self, id: usize) -> bool {
        let should_close = {
            let Some(conn) = self.conns.get_mut(&id) else {
                return true;
            };
            if !conn.wq.is_empty() || conn.inflight > 0 {
                return false;
            }
            if conn.shutdown_after {
                // The shutdown reply reached the kernel; now stop the
                // server. The drain phase closes this connection.
                self.shared.stopping.store(true, Ordering::SeqCst);
                conn.shutdown_after = false;
                conn.closing = true;
                return false;
            }
            // With the peer's write half closed, leftover buffered
            // bytes can never complete into a frame.
            conn.closing || conn.read_closed
        };
        if should_close {
            self.close(id);
            return true;
        }
        false
    }

    /// Absorb finished dispatches: enqueue replies, release in-flight
    /// slots, resume reading on connections that were at the cap.
    fn drain_completions(&mut self) {
        while let Ok(done) = self.done_rx.try_recv() {
            let id = done.conn;
            {
                let Some(conn) = self.conns.get_mut(&id) else {
                    continue; // connection already gone; drop the reply
                };
                conn.inflight -= 1;
                if done.shutdown_after {
                    conn.shutdown_after = true;
                }
            }
            self.enqueue_reply(id, done.bytes);
            let resumed = {
                let poller = &self.poller;
                let Some(conn) = self.conns.get_mut(&id) else {
                    continue; // evicted by the enqueue
                };
                if conn.paused && !conn.closing && conn.inflight < self.max_inflight {
                    conn.paused = false;
                    if !conn.read_closed {
                        set_interest(poller, conn, Token(id), true);
                    }
                    true
                } else {
                    false
                }
            };
            if resumed {
                // Frames may be sitting whole in the read buffer from
                // before the pause; the socket won't re-signal for them.
                self.parse_frames(id);
                self.finish_if_drained(id);
            }
        }
    }

    /// Disconnect connections that have been silent past the idle
    /// timeout with nothing in flight.
    fn sweep_idle(&mut self) {
        let Some(limit) = self.read_timeout else {
            return;
        };
        let now = Instant::now();
        let idle: Vec<usize> = self
            .conns
            .iter()
            .filter(|(_, c)| {
                c.inflight == 0 && c.wq.is_empty() && now.duration_since(c.last_activity) > limit
            })
            .map(|(id, _)| *id)
            .collect();
        for id in idle {
            self.close(id);
        }
    }

    fn close(&mut self, id: usize) {
        if let Some(conn) = self.conns.remove(&id) {
            let _ = self.poller.deregister(&conn.sock);
        }
    }

    /// The stop sequence: refuse new work, let in-flight dispatches
    /// finish, flush write queues under the drain deadline, then close
    /// everything. Dropping `job_tx` (when `self` drops) ends the
    /// dispatch workers.
    fn drain_and_close(&mut self) {
        let _ = self.poller.deregister(&self.listener);
        let ids: Vec<usize> = self.conns.keys().copied().collect();
        for id in ids {
            if let Some(conn) = self.conns.get_mut(&id) {
                if !conn.paused {
                    conn.paused = true;
                    set_interest(&self.poller, conn, Token(id), false);
                }
                conn.closing = true;
            }
            self.finish_if_drained(id);
        }
        let deadline = Instant::now() + self.drain_deadline;
        let mut events = Events::with_capacity(256);
        while !self.conns.is_empty() {
            let now = Instant::now();
            if now >= deadline {
                break; // force-close whatever is still queued
            }
            let timeout = (deadline - now).min(Duration::from_millis(20));
            if self.poller.wait(&mut events, Some(timeout)).is_err() {
                break;
            }
            for ev in events.iter() {
                match ev.token {
                    LISTENER => {}
                    WAKER => self.shared.waker.ack(),
                    Token(id) => {
                        if ev.writable || ev.error {
                            self.write_ready(id);
                        }
                    }
                }
            }
            self.drain_completions();
        }
        let ids: Vec<usize> = self.conns.keys().copied().collect();
        for id in ids {
            self.close(id);
        }
    }
}

/// Reconcile a connection's epoll interest with its queue state:
/// writable while the queue holds bytes, readable per `want_read`.
fn set_interest(poller: &Poller, conn: &mut Conn, token: Token, want_read: bool) {
    let want = Interest {
        readable: want_read,
        writable: !conn.wq.is_empty(),
    };
    if want != conn.interest {
        conn.interest = want;
        let _ = poller.reregister(&conn.sock, token, want);
    }
}

/// A dispatch worker: decoded request in, encoded reply out. All the
/// per-request telemetry the threaded server kept inline lives here —
/// dispatch spans, slow-request accounting, server-side frame latency.
fn dispatch_worker<R: Recorder + Send + Sync + 'static>(
    shared: Arc<Shared<R>>,
    jobs: Arc<Mutex<Receiver<Job>>>,
    done: Sender<Done>,
) {
    loop {
        let job = match jobs.lock().unwrap().recv() {
            Ok(j) => j,
            Err(_) => return, // loop exited; no more work
        };
        let rec = &shared.rec;
        let enabled = rec.enabled();
        let started = enabled.then(Instant::now);
        let shutdown_after = matches!(job.frame, Frame::Shutdown);
        let trace = job.tag.trace;
        // A nonzero header trace id opts this request into tracing: the
        // dispatch span parents to the client's root span (by the
        // ROOT_SPAN_ID convention — only the trace id crossed the wire)
        // and the engine layers below parent to the dispatch span.
        let dispatch_span = (trace != 0 && rec.trace_enabled()).then(|| (next_span_id(), now_ns()));
        let ctx = match dispatch_span {
            Some((id, _)) => TraceCtx {
                trace: TraceId(trace),
                parent: ROOT_SPAN_ID,
            }
            .child(id),
            None => TraceCtx::NONE,
        };
        let reply = dispatch(job.frame, &shared, ctx);
        if let Some((id, t0)) = dispatch_span {
            rec.span(Span {
                trace: TraceId(trace),
                id,
                parent: ROOT_SPAN_ID,
                stage: Stage::Dispatch,
                start_ns: t0,
                dur_ns: now_ns().saturating_sub(t0),
            });
        }
        if let Some(t0) = started {
            let elapsed = t0.elapsed();
            rec.observe(HistId::NetServerFrameNs, elapsed.as_nanos() as u64);
            if shared.slow_request.is_some_and(|limit| elapsed > limit) {
                rec.incr(MetricId::NetSlowRequests, 1);
                rec.event(Event {
                    name: "net.slow_request",
                    fields: &[("trace", trace), ("dur_ns", elapsed.as_nanos() as u64)],
                });
            }
        }
        if matches!(reply, Frame::ErrorResp(_)) {
            rec.incr(MetricId::NetRequestErrors, 1);
        }
        let bytes = WireCodec::encode_tagged(&reply, job.tag);
        if done
            .send(Done {
                conn: job.conn,
                bytes,
                shutdown_after,
            })
            .is_err()
        {
            return;
        }
        shared.waker.wake();
    }
}

fn dispatch<R: Recorder + Send + Sync + 'static>(
    frame: Frame,
    shared: &Shared<R>,
    ctx: TraceCtx,
) -> Frame {
    match frame {
        Frame::Ping => Frame::Pong,
        Frame::Shutdown => Frame::Ok,
        Frame::Flush => {
            shared.engine.flush();
            Frame::Ok
        }
        Frame::Snapshot => Frame::SnapshotResp(shared.engine.snapshot()),
        Frame::Stats => match shared.rec.metrics_snapshot() {
            Some(snap) => Frame::StatsResp(snap.to_json()),
            // NoopRecorder (and SpanRecorder-only) servers have no
            // registry to report; tell the client why instead of
            // returning an empty snapshot it would mistake for zeros.
            None => Frame::ErrorResp(WaveError::io(std::io::Error::other(
                "server was started without a metrics registry",
            ))),
        },
        Frame::Ingest(batch) => {
            match shared
                .engine
                .ingest(waves_engine::IngestRequest::batch(batch).traced(ctx))
            {
                Ok(()) => Frame::Ok,
                Err(e) => Frame::ErrorResp(e),
            }
        }
        Frame::Query { key, window } => match shared.engine.query_traced(key, window, ctx) {
            Ok(est) => Frame::EstimateResp(est),
            Err(e) => Frame::ErrorResp(e),
        },
        Frame::PushSynopsis { party, kind, bytes } => match PartySynopsis::decode(kind, &bytes) {
            Ok(syn) => {
                // A pull-mode push replaces the synopsis but keeps the
                // party's delta high-water mark, so a replayed older
                // PUSH_DELTA still cannot overwrite it.
                let mut referee = shared.referee.lock().unwrap();
                let delta = referee.get(&party).and_then(|e| e.delta);
                referee.insert(party, RefereeEntry { syn, delta });
                Frame::Ok
            }
            Err(e) => Frame::ErrorResp(WaveError::io(std::io::Error::new(
                std::io::ErrorKind::InvalidData,
                format!("synopsis decode failed: {e}"),
            ))),
        },
        Frame::Replicate { key, kind, bytes } => {
            // This server hosts a DetWave engine; a primary shipping any
            // other synopsis kind is misconfigured, and installing its
            // bytes would corrupt the key silently.
            if kind != SynopsisKind::DetWave {
                Frame::ErrorResp(WaveError::io(std::io::Error::new(
                    std::io::ErrorKind::InvalidData,
                    format!("replicate kind {kind:?} not hosted by this server"),
                )))
            } else {
                match shared.engine.install_synopsis(key, bytes) {
                    Ok(()) => Frame::Ok,
                    Err(e) => Frame::ErrorResp(e),
                }
            }
        }
        Frame::PushDelta {
            party,
            seq,
            slack,
            kind,
            bytes,
        } => {
            // Deduplicate by sequence *before* decoding: a stale or
            // replayed delta is answered Ok without touching state,
            // which is what makes PUSH_DELTA retry-safe (idempotent)
            // and late reordering harmless. The lock is held from the
            // check through the install, so a racing duplicate on
            // another dispatch worker sees the new sequence.
            let mut referee = shared.referee.lock().unwrap();
            let last = referee.get(&party).and_then(|e| e.delta);
            if last.is_some_and(|(last, _)| last >= seq) {
                shared.rec.incr(MetricId::MonitorStaleDeltas, 1);
                return Frame::Ok;
            }
            match PartySynopsis::decode(kind, &bytes) {
                Ok(syn) => {
                    let delta = Some((seq, slack));
                    referee.insert(party, RefereeEntry { syn, delta });
                    shared.rec.incr(MetricId::MonitorPushes, 1);
                    shared
                        .rec
                        .incr(MetricId::MonitorPushBytes, bytes.len() as u64);
                    Frame::Ok
                }
                Err(e) => Frame::ErrorResp(WaveError::io(std::io::Error::new(
                    std::io::ErrorKind::InvalidData,
                    format!("push delta decode failed: {e}"),
                ))),
            }
        }
        Frame::Combine { window } => {
            let referee = shared.referee.lock().unwrap();
            let mut reports = Vec::with_capacity(referee.len());
            for entry in referee.values() {
                match entry.syn.query(window) {
                    Ok(est) => reports.push(est),
                    Err(e) => return Frame::ErrorResp(e),
                }
            }
            // The same additive combine rule the in-process scenario
            // drivers use (waves-distributed). It saturates rather
            // than wraps: a total past u64 is refused, not answered.
            let total = combine_estimates(reports);
            if total.hi == u64::MAX {
                return Frame::ErrorResp(WaveError::TooManyItemsInWindow { bound: u64::MAX });
            }
            Frame::EstimateResp(total)
        }
        // A response frame arriving as a request is a protocol error.
        Frame::Ok
        | Frame::Pong
        | Frame::EstimateResp(_)
        | Frame::SnapshotResp(_)
        | Frame::StatsResp(_)
        | Frame::ErrorResp(_) => Frame::ErrorResp(WaveError::io(std::io::Error::new(
            std::io::ErrorKind::InvalidData,
            "response frame sent as request",
        ))),
    }
}
