//! The TCP server: a [`waves_engine::Engine`] plus the referee
//! ([`MonitorReferee`]) behind the frame protocol.
//!
//! One event-loop thread owns every socket: a [`poll::Poller`]
//! (vendored epoll shim — the workspace is std-only) watches the
//! listener, a waker, and every live connection for readiness, and all
//! reads and writes happen non-blockingly on that thread. Connections
//! are state machines: bytes accumulate in a read buffer until
//! [`WireCodec::decode_tagged`] can peel a whole frame off the front
//! (the header carries a correlation id, so many requests can be in
//! flight per connection), and encoded replies accumulate back to back
//! in a bounded per-connection out-buffer until the socket accepts
//! them — possibly out of request order.
//!
//! Every request starts on the loop thread, in arrival order, in the
//! pass that decodes it, and the loop never waits on a shard. PING,
//! PUSH_SYNOPSIS, PUSH_DELTA, COMBINE, STATS and SHUTDOWN are answered
//! there and then. QUERY, FLUSH, SNAPSHOT, REPLICATE and FETCH need a
//! shard: the loop hands each to [`Engine::submit`] with a completion and
//! moves on, and the shard that answers pushes the reply frame onto the
//! loop's completion channel, poking the loop's waker once per drain,
//! not once per reply — one hop to the shard and one back. Every reply,
//! answered, gathered or completed, is encoded on the loop through the
//! same `Conn::answer`, so a request's telemetry and the write-queue
//! check do not depend on where it ran. The server runs no thread but
//! the loop and the engine's shard workers.
//!
//! INGEST is gathered rather than served one by one: the INGEST frames
//! one pass over a connection's read buffer decodes are grouped into
//! one sub-batch per shard, and each sub-batch goes to the engine once,
//! through the non-blocking [`Engine::ingest`] — a shard worker sees
//! one batch per pass, not one per frame. Each frame still gets its own
//! reply: `Ok`, or BACKPRESSURE naming the lowest shard among its own
//! that refused its sub-batch (`ingest_reply`). The gathered
//! sub-batches are submitted before any other frame of that connection
//! is answered or submitted, and at the end of the pass. A
//! traced INGEST (nonzero trace id, on a recorder that keeps traces)
//! joins the gather too, which holds at most one: its Dispatch span
//! opens when it is decoded, every sub-batch it touched carries that
//! span's context to the engine, and a second traced INGEST submits the
//! gather first — so each traced frame keeps its own span tree while
//! its untraced neighbours share its batches.
//!
//! One cycle of the loop is: read one chunk from each readable
//! connection and serve what it completes, absorb what the shards
//! finished, then `write` each connection that gained replies once — a
//! pipelined window of 32 INGESTs costs `epoll_wait` + `read` + one
//! queue send per shard + `write`, not 32 of each.
//!
//! Because a connection's frames are decoded in order and every INGEST
//! decoded ahead of a non-INGEST frame is on its shard's queue before
//! that frame starts, a request sent behind an INGEST on the same
//! connection observes it. Replies carry no such order: a loop-served
//! reply may overtake a shard's, and the correlation id pairs them.
//!
//! Backpressure is explicit at both ends: a connection with
//! [`ServerConfig::max_inflight`] requests awaiting a shard (which no
//! shard queue counts against its capacity) has its read interest
//! dropped until replies drain, and one whose out-buffer would exceed
//! [`ServerConfig::max_write_queue`]
//! bytes (a slow or stalled reader) is evicted rather than buffered
//! without bound — every reply, wherever it was produced, passes that
//! one check.
//!
//! Shutdown ([`Server::shutdown`], a client [`Frame::Shutdown`], or
//! [`Drop`]) flips the stop flag and wakes the loop, which turns the
//! same loop into a drain: it stops accepting and reading, lets
//! requests awaiting a shard complete, and flushes out-buffers under a
//! bounded [`ServerConfig::drain_deadline`] before closing every socket
//! — so dropping a `Server` cannot leak threads, file descriptors, or
//! the bound port, and a replied shutdown frame actually reaches its
//! sender.

use std::collections::HashMap;
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc::{Receiver, Sender};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use poll::{Events, Interest, Poller, Token, Waker};
use waves_core::{DetWave, WaveError};
use waves_distributed::{MonitorDelta, MonitorReferee};
use waves_engine::{Engine, EngineConfig, IngestRequest, KeyedBits, ShardRequest};
use waves_obs::trace::{OpenSpan, Stage, TraceCtx, TraceId, ROOT_SPAN_ID};
use waves_obs::{HistId, MetricId, NoopRecorder, Recorder};

use crate::frame::{Frame, FrameError, FrameTag, SynopsisKind, WireCodec};

/// Server configuration: the embedded engine's config plus transport
/// knobs.
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Configuration for the hosted serving engine.
    pub engine: EngineConfig,
    /// Dispatch-duration threshold for the slow-request count. A
    /// request whose handler runs longer than this bumps
    /// `net_slow_requests_total`; a traced one's `Dispatch` span
    /// carries the duration. `None` disables the check.
    pub slow_request: Option<Duration>,
    /// Accepted-connection cap. Connections beyond this are accepted
    /// and immediately closed (the kernel backlog would otherwise hold
    /// them in limbo). Sized under the process fd limit by default.
    pub max_connections: usize,
    /// Pipelining depth: requests a single connection may have awaiting
    /// a shard (requests answered on the loop thread are answered within
    /// the pass that decodes them and never count). At the cap the loop
    /// stops reading from that connection until replies drain.
    pub max_inflight: usize,
    /// Out-buffer byte cap per connection. A peer that stops reading
    /// while responses accumulate past this is evicted
    /// (`net_connections_evicted_total`) instead of buffered without
    /// bound.
    pub max_write_queue: usize,
    /// Unused: the server runs no dispatch threads, since shard replies
    /// complete on the event loop. Kept so configurations that set it
    /// still build; ROADMAP item 13's re-baseline deletes it.
    pub dispatch_threads: usize,
    /// Shutdown flush budget: how long the event loop keeps flushing
    /// buffered responses (and letting requests awaiting a shard
    /// finish) after stop is requested, before force-closing sockets.
    pub drain_deadline: Duration,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            engine: EngineConfig::default(),
            slow_request: Some(Duration::from_millis(500)),
            max_connections: 10_240,
            max_inflight: 128,
            max_write_queue: 8 << 20,
            dispatch_threads: 0,
            drain_deadline: Duration::from_secs(1),
        }
    }
}

/// A reply a shard finished, travelling shard thread -> loop: its
/// connection, its request's tag, when that was decoded (recorders only)
/// and its open Dispatch span (traced requests only), and the reply.
type Done = (usize, FrameTag, Option<Instant>, Option<OpenSpan>, Frame);

/// The shard threads' end of the loop's completion channel. It holds no
/// `Shared`: a completion that dropped the last `Arc<Shared>` would run
/// `Engine::drop`, which joins the shard threads, on a shard thread.
struct Completions {
    tx: Sender<Done>,
    waker: Arc<Waker>,
    /// Raised by the first completion since the loop last drained them,
    /// lowered by that drain: the rest skip the eventfd write.
    wake_pending: AtomicBool,
}

impl Completions {
    /// Queue `done` for the loop and wake it unless a wake is pending.
    /// Runs on a shard thread, so it encodes nothing and cannot panic.
    fn complete(&self, done: Done) {
        if self.tx.send(done).is_ok() && !self.wake_pending.swap(true, Ordering::SeqCst) {
            self.waker.wake();
        }
    }
}

struct Shared {
    engine: Engine<DetWave, dyn Recorder + Send + Sync>,
    /// The referee behind PUSH_SYNOPSIS, PUSH_DELTA and COMBINE. Only
    /// the loop thread serves them; the lock is for [`Server`]'s
    /// accessors on other threads.
    referee: Mutex<MonitorReferee>,
    rec: Arc<dyn Recorder + Send + Sync>,
    slow_request: Option<Duration>,
    stopping: AtomicBool,
    /// Its waker also wakes the loop for shutdown. Sinks clone this
    /// `Arc`, never `Shared`'s.
    completions: Arc<Completions>,
}

/// A running server. Bind with [`Server::start`] (or
/// [`Server::start_recorded`] to report into a recorder such as a
/// shared `MetricsRegistry`), query [`Server::local_addr`] for the
/// actual port when binding port 0, and either [`Server::wait`] for a
/// client-driven [`Frame::Shutdown`] or drop the handle to stop.
pub struct Server {
    shared: Arc<Shared>,
    local_addr: SocketAddr,
    event_loop: Option<JoinHandle<()>>,
}

impl Server {
    /// Bind `addr` (e.g. `"127.0.0.1:0"` for an ephemeral port) and
    /// start serving with observability disabled.
    pub fn start<A: ToSocketAddrs>(addr: A, cfg: ServerConfig) -> Result<Self, WaveError> {
        Self::start_recorded(addr, cfg, Arc::new(NoopRecorder))
    }

    /// Bind `addr` and start serving, recording per-connection frame /
    /// byte / latency telemetry into `rec` (and threading it through to
    /// the hosted engine).
    pub fn start_recorded<A: ToSocketAddrs>(
        addr: A,
        cfg: ServerConfig,
        rec: Arc<dyn Recorder + Send + Sync>,
    ) -> Result<Self, WaveError> {
        let listener = TcpListener::bind(addr).map_err(WaveError::io)?;
        listener.set_nonblocking(true).map_err(WaveError::io)?;
        let local_addr = listener.local_addr().map_err(WaveError::io)?;
        let (n, eps) = (cfg.engine.max_window, cfg.engine.eps);
        let engine = Engine::with_factory(
            cfg.engine.clone(),
            move || DetWave::new(n, eps),
            Arc::clone(&rec),
        )?;
        let poller = Poller::new().map_err(WaveError::io)?;
        let waker = Waker::new(&poller, WAKER).map_err(WaveError::io)?;
        let (done_tx, done_rx) = std::sync::mpsc::channel::<Done>();
        let completions = Arc::new(Completions {
            tx: done_tx,
            waker,
            wake_pending: AtomicBool::new(false),
        });
        let shared = Arc::new(Shared {
            engine,
            referee: Mutex::new(MonitorReferee::new()),
            rec,
            slow_request: cfg.slow_request,
            stopping: AtomicBool::new(false),
            completions,
        });

        let event_loop = {
            let engine_shards = shared.engine.num_shards();
            let shared = Arc::clone(&shared);
            let el = EventLoop {
                listener,
                poller,
                shared,
                done_rx,
                conns: HashMap::new(),
                next_conn: 0,
                dirty: Vec::new(),
                gather: Gather::new(engine_shards),
                chunk: vec![0; READ_CHUNK],
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
        })
    }

    /// The address actually bound (resolves port 0).
    pub fn local_addr(&self) -> SocketAddr {
        self.local_addr
    }

    /// Parties currently registered with the referee.
    pub fn referee_parties(&self) -> usize {
        self.shared.referee.lock().unwrap().parties()
    }

    /// Highest PUSH_DELTA sequence number seen from `party` (continuous
    /// monitoring), or `None` if the party has never pushed a delta.
    pub fn monitor_seq_of(&self, party: u64) -> Option<u64> {
        self.shared.referee.lock().unwrap().seq_of(party)
    }

    /// The hosted engine. Lets a harness drive engine-level operations
    /// that have no wire frame — durable checkpoints and crash
    /// simulation (`Engine::crash_on_drop`) in `waves-dst`.
    pub fn engine(&self) -> &Engine<DetWave, dyn Recorder + Send + Sync> {
        &self.shared.engine
    }

    /// Begin stopping: refuse new connections, stop reading, drain
    /// write queues under the configured deadline. Idempotent; returns
    /// without joining (see [`Server::wait`] / `Drop`).
    pub fn shutdown(&self) {
        self.shared.stopping.store(true, Ordering::SeqCst);
        self.shared.completions.waker.wake();
    }

    /// Block until the server stops (a client sent [`Frame::Shutdown`],
    /// or another thread called [`Server::shutdown`]), then join the
    /// event loop.
    pub fn wait(mut self) {
        self.join();
    }

    fn join(&mut self) {
        if let Some(h) = self.event_loop.take() {
            let _ = h.join();
        }
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        self.shutdown();
        self.join();
    }
}

/// Poll token for the listening socket.
const LISTENER: Token = Token(usize::MAX);
/// Poll token for the loop waker's eventfd.
const WAKER: Token = Token(usize::MAX - 1);
/// Bytes read from one connection per readiness event. Level
/// triggering re-reports whatever is left, so a firehose connection
/// holds the loop for one chunk's worth of requests before its
/// neighbours are served.
const READ_CHUNK: usize = 64 << 10;
/// The longest single wait while draining, so the deadline is checked
/// at least this often.
const DRAIN_SLICE: Duration = Duration::from_millis(20);

/// A connection's encoded replies, back to back in the order they
/// completed. Replies are appended whole at the tail; the socket takes
/// bytes from the front in whatever pieces the kernel accepts.
#[derive(Default)]
struct OutBuf {
    bytes: Vec<u8>,
    /// The socket has accepted `bytes[..wpos]`.
    wpos: usize,
    /// Start of the first frame the socket has not accepted whole.
    fpos: usize,
}

impl OutBuf {
    /// Bytes the socket has yet to accept: what the write-queue cap
    /// bounds.
    fn queued(&self) -> usize {
        self.bytes.len() - self.wpos
    }

    fn is_empty(&self) -> bool {
        self.queued() == 0
    }

    /// The socket accepted `n` more bytes. Returns how many frames that
    /// completed, and gives back the space of the frames already sent
    /// once it is at least what remains — so a peer that reads steadily
    /// but never catches up holds a buffer within a small multiple of
    /// its backlog (itself under the cap), not one that grows with
    /// every byte ever sent, and each byte is moved at most once on
    /// average.
    fn advance(&mut self, n: usize) -> u64 {
        self.wpos += n;
        let mut frames = 0;
        while self.fpos < self.wpos {
            let end = self.fpos + WireCodec::encoded_len(&self.bytes[self.fpos..]);
            if end > self.wpos {
                break;
            }
            self.fpos = end;
            frames += 1;
        }
        if self.is_empty() {
            self.bytes.clear();
            self.wpos = 0;
            self.fpos = 0;
        } else if self.fpos >= self.bytes.len() - self.fpos {
            self.bytes.drain(..self.fpos);
            self.wpos -= self.fpos;
            self.fpos = 0;
        }
        frames
    }
}

/// One connection's state machine. All I/O on it is non-blocking and
/// happens on the event-loop thread; shards only ever see decoded
/// requests and hand back reply frames.
struct Conn {
    sock: TcpStream,
    /// Unparsed inbound bytes: a partial frame's prefix, or complete
    /// frames beyond the in-flight cap waiting for replies to drain.
    rbuf: Vec<u8>,
    /// Replies not yet on the socket. Checked against the write-queue
    /// cap on every append, written once per loop cycle.
    out: OutBuf,
    /// On the loop's flush list for this cycle.
    dirty: bool,
    /// Requests submitted to a shard and not yet replied.
    inflight: usize,
    /// Peer closed its write half (clean EOF); no more requests, but
    /// queued replies still flush.
    read_closed: bool,
    /// Close once the out-buffer drains and nothing is in flight.
    closing: bool,
    /// This connection replied to [`Frame::Shutdown`]: once its
    /// out-buffer drains, stop the whole server.
    shutdown_after: bool,
    interest: Interest,
}

impl Conn {
    /// Append `reply`, encoded under the request's tag, with the
    /// telemetry every reply gets wherever it was produced — server-side
    /// frame latency since `started`, slow-request and error accounting
    /// — and the one write-queue check: `false` means it took the
    /// backlog past `cap`, so it is taken back out and the caller must
    /// evict the peer.
    fn answer(
        &mut self,
        reply: &Frame,
        tag: FrameTag,
        started: Option<Instant>,
        shared: &Shared,
        cap: usize,
    ) -> bool {
        let rec = &shared.rec;
        if let Some(t0) = started {
            let elapsed = t0.elapsed();
            rec.observe(HistId::NetServerFrameNs, elapsed.as_nanos() as u64);
            if shared.slow_request.is_some_and(|limit| elapsed > limit) {
                rec.incr(MetricId::NetSlowRequests, 1);
            }
        }
        if matches!(reply, Frame::ErrorResp(_)) {
            rec.incr(MetricId::NetRequestErrors, 1);
        }
        let start = self.out.bytes.len();
        WireCodec::encode_tagged_into(reply, tag, &mut self.out.bytes);
        let queued = self.out.queued();
        if queued > cap {
            self.out.bytes.truncate(start);
            rec.incr(MetricId::NetConnectionsEvicted, 1);
            return false;
        }
        if rec.enabled() {
            rec.observe(HistId::NetWriteQueueBytes, queued as u64);
        }
        true
    }

    /// Whether the loop reads this connection: not closing (a framing
    /// violation or the drain), the peer's write half open, and below
    /// the in-flight cap.
    fn wants_read(&self, max_inflight: usize) -> bool {
        !self.closing && !self.read_closed && self.inflight < max_inflight
    }

    /// Put the connection on this cycle's flush list, once.
    fn mark_dirty(&mut self, id: usize, flush_list: &mut Vec<usize>) {
        if !self.dirty {
            self.dirty = true;
            flush_list.push(id);
        }
    }
}

/// The reply to one gathered INGEST frame: `Ok` unless a shard it
/// touched refused its sub-batch, else BACKPRESSURE naming the lowest
/// such shard — [`Engine::ingest`]'s "first failing shard" rule, applied
/// to the frame's own shards.
fn ingest_reply(touched: &[usize], refused: &[bool]) -> Frame {
    match touched
        .iter()
        .copied()
        .filter(|&shard| refused[shard])
        .min()
    {
        Some(shard) => Frame::ErrorResp(WaveError::Backpressure { shard }),
        None => Frame::Ok,
    }
}

/// The INGEST frames one pass over a connection's read buffer has
/// decoded and not yet put on a shard queue. The loop owns one and
/// empties it before a pass returns, so it carries no connection.
struct Gather {
    /// Per shard: the gathered entries, in arrival order.
    subs: Vec<Vec<KeyedBits>>,
    /// Per gathered frame, in arrival order: its tag, the end of its
    /// shards in `touched`, and when it was decoded (recorders only).
    frames: Vec<(FrameTag, usize, Option<Instant>)>,
    /// Each gathered frame's shards, without repeats, back to back.
    touched: Vec<usize>,
    /// Per shard: refused its sub-batch at the last submit.
    refused: Vec<bool>,
    /// The one traced frame gathered: its index in `frames`, where its
    /// shards start in `touched`, and its open Dispatch span.
    traced: Option<(usize, usize, OpenSpan)>,
}

impl Gather {
    fn new(shards: usize) -> Self {
        Gather {
            subs: vec![Vec::new(); shards],
            frames: Vec::new(),
            touched: Vec::new(),
            refused: vec![false; shards],
            traced: None,
        }
    }

    /// Add one frame's entries to their shards' sub-batches. A traced
    /// frame brings its open Dispatch span; the caller submits first if
    /// the gather already holds one.
    fn push(
        &mut self,
        engine: &Engine<DetWave, dyn Recorder + Send + Sync>,
        entries: Vec<KeyedBits>,
        tag: FrameTag,
        started: Option<Instant>,
        span: Option<OpenSpan>,
    ) {
        let start = self.touched.len();
        for (key, bits) in entries {
            let shard = engine.shard_of(key);
            if !self.touched[start..].contains(&shard) {
                self.touched.push(shard);
            }
            self.subs[shard].push((key, bits));
        }
        if let Some(span) = span {
            debug_assert!(self.traced.is_none(), "one traced frame per gather");
            self.traced = Some((self.frames.len(), start, span));
        }
        self.frames.push((tag, self.touched.len(), started));
    }

    /// Enqueue each non-empty sub-batch on its shard, one non-blocking
    /// [`Engine::ingest`] apiece — a sub-batch the traced frame touched
    /// carries its span's context — then answer the gathered frames in
    /// arrival order, ending the traced frame's span just before its
    /// reply. Leaves the gather empty; `false` means a reply took the
    /// connection past the write-queue cap and the caller must evict
    /// it.
    fn submit(&mut self, shared: &Shared, conn: &mut Conn, cap: usize) -> bool {
        if self.frames.is_empty() {
            return true;
        }
        let traced = self.traced.take();
        let traced_shards = match traced {
            Some((i, start, _)) => &self.touched[start..self.frames[i].1],
            None => &[],
        };
        for (shard, (sub, refused)) in self.subs.iter_mut().zip(&mut self.refused).enumerate() {
            let batch = std::mem::take(sub);
            let ctx = match traced {
                Some((_, _, span)) if traced_shards.contains(&shard) => span.ctx(),
                _ => TraceCtx::NONE,
            };
            *refused = !batch.is_empty()
                && shared
                    .engine
                    .ingest(IngestRequest::batch(batch).traced(ctx))
                    .is_err();
        }
        let mut admitted = true;
        let mut start = 0;
        for (i, (tag, end, started)) in self.frames.drain(..).enumerate() {
            if let Some((_, _, span)) = traced.filter(|&(at, _, _)| at == i) {
                span.end(&*shared.rec);
            }
            if admitted {
                let reply = ingest_reply(&self.touched[start..end], &self.refused);
                admitted = conn.answer(&reply, tag, started, shared, cap);
            }
            start = end;
        }
        self.touched.clear();
        admitted
    }
}

struct EventLoop {
    listener: TcpListener,
    poller: Poller,
    shared: Arc<Shared>,
    done_rx: Receiver<Done>,
    conns: HashMap<usize, Conn>,
    next_conn: usize,
    /// Connections with replies appended (or a writable event) this
    /// cycle; each gets one `write` at the end of it.
    dirty: Vec<usize>,
    /// The INGEST frames of the pass in progress; empty between passes.
    gather: Gather,
    /// Landing area for socket reads, allocated once.
    chunk: Vec<u8>,
    max_connections: usize,
    max_inflight: usize,
    max_write_queue: usize,
    drain_deadline: Duration,
}

impl EventLoop {
    /// Serve until stop is requested, then drain in the same loop: the
    /// listener is deregistered and every connection marked closing, so
    /// nothing is accepted or read; waits are cut into slices of at
    /// most [`DRAIN_SLICE`]; and the loop ends once every connection has
    /// closed or [`ServerConfig::drain_deadline`] has passed, which
    /// force-closes the rest. A shard that answers after that finds the
    /// completion channel closed and drops its reply.
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
        let mut drain_until: Option<Instant> = None;
        loop {
            if drain_until.is_none() && self.shared.stopping.load(Ordering::SeqCst) {
                drain_until = Some(Instant::now() + self.drain_deadline);
                self.begin_drain();
            }
            let timeout = match drain_until {
                None => None,
                Some(_) if self.conns.is_empty() => break,
                Some(until) => match until.checked_duration_since(Instant::now()) {
                    Some(left) if !left.is_zero() => Some(left.min(DRAIN_SLICE)),
                    _ => break, // force-close whatever is still queued
                },
            };
            let n = match self.poller.wait(&mut events, timeout) {
                Ok(n) => n,
                Err(_) => break,
            };
            if drain_until.is_none() {
                if rec.enabled() {
                    rec.incr(MetricId::PollWakeups, 1);
                    rec.observe(HistId::PollEventsPerWake, n as u64);
                }
                // Re-check before touching sockets: a stop requested
                // while we slept must not race a request that arrived in
                // the same readiness batch into dispatch. The top of the
                // loop starts the drain; level triggering re-reports
                // whatever the drain still needs.
                if self.shared.stopping.load(Ordering::SeqCst) {
                    continue;
                }
            }
            // One cycle: read and serve everything that is ready,
            // absorb what the shards finished, then write each touched
            // connection once.
            for ev in events.iter() {
                match ev.token {
                    LISTENER => self.accept_ready(),
                    WAKER => self.shared.completions.waker.ack(),
                    Token(id) => {
                        if ev.readable {
                            self.read_ready(id);
                        }
                        if ev.writable || ev.error {
                            self.mark_dirty(id);
                        }
                    }
                }
            }
            self.drain_completions();
            self.flush_dirty();
        }
        let ids: Vec<usize> = self.conns.keys().copied().collect();
        for id in ids {
            self.close(id);
        }
    }

    /// Enter the drain: refuse new connections and stop reading every
    /// live one. Each gets a `write` now, which drops its read interest
    /// and closes it if nothing is left to flush or wait for.
    fn begin_drain(&mut self) {
        let _ = self.poller.deregister(&self.listener);
        for (&id, conn) in self.conns.iter_mut() {
            conn.closing = true;
            conn.mark_dirty(id, &mut self.dirty);
        }
        self.flush_dirty();
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
                    out: OutBuf::default(),
                    dirty: false,
                    inflight: 0,
                    read_closed: false,
                    closing: false,
                    shutdown_after: false,
                    interest: Interest::READ,
                },
            );
        }
    }

    /// Pull one chunk off the socket and serve the frames it completes.
    fn read_ready(&mut self, id: usize) {
        let Some(conn) = self.conns.get_mut(&id) else {
            return;
        };
        if !conn.wants_read(self.max_inflight) {
            return;
        }
        let got = loop {
            match conn.sock.read(&mut self.chunk) {
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
                other => break other,
            }
        };
        match got {
            Ok(0) => {
                conn.read_closed = true;
                set_interest(&self.poller, conn, Token(id), self.max_inflight);
            }
            Ok(n) => {
                conn.rbuf.extend_from_slice(&self.chunk[..n]);
                self.parse_frames(id);
            }
            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {}
            Err(_) => return self.close(id),
        }
        self.finish_if_drained(id);
    }

    /// Peel complete frames off the connection's read buffer in arrival
    /// order. Every INGEST joins the pass's gather; before any other
    /// frame, and before a second traced INGEST, the gather is
    /// submitted. Any other request is then answered here and now, or
    /// submitted to its shard with a completion; at the in-flight cap
    /// parsing stops (the remainder stays buffered;
    /// [`EventLoop::drain_completions`] re-parses when a reply takes the
    /// connection off the cap). The pass ends with one last submit.
    fn parse_frames(&mut self, id: usize) {
        let Some(conn) = self.conns.get_mut(&id) else {
            return;
        };
        let shared = &*self.shared;
        let rec = &*shared.rec;
        let gather = &mut self.gather;
        let cap = self.max_write_queue;
        let mut consumed = 0;
        let mut violation = None;
        while !conn.closing && conn.inflight < self.max_inflight {
            match WireCodec::decode_tagged(&conn.rbuf[consumed..]) {
                Ok((frame, used, tag)) => {
                    consumed += used;
                    if rec.enabled() {
                        rec.incr(MetricId::NetFramesReceived, 1);
                        rec.incr(MetricId::NetBytesReceived, used as u64);
                        rec.observe(HistId::NetFrameBytes, used as u64);
                    }
                    let frame = match frame {
                        Frame::Ingest(entries) => {
                            let started = rec.enabled().then(Instant::now);
                            let span = OpenSpan::open(client_ctx(tag), Stage::Dispatch, rec);
                            if span.is_some()
                                && gather.traced.is_some()
                                && !gather.submit(shared, conn, cap)
                            {
                                return self.close(id);
                            }
                            gather.push(&shared.engine, entries, tag, started, span);
                            continue;
                        }
                        frame => frame,
                    };
                    if !gather.submit(shared, conn, cap) {
                        return self.close(id);
                    }
                    conn.shutdown_after |= matches!(frame, Frame::Shutdown);
                    let started = rec.enabled().then(Instant::now);
                    let span = OpenSpan::open(client_ctx(tag), Stage::Dispatch, rec);
                    let completions = Arc::clone(&shared.completions);
                    let done = move |reply| completions.complete((id, tag, started, span, reply));
                    let ctx = span.map_or(TraceCtx::NONE, OpenSpan::ctx);
                    match dispatch(frame, shared, ctx, done) {
                        Some(reply) => {
                            if let Some(span) = span {
                                span.end(rec);
                            }
                            if !conn.answer(&reply, tag, started, shared, cap) {
                                return self.close(id);
                            }
                        }
                        None => {
                            conn.inflight += 1;
                            if rec.enabled() {
                                rec.observe(HistId::NetInflightPerConn, conn.inflight as u64);
                            }
                        }
                    }
                }
                Err(FrameError::Truncated) => break,
                Err(e) => {
                    violation = Some(e);
                    break;
                }
            }
        }
        if !gather.submit(shared, conn, cap) {
            return self.close(id);
        }
        conn.rbuf.drain(..consumed);
        if let Some(e) = violation {
            // Framing violation: the frames before it are answered, then
            // a best-effort error reply, then close once it (and any
            // in-flight replies) flush. The rest of the buffer is
            // garbage.
            conn.rbuf.clear();
            conn.closing = true;
            let refusal = invalid_data(format!("bad frame: {e}"));
            if !conn.answer(&refusal, FrameTag::default(), None, shared, cap) {
                return self.close(id);
            }
        }
        // The cycle's `write` also reconciles read interest, so a pass
        // that changed whether the connection is read gets one too.
        if !conn.out.is_empty() || conn.interest.readable != conn.wants_read(self.max_inflight) {
            conn.mark_dirty(id, &mut self.dirty);
        }
    }

    /// A writable (or error) event: give the connection its `write`
    /// at the end of this cycle.
    fn mark_dirty(&mut self, id: usize) {
        if let Some(conn) = self.conns.get_mut(&id) {
            conn.mark_dirty(id, &mut self.dirty);
        }
    }

    /// The end of a cycle: one `write` per connection that gained
    /// replies (or became writable) during it.
    fn flush_dirty(&mut self) {
        let mut ids = std::mem::take(&mut self.dirty);
        for id in ids.drain(..) {
            self.write_ready(id);
        }
        self.dirty = ids;
    }

    /// Offer the out-buffer to the socket once, keep write interest
    /// only while bytes remain, and finish close/shutdown transitions
    /// once drained. A short write means the kernel's buffer is full;
    /// the writable event resumes from `wpos`.
    fn write_ready(&mut self, id: usize) {
        let rec = &self.shared.rec;
        let Some(conn) = self.conns.get_mut(&id) else {
            return;
        };
        conn.dirty = false;
        while !conn.out.is_empty() {
            match conn.sock.write(&conn.out.bytes[conn.out.wpos..]) {
                Ok(n) => {
                    let frames = conn.out.advance(n);
                    if rec.enabled() {
                        rec.incr(MetricId::NetBytesSent, n as u64);
                        rec.incr(MetricId::NetFramesSent, frames);
                    }
                    break;
                }
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
                Err(_) => return self.close(id),
            }
        }
        set_interest(&self.poller, conn, Token(id), self.max_inflight);
        self.finish_if_drained(id);
    }

    /// Apply end-of-life transitions for a connection whose buffers
    /// may have just emptied.
    fn finish_if_drained(&mut self, id: usize) {
        let Some(conn) = self.conns.get_mut(&id) else {
            return;
        };
        if !conn.out.is_empty() || conn.inflight > 0 {
            return;
        }
        if conn.shutdown_after {
            // The shutdown reply reached the kernel; now stop the
            // server. The drain phase closes this connection.
            self.shared.stopping.store(true, Ordering::SeqCst);
            conn.shutdown_after = false;
            conn.closing = true;
        } else if conn.closing || conn.read_closed {
            // With the peer's write half closed, leftover buffered
            // bytes can never complete into a frame.
            self.close(id);
        }
    }

    /// Absorb what the shards finished: end each request's span, encode
    /// its reply, release its in-flight slot, and resume parsing on
    /// connections a reply takes off the cap.
    fn drain_completions(&mut self) {
        // Cleared before the drain: a shard that finishes after this
        // line either has its reply picked up below or finds the flag
        // down and wakes the loop again.
        self.shared
            .completions
            .wake_pending
            .store(false, Ordering::SeqCst);
        while let Ok((id, tag, started, span, reply)) = self.done_rx.try_recv() {
            let shared = &*self.shared;
            if let Some(span) = span {
                span.end(&*shared.rec);
            }
            let Some(conn) = self.conns.get_mut(&id) else {
                continue; // connection already gone; drop the reply
            };
            conn.inflight -= 1;
            if !conn.answer(&reply, tag, started, shared, self.max_write_queue) {
                self.close(id);
                continue;
            }
            conn.mark_dirty(id, &mut self.dirty);
            if conn.inflight + 1 == self.max_inflight {
                // Frames may be sitting whole in the read buffer from
                // when the cap stopped the pass; the socket won't
                // re-signal for them. The pass restores read interest.
                self.parse_frames(id);
                self.finish_if_drained(id);
            }
        }
    }

    fn close(&mut self, id: usize) {
        if let Some(conn) = self.conns.remove(&id) {
            let _ = self.poller.deregister(&conn.sock);
        }
    }
}

/// Reconcile a connection's epoll interest with its state: writable
/// while the out-buffer holds bytes, readable per [`Conn::wants_read`].
fn set_interest(poller: &Poller, conn: &mut Conn, token: Token, max_inflight: usize) {
    let want = Interest {
        readable: conn.wants_read(max_inflight),
        writable: !conn.out.is_empty(),
    };
    if want != conn.interest {
        conn.interest = want;
        let _ = poller.reregister(&conn.sock, token, want);
    }
}

/// The context a request's Dispatch span opens under. A nonzero header
/// trace id opts the request into tracing: the span parents to the
/// client's root span (by the ROOT_SPAN_ID convention — only the trace
/// id crossed the wire) and the engine layers below parent to it.
fn client_ctx(tag: FrameTag) -> TraceCtx {
    TraceCtx {
        trace: TraceId(tag.trace),
        parent: ROOT_SPAN_ID,
    }
}

/// Answer a request other than INGEST on the loop thread, or submit it
/// to the engine with `done` as its completion: `None` means submitted.
/// `ctx` is the request's Dispatch span, which a query's engine spans
/// parent to.
fn dispatch(
    frame: Frame,
    shared: &Shared,
    ctx: TraceCtx,
    done: impl FnOnce(Frame) + Send + 'static,
) -> Option<Frame> {
    let submit = |req| {
        shared.engine.submit(req);
        None
    };
    let reply = match frame {
        Frame::Query { key, window } => {
            let reply = Box::new(move |res: Result<_, _>| {
                done(res.map_or_else(Frame::ErrorResp, Frame::EstimateResp))
            });
            return submit(ShardRequest::Query {
                key,
                window,
                ctx,
                reply,
            });
        }
        Frame::Flush => return submit(ShardRequest::Flush(Box::new(move |()| done(Frame::Ok)))),
        Frame::Snapshot => {
            let reply = Box::new(move |snap| done(Frame::SnapshotResp(snap)));
            return submit(ShardRequest::Snapshot(reply));
        }
        Frame::Fetch { key } => {
            let reply = Box::new(move |res: Result<_, _>| {
                done(res.map_or_else(Frame::ErrorResp, |bytes| Frame::Replicate {
                    key,
                    kind: SynopsisKind::DetWave,
                    bytes,
                }))
            });
            return submit(ShardRequest::Fetch { key, reply });
        }
        Frame::Replicate {
            key,
            kind: SynopsisKind::DetWave,
            bytes,
        } => {
            let reply = Box::new(move |res: Result<_, _>| {
                done(res.map_or_else(Frame::ErrorResp, |()| Frame::Ok))
            });
            return submit(ShardRequest::Install { key, bytes, reply });
        }
        // This server hosts a DetWave engine; a primary shipping any
        // other synopsis kind is misconfigured, and installing its bytes
        // would corrupt the key silently.
        Frame::Replicate { kind, .. } => {
            invalid_data(format!("replicate kind {kind:?} not hosted by this server"))
        }
        Frame::Ping => Frame::Pong,
        Frame::Shutdown => Frame::Ok,
        Frame::Stats => match shared.rec.metrics_snapshot() {
            Some(snap) => Frame::StatsResp(snap.to_json()),
            // NoopRecorder (and SpanRecorder-only) servers have no
            // registry to report; tell the client why instead of
            // returning an empty snapshot it would mistake for zeros.
            None => Frame::ErrorResp(WaveError::io(std::io::Error::other(
                "server was started without a metrics registry",
            ))),
        },
        Frame::Ingest(_) => unreachable!("every INGEST joins the pass's gather"),
        Frame::PushSynopsis { party, kind, bytes } => {
            let mut referee = shared.referee.lock().unwrap();
            match referee.install_synopsis(party, kind, &bytes) {
                Ok(()) => Frame::Ok,
                Err(e) => invalid_data(format!("synopsis decode failed: {e}")),
            }
        }
        Frame::PushDelta {
            party,
            seq,
            slack,
            kind,
            bytes,
        } => {
            // A stale or replayed delta is answered Ok without touching
            // state, which is what makes PUSH_DELTA retry-safe
            // (idempotent) and late reordering harmless.
            let delta = MonitorDelta {
                party,
                seq,
                slack,
                kind,
                bytes,
            };
            let installed = shared.referee.lock().unwrap().install(&delta);
            match installed {
                Ok(true) => {
                    shared.rec.incr(MetricId::MonitorPushes, 1);
                    let len = delta.bytes.len() as u64;
                    shared.rec.incr(MetricId::MonitorPushBytes, len);
                    Frame::Ok
                }
                Ok(false) => {
                    shared.rec.incr(MetricId::MonitorStaleDeltas, 1);
                    Frame::Ok
                }
                Err(e) => invalid_data(format!("push delta decode failed: {e}")),
            }
        }
        Frame::Combine { window } => match shared.referee.lock().unwrap().combine(window) {
            Ok(total) => Frame::EstimateResp(total),
            Err(e) => Frame::ErrorResp(e),
        },
        // A response frame arriving as a request is a protocol error.
        Frame::Ok
        | Frame::Pong
        | Frame::EstimateResp(_)
        | Frame::SnapshotResp(_)
        | Frame::StatsResp(_)
        | Frame::ErrorResp(_) => invalid_data("response frame sent as request"),
    };
    Some(reply)
}

/// A refusal of malformed input: an `Io(InvalidData)` carrying `msg`.
fn invalid_data(msg: impl Into<String>) -> Frame {
    Frame::ErrorResp(WaveError::io(std::io::Error::new(
        std::io::ErrorKind::InvalidData,
        msg.into(),
    )))
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Every subset of touched shards against every subset of refused
    /// ones, on three shards, in both listing orders: `Ok` exactly when
    /// the two sets are disjoint, else BACKPRESSURE naming the lowest
    /// shard in both.
    #[test]
    fn a_gathered_frame_is_refused_by_its_lowest_refused_shard() {
        for touched_set in 0u32..8 {
            for refused_set in 0u32..8 {
                let refused: Vec<bool> = (0..3).map(|s| refused_set >> s & 1 == 1).collect();
                let mut touched: Vec<usize> =
                    (0..3).filter(|s| touched_set >> s & 1 == 1).collect();
                let want = match touched_set & refused_set {
                    0 => Frame::Ok,
                    both => Frame::ErrorResp(WaveError::Backpressure {
                        shard: both.trailing_zeros() as usize,
                    }),
                };
                assert_eq!(
                    ingest_reply(&touched, &refused),
                    want,
                    "{touched:?} {refused:?}"
                );
                touched.reverse();
                assert_eq!(
                    ingest_reply(&touched, &refused),
                    want,
                    "{touched:?} {refused:?}"
                );
            }
        }
    }

    /// A peer that reads steadily but never catches up keeps its
    /// backlog above zero and under the cap while many times the cap
    /// passes through. The buffer must stay within a small multiple of
    /// the backlog — not grow with every byte ever sent — and frames
    /// must count as their last byte goes, not at a drain that never
    /// comes.
    #[test]
    fn out_buffer_of_a_peer_that_never_catches_up_stays_bounded() {
        const CAP: usize = 4 << 10;
        let pong = WireCodec::encode(&Frame::Pong);
        let mut out = OutBuf::default();
        let (mut pushed, mut sent, mut accepted) = (0u64, 0u64, 0usize);
        let mut state = 0x9E37_79B9_7F4A_7C15u64;
        while accepted < 64 * CAP {
            while out.queued() + pong.len() <= CAP {
                out.bytes.extend_from_slice(&pong);
                pushed += 1;
            }
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            // The socket takes a piece, never all of it.
            let n = 1 + state as usize % (out.queued() - 1);
            sent += out.advance(n);
            accepted += n;
            assert_eq!(sent, (accepted / pong.len()) as u64);
            assert!(out.bytes[out.wpos..].starts_with(&pong[accepted % pong.len()..]));
            assert!(
                out.bytes.len() <= 2 * (CAP + pong.len()),
                "{} bytes held for a backlog of {}",
                out.bytes.len(),
                out.queued()
            );
        }
        assert!(out.bytes.capacity() <= 8 * CAP, "{}", out.bytes.capacity());
        sent += out.advance(out.queued());
        assert_eq!(sent, pushed);
        assert!(out.bytes.is_empty() && out.wpos == 0 && out.fpos == 0);
    }
}
