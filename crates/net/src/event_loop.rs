//! The server's event loop as one value. [`EventLoop`] owns the
//! listener, a [`poll::Poller`] (vendored epoll shim), every connection
//! and the loop's end of the completion queue. [`EventLoop::turn`] runs
//! one cycle over a ready list: if stop was requested since the last
//! turn, start the drain and skip the list (level triggering re-reports
//! what the drain still needs); else accept, read one chunk from each
//! readable connection and serve the frames it completes, absorb what
//! the shards finished, then `write` each connection that gained replies
//! once — a pipelined window of 32 INGESTs costs `epoll_wait` + `read` +
//! one queue send per shard + `write`, not 32 of each.
//! [`EventLoop::run`] is the production driver: wait, then turn.
//!
//! Bytes accumulate in a connection's read buffer until
//! [`WireCodec::decode_tagged`] can peel a whole frame off the front, and
//! encoded replies accumulate back to back in a bounded out-buffer until
//! the socket takes them — possibly out of request order. Every reply,
//! answered, gathered or completed, is encoded through the same
//! `Conn::answer`, so its telemetry and the write-queue check do not
//! depend on where it ran. A shard pushes its reply onto the loop's one
//! completion queue, a `Mutex<Vec>` the loop swaps against a spare
//! buffer, and wakes the loop only when the queue was empty: once per
//! drain, not once per reply.
//!
//! The INGEST frames one pass over a read buffer decodes are gathered
//! into one sub-batch per shard, each put on its shard with one
//! non-blocking [`Engine::ingest`]; each frame is answered `Ok`, or
//! BACKPRESSURE naming the lowest shard among its own that refused its
//! sub-batch (`ingest_reply`). The gather is submitted before any other
//! frame of the connection is answered or submitted, at the end of the
//! pass, and before and after a traced INGEST (nonzero trace id, on a
//! recorder that keeps traces), which so goes alone: each of its
//! sub-batches carries its Dispatch span's context.
//!
//! [`Engine::ingest`]: waves_engine::Engine::ingest

use std::collections::HashMap;
use std::io::{Read, Write};
use std::net::{TcpListener, TcpStream};
use std::sync::atomic::Ordering;
use std::sync::{Arc, Mutex, PoisonError};
use std::time::{Duration, Instant};

use poll::{Event, Events, Interest, Poller, Token, Waker};
use waves_core::{DetWave, WaveError};
use waves_engine::{Engine, IngestRequest, KeyedBits};
use waves_obs::trace::{OpenSpan, Stage, TraceCtx, TraceId, ROOT_SPAN_ID};
use waves_obs::{HistId, MetricId, Recorder};

use crate::frame::{Frame, FrameError, FrameTag, WireCodec};
use crate::server::{dispatch, invalid_data, ServerConfig, Shared};

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

/// A reply a shard finished, travelling shard thread -> loop: its
/// connection, its request's tag, when that was decoded (recorders only)
/// and its open Dispatch span (traced requests only), and the reply.
type Done = (usize, FrameTag, Option<Instant>, Option<OpenSpan>, Frame);

/// The loop's completion queue, shared with the shard threads. It holds
/// no `Shared`: a completion that dropped the last `Arc<Shared>` would
/// run `Engine::drop`, which joins the shard threads, on a shard thread.
struct Completions {
    queue: Mutex<Vec<Done>>,
    /// Also wakes the loop for shutdown.
    waker: Arc<Waker>,
}

impl Completions {
    /// Queue `done` for the loop, and wake it if the queue was empty —
    /// otherwise a wake is already on its way. Runs on a shard thread, so
    /// it encodes nothing and cannot panic.
    fn complete(&self, done: Done) {
        let mut queue = self.queue.lock().unwrap_or_else(PoisonError::into_inner);
        queue.push(done);
        let first = queue.len() == 1;
        // Unlocked before the wake, so the loop it wakes finds it free.
        drop(queue);
        if first {
            self.waker.wake();
        }
    }
}

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
}

impl Gather {
    fn new(shards: usize) -> Self {
        Gather {
            subs: vec![Vec::new(); shards],
            frames: Vec::new(),
            touched: Vec::new(),
            refused: vec![false; shards],
        }
    }

    /// Add one frame's entries to their shards' sub-batches.
    fn push(
        &mut self,
        engine: &Engine<DetWave, dyn Recorder + Send + Sync>,
        entries: Vec<KeyedBits>,
        tag: FrameTag,
        started: Option<Instant>,
    ) {
        let start = self.touched.len();
        for (key, bits) in entries {
            let shard = engine.shard_of(key);
            if !self.touched[start..].contains(&shard) {
                self.touched.push(shard);
            }
            self.subs[shard].push((key, bits));
        }
        self.frames.push((tag, self.touched.len(), started));
    }

    /// Enqueue each non-empty sub-batch on its shard, one non-blocking
    /// [`Engine::ingest`] apiece, then answer the gathered frames in
    /// arrival order. `span` is a traced frame's open Dispatch span: that
    /// frame is gathered alone, so every sub-batch carries the span's
    /// context, and the span ends just before the reply. Leaves the
    /// gather empty; `false` means a reply took the connection past the
    /// write-queue cap and the caller must evict it.
    fn submit(
        &mut self,
        shared: &Shared,
        conn: &mut Conn,
        cap: usize,
        span: Option<OpenSpan>,
    ) -> bool {
        if self.frames.is_empty() {
            return true;
        }
        debug_assert!(span.is_none() || self.frames.len() == 1);
        let ctx = span.map_or(TraceCtx::NONE, OpenSpan::ctx);
        for (sub, refused) in self.subs.iter_mut().zip(&mut self.refused) {
            let batch = std::mem::take(sub);
            *refused = !batch.is_empty()
                && shared
                    .engine
                    .ingest(IngestRequest::batch(batch).traced(ctx))
                    .is_err();
        }
        if let Some(span) = span {
            span.end(&*shared.rec);
        }
        let mut admitted = true;
        let mut start = 0;
        for (tag, end, started) in self.frames.drain(..) {
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

pub(crate) struct EventLoop {
    listener: TcpListener,
    poller: Poller,
    shared: Arc<Shared>,
    completions: Arc<Completions>,
    /// The buffer the completion queue is swapped against; empty
    /// between drains, and never freed.
    spare: Vec<Done>,
    conns: HashMap<usize, Conn>,
    next_conn: usize,
    /// Connections with replies appended (or a writable event) this
    /// cycle; each gets one `write` at the end of it.
    dirty: Vec<usize>,
    /// The INGEST frames of the pass in progress; empty between passes.
    gather: Gather,
    /// Landing area for socket reads, allocated once.
    chunk: Vec<u8>,
    /// Set by the turn that starts the drain: when it force-closes.
    drain_until: Option<Instant>,
    max_connections: usize,
    max_inflight: usize,
    max_write_queue: usize,
    drain_deadline: Duration,
}

impl EventLoop {
    /// Build the loop for `listener` (already non-blocking) and register
    /// it, so a listener that cannot be watched fails here, before any
    /// thread starts.
    pub(crate) fn new(
        listener: TcpListener,
        shared: Arc<Shared>,
        cfg: &ServerConfig,
    ) -> std::io::Result<Self> {
        let poller = Poller::new()?;
        let waker = Waker::new(&poller, WAKER)?;
        poller.register(&listener, LISTENER, Interest::READ)?;
        let shards = shared.engine.num_shards();
        Ok(EventLoop {
            listener,
            poller,
            shared,
            completions: Arc::new(Completions {
                queue: Mutex::new(Vec::new()),
                waker,
            }),
            spare: Vec::new(),
            conns: HashMap::new(),
            next_conn: 0,
            dirty: Vec::new(),
            gather: Gather::new(shards),
            chunk: vec![0; READ_CHUNK],
            drain_until: None,
            max_connections: cfg.max_connections,
            max_inflight: cfg.max_inflight.max(1),
            max_write_queue: cfg.max_write_queue.max(1),
            drain_deadline: cfg.drain_deadline,
        })
    }

    /// What wakes the loop from another thread to see a stop request.
    pub(crate) fn waker(&self) -> Arc<Waker> {
        Arc::clone(&self.completions.waker)
    }

    /// Serve until stop is requested, then drain: once a turn has
    /// started the drain, waits are cut into slices of at most
    /// [`DRAIN_SLICE`], and the loop ends once every connection has
    /// closed or [`ServerConfig::drain_deadline`] has passed, which
    /// force-closes the rest. A shard that answers after that pushes its
    /// reply onto a queue no loop drains; it drops with the engine.
    pub(crate) fn run(mut self) {
        let mut events = Events::with_capacity(1024);
        loop {
            let timeout = match self.drain_until {
                None => None,
                Some(_) if self.conns.is_empty() => break,
                Some(until) => match until.checked_duration_since(Instant::now()) {
                    Some(left) if !left.is_zero() => Some(left.min(DRAIN_SLICE)),
                    _ => break, // force-close whatever is still queued
                },
            };
            let Ok(n) = self.poller.wait(&mut events, timeout) else {
                break;
            };
            let rec = &self.shared.rec;
            if self.drain_until.is_none() && rec.enabled() {
                rec.incr(MetricId::PollWakeups, 1);
                rec.observe(HistId::PollEventsPerWake, n as u64);
            }
            self.turn(events.iter());
        }
        // Returning drops the loop, and every socket closes with it.
    }

    /// One cycle over the events in `ready`. If stop was requested since
    /// the last turn, start the drain instead and skip the batch. Else
    /// read and serve everything that is ready, absorb what the shards
    /// finished, then write each touched connection once.
    pub(crate) fn turn(&mut self, ready: impl IntoIterator<Item = Event>) {
        if self.drain_until.is_none() && self.shared.stopping.load(Ordering::SeqCst) {
            // The drain: refuse new connections and stop reading. Each
            // connection gets a `write` now, which drops its read
            // interest and closes it if nothing is left to flush or wait
            // for.
            self.drain_until = Some(Instant::now() + self.drain_deadline);
            let _ = self.poller.deregister(&self.listener);
            for (&id, conn) in self.conns.iter_mut() {
                conn.closing = true;
                conn.mark_dirty(id, &mut self.dirty);
            }
            return self.flush_dirty();
        }
        for ev in ready {
            match ev.token {
                LISTENER => self.accept_ready(),
                WAKER => {
                    self.completions.waker.ack();
                    // The ack also consumes the wake of a stop raised
                    // after this turn's check: raise it again, so the
                    // next wait returns and the next turn drains.
                    if self.drain_until.is_none() && self.shared.stopping.load(Ordering::SeqCst) {
                        self.completions.waker.wake();
                    }
                }
                Token(id) => {
                    if ev.readable {
                        self.read_ready(id);
                    }
                    if ev.writable || ev.error {
                        if let Some(conn) = self.conns.get_mut(&id) {
                            conn.mark_dirty(id, &mut self.dirty);
                        }
                    }
                }
            }
        }
        self.drain_completions();
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
    /// order. Every INGEST joins the pass's gather, a traced one alone;
    /// before any other frame the gather is submitted. Any other request
    /// is then answered here and now, or submitted to its shard with a
    /// completion; at the in-flight cap parsing stops (the remainder
    /// stays buffered; [`EventLoop::drain_completions`] re-parses when a
    /// reply takes the connection off the cap). The pass ends with one
    /// last submit.
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
                            if span.is_some() && !gather.submit(shared, conn, cap, None) {
                                return self.close(id);
                            }
                            gather.push(&shared.engine, entries, tag, started);
                            if span.is_some() && !gather.submit(shared, conn, cap, span) {
                                return self.close(id);
                            }
                            continue;
                        }
                        frame => frame,
                    };
                    if !gather.submit(shared, conn, cap, None) {
                        return self.close(id);
                    }
                    conn.shutdown_after |= matches!(frame, Frame::Shutdown);
                    let started = rec.enabled().then(Instant::now);
                    let span = OpenSpan::open(client_ctx(tag), Stage::Dispatch, rec);
                    let completions = Arc::clone(&self.completions);
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
        if !gather.submit(shared, conn, cap, None) {
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
            // The shutdown reply reached the kernel; now request stop as
            // `Server::shutdown` does, and the next turn starts the
            // drain, which closes this connection.
            self.shared.stopping.store(true, Ordering::SeqCst);
            self.completions.waker.wake();
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
    /// connections a reply takes off the cap. The queue is swapped
    /// against the spare buffer, so a shard that finishes after the swap
    /// pushes into an empty queue and wakes the loop again.
    fn drain_completions(&mut self) {
        let queue = &self.completions.queue;
        let mut done = std::mem::take(&mut self.spare);
        std::mem::swap(
            &mut *queue.lock().unwrap_or_else(PoisonError::into_inner),
            &mut done,
        );
        for (id, tag, started, span, reply) in done.drain(..) {
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
        self.spare = done;
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

#[cfg(test)]
mod tests;
