//! The blocking client: one TCP connection, request/response framing,
//! configurable timeouts, and bounded retry-with-backoff — plus a
//! pipelined submission path ([`Client::send_many`] /
//! [`Client::ingest_many`]) that keeps a window of correlation-id
//! tagged requests in flight and accepts replies out of order. The
//! one-shot request methods are a pipeline of length one.
//!
//! One transport core sits under every call: the requests a window
//! admits are encoded into one buffer and leave in one `write`; replies
//! land in a read buffer that belongs to the connection, and every
//! complete reply already in it is decoded before the socket is read
//! again. A one-shot call is a `write` and a `read`; a full window of
//! small frames is about three system calls, not three per frame. A
//! redial starts from an empty read buffer — a fragment the dead
//! connection left behind is never decoded — and a reply that arrives
//! whole but fails its checks is stepped over, so it costs the request
//! it answered and the next call starts at a frame boundary. So is the
//! late reply to a request whose read timed out: it answers an earlier
//! call, not this one.
//!
//! Every socket operation runs under a deadline from [`ClientConfig`];
//! a fired deadline surfaces as [`WaveError::Timeout`] naming the
//! operation and its budget, other transport failures as
//! [`WaveError::Io`] with the `std::io::Error` reachable through
//! `source()`. The client never hangs and never panics on a sick peer —
//! the chaos-proxy integration tests hold it to that.
//!
//! Retries are deliberately narrow: only *idempotent* requests (ping,
//! query, flush, snapshot, combine, push-synopsis, push-delta,
//! replicate — the pushes overwrite a slot, and a delta re-send is
//! deduplicated by its sequence number, so a re-send lands on the same
//! state) are
//! retried, only on errors where the request plausibly never executed
//! (connect failures and broken/reset connections), and at most
//! [`RetryPolicy::retries`] times with linear backoff. The whole
//! discipline lives in [`RetryPolicy`] so other layers (the cluster
//! client's failover walk, notably) reuse the same judgment instead of
//! re-deriving it. Ingest is *not* retried: a reply lost after the
//! server applied the batch would double-count on replay.

use std::collections::HashMap;
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream, ToSocketAddrs};
use std::sync::Arc;
use std::time::{Duration, Instant};

use waves_core::{Estimate, WaveError};
use waves_engine::{EngineSnapshot, IngestRequest};
use waves_obs::trace::{OpenSpan, Stage, TraceCtx, TraceId};
use waves_obs::{HistId, MetricId, MetricsSnapshot, NoopRecorder, Recorder};

use crate::frame::{Frame, FrameError, FrameTag, SynopsisKind, WireCodec};

/// Bytes asked of the socket per `read`: a full reply window of small
/// frames, or a slice of one large reply.
const READ_CHUNK: usize = 16 << 10;

/// The retry discipline shared by everything that re-sends requests:
/// the client's idempotent request loop, its connect loop, and the
/// cluster layer's failover walk. Attempt budget plus linear backoff,
/// with the retryability judgment in one place.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RetryPolicy {
    /// Retry attempts after the first failure (0 disables retries).
    pub retries: u32,
    /// Backoff before retry `k` is `backoff * k` (linear).
    pub backoff: Duration,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        RetryPolicy {
            retries: 2,
            backoff: Duration::from_millis(50),
        }
    }
}

impl RetryPolicy {
    /// No retries at all: fail on the first error.
    pub fn none() -> Self {
        RetryPolicy {
            retries: 0,
            backoff: Duration::ZERO,
        }
    }

    /// The sleep before retry attempt `attempt` (1-based): linear
    /// backoff, `backoff * attempt`.
    pub fn delay(&self, attempt: u32) -> Duration {
        self.backoff * attempt
    }

    /// Transport errors where the request plausibly never ran
    /// server-side, so re-sending an idempotent request is safe.
    /// Timeouts and server-side errors are *not* retryable: the request
    /// may have executed.
    pub fn is_retryable(e: &WaveError) -> bool {
        match e {
            WaveError::Io(io) => matches!(
                io.kind(),
                std::io::ErrorKind::ConnectionReset
                    | std::io::ErrorKind::ConnectionAborted
                    | std::io::ErrorKind::BrokenPipe
                    | std::io::ErrorKind::NotConnected
                    | std::io::ErrorKind::UnexpectedEof
                    | std::io::ErrorKind::ConnectionRefused
            ),
            _ => false,
        }
    }

    /// Drive `op` under this policy: call it with the attempt number
    /// (0 for the first try), and re-call after sleeping [`Self::delay`]
    /// while the error is [`Self::is_retryable`] and the budget allows.
    pub fn run<T>(&self, mut op: impl FnMut(u32) -> Result<T, WaveError>) -> Result<T, WaveError> {
        let mut attempt = 0u32;
        loop {
            match op(attempt) {
                Ok(v) => return Ok(v),
                Err(e) => {
                    attempt += 1;
                    if attempt > self.retries || !Self::is_retryable(&e) {
                        return Err(e);
                    }
                    std::thread::sleep(self.delay(attempt));
                }
            }
        }
    }
}

/// Client transport knobs. The defaults suit loopback and LAN use;
/// every field is a hard budget, not a hint.
#[derive(Debug, Clone)]
pub struct ClientConfig {
    /// Budget for establishing the TCP connection (per attempt).
    pub connect_timeout: Duration,
    /// Socket read timeout: the longest a single reply may take.
    pub read_timeout: Duration,
    /// Socket write timeout: the longest a single request may take to
    /// drain into the send buffer.
    pub write_timeout: Duration,
    /// Retry budget and backoff for idempotent requests and connects.
    pub retry: RetryPolicy,
}

impl Default for ClientConfig {
    fn default() -> Self {
        ClientConfig {
            connect_timeout: Duration::from_secs(5),
            read_timeout: Duration::from_secs(5),
            write_timeout: Duration::from_secs(5),
            retry: RetryPolicy::default(),
        }
    }
}

/// A blocking connection to a `waves-net` server.
///
/// A complete loopback round trip (ephemeral port, server shut down
/// at the end):
///
/// ```
/// use waves_engine::IngestRequest;
/// use waves_net::{Client, Server, ServerConfig};
///
/// let server = Server::start("127.0.0.1:0", ServerConfig::default()).unwrap();
/// let mut client = Client::connect(server.local_addr()).unwrap();
/// client.ping().unwrap();
/// client.ingest(IngestRequest::of(7, [true, true, false])).unwrap();
/// client.flush().unwrap(); // barrier: the batch is applied
/// assert_eq!(client.query(7, 1024).unwrap().value, 2.0);
/// client.shutdown_server().unwrap();
/// server.wait();
/// ```
pub struct Client {
    stream: TcpStream,
    addr: SocketAddr,
    cfg: ClientConfig,
    rec: Arc<dyn Recorder + Send + Sync>,
    /// Trace id allocated for the most recent traced request, so a
    /// caller holding the span sink can look the request's tree up.
    last_trace: Option<TraceId>,
    /// Next wire v6 correlation id. Starts at 1 and never repeats on
    /// this connection (0 is reserved for frames outside a pipeline).
    next_corr: u64,
    /// The current window's requests, encoded back to back for one
    /// `write`.
    wbuf: Vec<u8>,
    /// Reply bytes read off this connection and not yet decoded.
    rbuf: Vec<u8>,
    /// Landing area for socket reads, allocated once.
    chunk: Vec<u8>,
}

impl Client {
    /// Connect with default timeouts and observability disabled.
    pub fn connect<A: ToSocketAddrs>(addr: A) -> Result<Self, WaveError> {
        Self::connect_with(addr, ClientConfig::default(), Arc::new(NoopRecorder))
    }

    /// Connect with explicit transport knobs, recording request latency
    /// and frame/byte counters into `rec` (`Arc::new(NoopRecorder)` to
    /// record nothing).
    pub fn connect_with<A: ToSocketAddrs>(
        addr: A,
        cfg: ClientConfig,
        rec: Arc<dyn Recorder + Send + Sync>,
    ) -> Result<Self, WaveError> {
        let addr = addr
            .to_socket_addrs()
            .map_err(WaveError::io)?
            .next()
            .ok_or_else(|| {
                WaveError::io(std::io::Error::new(
                    std::io::ErrorKind::InvalidInput,
                    "address resolved to nothing",
                ))
            })?;
        let stream = cfg.retry.run(|_| dial(addr, &cfg))?;
        Ok(Client {
            stream,
            addr,
            cfg,
            rec,
            last_trace: None,
            next_corr: 1,
            wbuf: Vec::new(),
            rbuf: Vec::new(),
            chunk: vec![0; READ_CHUNK],
        })
    }

    /// The server address this client talks to.
    pub fn peer_addr(&self) -> SocketAddr {
        self.addr
    }

    /// Whether the server has closed this connection, read without
    /// blocking and without sending: an end of stream (or a reset) is
    /// already waiting on the socket. A caller that must not send a
    /// non-idempotent request into the void checks this first, while
    /// nothing has left the client.
    pub fn peer_closed(&self) -> bool {
        if self.stream.set_nonblocking(true).is_err() {
            return true;
        }
        let closed = match self.stream.peek(&mut [0u8; 1]) {
            Ok(n) => n == 0,
            Err(e) => e.kind() != std::io::ErrorKind::WouldBlock,
        };
        self.stream.set_nonblocking(false).is_err() || closed
    }

    /// The trace id of the most recent traced request, or `None` if no
    /// request has been traced yet (tracing is on only when the
    /// recorder's [`Recorder::trace_enabled`] is `true`).
    pub fn last_trace(&self) -> Option<TraceId> {
        self.last_trace
    }

    // ---- the request surface ----

    /// Liveness probe.
    pub fn ping(&mut self) -> Result<(), WaveError> {
        match self.request(&Frame::Ping, self.cfg.retry)? {
            Frame::Pong => Ok(()),
            other => Err(unexpected(other)),
        }
    }

    /// The single ingest entry point, mirroring [`waves_engine::Engine::ingest`]:
    /// the request's word-packed entries travel as one wire v4 `INGEST`
    /// frame. Not retried (not idempotent).
    ///
    /// Only `entries` crosses the wire. `blocking` is a local-delivery
    /// knob with no remote meaning — the server applies batches through
    /// its own queue policy and surfaces a full shard queue as a
    /// [`WaveError::Backpressure`] error response — and `ctx` is
    /// superseded by the client's own per-request tracing (the header
    /// trace id).
    pub fn ingest(&mut self, req: IngestRequest) -> Result<(), WaveError> {
        self.request(&Frame::Ingest(req.entries), RetryPolicy::none())
            .and_then(expect_ok)
    }

    /// Window query against one key's synopsis on the server.
    pub fn query(&mut self, key: u64, window: u64) -> Result<Estimate, WaveError> {
        match self.request(&Frame::Query { key, window }, self.cfg.retry)? {
            Frame::EstimateResp(est) => Ok(est),
            other => Err(unexpected(other)),
        }
    }

    /// Barrier: returns once the server has drained all shard queues.
    pub fn flush(&mut self) -> Result<(), WaveError> {
        self.request(&Frame::Flush, self.cfg.retry)
            .and_then(expect_ok)
    }

    /// Fetch the server engine's point-in-time snapshot.
    pub fn snapshot(&mut self) -> Result<EngineSnapshot, WaveError> {
        match self.request(&Frame::Snapshot, self.cfg.retry)? {
            Frame::SnapshotResp(s) => Ok(s),
            other => Err(unexpected(other)),
        }
    }

    /// Fetch the server's live metrics snapshot — counters, histograms
    /// (with buckets, so quantiles recompute exactly), per-shard and
    /// per-key-family dimensions. Fails with a server-side error if the
    /// server was started without a metrics registry. Idempotent, so it
    /// is retried.
    pub fn stats(&mut self) -> Result<MetricsSnapshot, WaveError> {
        match self.request(&Frame::Stats, self.cfg.retry)? {
            Frame::StatsResp(json) => MetricsSnapshot::from_json(&json).map_err(|e| {
                WaveError::io(std::io::Error::new(
                    std::io::ErrorKind::InvalidData,
                    format!("stats response did not parse: {e}"),
                ))
            }),
            other => Err(unexpected(other)),
        }
    }

    /// Push a party's synopsis to the networked referee: `bytes` are its
    /// own `encode()` output, `kind` names its type. Idempotent (a re-push overwrites the same party slot), so it is
    /// retried.
    pub fn push_synopsis(
        &mut self,
        party: u64,
        kind: SynopsisKind,
        bytes: Vec<u8>,
    ) -> Result<(), WaveError> {
        self.request(&Frame::PushSynopsis { party, kind, bytes }, self.cfg.retry)
            .and_then(expect_ok)
    }

    /// Continuous-monitoring push (wire v7): ship a party's synopsis
    /// delta to the referee after its drift crossed the `slack` budget.
    /// `seq` must be the party's monotone sequence number (what
    /// `waves_distributed::PushParty` emits). Idempotent — the server
    /// installs a delta only if `seq` advances the party's highest
    /// seen and answers Ok either way — so it is retried.
    pub fn push_delta(
        &mut self,
        party: u64,
        seq: u64,
        slack: f64,
        kind: SynopsisKind,
        bytes: Vec<u8>,
    ) -> Result<(), WaveError> {
        self.request(
            &Frame::PushDelta {
                party,
                seq,
                slack,
                kind,
                bytes,
            },
            self.cfg.retry,
        )
        .and_then(expect_ok)
    }

    /// Ship one key's synopsis encode to this server, which installs it
    /// over its local state for that key unless that state is newer —
    /// the wire v5 replication path toward a follower. Idempotent (an
    /// install is a state overwrite, so a re-send converges to the same
    /// state), so it is retried.
    pub fn replicate(
        &mut self,
        key: u64,
        kind: SynopsisKind,
        bytes: Vec<u8>,
    ) -> Result<(), WaveError> {
        self.request(&Frame::Replicate { key, kind, bytes }, self.cfg.retry)
            .and_then(expect_ok)
    }

    /// Read one key's synopsis encode from this server (wire v8): the
    /// bytes a follower installs through [`Client::replicate`]. The
    /// server answers behind every `INGEST` sent ahead on this
    /// connection. Read-only, so it is retried.
    pub fn fetch(&mut self, key: u64) -> Result<(SynopsisKind, Vec<u8>), WaveError> {
        match self.request(&Frame::Fetch { key }, self.cfg.retry)? {
            Frame::Replicate { kind, bytes, .. } => Ok((kind, bytes)),
            other => Err(unexpected(other)),
        }
    }

    /// Referee combine across every pushed party at `window`.
    pub fn combine(&mut self, window: u64) -> Result<Estimate, WaveError> {
        match self.request(&Frame::Combine { window }, self.cfg.retry)? {
            Frame::EstimateResp(est) => Ok(est),
            other => Err(unexpected(other)),
        }
    }

    /// Ask the server to stop. The server acks before exiting.
    pub fn shutdown_server(&mut self) -> Result<(), WaveError> {
        self.request(&Frame::Shutdown, RetryPolicy::none())
            .and_then(expect_ok)
    }

    // ---- the pipelined surface ----

    /// Submit many requests over the connection with up to `window`
    /// in flight at once (wire v6 pipelining), and return the replies
    /// **in request order** regardless of the order the server
    /// completed them — each frame carries a fresh correlation id and
    /// replies are matched back by it.
    ///
    /// Per-request server-side failures come back as
    /// [`Frame::ErrorResp`] entries, not an `Err`: one bad request in
    /// a batch doesn't cost the rest. `Err` means the *transport*
    /// failed (write, read, or a reply with an unknown correlation
    /// id), and the connection should be considered dead: replies for
    /// requests already in flight may have been lost, so nothing is
    /// retried here — idempotent callers can resubmit on a fresh
    /// connection.
    pub fn send_many(&mut self, reqs: &[Frame], window: usize) -> Result<Vec<Frame>, WaveError> {
        let started = self.rec.enabled().then(Instant::now);
        let root = self.begin_trace();
        let replies = self.pipeline(reqs, root.map_or(0, |r| r.ctx().trace.0), window);
        self.end_trace(root);
        if let Some(t0) = started {
            self.rec
                .observe(HistId::NetRequestNs, t0.elapsed().as_nanos() as u64);
        }
        replies
    }

    /// Windowed pipelined ingest: every request's entries travel as
    /// their own `INGEST` frame with up to `window` outstanding.
    /// Returns the number of batches acknowledged `Ok`; the first
    /// server-side error aborts with that error (later batches in the
    /// same pipeline may still have been applied — ingest is not
    /// idempotent, which is why nothing here retries).
    pub fn ingest_many<I>(&mut self, reqs: I, window: usize) -> Result<usize, WaveError>
    where
        I: IntoIterator<Item = IngestRequest>,
    {
        let frames: Vec<Frame> = reqs
            .into_iter()
            .map(|req| Frame::Ingest(req.entries))
            .collect();
        let replies = self.send_many(&frames, window)?;
        let mut acked = 0usize;
        for reply in replies {
            match reply {
                Frame::Ok => acked += 1,
                Frame::ErrorResp(e) => return Err(e),
                other => return Err(unexpected(other)),
            }
        }
        Ok(acked)
    }

    // ---- transport plumbing ----

    /// Open one request's root span on a fresh trace, if the recorder
    /// wants traces. Its id is the cross-process convention's
    /// `ROOT_SPAN_ID`: the server parents its dispatch span there
    /// without ever seeing this record.
    fn begin_trace(&mut self) -> Option<OpenSpan> {
        let root = OpenSpan::root(&*self.rec)?;
        self.last_trace = Some(root.ctx().trace);
        Some(root)
    }

    fn end_trace(&self, root: Option<OpenSpan>) {
        if let Some(root) = root {
            root.end(&*self.rec);
        }
    }

    /// One request/response exchange under `policy`: the configured
    /// [`ClientConfig::retry`] for idempotent requests — retried only on
    /// transport errors where the request plausibly never executed,
    /// redialling first — and [`RetryPolicy::none`] for everything else.
    /// Timeouts and server-side errors are never retried.
    fn request(&mut self, req: &Frame, policy: RetryPolicy) -> Result<Frame, WaveError> {
        let reply = policy.run(|attempt| {
            if attempt > 0 {
                self.redial()?;
            }
            let started = self.rec.enabled().then(Instant::now);
            // Each attempt is its own trace: a retried request's
            // attempts have distinct wire frames and server dispatches,
            // so merging them under one id would produce a tree with
            // two of every stage.
            let root = self.begin_trace();
            let outcome = self.exchange(req, root.map_or(TraceCtx::NONE, OpenSpan::ctx));
            self.end_trace(root);
            if let (Ok(_), Some(t0)) = (&outcome, started) {
                self.rec
                    .observe(HistId::NetRequestNs, t0.elapsed().as_nanos() as u64);
            }
            outcome
        })?;
        match reply {
            Frame::ErrorResp(e) => Err(e),
            other => Ok(other),
        }
    }

    /// One request/response exchange: the blocking one-shot API is a
    /// pipeline of length one. The wire span covers socket write
    /// through reply read — the client's view of everything beyond its
    /// own process.
    fn exchange(&mut self, req: &Frame, ctx: TraceCtx) -> Result<Frame, WaveError> {
        let wire_span = OpenSpan::open(ctx, Stage::Wire, &*self.rec);
        let mut replies = self.pipeline(std::slice::from_ref(req), ctx.trace.0, 1)?;
        if let Some(span) = wire_span {
            span.end(&*self.rec);
        }
        Ok(replies
            .pop()
            .expect("pipeline returns one reply per request"))
    }

    /// The pipelined transport core under every request: encode every
    /// request the window admits into one buffer and write it once,
    /// decode every complete reply already buffered (possibly out of
    /// order) before reading again, slot each into its request's
    /// position by correlation id. All frames in one call share `trace`
    /// (0 = untraced).
    ///
    /// Correlation ids on a connection only grow, so a reply whose id is
    /// below this call's first answers a request an earlier call gave up
    /// on (its read timed out): it is stepped over, not counted. An
    /// unknown id at or above the first is a transport error.
    fn pipeline(
        &mut self,
        reqs: &[Frame],
        trace: u64,
        window: usize,
    ) -> Result<Vec<Frame>, WaveError> {
        let window = window.max(1);
        let n = reqs.len();
        let mut replies: Vec<Option<Frame>> = std::iter::repeat_with(|| None).take(n).collect();
        let mut inflight: HashMap<u64, usize> = HashMap::with_capacity(window.min(n));
        let mut next = 0usize;
        let mut received = 0usize;
        let first_corr = self.next_corr;
        let enabled = self.rec.enabled();
        let read_ms = self.cfg.read_timeout.as_millis() as u64;
        while received < n {
            self.wbuf.clear();
            let admitted = next;
            while next < n && inflight.len() < window {
                let corr = self.next_corr;
                self.next_corr += 1;
                let at = self.wbuf.len();
                WireCodec::encode_tagged_into(
                    &reqs[next],
                    FrameTag { trace, corr },
                    &mut self.wbuf,
                );
                if enabled {
                    self.rec
                        .observe(HistId::NetFrameBytes, (self.wbuf.len() - at) as u64);
                }
                inflight.insert(corr, next);
                next += 1;
            }
            if next > admitted {
                self.stream.write_all(&self.wbuf).map_err(|e| {
                    WaveError::from_io("write", e, self.cfg.write_timeout.as_millis() as u64)
                })?;
                if enabled {
                    self.rec
                        .incr(MetricId::NetFramesSent, (next - admitted) as u64);
                    self.rec
                        .incr(MetricId::NetBytesSent, self.wbuf.len() as u64);
                }
            }
            let mut consumed = 0;
            let decoded = loop {
                let rest = &self.rbuf[consumed..];
                let (reply, used, tag) = match WireCodec::decode_tagged(rest) {
                    Ok(decoded) => decoded,
                    Err(FrameError::Truncated) => break Ok(()),
                    Err(e) => {
                        // A reply that fails its checks is spent with
                        // the request it answered: step over it, so the
                        // call after this one starts at a frame
                        // boundary — or over everything buffered, when
                        // the header itself cannot be trusted for a
                        // length.
                        consumed += match e {
                            FrameError::BadMagic
                            | FrameError::BadVersion(_)
                            | FrameError::FrameTooLarge(_) => rest.len(),
                            _ => WireCodec::encoded_len(rest),
                        };
                        break Err(WaveError::from_io("read", e.into(), read_ms));
                    }
                };
                consumed += used;
                if enabled {
                    self.rec.incr(MetricId::NetFramesReceived, 1);
                    self.rec.incr(MetricId::NetBytesReceived, used as u64);
                }
                let Some(idx) = inflight.remove(&tag.corr) else {
                    if tag.corr < first_corr {
                        continue;
                    }
                    break Err(WaveError::io(std::io::Error::new(
                        std::io::ErrorKind::InvalidData,
                        format!("reply with unknown correlation id {}", tag.corr),
                    )));
                };
                replies[idx] = Some(reply);
                received += 1;
            };
            self.rbuf.drain(..consumed);
            decoded?;
            if consumed == 0 {
                self.fill_rbuf()
                    .map_err(|e| WaveError::from_io("read", e, read_ms))?;
            }
        }
        Ok(replies
            .into_iter()
            .map(|r| r.expect("every slot filled once received == n"))
            .collect())
    }

    /// One `read` into the reply buffer, under the socket's read
    /// timeout. EOF with replies outstanding is `UnexpectedEof` — the
    /// retryable "peer went away" kind.
    fn fill_rbuf(&mut self) -> std::io::Result<()> {
        loop {
            match self.stream.read(&mut self.chunk) {
                Ok(0) => return Err(std::io::ErrorKind::UnexpectedEof.into()),
                Ok(n) => {
                    self.rbuf.extend_from_slice(&self.chunk[..n]);
                    return Ok(());
                }
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
                Err(e) => return Err(e),
            }
        }
    }

    /// Replace a dead connection. Whatever reply fragment it left in
    /// the read buffer belongs to it, not to its successor.
    fn redial(&mut self) -> Result<(), WaveError> {
        self.stream = dial(self.addr, &self.cfg)?;
        self.rbuf.clear();
        Ok(())
    }
}

/// One connection attempt with the configured socket budgets; callers
/// drive it under [`RetryPolicy::run`].
fn dial(addr: SocketAddr, cfg: &ClientConfig) -> Result<TcpStream, WaveError> {
    let stream = TcpStream::connect_timeout(&addr, cfg.connect_timeout)
        .map_err(|e| WaveError::from_io("connect", e, cfg.connect_timeout.as_millis() as u64))?;
    stream
        .set_read_timeout(Some(cfg.read_timeout))
        .map_err(WaveError::io)?;
    stream
        .set_write_timeout(Some(cfg.write_timeout))
        .map_err(WaveError::io)?;
    let _ = stream.set_nodelay(true);
    Ok(stream)
}

fn expect_ok(reply: Frame) -> Result<(), WaveError> {
    match reply {
        Frame::Ok => Ok(()),
        other => Err(unexpected(other)),
    }
}

fn unexpected(frame: Frame) -> WaveError {
    WaveError::io(std::io::Error::new(
        std::io::ErrorKind::InvalidData,
        format!("unexpected reply frame: {frame:?}"),
    ))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn retry_policy_delay_is_linear() {
        let p = RetryPolicy {
            retries: 3,
            backoff: Duration::from_millis(10),
        };
        assert_eq!(p.delay(1), Duration::from_millis(10));
        assert_eq!(p.delay(3), Duration::from_millis(30));
        assert_eq!(RetryPolicy::none().delay(5), Duration::ZERO);
    }

    #[test]
    fn retryability_judgment_is_connection_shaped() {
        let reset = WaveError::io(std::io::Error::from(std::io::ErrorKind::ConnectionReset));
        assert!(RetryPolicy::is_retryable(&reset));
        let timeout = WaveError::Timeout {
            op: "read",
            millis: 5,
        };
        assert!(!RetryPolicy::is_retryable(&timeout));
        assert!(!RetryPolicy::is_retryable(&WaveError::InvalidWindow(0)));
    }

    #[test]
    fn run_retries_up_to_budget_then_surfaces_the_error() {
        let p = RetryPolicy {
            retries: 2,
            backoff: Duration::ZERO,
        };
        let mut calls = 0u32;
        let out: Result<(), _> = p.run(|attempt| {
            assert_eq!(attempt, calls);
            calls += 1;
            Err(WaveError::io(std::io::Error::from(
                std::io::ErrorKind::ConnectionRefused,
            )))
        });
        assert!(out.is_err());
        assert_eq!(calls, 3, "first try + two retries");

        // Non-retryable errors short-circuit.
        let mut calls = 0u32;
        let out: Result<(), _> = p.run(|_| {
            calls += 1;
            Err(WaveError::InvalidWindow(0))
        });
        assert!(out.is_err());
        assert_eq!(calls, 1);

        // Success passes straight through.
        let ok = p.run(|attempt| if attempt == 0 { Ok(7) } else { unreachable!() });
        assert_eq!(ok.unwrap(), 7);
    }
}
