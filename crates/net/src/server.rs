//! The TCP server: a [`waves_engine::Engine`] plus the referee
//! ([`MonitorReferee`]) behind the frame protocol, served by one
//! event-loop thread (`event_loop.rs`) beside the engine's shard workers
//! and no other. [`Server::start`] builds the loop, registering the
//! listener, before it spawns that thread.
//!
//! Every request starts on the loop, in arrival order, and the loop
//! never waits on a shard. PING, PUSH_SYNOPSIS, PUSH_DELTA, COMBINE,
//! STATS and SHUTDOWN are answered there and then (`dispatch`); QUERY,
//! FLUSH, SNAPSHOT, REPLICATE and FETCH go to [`Engine::submit`] with a
//! completion, and the shard's reply completes back on the loop; INGEST
//! frames are gathered into one engine batch per shard per pass. Every
//! INGEST decoded ahead of another frame of its connection is on its
//! shard's queue before that frame starts, so a request sent behind an
//! INGEST observes it. Replies carry no such order: the correlation id
//! pairs them.
//!
//! Backpressure is explicit at both ends: at [`ServerConfig::max_inflight`]
//! requests awaiting a shard a connection is not read until replies
//! drain, and one whose out-buffer would pass
//! [`ServerConfig::max_write_queue`] bytes is evicted. Shutdown
//! ([`Server::shutdown`], a client [`Frame::Shutdown`], or [`Drop`])
//! raises the stop flag and wakes the loop, whose next turn starts a
//! drain bounded by [`ServerConfig::drain_deadline`]: so dropping a
//! `Server` cannot leak threads, file descriptors, or the bound port, and
//! a replied shutdown frame reaches its sender.

use std::net::{SocketAddr, TcpListener, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::Duration;

use poll::Waker;
use waves_core::{DetWave, WaveError};
use waves_distributed::{MonitorDelta, MonitorReferee};
use waves_engine::{Engine, EngineConfig, ShardRequest};
use waves_obs::trace::TraceCtx;
use waves_obs::{MetricId, NoopRecorder, Recorder};

use crate::event_loop::EventLoop;
use crate::frame::{Frame, SynopsisKind};

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

/// What the server handle and its loop share. Shard threads never hold
/// it (see the loop's completion queue).
pub(crate) struct Shared {
    pub(crate) engine: Engine<DetWave, dyn Recorder + Send + Sync>,
    /// The referee behind PUSH_SYNOPSIS, PUSH_DELTA and COMBINE. Only
    /// the loop thread serves them; the lock is for [`Server`]'s
    /// accessors on other threads.
    pub(crate) referee: Mutex<MonitorReferee>,
    pub(crate) rec: Arc<dyn Recorder + Send + Sync>,
    pub(crate) slow_request: Option<Duration>,
    /// Stop requested; the loop's next turn starts the drain.
    pub(crate) stopping: AtomicBool,
}

/// A running server. Bind with [`Server::start`] (or
/// [`Server::start_recorded`] to report into a recorder such as a
/// shared `MetricsRegistry`), query [`Server::local_addr`] for the
/// actual port when binding port 0, and either [`Server::wait`] for a
/// client-driven [`Frame::Shutdown`] or drop the handle to stop.
pub struct Server {
    shared: Arc<Shared>,
    /// Wakes the loop to see a stop request.
    waker: Arc<Waker>,
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
        let shared = Arc::new(Shared {
            engine,
            referee: Mutex::new(MonitorReferee::new()),
            rec,
            slow_request: cfg.slow_request,
            stopping: AtomicBool::new(false),
        });
        let event_loop =
            EventLoop::new(listener, Arc::clone(&shared), &cfg).map_err(WaveError::io)?;
        let waker = event_loop.waker();
        let event_loop = std::thread::Builder::new()
            .name("waves-net-loop".into())
            .spawn(move || event_loop.run())
            .map_err(WaveError::io)?;
        Ok(Server {
            shared,
            waker,
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
        self.waker.wake();
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

/// Answer a request other than INGEST on the loop thread, or submit it
/// to the engine with `done` as its completion: `None` means submitted.
/// `ctx` is the request's Dispatch span, which a query's engine spans
/// parent to.
pub(crate) fn dispatch(
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
pub(crate) fn invalid_data(msg: impl Into<String>) -> Frame {
    Frame::ErrorResp(WaveError::io(std::io::Error::new(
        std::io::ErrorKind::InvalidData,
        msg.into(),
    )))
}
