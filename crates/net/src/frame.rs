//! The wire protocol: versioned, length-prefixed binary frames.
//!
//! Every message on the wire is one frame:
//!
//! ```text
//! offset  size  field
//! 0       2     magic  0x57 0x41  (b"WA")
//! 2       1     version (currently 8)
//! 3       1     frame type (see the `TYPE_*` constants)
//! 4       4     payload length, u32 big-endian
//! 8       8     trace id, u64 big-endian (0 = request is untraced)
//! 16      8     correlation id, u64 big-endian (0 = unpipelined)
//! 24      len   payload
//! 24+len  4     CRC-32 of bytes [0, 24+len), u32 big-endian
//! ```
//!
//! The correlation id pairs pipelined responses with their requests: a
//! client may have many frames in flight on one connection, the server
//! may answer them in any order, and each response echoes the request's
//! correlation id verbatim (PROTOCOL.md §1.1a has the full rules).
//!
//! The fixed 24-byte header makes framing self-describing: a reader
//! pulls the header, validates magic/version, bounds-checks the
//! length against [`MAX_PAYLOAD_LEN`], then reads exactly `len` payload
//! bytes plus the 4-byte CRC trailer. Anything that fails those checks
//! is rejected *before* any allocation proportional to the claimed
//! length, so a corrupt or adversarial length field cannot OOM the
//! peer.
//!
//! The CRC-32 trailer (same IEEE 802.3 polynomial as the store's
//! on-disk records) covers header *and* payload, and is verified
//! before any payload field is interpreted. Wire version 1 had no
//! trailer, and the deterministic simulation harness (`waves-dst`)
//! caught the consequence: a single byte flipped in transit inside an
//! estimate reply's payload decoded silently into a wrong answer. With
//! the trailer, corruption anywhere in a frame surfaces as
//! [`FrameError::BadCrc`] — a typed error, never a wrong value.
//!
//! Payload scalars are big-endian; `f64` travels as `to_bits()`.
//! [`Frame::Ingest`] entry bodies are the one exception: they carry the
//! word-packed bit stream of [`waves_core::Bits`] as whole `u64` words
//! of 8 **little-endian** bytes each (LSB-first within each word), so a
//! received batch is applied 64 bits per instruction with no per-bit
//! re-marshalling — and the same bytes are what the engine's WAL
//! appends, so wire and disk stay byte-identical.
//! Synopsis payloads ([`Frame::PushSynopsis`]) carry the synopsis's own
//! compact bit-codec output **verbatim** — the wire layer never
//! re-encodes them, so a synopsis round-trips the network byte-for-byte
//! (property-tested in this crate for all four synopsis types).

use waves_core::{Estimate, WaveError};
pub use waves_distributed::SynopsisKind;
use waves_engine::{EngineSnapshot, KeyedBits, ShardSnapshot};
use waves_store::bytes::{ByteReader, Short};
use waves_store::crc::crc32;
use waves_store::wal::{decode_entries, encode_entries};

/// First two header bytes of every frame.
pub const MAGIC: [u8; 2] = *b"WA";

/// Current protocol version. Bump on any incompatible layout change;
/// peers reject other versions with [`FrameError::BadVersion`].
/// Version 2 added the CRC-32 frame trailer; version 3 widened the
/// header from 8 to 16 bytes to carry a trace id (0 = untraced) so a
/// request's spans can be correlated across client and server; version
/// 4 switched `INGEST` entry bodies from MSB-first packed bytes to
/// LSB-first little-endian `u64` words (the [`waves_core::Bits`]
/// layout, shared with the store's WAL records); version 5 added the
/// `REPLICATE` request (`0x0A`), by which a cluster primary ships a
/// key's synopsis `encode()` bytes to its follower replicas; version 6
/// widened the header from 16 to 24 bytes to carry a correlation id
/// (0 = unpipelined) so requests can be pipelined and responses
/// completed out of order; version 7 added the `PUSH_DELTA` request
/// (`0x0B`), the continuous-monitoring push: a party ships its
/// synopsis only when local drift crosses its ε-slack budget, with a
/// per-party sequence number so the referee folds deltas exactly once
/// and in order; version 8 added the `FETCH` request (`0x0C`), by which
/// a cluster client reads one key's synopsis bytes from the replica
/// that holds them, answered with a `REPLICATE` frame.
pub const WIRE_VERSION: u8 = 8;

/// Fixed header size in bytes (magic + version + type + length +
/// trace id + correlation id).
pub const HEADER_LEN: usize = 24;

/// Size of the CRC-32 trailer that follows every payload.
pub const CRC_LEN: usize = 4;

/// Upper bound on a frame payload. A claimed length above this is
/// treated as corruption ([`FrameError::FrameTooLarge`]) rather than an
/// allocation request.
pub const MAX_PAYLOAD_LEN: usize = 64 << 20;

// Request frame types (client -> server).
const TYPE_PING: u8 = 0x01;
const TYPE_INGEST: u8 = 0x02;
const TYPE_QUERY: u8 = 0x03;
const TYPE_FLUSH: u8 = 0x04;
const TYPE_SNAPSHOT: u8 = 0x05;
const TYPE_PUSH_SYNOPSIS: u8 = 0x06;
const TYPE_COMBINE: u8 = 0x07;
const TYPE_SHUTDOWN: u8 = 0x08;
const TYPE_STATS: u8 = 0x09;
const TYPE_REPLICATE: u8 = 0x0A;
const TYPE_PUSH_DELTA: u8 = 0x0B;
const TYPE_FETCH: u8 = 0x0C;

// Response frame types (server -> client). High bit set.
const TYPE_OK: u8 = 0x80;
const TYPE_PONG: u8 = 0x81;
const TYPE_ESTIMATE: u8 = 0x82;
const TYPE_SNAPSHOT_RESP: u8 = 0x83;
const TYPE_STATS_RESP: u8 = 0x84;
const TYPE_ERROR: u8 = 0x8F;

/// The [`SynopsisKind`] a wire byte names (the byte is `kind as u8`).
fn kind_from_wire(b: u8) -> Result<SynopsisKind, FrameError> {
    match b {
        0 => Ok(SynopsisKind::DetWave),
        1 => Ok(SynopsisKind::SumWave),
        2 => Ok(SynopsisKind::EhCount),
        3 => Ok(SynopsisKind::EhSum),
        _ => Err(FrameError::Malformed("unknown synopsis kind")),
    }
}

/// One protocol message. Requests flow client -> server, responses
/// server -> client; [`WireCodec`] maps each variant to exactly one
/// frame type byte.
#[derive(Debug, Clone, PartialEq)]
pub enum Frame {
    // ---- requests ----
    /// Liveness probe; the server answers [`Frame::Pong`].
    Ping,
    /// A batch of keyed word-packed bit runs for the serving engine.
    Ingest(Vec<KeyedBits>),
    /// Window query against one key's synopsis.
    Query { key: u64, window: u64 },
    /// Barrier: drain all shard queues before replying.
    Flush,
    /// Ask for the engine's [`EngineSnapshot`].
    Snapshot,
    /// A party pushes its synopsis encode to the networked referee.
    PushSynopsis {
        party: u64,
        kind: SynopsisKind,
        bytes: Vec<u8>,
    },
    /// Referee combine: query every pushed party synopsis at `window`
    /// and sum the estimates (the paper's additive combine rule).
    Combine { window: u64 },
    /// Ask the server to stop accepting connections and exit.
    Shutdown,
    /// Ask for the server's live [`waves_obs::MetricsSnapshot`].
    Stats,
    /// One key's synopsis `encode()` bytes, shipped to a follower
    /// replica, which installs them over its local state for that key
    /// unless that state is newer. Same payload shape as
    /// [`Frame::PushSynopsis`], but the receiver *replaces* engine state
    /// instead of filing a referee entry — replication, not
    /// aggregation. Also the answer to [`Frame::Fetch`].
    Replicate {
        key: u64,
        kind: SynopsisKind,
        bytes: Vec<u8>,
    },
    /// Continuous-monitoring push (wire v7): a party whose local drift
    /// crossed its ε-slack budget ships its current synopsis encode to
    /// the referee. `seq` is a per-party monotone sequence number — the
    /// receiver installs the delta only if it advances the highest seen
    /// for `party`, so retries and late reordered deltas are no-ops
    /// (still answered [`Frame::Ok`], which is what makes the request
    /// idempotent). `slack` carries the party's drift budget so the
    /// referee can report a staleness bound without out-of-band
    /// configuration.
    PushDelta {
        party: u64,
        seq: u64,
        slack: f64,
        kind: SynopsisKind,
        bytes: Vec<u8>,
    },
    /// Read one key's synopsis `encode()` bytes (wire v8); the server
    /// answers [`Frame::Replicate`] carrying them.
    Fetch { key: u64 },

    // ---- responses ----
    /// Generic success for requests with no payload to return.
    Ok,
    /// Answer to [`Frame::Ping`].
    Pong,
    /// Answer to [`Frame::Query`] / [`Frame::Combine`].
    EstimateResp(Estimate),
    /// Answer to [`Frame::Snapshot`].
    SnapshotResp(EngineSnapshot),
    /// Answer to [`Frame::Stats`]: the server's metrics snapshot as the
    /// JSON text produced by `MetricsSnapshot::to_json`. It travels as
    /// text (not a binary struct) so the schema can grow — new counters,
    /// new histogram fields — without a wire version bump; unknown
    /// fields are simply dropped by `MetricsSnapshot::from_json`.
    StatsResp(String),
    /// The request failed; carries the server-side [`WaveError`].
    ErrorResp(WaveError),
}

/// Why a byte sequence failed to parse as a frame.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FrameError {
    /// The first two bytes were not [`MAGIC`].
    BadMagic,
    /// Unsupported protocol version byte.
    BadVersion(u8),
    /// Frame type byte names no known frame.
    UnknownType(u8),
    /// Claimed payload length exceeds [`MAX_PAYLOAD_LEN`].
    FrameTooLarge(u32),
    /// The buffer ended before the frame did.
    Truncated,
    /// The CRC-32 trailer did not match the header + payload bytes.
    BadCrc { expected: u32, got: u32 },
    /// Structurally valid frame whose payload contents are nonsense.
    Malformed(&'static str),
}

impl std::fmt::Display for FrameError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FrameError::BadMagic => write!(f, "bad frame magic"),
            FrameError::BadVersion(v) => {
                write!(f, "unsupported wire version {v} (expected {WIRE_VERSION})")
            }
            FrameError::UnknownType(t) => write!(f, "unknown frame type 0x{t:02x}"),
            FrameError::FrameTooLarge(n) => {
                write!(
                    f,
                    "frame payload of {n} bytes exceeds cap {MAX_PAYLOAD_LEN}"
                )
            }
            FrameError::Truncated => write!(f, "truncated frame"),
            FrameError::BadCrc { expected, got } => {
                write!(
                    f,
                    "frame checksum mismatch: trailer {expected:#010x}, computed {got:#010x}"
                )
            }
            FrameError::Malformed(what) => write!(f, "malformed frame payload: {what}"),
        }
    }
}

impl std::error::Error for FrameError {}

impl From<FrameError> for std::io::Error {
    fn from(e: FrameError) -> Self {
        std::io::Error::new(std::io::ErrorKind::InvalidData, e)
    }
}

/// Running past a payload is malformed, not truncated: the frame is
/// whole (its CRC matched), so no further read can complete it.
impl From<Short> for FrameError {
    fn from(_: Short) -> Self {
        FrameError::Malformed("payload ends early")
    }
}

// ---------------------------------------------------------------------------
// Payload primitives
// ---------------------------------------------------------------------------

fn put_u32(out: &mut Vec<u8>, v: u32) {
    out.extend_from_slice(&v.to_be_bytes());
}

fn put_u64(out: &mut Vec<u8>, v: u64) {
    out.extend_from_slice(&v.to_be_bytes());
}

/// A synopsis as PUSH_SYNOPSIS, REPLICATE and PUSH_DELTA carry it: kind
/// byte, u32 length, `encode()` bytes. [`synopsis`] reads it back.
fn put_synopsis(out: &mut Vec<u8>, kind: SynopsisKind, bytes: &[u8]) {
    out.push(kind as u8);
    put_u32(out, bytes.len() as u32);
    out.extend_from_slice(bytes);
}

fn synopsis(r: &mut ByteReader<'_>) -> Result<(SynopsisKind, Vec<u8>), FrameError> {
    let kind = kind_from_wire(r.u8()?)?;
    let len = r.u32()? as usize;
    Ok((kind, r.take(len)?.to_vec()))
}

// ---------------------------------------------------------------------------
// WaveError <-> wire
// ---------------------------------------------------------------------------

// Error codes carried in an ERROR frame payload: code u8, two u64 args
// (f64 args travel as to_bits), then a length-prefixed utf-8 detail
// string used only by the opaque codes.
const ERR_INVALID_EPSILON: u8 = 1;
const ERR_INVALID_DELTA: u8 = 2;
const ERR_INVALID_WINDOW: u8 = 3;
const ERR_WINDOW_TOO_LARGE: u8 = 4;
const ERR_VALUE_TOO_LARGE: u8 = 5;
const ERR_POSITION_REGRESSED: u8 = 6;
const ERR_TOO_MANY_ITEMS: u8 = 7;
const ERR_INVALID_QUANTILE: u8 = 8;
const ERR_BACKPRESSURE: u8 = 9;
const ERR_UNKNOWN_KEY: u8 = 10;
const ERR_REMOTE: u8 = 11;

fn encode_error(e: &WaveError, out: &mut Vec<u8>) {
    let (code, a, b, msg): (u8, u64, u64, String) = match e {
        WaveError::InvalidEpsilon(x) => (ERR_INVALID_EPSILON, x.to_bits(), 0, String::new()),
        WaveError::InvalidDelta(x) => (ERR_INVALID_DELTA, x.to_bits(), 0, String::new()),
        WaveError::InvalidWindow(n) => (ERR_INVALID_WINDOW, *n, 0, String::new()),
        WaveError::WindowTooLarge { requested, max } => {
            (ERR_WINDOW_TOO_LARGE, *requested, *max, String::new())
        }
        WaveError::ValueTooLarge { value, max } => {
            (ERR_VALUE_TOO_LARGE, *value, *max, String::new())
        }
        WaveError::PositionRegressed { last, got } => {
            (ERR_POSITION_REGRESSED, *last, *got, String::new())
        }
        WaveError::TooManyItemsInWindow { bound } => (ERR_TOO_MANY_ITEMS, *bound, 0, String::new()),
        WaveError::InvalidQuantile(q) => (ERR_INVALID_QUANTILE, q.to_bits(), 0, String::new()),
        WaveError::Backpressure { shard } => (ERR_BACKPRESSURE, *shard as u64, 0, String::new()),
        WaveError::UnknownKey { key } => (ERR_UNKNOWN_KEY, *key, 0, String::new()),
        // The io::Error payload and the &'static str op name cannot
        // cross the wire structurally; they travel as text and decode
        // to an opaque remote error.
        WaveError::Io(_) | WaveError::Timeout { .. } => (ERR_REMOTE, 0, 0, e.to_string()),
        // `WaveError` is non_exhaustive: future variants degrade to the
        // opaque remote code rather than breaking the protocol.
        other => (ERR_REMOTE, 0, 0, other.to_string()),
    };
    out.push(code);
    put_u64(out, a);
    put_u64(out, b);
    let msg = msg.as_bytes();
    let len = msg.len().min(u16::MAX as usize);
    out.extend_from_slice(&(len as u16).to_be_bytes());
    out.extend_from_slice(&msg[..len]);
}

fn decode_error(r: &mut ByteReader<'_>) -> Result<WaveError, FrameError> {
    let code = r.u8()?;
    let a = r.u64()?;
    let b = r.u64()?;
    let msg_len = r.u16()? as usize;
    let msg = String::from_utf8_lossy(r.take(msg_len)?).into_owned();
    Ok(match code {
        ERR_INVALID_EPSILON => WaveError::InvalidEpsilon(f64::from_bits(a)),
        ERR_INVALID_DELTA => WaveError::InvalidDelta(f64::from_bits(a)),
        ERR_INVALID_WINDOW => WaveError::InvalidWindow(a),
        ERR_WINDOW_TOO_LARGE => WaveError::WindowTooLarge {
            requested: a,
            max: b,
        },
        ERR_VALUE_TOO_LARGE => WaveError::ValueTooLarge { value: a, max: b },
        ERR_POSITION_REGRESSED => WaveError::PositionRegressed { last: a, got: b },
        ERR_TOO_MANY_ITEMS => WaveError::TooManyItemsInWindow { bound: a },
        ERR_INVALID_QUANTILE => WaveError::InvalidQuantile(f64::from_bits(a)),
        ERR_BACKPRESSURE => WaveError::Backpressure { shard: a as usize },
        ERR_UNKNOWN_KEY => WaveError::UnknownKey { key: a },
        _ => WaveError::io(std::io::Error::other(format!("remote error: {msg}"))),
    })
}

// ---------------------------------------------------------------------------
// WireCodec
// ---------------------------------------------------------------------------

/// The per-frame header metadata that rides beside the payload: the
/// trace id (0 = untraced) and the correlation id (0 = unpipelined).
/// Responses echo both fields of the request they answer.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct FrameTag {
    pub trace: u64,
    pub corr: u64,
}

/// Stateless encoder/decoder between [`Frame`]s and wire bytes. Client
/// and server both reassemble with [`WireCodec::decode_tagged`] over a
/// read buffer; [`WireCodec::read_frame_tagged`] is the blocking
/// one-frame convenience raw-socket tests read replies with.
pub struct WireCodec;

impl WireCodec {
    /// Serialize an untraced, unpipelined frame (header trace and
    /// correlation ids 0): header, payload, CRC-32 trailer, ready to
    /// write.
    pub fn encode(frame: &Frame) -> Vec<u8> {
        Self::encode_tagged(frame, FrameTag::default())
    }

    /// Serialize a frame with the full header tag (trace id and
    /// correlation id).
    pub fn encode_tagged(frame: &Frame, tag: FrameTag) -> Vec<u8> {
        let mut out = Vec::new();
        Self::encode_tagged_into(frame, tag, &mut out);
        out
    }

    /// [`WireCodec::encode_tagged`] appending to `out`, so a batch of
    /// frames can share one buffer (and one `write`). The payload is
    /// encoded in place behind a header whose type and length are
    /// patched in once known; the CRC covers exactly this frame.
    pub fn encode_tagged_into(frame: &Frame, tag: FrameTag, out: &mut Vec<u8>) {
        // From an empty `out`, one allocation holds the header, the
        // trailer and a small payload: every fixed-size reply and a
        // single-word INGEST.
        out.reserve(64);
        let start = out.len();
        out.extend_from_slice(&MAGIC);
        out.push(WIRE_VERSION);
        out.push(0); // type, patched below
        put_u32(out, 0); // payload length, patched below
        put_u64(out, tag.trace);
        put_u64(out, tag.corr);
        let ty = Self::encode_payload(frame, out);
        let len = (out.len() - start - HEADER_LEN) as u32;
        out[start + 3] = ty;
        out[start + 4..start + 8].copy_from_slice(&len.to_be_bytes());
        let sum = crc32(&out[start..]);
        put_u32(out, sum);
    }

    /// Append `frame`'s payload to `p`; returns its type byte.
    fn encode_payload(frame: &Frame, p: &mut Vec<u8>) -> u8 {
        match frame {
            Frame::Ping => TYPE_PING,
            Frame::Flush => TYPE_FLUSH,
            Frame::Snapshot => TYPE_SNAPSHOT,
            Frame::Shutdown => TYPE_SHUTDOWN,
            Frame::Stats => TYPE_STATS,
            Frame::Ok => TYPE_OK,
            Frame::Pong => TYPE_PONG,
            Frame::StatsResp(json) => {
                p.extend_from_slice(json.as_bytes());
                TYPE_STATS_RESP
            }
            Frame::Ingest(batch) => {
                encode_entries(batch, p);
                TYPE_INGEST
            }
            Frame::Query { key, window } => {
                put_u64(p, *key);
                put_u64(p, *window);
                TYPE_QUERY
            }
            Frame::PushSynopsis { party, kind, bytes } => {
                put_u64(p, *party);
                put_synopsis(p, *kind, bytes);
                TYPE_PUSH_SYNOPSIS
            }
            Frame::Replicate { key, kind, bytes } => {
                put_u64(p, *key);
                put_synopsis(p, *kind, bytes);
                TYPE_REPLICATE
            }
            Frame::PushDelta {
                party,
                seq,
                slack,
                kind,
                bytes,
            } => {
                put_u64(p, *party);
                put_u64(p, *seq);
                put_u64(p, slack.to_bits());
                put_synopsis(p, *kind, bytes);
                TYPE_PUSH_DELTA
            }
            Frame::Combine { window } => {
                put_u64(p, *window);
                TYPE_COMBINE
            }
            Frame::Fetch { key } => {
                put_u64(p, *key);
                TYPE_FETCH
            }
            Frame::EstimateResp(e) => {
                put_u64(p, e.value.to_bits());
                put_u64(p, e.lo);
                put_u64(p, e.hi);
                p.push(e.exact as u8);
                TYPE_ESTIMATE
            }
            Frame::SnapshotResp(s) => {
                put_u64(p, s.dropped_items);
                put_u64(p, s.backpressure_events);
                put_u32(p, s.shards.len() as u32);
                for sh in &s.shards {
                    put_u64(p, sh.keys as u64);
                    put_u64(p, sh.resident_bytes as u64);
                    put_u64(p, sh.synopsis_bits);
                    put_u64(p, sh.entries as u64);
                    put_u64(p, sh.queue_depth as u64);
                }
                TYPE_SNAPSHOT_RESP
            }
            Frame::ErrorResp(e) => {
                encode_error(e, p);
                TYPE_ERROR
            }
        }
    }

    /// Parse one frame from the front of `buf`. Returns the frame and
    /// the number of bytes it occupied (so a buffer holding several
    /// frames can be walked). The header's trace and correlation ids
    /// are discarded; use [`WireCodec::decode_tagged`] to keep them.
    pub fn decode(buf: &[u8]) -> Result<(Frame, usize), FrameError> {
        let (frame, used, _tag) = Self::decode_tagged(buf)?;
        Ok((frame, used))
    }

    /// Parse one frame from the front of `buf`, also returning the full
    /// header tag. [`FrameError::Truncated`] means "feed me more bytes"
    /// — the incremental-reassembly contract the event-loop server's
    /// read path is built on.
    pub fn decode_tagged(buf: &[u8]) -> Result<(Frame, usize, FrameTag), FrameError> {
        let Some(header) = buf.get(..HEADER_LEN) else {
            return Err(FrameError::Truncated);
        };
        let header = header.try_into().expect("sliced to HEADER_LEN");
        let (ty, len, tag) = Self::parse_header(header)?;
        let total = HEADER_LEN + len + CRC_LEN;
        let Some(frame) = buf.get(..total) else {
            return Err(FrameError::Truncated);
        };
        let mut r = ByteReader::new(frame);
        let body = r.take(HEADER_LEN + len)?;
        let expected = r.u32()?;
        let got = crc32(body);
        if got != expected {
            return Err(FrameError::BadCrc { expected, got });
        }
        let frame = Self::decode_payload(ty, &body[HEADER_LEN..])?;
        Ok((frame, total, tag))
    }

    /// Wire length of the frame whose header starts `buf`, read from
    /// the length field alone. For walking frames this codec encoded,
    /// or stepping over one whose header passed [`Self::parse_header`]
    /// and whose body did not.
    pub(crate) fn encoded_len(buf: &[u8]) -> usize {
        let len = ByteReader::new(&buf[4..]).u32().expect("a whole header");
        HEADER_LEN + len as usize + CRC_LEN
    }

    /// The header checks, shared by the buffer and stream decoders:
    /// magic, version, payload length cap. Returns the frame type, the
    /// payload length, and the tag.
    fn parse_header(h: &[u8; HEADER_LEN]) -> Result<(u8, usize, FrameTag), FrameError> {
        let mut r = ByteReader::new(h);
        if r.take(2)? != MAGIC {
            return Err(FrameError::BadMagic);
        }
        let version = r.u8()?;
        if version != WIRE_VERSION {
            return Err(FrameError::BadVersion(version));
        }
        let ty = r.u8()?;
        let len = r.u32()?;
        if len as usize > MAX_PAYLOAD_LEN {
            return Err(FrameError::FrameTooLarge(len));
        }
        let tag = FrameTag {
            trace: r.u64()?,
            corr: r.u64()?,
        };
        Ok((ty, len as usize, tag))
    }

    fn decode_payload(ty: u8, payload: &[u8]) -> Result<Frame, FrameError> {
        let mut r = ByteReader::new(payload);
        let frame = match ty {
            TYPE_PING => Frame::Ping,
            TYPE_FLUSH => Frame::Flush,
            TYPE_SNAPSHOT => Frame::Snapshot,
            TYPE_SHUTDOWN => Frame::Shutdown,
            TYPE_STATS => Frame::Stats,
            TYPE_OK => Frame::Ok,
            TYPE_PONG => Frame::Pong,
            TYPE_STATS_RESP => {
                let n = r.remaining();
                let json = std::str::from_utf8(r.take(n)?)
                    .map_err(|_| FrameError::Malformed("stats response not utf-8"))?;
                Frame::StatsResp(json.to_owned())
            }
            TYPE_INGEST => {
                let entries = r.take(r.remaining())?;
                Frame::Ingest(
                    decode_entries(entries).map_err(|_| FrameError::Malformed("ingest entries"))?,
                )
            }
            TYPE_QUERY => Frame::Query {
                key: r.u64()?,
                window: r.u64()?,
            },
            TYPE_PUSH_SYNOPSIS => {
                let party = r.u64()?;
                let (kind, bytes) = synopsis(&mut r)?;
                Frame::PushSynopsis { party, kind, bytes }
            }
            TYPE_REPLICATE => {
                let key = r.u64()?;
                let (kind, bytes) = synopsis(&mut r)?;
                Frame::Replicate { key, kind, bytes }
            }
            TYPE_PUSH_DELTA => {
                let party = r.u64()?;
                let seq = r.u64()?;
                let slack = f64::from_bits(r.u64()?);
                if !slack.is_finite() || slack < 0.0 {
                    return Err(FrameError::Malformed("push delta slack"));
                }
                let (kind, bytes) = synopsis(&mut r)?;
                Frame::PushDelta {
                    party,
                    seq,
                    slack,
                    kind,
                    bytes,
                }
            }
            TYPE_COMBINE => Frame::Combine { window: r.u64()? },
            TYPE_FETCH => Frame::Fetch { key: r.u64()? },
            TYPE_ESTIMATE => {
                let value = f64::from_bits(r.u64()?);
                let lo = r.u64()?;
                let hi = r.u64()?;
                let exact = match r.u8()? {
                    0 => false,
                    1 => true,
                    _ => return Err(FrameError::Malformed("estimate exact flag")),
                };
                Frame::EstimateResp(Estimate {
                    value,
                    lo,
                    hi,
                    exact,
                })
            }
            TYPE_SNAPSHOT_RESP => {
                let dropped_items = r.u64()?;
                let backpressure_events = r.u64()?;
                // A shard is five u64s, 40 bytes.
                let n = r.count(40)?;
                if n > 1 << 20 {
                    return Err(FrameError::Malformed("snapshot shard count"));
                }
                let mut shards = Vec::with_capacity(n);
                for shard in 0..n {
                    shards.push(ShardSnapshot {
                        shard,
                        keys: r.u64()? as usize,
                        resident_bytes: r.u64()? as usize,
                        synopsis_bits: r.u64()?,
                        entries: r.u64()? as usize,
                        queue_depth: r.u64()? as usize,
                    });
                }
                Frame::SnapshotResp(EngineSnapshot {
                    shards,
                    dropped_items,
                    backpressure_events,
                })
            }
            TYPE_ERROR => Frame::ErrorResp(decode_error(&mut r)?),
            other => return Err(FrameError::UnknownType(other)),
        };
        if r.remaining() != 0 {
            return Err(FrameError::Malformed("trailing payload bytes"));
        }
        Ok(frame)
    }

    /// Read one frame from a blocking stream. Returns the frame, the
    /// bytes consumed, and the header tag. Framing violations surface
    /// as `io::ErrorKind::InvalidData` wrapping the [`FrameError`]; a
    /// clean EOF before the first header byte surfaces as
    /// `UnexpectedEof`.
    pub fn read_frame_tagged<R: std::io::Read>(
        r: &mut R,
    ) -> std::io::Result<(Frame, usize, FrameTag)> {
        let mut header = [0u8; HEADER_LEN];
        r.read_exact(&mut header)?;
        let (_, len, _) = Self::parse_header(&header)?;
        // One buffer holding header + payload + trailer so the CRC can
        // be computed over a contiguous byte range.
        let mut body = vec![0u8; HEADER_LEN + len + CRC_LEN];
        body[..HEADER_LEN].copy_from_slice(&header);
        r.read_exact(&mut body[HEADER_LEN..])?;
        Ok(Self::decode_tagged(&body)?)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use waves_core::Bits;

    /// Recompute the CRC trailer after deliberately mutating a frame's
    /// header or payload, so tests can probe post-checksum validation.
    fn reseal(bytes: &mut Vec<u8>) {
        bytes.truncate(bytes.len() - CRC_LEN);
        let sum = crc32(bytes);
        put_u32(bytes, sum);
    }

    fn roundtrip(frame: Frame) {
        let bytes = WireCodec::encode(&frame);
        let (decoded, used) = WireCodec::decode(&bytes).unwrap();
        assert_eq!(used, bytes.len());
        assert_eq!(decoded, frame);
        // Stream path agrees with the buffer path.
        let mut cursor = std::io::Cursor::new(&bytes);
        let (streamed, n, _) = WireCodec::read_frame_tagged(&mut cursor).unwrap();
        assert_eq!(n, bytes.len());
        assert_eq!(streamed, frame);
    }

    #[test]
    fn every_variant_roundtrips() {
        roundtrip(Frame::Ping);
        roundtrip(Frame::Pong);
        roundtrip(Frame::Ok);
        roundtrip(Frame::Flush);
        roundtrip(Frame::Snapshot);
        roundtrip(Frame::Shutdown);
        roundtrip(Frame::Stats);
        roundtrip(Frame::StatsResp(String::new()));
        roundtrip(Frame::StatsResp(
            r#"{"engine_items_ingested_total":7}"#.into(),
        ));
        roundtrip(Frame::Ingest(vec![
            (7, Bits::from([true, false, true])),
            (9, Bits::new()),
            (u64::MAX, Bits::from(vec![false; 17])),
            (1, Bits::from(vec![true; 64])),
            (2, Bits::from(vec![true; 65])),
        ]));
        roundtrip(Frame::Query {
            key: 42,
            window: 1024,
        });
        roundtrip(Frame::PushSynopsis {
            party: 3,
            kind: SynopsisKind::EhSum,
            bytes: vec![0xde, 0xad, 0xbe, 0xef],
        });
        roundtrip(Frame::Replicate {
            key: 11,
            kind: SynopsisKind::DetWave,
            bytes: vec![0x01, 0x02, 0x03],
        });
        roundtrip(Frame::Replicate {
            key: 0,
            kind: SynopsisKind::SumWave,
            bytes: Vec::new(),
        });
        roundtrip(Frame::PushDelta {
            party: 2,
            seq: 17,
            slack: 3.5,
            kind: SynopsisKind::DetWave,
            bytes: vec![0xca, 0xfe],
        });
        roundtrip(Frame::PushDelta {
            party: u64::MAX,
            seq: 1,
            slack: 0.0,
            kind: SynopsisKind::EhCount,
            bytes: Vec::new(),
        });
        roundtrip(Frame::Combine { window: 512 });
        roundtrip(Frame::Fetch { key: 11 });
        roundtrip(Frame::Fetch { key: u64::MAX });
        roundtrip(Frame::EstimateResp(Estimate {
            value: 10.5,
            lo: 9,
            hi: 12,
            exact: false,
        }));
        roundtrip(Frame::SnapshotResp(EngineSnapshot {
            shards: vec![ShardSnapshot {
                shard: 0,
                keys: 3,
                resident_bytes: 1000,
                synopsis_bits: 512,
                entries: 64,
                queue_depth: 2,
            }],
            dropped_items: 5,
            backpressure_events: 1,
        }));
    }

    #[test]
    fn every_error_variant_roundtrips() {
        let errs = [
            WaveError::InvalidEpsilon(1.5),
            WaveError::InvalidDelta(0.0),
            WaveError::InvalidWindow(0),
            WaveError::WindowTooLarge {
                requested: 2000,
                max: 1024,
            },
            WaveError::ValueTooLarge { value: 99, max: 64 },
            WaveError::PositionRegressed { last: 10, got: 5 },
            WaveError::TooManyItemsInWindow { bound: 100 },
            WaveError::InvalidQuantile(0.0),
            WaveError::Backpressure { shard: 3 },
            WaveError::UnknownKey { key: 77 },
        ];
        for e in errs {
            let bytes = WireCodec::encode(&Frame::ErrorResp(e.clone()));
            let (decoded, _) = WireCodec::decode(&bytes).unwrap();
            assert_eq!(decoded, Frame::ErrorResp(e));
        }
        // Io and Timeout degrade to an opaque remote Io error carrying
        // the original Display text.
        let e = WaveError::Timeout {
            op: "read",
            millis: 250,
        };
        let bytes = WireCodec::encode(&Frame::ErrorResp(e));
        match WireCodec::decode(&bytes).unwrap().0 {
            Frame::ErrorResp(WaveError::Io(inner)) => {
                assert!(inner.to_string().contains("timed out after 250 ms"));
            }
            other => panic!("expected opaque remote error, got {other:?}"),
        }
    }

    #[test]
    fn header_rejections() {
        let good = WireCodec::encode(&Frame::Ping);
        let mut bad = good.clone();
        bad[0] = b'X';
        assert_eq!(WireCodec::decode(&bad), Err(FrameError::BadMagic));
        let mut bad = good.clone();
        bad[2] = 99;
        assert_eq!(WireCodec::decode(&bad), Err(FrameError::BadVersion(99)));
        // An unknown type with a *valid* checksum (a well-formed frame
        // from a future protocol) is UnknownType; without resealing it
        // would be indistinguishable from corruption (BadCrc).
        let mut bad = good.clone();
        bad[3] = 0x7E;
        reseal(&mut bad);
        assert_eq!(WireCodec::decode(&bad), Err(FrameError::UnknownType(0x7E)));
        let mut bad = good.clone();
        bad[3] = 0x7E;
        assert!(matches!(
            WireCodec::decode(&bad),
            Err(FrameError::BadCrc { .. })
        ));
        let mut bad = good.clone();
        bad[4..8].copy_from_slice(&u32::MAX.to_be_bytes());
        assert_eq!(
            WireCodec::decode(&bad),
            Err(FrameError::FrameTooLarge(u32::MAX))
        );
        for cut in 0..good.len() {
            assert_eq!(WireCodec::decode(&good[..cut]), Err(FrameError::Truncated));
        }
    }

    #[test]
    fn trace_id_rides_the_header() {
        // The tag's trace id sits at header bytes [8, 16); both decode
        // paths hand it back alongside the frame.
        let frame = Frame::Query { key: 3, window: 64 };
        let tag = FrameTag {
            trace: 0xDEAD_BEEF_CAFE_F00D,
            corr: 0,
        };
        let bytes = WireCodec::encode_tagged(&frame, tag);
        assert_eq!(&bytes[8..16], &tag.trace.to_be_bytes());
        let (decoded, used, got) = WireCodec::decode_tagged(&bytes).unwrap();
        assert_eq!((decoded, used, got), (frame.clone(), bytes.len(), tag));

        let mut cursor = std::io::Cursor::new(&bytes);
        let (streamed, _, got) = WireCodec::read_frame_tagged(&mut cursor).unwrap();
        assert_eq!((streamed, got), (frame.clone(), tag));

        // The untagged entry points write a zero tag and discard it on
        // the way in.
        let bytes = WireCodec::encode(&frame);
        assert_eq!(&bytes[8..24], &[0u8; 16]);
        let (_, _, got) = WireCodec::decode_tagged(&bytes).unwrap();
        assert_eq!(got, FrameTag::default());
    }

    #[test]
    fn correlation_id_rides_the_header() {
        // Wire v6: the correlation id occupies header bytes [16, 24)
        // and round-trips through both the buffer and stream paths, so
        // a pipelined client can match out-of-order responses back to
        // their requests.
        let frame = Frame::Query { key: 9, window: 32 };
        let tag = FrameTag {
            trace: 0x1111_2222_3333_4444,
            corr: 0xAABB_CCDD_EEFF_0102,
        };
        let bytes = WireCodec::encode_tagged(&frame, tag);
        assert_eq!(&bytes[8..16], &tag.trace.to_be_bytes());
        assert_eq!(&bytes[16..24], &tag.corr.to_be_bytes());
        let (decoded, used, got) = WireCodec::decode_tagged(&bytes).unwrap();
        assert_eq!((decoded, used, got), (frame.clone(), bytes.len(), tag));

        // Appending to a shared buffer lays down the same bytes, frame
        // after frame, whatever already sits in front.
        let mut wire = WireCodec::encode(&Frame::Ping);
        WireCodec::encode_tagged_into(&frame, tag, &mut wire);
        assert_eq!(wire, [WireCodec::encode(&Frame::Ping), bytes].concat());
        let mut cursor = std::io::Cursor::new(&wire);
        let (first, n, _) = WireCodec::read_frame_tagged(&mut cursor).unwrap();
        assert_eq!((first, n), (Frame::Ping, wire.len() - used));
        let (streamed, _, got) = WireCodec::read_frame_tagged(&mut cursor).unwrap();
        assert_eq!((streamed, got), (frame.clone(), tag));
    }

    #[test]
    fn stats_resp_rejects_non_utf8() {
        let mut bytes = WireCodec::encode(&Frame::StatsResp("abcd".into()));
        let payload_at = HEADER_LEN;
        bytes[payload_at] = 0xFF;
        reseal(&mut bytes);
        assert_eq!(
            WireCodec::decode(&bytes),
            Err(FrameError::Malformed("stats response not utf-8"))
        );
    }

    #[test]
    fn trailing_garbage_in_payload_is_malformed() {
        let mut bytes = WireCodec::encode(&Frame::Ping);
        // Claim one payload byte and supply it: Ping takes none. The
        // frame is resealed so this exercises the payload check, not
        // the checksum.
        bytes.truncate(bytes.len() - CRC_LEN);
        bytes[4..8].copy_from_slice(&1u32.to_be_bytes());
        bytes.push(0xAA);
        let sum = crc32(&bytes);
        put_u32(&mut bytes, sum);
        assert_eq!(
            WireCodec::decode(&bytes),
            Err(FrameError::Malformed("trailing payload bytes"))
        );
    }

    /// The property the DST harness demanded: no single corrupt byte
    /// anywhere in a frame — header, payload, or trailer — may decode
    /// into a (possibly wrong) value. Wire version 1 failed this for
    /// payload bytes; an estimate reply with one flipped byte decoded
    /// silently into a wrong bound.
    #[test]
    fn any_single_byte_flip_is_rejected() {
        let good = WireCodec::encode(&Frame::EstimateResp(Estimate {
            value: 10.5,
            lo: 9,
            hi: 12,
            exact: false,
        }));
        for i in 0..good.len() {
            let mut bad = good.clone();
            bad[i] ^= 0xFF;
            assert!(
                WireCodec::decode(&bad).is_err(),
                "flipped byte {i} still decoded"
            );
            let mut cursor = std::io::Cursor::new(&bad);
            assert!(
                WireCodec::read_frame_tagged(&mut cursor).is_err(),
                "flipped byte {i} still read from stream"
            );
        }
    }

    #[test]
    fn read_frame_maps_frame_errors_to_invalid_data() {
        let mut bytes = WireCodec::encode(&Frame::Ping);
        bytes[0] = b'X';
        let mut cursor = std::io::Cursor::new(&bytes);
        let err = WireCodec::read_frame_tagged(&mut cursor).unwrap_err();
        assert_eq!(err.kind(), std::io::ErrorKind::InvalidData);
        // Truncated stream: EOF mid-payload is UnexpectedEof.
        let good = WireCodec::encode(&Frame::Query { key: 1, window: 2 });
        let mut cursor = std::io::Cursor::new(&good[..good.len() - 3]);
        let err = WireCodec::read_frame_tagged(&mut cursor).unwrap_err();
        assert_eq!(err.kind(), std::io::ErrorKind::UnexpectedEof);
    }

    /// Wire v4 ingest entry bodies are whole little-endian words of the
    /// LSB-first bit stream: bit 0 is byte 0's 0x01, bit 9 is byte 1's
    /// 0x02, and the body is zero-padded to an 8-byte boundary.
    #[test]
    fn ingest_body_is_le_words_lsb_first() {
        let mut bits = Bits::new();
        bits.push(true);
        for _ in 0..8 {
            bits.push(false);
        }
        bits.push(true);
        let bytes = WireCodec::encode(&Frame::Ingest(vec![(5, bits)]));
        // header + count u32 + key u64 + bit count u64, then one word.
        let body_at = HEADER_LEN + 4 + 8 + 8;
        assert_eq!(
            &bytes[body_at..body_at + 8],
            &[0x01, 0x02, 0, 0, 0, 0, 0, 0]
        );
    }

    /// Wire v7 PUSH_DELTA payload layout is frozen: party u64, seq
    /// u64, slack f64-as-bits, kind byte, length-prefixed synopsis
    /// bytes — all big-endian.
    #[test]
    fn push_delta_payload_layout_is_stable() {
        let frame = Frame::PushDelta {
            party: 0x0102_0304_0506_0708,
            seq: 9,
            slack: 2.5,
            kind: SynopsisKind::DetWave,
            bytes: vec![0xAB, 0xCD],
        };
        let bytes = WireCodec::encode(&frame);
        assert_eq!(bytes[2], 8, "PROTOCOL.md documents wire v8");
        assert_eq!(bytes[3], TYPE_PUSH_DELTA);
        let p = HEADER_LEN;
        assert_eq!(&bytes[p..p + 8], &0x0102_0304_0506_0708u64.to_be_bytes());
        assert_eq!(&bytes[p + 8..p + 16], &9u64.to_be_bytes());
        assert_eq!(&bytes[p + 16..p + 24], &2.5f64.to_bits().to_be_bytes());
        assert_eq!(bytes[p + 24], 0, "DetWave kind byte");
        assert_eq!(&bytes[p + 25..p + 29], &2u32.to_be_bytes());
        assert_eq!(&bytes[p + 29..p + 31], &[0xAB, 0xCD]);

        // Non-finite or negative slack never decodes.
        let mut bad = WireCodec::encode(&frame);
        bad[p + 16..p + 24].copy_from_slice(&f64::NAN.to_bits().to_be_bytes());
        reseal(&mut bad);
        assert_eq!(
            WireCodec::decode(&bad),
            Err(FrameError::Malformed("push delta slack"))
        );
    }

    #[test]
    fn synopsis_kind_wire_bytes_are_stable() {
        for (kind, byte) in [
            (SynopsisKind::DetWave, 0u8),
            (SynopsisKind::SumWave, 1),
            (SynopsisKind::EhCount, 2),
            (SynopsisKind::EhSum, 3),
        ] {
            assert_eq!(kind as u8, byte);
            assert_eq!(kind_from_wire(byte).unwrap(), kind);
        }
        assert!(kind_from_wire(4).is_err());
    }
}
