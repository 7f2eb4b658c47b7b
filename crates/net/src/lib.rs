//! `waves-net`: the networked transport for waves — a versioned binary
//! wire protocol, a TCP server hosting the serving engine plus the
//! referee, a blocking client with real timeout/retry behavior, and a
//! fault-injection proxy to prove the failure paths.
//!
//! The paper's distributed-streams model has parties ship synopses to a
//! referee at query time; everywhere else in this workspace that happens
//! through function calls. This crate puts an actual network between
//! them, std-only (no async runtime, no serde — blocking sockets and a
//! hand-rolled frame codec, matching the workspace's no-external-deps
//! rule):
//!
//! * [`frame`] — the wire format: 24-byte header (magic, version,
//!   type, u32 length, u64 trace id, u64 correlation id) + payload +
//!   CRC-32 trailer, with [`WireCodec`] mapping [`Frame`]s to bytes.
//!   Synopsis payloads carry each synopsis's own `encode()` bytes
//!   verbatim, so the compact codecs of `waves-core` / `waves-eh`
//!   round-trip the network byte-for-byte (property-tested below).
//! * [`server`] — [`Server`]: one epoll event-loop thread (the vendored
//!   `poll` crate) beside the engine's shard threads. The loop is one
//!   value (`event_loop.rs`) owning every socket, and each readiness
//!   batch is one `turn`, which a test can drive on its own thread.
//!   Every request starts on the loop; the ingests one pass over a
//!   connection's buffered bytes decodes reach each shard as one engine
//!   batch, and a request that needs a shard (query, flush, snapshot,
//!   replicate, fetch) is submitted to it and completes back on the
//!   loop. Everything a turn produced leaves in one `write` per
//!   connection. [`Frame::PushSynopsis`], [`Frame::PushDelta`] and
//!   [`Frame::Combine`] are one call each on the one referee,
//!   [`waves_distributed::MonitorReferee`], so its sequence dedupe
//!   (retries and late reordered deltas cannot roll it back) and its
//!   saturating combine are written once. Requests pipeline per
//!   connection (bounded in-flight window, bounded out-buffers,
//!   out-of-order completion by correlation id).
//! * [`client`] — [`Client`]: blocking request/response with connect/
//!   read/write deadlines, typed [`WaveError::Io`] /
//!   [`WaveError::Timeout`] failures, and bounded retry-with-backoff
//!   restricted to idempotent requests; [`Client::send_many`] /
//!   [`Client::ingest_many`] pipeline a window of requests over the
//!   same connection — one `write` per window, one `read` per batch
//!   of replies.
//! * [`chaos`] — [`ChaosProxy`]: drops, delays, truncates, or corrupts
//!   server->client traffic so tests can assert the client degrades to
//!   clean typed errors instead of hanging.
//!
//! ```no_run
//! use waves_engine::IngestRequest;
//! use waves_net::{Client, Server, ServerConfig};
//!
//! let server = Server::start("127.0.0.1:0", ServerConfig::default()).unwrap();
//! let mut client = Client::connect(server.local_addr()).unwrap();
//! client.ingest(IngestRequest::of(7, [true, true, false])).unwrap();
//! client.flush().unwrap();
//! let est = client.query(7, 1024).unwrap();
//! assert_eq!(est.value, 2.0);
//! ```
//!
//! [`WaveError::Io`]: waves_core::WaveError::Io
//! [`WaveError::Timeout`]: waves_core::WaveError::Timeout
//! [`WaveError`]: waves_core::WaveError

pub mod chaos;
pub mod client;
mod event_loop;
pub mod frame;
pub mod server;

pub use chaos::{ChaosProxy, Fault};
pub use client::{Client, ClientConfig, RetryPolicy};
pub use frame::{Frame, FrameError, FrameTag, SynopsisKind, WireCodec};
pub use server::{Server, ServerConfig};
pub use waves_distributed::PartySynopsis;

#[cfg(test)]
mod proptests {
    use super::frame::*;
    use super::PartySynopsis;
    use proptest::prelude::*;
    use waves_core::{DetWave, SumWave};
    use waves_eh::{EhCount, EhSum};

    /// The synopsis's own encode must survive the wire untouched: wrap
    /// it in a PushSynopsis frame, serialize, parse, and compare the
    /// carried bytes — and the re-decoded synopsis must re-encode to
    /// the identical byte string.
    fn assert_wire_preserves(kind: SynopsisKind, encoded: Vec<u8>, party: u64) {
        let frame = Frame::PushSynopsis {
            party,
            kind,
            bytes: encoded.clone(),
        };
        let wire = WireCodec::encode(&frame);
        let (decoded, used) = WireCodec::decode(&wire).unwrap();
        assert_eq!(used, wire.len());
        match decoded {
            Frame::PushSynopsis {
                party: p,
                kind: k,
                bytes,
            } => {
                assert_eq!(p, party);
                assert_eq!(k, kind);
                assert_eq!(bytes, encoded, "synopsis bytes mutated in transit");
                let syn = PartySynopsis::decode(k, &bytes).unwrap();
                assert_eq!(
                    syn.synopsis().encode_synopsis(),
                    encoded,
                    "re-encode not byte-identical"
                );
            }
            other => panic!("wrong frame came back: {other:?}"),
        }
    }

    /// How many [`Frame`] variants [`sample_frame`] builds.
    const FRAME_VARIANTS: usize = 18;

    /// Frame `variant` (every request and response shape), its fields
    /// and synopsis bytes drawn from `seed`.
    fn sample_frame(variant: usize, seed: u64) -> Frame {
        use rand::{rngs::StdRng, Rng, SeedableRng};
        use waves_core::{Bits, Estimate, WaveError};
        use waves_engine::{EngineSnapshot, ShardSnapshot};
        let mut rng = StdRng::seed_from_u64(seed);
        let mut wave = DetWave::new(256, 0.25).unwrap();
        for _ in 0..rng.gen_range(0..400) {
            wave.push_bit(rng.gen_bool(0.4));
        }
        let kind = [
            SynopsisKind::DetWave,
            SynopsisKind::SumWave,
            SynopsisKind::EhCount,
            SynopsisKind::EhSum,
        ][rng.gen_range(0..4usize)];
        let (a, b): (u64, u64) = (rng.gen(), rng.gen());
        match variant {
            0 => Frame::Ping,
            1 => Frame::Ingest(
                (0..rng.gen_range(0..4))
                    .map(|_| {
                        let len = rng.gen_range(0..200);
                        let bits: Bits = (0..len).map(|_| rng.gen_bool(0.5)).collect();
                        (rng.gen(), bits)
                    })
                    .collect(),
            ),
            2 => Frame::Query { key: a, window: b },
            3 => Frame::Flush,
            4 => Frame::Snapshot,
            5 => Frame::PushSynopsis {
                party: a,
                kind,
                bytes: wave.encode(),
            },
            6 => Frame::Combine { window: b },
            7 => Frame::Shutdown,
            8 => Frame::Stats,
            9 => Frame::Replicate {
                key: a,
                kind,
                bytes: wave.encode(),
            },
            10 => Frame::PushDelta {
                party: a,
                seq: b,
                slack: rng.gen_range(0.0..16.0),
                kind,
                bytes: wave.encode(),
            },
            11 => Frame::Ok,
            12 => Frame::Pong,
            13 => Frame::EstimateResp(Estimate {
                value: (a % 1000) as f64 / 2.0,
                lo: a % 500,
                hi: a % 500 + b % 500,
                exact: rng.gen_bool(0.5),
            }),
            14 => Frame::SnapshotResp(EngineSnapshot {
                shards: (0..rng.gen_range(0..4))
                    .map(|shard| ShardSnapshot {
                        shard,
                        keys: rng.gen_range(0..1000),
                        resident_bytes: rng.gen_range(0..1 << 20),
                        synopsis_bits: rng.gen(),
                        entries: rng.gen_range(0..1000),
                        queue_depth: rng.gen_range(0..64),
                    })
                    .collect(),
                dropped_items: a,
                backpressure_events: b,
            }),
            15 => Frame::StatsResp(format!(
                "{{\"counters\":{{\"net_frames_sent_total\":{a}}}}}"
            )),
            16 => Frame::Fetch { key: a },
            _ => Frame::ErrorResp(WaveError::WindowTooLarge {
                requested: a,
                max: b,
            }),
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// Mutated-valid fuzz of the frame decoder: a real frame of any
        /// variant with 1-3 payload bits flipped and its CRC re-sealed
        /// reaches `decode_payload`, which random bytes (see
        /// `decode_never_panics`) almost never do. The decoder returns a
        /// typed error other than `Truncated` or a frame, never panics,
        /// and a frame it accepts re-encodes to the mutated bytes — save
        /// an error reply, whose unknown codes decode to an opaque remote
        /// error, and an ingest entry's bits past its length, which
        /// `Bits::from_le_bytes` masks: a flip there may be undone, and
        /// nothing else may move.
        #[test]
        fn decode_survives_mutated_valid_frames(
            variant in 0usize..FRAME_VARIANTS,
            seed in any::<u64>(),
            flips in prop::collection::vec(any::<u64>(), 1..=3),
        ) {
            let tag = FrameTag { trace: seed, corr: seed.rotate_left(17) };
            let mut wire = WireCodec::encode_tagged(&sample_frame(variant, seed), tag);
            let body_end = wire.len() - CRC_LEN;
            let payload_bits = (body_end - HEADER_LEN) as u64 * 8;
            let flipped: Vec<usize> = if payload_bits == 0 {
                Vec::new()
            } else {
                flips.iter().map(|f| HEADER_LEN * 8 + (f % payload_bits) as usize).collect()
            };
            for &bit in &flipped {
                wire[bit / 8] ^= 1 << (bit % 8);
            }
            wire.truncate(body_end);
            let sum = waves_store::crc::crc32(&wire);
            wire.extend_from_slice(&sum.to_be_bytes());
            let decoded = WireCodec::decode_tagged(&wire);
            // The frame is whole: an error must refuse it, never ask
            // for more bytes that cannot complete it.
            prop_assert_ne!(decoded.as_ref().err(), Some(&FrameError::Truncated));
            if let Ok((frame, used, got)) = decoded {
                prop_assert_eq!(used, wire.len());
                prop_assert_eq!(got, tag);
                if !matches!(frame, Frame::ErrorResp(_)) {
                    let again = WireCodec::encode_tagged(&frame, tag);
                    prop_assert_eq!(again.len(), wire.len());
                    let ingest = matches!(frame, Frame::Ingest(_));
                    for bit in 0..body_end * 8 {
                        let moved = (again[bit / 8] ^ wire[bit / 8]) >> (bit % 8) & 1 == 1;
                        prop_assert!(
                            !moved || (ingest && flipped.contains(&bit)),
                            "{:?} re-encodes with bit {} moved", frame, bit
                        );
                    }
                }
            }
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(32))]

        /// Wire round-trip is byte-exact for all four synopsis types.
        #[test]
        fn det_wave_roundtrips_byte_identical(
            bits in prop::collection::vec(prop::bool::weighted(0.5), 0..800),
            inv_eps in 2u64..=10,
            party in 0u64..=1000,
        ) {
            let mut w = DetWave::new(256, 1.0 / inv_eps as f64).unwrap();
            for &b in &bits {
                w.push_bit(b);
            }
            assert_wire_preserves(SynopsisKind::DetWave, w.encode(), party);
        }

        #[test]
        fn sum_wave_roundtrips_byte_identical(
            vals in prop::collection::vec(0u64..=32, 0..400),
            inv_eps in 2u64..=8,
            party in 0u64..=1000,
        ) {
            let mut w = SumWave::new(128, 32, 1.0 / inv_eps as f64).unwrap();
            for &v in &vals {
                w.push_value(v).unwrap();
            }
            assert_wire_preserves(SynopsisKind::SumWave, w.encode(), party);
        }

        #[test]
        fn eh_count_roundtrips_byte_identical(
            bits in prop::collection::vec(prop::bool::weighted(0.5), 0..800),
            inv_eps in 2u64..=10,
            party in 0u64..=1000,
        ) {
            let mut e = EhCount::new(256, 1.0 / inv_eps as f64).unwrap();
            for &b in &bits {
                e.push_bit(b);
            }
            assert_wire_preserves(SynopsisKind::EhCount, e.encode(), party);
        }

        #[test]
        fn eh_sum_roundtrips_byte_identical(
            vals in prop::collection::vec(0u64..=32, 0..400),
            inv_eps in 2u64..=8,
            party in 0u64..=1000,
        ) {
            let mut e = EhSum::new(128, 32, 1.0 / inv_eps as f64).unwrap();
            for &v in &vals {
                e.push_value(v).unwrap();
            }
            assert_wire_preserves(SynopsisKind::EhSum, e.encode(), party);
        }

        /// Every strict prefix of a valid frame is Truncated — never a
        /// panic, never a bogus success.
        #[test]
        fn truncated_frames_are_rejected(
            bits in prop::collection::vec(prop::bool::weighted(0.5), 0..200),
            cut_frac in 0.0f64..1.0,
        ) {
            let mut w = DetWave::new(128, 0.25).unwrap();
            for &b in &bits {
                w.push_bit(b);
            }
            let frame = Frame::PushSynopsis { party: 1, kind: SynopsisKind::DetWave, bytes: w.encode() };
            let wire = WireCodec::encode(&frame);
            let cut = ((wire.len() as f64 * cut_frac) as usize).min(wire.len() - 1);
            prop_assert_eq!(WireCodec::decode(&wire[..cut]), Err(FrameError::Truncated));
        }

        /// Corrupting the magic or version byte is always rejected with
        /// the specific error, regardless of the rest of the frame.
        #[test]
        fn bad_magic_and_version_are_rejected(
            key in 0u64..=u64::MAX,
            window in 1u64..=1 << 40,
            wrong in 0u8..=255,
        ) {
            let wire = WireCodec::encode(&Frame::Query { key, window });
            if wrong != wire[0] {
                let mut bad = wire.clone();
                bad[0] = wrong;
                prop_assert_eq!(WireCodec::decode(&bad), Err(FrameError::BadMagic));
            }
            if wrong != WIRE_VERSION {
                let mut bad = wire.clone();
                bad[2] = wrong;
                prop_assert_eq!(WireCodec::decode(&bad), Err(FrameError::BadVersion(wrong)));
            }
        }

        /// Arbitrary bytes never panic the decoder.
        #[test]
        fn decode_never_panics(bytes in prop::collection::vec(any::<u8>(), 0..300)) {
            let _ = WireCodec::decode(&bytes);
        }
    }
}
