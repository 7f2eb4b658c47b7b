//! Multi-threaded distributed driver.
//!
//! Runs one OS thread per party, exactly mirroring the model: each party
//! observes only its own stream and communicates only at query time, by
//! sending a message over a channel to the Referee thread. Checkpoints
//! are positions at which every party emits its message; the Referee
//! combines the `t` messages per checkpoint as they arrive.

use crate::comm::CommStats;
use std::sync::mpsc;
use std::time::Instant;
use waves_obs::{HistId, HistogramSnapshot, LogHistogram, MetricId, Recorder};
use waves_rand::{Message, Party, RandConfig, Referee, Wave};

/// Result of a threaded run: one estimate per checkpoint, plus
/// communication totals and referee-side combine timing.
#[derive(Debug, Clone)]
pub struct ThreadedRun {
    /// `(position, estimate)` per checkpoint, in stream order.
    pub estimates: Vec<(u64, f64)>,
    pub comm: CommStats,
    /// Wall time of each referee combine (one sample per checkpoint).
    pub combine_ns: HistogramSnapshot,
}

/// Run the randomized wave `W` — `UnionWave` over bit streams,
/// `DistinctWave` over value streams — with one thread per party.
/// `streams[j][i]` is what party `j` observes at position `i + 1`; each
/// party processes its whole stream, emitting its query message at every
/// checkpoint position, and the Referee thread (this thread) combines
/// them. Per-party message/byte counters and combine latency are
/// reported into `rec`.
///
/// All streams must have equal length (the positionwise model).
pub fn run_threaded<W: Wave, R: Recorder + ?Sized>(
    config: &RandConfig,
    streams: &[Vec<W::Item>],
    checkpoints: &[u64],
    window: u64,
    rec: &R,
) -> ThreadedRun {
    let t = streams.len();
    assert!(t >= 1);
    let len = streams[0].len();
    assert!(streams.iter().all(|s| s.len() == len));
    assert!(checkpoints.windows(2).all(|w| w[0] < w[1]));
    assert!(checkpoints.iter().all(|&c| (1..=len as u64).contains(&c)));
    assert!(
        window <= config.max_window(),
        "window exceeds config maximum"
    );

    let (tx, rx) = mpsc::channel::<(usize, usize, Message<W::Element>)>();
    let referee = Referee::new(config.clone());
    let mut comm = CommStats::default();
    let combine_hist = LogHistogram::new();

    std::thread::scope(|scope| {
        for (j, stream) in streams.iter().enumerate() {
            let tx = tx.clone();
            scope.spawn(move || {
                let mut party = Party::<W>::new(config);
                let mut next_cp = 0usize;
                for &item in stream {
                    party.push(item);
                    while next_cp < checkpoints.len() && checkpoints[next_cp] == party.pos() {
                        let msg = party
                            .message(window.min(party.pos()))
                            .expect("window <= max_window");
                        tx.send((j, next_cp, msg)).expect("referee alive");
                        next_cp += 1;
                    }
                }
            });
        }
        drop(tx);

        // Referee: gather t messages per checkpoint, combine when ready.
        // A party sends its checkpoints in order, so they also complete
        // in order; within one, the combine is a union and a maximum:
        // the order the parties' messages arrived in does not matter.
        let mut pending: Vec<Vec<Message<W::Element>>> = vec![Vec::new(); checkpoints.len()];
        let mut estimates = Vec::with_capacity(checkpoints.len());
        for (j, cp, msg) in rx.iter() {
            let bytes = msg.wire_bytes(config);
            comm.record_party(j, bytes);
            rec.incr(MetricId::PartyMessagesSent, 1);
            rec.incr(MetricId::PartyBytesSent, bytes as u64);
            pending[cp].push(msg);
            if pending[cp].len() == t {
                let msgs = std::mem::take(&mut pending[cp]);
                let pos = checkpoints[cp];
                let s = (pos + 1).saturating_sub(window.min(pos));
                let started = Instant::now();
                let est = referee.estimate(&msgs, s);
                let ns = started.elapsed().as_nanos() as u64;
                combine_hist.record(ns);
                rec.incr(MetricId::RefereeCombines, 1);
                rec.observe(HistId::RefereeCombineNs, ns);
                estimates.push((pos, est));
            }
        }
        assert_eq!(estimates.len(), checkpoints.len(), "all checkpoints served");
        ThreadedRun {
            estimates,
            comm,
            combine_ns: combine_hist.snapshot(),
        }
    })
}

#[cfg(test)]
#[allow(clippy::needless_range_loop)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use waves_obs::NoopRecorder;
    use waves_rand::{DistinctWave, UnionWave};
    use waves_streamgen::{correlated_streams, positionwise_union};

    /// The threaded driver against the same parties fed in lock step
    /// on one thread: identical estimates, one message per party per
    /// checkpoint.
    fn matches_sequential<W: Wave>(cfg: &RandConfig, streams: &[Vec<W::Item>], window: u64) {
        let t = streams.len();
        let checkpoints: Vec<u64> = vec![500, 1500, 3000];
        let run = run_threaded::<W, _>(cfg, streams, &checkpoints, window, &NoopRecorder);

        let mut parties: Vec<Party<W>> = (0..t).map(|_| Party::new(cfg)).collect();
        let referee = Referee::new(cfg.clone());
        let mut want = Vec::new();
        for i in 0..streams[0].len() {
            for (j, p) in parties.iter_mut().enumerate() {
                p.push(streams[j][i]);
            }
            let pos = (i + 1) as u64;
            if checkpoints.contains(&pos) {
                let est = waves_rand::estimate(&referee, &parties, window.min(pos)).unwrap();
                want.push((pos, est));
            }
        }
        assert_eq!(run.estimates, want);
        assert_eq!(run.comm.messages, (t * checkpoints.len()) as u64);
    }

    #[test]
    fn threaded_union_matches_sequential() {
        let (t, len, window) = (4, 3000usize, 256u64);
        let mut rng = StdRng::seed_from_u64(1);
        let cfg = RandConfig::for_positions(window, 0.3, 0.3, &mut rng)
            .unwrap()
            .with_instances(5, &mut rng);
        let streams = correlated_streams(t, len, 0.25, 0.25, 42);
        matches_sequential::<UnionWave>(&cfg, &streams, window);

        let cfg = RandConfig::for_values(window, (1 << 12) - 1, 0.3, 0.3, &mut rng)
            .unwrap()
            .with_instances(5, &mut rng);
        let streams = waves_streamgen::overlapping_value_streams(t, len, 1 << 12, 0.2, 9);
        matches_sequential::<DistinctWave>(&cfg, &streams, window);
    }

    #[test]
    fn threaded_union_accuracy() {
        let t = 3;
        let len = 4000usize;
        let window = 512u64;
        let mut rng = StdRng::seed_from_u64(2);
        let cfg = RandConfig::for_positions(window, 0.25, 0.2, &mut rng)
            .unwrap()
            .with_instances(9, &mut rng);
        let streams = correlated_streams(t, len, 0.3, 0.2, 7);
        let run = run_threaded::<UnionWave, _>(&cfg, &streams, &[4000], window, &NoopRecorder);
        let union = positionwise_union(&streams);
        let actual = union[len - window as usize..]
            .iter()
            .filter(|&&b| b)
            .count() as f64;
        let (_, est) = run.estimates[0];
        assert!(
            (est - actual).abs() / actual <= 0.25,
            "est {est} actual {actual}"
        );
    }

    #[test]
    fn threaded_single_party_and_early_checkpoints() {
        // t = 1 and a checkpoint before the window fills: the driver
        // must clamp the window to the stream length so far.
        let window = 1_000u64;
        let mut rng = StdRng::seed_from_u64(9);
        let cfg = RandConfig::for_positions(window, 0.3, 0.3, &mut rng)
            .unwrap()
            .with_instances(3, &mut rng);
        let stream: Vec<bool> = (0..500).map(|i| i % 4 == 0).collect();
        let run = run_threaded::<UnionWave, _>(
            &cfg,
            std::slice::from_ref(&stream),
            &[100, 500],
            window,
            &NoopRecorder,
        );
        assert_eq!(run.estimates.len(), 2);
        // Sparse enough that level 0 covers everything: exact answers.
        let (pos1, est1) = run.estimates[0];
        assert_eq!(pos1, 100);
        assert_eq!(est1, 25.0);
        let (_, est2) = run.estimates[1];
        assert_eq!(est2, 125.0);
    }

    #[test]
    fn threaded_union_per_party_breakdown() {
        let t = 3;
        let window = 128u64;
        let mut rng = StdRng::seed_from_u64(11);
        let cfg = RandConfig::for_positions(window, 0.3, 0.3, &mut rng)
            .unwrap()
            .with_instances(3, &mut rng);
        let streams = correlated_streams(t, 1000, 0.25, 0.25, 4);
        let checkpoints: Vec<u64> = vec![400, 1000];
        let reg = waves_obs::MetricsRegistry::new();
        let run = run_threaded::<UnionWave, _>(&cfg, &streams, &checkpoints, window, &reg);

        // Every party sent one message per checkpoint; the breakdown
        // sums to the totals and bounds the worst party.
        assert_eq!(run.comm.per_party.len(), t);
        for p in &run.comm.per_party {
            assert_eq!(p.messages, checkpoints.len() as u64);
        }
        let sum: u64 = run.comm.per_party.iter().map(|p| p.bytes).sum();
        assert_eq!(sum, run.comm.bytes);
        let (_, worst) = run.comm.worst_party().unwrap();
        assert!(worst.bytes >= run.comm.bytes / t as u64);

        // Recorder saw the same traffic, and one combine per checkpoint.
        use waves_obs::MetricId as M;
        assert_eq!(reg.counter(M::PartyMessagesSent), run.comm.messages);
        assert_eq!(reg.counter(M::PartyBytesSent), run.comm.bytes);
        assert_eq!(reg.counter(M::RefereeCombines), checkpoints.len() as u64);
        assert_eq!(run.combine_ns.count, checkpoints.len() as u64);
        assert_eq!(
            reg.snapshot().hist("referee_combine_ns").unwrap().count,
            checkpoints.len() as u64
        );
    }

    #[test]
    fn threaded_distinct_charges_values_and_positions_at_their_own_widths() {
        // 100 distinct values in a window of 2^16: one report of 100
        // (value, position) pairs, a value at the hash degree (8 bits)
        // and a position at the window ring's width (17), not both at
        // the value's.
        let window = 1u64 << 16;
        let mut rng = StdRng::seed_from_u64(3);
        let cfg = RandConfig::for_values(window, 255, 0.5, 0.3, &mut rng)
            .unwrap()
            .with_instances(1, &mut rng);
        let ring = waves_core::ModRing::for_window(window).counter_bits();
        assert_eq!((cfg.degree(), ring), (8, 17));
        let stream: Vec<u64> = (0..2_000).map(|i| i % 100).collect();
        let reg = waves_obs::MetricsRegistry::new();
        let run = run_threaded::<DistinctWave, _>(&cfg, &[stream], &[2_000], window, &reg);
        assert_eq!(run.estimates, vec![(2_000, 100.0)]);
        assert_eq!(run.comm.bytes, 4 + (100 * 25u64).div_ceil(8));
        assert_eq!(run.comm.bytes, 317);
        assert_eq!(reg.counter(waves_obs::MetricId::PartyBytesSent), 317);
    }

    #[test]
    fn threaded_distinct_runs() {
        let t = 2;
        let len = 2000usize;
        let window = 256u64;
        let mut rng = StdRng::seed_from_u64(3);
        let cfg = RandConfig::for_values(window, (1 << 12) - 1, 0.3, 0.3, &mut rng)
            .unwrap()
            .with_instances(5, &mut rng);
        let streams = waves_streamgen::overlapping_value_streams(t, len, 1 << 12, 0.2, 9);
        let run =
            run_threaded::<DistinctWave, _>(&cfg, &streams, &[1000, 2000], window, &NoopRecorder);
        assert_eq!(run.estimates.len(), 2);
        // Truth at the final checkpoint.
        let mut last = std::collections::HashMap::new();
        for i in 0..len {
            for s in &streams {
                last.insert(s[i], i);
            }
        }
        let s_start = len - window as usize;
        let actual = last.values().filter(|&&i| i >= s_start).count() as f64;
        let (_, est) = run.estimates[1];
        assert!(
            (est - actual).abs() / actual <= 0.3,
            "est {est} actual {actual}"
        );
    }
}
