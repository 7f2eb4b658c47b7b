//! Asynchrony simulation: what does violating the paper's synchrony
//! assumption cost?
//!
//! The positionwise model (Sections 2 and 4) assumes that when the
//! Referee asks for a window `[pos - n + 1, pos]`, every party answers
//! from a state that has observed exactly `pos` positions. In a real
//! deployment (the network-monitoring front-end of Section 2) the query
//! reaches each party after a network delay, during which the party has
//! ingested more stream. This module simulates that: party `j` snapshots
//! its message `latency_j` positions *after* the query is issued, and
//! the Referee combines as usual. The resulting staleness bias —
//! measured against the truth at issue time — quantifies how far the
//! synchrony assumption can bend before the `(eps, delta)` guarantee
//! degrades, and shows that it is recovered exactly when latencies are
//! equal (the window just shifts).

use waves_rand::{PartyMessage, RandConfig, Referee, UnionParty};

/// One asynchronous query's outcome.
#[derive(Debug, Clone, Copy)]
pub struct AsyncQueryOutcome {
    /// Position at which the Referee issued the query.
    pub issued_at: u64,
    /// The combined estimate.
    pub estimate: f64,
    /// Exact union count over the intended window (ending at issue).
    pub actual_at_issue: u64,
    /// Exact union count over the latest window any party answered for
    /// (ending at issue + max latency) — the "freshest defensible"
    /// reference.
    pub actual_at_latest: u64,
}

/// Simulate asynchronous union counting.
///
/// * `streams[j]` — party `j`'s bit stream (equal lengths);
/// * `query_ticks` — positions at which the Referee issues queries
///   (strictly increasing);
/// * `window` — the window size (`<= config.max_window()`);
/// * `latencies[j]` — positions party `j` keeps ingesting before its
///   snapshot is taken; `query_ticks[i] + latency_j` must not exceed the
///   stream length.
pub fn simulate_async_union(
    config: &RandConfig,
    streams: &[Vec<bool>],
    query_ticks: &[u64],
    window: u64,
    latencies: &[u64],
) -> Vec<AsyncQueryOutcome> {
    let t = streams.len();
    assert!(t >= 1 && latencies.len() == t);
    let len = streams[0].len() as u64;
    assert!(streams.iter().all(|s| s.len() as u64 == len));
    assert!(query_ticks.windows(2).all(|w| w[0] < w[1]));
    let max_lat = latencies.iter().copied().max().unwrap_or(0);
    assert!(
        query_ticks.iter().all(|&q| q + max_lat <= len),
        "queries plus latency must fit the stream"
    );

    // Snapshot schedule: at tick q + latency_j, party j emits its
    // message for query q.
    let mut due: std::collections::HashMap<u64, Vec<(usize, usize)>> =
        std::collections::HashMap::new();
    for (qi, &q) in query_ticks.iter().enumerate() {
        for (j, &d) in latencies.iter().enumerate() {
            due.entry(q + d).or_default().push((qi, j));
        }
    }

    let mut parties: Vec<UnionParty> = (0..t).map(|_| UnionParty::new(config)).collect();
    let mut messages: Vec<Vec<Option<PartyMessage>>> = vec![vec![None; t]; query_ticks.len()];
    for tick in 1..=len {
        for (j, p) in parties.iter_mut().enumerate() {
            p.push(streams[j][(tick - 1) as usize]);
        }
        if let Some(items) = due.get(&tick) {
            for &(qi, j) in items {
                // The party answers for its *local* last `window`
                // positions — the best it can do without a shared clock.
                let msg = parties[j]
                    .message(window.min(parties[j].pos()))
                    .expect("window within bound");
                messages[qi][j] = Some(msg);
            }
        }
    }

    let referee = Referee::new(config.clone());
    let union_prefix: Vec<u64> = {
        // prefix[i] = union-count of positions 1..=i.
        let mut acc = 0u64;
        let mut out = Vec::with_capacity(len as usize + 1);
        out.push(0);
        for i in 0..len as usize {
            if streams.iter().any(|s| s[i]) {
                acc += 1;
            }
            out.push(acc);
        }
        out
    };
    let window_count = |end: u64| -> u64 {
        let s = end.saturating_sub(window);
        union_prefix[end as usize] - union_prefix[s as usize]
    };

    query_ticks
        .iter()
        .enumerate()
        .map(|(qi, &q)| {
            let msgs: Vec<PartyMessage> = messages[qi]
                .iter()
                .map(|m| m.clone().expect("all snapshots taken"))
                .collect();
            let s = (q + 1).saturating_sub(window);
            AsyncQueryOutcome {
                issued_at: q,
                estimate: referee.estimate(&msgs, s.max(1)),
                actual_at_issue: window_count(q),
                actual_at_latest: window_count(q + max_lat),
            }
        })
        .collect()
}

#[cfg(test)]
#[allow(clippy::needless_range_loop)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use waves_rand::estimate;
    use waves_streamgen::correlated_streams;

    fn config(window: u64, seed: u64, instances: usize) -> RandConfig {
        let mut rng = StdRng::seed_from_u64(seed);
        RandConfig::for_positions(window, 0.2, 0.2, &mut rng)
            .unwrap()
            .with_instances(instances, &mut rng)
    }

    #[test]
    fn zero_latency_matches_synchronous() {
        let (t, len, window) = (3usize, 4_000usize, 512u64);
        let cfg = config(window, 1, 5);
        let streams = correlated_streams(t, len, 0.3, 0.3, 7);
        let outcomes = simulate_async_union(&cfg, &streams, &[2_000, 4_000], window, &[0, 0, 0]);
        // Synchronous reference.
        for &(tick, idx) in &[(2_000u64, 0usize), (4_000, 1)] {
            let mut parties: Vec<UnionParty> = (0..t).map(|_| UnionParty::new(&cfg)).collect();
            for i in 0..tick as usize {
                for j in 0..t {
                    parties[j].push(streams[j][i]);
                }
            }
            let referee = Referee::new(cfg.clone());
            let want = estimate(&referee, &parties, window).unwrap();
            assert_eq!(outcomes[idx].estimate, want, "tick {tick}");
        }
    }

    #[test]
    fn equal_latency_reproduces_sequential_estimate_at_shifted_tick() {
        // With every latency equal to d, each party snapshots the window
        // ending at q + d. Every reported position then lies at or after
        // the *local* window start (q + d + 1 - window), so the referee's
        // looser issue-time filter keeps the identical position set and
        // the combine must equal — bit for bit, not just within eps —
        // what the synchronous referee path computes at tick q + d.
        let (t, len, window) = (3usize, 5_000usize, 512u64);
        let cfg = config(window, 5, 5);
        let streams = correlated_streams(t, len, 0.25, 0.3, 13);
        let d = 150u64;
        let ticks = [2_000u64, 4_000];
        let outcomes = simulate_async_union(&cfg, &streams, &ticks, window, &[d; 3]);
        for (idx, &q) in ticks.iter().enumerate() {
            let mut parties: Vec<UnionParty> = (0..t).map(|_| UnionParty::new(&cfg)).collect();
            for i in 0..(q + d) as usize {
                for j in 0..t {
                    parties[j].push(streams[j][i]);
                }
            }
            let referee = Referee::new(cfg.clone());
            let want = estimate(&referee, &parties, window).unwrap();
            assert_eq!(outcomes[idx].estimate, want, "query at {q}, latency {d}");
        }
    }

    #[test]
    fn equal_latency_answers_shifted_window_exactly() {
        // With equal latencies d, every party answers for the window
        // ending at q + d: the estimate tracks actual_at_latest (the
        // shifted truth), not the issue-time truth.
        let (t, len, window) = (2usize, 6_000usize, 256u64);
        let cfg = config(window, 2, 5);
        let streams = correlated_streams(t, len, 0.2, 0.3, 9);
        let outcomes = simulate_async_union(&cfg, &streams, &[3_000], window, &[200, 200]);
        let o = &outcomes[0];
        let rel_latest = (o.estimate - o.actual_at_latest as f64).abs() / o.actual_at_latest as f64;
        assert!(rel_latest <= 0.2, "vs shifted truth: {rel_latest}");
    }

    #[test]
    fn staleness_bias_bounded_by_window_drift() {
        // Unequal latencies: the estimate lands between the issue-time
        // truth minus drift and the latest truth plus drift; with small
        // latency relative to the window the error vs issue stays small.
        let (t, len, window) = (4usize, 8_000usize, 2_048u64);
        let cfg = config(window, 3, 5);
        let streams = correlated_streams(t, len, 0.3, 0.25, 11);
        let lats = [0u64, 20, 40, 60];
        let outcomes = simulate_async_union(&cfg, &streams, &[4_000, 6_000], window, &lats);
        for o in &outcomes {
            let rel = (o.estimate - o.actual_at_issue as f64).abs() / o.actual_at_issue as f64;
            // eps = 0.2 plus drift of <= 60/2048 of the window content.
            assert!(rel <= 0.2 + 0.1, "issued {}: rel {rel}", o.issued_at);
        }
    }

    #[test]
    #[should_panic(expected = "queries plus latency must fit")]
    fn rejects_overhanging_queries() {
        let cfg = config(64, 4, 1);
        let streams = correlated_streams(2, 100, 0.5, 0.2, 1);
        simulate_async_union(&cfg, &streams, &[100], 64, &[5, 0]);
    }
}
