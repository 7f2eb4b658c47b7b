//! E25: push-vs-pull communication for continuous monitoring.
//!
//! Continuous monitoring wants an always-valid windowed answer at the
//! referee — the answer is read at every arrival, not at a leisurely
//! polling cadence. The pull design must therefore re-ship every
//! party's synopsis at every read to stay valid; the push design (Chan
//! et al.'s threshold scheme) ships a delta only when a party's local
//! drift crosses its share of the ε-slack pool, and the referee's
//! folded answer stays valid in between with staleness bounded by the
//! pool. Same total error budget ε both ways: pull spends all of it on
//! the synopses, push splits it `eps_split` / `1 - eps_split` between
//! synopses and slack.
//!
//! Both modes replay identical streams and count exact bytes-on-wire
//! (`WireCodec::encode` of the real `PUSH_DELTA` / `PUSH_SYNOPSIS`
//! frames, header and CRC included). The accounting is deterministic —
//! no timing on the clock — so the verdict is core-count-independent.
//!
//! Acceptance lines, on a bursty keyed workload and an adversarial
//! drift-oscillating one:
//! * push ships ≥ 4× fewer bytes than per-query pull;
//! * every push answer honors `eps_syn·truth + slack` and every pull
//!   answer honors `eps·truth` (correctness rows, never skipped).

use crate::table::{f, Table};
use waves_core::{Bits, DetWave, ExactCount};
use waves_distributed::{combine_estimates, MonitorConfig, MonitorReferee, PushParty};
use waves_net::{Frame, SynopsisKind, WireCodec};
use waves_streamgen::KeyedWorkload;

const WINDOW: u64 = 512;
const EPS: f64 = 0.1;
const SPLIT: f64 = 0.5;
const PARTIES: u64 = 4;
const EVENTS: usize = 3_000;
/// The continuous answer is consumed at every arrival.
const QUERY_EVERY: usize = 1;

fn lcg_step(x: &mut u64) -> u64 {
    *x = x
        .wrapping_mul(6364136223846793005)
        .wrapping_add(1442695040888963407);
    *x >> 33
}

/// Bursty keyed traffic: one workload key per party, hot set + bursts,
/// so some parties drift fast while others idle.
fn bursty_events() -> Vec<(u64, Vec<bool>)> {
    let mut w = KeyedWorkload::new(PARTIES, 4, 0.5, 25)
        .with_burst_range(1, 24)
        .with_hot_set(0.7, 1);
    w.next_batch(EVENTS)
}

/// Adversarial drift oscillation: density alternates between 0.95 and
/// 0.05 in 64-item blocks per party, forcing the local count to swing
/// across the slack threshold as often as the stream allows.
fn oscillating_events() -> Vec<(u64, Vec<bool>)> {
    let mut rng = 77u64;
    let mut out = Vec::with_capacity(EVENTS);
    for i in 0..EVENTS {
        let party = (i as u64) % PARTIES;
        let dense = (i / 64) % 2 == 0;
        let len = 1 + (lcg_step(&mut rng) % 4) as usize;
        let bits = (0..len)
            .map(|_| lcg_step(&mut rng) % 100 < if dense { 95 } else { 5 })
            .collect();
        out.push((party, bits));
    }
    out
}

struct ModeStats {
    frames: u64,
    bytes: u64,
    /// Worst |answer - truth| seen at a query tick.
    max_err: f64,
    /// Every answer stayed inside its mode's error contract.
    sound: bool,
}

/// Replay one stream through both designs at once: the parties and the
/// exact oracles see identical bits; only the shipping rule differs.
fn replay(events: &[(u64, Vec<bool>)]) -> (ModeStats, ModeStats) {
    let mcfg = MonitorConfig {
        max_window: WINDOW,
        eps: EPS,
        eps_split: SPLIT,
        parties: PARTIES,
    };
    let mut parties: Vec<PushParty> = (0..PARTIES)
        .map(|p| PushParty::new(&mcfg, p).expect("validated config"))
        .collect();
    // The pull design spends the whole budget on the synopses.
    let mut pull_waves: Vec<DetWave> = (0..PARTIES)
        .map(|_| DetWave::new(WINDOW, EPS).expect("validated config"))
        .collect();
    let mut exact: Vec<ExactCount> = (0..PARTIES).map(|_| ExactCount::new(WINDOW)).collect();
    let mut referee = MonitorReferee::new();
    let slack = mcfg.slack_total();
    let eps_syn = mcfg.eps_synopsis();
    let mut push = ModeStats {
        frames: 0,
        bytes: 0,
        max_err: 0.0,
        sound: true,
    };
    let mut pull = ModeStats {
        frames: 0,
        bytes: 0,
        max_err: 0.0,
        sound: true,
    };
    for (party, bits) in events.iter() {
        let idx = *party as usize;
        for &b in bits {
            exact[idx].push_bit(b);
        }
        let bits = Bits::from_bools(bits);
        pull_waves[idx].push_words(bits.as_ref());
        if let Some(delta) = parties[idx].push_words(bits.as_ref()) {
            let frame = Frame::PushDelta {
                party: delta.party,
                seq: delta.seq,
                slack: delta.slack,
                kind: SynopsisKind::DetWave,
                bytes: delta.bytes.clone(),
            };
            push.bytes += WireCodec::encode(&frame).len() as u64;
            push.frames += 1;
            referee.install(&delta).expect("party-encoded delta");
        }
        // The continuous answer is consumed here, at every arrival
        // (QUERY_EVERY = 1): pull must re-ship to stay valid, push's
        // folded answer is already current.
        {
            let truth: u64 = exact.iter().map(|e| e.query(WINDOW)).sum();
            // Push: the folded answer is already current — zero wire
            // cost at query time.
            let got = referee.combined();
            let err = (got.value - truth as f64).abs();
            push.max_err = push.max_err.max(err);
            push.sound &= err <= eps_syn * truth as f64 + slack + 1e-6;
            // Pull: every party re-ships its full synopsis, every
            // query.
            for (p, wave) in pull_waves.iter().enumerate() {
                let frame = Frame::PushSynopsis {
                    party: p as u64,
                    kind: SynopsisKind::DetWave,
                    bytes: wave.encode(),
                };
                pull.bytes += WireCodec::encode(&frame).len() as u64;
                pull.frames += 1;
            }
            let got = combine_estimates(pull_waves.iter().map(|w| w.query_max()));
            let err = (got.value - truth as f64).abs();
            pull.max_err = pull.max_err.max(err);
            pull.sound &= err <= EPS * truth as f64 + 1e-6;
        }
    }
    (push, pull)
}

pub fn run() {
    println!("E25 — push-vs-pull communication (continuous monitoring)");
    println!("========================================================\n");
    println!("{PARTIES} parties, DetWave(N={WINDOW}), eps={EPS} split {SPLIT}");
    println!(
        "(synopsis eps {:.3}, slack pool {:.1}),",
        EPS * SPLIT,
        (EPS - EPS * SPLIT) * WINDOW as f64
    );
    println!("{EVENTS} events, the answer read every {QUERY_EVERY} arrival(s); bytes are real");
    println!("PUSH_DELTA / PUSH_SYNOPSIS frame lengths, header + CRC included.\n");

    let workloads = [
        ("bursty", bursty_events()),
        ("oscillating", oscillating_events()),
    ];
    let mut t = Table::new(&[
        "workload",
        "push frames",
        "push bytes",
        "pull frames",
        "pull bytes",
        "pull/push",
        "push max err",
        "pull max err",
    ]);
    let mut all_ratios_pass = true;
    let mut all_sound = true;
    for (name, events) in &workloads {
        let (push, pull) = replay(events);
        let ratio = pull.bytes as f64 / push.bytes as f64;
        all_ratios_pass &= ratio >= 4.0;
        all_sound &= push.sound && pull.sound;
        t.row(&[
            (*name).to_string(),
            format!("{}", push.frames),
            format!("{}", push.bytes),
            format!("{}", pull.frames),
            format!("{}", pull.bytes),
            format!("{ratio:.1}x"),
            f(push.max_err),
            f(pull.max_err),
        ]);
    }
    t.print();

    println!(
        "\npush ships >= 4x fewer bytes than per-query pull on both workloads — {}",
        crate::verdict::word(all_ratios_pass)
    );
    println!(
        "every answer inside its contract (push: eps_syn*truth + slack; pull: eps*truth) — {}",
        crate::verdict::word(all_sound)
    );
    println!("\nExpected shape: pull cost grows with query rate (parties x");
    println!("queries full synopses), push cost only with drift-threshold");
    println!("crossings; between crossings the referee's answer stays valid");
    println!("with staleness bounded by the slack pool.");
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The measurement core on a miniature stream: push stays sound
    /// and strictly cheaper than per-query pull.
    #[test]
    fn miniature_replay_is_sound_and_cheaper() {
        let events = bursty_events();
        let (push, pull) = replay(&events[..500]);
        assert!(push.sound, "push answer left its contract");
        assert!(pull.sound, "pull answer left its contract");
        assert!(push.frames > 0, "drift never crossed the threshold");
        assert!(
            pull.bytes > push.bytes,
            "pull ({}) not costlier than push ({})",
            pull.bytes,
            push.bytes
        );
    }
}
