//! A `waves serve` process killed with SIGKILL keeps every batch its
//! client sent before a FLUSH that was answered `OK`.
//!
//! Under `--sync-policy every-batch`, an INGEST `OK` means only that the
//! batch is queued on its shard. FLUSH is answered once every shard has
//! applied what was queued before it, and a shard appends and syncs a
//! batch before applying it, so FLUSH's `OK` is the barrier a client
//! can rely on (OPERATIONS.md §2.2). This test pins that barrier on a
//! real process: pipelined INGESTs, one FLUSH, SIGKILL, a restart on the
//! same directory, and a QUERY that must count every 1 sent.

use std::io::{BufRead, BufReader};
use std::path::{Path, PathBuf};
use std::process::{Child, ChildStdout, Command, Stdio};

use waves_core::Bits;
use waves_engine::IngestRequest;
use waves_net::Client;

const KEY: u64 = 7;
const FRAMES: usize = 300;
const BITS_PER_FRAME: usize = 64;
/// At least the bits sent, so the answer covers the whole stream.
const WINDOW: u64 = 1 << 15;

/// A running `waves serve`, killed when dropped so a failing test leaves
/// no process behind.
struct Serve {
    child: Child,
    /// Held open so the server's stdout never hits a closed pipe.
    _stdout: BufReader<ChildStdout>,
    addr: String,
}

impl Serve {
    fn start(dir: &Path) -> Serve {
        let mut child = Command::new(env!("CARGO_BIN_EXE_waves"))
            .args(["serve", "--addr", "127.0.0.1:0", "--shards", "1"])
            .arg("--persist-dir")
            .arg(dir)
            .args([
                "--sync-policy",
                "every-batch",
                "--window",
                &WINDOW.to_string(),
            ])
            .stdout(Stdio::piped())
            .spawn()
            .expect("spawn waves serve");
        let mut stdout = BufReader::new(child.stdout.take().unwrap());
        let mut line = String::new();
        stdout.read_line(&mut line).unwrap();
        let addr = line
            .trim()
            .strip_prefix("listening on ")
            .unwrap_or_else(|| panic!("no ready line: {line:?}"))
            .to_owned();
        Serve {
            child,
            _stdout: stdout,
            addr,
        }
    }

    /// SIGKILL: no drain, no clean-shutdown checkpoint.
    fn kill(mut self) {
        self.child.kill().unwrap();
        self.child.wait().unwrap();
    }
}

impl Drop for Serve {
    fn drop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

/// Frame `i`'s bits: a fixed pattern with `i % 64` ones.
fn frame_bits(i: usize) -> Bits {
    (0..BITS_PER_FRAME).map(|j| j < i % 64).collect()
}

fn scratch(tag: &str) -> PathBuf {
    std::env::temp_dir().join(format!("waves-cli-{tag}-{}", std::process::id()))
}

#[test]
fn every_batch_before_an_acknowledged_flush_survives_sigkill() {
    let dir = scratch("kill-after-flush");
    let _ = std::fs::remove_dir_all(&dir);
    let sent: u64 = (0..FRAMES).map(|i| frame_bits(i).count_ones()).sum();
    assert!((FRAMES * BITS_PER_FRAME) as u64 <= WINDOW);

    let server = Serve::start(&dir);
    let mut client = Client::connect(&server.addr as &str).unwrap();
    let reqs = (0..FRAMES).map(|i| IngestRequest::of(KEY, frame_bits(i)));
    assert_eq!(client.ingest_many(reqs, 32).unwrap(), FRAMES);
    client.flush().unwrap();
    server.kill();
    drop(client);

    let server = Serve::start(&dir);
    let mut client = Client::connect(&server.addr as &str).unwrap();
    let answer = client.query(KEY, WINDOW).unwrap();
    drop(server);
    std::fs::remove_dir_all(&dir).unwrap();
    assert_eq!(answer.value, sent as f64, "{answer:?}");
    assert!(answer.exact, "{answer:?}");
}
