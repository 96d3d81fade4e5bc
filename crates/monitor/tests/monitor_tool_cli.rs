//! End-to-end pins for the `monitor_tool` binary: a live `serve`
//! process (one event loop by default, `--loops N`) fed by real
//! `forward` processes over Unix sockets and TCP, with hostile clients
//! injected —
//! the shell-level demo of the wire-boundary merge-equivalence
//! guarantee, and the regression test for "one bad session used to
//! kill the aggregator".

use std::io::{BufRead, BufReader, Read, Write};
use std::net::TcpStream;
use std::os::unix::net::UnixStream;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};

const SEED: &str = "7";
const DURATION: &str = "120";

fn tool() -> Command {
    Command::new(env!("CARGO_BIN_EXE_monitor_tool"))
}

fn scratch_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("sst_cli_{tag}_{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("scratch dir");
    dir
}

/// `run --shards 1` — the single-process reference snapshot.
fn reference_snapshot(dir: &Path) -> Vec<u8> {
    let ref_path = dir.join("ref.ssm");
    let status = tool()
        .args([
            "run",
            "--seed",
            SEED,
            "--duration",
            DURATION,
            "--shards",
            "1",
        ])
        .arg("--snapshot")
        .arg(&ref_path)
        .stdout(Stdio::null())
        .stderr(Stdio::null())
        .status()
        .expect("spawn run");
    assert!(status.success(), "reference run failed");
    std::fs::read(&ref_path).expect("reference bytes")
}

fn spawn_forward(target: &str, part: u64, n_parts: u64, tcp: bool) -> Child {
    let mut cmd = tool();
    cmd.args(["forward", target]);
    if tcp {
        cmd.arg("--tcp");
    }
    cmd.args([
        "--partition",
        &format!("{part}/{n_parts}"),
        "--seed",
        SEED,
        "--duration",
        DURATION,
    ])
    .stdout(Stdio::null())
    .stderr(Stdio::piped());
    cmd.spawn().expect("spawn forward")
}

/// Waits for a forwarder spawned by [`spawn_forward`], asserting it
/// succeeded on one sequenced session without reconnecting.
fn await_forward(f: Child) {
    let out = f.wait_with_output().expect("forward exit");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(out.status.success(), "forward failed:\n{stderr}");
    assert!(
        stderr.contains("sequenced, 0 reconnects"),
        "forward must report one sequenced session:\n{stderr}"
    );
}

/// Reads serve's stderr until the TCP listener line appears, returning
/// the bound address and a thread draining the rest into a String.
fn tcp_addr_from_stderr(
    stderr: std::process::ChildStderr,
) -> (String, std::thread::JoinHandle<String>) {
    let mut reader = BufReader::new(stderr);
    let mut addr = None;
    let mut seen = String::new();
    for _ in 0..64 {
        let mut line = String::new();
        if reader.read_line(&mut line).expect("serve stderr") == 0 {
            break;
        }
        seen.push_str(&line);
        if let Some(rest) = line.trim().strip_prefix("listening on tcp ") {
            addr = Some(rest.to_string());
            break;
        }
    }
    let addr = addr.unwrap_or_else(|| panic!("no tcp listener line in serve stderr:\n{seen}"));
    let drain = std::thread::spawn(move || {
        let mut rest = String::new();
        reader.read_to_string(&mut rest).expect("drain stderr");
        seen + &rest
    });
    (addr, drain)
}

#[test]
fn event_loop_serve_with_mixed_transports_and_hostile_clients_matches_run() {
    let dir = scratch_dir("evloop");
    let reference = reference_snapshot(&dir);
    let sock = dir.join("agg.sock");
    let out = dir.join("out.ssm");

    let mut serve = tool()
        .arg("serve")
        .arg(&sock)
        .args(["--tcp", "127.0.0.1:0", "--collectors", "3"])
        .args(["--accept-timeout", "120"])
        .arg("--out")
        .arg(&out)
        .stdout(Stdio::null())
        .stderr(Stdio::piped())
        .spawn()
        .expect("spawn serve");
    let (tcp_addr, stderr_thread) = tcp_addr_from_stderr(serve.stderr.take().expect("stderr"));

    // Hostile clients first, fully finished before any forwarder: a
    // garbage UDS session (this used to kill the whole aggregator), a
    // mid-frame TCP cut, and connect-and-close probes on both
    // transports. None may consume a collector slot.
    {
        let mut s = UnixStream::connect(&sock).expect("connect uds");
        s.write_all(b"NOT A FRAME AT ALL").expect("garbage write");
        drop(s);
        let mut s = TcpStream::connect(&tcp_addr).expect("connect tcp");
        // A valid v4 header cut inside its declared payload.
        s.write_all(b"SSWF\x04\x01\xff\x00\x00\x00partial")
            .expect("torn write");
        drop(s);
        drop(UnixStream::connect(&sock).expect("probe uds"));
        drop(TcpStream::connect(&tcp_addr).expect("probe tcp"));
    }

    // Three healthy forwarders: two over UDS, one over TCP.
    let sock_str = sock.to_str().expect("utf8 path");
    let forwards = vec![
        spawn_forward(sock_str, 0, 3, false),
        spawn_forward(sock_str, 1, 3, false),
        spawn_forward(&tcp_addr, 2, 3, true),
    ];
    for f in forwards {
        await_forward(f);
    }
    let status = serve.wait().expect("serve exit");
    let stderr = stderr_thread.join().expect("stderr thread");
    assert!(
        status.success(),
        "serve must survive hostile clients:\n{stderr}"
    );
    assert!(
        stderr.contains("session failed"),
        "hostile sessions should be logged:\n{stderr}"
    );

    let assembled = std::fs::read(&out).expect("assembled bytes");
    assert_eq!(
        assembled, reference,
        "event-loop serve + 3 forwards must reproduce run --shards 1 byte-for-byte"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn multi_loop_serve_with_report_sessions_matches_run() {
    let dir = scratch_dir("multiloop");
    let reference = reference_snapshot(&dir);

    // One pass per loop count; byte-identity to `run --shards 1` must
    // hold at every one.
    for loops in ["2", "4"] {
        let sock = dir.join(format!("agg_{loops}.sock"));
        let out = dir.join(format!("out_{loops}.ssm"));

        let mut serve = tool()
            .arg("serve")
            .arg(&sock)
            .args(["--tcp", "127.0.0.1:0", "--collectors", "4"])
            .args(["--loops", loops])
            .args(["--accept-timeout", "120", "--report-sessions"])
            .arg("--out")
            .arg(&out)
            .stdout(Stdio::null())
            .stderr(Stdio::piped())
            .spawn()
            .expect("spawn serve");
        let (tcp_addr, stderr_thread) = tcp_addr_from_stderr(serve.stderr.take().expect("stderr"));

        // Hostiles first: garbage on UDS, a torn frame on TCP, probes
        // on both. The admission table and failure isolation must hold
        // regardless of which loop each lands on.
        {
            let mut s = UnixStream::connect(&sock).expect("connect uds");
            s.write_all(b"NOT A FRAME AT ALL").expect("garbage write");
            drop(s);
            let mut s = TcpStream::connect(&tcp_addr).expect("connect tcp");
            s.write_all(b"SSWF\x04\x01\xff\x00\x00\x00partial")
                .expect("torn write");
            drop(s);
            drop(UnixStream::connect(&sock).expect("probe uds"));
            drop(TcpStream::connect(&tcp_addr).expect("probe tcp"));
        }

        // Four healthy forwarders round-robined across the loops: two
        // over UDS, two over TCP.
        let sock_str = sock.to_str().expect("utf8 path");
        let forwards = vec![
            spawn_forward(sock_str, 0, 4, false),
            spawn_forward(&tcp_addr, 1, 4, true),
            spawn_forward(sock_str, 2, 4, false),
            spawn_forward(&tcp_addr, 3, 4, true),
        ];
        for f in forwards {
            await_forward(f);
        }
        let status = serve.wait().expect("serve exit");
        let stderr = stderr_thread.join().expect("stderr thread");
        assert!(
            status.success(),
            "x{loops}: serve must survive hostile clients:\n{stderr}"
        );
        assert!(
            stderr.contains(&format!("[{loops} event loops]")),
            "x{loops}: mode line should name the loop count:\n{stderr}"
        );
        assert!(
            stderr.contains("session failed"),
            "x{loops}: hostile sessions should be logged:\n{stderr}"
        );
        assert_eq!(
            stderr.matches("session delivered:").count(),
            4,
            "x{loops}: --report-sessions prints one line per delivery:\n{stderr}"
        );

        let assembled = std::fs::read(&out).expect("assembled bytes");
        assert_eq!(
            assembled, reference,
            "x{loops}: multi-loop serve must reproduce run --shards 1 byte-for-byte"
        );
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn forward_without_retry_fails_fast_when_nothing_listens() {
    // The default `--retry 0` is one connection attempt: no listener
    // means a connect error and a non-zero exit, without a backoff
    // sleep (--backoff-ms 5000 would make the first one 2.5–5 s).
    let dir = scratch_dir("noserve");
    let sock = dir.join("nobody.sock");
    let start = std::time::Instant::now();
    let out = tool()
        .arg("forward")
        .arg(&sock)
        .args(["--seed", SEED, "--duration", "10", "--backoff-ms", "5000"])
        .stdout(Stdio::null())
        .output()
        .expect("spawn forward");
    let elapsed = start.elapsed();
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(!out.status.success(), "forward must fail:\n{stderr}");
    assert!(
        stderr.contains("connect ") && stderr.contains("nobody.sock"),
        "forward must report the connect error:\n{stderr}"
    );
    assert!(
        elapsed < std::time::Duration::from_secs(2),
        "one attempt, no backoff sleep: took {elapsed:?}"
    );
    let _ = std::fs::remove_dir_all(&dir);
}
