//! Service connection-scale harness: thousands of concurrent pipelined
//! connections against a warm instance cache.
//!
//! `cargo run --release -p cnash-bench --bin service_load -- \
//!      [--conns N] [--per-conn K] [--quick] [--seed S] \
//!      [--addr HOST:PORT] [--out PATH]`
//!
//! Where `service_bench` measures per-request solve latency on one
//! connection, this harness measures the **reactor**: it opens
//! `--conns` connections (default 1000; `--quick` drops to 200 for CI
//! smoke runs), pipelines `--per-conn` identical warm-cache solve
//! requests down each, and drives them all from a single nonblocking
//! event loop — the same `Poller`/`LineFramer` machinery the daemon
//! itself runs on. Every response is matched to its request by the
//! service's request-ordered streaming contract, and the
//! request-written → response-framed latency is recorded per request.
//!
//! The cache is warmed with one cold solve before the clock starts, so
//! the measured numbers are connection-layer + scheduler + cache-hit
//! execution — no programming passes.
//!
//! Emits `BENCH_service_load.json` (schema v2, `cnash_bench::measure`):
//! request-written → response-framed latency (median with P10–P90, p99,
//! p999) and wall time per request. Exits 0 when every check and gate
//! passes; [`HARNESS`] (`--help`) declares what exits 1 and 2 mean.

use cnash_bench::measure::{
    self, fail, quantile, solve_request, Daemon, Estimate, Harness, Report,
};
use cnash_service::framing::{FramedLine, LineFramer};
use cnash_service::reactor::{PollEvent, Poller};
use cnash_service::ServiceConfig;
use std::io::ErrorKind::{Interrupted, WouldBlock};
use std::io::{Read, Write};
use std::net::{TcpStream, ToSocketAddrs};
use std::os::unix::io::AsRawFd;
use std::time::{Duration, Instant};

const HARNESS: Harness = Harness {
    bin: "service_load",
    bench: "service_load",
    about: "Service load: pipelined warm-cache solves across concurrent connections.",
    flags: &[
        "--conns",
        "--per-conn",
        "--quick",
        "--seed",
        "--addr",
        "--out",
    ],
    gates: "dropped responses (a connection died or the run stalled)",
    checks: "the warm-up solve failed",
};
/// A run with no forward progress for this long is declared stalled and
/// its unanswered requests counted as dropped.
const STALL_TIMEOUT: Duration = Duration::from_secs(60);
/// Connections opened per connect burst (the listener backlog is
/// finite; the reactor drains it between bursts).
const CONNECT_BURST: usize = 100;
/// The warm-cache job every connection pipelines is small enough that
/// the daemon, not the solver, dominates: a 4×4 random game, one short
/// run.
const SIZE: usize = 4;
const ITERATIONS: usize = 150;

/// One load connection's state machine: a pre-serialised pipeline of
/// requests on the way out, a line framer on the way back.
struct LoadConn {
    stream: TcpStream,
    framer: LineFramer,
    /// Bytes of the shared request block written so far.
    written: usize,
    /// Send timestamps, filled as `written` crosses request boundaries.
    sent_at: Vec<Instant>,
    /// Responses received (also the index of the next expected one).
    received: usize,
    dead: bool,
}

impl LoadConn {
    fn done(&self, per_conn: usize) -> bool {
        self.dead || self.received == per_conn
    }
}

fn main() {
    let cli = HARNESS.parse();
    // `--quick` is the CI smoke scale; explicit --conns/--per-conn win.
    let scale = |value, default, quick| {
        if cli.quick && value == default {
            quick
        } else {
            value
        }
    };
    let (conns, per_conn) = (scale(cli.conns, 1000, 200), scale(cli.per_conn, 8, 4));

    // In-process daemon unless --addr points at an external one.
    let daemon = cli.addr.is_none().then(|| {
        let max_connections = conns + 16;
        Daemon::boot(ServiceConfig {
            max_connections,
            ..ServiceConfig::default()
        })
    });
    let addr = match (&daemon, cli.addr.as_deref().unwrap_or_default()) {
        (Some(daemon), _) => daemon.addr(),
        (None, addr) => {
            let resolved = addr.to_socket_addrs().ok().and_then(|mut a| a.next());
            resolved.unwrap_or_else(|| fail(&format!("cannot resolve {addr}")))
        }
    };
    let request = |id| solve_request(id, "service-load", SIZE, ITERATIONS, cli.seed);

    // Warm the cache so the load phase is pure cache-hit traffic.
    measure::solve(&mut measure::connect(addr), &request(0));

    // Every connection pipelines the same byte block; per-request send
    // times are recovered from the block's prefix boundaries.
    let mut block: Vec<u8> = Vec::new();
    let mut boundaries: Vec<usize> = Vec::with_capacity(per_conn);
    for k in 0..per_conn {
        block.extend_from_slice(request(k + 1).as_bytes());
        block.push(b'\n');
        boundaries.push(block.len());
    }

    eprintln!("opening {conns} connections ({per_conn} pipelined requests each)...");
    let mut poller = Poller::new().unwrap_or_else(|e| fail(&format!("poller: {e}")));
    let mut pool: Vec<LoadConn> = Vec::with_capacity(conns);
    for batch in (0..conns).collect::<Vec<_>>().chunks(CONNECT_BURST) {
        for &k in batch {
            let stream = TcpStream::connect(addr)
                .unwrap_or_else(|e| fail(&format!("connect {k}/{conns} failed: {e}")));
            stream
                .set_nonblocking(true)
                .unwrap_or_else(|e| fail(&format!("set_nonblocking: {e}")));
            let _ = stream.set_nodelay(true);
            poller
                .register(stream.as_raw_fd(), k as u64, true, true)
                .unwrap_or_else(|e| fail(&format!("register: {e}")));
            pool.push(LoadConn {
                stream,
                framer: LineFramer::new(1 << 20),
                written: 0,
                sent_at: Vec::with_capacity(per_conn),
                received: 0,
                dead: false,
            });
        }
        // Let the daemon drain its accept backlog before the next burst.
        std::thread::sleep(Duration::from_millis(2));
    }

    let total_requests = conns * per_conn;
    let mut latency_ns: Vec<f64> = Vec::with_capacity(total_requests);
    let mut completed = 0usize;
    let mut remaining = conns;
    let start = Instant::now();
    let mut last_progress = start;
    let mut last_report = start;
    let mut events: Vec<PollEvent> = Vec::with_capacity(1024);
    let mut chunk = [0u8; 16 * 1024];

    while remaining > 0 {
        if last_progress.elapsed() > STALL_TIMEOUT {
            eprintln!(
                "stalled: no progress for {}s with {remaining} connections outstanding",
                STALL_TIMEOUT.as_secs()
            );
            break;
        }
        poller
            .wait(&mut events, Some(Duration::from_millis(500)))
            .unwrap_or_else(|e| fail(&format!("poller wait: {e}")));
        for &ev in &events {
            let conn = &mut pool[ev.token as usize];
            if conn.done(per_conn) {
                continue;
            }
            let mut progressed = false;
            if ev.writable && conn.written < block.len() {
                loop {
                    match (&conn.stream).write(&block[conn.written..]) {
                        Err(e) if e.kind() == WouldBlock => break,
                        Err(e) if e.kind() == Interrupted => continue,
                        Ok(0) | Err(_) => {
                            conn.dead = true;
                            break;
                        }
                        Ok(n) => {
                            conn.written += n;
                            progressed = true;
                            // Timestamp every request this write completed.
                            let now = Instant::now();
                            while boundaries
                                .get(conn.sent_at.len())
                                .is_some_and(|&end| end <= conn.written)
                            {
                                conn.sent_at.push(now);
                            }
                            if conn.written == block.len() {
                                break;
                            }
                        }
                    }
                }
            }
            if ev.readable && !conn.dead {
                'read: loop {
                    match (&conn.stream).read(&mut chunk) {
                        Err(e) if e.kind() == WouldBlock => break,
                        Err(e) if e.kind() == Interrupted => continue,
                        Ok(0) | Err(_) => {
                            conn.dead = conn.received < per_conn;
                            break;
                        }
                        Ok(n) => {
                            conn.framer.extend(&chunk[..n]);
                            let now = Instant::now();
                            while let Some(line) = conn.framer.next_line() {
                                let FramedLine::Line(_) = line else {
                                    conn.dead = true;
                                    break 'read;
                                };
                                if conn.received >= conn.sent_at.len() {
                                    conn.dead = true; // response without a request
                                    break 'read;
                                }
                                let waited = now.duration_since(conn.sent_at[conn.received]);
                                latency_ns.push(waited.as_nanos() as f64);
                                conn.received += 1;
                                completed += 1;
                                progressed = true;
                            }
                        }
                    }
                }
            }
            if progressed {
                last_progress = Instant::now();
            }
            if conn.done(per_conn) {
                let _ = poller.deregister(conn.stream.as_raw_fd());
                remaining -= 1;
            } else if conn.written == block.len() {
                // Fully sent: drop write interest, keep draining reads.
                let _ = poller.reregister(conn.stream.as_raw_fd(), ev.token, true, false);
            }
        }
        if last_report.elapsed() > Duration::from_secs(2) {
            eprintln!(
                "  {completed}/{total_requests} responses, {remaining} connections outstanding"
            );
            last_report = Instant::now();
        }
    }
    let elapsed = start.elapsed();

    if let Some(daemon) = daemon {
        daemon.shutdown();
    }

    let dropped = total_requests - completed;
    let req_per_s = completed as f64 / elapsed.as_secs_f64();
    eprintln!(
        "{completed}/{total_requests} responses across {conns} connections in {:.1}s ({req_per_s:.0} req/s)",
        elapsed.as_secs_f64()
    );
    let mut report = Report::new(&HARNESS, &cli);
    if completed > 0 {
        let label = format!("{conns}x{per_conn} latency");
        report.entry(label.clone(), Estimate::of(&latency_ns));
        for (name, q) in [("p99", 0.99), ("p999", 0.999)] {
            let tail = Estimate::of(&[quantile(&latency_ns, q)]);
            report.entry(
                format!("{label} {name}"),
                Estimate {
                    n: completed,
                    ..tail
                },
            );
        }
        let per_request = elapsed.as_nanos() as f64 / completed as f64;
        report.entry(
            format!("{conns}x{per_conn} wall per request"),
            Estimate::of(&[per_request]),
        );
    }
    report.at_most("dropped", dropped as f64, 0.0);
    report.finish();
}
