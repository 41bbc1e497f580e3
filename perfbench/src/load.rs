//! The daemon under test and the closed-loop client that drives it.
//!
//! The load is a closed loop: each connection keeps a fixed number of
//! requests in flight and sends the next only after a reply, as the
//! daemon's real callers (`presolve`, `service_client`, batch scripts)
//! wait for theirs.

use crate::workload::Req;
use cnash_service::{serve, ServiceConfig, ServiceHandle};
use std::collections::VecDeque;
use std::io::{self, BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpStream};
use std::path::Path;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::{Duration, Instant};

/// Scheduler shards and client connections. Fixed rather than taken
/// from the core count, so the load is the same on every machine; the
/// machine note records `nproc` (2 where the baseline was taken).
pub const CONNS: usize = 2;

/// A reply slower than this counts as dropped, keeping every run far
/// inside the benchmark's time limit.
const READ_TIMEOUT: Duration = Duration::from_secs(30);

/// Starts the daemon in-process.
pub fn start(store: Option<&Path>) -> io::Result<ServiceHandle> {
    serve(ServiceConfig {
        shards: CONNS,
        store_path: store.map(|p| p.to_string_lossy().into_owned()),
        ..ServiceConfig::default()
    })
}

/// One request's fate, as the client saw it.
#[derive(Debug, Clone)]
pub struct Outcome {
    /// Request written to response line framed, microseconds.
    pub latency_us: f64,
    /// The response line, `None` when it never came.
    pub response: Option<String>,
}

struct Conn {
    writer: TcpStream,
    reader: BufReader<TcpStream>,
}

impl Conn {
    fn open(addr: SocketAddr) -> io::Result<Conn> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        stream.set_read_timeout(Some(READ_TIMEOUT))?;
        Ok(Conn {
            reader: BufReader::new(stream.try_clone()?),
            writer: stream,
        })
    }

    fn send(&mut self, buf: &mut Vec<u8>, line: &str) -> io::Result<()> {
        buf.clear();
        buf.extend_from_slice(line.as_bytes());
        buf.push(b'\n');
        self.writer.write_all(buf)
    }

    fn recv(&mut self) -> io::Result<String> {
        let mut response = String::new();
        if self.reader.read_line(&mut response)? == 0 || !response.ends_with('\n') {
            return Err(io::Error::new(
                io::ErrorKind::UnexpectedEof,
                "connection closed",
            ));
        }
        response.pop();
        Ok(response)
    }

    /// Writes one request line and reads one response line.
    fn call(&mut self, buf: &mut Vec<u8>, line: &str) -> io::Result<String> {
        self.send(buf, line)?;
        self.recv()
    }
}

/// [`CONNS`] persistent connections to one daemon.
pub struct Client {
    conns: Vec<Option<Conn>>,
}

impl Client {
    pub fn connect(addr: SocketAddr) -> io::Result<Client> {
        let conns = (0..CONNS)
            .map(|_| Conn::open(addr).map(Some))
            .collect::<io::Result<_>>()?;
        Ok(Client { conns })
    }

    /// Sends every request once. Each connection keeps `depth` requests
    /// in flight, sending the next unsent one as each reply arrives
    /// (replies come back in request order). A connection that fails is
    /// dropped with the requests it carried; the others finish the list.
    pub fn run(&mut self, reqs: &[Req], depth: usize) -> Vec<Outcome> {
        let next = AtomicUsize::new(0);
        let mut out = vec![
            Outcome {
                latency_us: 0.0,
                response: None,
            };
            reqs.len()
        ];
        let results: Vec<Vec<(usize, Outcome)>> = std::thread::scope(|s| {
            let workers: Vec<_> = self
                .conns
                .iter_mut()
                .map(|slot| {
                    let next = &next;
                    s.spawn(move || {
                        let mut done = Vec::new();
                        let mut buf = Vec::new();
                        let mut in_flight = VecDeque::new();
                        while let Some(conn) = slot.as_mut() {
                            while in_flight.len() < depth {
                                let i = next.fetch_add(1, Ordering::Relaxed);
                                let Some(req) = reqs.get(i) else { break };
                                in_flight.push_back((i, Instant::now()));
                                if conn.send(&mut buf, &req.line).is_err() {
                                    break;
                                }
                            }
                            let Some((i, t0)) = in_flight.pop_front() else {
                                break;
                            };
                            let response = conn.recv();
                            let latency_us = t0.elapsed().as_secs_f64() * 1e6;
                            if response.is_err() {
                                *slot = None;
                            }
                            done.push((
                                i,
                                Outcome {
                                    latency_us,
                                    response: response.ok(),
                                },
                            ));
                        }
                        // Requests still in flight on a failed connection
                        // stay unanswered: they count as dropped.
                        done
                    })
                })
                .collect();
            workers
                .into_iter()
                .map(|w| w.join().expect("client thread panicked"))
                .collect()
        });
        for (i, outcome) in results.into_iter().flatten() {
            out[i] = outcome;
        }
        out
    }
}

/// Sends one line on a fresh connection and returns the reply (admin
/// ops: `metrics`).
pub fn call_once(addr: SocketAddr, line: &str) -> io::Result<String> {
    Conn::open(addr)?.call(&mut Vec::new(), line)
}
