//! The shared harness of the five CI perf-gate binaries: `perf`,
//! `service_bench`, `store_bench`, `telemetry_bench` and `service_load`.
//! Each declares its grid, its correctness checks and its gates; this
//! module owns the command line ([`Harness::parse`], whose `--help`
//! prints the exit-code contract), the service solve request
//! ([`solve_request`]), the in-process daemon ([`Daemon`]), the checked
//! round trip ([`solve`]), the estimators ([`Estimate::of`], [`paired`])
//! and the report ([`Report`]).
//!
//! **Exit codes.** 2 — usage error, setup failure or a failed
//! correctness check ([`fail`]); 1 — every check passed but a gate did
//! not; 0 — every check and gate passed.
//!
//! **Paired estimator.** An A/B comparison runs in pairs: pair `k` runs
//! A first when `k` is even and B first when it is odd, so slow drift
//! (frequency scaling, a noisy neighbour) hits both sides alike. The
//! estimate is the median of the per-pair ratios `a/b`, with its
//! P10–P90 interval: one stalled pair cannot move it, a real overhead
//! moves every pair.
//!
//! **Schema v2.** `{bench, schema_version: 2, mode, seed,
//! entries: [{label, n, ns, lo, hi}], gates: [{name, bound, value,
//! pass}]}` and no other keys. `ns` is an entry's median sample in
//! nanoseconds, `lo`/`hi` its P10/P90; a gate's `value` is what was
//! compared against `bound`.

use crate::client::ServiceConn;
use crate::{usage_lines, Cli};
use cnash_core::report::render_table;
use cnash_runtime::spec::{ConfigSpec, GameSpec, JobSpec, SolverSpec};
use cnash_runtime::Json;
use cnash_service::{serve, strip_timing, ServiceConfig, ServiceHandle};
use std::net::SocketAddr;

/// Prints `FAIL: msg` and exits 2: a usage or setup error, or a failed
/// correctness check.
pub fn fail(msg: &str) -> ! {
    eprintln!("FAIL: {msg}");
    std::process::exit(2);
}

/// What a gate binary declares about itself.
pub struct Harness {
    /// Binary name, for `--help`.
    pub bin: &'static str,
    /// The report's `bench` name; `--out` defaults to `BENCH_<bench>.json`.
    pub bench: &'static str,
    /// One line: what the binary measures (also the report's title).
    pub about: &'static str,
    /// Supported flags (`--help` is always added).
    pub flags: &'static [&'static str],
    /// What exit 1 means: the gates.
    pub gates: &'static str,
    /// What exit 2 means besides usage and setup errors: the checks.
    pub checks: &'static str,
}

impl Harness {
    /// Parses the command line; `--help` prints usage and the exit-code
    /// contract and exits 0.
    pub fn parse(&self) -> Cli {
        let cli = Cli::parse_for(&self.all_flags());
        if cli.help {
            print!("{}", self.help());
            std::process::exit(0);
        }
        cli
    }

    fn all_flags(&self) -> Vec<&'static str> {
        self.flags.iter().copied().chain(["--help"]).collect()
    }

    fn help(&self) -> String {
        format!(
            "usage: {} [flags]\n{}\n\nflags:\n{}\nexit codes:\n  0  every check and gate passed\n  \
             1  gate failed: {}\n  2  usage or setup error, or check failed: {}\n",
            self.bin,
            self.about,
            usage_lines(&self.all_flags()),
            self.gates,
            self.checks,
        )
    }
}

/// The solve line every service gate sends: a `size × size` random game
/// (payoffs up to 3) on the paper's 12-interval hardware, hardware seed
/// 0, one run, labelled `{prefix}-{size}x{size}`. Ground truth is
/// skipped: support enumeration is intractable at the gate sizes.
pub fn solve_request(id: usize, prefix: &str, size: usize, iterations: usize, seed: u64) -> String {
    let job = JobSpec {
        game: GameSpec::Random {
            rows: size,
            cols: size,
            max_payoff: 3,
            seed,
        },
        solver: SolverSpec::CNash {
            config: ConfigSpec::paper(12).with_iterations(iterations),
            hardware_seed: 0,
        },
        runs: 1,
        base_seed: seed,
        early_stop: None,
        label: Some(format!("{prefix}-{size}x{size}")),
    };
    Json::obj([
        ("op", Json::str("solve")),
        ("id", Json::num(id as f64)),
        ("job", job.to_json()),
        ("ground_truth", Json::str("skip")),
    ])
    .compact()
}

/// One checked solve response.
#[derive(Debug, Clone, PartialEq)]
pub struct Solved {
    /// Server-reported wall time (`wall_ms`), in nanoseconds.
    pub wall_ns: f64,
    /// The instance cache held the programmed crossbar.
    pub cache_hit: bool,
    /// Served from the solution store (`"cache":"disk"`).
    pub from_disk: bool,
    /// The response without timing, `id` and provenance: what must be
    /// byte-identical across repeats of one request.
    pub payload: String,
}

/// Connects to a daemon, exiting 2 on failure.
pub fn connect(addr: SocketAddr) -> ServiceConn {
    ServiceConn::connect(addr).unwrap_or_else(|e| fail(&format!("cannot connect to {addr}: {e}")))
}

/// One solve round trip. Exits 2 if the connection dies, or the
/// response is not JSON, not `ok`, or lacks `wall_ms` or `cache_hit`.
pub fn solve(conn: &mut ServiceConn, request: &str) -> Solved {
    let response = conn
        .round_trip(request)
        .unwrap_or_else(|e| fail(&format!("service connection died: {e}")));
    let mut doc =
        Json::parse(&response).unwrap_or_else(|e| fail(&format!("unparseable response: {e}")));
    if !doc.get("ok").and_then(Json::as_bool).unwrap_or(false) {
        fail(&format!("solve rejected: {response}"));
    }
    let wall_ms = doc.get("wall_ms").and_then(Json::as_f64);
    let cache_hit = doc.get("cache_hit").and_then(Json::as_bool);
    let from_disk = doc.opt("cache").and_then(|c| c.as_str().ok()) == Some("disk");
    strip_timing(&mut doc);
    if let Json::Obj(map) = &mut doc {
        for key in ["id", "cache", "cache_hit"] {
            map.remove(key);
        }
    }
    Solved {
        wall_ns: wall_ms.unwrap_or_else(|e| fail(&format!("bad wall_ms: {e}"))) * 1e6,
        cache_hit: cache_hit.unwrap_or_else(|e| fail(&format!("bad cache_hit: {e}"))),
        from_disk,
        payload: doc.compact(),
    }
}

/// An in-process daemon with one open connection.
pub struct Daemon {
    handle: ServiceHandle,
    conn: ServiceConn,
}

impl Daemon {
    /// Starts a daemon and connects to it, exiting 2 on failure.
    pub fn boot(config: ServiceConfig) -> Self {
        let handle =
            serve(config).unwrap_or_else(|e| fail(&format!("cannot start in-process daemon: {e}")));
        let conn = connect(handle.addr());
        Self { handle, conn }
    }

    /// The daemon's address.
    pub fn addr(&self) -> SocketAddr {
        self.handle.addr()
    }

    /// [`solve`] on the daemon's connection.
    pub fn solve(&mut self, request: &str) -> Solved {
        solve(&mut self.conn, request)
    }

    /// Shuts the daemon down and waits for it to exit.
    pub fn shutdown(self) {
        self.handle.stop();
    }
}

/// A median with its P10–P90 interval.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Estimate {
    /// Number of samples.
    pub n: usize,
    /// The median.
    pub value: f64,
    /// P10.
    pub lo: f64,
    /// P90.
    pub hi: f64,
}

impl Estimate {
    /// The median and P10–P90 of `samples` (which must not be empty).
    pub fn of(samples: &[f64]) -> Self {
        Self {
            n: samples.len(),
            value: quantile(samples, 0.5),
            lo: quantile(samples, 0.1),
            hi: quantile(samples, 0.9),
        }
    }
}

/// The `q`-quantile of `samples` (which must not be empty),
/// interpolating linearly between order statistics.
pub fn quantile(samples: &[f64], q: f64) -> f64 {
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let pos = q.clamp(0.0, 1.0) * (sorted.len() - 1) as f64;
    let (below, above) = (pos.floor() as usize, pos.ceil() as usize);
    sorted[below] + (sorted[above] - sorted[below]) * (pos - below as f64)
}

/// A side of a paired comparison: A is measured, B is the reference.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Side {
    /// The measured variant (the ratios' numerators).
    A,
    /// The reference variant (the denominators).
    B,
}

/// The samples of a paired comparison; index `k` of each side comes
/// from pair `k`.
#[derive(Debug, Clone, PartialEq)]
pub struct Paired {
    /// Side A's samples.
    pub a: Vec<f64>,
    /// Side B's samples.
    pub b: Vec<f64>,
}

impl Paired {
    /// Median and P10–P90 of the per-pair ratios `a/b`.
    pub fn ratio(&self) -> Estimate {
        let ratios: Vec<f64> = self.a.iter().zip(&self.b).map(|(a, b)| a / b).collect();
        Estimate::of(&ratios)
    }
}

/// Runs `pairs` interleaved A/B pairs, A first exactly in the even
/// pairs; `sample` takes one measurement of the given side.
pub fn paired(pairs: usize, mut sample: impl FnMut(Side) -> f64) -> Paired {
    let mut out = Paired {
        a: Vec::with_capacity(pairs),
        b: Vec::with_capacity(pairs),
    };
    for k in 0..pairs {
        let order = if k % 2 == 0 {
            [Side::A, Side::B]
        } else {
            [Side::B, Side::A]
        };
        for side in order {
            let value = sample(side);
            match side {
                Side::A => out.a.push(value),
                Side::B => out.b.push(value),
            }
        }
    }
    out
}

/// A measured value against its bound.
struct Gate {
    name: String,
    /// `">="` or `"<="`: how `value` must compare to `bound`.
    op: &'static str,
    bound: f64,
    value: f64,
    pass: bool,
}

/// A gate binary's results: timed entries and gates.
pub struct Report {
    title: &'static str,
    bench: &'static str,
    mode: &'static str,
    seed: u64,
    out: String,
    entries: Vec<(String, Estimate)>,
    gates: Vec<Gate>,
}

impl Report {
    /// An empty report for `harness`, run with `cli`.
    pub fn new(harness: &Harness, cli: &Cli) -> Self {
        Self {
            title: harness.about,
            bench: harness.bench,
            mode: if cli.quick { "quick" } else { "full" },
            seed: cli.seed,
            out: cli
                .out
                .clone()
                .unwrap_or_else(|| format!("BENCH_{}.json", harness.bench)),
            entries: Vec::new(),
            gates: Vec::new(),
        }
    }

    /// Adds a timed entry; `ns` is in nanoseconds.
    pub fn entry(&mut self, label: impl Into<String>, ns: Estimate) {
        self.entries.push((label.into(), ns));
    }

    /// Adds a gate that passes when `value >= bound`.
    pub fn at_least(&mut self, name: &str, value: f64, bound: f64) {
        self.gate(name, value, bound, true);
    }

    /// Adds a gate that passes when `value <= bound`.
    pub fn at_most(&mut self, name: &str, value: f64, bound: f64) {
        self.gate(name, value, bound, false);
    }

    fn gate(&mut self, name: &str, value: f64, bound: f64, at_least: bool) {
        let (op, pass) = if at_least {
            (">=", value >= bound)
        } else {
            ("<=", value <= bound)
        };
        self.gates.push(Gate {
            name: name.to_string(),
            op,
            bound,
            value,
            pass,
        });
    }

    /// The v2 document.
    fn to_json(&self) -> Json {
        let entries = self.entries.iter().map(|(label, e)| {
            Json::obj([
                ("label", Json::str(label.clone())),
                ("n", Json::uint(e.n as u64)),
                ("ns", Json::Num(e.value)),
                ("lo", Json::Num(e.lo)),
                ("hi", Json::Num(e.hi)),
            ])
        });
        let gates = self.gates.iter().map(|g| {
            Json::obj([
                ("name", Json::str(g.name.clone())),
                ("bound", Json::Num(g.bound)),
                ("value", Json::Num(g.value)),
                ("pass", Json::Bool(g.pass)),
            ])
        });
        Json::obj([
            ("bench", Json::str(self.bench)),
            ("schema_version", Json::uint(2)),
            ("mode", Json::str(self.mode)),
            ("seed", Json::uint(self.seed)),
            ("entries", Json::Arr(entries.collect())),
            ("gates", Json::Arr(gates.collect())),
        ])
    }

    /// Prints the entry and gate tables, writes the JSON to `--out`
    /// (default `BENCH_<bench>.json`) and exits 1 if any gate failed.
    pub fn finish(self) {
        let rows: Vec<Vec<String>> = self
            .entries
            .iter()
            .map(|(label, e)| {
                let (n, value, lo, hi) =
                    (e.n.to_string(), fmt_ns(e.value), fmt_ns(e.lo), fmt_ns(e.hi));
                vec![label.clone(), n, value, lo, hi]
            })
            .collect();
        let headers = ["entry", "n", "median", "P10", "P90"];
        println!("{}", render_table(self.title, &headers, &rows));
        let rows: Vec<Vec<String>> = self
            .gates
            .iter()
            .map(|g| {
                let pass = if g.pass { "yes" } else { "NO" };
                let bound = format!("{} {}", g.op, g.bound);
                vec![
                    g.name.clone(),
                    format!("{:.4}", g.value),
                    bound,
                    pass.into(),
                ]
            })
            .collect();
        println!(
            "{}",
            render_table("Gates", &["gate", "value", "bound", "pass"], &rows)
        );
        if let Err(e) = std::fs::write(&self.out, self.to_json().pretty()) {
            fail(&format!("cannot write {}: {e}", self.out));
        }
        println!("wrote {}", self.out);
        let mut failed = false;
        for g in self.gates.iter().filter(|g| !g.pass) {
            eprintln!(
                "FAIL: gate {} = {:.4} misses its bound {}",
                g.name, g.value, g.bound
            );
            failed = true;
        }
        if failed {
            std::process::exit(1);
        }
    }
}

/// `ns` in the largest unit that keeps it at or above 1.
fn fmt_ns(ns: f64) -> String {
    match ns.abs() {
        v if v >= 1e9 => format!("{:.3} s", ns / 1e9),
        v if v >= 1e6 => format!("{:.3} ms", ns / 1e6),
        v if v >= 1e3 => format!("{:.3} us", ns / 1e3),
        _ => format!("{ns:.1} ns"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{RngExt, SeedableRng};

    /// Pairs of the telemetry gate's quick mode.
    const PAIRS: usize = 60;
    const OVERHEAD_BOUND: f64 = 0.05;

    /// The telemetry gate's verdict on synthetic samples: side A costs
    /// `1 + overhead`, side B costs 1, each sample times a uniform
    /// `1 ± noise` factor.
    fn overhead_gate_passes(overhead: f64, noise: f64, seed: u64) -> bool {
        let mut rng = StdRng::seed_from_u64(seed);
        let samples = paired(PAIRS, |side| {
            let cost = if side == Side::A { 1.0 + overhead } else { 1.0 };
            cost * (1.0 + rng.random_range(-noise..=noise))
        });
        let mut report = Report::new(&harness(), &Cli::default());
        report.at_most("overhead_frac", samples.ratio().value - 1.0, OVERHEAD_BOUND);
        report.gates[0].pass
    }

    fn harness() -> Harness {
        Harness {
            bin: "test",
            bench: "test",
            about: "test harness",
            flags: &["--quick", "--seed", "--out"],
            gates: "test gate",
            checks: "test check",
        }
    }

    #[test]
    fn a_ten_percent_overhead_fails_the_five_percent_gate() {
        for seed in 0..20 {
            assert!(!overhead_gate_passes(0.10, 0.15, seed), "seed {seed}");
        }
    }

    #[test]
    fn no_overhead_under_symmetric_noise_passes() {
        for seed in 0..20 {
            assert!(overhead_gate_passes(0.0, 0.15, seed), "seed {seed}");
        }
    }

    #[test]
    fn pair_k_runs_a_first_exactly_when_k_is_even() {
        let mut calls = Vec::new();
        let samples = paired(5, |side| {
            calls.push(side);
            calls.len() as f64
        });
        for k in 0..5 {
            let first = calls[2 * k];
            assert_eq!(first == Side::A, k % 2 == 0, "pair {k}");
            assert_ne!(calls[2 * k + 1], first, "pair {k} runs both sides");
        }
        // Sample k of each side comes from pair k.
        assert_eq!(samples.a, [1.0, 4.0, 5.0, 8.0, 9.0]);
        assert_eq!(samples.b, [2.0, 3.0, 6.0, 7.0, 10.0]);
    }

    #[test]
    fn estimate_is_the_median_with_a_p10_p90_interval() {
        let samples: Vec<f64> = (0..=10).rev().map(f64::from).collect();
        let e = Estimate::of(&samples);
        assert_eq!((e.n, e.value, e.lo, e.hi), (11, 5.0, 1.0, 9.0));
        assert_eq!(Estimate::of(&[3.0]).value, 3.0);
        assert_eq!(quantile(&[1.0, 2.0], 0.5), 1.5);
    }

    #[test]
    fn v2_document_round_trips_with_exactly_the_documented_keys() {
        let mut report = Report::new(&harness(), &Cli::default());
        report.entry("a", Estimate::of(&[1.0, 2.0, 3.0]));
        report.at_least("speedup", 2.0, 1.5);
        report.at_most("overhead", 0.1, 0.05);
        let text = report.to_json().pretty();
        let doc = Json::parse(&text).unwrap();
        let keys = |j: &Json| match j {
            Json::Obj(map) => map.keys().cloned().collect::<Vec<_>>(),
            other => panic!("expected an object, got {other:?}"),
        };
        assert_eq!(
            keys(&doc),
            [
                "bench",
                "entries",
                "gates",
                "mode",
                "schema_version",
                "seed"
            ]
        );
        assert_eq!(doc.get("schema_version").unwrap().as_u64().unwrap(), 2);
        assert_eq!(doc.get("bench").unwrap().as_str().unwrap(), "test");
        assert_eq!(doc.get("mode").unwrap().as_str().unwrap(), "full");
        let entries = doc.get("entries").unwrap().as_arr().unwrap();
        assert_eq!(entries.len(), 1);
        assert_eq!(keys(&entries[0]), ["hi", "label", "lo", "n", "ns"]);
        assert_eq!(entries[0].get("ns").unwrap().as_f64().unwrap(), 2.0);
        let gates = doc.get("gates").unwrap().as_arr().unwrap();
        assert_eq!(keys(&gates[0]), ["bound", "name", "pass", "value"]);
        let pass: Vec<bool> = gates
            .iter()
            .map(|g| g.get("pass").unwrap().as_bool().unwrap())
            .collect();
        assert_eq!(pass, [true, false]);
    }

    #[test]
    fn help_lists_flags_and_the_exit_code_contract() {
        let help = harness().help();
        for needle in [
            "usage: test",
            "--quick",
            "--out",
            "--help",
            "test gate",
            "test check",
        ] {
            assert!(help.contains(needle), "{needle} missing from:\n{help}");
        }
    }
}
