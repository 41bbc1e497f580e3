//! Serving benchmark of the C-Nash solver daemon.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <warm_tiny|anneal_paper|cold_mixed|store_replay> \
//!     --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Starts the daemon (`cnash_service::serve`) in-process, drives it over
//! TCP with a closed loop of two connections, checks every answer, and
//! prints the end-to-end metrics (`--trace 0`) or the per-layer metrics
//! (`--trace 1`). The last stdout line is one JSON object:
//! `{"correct":..,"attempted":..,"failed":..,"metrics":{name:{value,unit}}}`.
//! The exit code is non-zero when any answer check fails.
//! `perfbench/README.md` defines every metric and workload.

mod check;
mod load;
mod micro;
mod stats;
mod sys;
mod trace;
mod workload;

use check::{Checker, Tally};
use cnash_core::solver::DELTA_EVAL_MIN_CELLS;
use cnash_runtime::Json;
use cnash_service::{InstanceCache, ServiceHandle, SolutionStore};
use stats::{median, percentile, tail_percentile};
use std::collections::{BTreeMap, HashSet};
use std::net::SocketAddr;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Instant;
use trace::{self_times, Replica, ReqInfo, Tracer};
use workload::{Req, StoreMode, Workload};

/// Set-ups per end-to-end run; `setup_s` is their median.
const SETUPS: usize = 5;
/// Where stores and span files go, relative to the working directory.
const WORK_DIR: &str = ".perfbench";

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let mut flags = BTreeMap::new();
    for pair in argv.chunks(2) {
        match pair {
            [k, v] if ["--workload", "--seed", "--seconds", "--trace"].contains(&k.as_str()) => {
                flags.insert(k.as_str(), v.as_str());
            }
            _ => return Err(format!("unexpected arguments {pair:?}")),
        }
    }
    let get = |k: &str| flags.get(k).copied().ok_or(format!("missing {k}"));
    let seconds: f64 = get("--seconds")?
        .parse()
        .map_err(|e| format!("--seconds: {e}"))?;
    if !(seconds > 0.0 && seconds <= 120.0) {
        return Err("--seconds must be in (0, 120]".into());
    }
    Ok(Args {
        workload: get("--workload")?.to_string(),
        seed: get("--seed")?.parse().map_err(|e| format!("--seed: {e}"))?,
        seconds,
        trace: match get("--trace")? {
            "0" => false,
            "1" => true,
            other => return Err(format!("--trace must be 0 or 1, not {other}")),
        },
    })
}

fn main() {
    match run() {
        Ok(correct) => std::process::exit(if correct { 0 } else { 1 }),
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!(
                "usage: perfbench --workload <{}> --seed <n> --seconds <s> --trace <0|1>",
                workload::NAMES.join("|")
            );
            std::process::exit(2);
        }
    }
}

/// Removes this run's scratch files however the run ends.
struct Scratch {
    dir: PathBuf,
    tag: String,
}

impl Scratch {
    fn path(&self, name: &str) -> PathBuf {
        self.dir.join(format!("{}-{name}", self.tag))
    }
}

impl Drop for Scratch {
    fn drop(&mut self) {
        let Ok(entries) = std::fs::read_dir(&self.dir) else {
            return;
        };
        for e in entries.flatten() {
            if e.file_name().to_string_lossy().starts_with(&self.tag) {
                let _ = std::fs::remove_file(e.path());
            }
        }
    }
}

/// Sends every line once through a fresh client.
fn send_all(addr: SocketAddr, reqs: &[Req], depth: usize) -> Result<Vec<load::Outcome>, String> {
    let mut client = load::Client::connect(addr).map_err(|e| format!("connect: {e}"))?;
    Ok(client.run(reqs, depth))
}

/// One set-up: daemon start through the moment the first timed request
/// may go. Returns the daemon and the set-up's wall seconds.
fn setup(
    w: &Workload,
    store: Option<&Path>,
    checker: &mut Checker,
) -> Result<(ServiceHandle, f64), String> {
    if let Some(p) = store {
        let _ = std::fs::remove_file(p);
    }
    let t0 = Instant::now();
    let mut daemon = load::start(store).map_err(|e| format!("daemon start: {e}"))?;
    let outcomes = send_all(daemon.addr(), &w.setup, w.depth)?;
    if w.store == StoreMode::Presolved {
        daemon.stop();
        daemon = load::start(store).map_err(|e| format!("daemon restart: {e}"))?;
    }
    let secs = t0.elapsed().as_secs_f64();
    // Checked after the clock stops: the checks are the benchmark's own
    // work, not the daemon's set-up.
    for (req, o) in w.setup.iter().zip(&outcomes) {
        checker
            .check(req, o.response.as_deref(), false, None)
            .map_err(|e| format!("set-up request failed: {e}"))?;
    }
    Ok((daemon, secs))
}

/// One timed round, reduced to the statistics the run reports.
struct Round {
    solves_per_s: f64,
    cpu_ms_per_solve: f64,
    p50_ms: f64,
    tail_ms: f64,
}

/// Everything the timed phase produced.
struct Timed {
    rounds: Vec<Round>,
    attempted: usize,
    failed: usize,
    tally: Tally,
    /// Client latency minus the daemon's `wall_ms`, every ok request, µs.
    outside_us: Vec<f64>,
    /// The daemon's `wall_ms` for each request of the first round.
    first_round_wall_ms: Vec<f64>,
    /// Per game size: ok requests and their summed client latency, µs.
    by_size: BTreeMap<usize, (usize, f64)>,
}

fn timed_phase(
    w: &Workload,
    addr: SocketAddr,
    seconds: f64,
    checker: &mut Checker,
) -> Result<Timed, String> {
    let mut client = load::Client::connect(addr).map_err(|e| format!("connect: {e}"))?;
    let tail_pct = tail_percentile(w.round_len()).expect("rounds exceed 10 requests");
    let mut t = Timed {
        rounds: Vec::new(),
        attempted: 0,
        failed: 0,
        tally: Tally::default(),
        outside_us: Vec::new(),
        first_round_wall_ms: vec![0.0; w.round_len()],
        by_size: BTreeMap::new(),
    };
    let mut measured = 0.0;
    while t.rounds.len() < w.tally_rounds || measured < seconds {
        let Some(reqs) = w.round(t.rounds.len()) else {
            break;
        };
        let first = t.rounds.is_empty();
        let tallied = t.rounds.len() < w.tally_rounds;
        let cpu0 = sys::cpu_seconds();
        let t0 = Instant::now();
        let outcomes = client.run(reqs, w.depth);
        let wall_s = t0.elapsed().as_secs_f64();
        let cpu_s = sys::cpu_seconds() - cpu0;
        measured += wall_s;
        let mut latencies_us = Vec::with_capacity(reqs.len());
        for (i, (req, o)) in reqs.iter().zip(&outcomes).enumerate() {
            t.attempted += 1;
            let tally = tallied.then_some(&mut t.tally);
            match checker.check(
                req,
                o.response.as_deref(),
                w.store == StoreMode::Presolved,
                tally,
            ) {
                Ok(v) => {
                    latencies_us.push(o.latency_us);
                    let size = t.by_size.entry(v.actions).or_default();
                    size.0 += 1;
                    size.1 += o.latency_us;
                    t.outside_us.push(o.latency_us - v.wall_ms * 1e3);
                    if first {
                        t.first_round_wall_ms[i] = v.wall_ms;
                    }
                }
                Err(e) => {
                    if t.failed < 5 {
                        eprintln!("check failed: round {} request {i}: {e}", t.rounds.len());
                    }
                    t.failed += 1;
                }
            }
        }
        latencies_us.sort_by(f64::total_cmp);
        let lat_ms = |q| match latencies_us.len() {
            0 => 0.0,
            _ => percentile(&latencies_us, q) / 1e3,
        };
        t.rounds.push(Round {
            solves_per_s: latencies_us.len() as f64 / wall_s,
            cpu_ms_per_solve: 1e3 * cpu_s / latencies_us.len().max(1) as f64,
            p50_ms: lat_ms(50.0),
            tail_ms: lat_ms(tail_pct),
        });
    }
    Ok(t)
}

/// Counters of the daemon's `metrics` op.
fn counters(addr: SocketAddr) -> Result<BTreeMap<String, f64>, String> {
    let line = load::call_once(addr, r#"{"op":"metrics","id":0}"#)
        .map_err(|e| format!("metrics op: {e}"))?;
    let doc = Json::parse(&line).map_err(|e| format!("metrics op: {e}"))?;
    let Ok(Json::Obj(map)) = doc.get("metrics").and_then(|m| m.get("counters")) else {
        return Err("metrics op: no counters".into());
    };
    Ok(map
        .iter()
        .filter_map(|(k, v)| v.as_f64().ok().map(|v| (k.clone(), v)))
        .collect())
}

/// Named metric values with units, printed and emitted in order.
#[derive(Default)]
struct Report(Vec<(&'static str, f64, &'static str)>);

impl Report {
    fn add(&mut self, name: &'static str, value: f64, unit: &'static str) {
        self.0
            .push((name, if value.is_finite() { value } else { 0.0 }, unit));
    }

    fn finish(self, correct: bool, attempted: usize, failed: usize) {
        let mut metrics = BTreeMap::new();
        for (name, value, unit) in &self.0 {
            println!("metric {name:<34} {value:>14.4} {unit}");
            metrics.insert(
                name.to_string(),
                Json::obj([("value", Json::Num(*value)), ("unit", Json::str(*unit))]),
            );
        }
        let result = Json::obj([
            ("correct", Json::Bool(correct)),
            ("attempted", Json::uint(attempted as u64)),
            ("failed", Json::uint(failed as u64)),
            ("metrics", Json::Obj(metrics)),
        ]);
        println!("{}", result.compact());
    }
}

fn run() -> Result<bool, String> {
    let args = parse_args()?;
    let w = workload::generate(&args.workload, args.seed)
        .ok_or(format!("unknown workload `{}`", args.workload))?;
    let (digest, lines) = w.digest();
    println!(
        "workload {} seed {} request_digest {digest:016x} ({lines} lines); nproc {}",
        w.name,
        args.seed,
        std::thread::available_parallelism().map_or(0, |n| n.get())
    );
    std::fs::create_dir_all(WORK_DIR).map_err(|e| format!("{WORK_DIR}: {e}"))?;
    let scratch = Scratch {
        dir: PathBuf::from(WORK_DIR),
        tag: format!("{}-{}-{}", w.name, args.seed, std::process::id()),
    };

    let mut checker = Checker::default();
    let mut setup_s = Vec::new();
    let mut daemon = None;
    for k in 0..if args.trace { 1 } else { SETUPS } {
        if let Some((d, _)) = daemon.take() {
            ServiceHandle::stop(d);
        }
        let store = (w.store != StoreMode::None).then(|| scratch.path(&format!("setup{k}.store")));
        let (d, secs) = setup(&w, store.as_deref(), &mut checker)?;
        setup_s.push(secs);
        daemon = Some((d, store));
    }
    let (daemon, store_path) = daemon.expect("at least one set-up");
    let addr = daemon.addr();
    let before = if args.trace {
        Some(counters(addr)?)
    } else {
        None
    };
    // Peak memory covers the timed phase only, not the set-ups before it.
    if let Err(e) = sys::reset_peak_rss() {
        eprintln!("warning: cannot reset VmHWM ({e}); peak_rss_mb covers the whole run");
    }
    let timed = timed_phase(&w, addr, args.seconds, &mut checker)?;
    let after = if args.trace {
        Some(counters(addr)?)
    } else {
        None
    };
    let daemon_store = daemon.store().cloned();
    daemon.stop();

    let correct = timed.failed == 0;
    let tail_pct = tail_percentile(w.round_len()).expect("rounds exceed 10 requests");
    println!(
        "timed phase: {} rounds of {} requests, {} attempted, {} failed; latency tail = p{tail_pct:.1}",
        timed.rounds.len(),
        w.round_len(),
        timed.attempted,
        timed.failed
    );
    // Which game sizes the client waited on. Where each connection has
    // one request in flight, latency is the request's service time.
    let waited: f64 = timed.by_size.values().map(|v| v.1).sum();
    println!("client latency share by game size (size: requests, share):");
    for (size, (n, us)) in &timed.by_size {
        println!(
            "  {size:>3}: {n:>7} {:>6.2}%",
            100.0 * us / waited.max(1e-9)
        );
    }
    let mut report = Report::default();
    if !args.trace {
        // Per-round statistics, reported as their median over the
        // rounds: a burst of host noise spoils a round, not the run.
        let across = |f: fn(&Round) -> f64| median(&timed.rounds.iter().map(f).collect::<Vec<_>>());
        report.add("setup_s", median(&setup_s), "s");
        report.add("solves_per_s", across(|r| r.solves_per_s), "1/s");
        report.add("latency_p50_ms", across(|r| r.p50_ms), "ms");
        report.add("latency_tail_ms", across(|r| r.tail_ms), "ms");
        report.add("cpu_ms_per_solve", across(|r| r.cpu_ms_per_solve), "ms");
        report.add("peak_rss_mb", sys::peak_rss_mib(), "MiB");
        report.add(
            "ok_pct",
            100.0 * (timed.attempted - timed.failed) as f64 / timed.attempted.max(1) as f64,
            "%",
        );
        report.add("ne_success_pct", timed.tally.ne_success_pct(), "%");
        report.add("coverage_pct", timed.tally.coverage_pct(), "%");
        report.add("model_tts_us", timed.tally.model_tts_us(), "us");
        eprintln!(
            "failed_share {:.6} ({} of {})",
            timed.failed as f64 / timed.attempted.max(1) as f64,
            timed.failed,
            timed.attempted
        );
    } else {
        let (before, after) = (before.expect("traced"), after.expect("traced"));
        let delta =
            |k: &str| after.get(k).copied().unwrap_or(0.0) - before.get(k).copied().unwrap_or(0.0);
        let ratio = |a: f64, b: f64| if b > 0.0 { a / b } else { 0.0 };
        traced_layers(
            &w,
            &scratch,
            store_path.as_deref(),
            daemon_store,
            &timed,
            &mut report,
            args.seed,
        )?;
        report.add("service.outside_us", median(&timed.outside_us), "us");
        // Counts scale with the rounds run, which depend on host speed,
        // so they are reported per 1000 ok solves.
        let ok = (timed.attempted - timed.failed) as f64;
        report.add(
            "service.sched_steals_per_1k",
            1e3 * ratio(delta("sched_steals"), ok),
            "count/1k",
        );
        report.add(
            "service.backpressure_stalls_per_1k",
            1e3 * ratio(delta("conn_backpressure_stalls"), ok),
            "count/1k",
        );
        let (hits, misses) = (delta("cache_instance_hits"), delta("cache_instance_misses"));
        report.add(
            "cache.instance_hit_ratio",
            ratio(hits, hits + misses),
            "ratio",
        );
        let (hits, misses) = (delta("store_hits"), delta("store_misses"));
        report.add("store.hit_ratio", ratio(hits, hits + misses), "ratio");
        report.add(
            "anneal.accept_ratio",
            ratio(delta("sa_accepts"), delta("sa_sweeps")),
            "ratio",
        );
        report.0.sort_by_key(|(name, _, _)| *name);
    }
    report.finish(correct, timed.attempted, timed.failed);
    drop(scratch);
    Ok(correct)
}

/// The in-process replay and micro rows of a traced run.
fn traced_layers(
    w: &Workload,
    scratch: &Scratch,
    store_path: Option<&Path>,
    daemon_store: Option<Arc<SolutionStore>>,
    timed: &Timed,
    report: &mut Report,
    seed: u64,
) -> Result<(), String> {
    let open = |p: &Path| {
        SolutionStore::open(p)
            .map(Arc::new)
            .map_err(|e| format!("store open: {e}"))
    };
    let mut open_ms = Vec::new();
    if let Some(p) = store_path {
        for _ in 0..5 {
            let t0 = Instant::now();
            drop(open(p)?);
            open_ms.push(t0.elapsed().as_secs_f64() * 1e3);
        }
    }
    let replica = |k: usize| -> Result<Replica, String> {
        let store = match w.store {
            StoreMode::None => None,
            StoreMode::Fresh => Some(open(&scratch.path(&format!("replay{k}.store")))?),
            StoreMode::Presolved => daemon_store.clone(),
        };
        let r = Replica {
            cache: InstanceCache::new(),
            store,
        };
        // Warm the same way the daemon was warmed; a fresh store's
        // prefill only matters for eviction, which the replay skips.
        if w.store == StoreMode::None {
            for req in &w.setup {
                r.run_untraced(req);
            }
        }
        Ok(r)
    };
    let (plain, traced) = (replica(0)?, replica(1)?);
    let reqs = &w.rounds[0][..w.replay_len];
    let tracer = Tracer::new();
    let mut untraced_ns = 0u128;
    let mut infos: Vec<ReqInfo> = Vec::new();
    let mut mismatched = 0;
    for (k, req) in reqs.iter().enumerate() {
        // Alternate which replica goes first, so warm CPU caches favour
        // neither side of the overhead comparison.
        let ((d, a), (info, b)) = if k % 2 == 0 {
            (plain.run_untraced(req), traced.run_traced(&tracer, k, req))
        } else {
            let t = traced.run_traced(&tracer, k, req);
            (plain.run_untraced(req), t)
        };
        untraced_ns += d.as_nanos();
        infos.push(info);
        let norm = |s: &str| {
            Json::parse(s)
                .map(|d| check::deterministic_payload(&d))
                .ok()
        };
        if norm(&a) != norm(&b) {
            mismatched += 1;
        }
    }
    if mismatched > 0 {
        eprintln!("warning: {mismatched} traced replays differ from execute_solve's answer");
    }
    let spans = tracer.into_spans();
    let selfs = self_times(&spans);

    // Per-layer self time, printed as the breakdown of the replay.
    let mut by_layer: BTreeMap<&str, (usize, u64)> = BTreeMap::new();
    for (s, st) in spans.iter().zip(&selfs) {
        let e = by_layer.entry(s.name).or_default();
        e.0 += 1;
        e.1 += st;
    }
    let total: u64 = spans
        .iter()
        .filter(|s| s.parent.is_none())
        .map(|s| s.duration_ns())
        .sum();
    println!("replay self time by layer ({} requests):", reqs.len());
    for (name, (n, ns)) in &by_layer {
        println!(
            "  {name:<24} {n:>7} spans {:>12.3} ms {:>6.2}%",
            *ns as f64 / 1e6,
            100.0 * *ns as f64 / total.max(1) as f64
        );
    }
    let spans_file = Path::new(WORK_DIR).join(format!("spans-{}-seed{seed}.jsonl", w.name));
    let text: String = spans
        .iter()
        .zip(&selfs)
        .map(|(s, st)| {
            let parent = s.parent.map_or(Json::Null, |p| Json::uint(p as u64));
            Json::obj([
                ("name", Json::str(s.name)),
                ("start_ns", Json::uint(s.start_ns)),
                ("end_ns", Json::uint(s.end_ns)),
                ("self_ns", Json::uint(*st)),
                ("parent", parent),
                ("request", Json::uint(s.request as u64)),
            ])
            .compact()
                + "\n"
        })
        .collect();
    std::fs::write(&spans_file, text).map_err(|e| format!("{}: {e}", spans_file.display()))?;
    println!("spans written to {}", spans_file.display());

    let durations = |name: &str, keep: &dyn Fn(&ReqInfo) -> bool| -> Vec<f64> {
        spans
            .iter()
            .filter(|s| s.name == name && keep(&infos[s.request]))
            .map(|s| s.duration_ns() as f64)
            .collect()
    };
    let all = |_: &ReqInfo| true;
    let med = |name: &str, scale: f64| median(&durations(name, &all)) / scale;
    report.add("service.parse_us", med("service.parse", 1e3), "us");
    report.add("service.serialize_us", med("service.serialize", 1e3), "us");
    report.add("runtime.build_us", med("runtime.build", 1e3), "us");
    report.add("game.fingerprint_us", med("game.fingerprint", 1e3), "us");
    report.add("store.open_ms", median(&open_ms), "ms");
    report.add("store.lookup_us", med("store.lookup", 1e3), "us");
    report.add(
        "store.payload_rebuild_us",
        med("store.payload_rebuild", 1e3),
        "us",
    );
    report.add("store.append_us", med("store.append", 1e3), "us");
    let hit = |i: &ReqInfo| i.prepare_hit == Some(true);
    let miss = |i: &ReqInfo| i.prepare_hit == Some(false);
    report.add(
        "cache.prepare_hit_us",
        median(&durations("cache.prepare", &hit)) / 1e3,
        "us",
    );
    report.add(
        "cache.prepare_miss_ms",
        median(&durations("cache.prepare", &miss)) / 1e6,
        "ms",
    );
    report.add("cache.truth_ms", med("cache.truth", 1e6), "ms");
    report.add(
        "game.enumerate_ms",
        median(&durations("cache.truth", &|i| i.enumerated)) / 1e6,
        "ms",
    );
    report.add("runtime.report_us", med("runtime.report", 1e3), "us");
    report.add("anneal.run_ms", med("anneal.run", 1e6), "ms");

    // Batch overhead: the batch span minus the runs inside it.
    let mut run_ns = vec![0u64; spans.len()];
    for s in spans.iter().filter(|s| s.name == "anneal.run") {
        run_ns[s.parent.expect("runs nest in a batch")] += s.duration_ns();
    }
    let overhead: Vec<f64> = spans
        .iter()
        .enumerate()
        .filter(|(_, s)| s.name == "runtime.batch")
        .map(|(k, s)| s.duration_ns().saturating_sub(run_ns[k]) as f64 / 1e3)
        .collect();
    report.add("runtime.batch_overhead_us", median(&overhead), "us");

    // SA cost per iteration, split by the evaluation path the run took.
    let (mut full, mut delta) = ((0u64, 0u64), (0u64, 0u64));
    for s in spans.iter().filter(|s| s.name == "anneal.run") {
        let info = &infos[s.request];
        let side = if info.cells > DELTA_EVAL_MIN_CELLS {
            &mut delta
        } else {
            &mut full
        };
        side.0 += s.duration_ns();
        side.1 += info.iterations as u64;
    }
    let per_iter = |(ns, iters): (u64, u64)| {
        if iters > 0 {
            ns as f64 / iters as f64
        } else {
            0.0
        }
    };
    report.add("anneal.ns_per_iter_full", per_iter(full), "ns");
    report.add("anneal.ns_per_iter_delta", per_iter(delta), "ns");

    // Tracing overhead, and how much of the daemon's own wall_ms the
    // replayed execute_solve steps account for.
    // The overhead is a diagnostic, not a metric: the traced replay
    // re-implements execute_solve's steps, so the difference mixes the
    // spans' cost with whatever the two paths do differently.
    let roots: Vec<&trace::Span> = spans.iter().filter(|s| s.parent.is_none()).collect();
    let traced_ns: u64 = roots.iter().map(|s| s.duration_ns()).sum();
    println!(
        "trace overhead (diagnostic): traced replay {:+.2}% against plain execute_solve",
        100.0 * (traced_ns as f64 - untraced_ns as f64) / untraced_ns.max(1) as f64
    );
    let outside: u64 = spans
        .iter()
        .filter(|s| s.name == "service.parse" || s.name == "service.serialize")
        .map(|s| s.duration_ns())
        .sum();
    let daemon_ms: f64 = timed.first_round_wall_ms[..reqs.len()].iter().sum();
    report.add(
        "trace.wall_accounted_pct",
        100.0 * (traced_ns - outside) as f64 / 1e6 / daemon_ms.max(1e-9),
        "%",
    );

    // Micro rows on the first game of each size in the set-up list,
    // which is in generation order and the same at every seed.
    let mut sizes = HashSet::new();
    let jobs: Vec<_> = w
        .setup
        .iter()
        .filter_map(|r| {
            let game = r.job.game.build().expect("generated games build");
            let size = game.row_actions().max(game.col_actions());
            sizes.insert(size).then(|| (r.job.clone(), game))
        })
        .collect();
    let m = micro::measure(&jobs);
    report.add("crossbar.program_ms", m.program_ms, "ms");
    report.add("crossbar.program_ns_per_cell", m.program_ns_per_cell, "ns");
    report.add("crossbar.delta_step_ns", m.delta_step_ns, "ns");
    report.add("crossbar.adc_ns", m.adc_ns, "ns");
    report.add("wta.eval_ns", m.wta_eval_ns, "ns");
    Ok(())
}
