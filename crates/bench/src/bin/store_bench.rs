//! Solution-store performance harness: cold solve vs disk-hit replay,
//! across a daemon restart.
//!
//! `cargo run --release -p cnash-bench --bin store_bench -- \
//!      [--quick] [--seed S] [--out PATH] [--store PATH]`
//!
//! Boots an in-process solver daemon with a persistent store attached
//! and measures, per game size: one **cold** request (program, anneal,
//! append), then [`HIT_REPEATS`] identical requests answered **from
//! disk** (`"cache":"disk"`, O(lookup) — no programming, no anneal). The
//! daemon is then shut down and a **second** daemon is booted on the
//! same store path: its first request per size must also be a disk hit,
//! proving the warm boot survives a restart. Every disk-served payload
//! is checked byte-identical to the cold response modulo provenance
//! (`id`, `cache`, `cache_hit`, `wall_ms`, `program_ms`).
//!
//! Latencies are the server-reported `wall_ms`; the gated speedup is the
//! cold latency over the median disk-hit latency. Without `--store` the
//! harness uses (and removes) a throwaway log under the system temp
//! directory; with `--store PATH` the log is yours and is kept.
//!
//! Emits `BENCH_store.json` (schema v2, `cnash_bench::measure`)
//! and exits 0 when every check and gate passes; [`HARNESS`] (`--help`)
//! declares what exits 1 and 2 mean.

use cnash_bench::measure::{fail, solve_request, Daemon, Estimate, Harness, Report, Solved};
use cnash_service::ServiceConfig;

const HARNESS: Harness = Harness {
    bin: "store_bench",
    bench: "store",
    about: "Store latency: cold (program + solve + append) vs disk-hit replay, across a restart.",
    flags: &["--quick", "--seed", "--out", "--store"],
    gates: "64x64 disk-hit speedup < 1.5x (the store stopped paying for itself)",
    checks: "protocol error, a repeat or post-restart request missed the store, \
             or a disk payload diverged from the cold solve",
};
/// The gate size: disk-hit speedup at 64×64 must stay ≥ this factor.
const GATE_SIZE: usize = 64;
const GATE_SPEEDUP: f64 = 1.5;
/// Disk-hit repeats per grid point (the median is reported).
const HIT_REPEATS: usize = 9;

fn boot(store_path: &str) -> Daemon {
    Daemon::boot(ServiceConfig {
        shards: 2,
        store_path: Some(store_path.to_string()),
        ..ServiceConfig::default()
    })
}

/// One solve that must come from disk and replay the cold payload.
fn disk_hit(daemon: &mut Daemon, request: &str, cold: &Solved, what: &str) -> f64 {
    let replay = daemon.solve(request);
    if !replay.from_disk {
        fail(&format!("{what} request missed the store"));
    }
    if replay.payload != cold.payload {
        fail(&format!(
            "{what} disk replay diverged from the cold solve:\n  cold: {}\n  disk: {}",
            cold.payload, replay.payload
        ));
    }
    replay.wall_ns
}

fn main() {
    let cli = HARNESS.parse();
    let (store_path, throwaway) = match cli.store.clone() {
        Some(path) => (path, false),
        None => {
            let path =
                std::env::temp_dir().join(format!("cnash-store-bench-{}.log", std::process::id()));
            (path.to_string_lossy().into_owned(), true)
        }
    };
    // `(size, iterations)` grid; the 64×64 gate point belongs to every
    // grid, quick or full.
    let grid: Vec<(usize, usize)> = if cli.quick {
        vec![(16, 600), (64, 250)]
    } else {
        vec![(16, 1200), (32, 600), (64, 300)]
    };
    let requests: Vec<String> = grid
        .iter()
        .enumerate()
        .map(|(id, &(size, iterations))| {
            let seed = cli.seed.wrapping_add(size as u64);
            solve_request(id + 1, "store", size, iterations, seed)
        })
        .collect();

    // Daemon A: cold solves populate the store, repeats replay it.
    let mut daemon = boot(&store_path);
    let mut report = Report::new(&HARNESS, &cli);
    let mut colds = Vec::new();
    for (&(size, iterations), request) in grid.iter().zip(&requests) {
        eprintln!("measuring {size}x{size} ({iterations} iters, {HIT_REPEATS} disk repeats)...");
        let cold = daemon.solve(request);
        if cold.from_disk {
            fail(&format!(
                "first {size}x{size} request was already on disk (stale --store log?)"
            ));
        }
        // Identical job spec → same store key → must be a disk hit.
        let what = format!("repeat {size}x{size}");
        let hits: Vec<f64> = (0..HIT_REPEATS)
            .map(|_| disk_hit(&mut daemon, request, &cold, &what))
            .collect();
        let disk = Estimate::of(&hits);
        report.entry(
            format!("store-{size}x{size} cold"),
            Estimate::of(&[cold.wall_ns]),
        );
        report.entry(format!("store-{size}x{size} disk"), disk);
        if size == GATE_SIZE {
            report.at_least("speedup_64x64", cold.wall_ns / disk.value, GATE_SPEEDUP);
        }
        colds.push(cold);
    }
    daemon.shutdown();

    // Daemon B on the same path: the warm boot must serve every grid
    // point from disk on the very first request.
    let mut daemon = boot(&store_path);
    for ((&(size, _), request), cold) in grid.iter().zip(&requests).zip(&colds) {
        let what = format!("post-restart {size}x{size}");
        let warm = disk_hit(&mut daemon, request, cold, &what);
        report.entry(
            format!("store-{size}x{size} restart"),
            Estimate::of(&[warm]),
        );
    }
    daemon.shutdown();
    if throwaway {
        let _ = std::fs::remove_file(&store_path);
    }
    report.finish();
}
