//! Service instance-cache performance harness: cold (program + solve)
//! vs cache-hit (solve only) request latency.
//!
//! `cargo run --release -p cnash-bench --bin service_bench -- \
//!      [--quick] [--seed S] [--out PATH]`
//!
//! Boots an in-process solver daemon, then measures end-to-end solve
//! requests over TCP at several game sizes: one **cold** request that
//! must program the bi-crossbar, followed by [`HIT_REPEATS`]
//! **identical** requests that hit the instance cache and skip
//! programming entirely. Latencies are the server-reported `wall_ms`
//! (program + batch execution, excluding network and JSON framing); the
//! gated speedup is the cold latency over the median hit latency.
//!
//! Every request runs on hardware seed 0, so each size's cold row is
//! the process's first draw of that seed's device stream past the cells
//! the smaller sizes already drew: it samples devices, where a later
//! cold build of another game on the same seed would mostly read the
//! retained stream.
//!
//! Emits `BENCH_service.json` (schema v2, `cnash_bench::measure`)
//! and exits 0 when every check and gate passes; [`HARNESS`] (`--help`)
//! declares what exits 1 and 2 mean.

use cnash_bench::measure::{fail, solve_request, Daemon, Estimate, Harness, Report};
use cnash_service::ServiceConfig;

const HARNESS: Harness = Harness {
    bin: "service_bench",
    bench: "service",
    about: "Service latency: cold (program + solve) vs instance-cache hit.",
    flags: &["--quick", "--seed", "--out"],
    gates: "64x64 cache-hit speedup < 1.5x (the cache stopped paying for itself)",
    checks: "protocol error, or a repeat request missed the cache (a canonical-key bug)",
};
/// The gate size: cache-hit speedup at 64×64 must stay ≥ this factor.
const GATE_SIZE: usize = 64;
const GATE_SPEEDUP: f64 = 1.5;
/// Cache-hit repeats per grid point (the median is reported).
const HIT_REPEATS: usize = 9;

fn main() {
    let cli = HARNESS.parse();
    // `(size, iterations)` grid; the 64×64 gate point belongs to every
    // grid, quick or full.
    let grid: Vec<(usize, usize)> = if cli.quick {
        vec![(16, 600), (64, 250)]
    } else {
        vec![(16, 1200), (32, 600), (64, 300)]
    };

    let mut daemon = Daemon::boot(ServiceConfig {
        shards: 2,
        ..ServiceConfig::default()
    });
    let mut report = Report::new(&HARNESS, &cli);
    for (id, &(size, iterations)) in grid.iter().enumerate() {
        eprintln!("measuring {size}x{size} ({iterations} iters, {HIT_REPEATS} hit repeats)...");
        let seed = cli.seed.wrapping_add(size as u64);
        let request = solve_request(id + 1, "service", size, iterations, seed);
        let cold = daemon.solve(&request);
        if cold.cache_hit {
            fail(&format!(
                "first {size}x{size} request already hit the cache"
            ));
        }
        let hits: Vec<f64> = (0..HIT_REPEATS)
            .map(|_| {
                // Identical job spec → same canonical key → must hit.
                let hit = daemon.solve(&request);
                if !hit.cache_hit {
                    fail(&format!("repeat {size}x{size} request missed the cache"));
                }
                hit.wall_ns
            })
            .collect();
        let hit = Estimate::of(&hits);
        report.entry(
            format!("service-{size}x{size} cold"),
            Estimate::of(&[cold.wall_ns]),
        );
        report.entry(format!("service-{size}x{size} hit"), hit);
        if size == GATE_SIZE {
            report.at_least("speedup_64x64", cold.wall_ns / hit.value, GATE_SPEEDUP);
        }
    }
    daemon.shutdown();
    report.finish();
}
