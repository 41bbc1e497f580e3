//! Telemetry overhead harness: the recorder must be (nearly) free.
//!
//! `cargo run --release -p cnash-bench --bin telemetry_bench -- \
//!      [--quick] [--seed S] [--out PATH]`
//!
//! Boots an in-process solver daemon, warms the instance cache with one
//! cold 64×64 solve, then replays the *identical* cache-hit request in
//! interleaved pairs of batches, one batch with telemetry enabled and
//! one with it disabled (`cnash_telemetry::set_enabled`), the order
//! alternating from pair to pair. A sample is the mean server-reported
//! `wall_ms` of one batch of [`BATCH`] requests; the overhead is the
//! median per-pair enabled/disabled ratio minus one
//! (`cnash_bench::measure::paired`). A single cache hit is ~2 ms, well
//! inside OS-scheduler noise; pairing cancels drift and the median
//! ignores the pairs a stall spoiled.
//!
//! The harness also proves the observability contract along the way:
//! the deterministic payload of every response (timing fields stripped)
//! must be byte-identical whichever mode produced it — telemetry that
//! changed a solver answer is a correctness bug, not an overhead
//! problem.
//!
//! Emits `BENCH_telemetry.json` (schema v2, `cnash_bench::measure`)
//! and exits 0 when every check and gate passes; [`HARNESS`] (`--help`)
//! declares what exits 1 and 2 mean.

use cnash_bench::measure::{fail, paired, solve_request, Daemon, Estimate, Harness, Report, Side};
use cnash_service::ServiceConfig;

const HARNESS: Harness = Harness {
    bin: "telemetry_bench",
    bench: "telemetry",
    about: "Telemetry recorder overhead on the 64x64 cache-hit service path.",
    flags: &["--quick", "--seed", "--out"],
    gates: "telemetry overhead > 5%",
    checks: "protocol error, a repeat request missed the cache, \
             or telemetry changed a response",
};
/// The gate: enabled-vs-disabled overhead on the 64×64 cache-hit
/// service path must stay under this fraction.
const GATE_OVERHEAD: f64 = 0.05;
const GATE_SIZE: usize = 64;
const ITERATIONS: usize = 300;
/// Cache-hit round trips averaged into one sample.
const BATCH: usize = 8;
/// Interleaved (enabled, disabled) batch pairs, quick and full.
const PAIRS_QUICK: usize = 60;
const PAIRS_FULL: usize = 120;

fn main() {
    let cli = HARNESS.parse();
    let pairs = if cli.quick { PAIRS_QUICK } else { PAIRS_FULL };
    let mut daemon = Daemon::boot(ServiceConfig {
        shards: 2,
        ..ServiceConfig::default()
    });

    // Warm the cache (telemetry on — the production default).
    cnash_telemetry::set_enabled(true);
    let seed = cli.seed.wrapping_add(GATE_SIZE as u64);
    let request = solve_request(1, "telemetry", GATE_SIZE, ITERATIONS, seed);
    let reference = daemon.solve(&request);
    if reference.cache_hit {
        fail("the warming request already hit the cache");
    }

    eprintln!(
        "measuring {GATE_SIZE}x{GATE_SIZE} cache-hit path, {pairs} interleaved \
         pairs of {BATCH}-request batches..."
    );
    let samples = paired(pairs, |side| {
        let enabled = side == Side::A;
        cnash_telemetry::set_enabled(enabled);
        let mut batch_ns = 0.0;
        for _ in 0..BATCH {
            let hit = daemon.solve(&request);
            if !hit.cache_hit {
                fail("a repeat request missed the cache");
            }
            if hit.payload != reference.payload {
                fail(&format!(
                    "solver output diverged with telemetry {}:\n  got: {}\n  want: {}",
                    if enabled { "enabled" } else { "disabled" },
                    hit.payload,
                    reference.payload,
                ));
            }
            batch_ns += hit.wall_ns;
        }
        batch_ns / BATCH as f64
    });
    cnash_telemetry::set_enabled(true);
    daemon.shutdown();

    let mut report = Report::new(&HARNESS, &cli);
    let label = format!("{GATE_SIZE}x{GATE_SIZE} hit, telemetry");
    report.entry(format!("{label} on"), Estimate::of(&samples.a));
    report.entry(format!("{label} off"), Estimate::of(&samples.b));
    report.at_most("overhead_frac", samples.ratio().value - 1.0, GATE_OVERHEAD);
    report.finish();
}
