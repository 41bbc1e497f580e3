//! SA hot-path performance harness: full re-evaluation vs the
//! incremental delta-energy subsystem.
//!
//! `cargo run --release -p cnash-bench --bin perf -- [--quick] [--seed S] [--out PATH]`
//!
//! Times each reference evaluator against its production incremental
//! counterpart across a grid of game sizes and payoff/coupling
//! densities:
//!
//! * **bi-crossbar**: the reference `CNashSolver::evaluate` per proposal
//!   (full two-phase read, `O(n·m)`) vs the production
//!   `CNashSolver::delta_evaluator` + `simulated_annealing_delta`
//!   (`O(n+m)` fixed-point sum updates), the only path
//!   `CNashSolver::run` takes. Both read the same integer sums, so the
//!   two walks must be identical `SaRun`s (a check),
//! * **QUBO**: the reference `anneal` (`O(n)` row scan per proposal) vs
//!   the production `anneal_incremental` (cached local fields, `O(1)`
//!   per proposal).
//!
//! Each grid point runs [`PAIRS`] interleaved (full, delta) pairs; its
//! speedup is the median per-pair ratio. Ungated layer rows follow: ns
//! per delta-path SA iteration on the paper's modified prisoner's
//! dilemma (8×8, paper preset, I = 12), the `anneal_paper` workload's
//! inner loop; and ns per ground-truth enumeration of fixed family
//! instances, float `enumerate_equilibria` at 6×6 and 8×8 and exact
//! `enumerate_exact` at 4×4 (the oracle behind every cold request's
//! coverage figure).
//! Emits `BENCH_sa_hotpath.json` (schema v2, `cnash_bench::measure`)
//! and exits 0 when every check and gate passes; [`HARNESS`]
//! (`--help`) declares what exits 1 and 2 mean.

use cnash_anneal::delta::simulated_annealing_delta;
use cnash_anneal::engine::{simulated_annealing, SaOptions};
use cnash_anneal::moves::GridStrategyPair;
use cnash_bench::measure::{fail, paired, Estimate, Harness, Paired, Report, Side};
use cnash_core::{CNashConfig, CNashSolver, NashSolver};
use cnash_game::exact_enum::enumerate_exact;
use cnash_game::families::Family;
use cnash_game::games;
use cnash_game::generators::random_integer_game;
use cnash_game::support_enum::enumerate_equilibria;
use cnash_qubo::annealer::{anneal, anneal_incremental, AnnealParams};
use cnash_qubo::Qubo;
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};
use std::hint::black_box;
use std::time::Instant;

const HARNESS: Harness = Harness {
    bin: "perf",
    bench: "sa_hotpath",
    about: "SA hot path: full re-evaluation vs incremental delta energy, per iteration.",
    flags: &["--quick", "--seed", "--out"],
    gates: "64x64 crossbar delta speedup < 1.0x (the incremental path regressed into a slowdown)",
    checks: "the delta path diverged from full evaluation (a correctness bug)",
};
/// Interleaved (full, delta) pairs per grid point.
const PAIRS: usize = 9;
/// The gated crossbar size.
const GATE_SIZE: usize = 64;
const GATE_SPEEDUP: f64 = 1.0;

/// Nanoseconds per unit of work since `start`.
fn ns_per(start: Instant, units: usize) -> f64 {
    start.elapsed().as_nanos() as f64 / units as f64
}

/// Times the crossbar pipeline at one `n × n` game size.
fn bench_crossbar(label: &str, n: usize, max_payoff: u32, iterations: usize, seed: u64) -> Paired {
    let game = random_integer_game(n, n, max_payoff, seed).expect("valid grid point");
    let solver = CNashSolver::new(
        &game,
        CNashConfig::paper(12).with_iterations(iterations),
        seed,
    )
    .expect("integer game maps onto hardware");
    let mut rng = StdRng::seed_from_u64(seed ^ 0xBE7C);
    let init = GridStrategyPair::random(n, n, 12, &mut rng).expect("non-empty");
    let opts = SaOptions {
        iterations,
        schedule: solver.config().schedule,
        seed,
        target_energy: None,
        record_trace: false,
        record_hits: false,
    };
    let (mut full, mut delta) = (None, None);
    let samples = paired(PAIRS, |side| match side {
        // Full path: two-phase re-evaluation per proposal.
        Side::A => {
            let start = Instant::now();
            full = Some(simulated_annealing(
                init.clone(),
                |s| solver.evaluate(s),
                |s, r| s.neighbour(r),
                &opts,
            ));
            ns_per(start, iterations)
        }
        // Delta path: incremental evaluator, same seed and proposal stream.
        Side::B => {
            let mut evaluator = solver
                .delta_evaluator(init.clone())
                .expect("geometry matches");
            let start = Instant::now();
            delta = Some(simulated_annealing_delta(&mut evaluator, &opts));
            ns_per(start, iterations)
        }
    });
    // Both paths add the same fixed-point integers and digitise them
    // once, so the delta energies equal full re-evaluation bitwise and
    // the two walks must be identical, not merely close.
    if full != delta {
        fail(&format!(
            "{label}: delta path diverged from full evaluation"
        ));
    }
    samples
}

/// Times the QUBO annealer at one variable count / coupling density.
fn bench_qubo(label: &str, vars: usize, density: f64, sweeps: usize, seed: u64) -> Paired {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut qubo = Qubo::new(vars);
    for i in 0..vars {
        qubo.add_linear(i, rng.random_range(-5..=5i64) as f64);
        for j in i + 1..vars {
            if rng.random::<f64>() < density {
                qubo.add_coupling(i, j, rng.random_range(-3..=3i64) as f64);
            }
        }
    }
    let params = AnnealParams::new(sweeps, 10.0, 0.05);
    let proposals = sweeps * vars;
    let (mut full, mut inc) = (None, None);
    let samples = paired(PAIRS, |side| {
        let start = Instant::now();
        match side {
            Side::A => full = Some(anneal(&qubo, &params, seed)),
            Side::B => inc = Some(anneal_incremental(&qubo, &params, seed)),
        }
        ns_per(start, proposals)
    });
    // Integer couplings are exact in f64: the two paths must agree
    // bitwise, not approximately.
    if full != inc {
        fail(&format!(
            "{label}: incremental annealer diverged from the row scan"
        ));
    }
    samples
}

/// Adds a grid point's full and delta entries; returns its speedup.
fn record(report: &mut Report, label: String, samples: Paired) -> f64 {
    let speedup = samples.ratio().value;
    eprintln!("  {label}: speedup {speedup:.2}x");
    report.entry(format!("{label} full"), Estimate::of(&samples.a));
    report.entry(format!("{label} delta"), Estimate::of(&samples.b));
    speedup
}

/// Timed calls per layer row.
const ROW_SAMPLES: usize = 9;

/// Median and P10–P90 ns per unit of [`ROW_SAMPLES`] calls of `f`, each
/// doing `units` units of work.
fn per_unit<T>(units: usize, f: impl Fn() -> T) -> Estimate {
    let ns: Vec<f64> = (0..ROW_SAMPLES)
        .map(|_| {
            let start = Instant::now();
            black_box(f());
            ns_per(start, units)
        })
        .collect();
    Estimate::of(&ns)
}

/// Adds the paper workload's iteration row: ns per SA iteration of
/// `CNashSolver::run` (always the delta path) on the paper's largest
/// game, the modified prisoner's dilemma (8×8), under the paper preset
/// at I = 12 — the per-iteration cost behind every Table 1 /
/// Figs. 8–10 run.
fn record_paper_iteration(report: &mut Report, seed: u64) {
    eprintln!("measuring paper MPD 8x8 SA iteration...");
    let config = CNashConfig::paper(12);
    let solver = CNashSolver::new(&games::modified_prisoners_dilemma(), config, seed)
        .expect("paper game maps onto hardware");
    report.entry(
        "anneal-paper-mpd-8x8 delta",
        per_unit(config.iterations, || solver.run(seed)),
    );
}

/// Adds the enumeration layer rows: ns per call of each ground-truth
/// oracle on a fixed covariant-family instance (seed 0, default knobs).
fn record_enumeration(report: &mut Report) {
    eprintln!("measuring support enumeration...");
    let family = Family::Covariant;
    let game = |n| {
        family
            .build(n, family.default_scale(), family.default_knob(), 0)
            .expect("valid family instance")
    };
    let (g4, g6, g8) = (game(4), game(6), game(8));
    report.entry(
        "enumerate-float-6x6",
        per_unit(1, || enumerate_equilibria(&g6, 1e-9)),
    );
    report.entry(
        "enumerate-float-8x8",
        per_unit(1, || enumerate_equilibria(&g8, 1e-9)),
    );
    report.entry("enumerate-exact-4x4", per_unit(1, || enumerate_exact(&g4)));
}

/// `(actions per side, max payoff, SA iterations)` crossbar grid points,
/// quick and full; the 64×64 gate point belongs to both.
const CROSSBAR_QUICK: &[(usize, u32, usize)] = &[(8, 3, 2000), (64, 3, 400)];
const CROSSBAR_FULL: &[(usize, u32, usize)] = &[
    (8, 3, 4000),
    (16, 3, 3000),
    (32, 3, 1500),
    (64, 3, 800),
    (32, 8, 1500),
    (64, 8, 800),
];
/// `(variables, coupling density, sweeps)` QUBO grid points.
const QUBO_QUICK: &[(usize, f64, usize)] = &[(64, 1.0, 200), (128, 1.0, 100)];
const QUBO_FULL: &[(usize, f64, usize)] = &[
    (32, 0.25, 600),
    (32, 1.0, 600),
    (64, 1.0, 300),
    (128, 0.25, 150),
    (128, 1.0, 150),
];

fn main() {
    let cli = HARNESS.parse();
    let seed = cli.seed;
    let (crossbar_grid, qubo_grid) = if cli.quick {
        (CROSSBAR_QUICK, QUBO_QUICK)
    } else {
        (CROSSBAR_FULL, QUBO_FULL)
    };
    let mut report = Report::new(&HARNESS, &cli);
    for &(n, payoff, iters) in crossbar_grid {
        eprintln!("measuring bicrossbar {n}x{n} (payoff scale {payoff}, {iters} iters)...");
        let label = format!("bicrossbar-{n}x{n}-payoff{payoff}");
        let samples = bench_crossbar(&label, n, payoff, iters, seed);
        let speedup = record(&mut report, label, samples);
        if n == GATE_SIZE && payoff == 3 {
            report.at_least("speedup_64x64", speedup, GATE_SPEEDUP);
        }
    }
    for &(vars, density, sweeps) in qubo_grid {
        eprintln!("measuring qubo {vars} vars (density {density}, {sweeps} sweeps)...");
        let label = format!("qubo-{vars}v-density{density}");
        let samples = bench_qubo(&label, vars, density, sweeps, seed);
        record(&mut report, label, samples);
    }
    record_paper_iteration(&mut report, seed);
    record_enumeration(&mut report);
    report.finish();
}
