//! Micro rows: single device-layer calls timed in a loop, on the
//! workload's own instances.

use crate::stats::median;
use crate::workload::Rng;
use cnash_anneal::delta::DeltaEnergy;
use cnash_anneal::GridStrategyPair;
use cnash_core::CNashSolver;
use cnash_crossbar::AdcSpec;
use cnash_game::BimatrixGame;
use cnash_runtime::spec::{JobSpec, SolverSpec};
use cnash_wta::WtaTree;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::hint::black_box;
use std::time::Instant;

/// Medians over the sampled instances.
#[derive(Debug, Default)]
pub struct Micro {
    /// `CNashSolver::new` (crossbar programming plus WTA trees), ms.
    pub program_ms: f64,
    /// The same per physical crossbar cell (both arrays), ns.
    pub program_ns_per_cell: f64,
    /// One delta-evaluator proposal and its revert, ns.
    pub delta_step_ns: f64,
    /// One `AdcSpec::convert`, ns.
    pub adc_ns: f64,
    /// One `WtaTree::eval_value` over a player's payoff vector, ns.
    pub wta_eval_ns: f64,
}

/// Calls `f` in batches of `batch` until at least `min_secs` have
/// passed, returning nanoseconds per call.
fn ns_per_call(batch: usize, min_secs: f64, mut f: impl FnMut()) -> f64 {
    let t0 = Instant::now();
    let mut calls = 0;
    while calls == 0 || t0.elapsed().as_secs_f64() < min_secs {
        for _ in 0..batch {
            f();
        }
        calls += batch;
    }
    t0.elapsed().as_nanos() as f64 / calls as f64
}

/// Times the micro rows on each C-Nash job's game.
pub fn measure(jobs: &[(JobSpec, BimatrixGame)]) -> Micro {
    let mut rows: [Vec<f64>; 5] = Default::default();
    for (job, game) in jobs {
        let SolverSpec::CNash {
            config,
            hardware_seed,
        } = &job.solver
        else {
            continue;
        };
        let config = config.build().expect("generated configs build");
        let build = || CNashSolver::new(game, config, *hardware_seed).expect("generated games map");
        let mut builds = Vec::new();
        let t_all = Instant::now();
        while builds.len() < 3 || (builds.len() < 10 && t_all.elapsed().as_secs_f64() < 0.2) {
            let t0 = Instant::now();
            black_box(build());
            builds.push(t0.elapsed().as_secs_f64() * 1e3);
        }
        let solver = build();
        let hw = solver.hardware();
        let cells: usize = [hw.array_m(), hw.array_nt()]
            .iter()
            .map(|x| {
                let (r, c) = x.physical_size();
                r * c
            })
            .sum();
        let program_ms = median(&builds);
        rows[0].push(program_ms);
        rows[1].push(program_ms * 1e6 / cells as f64);

        let (n, m) = (game.row_actions(), game.col_actions());
        let mut rng = StdRng::seed_from_u64(0x5EED);
        let init =
            GridStrategyPair::random(n, m, config.intervals, &mut rng).expect("non-empty game");
        let mut eval = solver.delta_evaluator(init).expect("geometry matches");
        rows[2].push(ns_per_call(1000, 0.03, || {
            if let Some(mv) = eval.sample_move(&mut rng) {
                black_box(eval.propose(mv));
                eval.revert();
            }
        }));

        let mut draw = Rng::new(n as u64);
        let full_scale = hw.array_m().full_scale_current();
        let adc =
            AdcSpec::uniform(config.crossbar.adc_bits.unwrap_or(8), full_scale).expect("valid ADC");
        let currents: Vec<f64> = (0..1024)
            .map(|_| full_scale * (draw.next_u64() >> 11) as f64 / (1u64 << 53) as f64)
            .collect();
        rows[3].push(
            ns_per_call(1, 0.02, || {
                for &c in &currents {
                    black_box(adc.convert(black_box(c)));
                }
            }) / currents.len() as f64,
        );

        let tree = WtaTree::build(n, &config.wta, hardware_seed.wrapping_add(0xA11CE));
        let inputs = &currents[..n];
        rows[4].push(ns_per_call(1000, 0.02, || {
            black_box(tree.eval_value(black_box(inputs)));
        }));
    }
    Micro {
        program_ms: median(&rows[0]),
        program_ns_per_cell: median(&rows[1]),
        delta_step_ns: median(&rows[2]),
        adc_ns: median(&rows[3]),
        wta_eval_ns: median(&rows[4]),
    }
}
