//! Incremental (delta) energy evaluation for the Metropolis driver.
//!
//! Algorithm 1 proposes *one* elementary move per iteration — a single
//! `1/I` unit transfer for strategy states, a single bit flip for QUBOs —
//! yet the straightforward driver re-evaluates the whole objective on
//! every proposal: `O(n·m)` work for an `O(1)` state change. The
//! [`DeltaEnergy`] trait inverts that: an evaluator keeps internal caches
//! keyed to the current state, a proposal updates only the cache regions
//! the move touches and returns the energy change, and rejected proposals
//! roll the caches back.
//!
//! Production implementations live next to the hardware models:
//!
//! * `cnash-crossbar`'s `DeltaBiCrossbar` keeps the per-data-line
//!   accumulated currents of both arrays as fixed-point integer sums,
//! * `cnash-qubo`'s local-field annealer caches per-variable fields.
//!
//! # Bit-identical incrementality
//!
//! Floating-point addition is not associative, so "subtract the old term,
//! add the new one" on an `f64` sum drifts away from a from-scratch
//! evaluation. Evaluators that need *bit-identical* equivalence with full
//! re-evaluation (the contract the crossbar implementation provides and
//! the property tests pin) keep their running sums where addition is
//! exact and order-free — the crossbar in `i64` fixed-point currents, the
//! QUBO annealer in integer or dyadic coefficients — so an `O(1)` update
//! yields the very sum a full evaluation adds up, and a revert restores
//! the saved totals.

use crate::engine::{HitRecorder, SaOptions, SaRun};
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};

/// An incrementally evaluable objective for the Metropolis driver.
///
/// The evaluator owns the walk state. At most one proposal may be
/// outstanding: after [`propose`](DeltaEnergy::propose) the evaluator
/// *is* in the candidate state and must receive either
/// [`commit`](DeltaEnergy::commit) or [`revert`](DeltaEnergy::revert)
/// before the next proposal.
///
/// # Contract
///
/// * `propose(mv)` returns `E(after) − E(before)` where both energies are
///   the values [`energy`](DeltaEnergy::energy) would report — the driver
///   folds the delta into its bookkeeping, so a sloppy delta corrupts the
///   acceptance statistics.
/// * `revert` must restore `state()`, `energy()` and every internal cache
///   to exactly (bitwise) their pre-proposal values.
pub trait DeltaEnergy {
    /// The walk state (a strategy pair, a QUBO assignment, ...).
    type State: Clone + PartialEq;
    /// An elementary move between neighbouring states.
    type Move;

    /// The current state (the candidate while a proposal is pending).
    fn state(&self) -> &Self::State;

    /// Energy of the current state.
    fn energy(&self) -> f64;

    /// Samples a move from the current state's neighbourhood; `None` when
    /// the state has no neighbours (degenerate instances).
    fn sample_move(&self, rng: &mut StdRng) -> Option<Self::Move>;

    /// Applies `mv` to the state and caches, returning the energy delta.
    fn propose(&mut self, mv: Self::Move) -> f64;

    /// Accepts the pending proposal.
    fn commit(&mut self);

    /// Rejects the pending proposal, restoring the pre-proposal state.
    fn revert(&mut self);
}

/// Runs simulated annealing through a [`DeltaEnergy`] evaluator instead
/// of a full re-evaluation per proposal (Algorithm 1, incremental form).
///
/// Acceptance logic, RNG consumption and hit/trace bookkeeping mirror
/// [`crate::engine::simulated_annealing`] exactly: an evaluator whose
/// deltas are bit-identical to full re-evaluation walks the same
/// trajectory as the full driver under the same seed.
pub fn simulated_annealing_delta<E: DeltaEnergy>(
    evaluator: &mut E,
    opts: &SaOptions,
) -> SaRun<E::State> {
    let trace_every = cnash_telemetry::hot::sa_trace_interval();
    let mut rng = StdRng::seed_from_u64(opts.seed);
    let mut current_energy = evaluator.energy();
    let mut best_state = evaluator.state().clone();
    let mut best_energy = current_energy;
    let mut first_hit = None;
    let mut accepted = 0;
    let mut trace = Vec::new();
    let mut hits = HitRecorder::new(opts.record_hits);

    let hit = |e: f64| opts.target_energy.is_some_and(|t| e <= t);
    if hit(current_energy) {
        first_hit = Some(0);
        hits.record(evaluator.state());
    }

    for iter in 0..opts.iterations {
        let temp = opts.schedule.temperature(iter, opts.iterations);
        // A state without neighbours proposes itself: delta 0, accepted —
        // the same no-op iteration the full driver executes.
        let (delta, pending) = match evaluator.sample_move(&mut rng) {
            Some(mv) => (evaluator.propose(mv), true),
            None => (0.0, false),
        };
        if delta <= 0.0 || rng.random::<f64>() < (-delta / temp).exp() {
            if pending {
                evaluator.commit();
            }
            current_energy = evaluator.energy();
            accepted += 1;
            if current_energy < best_energy {
                best_energy = current_energy;
                best_state = evaluator.state().clone();
            }
            if hit(current_energy) {
                if first_hit.is_none() {
                    first_hit = Some(iter + 1);
                }
                hits.record(evaluator.state());
            }
        } else if pending {
            evaluator.revert();
        }
        if opts.record_trace {
            trace.push(current_energy);
        }
        if trace_every != 0 && (iter + 1) % trace_every as usize == 0 {
            cnash_telemetry::hot::SA_TRACE.push(
                "sa_energy",
                format!(
                    "seed={} iter={} energy={}",
                    opts.seed,
                    iter + 1,
                    current_energy
                ),
            );
        }
    }

    // Same end-of-run aggregates as the full driver: telemetry reads
    // the walk, never steers it, keeping the two drivers in lockstep.
    cnash_telemetry::hot::SA_RUNS.inc();
    cnash_telemetry::hot::SA_SWEEPS.add(opts.iterations as u64);
    cnash_telemetry::hot::SA_ACCEPTS.add(accepted as u64);

    let (hit_states, hits_truncated) = hits.into_parts();
    SaRun {
        best_state,
        best_energy,
        final_state: evaluator.state().clone(),
        final_energy: current_energy,
        first_hit,
        accepted,
        iterations: opts.iterations,
        trace,
        hit_states,
        hits_truncated,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schedule::Schedule;

    /// A revertible evaluator over integer states with energy `x²`.
    struct Quadratic {
        x: i64,
        pending: i64,
    }

    impl DeltaEnergy for Quadratic {
        type State = i64;
        type Move = i64;

        fn state(&self) -> &i64 {
            &self.x
        }

        fn energy(&self) -> f64 {
            (self.x * self.x) as f64
        }

        fn sample_move(&self, rng: &mut StdRng) -> Option<i64> {
            Some(if rng.random::<bool>() { 1 } else { -1 })
        }

        fn propose(&mut self, step: i64) -> f64 {
            let before = self.energy();
            self.x += step;
            self.pending = step;
            self.energy() - before
        }

        fn commit(&mut self) {
            self.pending = 0;
        }

        fn revert(&mut self) {
            self.x -= self.pending;
            self.pending = 0;
        }
    }

    #[test]
    fn delta_driver_matches_full_driver_bitwise() {
        // Integer energies are exact in f64, so the incremental deltas
        // equal full re-evaluation bitwise and the two drivers must walk
        // the same trajectory under the same seed.
        for seed in 0..20u64 {
            let opts = SaOptions {
                iterations: 2000,
                schedule: Schedule::geometric(10.0, 1e-3),
                seed,
                target_energy: Some(0.0),
                record_trace: true,
                record_hits: true,
            };
            let full = crate::engine::simulated_annealing(
                50i64,
                |&x| (x * x) as f64,
                |&x, rng| if rng.random::<bool>() { x + 1 } else { x - 1 },
                &opts,
            );
            let mut eval = Quadratic { x: 50, pending: 0 };
            let delta = simulated_annealing_delta(&mut eval, &opts);
            assert_eq!(full, delta);
        }
    }
}
