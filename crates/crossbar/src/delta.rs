//! Incremental bi-crossbar evaluation of the MAX-QUBO objective.
//!
//! The full two-phase evaluation ([`BiCrossbar::energy`] /
//! [`BiCrossbar::nash_gap`]) performs `O(n·m)` prefix lookups per SA
//! iteration, although Algorithm 1 only ever moves a *single* `1/I`
//! probability unit between two actions of one player. A unit move
//! touches exactly two activation counts, so of the `n·m` per-block
//! currents feeding each read:
//!
//! * a **column-player** move changes two terms in every Phase-1 row sum
//!   of the `M` array and `2n` terms of each Phase-2 sum, leaving the
//!   `Nᵀ` Phase-1 side untouched;
//! * a **row-player** move is the mirror image.
//!
//! [`DeltaBiCrossbar`] keeps every data-line sum as one fixed-point
//! `i64` ([mod@crate::array]) and moves it by `new − old` table entries
//! per touched term — `O(n + m)` per proposal; a revert restores the
//! saved totals. Integer sums have no rounding order, so the maintained
//! sums are the ones a from-scratch read computes, and the digitisation
//! and Eq. 9 combination are [`BiCrossbar`]'s own: the energy is
//! **bit-identical** to [`BiCrossbar::energy`] and to a fresh build at
//! the same state (the crate's property tests pin both).
//!
//! The Phase-1 maxima are pluggable through [`PhaseOneMax`]: this crate
//! ships the exact [`ExactMax`] (ablation reference); `cnash-core`
//! routes them through its WTA-tree model.

use crate::bicrossbar::BiCrossbar;
use crate::error::CrossbarError;
use cnash_anneal::delta::DeltaEnergy;
use cnash_anneal::moves::{GridStrategyPair, StrategyMove};
use rand::rngs::StdRng;

/// Reduction of the Phase-1 per-action readings (ADC-quantized
/// source-line currents) to the `α`/`β` maxima of Eq. 9. The reduction
/// happens in the current domain — where the analog WTA trees physically
/// operate — and the evaluator scales the winner to payoff units.
/// Implementations must be pure functions of the input slice.
pub trait PhaseOneMax {
    /// `α`-side reduction of the row player's Phase-1 currents (`Mq`).
    fn max_row(&self, reads: &[f64]) -> f64;
    /// `β`-side reduction of the column player's Phase-1 currents
    /// (`Nᵀp`).
    fn max_col(&self, reads: &[f64]) -> f64;
}

/// Exact maxima (no WTA non-ideality) — the ablation reference used by
/// [`BiCrossbar::nash_gap`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ExactMax;

impl PhaseOneMax for ExactMax {
    fn max_row(&self, reads: &[f64]) -> f64 {
        reads.iter().copied().fold(f64::NEG_INFINITY, f64::max)
    }

    fn max_col(&self, reads: &[f64]) -> f64 {
        reads.iter().copied().fold(f64::NEG_INFINITY, f64::max)
    }
}

/// The Phase-1 side of one array: a fixed-point sum and its digitised
/// read per action, each with a spare buffer. A proposal writes the
/// candidate into the spares and swaps them in; a revert swaps back.
#[derive(Debug, Clone)]
struct PhaseOneSide {
    sums: Vec<i64>,
    reads: Vec<f64>,
    spare_sums: Vec<i64>,
    spare_reads: Vec<f64>,
}

impl PhaseOneSide {
    fn new(sums: Vec<i64>, digitise: impl Fn(i64) -> f64) -> Self {
        let reads = sums.iter().map(|&sum| digitise(sum)).collect();
        Self {
            spare_sums: sums.clone(),
            spare_reads: vec![0.0; sums.len()],
            sums,
            reads,
        }
    }

    /// Moves sum `k` by `delta(k)` and re-digitises it; the previous
    /// sums and reads stay in the spares for a revert.
    fn shift(&mut self, delta: impl Fn(usize) -> i64, digitise: impl Fn(i64) -> f64) {
        let spares = self.spare_sums.iter_mut().zip(&mut self.spare_reads);
        for (k, ((next, read), &sum)) in spares.zip(&self.sums).enumerate() {
            *next = sum + delta(k);
            *read = digitise(*next);
        }
        self.swap();
    }

    fn swap(&mut self) {
        std::mem::swap(&mut self.sums, &mut self.spare_sums);
        std::mem::swap(&mut self.reads, &mut self.spare_reads);
    }
}

/// The scalar state of an evaluation, saved whole before a proposal so
/// that a revert restores it.
#[derive(Debug, Clone, Copy, Default)]
struct Totals {
    /// Phase-2 `M` sum of `prefix_m(i, j, p_i, q_j)`.
    vmv_m: i64,
    /// Phase-2 `Nᵀ` sum of `prefix_nt(j, i, q_j, p_i)`.
    vmv_nt: i64,
    /// Phase-1 maxima of the two sides' digitised currents.
    alpha: f64,
    beta: f64,
    energy: f64,
}

/// Incremental evaluator of the bi-crossbar MAX-QUBO energy at a grid
/// strategy state.
///
/// Implements [`DeltaEnergy`], so
/// [`cnash_anneal::delta::simulated_annealing_delta`] can drive it
/// directly.
#[derive(Debug, Clone)]
pub struct DeltaBiCrossbar<'x, M: PhaseOneMax = ExactMax> {
    hw: &'x BiCrossbar,
    max: M,
    state: GridStrategyPair,
    /// Phase-1 `M` row sums: row `i` sums `prefix_m(i, j, I, q_j)` over
    /// `j`.
    rows: PhaseOneSide,
    /// Phase-1 `Nᵀ` row sums: row `j` sums `prefix_nt(j, i, I, p_i)`
    /// over `i`.
    cols: PhaseOneSide,
    totals: Totals,
    saved: Totals,
    pending: Option<StrategyMove>,
}

impl<'x, M: PhaseOneMax> DeltaBiCrossbar<'x, M> {
    /// Builds the evaluator's caches for `state` — the one `O(n·m)` cost,
    /// amortised over the whole SA run.
    ///
    /// # Errors
    ///
    /// Returns [`CrossbarError::ActivationMismatch`] if the state's
    /// action counts or interval count do not match the hardware.
    pub fn new(hw: &'x BiCrossbar, state: GridStrategyPair, max: M) -> Result<Self, CrossbarError> {
        let (n, m) = hw.actions();
        if state.p_counts().len() != n || state.q_counts().len() != m {
            return Err(CrossbarError::ActivationMismatch(format!(
                "state is {}x{} for {n}x{m} hardware",
                state.p_counts().len(),
                state.q_counts().len()
            )));
        }
        if state.intervals() != hw.intervals() {
            return Err(CrossbarError::ActivationMismatch(format!(
                "state uses {} intervals, hardware {}",
                state.intervals(),
                hw.intervals()
            )));
        }
        let p = state.p_counts();
        let q = state.q_counts();
        let rows = PhaseOneSide::new(hw.array_m().mv_sums(q)?, |s| hw.digitise_m(s));
        let cols = PhaseOneSide::new(hw.array_nt().mv_sums(p)?, |s| hw.digitise_nt(s));
        let vmv_m = hw.array_m().vmv_sum(p, q)?;
        let vmv_nt = hw.array_nt().vmv_sum(q, p)?;
        let alpha = max.max_row(&rows.reads);
        let beta = max.max_col(&cols.reads);
        let totals = Totals {
            vmv_m,
            vmv_nt,
            alpha,
            beta,
            energy: hw.combine(alpha, beta, vmv_m, vmv_nt),
        };
        Ok(Self {
            hw,
            max,
            state,
            rows,
            cols,
            totals,
            saved: totals,
            pending: None,
        })
    }

    /// Moves the sums for a row-player transfer that took action `from`
    /// from count `p_from + 1` to `p_from` and action `to` from
    /// `p_to − 1` to `p_to`.
    ///
    /// Phase-2 terms with the column player's count at zero are `0`
    /// before and after the move (the prefix tables' zero row), so they
    /// are skipped — the simplex spreads at most `I` units over the
    /// actions, which caps the touched Phase-2 terms per move at `2I`
    /// regardless of game size.
    fn move_p(&mut self, from: usize, to: usize) {
        let hw = self.hw;
        let (xm, xnt) = (hw.array_m(), hw.array_nt());
        let p = self.state.p_counts();
        let (pf, pt) = (p[from], p[to]);
        // `from`/`to` are *columns* of the Nᵀ array here: the mirrors
        // make the per-j loads contiguous.
        let mv = |j, a, c| xnt.mv_prefix_at_colmajor(j, a, c);
        self.cols.shift(
            |j| mv(j, from, pf) - mv(j, from, pf + 1) + mv(j, to, pt) - mv(j, to, pt - 1),
            |sum| hw.digitise_nt(sum),
        );
        for (j, &q) in self.state.q_counts().iter().enumerate() {
            if q == 0 {
                continue;
            }
            let vm = |a, c| xm.prefix_at(a, j, c, q);
            let vnt = |a, c| xnt.prefix_at_colmajor(j, a, q, c);
            self.totals.vmv_m += vm(from, pf) - vm(from, pf + 1) + vm(to, pt) - vm(to, pt - 1);
            self.totals.vmv_nt += vnt(from, pf) - vnt(from, pf + 1) + vnt(to, pt) - vnt(to, pt - 1);
        }
    }

    /// Mirror of [`Self::move_p`] for a column-player transfer.
    fn move_q(&mut self, from: usize, to: usize) {
        let hw = self.hw;
        let (xm, xnt) = (hw.array_m(), hw.array_nt());
        let q = self.state.q_counts();
        let (qf, qt) = (q[from], q[to]);
        // `from`/`to` are columns of the M array: contiguous in the
        // mirrors.
        let mv = |i, a, c| xm.mv_prefix_at_colmajor(i, a, c);
        self.rows.shift(
            |i| mv(i, from, qf) - mv(i, from, qf + 1) + mv(i, to, qt) - mv(i, to, qt - 1),
            |sum| hw.digitise_m(sum),
        );
        for (i, &p) in self.state.p_counts().iter().enumerate() {
            if p == 0 {
                continue;
            }
            let vm = |a, c| xm.prefix_at_colmajor(i, a, p, c);
            let vnt = |a, c| xnt.prefix_at(a, i, c, p);
            self.totals.vmv_m += vm(from, qf) - vm(from, qf + 1) + vm(to, qt) - vm(to, qt - 1);
            self.totals.vmv_nt += vnt(from, qf) - vnt(from, qf + 1) + vnt(to, qt) - vnt(to, qt - 1);
        }
    }
}

impl<M: PhaseOneMax> DeltaEnergy for DeltaBiCrossbar<'_, M> {
    type State = GridStrategyPair;
    type Move = StrategyMove;

    fn state(&self) -> &GridStrategyPair {
        &self.state
    }

    fn energy(&self) -> f64 {
        self.totals.energy
    }

    fn sample_move(&self, rng: &mut StdRng) -> Option<StrategyMove> {
        self.state.sample_move(rng)
    }

    fn propose(&mut self, mv: StrategyMove) -> f64 {
        assert!(self.pending.is_none(), "proposal already pending");
        self.saved = self.totals;
        self.state.apply(mv);
        if mv.row_player {
            self.move_p(mv.from, mv.to);
            self.totals.beta = self.max.max_col(&self.cols.reads);
        } else {
            self.move_q(mv.from, mv.to);
            self.totals.alpha = self.max.max_row(&self.rows.reads);
        }
        let t = &mut self.totals;
        t.energy = self.hw.combine(t.alpha, t.beta, t.vmv_m, t.vmv_nt);
        self.pending = Some(mv);
        t.energy - self.saved.energy
    }

    fn commit(&mut self) {
        assert!(self.pending.take().is_some(), "no pending proposal");
    }

    fn revert(&mut self) {
        let mv = self.pending.take().expect("no pending proposal");
        self.state.unapply(mv);
        if mv.row_player {
            self.cols.swap();
        } else {
            self.rows.swap();
        }
        self.totals = self.saved;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bicrossbar::CrossbarConfig;
    use cnash_game::games;
    use rand::{RngExt, SeedableRng};

    fn fresh_energy(hw: &BiCrossbar, state: &GridStrategyPair) -> f64 {
        DeltaBiCrossbar::new(hw, state.clone(), ExactMax)
            .unwrap()
            .energy()
    }

    #[test]
    fn matches_full_nash_gap_closely() {
        let g = games::battle_of_the_sexes();
        for cfg in [CrossbarConfig::ideal(12), CrossbarConfig::paper(12)] {
            let hw = BiCrossbar::build(&g, &cfg, 0).unwrap();
            let mut rng = StdRng::seed_from_u64(4);
            for _ in 0..20 {
                let s = GridStrategyPair::random(2, 2, 12, &mut rng).unwrap();
                let eval = DeltaBiCrossbar::new(&hw, s.clone(), ExactMax).unwrap();
                let full = hw.nash_gap(&s.p_strategy(), &s.q_strategy()).unwrap();
                // One integer sum per read, one shared digitisation:
                // equal, not merely close.
                assert_eq!(eval.energy(), full);
            }
        }
    }

    #[test]
    fn incremental_walk_is_bit_identical_to_scratch_rebuild() {
        let g = games::bird_game();
        for (cfg, seed) in [
            (CrossbarConfig::ideal(12), 0u64),
            (CrossbarConfig::paper(12), 7),
        ] {
            let hw = BiCrossbar::build(&g, &cfg, seed).unwrap();
            let mut rng = StdRng::seed_from_u64(seed ^ 0xABCD);
            let init = GridStrategyPair::random(3, 3, 12, &mut rng).unwrap();
            let mut eval = DeltaBiCrossbar::new(&hw, init, ExactMax).unwrap();
            for step in 0..300 {
                let Some(mv) = eval.sample_move(&mut rng) else {
                    break;
                };
                let before = eval.energy();
                let delta = eval.propose(mv);
                assert_eq!(delta, eval.energy() - before, "delta contract broken");
                if rng.random::<bool>() {
                    eval.commit();
                } else {
                    eval.revert();
                    assert_eq!(eval.energy(), before, "revert drifted at step {step}");
                }
                assert_eq!(
                    eval.energy(),
                    fresh_energy(&hw, eval.state()),
                    "incremental energy diverged from scratch at step {step}"
                );
            }
        }
    }

    #[test]
    fn rejects_mismatched_state() {
        let g = games::battle_of_the_sexes();
        let hw = BiCrossbar::build(&g, &CrossbarConfig::ideal(12), 0).unwrap();
        let bad_dims = GridStrategyPair::all_on_first(3, 2, 12).unwrap();
        assert!(DeltaBiCrossbar::new(&hw, bad_dims, ExactMax).is_err());
        let bad_intervals = GridStrategyPair::all_on_first(2, 2, 6).unwrap();
        assert!(DeltaBiCrossbar::new(&hw, bad_intervals, ExactMax).is_err());
    }

    #[test]
    fn commit_then_new_proposal_round_trips() {
        let g = games::hawk_dove();
        let hw = BiCrossbar::build(&g, &CrossbarConfig::ideal(12), 1).unwrap();
        let init = GridStrategyPair::all_on_first(2, 2, 12).unwrap();
        let mut eval = DeltaBiCrossbar::new(&hw, init, ExactMax).unwrap();
        let mv = StrategyMove {
            row_player: true,
            from: 0,
            to: 1,
        };
        let delta = eval.propose(mv);
        eval.commit();
        let back = eval.propose(mv.inverse());
        eval.commit();
        // Unit transfer forth and back restores the exact energy.
        assert_eq!(delta, -back);
        assert_eq!(eval.energy(), fresh_energy(&hw, eval.state()));
    }

    #[test]
    #[should_panic(expected = "proposal already pending")]
    fn double_propose_panics() {
        let g = games::hawk_dove();
        let hw = BiCrossbar::build(&g, &CrossbarConfig::ideal(12), 1).unwrap();
        let init = GridStrategyPair::all_on_first(2, 2, 12).unwrap();
        let mut eval = DeltaBiCrossbar::new(&hw, init, ExactMax).unwrap();
        let mv = StrategyMove {
            row_player: true,
            from: 0,
            to: 1,
        };
        let _ = eval.propose(mv);
        let _ = eval.propose(mv.inverse());
    }
}
