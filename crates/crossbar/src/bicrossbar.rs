//! The bi-crossbar: two arrays storing `M` and `Nᵀ` (Fig. 3b/c, Fig. 6).
//!
//! Phase 1 reads both arrays in matrix-vector mode (all word lines up) to
//! obtain the payoff vectors `Mq` and `Nᵀp`; Phase 2 reads both in VMV
//! mode to obtain `pᵀMq` and `pᵀNq`. This module performs the reads,
//! ADC conversion and de-normalisation; the `max(·)` of Phase 1 is either
//! exact (for standalone use and ablation) or delegated to the WTA tree by
//! `cnash-core`.
//!
//! Every read is an exact fixed-point sum ([mod@crate::array]) that meets
//! `f64` once, at its ADC. [`BiCrossbar::energy`] and the incremental
//! [`DeltaBiCrossbar`](crate::DeltaBiCrossbar) share that conversion and
//! the Eq. 9 combination, so they agree bit for bit.

use crate::adc::{AdcSpec, Quantizer};
use crate::array::Crossbar;
use crate::delta::{ExactMax, PhaseOneMax};
use crate::error::CrossbarError;
use crate::mapping::MappingSpec;
use crate::offset::QuantizedPayoffs;
use cnash_device::cell::CellParams;
use cnash_device::variability::VariabilityModel;
use cnash_game::{BimatrixGame, MixedStrategy};

/// Hardware-seed offset of the `Nᵀ` array.
///
/// Known modelling quirk, pinned by a test and kept because changing it
/// re-baselines every golden stream: the offset is exactly one SplitMix64
/// increment, so `StdRng::seed_from_u64(seed + NT_SEED_OFFSET)` is the `M`
/// array's generator advanced by one `u64`. The `Nᵀ` array's draws are the
/// `M` array's shifted by one, and the two arrays' Box–Muller pairs share
/// uniforms instead of being independent.
pub(crate) const NT_SEED_OFFSET: u64 = 0x9e3779b97f4a7c15;

/// Build-time configuration of a [`BiCrossbar`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CrossbarConfig {
    /// Probability quantization intervals `I`.
    pub intervals: u32,
    /// Payoff quantization scale (payoffs × scale must be integers).
    pub payoff_scale: f64,
    /// Cell electrical parameters.
    pub cell: CellParams,
    /// Device-to-device variability.
    pub variability: VariabilityModel,
    /// ADC resolution in bits; `None` = ideal conversion.
    pub adc_bits: Option<u32>,
}

impl CrossbarConfig {
    /// Ideal configuration: no variability, infinite-precision ADC.
    pub fn ideal(intervals: u32) -> Self {
        Self {
            intervals,
            payoff_scale: 1.0,
            cell: CellParams::default(),
            variability: VariabilityModel::none(),
            adc_bits: None,
        }
    }

    /// The paper's hardware assumptions: σ(V_TH) = 40 mV, 8 % resistor
    /// spread, 8-bit ADC.
    pub fn paper(intervals: u32) -> Self {
        Self {
            intervals,
            payoff_scale: 1.0,
            cell: CellParams::default(),
            variability: VariabilityModel::paper(),
            adc_bits: Some(8),
        }
    }

    /// Fingerprint of everything that influences *programming* a
    /// bi-crossbar from a given game: two configs with equal
    /// fingerprints produce interchangeable [`BiCrossbar`]s for the same
    /// `(game, seed)` pair, which is what instance caches key on.
    ///
    /// Hashes the `Debug` rendering of the full config (every field of
    /// [`CrossbarConfig`] feeds `BiCrossbar::build`, and `Debug` of
    /// `f64` is the shortest round-trip form, so distinct configs render
    /// distinctly). The fingerprint is an **in-process** cache key — it
    /// is not stable across versions of this crate and must not be
    /// persisted.
    pub fn program_fingerprint(&self) -> u64 {
        let mut h = cnash_game::canonical::Hasher64::new();
        h.write_str("crossbar-config")
            .write_str(&format!("{self:?}"));
        h.finish()
    }
}

/// Phase-1 read result: digitised payoff-vector values in payoff units.
#[derive(Debug, Clone, PartialEq)]
pub struct PhaseOneRead {
    /// `Mq` — row player's payoff per action (offset payoff units).
    pub row_payoffs: Vec<f64>,
    /// `Nᵀp` — column player's payoff per action (offset payoff units).
    pub col_payoffs: Vec<f64>,
}

/// Phase-2 read result: digitised bilinear values in payoff units.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PhaseTwoRead {
    /// `pᵀMq` in offset payoff units.
    pub row_value: f64,
    /// `pᵀNq` in offset payoff units.
    pub col_value: f64,
}

/// The FeFET bi-crossbar storing `M` and `Nᵀ`.
#[derive(Debug, Clone)]
pub struct BiCrossbar {
    xbar_m: Crossbar,
    xbar_nt: Crossbar,
    adc_m: Quantizer,
    adc_nt: Quantizer,
    /// Quantized current → offset payoff units, `1/(I²·i_on·scale)`.
    k_m: f64,
    k_nt: f64,
    intervals: u32,
}

impl BiCrossbar {
    /// Maps a game onto a bi-crossbar.
    ///
    /// `t` (cells per element) is sized automatically from the largest
    /// offset payoff of either matrix, so both arrays share one geometry.
    ///
    /// # Errors
    ///
    /// Returns an error if payoffs are not integer at `payoff_scale`, or
    /// the configuration is invalid.
    pub fn build(
        game: &BimatrixGame,
        config: &CrossbarConfig,
        seed: u64,
    ) -> Result<Self, CrossbarError> {
        let qm = QuantizedPayoffs::from_matrix(game.row_payoffs(), config.payoff_scale)?;
        let qnt =
            QuantizedPayoffs::from_matrix(&game.col_payoffs().transposed(), config.payoff_scale)?;
        let t = qm.max_element().max(qnt.max_element()).max(1);
        let spec = MappingSpec::new(config.intervals, t)?;

        let xbar_m = Crossbar::build(qm, spec, config.cell, config.variability, seed)?;
        let xbar_nt = Crossbar::build(
            qnt,
            spec,
            config.cell,
            config.variability,
            seed.wrapping_add(NT_SEED_OFFSET),
        )?;

        let mk_adc = |x: &Crossbar| -> Result<Quantizer, CrossbarError> {
            Ok(Quantizer::from_spec(&match config.adc_bits {
                None => AdcSpec::Ideal,
                Some(bits) => AdcSpec::uniform(bits, x.full_scale_current())?,
            }))
        };
        let to_value = |x: &Crossbar| {
            1.0 / (spec.current_denominator(x.nominal_on_current()) * config.payoff_scale)
        };

        Ok(Self {
            adc_m: mk_adc(&xbar_m)?,
            adc_nt: mk_adc(&xbar_nt)?,
            k_m: to_value(&xbar_m),
            k_nt: to_value(&xbar_nt),
            xbar_m,
            xbar_nt,
            intervals: config.intervals,
        })
    }

    /// Interval count `I`.
    pub fn intervals(&self) -> u32 {
        self.intervals
    }

    /// Action counts `(n, m)` of the game this bi-crossbar was
    /// programmed for — the geometry a reused (cached) instance must be
    /// validated against before serving a request.
    pub fn actions(&self) -> (usize, usize) {
        (self.xbar_m.payoffs().rows(), self.xbar_m.payoffs().cols())
    }

    /// The array storing `M`.
    pub fn array_m(&self) -> &Crossbar {
        &self.xbar_m
    }

    /// The array storing `Nᵀ`.
    pub fn array_nt(&self) -> &Crossbar {
        &self.xbar_nt
    }

    /// ADC output (quantized current, A) of an `M`-array read whose
    /// fixed-point total is `sum`.
    #[inline]
    pub(crate) fn digitise_m(&self, sum: i64) -> f64 {
        self.adc_m.convert(self.xbar_m.to_current(sum))
    }

    /// [`BiCrossbar::digitise_m`] for the `Nᵀ` array.
    #[inline]
    pub(crate) fn digitise_nt(&self, sum: i64) -> f64 {
        self.adc_nt.convert(self.xbar_nt.to_current(sum))
    }

    /// Eq. 9 from the Phase-1 maxima `alpha`, `beta` (quantized
    /// currents, A) and the two Phase-2 fixed-point totals, in offset
    /// payoff units. Offsets cancel, so this estimates the true Nash gap.
    #[inline]
    pub(crate) fn combine(&self, alpha: f64, beta: f64, vmv_m: i64, vmv_nt: i64) -> f64 {
        alpha * self.k_m + beta * self.k_nt
            - self.digitise_m(vmv_m) * self.k_m
            - self.digitise_nt(vmv_nt) * self.k_nt
    }

    /// Grid activation counts for a strategy pair.
    ///
    /// # Errors
    ///
    /// Propagates grid-quantization errors.
    pub fn activations(
        &self,
        p: &MixedStrategy,
        q: &MixedStrategy,
    ) -> Result<(Vec<u32>, Vec<u32>), CrossbarError> {
        Ok((
            p.to_grid_counts(self.intervals)?,
            q.to_grid_counts(self.intervals)?,
        ))
    }

    /// Phase 1: matrix-vector reads with unit input vectors (all word
    /// lines active), returning digitised `Mq` and `Nᵀp` in *offset*
    /// payoff units (the WTA max of these feeds Eq. 9).
    ///
    /// # Errors
    ///
    /// Returns an activation error if counts do not fit the geometry.
    pub fn phase_one(&self, p: &[u32], q: &[u32]) -> Result<PhaseOneRead, CrossbarError> {
        let row_payoffs = self
            .xbar_m
            .mv_sums(q)?
            .into_iter()
            .map(|sum| self.digitise_m(sum) * self.k_m)
            .collect();
        let col_payoffs = self
            .xbar_nt
            .mv_sums(p)?
            .into_iter()
            .map(|sum| self.digitise_nt(sum) * self.k_nt)
            .collect();
        Ok(PhaseOneRead {
            row_payoffs,
            col_payoffs,
        })
    }

    /// Phase 2: VMV reads returning digitised `pᵀMq` and `pᵀNq` in offset
    /// payoff units (WTA trees deactivated).
    ///
    /// # Errors
    ///
    /// Returns an activation error if counts do not fit the geometry.
    pub fn phase_two(&self, p: &[u32], q: &[u32]) -> Result<PhaseTwoRead, CrossbarError> {
        let cm = self.xbar_m.vmv_sum(p, q)?;
        // N^T is stored transposed: rows are column-player actions.
        let cnt = self.xbar_nt.vmv_sum(q, p)?;
        Ok(PhaseTwoRead {
            row_value: self.digitise_m(cm) * self.k_m,
            col_value: self.digitise_nt(cnt) * self.k_nt,
        })
    }

    /// Full two-phase hardware evaluation of the MAX-QUBO objective
    /// (Eq. 9) at grid activation counts, with the Phase-1 maxima taken
    /// by `max` over the digitised currents — where the analog WTA trees
    /// physically operate. The from-scratch `O(n·m)` reference of the
    /// incremental [`DeltaBiCrossbar`](crate::DeltaBiCrossbar), which
    /// reports bitwise the same energy at the same state.
    ///
    /// # Errors
    ///
    /// Returns an activation error if counts do not fit the geometry.
    pub fn energy(
        &self,
        p: &[u32],
        q: &[u32],
        max: &impl PhaseOneMax,
    ) -> Result<f64, CrossbarError> {
        let row: Vec<f64> = self
            .xbar_m
            .mv_sums(q)?
            .into_iter()
            .map(|sum| self.digitise_m(sum))
            .collect();
        let col: Vec<f64> = self
            .xbar_nt
            .mv_sums(p)?
            .into_iter()
            .map(|sum| self.digitise_nt(sum))
            .collect();
        Ok(self.combine(
            max.max_row(&row),
            max.max_col(&col),
            self.xbar_m.vmv_sum(p, q)?,
            self.xbar_nt.vmv_sum(q, p)?,
        ))
    }

    /// Full two-phase hardware evaluation of the MAX-QUBO objective
    /// (Eq. 9) with an *exact* max (no WTA error) — the ablation
    /// reference. `cnash-core` replaces the max with the WTA tree model.
    ///
    /// The payoff offsets cancel between the max terms and the bilinear
    /// terms, so the result is directly comparable to
    /// [`BimatrixGame::nash_gap`].
    ///
    /// # Errors
    ///
    /// Propagates activation/grid errors.
    pub fn nash_gap(&self, p: &MixedStrategy, q: &MixedStrategy) -> Result<f64, CrossbarError> {
        let (pc, qc) = self.activations(p, q)?;
        self.energy(&pc, &qc, &ExactMax)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cnash_game::games;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    #[test]
    fn nt_stream_is_the_m_stream_one_draw_later() {
        for seed in [0, 1, 42, u64::MAX] {
            let mut m = StdRng::seed_from_u64(seed);
            let mut nt = StdRng::seed_from_u64(seed.wrapping_add(NT_SEED_OFFSET));
            m.next_u64();
            let mut m_after_one = m.clone();
            for _ in 0..64 {
                assert_eq!(m.next_u64(), nt.next_u64());
            }
            // The Nᵀ array's devices are therefore drawn from the M
            // array's uniforms, not from an independent stream.
            let mut nt = StdRng::seed_from_u64(seed.wrapping_add(NT_SEED_OFFSET));
            let v = VariabilityModel::paper();
            for _ in 0..16 {
                assert_eq!(v.sample(&mut m_after_one), v.sample(&mut nt));
            }
        }
    }

    #[test]
    fn actions_reports_the_programmed_geometry() {
        let g = games::bird_game();
        let xbar = BiCrossbar::build(&g, &CrossbarConfig::ideal(12), 0).unwrap();
        assert_eq!(xbar.actions(), (g.row_actions(), g.col_actions()));
    }

    #[test]
    fn program_fingerprint_separates_configs() {
        let ideal = CrossbarConfig::ideal(12);
        assert_eq!(
            ideal.program_fingerprint(),
            CrossbarConfig::ideal(12).program_fingerprint()
        );
        assert_ne!(
            ideal.program_fingerprint(),
            CrossbarConfig::ideal(16).program_fingerprint()
        );
        assert_ne!(
            ideal.program_fingerprint(),
            CrossbarConfig::paper(12).program_fingerprint()
        );
    }

    #[test]
    fn ideal_gap_matches_exact_math() {
        let g = games::battle_of_the_sexes();
        let xbar = BiCrossbar::build(&g, &CrossbarConfig::ideal(12), 0).unwrap();
        let profiles = [
            (vec![1.0, 0.0], vec![1.0, 0.0]),
            (vec![2.0 / 3.0, 1.0 / 3.0], vec![1.0 / 3.0, 2.0 / 3.0]),
            (vec![0.5, 0.5], vec![0.25, 0.75]),
        ];
        for (pv, qv) in profiles {
            let p = MixedStrategy::new(pv).unwrap();
            let q = MixedStrategy::new(qv).unwrap();
            let hw = xbar.nash_gap(&p, &q).unwrap();
            let exact = g.nash_gap(&p, &q).unwrap();
            assert!((hw - exact).abs() < 1e-6, "hw {hw} vs exact {exact}");
        }
    }

    #[test]
    fn gap_zero_at_equilibria_of_all_benchmarks() {
        for b in games::paper_benchmarks() {
            let xbar = BiCrossbar::build(&b.game, &CrossbarConfig::ideal(12), 1).unwrap();
            for eq in cnash_game::support_enum::enumerate_equilibria(&b.game, 1e-9) {
                let hw = xbar.nash_gap(&eq.row, &eq.col).unwrap();
                assert!(
                    hw.abs() < 1e-6,
                    "{}: gap {hw} at equilibrium {eq}",
                    b.game.name()
                );
            }
        }
    }

    #[test]
    fn paper_config_gap_is_noisy_but_close() {
        let g = games::bird_game();
        let ideal = BiCrossbar::build(&g, &CrossbarConfig::ideal(12), 3).unwrap();
        let noisy = BiCrossbar::build(&g, &CrossbarConfig::paper(12), 3).unwrap();
        let p = MixedStrategy::new(vec![2.0 / 3.0, 1.0 / 3.0, 0.0]).unwrap();
        let q = p.clone();
        let gi = ideal.nash_gap(&p, &q).unwrap();
        let gn = noisy.nash_gap(&p, &q).unwrap();
        assert!((gi - gn).abs() < 0.25, "noise too large: {gi} vs {gn}");
    }

    #[test]
    fn phase_one_values_match_payoff_vectors() {
        let g = games::bird_game();
        let xbar = BiCrossbar::build(&g, &CrossbarConfig::ideal(12), 0).unwrap();
        let p = MixedStrategy::uniform(3).unwrap();
        let q = MixedStrategy::uniform(3).unwrap();
        let (pc, qc) = xbar.activations(&p, &q).unwrap();
        let ph1 = xbar.phase_one(&pc, &qc).unwrap();
        // Offset is 0 for the bird game (min payoff 0), so values match Mq.
        let exact = g.row_payoff_vector(&q).unwrap();
        for (v, e) in ph1.row_payoffs.iter().zip(exact) {
            // Off-cell subthreshold leakage bounds the residual error.
            assert!((v - e).abs() < 1e-4, "{v} vs {e}");
        }
    }

    #[test]
    fn offset_cancels_for_negative_payoff_games() {
        // Hawk-Dove has negative payoffs; the offset must cancel in the gap.
        let g = games::hawk_dove();
        let xbar = BiCrossbar::build(&g, &CrossbarConfig::ideal(12), 0).unwrap();
        let p = MixedStrategy::new(vec![0.5, 0.5]).unwrap();
        let q = MixedStrategy::new(vec![0.5, 0.5]).unwrap();
        let hw = xbar.nash_gap(&p, &q).unwrap();
        let exact = g.nash_gap(&p, &q).unwrap();
        assert!((hw - exact).abs() < 1e-6, "{hw} vs {exact}");
        assert!(hw.abs() < 1e-6, "mixed ESS is an equilibrium");
    }

    #[test]
    fn fractional_payoffs_with_scale() {
        use cnash_game::{BimatrixGame, Matrix};
        let m = Matrix::from_rows(&[vec![0.5, 0.0], vec![0.0, 1.5]]).unwrap();
        let n = Matrix::from_rows(&[vec![1.5, 0.0], vec![0.0, 0.5]]).unwrap();
        let g = BimatrixGame::new("frac", m, n).unwrap();
        let mut cfg = CrossbarConfig::ideal(12);
        cfg.payoff_scale = 2.0;
        let xbar = BiCrossbar::build(&g, &cfg, 0).unwrap();
        let p = MixedStrategy::pure(2, 0).unwrap();
        let q = MixedStrategy::pure(2, 0).unwrap();
        let hw = xbar.nash_gap(&p, &q).unwrap();
        let exact = g.nash_gap(&p, &q).unwrap();
        assert!((hw - exact).abs() < 1e-6);
    }

    #[test]
    fn adc_quantization_bounded_by_lsb() {
        let g = games::battle_of_the_sexes();
        let mut cfg = CrossbarConfig::ideal(12);
        cfg.adc_bits = Some(8);
        let coarse = BiCrossbar::build(&g, &cfg, 0).unwrap();
        let fine = BiCrossbar::build(&g, &CrossbarConfig::ideal(12), 0).unwrap();
        let p = MixedStrategy::new(vec![0.25, 0.75]).unwrap();
        let q = MixedStrategy::new(vec![0.5, 0.5]).unwrap();
        let a = coarse.nash_gap(&p, &q).unwrap();
        let b = fine.nash_gap(&p, &q).unwrap();
        // 4 reads, each within half an LSB of ~max_payoff/255.
        assert!((a - b).abs() < 0.1, "{a} vs {b}");
    }
}
