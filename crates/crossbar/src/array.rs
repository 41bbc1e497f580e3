//! One physical FeFET crossbar storing one payoff matrix.
//!
//! Every physical cell is a [`OneFeFetOneR`] with its own sampled device
//! deviations. The deviations belong to the silicon, not the game: they
//! come from a process-wide device stream per hardware seed, so a seed's
//! first build samples the stream and later builds are `O(n·m·I²·t)`
//! table reads. Because the read currents only ever appear in *sums over
//! activated rectangles* (the unary mapping activates row and column-group
//! prefixes), the array keeps only 2-D prefix sums per payoff element —
//! `O(n·m·(I+1)²)` values — and a full VMV read costs `O(n·m)` lookups.
//!
//! # Fixed-point currents
//!
//! The tables hold `i64` multiples of a per-array power-of-two LSB, not
//! `f64` amperes. A source line sums its cells in no order, and neither
//! does integer addition: a read is one exact integer sum, converted to
//! amperes once, in front of the ADC. Every reader — [`Crossbar::read_mv`],
//! [`Crossbar::read_vmv`], the bi-crossbar's phase reads and the
//! incremental evaluator, which moves a sum in `O(1)` per touched term —
//! thus sees bitwise the same current for the same activation. The LSB
//! keeps the largest possible read below `2^50`, so every entry and
//! every read converts between `f64` and `i64` exactly (see
//! [`Crossbar::rebuild_prefix`]).
//!
//! The naive cell-by-cell reader re-derives the cells from the stream in
//! `f64` and is kept for verification and fault-injection studies; the
//! tests assert the two paths agree to floating-point accuracy.

use crate::bank::DeviceCells;
use crate::error::CrossbarError;
use crate::mapping::MappingSpec;
use crate::offset::QuantizedPayoffs;
use cnash_device::cell::{CellParams, OneFeFetOneR};
use cnash_device::fefet::FeFetState;
use cnash_device::variability::VariabilityModel;

/// The calibrated unit current: the selected-'1' current of a *nominal*
/// (deviation-free) cell. Sense amplification is referenced to this value,
/// so the systematic channel-resistance drop does not bias read values.
pub fn unit_current(params: &CellParams) -> f64 {
    OneFeFetOneR::new(
        FeFetState::LowVth,
        *params,
        cnash_device::variability::DeviceSample::default(),
    )
    .output_current(true, true)
}

/// Bound on any read, in LSBs (a read sums one entry per element): half
/// of [`to_fixed`]'s exact `2^51` range, so entries rounding past their
/// element's corner still convert exactly, and far below `2^53`.
const FIXED_POINT_LIMIT: f64 = (1u64 << 50) as f64;

/// LSBs per ampere for an array whose largest read current is `bound`:
/// the power of two `s` that puts `bound · s` in `[2^49, 2^50)`. A power
/// of two keeps `f64 → i64` exact up to the final rounding and
/// `i64 → f64` a plain scaling.
///
/// # Errors
///
/// Returns [`CrossbarError::InvalidConfig`] when no LSB keeps `bound`
/// below `2^50` — a non-finite current, or one beyond `f64`'s exponent
/// range — instead of letting a read go wrong.
fn fixed_point_scale(bound: f64) -> Result<f64, CrossbarError> {
    if bound == 0.0 {
        return Ok(1.0);
    }
    // `⌊log₂ bound⌋` from the exponent field (subnormals count as the
    // smallest normal exponent; the clamp below covers them).
    let exponent = ((bound.to_bits() >> 52) & 0x7ff) as i64 - 1023;
    let shift = (49 - exponent).clamp(-1022, 1023);
    let scale = f64::from_bits(((shift + 1023) as u64) << 52);
    if bound.is_finite() && bound > 0.0 && bound * scale < FIXED_POINT_LIMIT {
        Ok(scale)
    } else {
        Err(CrossbarError::InvalidConfig(format!(
            "read current bound {bound:e} A has no fixed-point LSB below 2^50"
        )))
    }
}

/// Rounds a scaled current with `|scaled| < 2^51` to the nearest integer
/// LSB (ties to even). Adding `1.5 · 2^52` lands in the binade of
/// consecutive-integer `f64`s, so the addition rounds and the bit
/// pattern's offset is the integer: no `round` call or saturating cast.
fn to_fixed(scaled: f64) -> i64 {
    const SHIFT: f64 = 6_755_399_441_055_744.0; // 1.5 · 2^52
    (scaled + SHIFT).to_bits() as i64 - SHIFT.to_bits() as i64
}

/// A simulated FeFET crossbar storing one (quantized) payoff matrix.
#[derive(Debug, Clone)]
pub struct Crossbar {
    spec: MappingSpec,
    payoffs: QuantizedPayoffs,
    /// Hardware seed, variability and cell design: together with the
    /// stored bits they fix every cell current, which is re-read from
    /// the device stream bank whenever it is needed.
    seed: u64,
    variability: VariabilityModel,
    cell_params: CellParams,
    /// Injected faults as `(stream cell index, forced current)`, sorted
    /// by index; a fault overrides the cell's sampled current.
    faults: Vec<(usize, f64)>,
    /// Per-element `(I+1)×(I+1)` prefix tables in LSBs, element-major.
    prefix: Vec<i64>,
    /// Column-major mirror of `prefix` (same values, elements ordered
    /// `(ej, ei)`). The incremental evaluator refreshes whole *columns*
    /// of an array after a move; in the row-major table those blocks sit
    /// a full matrix row apart (a TLB miss per element at 64×64), in the
    /// mirror they are contiguous.
    prefix_colmajor: Vec<i64>,
    /// Compact all-word-lines slice of `prefix_colmajor` (`r = I`
    /// fixed), used by Phase-1 readers and the incremental evaluator:
    /// `(I+1)` values per element, elements ordered `(ej, ei)`. ~`I+1`×
    /// smaller than the full tables, so the per-move scattered accesses
    /// of the delta path stay cache resident.
    mv_prefix_colmajor: Vec<i64>,
    /// Amperes per table unit (a power of two).
    lsb: f64,
    phys_rows: usize,
    phys_cols: usize,
    nominal_on: f64,
}

impl Crossbar {
    /// Builds a crossbar from quantized payoffs.
    ///
    /// Device deviations are the first `n·m·I²·t` draws of `variability`
    /// from `StdRng::seed_from_u64(seed)`, one sample per physical cell,
    /// so the same seed reproduces the same silicon instance whatever
    /// game it stores.
    ///
    /// # Errors
    ///
    /// Returns [`CrossbarError::ElementOverflow`] if an element exceeds
    /// `spec.cells_per_element`, and [`CrossbarError::InvalidConfig`] if
    /// the array's currents admit no fixed-point LSB (see
    /// [`Crossbar::rebuild_prefix`]).
    pub fn build(
        payoffs: QuantizedPayoffs,
        spec: MappingSpec,
        cell_params: CellParams,
        variability: VariabilityModel,
        seed: u64,
    ) -> Result<Self, CrossbarError> {
        let (n, m) = (payoffs.rows(), payoffs.cols());
        for ei in 0..n {
            for ej in 0..m {
                let value = payoffs.entry(ei, ej);
                if value > spec.cells_per_element {
                    return Err(CrossbarError::ElementOverflow {
                        value,
                        cells_per_element: spec.cells_per_element,
                    });
                }
            }
        }
        let (phys_rows, phys_cols) = spec.physical_size(n, m);
        let mut xbar = Self {
            spec,
            payoffs,
            seed,
            variability,
            cell_params,
            faults: Vec::new(),
            prefix: Vec::new(),
            prefix_colmajor: Vec::new(),
            mv_prefix_colmajor: Vec::new(),
            lsb: 1.0,
            phys_rows,
            phys_cols,
            nominal_on: unit_current(&cell_params),
        };
        xbar.rebuild_prefix()?;
        Ok(xbar)
    }

    /// Walks the array in device-stream order — cell
    /// `c = (((ei·m+ej)·I+r)·I+g)·t+k` is the `c`-th draw — and passes
    /// each `t`-cell group's selected currents to `visit(ei, ej, r, g,
    /// currents)`: the stored bit picks the '0' or '1' current of the
    /// cell's device, and an injected fault overrides it.
    fn for_each_group(&self, mut visit: impl FnMut(usize, usize, usize, usize, &[f64])) {
        let (n, m) = (self.payoffs.rows(), self.payoffs.cols());
        let i = self.spec.intervals as usize;
        let t = self.spec.cells_per_element as usize;
        let cells = DeviceCells::new(
            self.seed,
            &self.variability,
            &self.cell_params,
            n * m * i * i * t,
        );
        let mut cells = cells.iter().enumerate();
        let mut faults = self.faults.iter().peekable();
        let mut group = vec![0.0; t];
        for ei in 0..n {
            for ej in 0..m {
                let value = self.payoffs.entry(ei, ej) as usize;
                for r in 0..i {
                    for g in 0..i {
                        for (k, current) in group.iter_mut().enumerate() {
                            let (c, pair) = cells.next().expect("the stream covers every cell");
                            *current = match faults.next_if(|f| f.0 == c) {
                                Some(&(_, forced)) => forced,
                                None => pair[usize::from(k < value)],
                            };
                        }
                        visit(ei, ej, r, g, &group);
                    }
                }
            }
        }
    }

    /// Recomputes the prefix tables from the cell currents. Call after
    /// fault injection.
    ///
    /// The rectangle sums are accumulated in `f64`, then each entry is
    /// rounded once to the array's fixed-point LSB, chosen from the
    /// largest possible read: the sum over elements of each element's
    /// `(I, I)` corner. Cell currents are non-negative, so a corner
    /// bounds its element's entries (up to rounding, which the limit's
    /// factor-two margin absorbs), and a non-finite current reaches the
    /// corner through the prefix recurrence.
    ///
    /// # Errors
    ///
    /// Returns [`CrossbarError::InvalidConfig`] when no power-of-two LSB
    /// keeps that bound below `2^50` (a non-finite cell current, say);
    /// the tables are then left as they were.
    pub fn rebuild_prefix(&mut self) -> Result<(), CrossbarError> {
        let (n, m) = (self.payoffs.rows(), self.payoffs.cols());
        let i = self.spec.intervals as usize;
        let side = i + 1;
        let block = side * side;
        let mut prefix = vec![0.0; n * m * block];
        self.for_each_group(|ei, ej, r, g, currents| {
            let mut sum = 0.0;
            for &current in currents {
                sum += current;
            }
            let base = (ei * m + ej) * block;
            let (r, g) = (r + 1, g + 1);
            prefix[base + r * side + g] =
                sum + prefix[base + (r - 1) * side + g] + prefix[base + r * side + (g - 1)]
                    - prefix[base + (r - 1) * side + (g - 1)];
        });
        self.set_tables(prefix)
    }

    /// Rounds the `f64` prefix tables `prefix` to fixed point and derives
    /// the mirrors (see [`Crossbar::rebuild_prefix`]).
    fn set_tables(&mut self, prefix: Vec<f64>) -> Result<(), CrossbarError> {
        let (n, m) = (self.payoffs.rows(), self.payoffs.cols());
        let i = self.spec.intervals as usize;
        let side = i + 1;
        let block = side * side;
        let bound: f64 = prefix.chunks_exact(block).map(|e| e[block - 1].abs()).sum();
        let scale = fixed_point_scale(bound)?;
        // Same-size element type: the conversion reuses the allocation.
        let prefix: Vec<i64> = prefix.into_iter().map(|x| to_fixed(x * scale)).collect();
        let mut prefix_colmajor = vec![0; n * m * block];
        let mut mv_prefix_colmajor = vec![0; n * m * side];
        for ei in 0..n {
            for ej in 0..m {
                let e = ei * m + ej;
                let et = ej * n + ei;
                prefix_colmajor[et * block..(et + 1) * block]
                    .copy_from_slice(&prefix[e * block..(e + 1) * block]);
                let mv_row = &prefix[e * block + i * side..(e + 1) * block];
                mv_prefix_colmajor[et * side..(et + 1) * side].copy_from_slice(mv_row);
            }
        }
        self.prefix = prefix;
        self.prefix_colmajor = prefix_colmajor;
        self.mv_prefix_colmajor = mv_prefix_colmajor;
        self.lsb = 1.0 / scale;
        Ok(())
    }

    /// Summed current, in LSBs, of the `(r, g)`-activated sub-block of
    /// element `(ei, ej)`.
    pub(crate) fn prefix_at(&self, ei: usize, ej: usize, r: u32, g: u32) -> i64 {
        let side = self.spec.intervals as usize + 1;
        let base = (ei * self.payoffs.cols() + ej) * side * side;
        self.prefix[base + r as usize * side + g as usize]
    }

    /// [`Crossbar::prefix_at`] served from the column-major mirror —
    /// the same value, contiguous when walking one column.
    pub(crate) fn prefix_at_colmajor(&self, ei: usize, ej: usize, r: u32, g: u32) -> i64 {
        let side = self.spec.intervals as usize + 1;
        let base = (ej * self.payoffs.rows() + ei) * side * side;
        self.prefix_colmajor[base + r as usize * side + g as usize]
    }

    /// [`Crossbar::prefix_at`] with all `I` word lines of the row group
    /// active (`r = I`) — the Phase-1 case, served from the compact
    /// column-major cache.
    pub(crate) fn mv_prefix_at_colmajor(&self, ei: usize, ej: usize, g: u32) -> i64 {
        let side = self.spec.intervals as usize + 1;
        self.mv_prefix_colmajor[(ej * self.payoffs.rows() + ei) * side + g as usize]
    }

    /// The current, in amperes, of a fixed-point sum of table entries —
    /// the one `i64 → f64` conversion of every read.
    pub(crate) fn to_current(&self, sum: i64) -> f64 {
        sum as f64 * self.lsb
    }

    /// Mapping spec.
    pub fn spec(&self) -> MappingSpec {
        self.spec
    }

    /// Stored payoffs.
    pub fn payoffs(&self) -> &QuantizedPayoffs {
        &self.payoffs
    }

    /// Physical array size `(rows, cols)`.
    pub fn physical_size(&self) -> (usize, usize) {
        (self.phys_rows, self.phys_cols)
    }

    /// Nominal selected-cell ON current (A).
    pub fn nominal_on_current(&self) -> f64 {
        self.nominal_on
    }

    fn check_counts(&self, p: &[u32], q: &[u32]) -> Result<(), CrossbarError> {
        let i = self.spec.intervals;
        if p.len() != self.payoffs.rows() {
            return Err(CrossbarError::ActivationMismatch(format!(
                "{} row counts for {} actions",
                p.len(),
                self.payoffs.rows()
            )));
        }
        if q.len() != self.payoffs.cols() {
            return Err(CrossbarError::ActivationMismatch(format!(
                "{} col counts for {} actions",
                q.len(),
                self.payoffs.cols()
            )));
        }
        if p.iter().chain(q).any(|&c| c > i) {
            return Err(CrossbarError::ActivationMismatch(format!(
                "activation count exceeds {i} intervals"
            )));
        }
        Ok(())
    }

    /// Fixed-point total of a VMV read (see [`Crossbar::read_vmv`]).
    pub(crate) fn vmv_sum(&self, p: &[u32], q: &[u32]) -> Result<i64, CrossbarError> {
        self.check_counts(p, q)?;
        let mut total = 0;
        for (ei, &pc) in p.iter().enumerate() {
            if pc == 0 {
                continue;
            }
            for (ej, &qc) in q.iter().enumerate() {
                total += self.prefix_at(ei, ej, pc, qc);
            }
        }
        Ok(total)
    }

    /// Fixed-point per-row totals of an MV read (see
    /// [`Crossbar::read_mv`]).
    pub(crate) fn mv_sums(&self, q: &[u32]) -> Result<Vec<i64>, CrossbarError> {
        let full = vec![self.spec.intervals; self.payoffs.rows()];
        self.check_counts(&full, q)?;
        // Column by column, so the compact table is read contiguously.
        let mut sums = vec![0; full.len()];
        for (ej, &qc) in q.iter().enumerate() {
            for (ei, sum) in sums.iter_mut().enumerate() {
                *sum += self.mv_prefix_at_colmajor(ei, ej, qc);
            }
        }
        Ok(sums)
    }

    /// Total source-line current of a VMV read: row group `i` drives its
    /// first `p[i]` word lines, column group `j` its first `q[j]`
    /// `t`-wide data-line groups (Phase 2 of the operation flow).
    ///
    /// # Errors
    ///
    /// Returns [`CrossbarError::ActivationMismatch`] on bad counts.
    pub fn read_vmv(&self, p: &[u32], q: &[u32]) -> Result<f64, CrossbarError> {
        Ok(self.to_current(self.vmv_sum(p, q)?))
    }

    /// Per-row-group source-line currents with *all* word lines active —
    /// Phase 1's matrix-vector read producing `M q` (one current per
    /// action of the row player).
    ///
    /// # Errors
    ///
    /// Returns [`CrossbarError::ActivationMismatch`] on bad counts.
    pub fn read_mv(&self, q: &[u32]) -> Result<Vec<f64>, CrossbarError> {
        Ok(self
            .mv_sums(q)?
            .into_iter()
            .map(|sum| self.to_current(sum))
            .collect())
    }

    /// Converts a Phase-2 current, or a Phase-1 per-row current (all `I`
    /// word lines of a group active give `I²·(M'q)_i·i_on`), to stored
    /// payoff units: `current / (I² · i_on)` recovers `pᵀM'q`.
    pub fn current_to_value(&self, current: f64) -> f64 {
        current / self.spec.current_denominator(self.nominal_on)
    }

    /// Largest read current of a *simplex-feasible* activation — the
    /// natural ADC full scale. Because `p` and `q` each distribute `I`
    /// activation units, both the per-row Phase-1 currents
    /// (`I²·(M'q)ᵢ·i_on`) and the total Phase-2 current (`I²·pᵀM'q·i_on`)
    /// are bounded by `I²·max(M')·i_on`; sizing the ADC to this bound
    /// instead of the all-cells-on worst case keeps the LSB far below the
    /// objective landscape's walls.
    pub fn full_scale_current(&self) -> f64 {
        let i = self.spec.intervals as f64;
        i * i * f64::from(self.payoffs.max_element().max(1)) * self.nominal_on * 1.2
        // headroom for positive resistor deviations
    }

    // ------------------------------------------------------------------
    // Verification / fault-injection paths
    // ------------------------------------------------------------------

    /// Naive cell-by-cell VMV read (bit-identical physics, `O(cells)`).
    ///
    /// # Errors
    ///
    /// Returns [`CrossbarError::ActivationMismatch`] on bad counts.
    pub fn read_vmv_naive(&self, p: &[u32], q: &[u32]) -> Result<f64, CrossbarError> {
        self.check_counts(p, q)?;
        let m = self.payoffs.cols();
        let i = self.spec.intervals as usize;
        let t = self.spec.cells_per_element as usize;
        let mut cell_current = Vec::new();
        self.for_each_group(|_, _, _, _, currents| cell_current.extend_from_slice(currents));
        let mut total = 0.0;
        for (ei, &pc) in p.iter().enumerate() {
            for r in 0..pc as usize {
                for (ej, &qc) in q.iter().enumerate() {
                    for g in 0..qc as usize {
                        let group = (((ei * m + ej) * i + r) * i + g) * t;
                        for current in &cell_current[group..group + t] {
                            total += current;
                        }
                    }
                }
            }
        }
        Ok(total)
    }

    /// Forces the current of physical cell `(row, col)` of the
    /// `(I·n) × (I·t·m)` array, replacing any earlier fault there.
    fn force_cell(&mut self, row: usize, col: usize, current: f64) {
        assert!(
            row < self.phys_rows && col < self.phys_cols,
            "out of bounds"
        );
        let m = self.payoffs.cols();
        let i = self.spec.intervals as usize;
        let t = self.spec.cells_per_element as usize;
        let (ei, r) = (row / i, row % i);
        let (ej, g, k) = (col / (i * t), col / t % i, col % t);
        let c = (((ei * m + ej) * i + r) * i + g) * t + k;
        match self.faults.binary_search_by_key(&c, |f| f.0) {
            Ok(at) => self.faults[at].1 = current,
            Err(at) => self.faults.insert(at, (c, current)),
        }
    }

    /// Forces a physical cell's current to zero (dead cell).
    ///
    /// Call [`Crossbar::rebuild_prefix`] afterwards.
    ///
    /// # Panics
    ///
    /// Panics if the coordinates are out of bounds.
    pub fn inject_dead_cell(&mut self, row: usize, col: usize) {
        self.force_cell(row, col, 0.0);
    }

    /// Forces a physical cell permanently ON at the nominal current
    /// (stuck-at-1 fault). Call [`Crossbar::rebuild_prefix`] afterwards.
    ///
    /// # Panics
    ///
    /// Panics if the coordinates are out of bounds.
    pub fn inject_stuck_on_cell(&mut self, row: usize, col: usize) {
        self.force_cell(row, col, self.nominal_on);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cnash_game::games;
    use cnash_game::Matrix;

    fn ideal_xbar(m: &Matrix, intervals: u32) -> Crossbar {
        let q = QuantizedPayoffs::from_integer_matrix(m).unwrap();
        let t = q.max_element().max(1);
        let spec = MappingSpec::new(intervals, t).unwrap();
        Crossbar::build(q, spec, CellParams::default(), VariabilityModel::none(), 0).unwrap()
    }

    #[test]
    fn fig4c_example_counts() {
        // 0.25 × 3 × 0.75 with I = 4, t = 4 activates 9 '1' cells.
        let m = Matrix::from_rows(&[vec![3.0]]).unwrap();
        let q = QuantizedPayoffs::from_integer_matrix(&m).unwrap();
        let spec = MappingSpec::new(4, 4).unwrap();
        let xbar =
            Crossbar::build(q, spec, CellParams::default(), VariabilityModel::none(), 0).unwrap();
        assert_eq!(xbar.physical_size(), (4, 16));
        let current = xbar.read_vmv(&[1], &[3]).unwrap();
        let i_on = xbar.nominal_on_current();
        assert!(
            (current - 9.0 * i_on).abs() / i_on < 1e-3,
            "expected 9 cell currents, got {}",
            current / i_on
        );
        // Value: current / (I² i_on) = 9/16 = 0.25·3·0.75.
        assert!((xbar.current_to_value(current) - 0.5625).abs() < 1e-3);
    }

    #[test]
    fn vmv_matches_exact_bilinear_when_ideal() {
        let g = games::battle_of_the_sexes();
        let xbar = ideal_xbar(g.row_payoffs(), 12);
        // p = (1/3, 2/3), q = (3/4, 1/4) on the 1/12 grid.
        let p = [4u32, 8];
        let q = [9u32, 3];
        let val = xbar.current_to_value(xbar.read_vmv(&p, &q).unwrap());
        let exact = g
            .row_payoffs()
            .bilinear(&[1.0 / 3.0, 2.0 / 3.0], &[0.75, 0.25])
            .unwrap();
        assert!((val - exact).abs() < 1e-3, "{val} vs {exact}");
    }

    #[test]
    fn mv_matches_exact_product_when_ideal() {
        let g = games::bird_game();
        let xbar = ideal_xbar(g.row_payoffs(), 12);
        let q = [8u32, 4, 0]; // (2/3, 1/3, 0)
        let currents = xbar.read_mv(&q).unwrap();
        let exact = g
            .row_payoffs()
            .mat_vec(&[2.0 / 3.0, 1.0 / 3.0, 0.0])
            .unwrap();
        for (c, e) in currents.iter().zip(exact) {
            assert!((xbar.current_to_value(*c) - e).abs() < 1e-3);
        }
    }

    #[test]
    fn fast_and_naive_reads_agree() {
        let g = games::modified_prisoners_dilemma();
        let q = QuantizedPayoffs::from_integer_matrix(g.row_payoffs()).unwrap();
        let spec = MappingSpec::new(6, q.max_element()).unwrap();
        let xbar = Crossbar::build(
            q,
            spec,
            CellParams::default(),
            VariabilityModel::paper(),
            123,
        )
        .unwrap();
        let p = [1u32, 0, 2, 0, 3, 0, 0, 0];
        let qc = [0u32, 2, 0, 1, 0, 0, 3, 0];
        let fast = xbar.read_vmv(&p, &qc).unwrap();
        let naive = xbar.read_vmv_naive(&p, &qc).unwrap();
        assert!((fast - naive).abs() <= 1e-15 + fast.abs() * 1e-10);
    }

    #[test]
    fn variability_perturbs_but_stays_close() {
        let g = games::battle_of_the_sexes();
        let qp = QuantizedPayoffs::from_integer_matrix(g.row_payoffs()).unwrap();
        let spec = MappingSpec::new(12, qp.max_element()).unwrap();
        let noisy = Crossbar::build(
            qp,
            spec,
            CellParams::default(),
            VariabilityModel::paper(),
            7,
        )
        .unwrap();
        let p = [6u32, 6];
        let q = [6u32, 6];
        let val = noisy.current_to_value(noisy.read_vmv(&p, &q).unwrap());
        let exact = g.row_payoffs().bilinear(&[0.5, 0.5], &[0.5, 0.5]).unwrap();
        let rel = (val - exact).abs() / exact;
        assert!(rel > 0.0, "variability should perturb the read");
        assert!(rel < 0.05, "8% per-cell spread must average out: {rel}");
    }

    #[test]
    fn build_rejects_elements_wider_than_t() {
        let m = Matrix::from_rows(&[vec![1.0, 5.0, 7.0]]).unwrap();
        let q = QuantizedPayoffs::from_integer_matrix(&m).unwrap();
        let spec = MappingSpec::new(2, 4).unwrap();
        let err = Crossbar::build(q, spec, CellParams::default(), VariabilityModel::none(), 0)
            .unwrap_err();
        assert_eq!(
            err,
            CrossbarError::ElementOverflow {
                value: 5,
                cells_per_element: 4
            }
        );
    }

    #[test]
    fn activation_validation() {
        let g = games::battle_of_the_sexes();
        let xbar = ideal_xbar(g.row_payoffs(), 4);
        assert!(xbar.read_vmv(&[1], &[1, 1]).is_err());
        assert!(xbar.read_vmv(&[1, 1], &[1]).is_err());
        assert!(xbar.read_vmv(&[5, 0], &[1, 1]).is_err()); // > I
    }

    #[test]
    fn zero_activation_reads_zero() {
        let g = games::battle_of_the_sexes();
        let xbar = ideal_xbar(g.row_payoffs(), 4);
        assert_eq!(xbar.read_vmv(&[0, 0], &[0, 0]).unwrap(), 0.0);
    }

    #[test]
    fn dead_cell_reduces_current() {
        let m = Matrix::from_rows(&[vec![2.0]]).unwrap();
        let qp = QuantizedPayoffs::from_integer_matrix(&m).unwrap();
        let spec = MappingSpec::new(2, 2).unwrap();
        let mut xbar =
            Crossbar::build(qp, spec, CellParams::default(), VariabilityModel::none(), 0).unwrap();
        let before = xbar.read_vmv(&[2], &[2]).unwrap();
        xbar.inject_dead_cell(0, 0);
        xbar.rebuild_prefix().unwrap();
        let after = xbar.read_vmv(&[2], &[2]).unwrap();
        assert!(after < before);
        assert!((before - after - xbar.nominal_on_current()).abs() < 1e-8 * before);
    }

    #[test]
    fn stuck_on_cell_increases_current() {
        let m = Matrix::from_rows(&[vec![0.0]]).unwrap();
        let qp = QuantizedPayoffs::from_integer_matrix(&m).unwrap();
        let spec = MappingSpec::new(2, 2).unwrap();
        let mut xbar =
            Crossbar::build(qp, spec, CellParams::default(), VariabilityModel::none(), 0).unwrap();
        let before = xbar.read_vmv(&[2], &[2]).unwrap();
        xbar.inject_stuck_on_cell(1, 1);
        xbar.rebuild_prefix().unwrap();
        let after = xbar.read_vmv(&[2], &[2]).unwrap();
        assert!(after > before + 0.9 * xbar.nominal_on_current());
    }

    #[test]
    fn full_scale_bounds_feasible_reads() {
        // The ADC range covers every simplex-feasible activation: both
        // players distribute exactly I units.
        let g = games::bird_game();
        let qp = QuantizedPayoffs::from_integer_matrix(g.row_payoffs()).unwrap();
        let spec = MappingSpec::new(12, qp.max_element()).unwrap();
        let xbar = Crossbar::build(
            qp,
            spec,
            CellParams::default(),
            VariabilityModel::paper(),
            5,
        )
        .unwrap();
        let fs = xbar.full_scale_current();
        // Worst feasible case: all mass on the row/column of the largest
        // element, plus some spread-out profiles.
        for (p, q) in [
            ([12u32, 0, 0], [0u32, 12, 0]),
            ([0, 12, 0], [12, 0, 0]),
            ([4, 4, 4], [4, 4, 4]),
            ([6, 6, 0], [0, 6, 6]),
        ] {
            let read = xbar.read_vmv(&p, &q).unwrap();
            assert!(read <= fs, "feasible read {read} exceeds full scale {fs}");
        }
        // Phase-1 MV row currents are bounded by the same full scale.
        for c in xbar.read_mv(&[4, 4, 4]).unwrap() {
            assert!(c <= fs);
        }
    }

    #[test]
    fn fixed_point_bound_holds_at_2_pow_20_cells() {
        // Pure arithmetic, nothing programmed: 2 × 2 elements at I = 512
        // and t = 1 is 2^20 cells, every one carrying 10 A.
        let (elements, corner_cells) = (4, 512 * 512);
        assert_eq!(elements * corner_cells, 1 << 20);
        let corner = corner_cells as f64 * 10.0;
        let scale = fixed_point_scale(elements as f64 * corner).unwrap();
        let top = elements as f64 * corner * scale;
        assert!((FIXED_POINT_LIMIT / 2.0..FIXED_POINT_LIMIT).contains(&top));
        // The largest read — every element's corner — converts exactly
        // both ways.
        let read = to_fixed(corner * scale) * elements as i64;
        assert_eq!(read as f64, top);
        let rounded = [2.5, 3.5, -1.4, -0.2, 1e15 + 0.6].map(to_fixed);
        assert_eq!(rounded, [2, 4, -1, 0, 1_000_000_000_000_001]);
        // And one cell is still resolved to better than 2^-29 of itself.
        assert!(10.0 * scale > (1u64 << 29) as f64);
        for bound in [f64::INFINITY, f64::NAN, -1.0] {
            assert!(fixed_point_scale(bound).is_err(), "{bound}");
        }
        for bound in [0.0, f64::MIN_POSITIVE / 1e6, 1e-300, 1e300, f64::MAX] {
            assert!(bound * fixed_point_scale(bound).unwrap() < FIXED_POINT_LIMIT);
        }
    }

    #[test]
    fn unrepresentable_fault_current_is_an_error_not_a_wrap() {
        let (q, t) = payoffs(2, 2, 3);
        let mut xbar = build(&q, 4, t, VariabilityModel::none(), 0xB00E);
        let before = xbar.read_vmv(&[4, 0], &[2, 2]).unwrap();
        xbar.force_cell(0, 0, f64::INFINITY);
        assert!(matches!(
            xbar.rebuild_prefix(),
            Err(CrossbarError::InvalidConfig(_))
        ));
        // The tables are left as they were.
        assert_eq!(xbar.read_vmv(&[4, 0], &[2, 2]).unwrap(), before);
    }

    // ------------------------------------------------------------------
    // Device stream bank: bit-identity with sequential per-cell sampling.
    // The bank is process-wide; each test below draws its own seeds, so
    // parallel tests share no stream (only the LRU order).
    // ------------------------------------------------------------------

    /// Cell currents (row-major over the physical array) and the `f64`
    /// prefix tables of a build that samples one fresh sequential stream
    /// cell by cell — the programming model the bank must reproduce.
    struct Reference {
        cells: Vec<f64>,
        prefix: Vec<f64>,
    }

    fn reference(
        payoffs: &QuantizedPayoffs,
        spec: MappingSpec,
        variability: VariabilityModel,
        seed: u64,
    ) -> Reference {
        use rand::rngs::StdRng;
        use rand::SeedableRng;
        let (n, m) = (payoffs.rows(), payoffs.cols());
        let (_, phys_cols) = spec.physical_size(n, m);
        let i = spec.intervals as usize;
        let t = spec.cells_per_element as usize;
        let params = CellParams::default();
        let mut rng = StdRng::seed_from_u64(seed);
        let mut cells = vec![0.0; n * m * i * i * t];
        for ei in 0..n {
            for ej in 0..m {
                let value = payoffs.entry(ei, ej) as usize;
                for r in 0..i {
                    for g in 0..i {
                        for k in 0..t {
                            let sample = variability.sample(&mut rng);
                            let cell =
                                OneFeFetOneR::new(FeFetState::from_bit(k < value), params, sample);
                            cells[(ei * i + r) * phys_cols + ej * i * t + g * t + k] =
                                cell.output_current(true, true);
                        }
                    }
                }
            }
        }
        let side = i + 1;
        let block = side * side;
        let mut prefix = vec![0.0; n * m * block];
        for ei in 0..n {
            for ej in 0..m {
                let base = (ei * m + ej) * block;
                for r in 1..=i {
                    for g in 1..=i {
                        let mut sum = 0.0;
                        for k in 0..t {
                            sum +=
                                cells[(ei * i + r - 1) * phys_cols + ej * i * t + (g - 1) * t + k];
                        }
                        prefix[base + r * side + g] = sum
                            + prefix[base + (r - 1) * side + g]
                            + prefix[base + r * side + (g - 1)]
                            - prefix[base + (r - 1) * side + (g - 1)];
                    }
                }
            }
        }
        Reference { cells, prefix }
    }

    /// Payoffs `0..=top` spread over an `n × m` matrix, stored in `t =
    /// top + 1` cells so every element also has '0' cells.
    fn payoffs(n: usize, m: usize, top: u32) -> (QuantizedPayoffs, u32) {
        let rows: Vec<Vec<f64>> = (0..n)
            .map(|r| {
                (0..m)
                    .map(|c| f64::from(((r * 7 + c * 3) % (top as usize + 1)) as u32))
                    .collect()
            })
            .collect();
        let q = QuantizedPayoffs::from_integer_matrix(&Matrix::from_rows(&rows).unwrap()).unwrap();
        (q, top + 1)
    }

    /// Asserts `xbar` is bitwise the reference build, cell and table.
    fn assert_matches_reference(xbar: &Crossbar, variability: VariabilityModel, seed: u64) {
        let want = reference(xbar.payoffs(), xbar.spec(), variability, seed);
        let (n, m) = (xbar.payoffs().rows(), xbar.payoffs().cols());
        let i = xbar.spec().intervals as usize;
        let t = xbar.spec().cells_per_element as usize;
        let (_, phys_cols) = xbar.physical_size();
        let mut cells = Vec::new();
        xbar.for_each_group(|ei, ej, r, g, currents| {
            for (k, &current) in currents.iter().enumerate() {
                let phys = (ei * i + r) * phys_cols + ej * i * t + g * t + k;
                cells.push((phys, current));
            }
        });
        assert_eq!(cells.len(), n * m * i * i * t);
        for (phys, current) in cells {
            assert_eq!(current.to_bits(), want.cells[phys].to_bits(), "cell {phys}");
        }
        // The reference tables through the same fixed-point rounding
        // (which also derives the mirrors from them).
        let mut want_xbar = xbar.clone();
        want_xbar.set_tables(want.prefix).unwrap();
        assert!(xbar.prefix == want_xbar.prefix, "prefix tables differ");
        assert_eq!(xbar.lsb, want_xbar.lsb);
    }

    fn build(
        q: &QuantizedPayoffs,
        intervals: u32,
        t: u32,
        v: VariabilityModel,
        seed: u64,
    ) -> Crossbar {
        let spec = MappingSpec::new(intervals, t).unwrap();
        Crossbar::build(q.clone(), spec, CellParams::default(), v, seed).unwrap()
    }

    #[test]
    fn banked_build_matches_sequential_sampling() {
        let models = [
            VariabilityModel::paper(),
            VariabilityModel::none(),
            VariabilityModel::paper().scaled(3.0),
        ];
        let shapes = [(1, 1, 1, 3), (2, 3, 4, 4), (5, 4, 12, 6), (3, 3, 12, 9)];
        for v in models {
            for seed in [
                0xB001,
                0xB001u64.wrapping_add(crate::bicrossbar::NT_SEED_OFFSET),
            ] {
                for (n, m, intervals, top) in shapes {
                    let (q, t) = payoffs(n, m, top);
                    assert_matches_reference(&build(&q, intervals, t, v, seed), v, seed);
                }
            }
        }
    }

    #[test]
    fn build_order_does_not_change_the_silicon() {
        let v = VariabilityModel::paper();
        let (small, ts) = payoffs(2, 2, 3);
        let (large, tl) = payoffs(6, 5, 7);
        // Small then large, and large then small, each on a fresh seed.
        for (seed, large_first) in [(0xB002, false), (0xB003, true)] {
            if large_first {
                assert_matches_reference(&build(&large, 12, tl, v, seed), v, seed);
            }
            assert_matches_reference(&build(&small, 12, ts, v, seed), v, seed);
            assert_matches_reference(&build(&large, 12, tl, v, seed), v, seed);
        }
        // Evicted by five other seeds, the stream is drawn again.
        let before = build(&large, 12, tl, v, 0xB004);
        for other in 0xB005..0xB00A {
            build(&small, 12, ts, v, other);
        }
        let after = build(&large, 12, tl, v, 0xB004);
        assert!(before.prefix == after.prefix);
        assert_matches_reference(&after, v, 0xB004);
    }

    #[test]
    fn concurrent_builds_on_one_seed_match() {
        let v = VariabilityModel::paper();
        let (small, ts) = payoffs(3, 3, 4);
        let (large, tl) = payoffs(8, 7, 9);
        let barrier = std::sync::Barrier::new(2);
        let (a, b) = std::thread::scope(|scope| {
            let a = scope.spawn(|| {
                barrier.wait();
                build(&small, 12, ts, v, 0xB00B)
            });
            let b = scope.spawn(|| {
                barrier.wait();
                build(&large, 12, tl, v, 0xB00B)
            });
            (a.join().unwrap(), b.join().unwrap())
        });
        assert_matches_reference(&a, v, 0xB00B);
        assert_matches_reference(&b, v, 0xB00B);
    }

    #[test]
    fn build_past_the_retention_cap_matches() {
        // 2 × 2 elements × 256² × 9 cells = 2.36M cells > 2^21 retained.
        let v = VariabilityModel::paper();
        let (q, t) = payoffs(2, 2, 8);
        let xbar = build(&q, 256, t, v, 0xB00C);
        assert!(2 * 2 * 256 * 256 * t as usize > 1 << 21);
        assert_matches_reference(&xbar, v, 0xB00C);
    }

    #[test]
    fn faults_override_the_banked_cell() {
        let (q, t) = payoffs(2, 2, 3);
        let mut xbar = build(&q, 4, t, VariabilityModel::paper(), 0xB00D);
        let clean = xbar.read_vmv_naive(&[4, 4], &[4, 4]).unwrap();
        xbar.inject_stuck_on_cell(5, 17);
        xbar.inject_dead_cell(5, 17);
        xbar.inject_dead_cell(0, 0);
        xbar.rebuild_prefix().unwrap();
        let naive = xbar.read_vmv_naive(&[4, 4], &[4, 4]).unwrap();
        assert!(naive < clean);
        let fast = xbar.read_vmv(&[4, 4], &[4, 4]).unwrap();
        assert!((fast - naive).abs() <= fast.abs() * 1e-12);
        assert_eq!(
            xbar.faults.len(),
            2,
            "re-injecting a cell replaces its fault"
        );
    }
}
