//! Support-enumeration computation of all Nash equilibria.
//!
//! This is the ground-truth solver of the reproduction, playing the role
//! Nashpy \[31] plays in the paper: given a bimatrix game it enumerates every
//! pair of equal-size supports `(S, T)`, solves the indifference conditions
//! on each support, and keeps the solutions that satisfy feasibility and
//! best-response conditions. For nondegenerate games this finds *all*
//! equilibria (Nash's theorem guarantees at least one exists).
//!
//! Complexity is exponential in the number of actions, which is fine for
//! the paper's benchmark sizes (≤ 8 actions per player).

use crate::bimatrix::BimatrixGame;
use crate::equilibrium::{dedup_equilibria, Equilibrium};
use crate::matrix::Matrix;
use crate::strategy::MixedStrategy;

/// Upper bound on actions per player accepted by the enumerator
/// (`2^n` supports per side).
pub const MAX_ENUM_ACTIONS: usize = 16;

/// Enumerates all Nash equilibria of `game` via support enumeration.
///
/// `tol` is the numerical tolerance for feasibility (probabilities ≥ −tol)
/// and best-response slack. Returned equilibria are deduplicated with an
/// `L∞` profile tolerance of `1e-6` and sorted lexicographically by their
/// concatenated probability vector (row mixture, then column mixture) for
/// reproducibility.
///
/// # Panics
///
/// Panics if either player has more than [`MAX_ENUM_ACTIONS`] actions.
///
/// # Example
///
/// ```
/// use cnash_game::{games, support_enum::enumerate_equilibria};
///
/// let eqs = enumerate_equilibria(&games::battle_of_the_sexes(), 1e-9);
/// assert_eq!(eqs.len(), 3); // 2 pure + 1 mixed
/// ```
pub fn enumerate_equilibria(game: &BimatrixGame, tol: f64) -> Vec<Equilibrium> {
    let n = game.row_actions();
    let m = game.col_actions();
    assert!(
        n <= MAX_ENUM_ACTIONS && m <= MAX_ENUM_ACTIONS,
        "support enumeration limited to {MAX_ENUM_ACTIONS} actions per player"
    );

    // Column player's payoff matrix transposed once: rows become column
    // actions, so both sides share one indifference kernel.
    let a = game.row_payoffs();
    let nt = game.col_payoffs().transposed();
    let mut scratch = Scratch::default();
    let mut found = Vec::new();
    for_each_support_pair(n, m, |s, t| {
        let Some(q) = solve_indifference(a, s, t, m, tol, &mut scratch) else {
            return;
        };
        let Some(p) = solve_indifference(&nt, t, s, n, tol, &mut scratch) else {
            return;
        };
        let (Ok(p), Ok(q)) = (MixedStrategy::new(p), MixedStrategy::new(q)) else {
            return;
        };
        if game.is_equilibrium(&p, &q, tol.max(1e-9)) {
            found.push(Equilibrium::from_profile(game, p, q));
        }
    });
    let mut out = dedup_equilibria(found, 1e-6);
    out.sort_by(|a, b| {
        let ka = profile_key(a);
        let kb = profile_key(b);
        ka.partial_cmp(&kb).expect("finite probabilities")
    });
    out
}

/// Counts equilibria by kind: `(pure, mixed)`.
pub fn count_by_kind(eqs: &[Equilibrium], tol: f64) -> (usize, usize) {
    let pure = eqs
        .iter()
        .filter(|e| e.kind(tol) == crate::equilibrium::StrategyKind::Pure)
        .count();
    (pure, eqs.len() - pure)
}

fn profile_key(e: &Equilibrium) -> Vec<f64> {
    let mut k: Vec<f64> = e.row.probs().to_vec();
    k.extend_from_slice(e.col.probs());
    k
}

/// Calls `f(s, t)` for every pair of equal-size supports, `s ⊆ {0..n}`
/// and `t ⊆ {0..m}`: by size `k = 1..=min(n, m)`, then `s`, then `t`,
/// each side in lexicographic order of its bitmask. Both enumerators
/// walk pairs through this one function, so their order is identical
/// by construction. Each side's list is built once per `k`.
pub(crate) fn for_each_support_pair(n: usize, m: usize, mut f: impl FnMut(&[usize], &[usize])) {
    let (mut rows, mut cols) = (Vec::new(), Vec::new());
    for k in 1..=n.min(m) {
        subsets_of_size(n, k, &mut rows);
        subsets_of_size(m, k, &mut cols);
        for s in rows.chunks_exact(k) {
            for t in cols.chunks_exact(k) {
                f(s, t);
            }
        }
    }
}

/// Fills `out` with every `k`-element subset of `{0..n}`, flattened
/// (`k` indices per subset), in lexicographic order of their bitmasks.
fn subsets_of_size(n: usize, k: usize, out: &mut Vec<usize>) {
    out.clear();
    for mask in 0u32..(1u32 << n) {
        if mask.count_ones() as usize == k {
            out.extend((0..n).filter(|i| mask & (1 << i) != 0));
        }
    }
}

/// Reused buffers of one indifference solve: the augmented `k × (k+1)`
/// system, row-major, and its solution.
#[derive(Default)]
struct Scratch {
    system: Vec<f64>,
    solution: Vec<f64>,
}

/// Solves for the *opponent* mixture `q` (length `opp_len`, support `t`)
/// that makes the focal player indifferent across their support `s`, given
/// the focal player's payoff matrix `a` (focal actions on rows).
///
/// Conditions: `(A q)_i` equal for all `i ∈ s`, `Σ_{j∈t} q_j = 1`,
/// `q_j = 0` outside `t`, `q ≥ −tol`, and no action outside `s` strictly
/// better than the support value. Returns `None` if the indifference
/// system is singular or the solution violates a condition; only a side
/// that passes the feasibility test allocates its `q`.
fn solve_indifference(
    a: &Matrix,
    s: &[usize],
    t: &[usize],
    opp_len: usize,
    tol: f64,
    scratch: &mut Scratch,
) -> Option<Vec<f64>> {
    let k = s.len();
    debug_assert_eq!(k, t.len());

    // Unknowns: q_{t[0]}, ..., q_{t[k-1]}.
    // Equations: (A q)_{s[0]} = (A q)_{s[r]} for r = 1..k, plus Σ q = 1.
    let system = &mut scratch.system;
    system.clear();
    let first = a.row(s[0]);
    for &r in &s[1..] {
        let row = a.row(r);
        system.extend(t.iter().map(|&j| first[j] - row[j]));
        system.push(0.0);
    }
    system.extend(std::iter::repeat_n(1.0, k + 1));
    let sol = &mut scratch.solution;
    if !gaussian_solve(system, k, sol) {
        return None;
    }

    // Feasibility: probabilities in [0, 1] up to tolerance.
    if sol.iter().any(|&x| x < -tol || x > 1.0 + tol) {
        return None;
    }

    // Expand to full-length vector, clamping tiny negatives.
    let mut q = vec![0.0; opp_len];
    for (idx, &j) in t.iter().enumerate() {
        q[j] = sol[idx].max(0.0);
    }
    // Renormalise the clamped vector (clamping can perturb the sum by tol).
    let sum: f64 = q.iter().sum();
    if sum <= 0.0 {
        return None;
    }
    for x in &mut q {
        *x /= sum;
    }

    // Best-response condition: actions off the support must not beat it.
    let payoff = |i: usize| -> f64 { a.row(i).iter().zip(&q).map(|(a, b)| a * b).sum() };
    let v = payoff(s[0]);
    let slack = tol.max(1e-9);
    if (0..a.rows()).any(|i| !s.contains(&i) && payoff(i) > v + slack) {
        return None;
    }
    Some(q)
}

/// Solves the augmented `n × (n+1)` row-major system `w` in place into
/// `x`, returning `false` if it is singular. Operation for operation the
/// elimination of [`crate::linalg::solve`] (same pivot rule, singularity
/// test and back substitution), so results are bitwise equal to it.
fn gaussian_solve(w: &mut [f64], n: usize, x: &mut Vec<f64>) -> bool {
    let stride = n + 1;
    for col in 0..n {
        // Partial pivot: the row with the largest magnitude in `col`
        // (the last such row on ties, as `max_by` picks).
        let pivot_row = (col..n)
            .max_by(|&i, &j| {
                w[i * stride + col]
                    .abs()
                    .partial_cmp(&w[j * stride + col].abs())
                    .expect("pivot magnitudes are finite")
            })
            .expect("non-empty pivot range");
        let scale = w[pivot_row * stride..pivot_row * stride + n]
            .iter()
            .fold(0.0f64, |acc, &x| acc.max(x.abs()))
            .max(1.0);
        if w[pivot_row * stride + col].abs() < 1e-12 * scale {
            return false;
        }
        if pivot_row != col {
            let (head, tail) = w.split_at_mut(pivot_row * stride);
            head[col * stride..(col + 1) * stride].swap_with_slice(&mut tail[..stride]);
        }

        for row in col + 1..n {
            let factor = w[row * stride + col] / w[col * stride + col];
            if factor == 0.0 {
                continue;
            }
            let (head, tail) = w.split_at_mut(row * stride);
            let pivot = &head[col * stride + col..(col + 1) * stride];
            for (t, p) in tail[col..stride].iter_mut().zip(pivot) {
                *t -= factor * p;
            }
        }
    }

    // Back substitution.
    x.clear();
    x.resize(n, 0.0);
    for row in (0..n).rev() {
        let r = &w[row * stride..(row + 1) * stride];
        let mut acc = r[n];
        for k in row + 1..n {
            acc -= r[k] * x[k];
        }
        x[row] = acc / r[row];
    }
    true
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::equilibrium::StrategyKind;
    use crate::games;

    #[test]
    fn subsets_counted_correctly() {
        let mut out = Vec::new();
        subsets_of_size(4, 2, &mut out);
        assert_eq!(out.len() / 2, 6);
        subsets_of_size(5, 0, &mut out);
        assert_eq!(out.len(), 0);
        subsets_of_size(3, 3, &mut out);
        assert_eq!(out, vec![0, 1, 2]);
        subsets_of_size(3, 2, &mut out);
        assert_eq!(out, vec![0, 1, 0, 2, 1, 2]);
    }

    #[test]
    fn support_pair_walk_visits_every_equal_size_pair_in_order() {
        let mut pairs = Vec::new();
        for_each_support_pair(3, 2, |s, t| pairs.push((s.to_vec(), t.to_vec())));
        let v = |x: &[usize]| x.to_vec();
        let expected: Vec<(Vec<usize>, Vec<usize>)> = vec![
            (v(&[0]), v(&[0])),
            (v(&[0]), v(&[1])),
            (v(&[1]), v(&[0])),
            (v(&[1]), v(&[1])),
            (v(&[2]), v(&[0])),
            (v(&[2]), v(&[1])),
            (v(&[0, 1]), v(&[0, 1])),
            (v(&[0, 2]), v(&[0, 1])),
            (v(&[1, 2]), v(&[0, 1])),
        ];
        assert_eq!(pairs, expected);
        // Σ_k C(8,k)² = C(16,8) − 1 pairs for an 8×8 game.
        let mut count = 0;
        for_each_support_pair(8, 8, |_, _| count += 1);
        assert_eq!(count, 12_869);
    }

    #[test]
    fn kernel_matches_linalg_solve_bitwise() {
        // Ties in pivot magnitude, zero factors, swaps and rounding.
        let systems: [&[f64]; 4] = [
            &[1.0, 2.0, -1.0, 2.0, 1.0, 3.0, -2.0, 3.0, 1.0],
            &[0.0, 1.0, 1.0, 0.0],
            &[0.1, 0.7, 0.3, -0.3, 0.2, 0.9, 0.3, 0.3, -0.7],
            &[1.0, 1.0, 1.0, 1.0],
        ];
        for (idx, a) in systems.iter().enumerate() {
            let n = (a.len() as f64).sqrt() as usize;
            let b: Vec<f64> = (0..n).map(|i| 0.25 + i as f64 / 3.0).collect();
            let mut w = Vec::new();
            for i in 0..n {
                w.extend_from_slice(&a[i * n..(i + 1) * n]);
                w.push(b[i]);
            }
            let mut x = Vec::new();
            let ok = gaussian_solve(&mut w, n, &mut x);
            let reference = crate::linalg::solve(&Matrix::new(n, n, a.to_vec()).unwrap(), &b);
            match reference {
                Ok(r) => {
                    assert!(ok, "system {idx}");
                    let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
                    assert_eq!(bits(&x), bits(&r), "system {idx}");
                }
                Err(_) => assert!(!ok, "system {idx}"),
            }
        }
    }

    #[test]
    fn bos_has_three_equilibria() {
        let eqs = enumerate_equilibria(&games::battle_of_the_sexes(), 1e-9);
        assert_eq!(eqs.len(), 3);
        let (pure, mixed) = count_by_kind(&eqs, 1e-6);
        assert_eq!((pure, mixed), (2, 1));
        for e in &eqs {
            assert!(e.gap.abs() < 1e-9, "gap {} too large", e.gap);
        }
    }

    #[test]
    fn bos_mixed_equilibrium_values() {
        let eqs = enumerate_equilibria(&games::battle_of_the_sexes(), 1e-9);
        let mixed: Vec<_> = eqs
            .iter()
            .filter(|e| e.kind(1e-6) == StrategyKind::Mixed)
            .collect();
        assert_eq!(mixed.len(), 1);
        let e = mixed[0];
        assert!((e.row.prob(0) - 2.0 / 3.0).abs() < 1e-9);
        assert!((e.col.prob(0) - 1.0 / 3.0).abs() < 1e-9);
    }

    #[test]
    fn matching_pennies_unique_mixed() {
        let g = games::matching_pennies();
        let eqs = enumerate_equilibria(&g, 1e-9);
        assert_eq!(eqs.len(), 1);
        assert_eq!(eqs[0].kind(1e-6), StrategyKind::Mixed);
        assert!((eqs[0].row.prob(0) - 0.5).abs() < 1e-9);
    }

    #[test]
    fn prisoners_dilemma_unique_pure() {
        let g = games::prisoners_dilemma();
        let eqs = enumerate_equilibria(&g, 1e-9);
        assert_eq!(eqs.len(), 1);
        assert_eq!(eqs[0].kind(1e-6), StrategyKind::Pure);
        // Defect is action 1 in our convention.
        assert_eq!(eqs[0].row.pure_action(1e-6), Some(1));
        assert_eq!(eqs[0].col.pure_action(1e-6), Some(1));
    }

    #[test]
    fn coordination3_has_seven() {
        // Pure 3x3 coordination: 3 pure + 3 two-support + 1 uniform NE.
        let g = games::coordination(3).unwrap();
        let eqs = enumerate_equilibria(&g, 1e-9);
        assert_eq!(eqs.len(), 7);
        let (pure, mixed) = count_by_kind(&eqs, 1e-6);
        assert_eq!((pure, mixed), (3, 4));
    }

    #[test]
    fn all_enumerated_profiles_verify() {
        for g in [
            games::battle_of_the_sexes(),
            games::bird_game(),
            games::stag_hunt(),
            games::hawk_dove(),
        ] {
            for e in enumerate_equilibria(&g, 1e-9) {
                assert!(
                    g.is_equilibrium(&e.row, &e.col, 1e-7),
                    "{}: {e} fails verification",
                    g.name()
                );
            }
        }
    }

    #[test]
    fn results_are_sorted_and_deduplicated() {
        let eqs = enumerate_equilibria(&games::coordination(3).unwrap(), 1e-9);
        for w in eqs.windows(2) {
            assert!(
                !w[0].same_profile(&w[1], 1e-6),
                "duplicate equilibria in output"
            );
        }
    }
}
