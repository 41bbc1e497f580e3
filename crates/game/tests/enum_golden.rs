//! Bitwise golden for the float support enumerator.
//!
//! `enumerate_equilibria` is the ground truth every coverage figure is
//! measured against, so its output is pinned to the bit: each grid
//! below hashes the equilibrium count and every probability and Nash
//! gap (`f64::to_bits`, no rounding; see [`bits`] for signed zeros) of
//! every game it enumerates. A change to the enumerator that moves any
//! output bit — a reordered sum, a different pivot choice, a skipped
//! clamp — changes a digest.
//!
//! The digests were recorded from the straightforward elimination of
//! `linalg::solve`; the enumerator's in-place kernel must reproduce
//! them unchanged.

use cnash_game::canonical::Hasher64;
use cnash_game::families::Family;
use cnash_game::support_enum::enumerate_equilibria;
use cnash_game::{games, generators, library, BimatrixGame, Matrix};

/// The tolerance the serving path enumerates with.
const TOL: f64 = 1e-9;

/// The bit pattern of `x`, with `-0.0` read as `+0.0`: `f64::max` leaves
/// the sign of a zero result unspecified, and debug and release builds
/// do resolve `0.0f64.max(-0.0)` differently, so only the sign of a
/// zero is exempt from the bitwise comparison.
fn bits(x: f64) -> u64 {
    if x == 0.0 {
        0
    } else {
        x.to_bits()
    }
}

/// Hashes the enumerator's output bits for every game of `grid`,
/// returning `(games, equilibria, digest)`.
fn digest(grid: &[BimatrixGame]) -> (usize, usize, u64) {
    let mut h = Hasher64::new();
    let mut total = 0;
    for game in grid {
        let eqs = enumerate_equilibria(game, TOL);
        total += eqs.len();
        h.write_u64(eqs.len() as u64);
        for e in &eqs {
            for &x in e.row.probs().iter().chain(e.col.probs()) {
                h.write_u64(bits(x));
            }
            h.write_u64(bits(e.gap));
        }
    }
    (grid.len(), total, h.finish())
}

/// All six families, square sizes 2–8, three seeds, default knobs.
fn family_square_grid() -> Vec<BimatrixGame> {
    let mut grid = Vec::new();
    for family in Family::ALL {
        for size in 2..=8 {
            for seed in 0..3 {
                grid.push(
                    family
                        .build(size, family.default_scale(), family.default_knob(), seed)
                        .unwrap(),
                );
            }
        }
    }
    grid
}

/// Rectangular family instances (both orientations) and non-default
/// knobs, so unequal support-list lengths and tied payoffs are covered.
fn family_rect_grid() -> Vec<BimatrixGame> {
    let mut grid = Vec::new();
    for family in Family::ALL {
        for (rows, cols) in [(2, 5), (5, 2), (3, 6), (6, 3), (4, 7), (7, 4)] {
            for seed in 0..2 {
                grid.push(
                    family
                        .build_rect(
                            rows,
                            cols,
                            family.default_scale(),
                            family.default_knob(),
                            seed,
                        )
                        .unwrap(),
                );
            }
        }
    }
    for seed in 0..3 {
        grid.push(Family::Covariant.build(6, 6, -80, seed).unwrap());
        grid.push(Family::Sparse.build(6, 6, 90, seed).unwrap());
        grid.push(Family::Degenerate.build(6, 4, 1, seed).unwrap());
    }
    grid
}

/// Random integer, zero-sum and coordination games, plus games with
/// non-integer payoffs whose elimination rounds at every step.
fn random_grid() -> Vec<BimatrixGame> {
    let mut grid = Vec::new();
    for size in 2..=7 {
        for seed in 0..3 {
            grid.push(generators::random_integer_game(size, size, 9, seed).unwrap());
            grid.push(generators::random_zero_sum_game(size, size, 9, seed).unwrap());
            grid.push(generators::random_coordination_game(size, 6, 2, seed).unwrap());
        }
    }
    let mut state = 0x2545_f491_4f6c_dd1du64;
    let mut next = || {
        state = state
            .wrapping_mul(6_364_136_223_846_793_005)
            .wrapping_add(1_442_695_040_888_963_407);
        ((state >> 11) as f64 / (1u64 << 53) as f64) * 10.0 - 5.0
    };
    for size in 2..=6 {
        for _ in 0..3 {
            let m = Matrix::new(size, size, (0..size * size).map(|_| next()).collect()).unwrap();
            let n = Matrix::new(size, size, (0..size * size).map(|_| next()).collect()).unwrap();
            grid.push(BimatrixGame::new("float", m, n).unwrap());
        }
    }
    grid
}

/// Every named builtin game.
fn builtin_grid() -> Vec<BimatrixGame> {
    let mut grid = vec![
        games::battle_of_the_sexes(),
        games::bird_game(),
        games::modified_prisoners_dilemma(),
        games::prisoners_dilemma(),
        games::matching_pennies(),
        games::rock_paper_scissors(),
        games::stag_hunt(),
        games::hawk_dove(),
        library::chicken(),
        library::inspection_game(),
        library::travelers_dilemma_mini(),
        library::public_goods_binary(),
        library::asymmetric_matching_pennies(),
        library::deadlock(),
    ];
    for n in 2..=5 {
        grid.push(games::coordination(n).unwrap());
    }
    grid
}

#[test]
fn family_square_games_are_bit_stable() {
    assert_eq!(
        digest(&family_square_grid()),
        (126, 1045, 0x0def1a84daaccbb4)
    );
}

#[test]
fn family_rectangular_games_are_bit_stable() {
    assert_eq!(digest(&family_rect_grid()), (81, 460, 0xa1e3f731d6761baf));
}

#[test]
fn random_games_are_bit_stable() {
    assert_eq!(digest(&random_grid()), (69, 887, 0x8900ba1abc977794));
}

#[test]
fn builtin_games_are_bit_stable() {
    assert_eq!(digest(&builtin_grid()), (18, 94, 0x562aa41a4961c32a));
}
