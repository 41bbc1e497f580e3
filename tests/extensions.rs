//! Integration tests of the extension modules working together.

use cnash_core::certificate::Certificate;
use cnash_core::reduced::ReducedCNashSolver;
use cnash_core::{CNashConfig, CNashSolver, NashSolver};
use cnash_game::library;
use cnash_game::reduction::eliminate_dominated;

/// Reduced and direct solvers agree on the equilibrium set they find.
#[test]
fn reduced_and_direct_solvers_agree() {
    let g = cnash_game::games::modified_prisoners_dilemma();
    let direct =
        CNashSolver::new(&g, CNashConfig::paper(12).with_iterations(5000), 0).expect("maps");
    let reduced =
        ReducedCNashSolver::new(&g, CNashConfig::paper(12).with_iterations(5000), 0).expect("maps");
    for seed in 0..5 {
        let d = direct.run(seed);
        let r = reduced.run(seed);
        // Both succeed and return verifiable equilibria (not necessarily
        // the same one — different grids walk differently).
        if let (Some((dp, dq)), Some((rp, rq))) = (d.pair(), r.pair()) {
            if d.is_equilibrium {
                assert!(g.is_equilibrium(dp, dq, 1e-6));
            }
            if r.is_equilibrium {
                assert!(g.is_equilibrium(rp, rq, 1e-6));
                assert_eq!(rp.len(), 8);
            }
        }
    }
}

/// Every solver answer can be certified, and the certificate agrees with
/// the run's own verdict.
#[test]
fn certificates_match_solver_verdicts() {
    let g = cnash_game::games::bird_game();
    let solver =
        CNashSolver::new(&g, CNashConfig::paper(12).with_iterations(4000), 1).expect("maps");
    for seed in 0..10 {
        let out = solver.run(seed);
        let claimed = out.is_equilibrium;
        let (p, q) = out.into_pair().expect("profile");
        let cert = Certificate::build(&g, p, q, 1e-6).expect("builds");
        assert_eq!(cert.is_valid(), claimed, "seed {seed}");
        if cert.is_valid() {
            assert!(cert.support_condition_holds());
        }
    }
}

/// Dominance reduction composes with the extended library.
#[test]
fn reduction_on_library_games() {
    let g = library::public_goods_binary();
    let r = eliminate_dominated(&g).expect("reduces");
    assert_eq!(r.game.row_actions(), 1);
    let g = library::chicken();
    let r = eliminate_dominated(&g).expect("reduces");
    assert_eq!(r.rounds, 0, "chicken has no dominated actions");
}
