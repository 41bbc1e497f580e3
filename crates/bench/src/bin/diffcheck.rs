//! Differential oracle fuzzing over the structured game families.
//!
//! `cargo run --release -p cnash-bench --bin diffcheck -- \
//!      [--quick] [--seed S] [--threads T] [--corrupt] [--out PATH] \
//!      [--jobs-file PATH] [--help]`
//!
//! Grid mode (default) sweeps the family × size × seed grid
//! (`cnash_bench::diffcheck`) on the `cnash-runtime` worker pool
//! (`--threads`, 0 = all cores; results are folded in grid order, so
//! the summary and any counterexample are bit-identical at any thread
//! count): per point it cross-checks the two float oracles against
//! each other **and against the exact-rational trust anchor**
//! (`cnash_game::exact_enum` over `cnash-exact` big-int fractions),
//! then runs every solver in the suite and certificate-verifies each
//! claimed equilibrium, matching continuum (unlisted-valid) hits
//! structurally by support-pair class — including the exact oracle's
//! simplex vertex representatives of exactly-singular support pairs,
//! which drive the summary's `unclassified` count to zero.
//! `--quick` is the PR-time grid; the nightly CI job runs the full
//! grid with a date-derived `--seed`.
//!
//! On a mismatch the offending game is minimized (action deletion,
//! payoff-scale halving, cell zeroing) and written to `--out` (default
//! `DIFFCHECK_counterexample.json`) as a single-run jobs file with
//! explicit payoffs. `--jobs-file PATH` replays such a file,
//! re-verifying every claim — how a nightly counterexample artifact is
//! reproduced locally.
//!
//! `--corrupt` wraps every solver in a deliberate liar (claimed hits
//! swapped for worst responses): the run must fail with a minimized
//! counterexample, proving the failure path end to end. A counterexample
//! produced under `--corrupt` replays with `--corrupt`.
//!
//! Exit codes (also printed by `--help`): `0` — every claim verified
//! (in replay mode this means the counterexample **no longer
//! reproduces**); `1` — differential failure (counterexample written
//! in grid mode, reproduced in replay mode); `2` — usage or
//! configuration errors; `3` — the `--jobs-file` could not be read or
//! parsed (distinct from `0` so triage scripts can tell "fixed" from
//! "wrong file"). The machine-readable sweep summary goes to stdout.

use cnash_bench::diffcheck::{
    family_grid, replay, run_grid, solver_suite, summary_json, DiffOptions,
};
use cnash_bench::{usage_lines, Cli};
use cnash_runtime::BatchSpec;

const SUPPORTED: &[&str] = &[
    "--quick",
    "--seed",
    "--threads",
    "--corrupt",
    "--out",
    "--jobs-file",
    "--help",
];

fn print_help() {
    println!("usage: diffcheck [flags]");
    println!();
    println!("Differential oracle fuzzing over the family x size x seed grid.");
    println!();
    print!("{}", usage_lines(SUPPORTED));
    println!();
    println!("mismatch classes (failure_class in the summary):");
    println!("  false_equilibrium          a solver claimed a hit the certificate");
    println!("                             rejects [witness: float]");
    println!("  oracle_disagreement        the float oracles disagree (Lemke-Howson");
    println!("                             vs support enumeration) [witness: float]");
    println!("  exact_oracle_disagreement  the exact-rational trust anchor refuted a");
    println!("                             float-oracle result; the detail records");
    println!("                             the witnessing oracle ([witness: float] =");
    println!("                             a float equilibrium whose exact regret");
    println!("                             exceeds the claiming tolerance,");
    println!("                             [witness: exact] = an exactly-certified");
    println!("                             equilibrium failing float verification)");
    println!();
    println!("minimized counterexamples carry the witness marker in their job label,");
    println!("so a replayed artifact states which oracle observed the failure.");
    println!();
    println!("exit codes:");
    println!("  0  every claim verified (replay mode: the counterexample no");
    println!("     longer reproduces)");
    println!("  1  differential failure found (grid mode: minimized");
    println!("     counterexample written to --out; replay mode: reproduced)");
    println!("  2  usage or configuration errors (bad flags, invalid specs)");
    println!("  3  --jobs-file could not be read or parsed (I/O failure,");
    println!("     malformed JSON) — distinct from 0 so scripts can tell");
    println!("     \"fixed\" from \"wrong file\"");
}

fn main() {
    let cli = Cli::parse_for(SUPPORTED);
    if cli.help {
        print_help();
        return;
    }

    let (outcome, grid_mode) = if let Some(path) = &cli.jobs_file {
        let text = match std::fs::read_to_string(path) {
            Ok(text) => text,
            Err(e) => {
                eprintln!("error: cannot read {path}: {e}");
                std::process::exit(3);
            }
        };
        let spec = match BatchSpec::from_json(&text) {
            Ok(spec) => spec,
            Err(e) => {
                eprintln!("error: {path}: {e}");
                std::process::exit(3);
            }
        };
        (replay(&spec, cli.corrupt), false)
    } else {
        let opts = DiffOptions::new(cli.quick, cli.seed, cli.corrupt).with_threads(cli.threads);
        let points = family_grid(&opts);
        let solvers = solver_suite(&opts);
        eprintln!(
            "diffcheck: {} grid points x {} solvers x {} runs, {} threads{}{}",
            points.len(),
            solvers.len(),
            opts.runs,
            if opts.threads == 0 {
                "all".to_string()
            } else {
                opts.threads.to_string()
            },
            if opts.quick { " (--quick)" } else { "" },
            if opts.corrupt {
                " [CORRUPT test hook active]"
            } else {
                ""
            }
        );
        (run_grid(&points, &solvers, &opts), true)
    };

    let outcome = match outcome {
        Ok(outcome) => outcome,
        Err(e) => {
            eprintln!("error: {e}");
            std::process::exit(2);
        }
    };

    println!("{}", summary_json(&outcome).pretty());
    let Some(failure) = &outcome.failure else {
        return;
    };

    eprintln!("error: {}: {}", failure.class.name(), failure.detail);
    if grid_mode {
        let path = cli
            .out
            .as_deref()
            .unwrap_or("DIFFCHECK_counterexample.json");
        if let Err(e) = std::fs::write(path, failure.counterexample.to_json().pretty()) {
            eprintln!("error: cannot write counterexample to {path}: {e}");
            std::process::exit(2);
        }
        eprintln!("counterexample written to {path}");
        eprintln!(
            "replay with: cargo run --release -p cnash-bench --bin diffcheck -- --jobs-file {path}{}",
            if cli.corrupt { " --corrupt" } else { "" }
        );
    }
    std::process::exit(1);
}
