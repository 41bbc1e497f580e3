//! Offline pre-solve sweeper: fills a persistent solution store so a
//! later `serviced --store` daemon warm-boots with every swept job
//! answerable from disk.
//!
//! `cargo run --release -p cnash-bench --bin presolve -- \
//!      --store PATH [--quick] [--seed S] [--threads T] \
//!      [--emit-requests PATH]`
//!
//! Sweeps the `diffcheck` family × size × seed grid (`--quick` for the
//! reduced CI grid) through `cnash_service::execute_solve` — the exact
//! function the live daemon runs — with the store attached, so every
//! record is byte-identical to what a daemon would have produced and
//! appended itself. Sweeping both C-Nash presets (paper and ideal
//! hardware) covers the solver grid a service client is most likely to
//! repeat.
//!
//! The sweep is **resumable**: a grid point already in the store comes
//! back as a disk hit (`"cache":"disk"`) in O(lookup) and is counted
//! `skipped`, so re-running after an interruption only solves the
//! remainder. Work is fanned across the `cnash-runtime` worker pool
//! (`--threads`, `0` = all cores); since each job's payload is
//! deterministic, the store's contents are identical at any thread
//! count.
//!
//! With `--emit-requests PATH` the sweeper also writes the swept jobs
//! as service request lines (`{"op":"solve","id":…,"job":…}` JSON
//! lines), ready to replay against a daemon with `service_client
//! --requests` — the store-smoke CI job replays them to prove every
//! presolved job is served from disk.
//!
//! Exit status: 0 — sweep complete; 1 — one or more jobs failed
//! (`ok:false` response); 2 — usage or I/O error.

use cnash_bench::diffcheck::{family_grid, DiffOptions};
use cnash_bench::{usage_lines, Cli};
use cnash_runtime::pool::fan_out_ordered;
use cnash_runtime::spec::{ConfigSpec, JobSpec, SolverSpec};
use cnash_runtime::{CancelToken, Json};
use cnash_service::{execute_solve, InstanceCache, SolutionStore, TruthPolicy};
use std::io::Write;
use std::ops::ControlFlow;

const SUPPORTED: &[&str] = &[
    "--store",
    "--quick",
    "--seed",
    "--threads",
    "--emit-requests",
    "--help",
];

fn fail(msg: &str) -> ! {
    eprintln!("error: {msg}");
    std::process::exit(2);
}

/// The swept jobs: the diffcheck game grid × both C-Nash presets, with
/// the diffcheck iteration budgets. Ground truth is always skipped —
/// presolving is about solver payloads, not oracle coverage.
fn sweep_jobs(quick: bool, base_seed: u64) -> Vec<JobSpec> {
    let opts = DiffOptions::new(quick, base_seed, false);
    let iterations = if quick { 800 } else { 3000 };
    let runs = if quick { 2 } else { 4 };
    let solvers = [
        SolverSpec::CNash {
            config: ConfigSpec::paper(12).with_iterations(iterations),
            hardware_seed: 1,
        },
        SolverSpec::CNash {
            config: ConfigSpec::ideal(12).with_iterations(iterations),
            hardware_seed: 1,
        },
    ];
    let mut jobs = Vec::new();
    for game in family_grid(&opts) {
        for solver in &solvers {
            jobs.push(JobSpec {
                game: game.clone(),
                solver: solver.clone(),
                runs,
                base_seed,
                early_stop: None,
                label: None,
            });
        }
    }
    jobs
}

/// The request line a service client would send for `job` — replaying
/// these against a `--store` daemon must produce all disk hits.
fn request_line(id: usize, job: &JobSpec) -> String {
    Json::obj([
        ("op", Json::str("solve")),
        ("id", Json::num(id as f64)),
        ("job", job.to_json()),
        ("ground_truth", Json::str("skip")),
    ])
    .compact()
}

fn main() {
    let cli = Cli::parse_for(SUPPORTED);
    if cli.help {
        println!("usage: presolve --store PATH [flags]");
        print!("{}", usage_lines(SUPPORTED));
        println!("exit codes: 0 sweep complete, 1 job(s) failed, 2 usage/IO error");
        return;
    }
    let Some(store_path) = cli.store.as_deref() else {
        fail("presolve needs --store PATH");
    };
    let store = SolutionStore::open(store_path)
        .unwrap_or_else(|e| fail(&format!("cannot open store {store_path}: {e}")));
    let report = store.open_report();
    eprintln!(
        "store {store_path}: {} records resident{}",
        report.records,
        if report.compacted {
            format!(
                " (recovered: {} corrupt skipped, {} tail bytes dropped)",
                report.corrupt_skipped, report.truncated_tail_bytes
            )
        } else {
            String::new()
        }
    );

    let jobs = sweep_jobs(cli.quick, cli.seed);
    if let Some(path) = cli.emit_requests.as_deref() {
        let mut out = std::fs::File::create(path)
            .unwrap_or_else(|e| fail(&format!("cannot create {path}: {e}")));
        for (i, job) in jobs.iter().enumerate() {
            writeln!(out, "{}", request_line(i + 1, job))
                .unwrap_or_else(|e| fail(&format!("cannot write {path}: {e}")));
        }
        eprintln!("wrote {} request lines to {path}", jobs.len());
    }

    let cache = InstanceCache::new();
    let cancel = CancelToken::new();
    let (mut solved, mut skipped, mut failed) = (0usize, 0usize, 0usize);
    fan_out_ordered(
        jobs.len(),
        cli.threads,
        &cancel,
        |i| {
            execute_solve(
                &cache,
                Some(&store),
                &jobs[i],
                TruthPolicy::Skip,
                1,
                &cancel,
                &Json::Null,
            )
        },
        |i, response| {
            if !response.get("ok").and_then(Json::as_bool).unwrap_or(false) {
                eprintln!("FAIL: job {i} rejected: {}", response.compact());
                failed += 1;
            } else if response
                .get("cache")
                .and_then(Json::as_str)
                .map(|c| c == "disk")
                .unwrap_or(false)
            {
                skipped += 1;
            } else {
                solved += 1;
            }
            ControlFlow::Continue(())
        },
    );

    let summary = Json::obj([
        (
            "presolve",
            Json::str(if cli.quick { "quick" } else { "full" }),
        ),
        ("jobs", Json::uint(jobs.len() as u64)),
        ("solved", Json::uint(solved as u64)),
        ("skipped", Json::uint(skipped as u64)),
        ("failed", Json::uint(failed as u64)),
        ("records", Json::uint(store.len())),
        ("store", Json::str(store_path)),
    ]);
    println!("{}", summary.compact());
    if failed > 0 {
        std::process::exit(1);
    }
}
