//! Solution-store maintenance CLI.
//!
//! `cargo run --release -p cnash-bench --bin store -- \
//!      fsck --store PATH`
//!
//! Subcommands:
//!
//! * `fsck` — read-only integrity scan of a store log: walks every
//!   record frame, re-verifies checksums, and prints the
//!   `cnash_service::FsckReport` as JSON (record/duplicate/corruption
//!   counters, truncated-tail bytes, log size). Unlike opening the
//!   store, `fsck` never rewrites the log — it is safe to run against
//!   a store a live daemon is appending to (the scan sees a prefix).
//!
//! Exit status: 0 — log clean; 1 — corruption found (corrupt records
//! or a truncated tail); 2 — usage error, I/O error, or a foreign file
//! (missing store magic).

use cnash_bench::{usage_lines, Cli};
use cnash_service::SolutionStore;

const SUPPORTED: &[&str] = &["--store", "--help"];

fn usage(msg: &str) -> ! {
    eprintln!("error: {msg}");
    eprintln!("usage: store fsck --store PATH");
    eprint!("{}", usage_lines(SUPPORTED));
    eprintln!("exit codes: 0 log clean, 1 corruption found, 2 usage/IO error");
    std::process::exit(2);
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    // Subcommand first, then the shared flag table for the rest.
    let (subcommand, rest) = match args.split_first() {
        Some((sub, rest)) if !sub.starts_with("--") => (sub.as_str(), rest),
        _ => {
            if args.iter().any(|a| a == "--help") {
                println!("usage: store fsck --store PATH");
                print!("{}", usage_lines(SUPPORTED));
                println!("exit codes: 0 log clean, 1 corruption found, 2 usage/IO error");
                return;
            }
            usage("store needs a subcommand (fsck)")
        }
    };
    if subcommand != "fsck" {
        usage(&format!("unknown subcommand `{subcommand}` (try fsck)"));
    }
    let cli = match Cli::parse_from_supporting(rest, SUPPORTED) {
        Ok(cli) => cli,
        Err(msg) => usage(&msg),
    };
    if cli.help {
        println!("usage: store fsck --store PATH");
        print!("{}", usage_lines(SUPPORTED));
        println!("exit codes: 0 log clean, 1 corruption found, 2 usage/IO error");
        return;
    }
    let Some(path) = cli.store.as_deref() else {
        usage("fsck needs --store PATH");
    };
    let report = SolutionStore::fsck(path).unwrap_or_else(|e| {
        eprintln!("error: cannot fsck {path}: {e}");
        std::process::exit(2);
    });
    println!("{}", report.to_json().pretty());
    if !report.ok() {
        eprintln!(
            "FAIL: {path}: {} corrupt record(s), {} truncated tail byte(s)",
            report.corrupt_records, report.truncated_tail_bytes
        );
        std::process::exit(1);
    }
}
