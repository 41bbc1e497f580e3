//! The four seeded workloads: request lines generated from a seed.
//!
//! Every workload but `store_replay` runs the paper preset (`intervals`
//! 12, `hardware_seed` 0); `store_replay` replays the presolve sweeper's
//! own jobs. The game instances are fixed; the workload seed picks the
//! request order and, except in `store_replay`, every request's run
//! seed. So runs at different seeds solve the same games in the same mix, and
//! their spread is run-to-run noise plus SA sampling, not a different
//! traffic shape (the size of a family instance's payoffs sets its
//! crossbar size, hence its cost).

use cnash_bench::diffcheck::{family_grid, DiffOptions};
use cnash_game::support_enum::MAX_ENUM_ACTIONS;
use cnash_runtime::spec::{builtin_games, ConfigSpec, GameSpec, JobSpec, SolverSpec};
use cnash_runtime::Json;
use cnash_service::TruthPolicy;
use std::collections::HashSet;

/// Every workload the command accepts. `BENCHMARK.json` gates two of
/// them, `anneal_paper` and `cold_mixed` (see README.md).
pub const NAMES: [&str; 4] = ["warm_tiny", "anneal_paper", "cold_mixed", "store_replay"];

/// Family wire names, in registry order.
const FAMILIES: [&str; 6] = [
    "congestion",
    "dominance_solvable",
    "covariant",
    "sparse",
    "degenerate",
    "anti_coordination",
];

/// Largest size `dominance_solvable` is drawn at: its payoff range grows
/// with the chain length, so a 32×32 instance takes seconds and hundreds
/// of MiB to program, which would swamp every other request.
const DOMINANCE_MAX_SIZE: usize = 8;

/// Sizes `cold_mixed` draws. How many requests each size gets is set
/// by [`cold_mix`].
const COLD_SIZES: [usize; 7] = [4, 6, 8, 12, 16, 24, 32];
/// Seeds of presolve's full grid (of its ten) that `store_replay`
/// replays: enough requests for five distinct rounds, few enough to
/// presolve in about two seconds.
const REPLAY_GRID_SEEDS: u64 = 2;
/// Distinct `cold_mixed` rounds generated: the run stops early if it
/// uses them all, rather than repeat an instance.
const COLD_ROUNDS: usize = 60;

/// How the daemon's solution store is set up.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StoreMode {
    /// No store: the daemon is fully in-memory.
    None,
    /// A fresh, empty store, so every solve appends.
    Fresh,
    /// The setup lines are presolved into a fresh store, then the
    /// daemon restarts warm-booted from it.
    Presolved,
}

/// One generated solve request.
#[derive(Debug, Clone)]
pub struct Req {
    /// The wire line, without its newline.
    pub line: String,
    /// The request without its `id`: equal keys must get equal answers.
    pub key: String,
    /// The job, for rebuilding the game client-side.
    pub job: JobSpec,
    /// Ground-truth policy sent.
    pub truth: TruthPolicy,
}

/// A workload: setup lines, timed rounds and how to run them.
#[derive(Debug)]
pub struct Workload {
    /// Workload name.
    pub name: &'static str,
    /// Lines sent before the clock starts (cache warm-up, prefill or
    /// presolve).
    pub setup: Vec<Req>,
    /// Timed rounds. Each round is a fixed number of requests, so the
    /// tail percentile is fixed per workload.
    pub rounds: Vec<Vec<Req>>,
    /// Whether rounds repeat once all have run (`false`: every request
    /// must be unseen, so the run stops instead).
    pub cycle: bool,
    /// Store set-up.
    pub store: StoreMode,
    /// Requests each connection keeps in flight. Light requests are
    /// pipelined four deep so the shards stay busy between thread
    /// wake-ups; heavy ones go one at a time per connection.
    pub depth: usize,
    /// Requests of the first round that the traced run replays
    /// in-process.
    pub replay_len: usize,
    /// Rounds that feed the deterministic paper metrics; the timed phase
    /// runs at least this many whatever `--seconds` says.
    pub tally_rounds: usize,
}

impl Workload {
    /// Round `r` of the timed phase, `None` once the rounds are used up.
    pub fn round(&self, r: usize) -> Option<&[Req]> {
        if self.cycle {
            Some(&self.rounds[r % self.rounds.len()])
        } else {
            self.rounds.get(r).map(Vec::as_slice)
        }
    }

    /// Requests per round.
    pub fn round_len(&self) -> usize {
        self.rounds[0].len()
    }

    /// FNV-1a digest of every line the workload can send, setup first.
    /// Equal digests on two commits mean both runs used the same inputs.
    pub fn digest(&self) -> (u64, usize) {
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        let mut lines = 0;
        for req in self.setup.iter().chain(self.rounds.iter().flatten()) {
            for &b in req.line.as_bytes().iter().chain(b"\n") {
                h ^= u64::from(b);
                h = h.wrapping_mul(0x0100_0000_01b3);
            }
            lines += 1;
        }
        (h, lines)
    }
}

/// SplitMix64: a small seeded generator whose stream is part of the
/// benchmark's input contract (it must not change with a dependency).
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Self {
        Self(seed ^ 0x5EED_BE4C_4A11_0000)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n`.
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    /// The fixed stream game instances are drawn from.
    pub fn instances() -> Self {
        Self(0x1A57_A9CE_0000_0001)
    }

    /// A seed small enough to travel as an exact JSON number.
    fn seed(&mut self) -> u64 {
        self.next_u64() >> 12
    }

    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            items.swap(i, self.below(i + 1));
        }
    }
}

fn family(name: &str, size: usize, seed: u64) -> GameSpec {
    GameSpec::Family {
        family: name.to_string(),
        size,
        rows: None,
        cols: None,
        scale: None,
        knob: None,
        seed,
    }
}

fn job(game: GameSpec, iterations: usize, runs: usize, base_seed: u64) -> JobSpec {
    JobSpec {
        game,
        solver: SolverSpec::CNash {
            config: ConfigSpec::paper(12).with_iterations(iterations),
            hardware_seed: 0,
        },
        runs,
        base_seed,
        early_stop: None,
        label: None,
    }
}

/// Enumerate ground truth on games small enough for it, skip above.
fn truth_for(size: usize, enumerate_max: usize) -> TruthPolicy {
    if size <= enumerate_max.min(MAX_ENUM_ACTIONS) {
        TruthPolicy::Enumerate
    } else {
        TruthPolicy::Skip
    }
}

fn req(id: usize, job: JobSpec, truth: TruthPolicy) -> Req {
    let truth_str = match truth {
        TruthPolicy::Enumerate => "enumerate",
        TruthPolicy::Skip => "skip",
    };
    let body = |id: Json| {
        Json::obj([
            ("op", Json::str("solve")),
            ("id", id),
            ("job", job.to_json()),
            ("ground_truth", Json::str(truth_str)),
        ])
        .compact()
    };
    Req {
        line: body(Json::num(id as f64)),
        key: body(Json::Null),
        job,
        truth,
    }
}

/// `len` indices into `0..n` as whole shuffled passes, so every index
/// appears equally often (±1).
fn passes(rng: &mut Rng, n: usize, len: usize) -> Vec<usize> {
    let mut out = Vec::with_capacity(len);
    while out.len() < len {
        let mut pass: Vec<usize> = (0..n).collect();
        rng.shuffle(&mut pass);
        let take = (len - out.len()).min(n);
        out.extend_from_slice(&pass[..take]);
    }
    out
}

/// Splits a request list into numbered rounds of `n`.
fn rounds_of(jobs: Vec<(JobSpec, TruthPolicy)>, n: usize) -> Vec<Vec<Req>> {
    jobs.chunks(n).map(|c| numbered(c.to_vec())).collect()
}

/// Numbers the requests of a list by position.
fn numbered(jobs: Vec<(JobSpec, TruthPolicy)>) -> Vec<Req> {
    jobs.into_iter()
        .enumerate()
        .map(|(id, (job, truth))| req(id, job, truth))
        .collect()
}

/// Draws family instances with the given size mix, cycling through the
/// families so each gets its share, every `(family, size, seed)` unseen
/// so far in `seen`.
fn family_mix(
    rng: &mut Rng,
    mix: &[(usize, usize)],
    seen: &mut HashSet<(usize, usize, u64)>,
) -> Vec<GameSpec> {
    let mut out = Vec::new();
    let mut fam = rng.below(FAMILIES.len());
    for &(size, count) in mix {
        for _ in 0..count {
            fam = (fam + 1) % FAMILIES.len();
            let size = if FAMILIES[fam] == "dominance_solvable" {
                size.min(DOMINANCE_MAX_SIZE)
            } else {
                size
            };
            let seed = loop {
                let s = rng.seed();
                if seen.insert((fam, size, s)) {
                    break s;
                }
            };
            out.push(family(FAMILIES[fam], size, seed));
        }
    }
    out
}

/// The `cold_mixed` size mix for `n` requests: counts proportional to
/// 1/size², rounded by largest remainder. Every size bucket then holds
/// about the same number of payoff cells, and crossbar programming —
/// the workload's main cost — grows with the cell count, so no single
/// size dominates the round. README.md records the measured shares.
fn cold_mix(n: usize) -> Vec<(usize, usize)> {
    let weight = |s: usize| 1.0 / (s * s) as f64;
    let total: f64 = COLD_SIZES.iter().map(|&s| weight(s)).sum();
    let exact: Vec<f64> = COLD_SIZES
        .iter()
        .map(|&s| n as f64 * weight(s) / total)
        .collect();
    let mut counts: Vec<usize> = exact.iter().map(|x| x.floor() as usize).collect();
    let mut by_remainder: Vec<usize> = (0..exact.len()).collect();
    by_remainder.sort_by(|&a, &b| exact[b].fract().total_cmp(&exact[a].fract()));
    let short = n - counts.iter().sum::<usize>();
    for &k in &by_remainder[..short] {
        counts[k] += 1;
    }
    COLD_SIZES.into_iter().zip(counts).collect()
}

fn size_of(game: &GameSpec) -> usize {
    match game {
        GameSpec::Family { size, .. } => *size,
        _ => unreachable!("mixes hold family instances only"),
    }
}

/// `warm_tiny`: about 32 warmed small games, 1 run × 150 iterations,
/// enumerated ground truth (cached after warm-up).
fn warm_tiny(inst: &mut Rng, rng: &mut Rng) -> Workload {
    let mut games: Vec<GameSpec> = builtin_games()
        .into_iter()
        .map(|(name, _)| GameSpec::Builtin(name.to_string()))
        .collect();
    for fam in FAMILIES {
        for size in [2, 4, 6] {
            games.push(family(fam, size, inst.seed()));
        }
    }
    let setup = numbered(
        games
            .iter()
            .map(|g| (job(g.clone(), 1, 1, 0), TruthPolicy::Enumerate))
            .collect(),
    );
    // 1000 requests in five rounds: whole shuffled passes over the games,
    // so each appears 31 or 32 times, each request with its own run seed.
    // Repeats come from the next cycle through the rounds.
    let round: Vec<_> = passes(rng, games.len(), 1000)
        .into_iter()
        .map(|g| {
            (
                job(games[g].clone(), 150, 1, rng.seed()),
                TruthPolicy::Enumerate,
            )
        })
        .collect();
    Workload {
        name: "warm_tiny",
        setup,
        rounds: rounds_of(round, 200),
        cycle: true,
        store: StoreMode::None,
        depth: 4,
        replay_len: 200,
        tally_rounds: 5,
    }
}

/// `anneal_paper`: the three Table-1 games at their paper budgets plus
/// 12×12 and 16×16 family instances, 4 runs each, cache warmed.
fn anneal_paper(rng: &mut Rng) -> Workload {
    let mut games: Vec<(GameSpec, usize, usize)> = cnash_game::games::paper_benchmarks()
        .iter()
        .zip([
            "battle_of_the_sexes",
            "bird_game",
            "modified_prisoners_dilemma",
        ])
        .map(|(b, name)| {
            let size = b.game.row_actions().max(b.game.col_actions());
            (
                GameSpec::Builtin(name.to_string()),
                b.paper_iterations,
                size,
            )
        })
        .collect();
    for (k, (fam, size)) in [
        ("covariant", 12),
        ("congestion", 12),
        ("sparse", 16),
        ("anti_coordination", 16),
    ]
    .into_iter()
    .enumerate()
    {
        games.push((family(fam, size, k as u64 + 1), 10_000, size));
    }
    let setup = numbered(
        games
            .iter()
            .map(|(g, _, size)| (job(g.clone(), 1, 1, 0), truth_for(*size, 8)))
            .collect(),
    );
    // 100 requests, each with its own run seeds: 20 per paper game, 10
    // per family instance.
    let mut round = Vec::new();
    for (k, (g, iterations, size)) in games.iter().enumerate() {
        for _ in 0..if k < 3 { 20 } else { 10 } {
            round.push((
                job(g.clone(), *iterations, 4, rng.seed()),
                truth_for(*size, 8),
            ));
        }
    }
    rng.shuffle(&mut round);
    Workload {
        name: "anneal_paper",
        setup,
        rounds: vec![numbered(round)],
        cycle: true,
        store: StoreMode::None,
        depth: 1,
        replay_len: 20,
        tally_rounds: 1,
    }
}

/// `cold_mixed`: never-seen family instances of sizes 4–32, 1 run × 500
/// iterations, with a fresh store; the cache is prefilled to its cap.
fn cold_mixed(inst: &mut Rng, rng: &mut Rng) -> Workload {
    let mut seen = HashSet::new();
    // 256 entries, the cache's default capacity, so every timed miss
    // evicts.
    let prefill = family_mix(inst, &cold_mix(256), &mut seen);
    let setup = numbered(
        prefill
            .into_iter()
            .map(|g| (job(g, 1, 1, 0), TruthPolicy::Skip))
            .collect(),
    );
    let mix = cold_mix(200);
    let rounds = (0..COLD_ROUNDS)
        .map(|_| {
            let mut round: Vec<_> = family_mix(inst, &mix, &mut seen)
                .into_iter()
                .map(|g| {
                    let truth = truth_for(size_of(&g), 8);
                    (job(g, 500, 1, rng.seed()), truth)
                })
                .collect();
            rng.shuffle(&mut round);
            numbered(round)
        })
        .collect();
    Workload {
        name: "cold_mixed",
        setup,
        rounds,
        cycle: false,
        store: StoreMode::Fresh,
        depth: 1,
        replay_len: 100,
        tally_rounds: 3,
    }
}

/// `store_replay`: the jobs the presolve sweeper stores — the diffcheck
/// family grid (six families plus the uniform-random column, sizes 2–8)
/// × both C-Nash presets at presolve's full-grid budgets — at the grid's
/// first [`REPLAY_GRID_SEEDS`] seeds. They are presolved into a fresh
/// store and the timed phase replays them from a warm-booted daemon.
/// Ground truth is enumerated (presolve skips it) so the coverage row
/// has data; every grid size is within the enumeration limit.
fn store_replay(rng: &mut Rng) -> Workload {
    let opts = DiffOptions::new(false, 0, false);
    let solvers = [ConfigSpec::paper(12), ConfigSpec::ideal(12)].map(|config| SolverSpec::CNash {
        config: config.with_iterations(3000),
        hardware_seed: 1,
    });
    let mut pool = Vec::new();
    for game in family_grid(&opts) {
        let (GameSpec::Family { seed, .. } | GameSpec::Random { seed, .. }) = game else {
            unreachable!("the family grid holds family and random games");
        };
        if seed >= opts.base_seed + REPLAY_GRID_SEEDS {
            continue;
        }
        for solver in &solvers {
            let job = JobSpec {
                game: game.clone(),
                solver: solver.clone(),
                runs: 4,
                base_seed: opts.base_seed,
                early_stop: None,
                label: None,
            };
            pool.push((job, TruthPolicy::Enumerate));
        }
    }
    // 1000 requests in five rounds: whole shuffled passes over the pool.
    let round = passes(rng, pool.len(), 1000)
        .into_iter()
        .map(|k| pool[k].clone())
        .collect();
    Workload {
        name: "store_replay",
        setup: numbered(pool),
        rounds: rounds_of(round, 200),
        cycle: true,
        store: StoreMode::Presolved,
        depth: 4,
        replay_len: 200,
        tally_rounds: 5,
    }
}

/// Generates the named workload at `seed`.
pub fn generate(name: &str, seed: u64) -> Option<Workload> {
    let (mut inst, mut rng) = (Rng::instances(), Rng::new(seed));
    Some(match name {
        "warm_tiny" => warm_tiny(&mut inst, &mut rng),
        "anneal_paper" => anneal_paper(&mut rng),
        "cold_mixed" => cold_mixed(&mut inst, &mut rng),
        "store_replay" => store_replay(&mut rng),
        _ => return None,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn lines(w: &Workload) -> Vec<String> {
        w.setup
            .iter()
            .chain(w.rounds.iter().flatten())
            .map(|r| r.line.clone())
            .collect()
    }

    #[test]
    fn same_seed_gives_byte_identical_request_lists() {
        for name in NAMES {
            let a = generate(name, 7).unwrap();
            let b = generate(name, 7).unwrap();
            assert_eq!(lines(&a), lines(&b), "{name}");
            assert_eq!(a.digest(), b.digest(), "{name}");
            let c = generate(name, 8).unwrap();
            assert_ne!(a.digest().0, c.digest().0, "{name}: seed must matter");
        }
    }

    #[test]
    fn rounds_have_fixed_sizes() {
        let expect = [
            ("warm_tiny", 200),
            ("anneal_paper", 100),
            ("cold_mixed", 200),
            ("store_replay", 200),
        ];
        for (name, n) in expect {
            let w = generate(name, 3).unwrap();
            assert!(w.rounds.iter().all(|r| r.len() == n), "{name}");
            assert!(w.replay_len <= n, "{name}");
        }
    }

    #[test]
    fn cold_instances_are_never_repeated() {
        let w = generate("cold_mixed", 11).unwrap();
        let mut games = HashSet::new();
        for req in w.setup.iter().chain(w.rounds.iter().flatten()) {
            assert!(
                games.insert(req.job.game.to_json().compact()),
                "repeated instance"
            );
        }
        assert_eq!(w.setup.len(), 256);
    }

    #[test]
    fn cold_mix_is_inverse_square_and_sums_to_n() {
        let total: f64 = COLD_SIZES.iter().map(|&s| 1.0 / (s * s) as f64).sum();
        for n in [200, 256] {
            let mix = cold_mix(n);
            assert_eq!(mix.iter().map(|&(_, c)| c).sum::<usize>(), n);
            for &(s, c) in &mix {
                let ideal = n as f64 / (s * s) as f64 / total;
                assert!((c as f64 - ideal).abs() < 1.0, "size {s}: {c} vs {ideal}");
            }
        }
        assert_eq!(
            cold_mix(200),
            [
                (4, 105),
                (6, 46),
                (8, 26),
                (12, 12),
                (16, 6),
                (24, 3),
                (32, 2)
            ]
        );
    }

    #[test]
    fn replay_round_only_uses_the_presolved_pool() {
        let w = generate("store_replay", 5).unwrap();
        let pool: HashSet<&str> = w.setup.iter().map(|r| r.key.as_str()).collect();
        assert!(w.rounds[0].iter().all(|r| pool.contains(r.key.as_str())));
    }
}
