//! The traced replay: requests re-run in-process through the layers'
//! public functions, in `execute_solve`'s order, one span per call.
//!
//! Spans are recorded from the benchmark's side of each call, kept in
//! memory and written out when the run ends. A layer's self time is its
//! span minus the union of its children.

use crate::workload::Req;
use cnash_core::{NashSolver, RunOutcome};
use cnash_game::support_enum::MAX_ENUM_ACTIONS;
use cnash_game::Game;
use cnash_runtime::report::game_report_json;
use cnash_runtime::spec::{JobSpec, SolverSpec};
use cnash_runtime::{BatchRunner, CancelToken, Json};
use cnash_service::{
    execute_solve, solve_key, strip_timing, InstanceCache, SolutionStore, TruthPolicy,
};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// One timed call.
#[derive(Debug)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the enclosing span.
    pub parent: Option<usize>,
    /// Index of the replayed request.
    pub request: usize,
}

impl Span {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// In-memory span recorder, shared with the batch runtime's worker.
pub struct Tracer {
    origin: Instant,
    spans: Mutex<Vec<Span>>,
}

impl Tracer {
    pub fn new() -> Self {
        Self {
            origin: Instant::now(),
            spans: Mutex::new(Vec::new()),
        }
    }

    fn now(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Opens a span; [`Tracer::close`] ends it.
    pub fn open(&self, name: &'static str, parent: Option<usize>, request: usize) -> usize {
        let start_ns = self.now();
        let mut spans = self.spans.lock().expect("span log poisoned");
        spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent,
            request,
        });
        spans.len() - 1
    }

    pub fn close(&self, span: usize) {
        let end = self.now();
        self.spans.lock().expect("span log poisoned")[span].end_ns = end;
    }

    /// Times `f` as one span.
    pub fn span<T>(
        &self,
        name: &'static str,
        parent: usize,
        request: usize,
        f: impl FnOnce() -> T,
    ) -> T {
        let s = self.open(name, Some(parent), request);
        let out = f();
        self.close(s);
        out
    }

    pub fn into_spans(self) -> Vec<Span> {
        self.spans.into_inner().expect("span log poisoned")
    }
}

/// Self time of every span: its duration minus the union of its
/// children's intervals, clipped to it (overlapping children count once).
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            children[p].push((s.start_ns, s.end_ns));
        }
    }
    spans
        .iter()
        .zip(children)
        .map(|(s, mut kids)| {
            kids.sort_unstable();
            let mut covered = 0;
            let mut reach = s.start_ns;
            for (a, b) in kids {
                let (a, b) = (a.max(reach), b.min(s.end_ns));
                if b > a {
                    covered += b - a;
                    reach = b;
                }
            }
            s.duration_ns() - covered
        })
        .collect()
}

/// Solver wrapper that records one `anneal.run` span per run.
struct TimedSolver<'a> {
    inner: &'a dyn NashSolver,
    tracer: &'a Tracer,
    parent: usize,
    request: usize,
}

impl NashSolver for TimedSolver<'_> {
    fn name(&self) -> &str {
        self.inner.name()
    }

    fn game(&self) -> &dyn Game {
        self.inner.game()
    }

    fn run(&self, seed: u64) -> RunOutcome {
        let s = self
            .tracer
            .open("anneal.run", Some(self.parent), self.request);
        let out = self.inner.run(seed);
        self.tracer.close(s);
        out
    }
}

/// What the traced replay learned about one request besides its spans.
#[derive(Debug, Clone, Default)]
pub struct ReqInfo {
    pub disk_hit: bool,
    pub prepare_hit: Option<bool>,
    pub enumerated: bool,
    pub iterations: usize,
    pub cells: usize,
}

/// One replay's daemon-equivalent state: an instance cache and store.
pub struct Replica {
    pub cache: InstanceCache,
    pub store: Option<Arc<SolutionStore>>,
}

fn parse(line: &str) -> (Json, JobSpec, TruthPolicy) {
    let doc = Json::parse(line).expect("generated lines parse");
    let job = JobSpec::from_json(doc.get("job").expect("solve lines carry a job"))
        .expect("generated jobs are valid");
    let truth = match doc.opt("ground_truth").and_then(|v| v.as_str().ok()) {
        Some("skip") => TruthPolicy::Skip,
        _ => TruthPolicy::Enumerate,
    };
    (doc.get("id").cloned().unwrap_or(Json::Null), job, truth)
}

impl Replica {
    /// Untraced: parse, `execute_solve`, serialize — what the daemon's
    /// shard does for the request. Returns the time and the response.
    pub fn run_untraced(&self, req: &Req) -> (Duration, String) {
        let t0 = Instant::now();
        let (id, job, truth) = parse(&req.line);
        let response = execute_solve(
            &self.cache,
            self.store.as_deref(),
            &job,
            truth,
            1,
            &CancelToken::new(),
            &id,
        );
        let text = response.compact();
        (t0.elapsed(), text)
    }

    /// Traced: `execute_solve`'s steps one by one, each in a span under
    /// one `request` root.
    pub fn run_traced(&self, tracer: &Tracer, request: usize, req: &Req) -> (ReqInfo, String) {
        let root = tracer.open("request", None, request);
        let sp = |name, f: &mut dyn FnMut()| tracer.span(name, root, request, f);
        let mut info = ReqInfo::default();

        let mut parsed = None;
        sp("service.parse", &mut || parsed = Some(parse(&req.line)));
        let (id, job, truth) = parsed.expect("parsed");
        let start = Instant::now();
        let mut game = None;
        sp("runtime.build", &mut || {
            game = Some(job.game.build().expect("generated games build"))
        });
        let game = game.expect("built");
        let mut key = 0;
        sp("game.fingerprint", &mut || {
            key = solve_key(&game, &job, truth)
        });

        let mut response = None;
        if let Some(store) = &self.store {
            let mut payload = None;
            sp("store.lookup", &mut || payload = store.lookup(key));
            if let Some(payload) = payload {
                info.disk_hit = true;
                sp("store.payload_rebuild", &mut || {
                    if let Ok(Json::Obj(mut map)) = Json::parse(&payload) {
                        map.insert("id".into(), id.clone());
                        map.insert("cache".into(), Json::str("disk"));
                        map.insert(
                            "wall_ms".into(),
                            Json::Num(start.elapsed().as_secs_f64() * 1e3),
                        );
                        map.insert("program_ms".into(), Json::Num(0.0));
                        response = Some(Json::Obj(map));
                    }
                });
            }
        }

        let response = response.unwrap_or_else(|| {
            let mut game = Some(game);
            let mut prepared = None;
            sp("cache.prepare", &mut || {
                let game = game.take().expect("prepared once");
                prepared = Some(
                    self.cache
                        .prepare_with_game(game, &job.solver)
                        .expect("generated jobs prepare"),
                )
            });
            let prepared = prepared.expect("prepared");
            info.prepare_hit = Some(prepared.cache_hit);
            info.cells = prepared.game.row_actions() * prepared.game.col_actions();
            info.iterations = match &job.solver {
                SolverSpec::CNash { config, .. } => config.iterations.unwrap_or(0),
                _ => 0,
            };
            let program_ms = start.elapsed().as_secs_f64() * 1e3;
            let enumerable = prepared.game.row_actions() <= MAX_ENUM_ACTIONS
                && prepared.game.col_actions() <= MAX_ENUM_ACTIONS;
            let mut truth_set = Arc::new(Vec::new());
            if truth == TruthPolicy::Enumerate && enumerable {
                let before = self.cache.stats().truth_misses;
                sp("cache.truth", &mut || {
                    truth_set = self.cache.ground_truth(&prepared.game)
                });
                info.enumerated = self.cache.stats().truth_misses > before;
            }
            let mut runner = BatchRunner::new(job.runs, job.base_seed).threads(1);
            runner.early_stop = job.early_stop;
            let batch_span = tracer.open("runtime.batch", Some(root), request);
            let timed = TimedSolver {
                inner: prepared.solver.as_ref(),
                tracer,
                parent: batch_span,
                request,
            };
            let batch = runner.evaluate_cancellable(&timed, &truth_set, &CancelToken::new());
            tracer.close(batch_span);
            let mut report = Json::Null;
            sp("runtime.report", &mut || {
                report = game_report_json(&batch.report)
            });
            let label = job
                .label
                .clone()
                .unwrap_or_else(|| format!("{} on {}", job.solver.label(), prepared.game.name()));
            let mut response = Json::Null;
            sp("runtime.response", &mut || {
                response = Json::obj([
                    ("id", id.clone()),
                    ("ok", Json::Bool(true)),
                    ("label", Json::str(label.clone())),
                    ("cache_hit", Json::Bool(prepared.cache_hit)),
                    ("report", report.clone()),
                    ("scheduled_runs", Json::num(batch.scheduled_runs as f64)),
                    ("executed_runs", Json::num(batch.executed_runs as f64)),
                    ("stopped_early", Json::Bool(batch.stopped_early)),
                    ("cancelled", Json::Bool(batch.cancelled)),
                    ("wall_ms", Json::Num(start.elapsed().as_secs_f64() * 1e3)),
                    ("program_ms", Json::Num(program_ms)),
                ]);
            });
            if let Some(store) = &self.store {
                sp("store.append", &mut || {
                    let mut payload = response.clone();
                    strip_timing(&mut payload);
                    if let Json::Obj(map) = &mut payload {
                        map.remove("id");
                    }
                    let _ = store.append(key, &payload.compact());
                });
            }
            response
        });
        let mut text = String::new();
        sp("service.serialize", &mut || text = response.compact());
        tracer.close(root);
        (info, text)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(start_ns: u64, end_ns: u64, parent: Option<usize>) -> Span {
        Span {
            name: "s",
            start_ns,
            end_ns,
            parent,
            request: 0,
        }
    }

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        let spans = [
            span(0, 100, None),
            span(10, 30, Some(0)),
            span(20, 40, Some(0)),  // overlaps the first child: counted once
            span(90, 120, Some(0)), // clipped to the parent's end
            span(12, 18, Some(1)),  // grandchild: only its parent sees it
        ];
        assert_eq!(self_times(&spans), vec![100 - 30 - 10, 20 - 6, 20, 30, 6]);
    }

    #[test]
    fn self_time_without_children_is_the_duration() {
        let spans = [span(5, 9, None), span(7, 7, Some(0))];
        assert_eq!(self_times(&spans), vec![4, 0]);
    }

    #[test]
    fn nested_children_do_not_double_count() {
        let spans = [
            span(0, 50, None),
            span(0, 50, Some(0)),
            span(10, 20, Some(0)),
        ];
        assert_eq!(self_times(&spans)[0], 0);
    }
}
