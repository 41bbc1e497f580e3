//! Answer checks: every response is verified against the request it
//! answers, independently of the daemon.

use crate::workload::Req;
use cnash_core::experiment::ReportAccumulator;
use cnash_game::{BimatrixGame, MixedStrategy};
use cnash_runtime::Json;
use cnash_service::{strip_timing, TruthPolicy};
use std::collections::HashMap;

/// The deterministic paper-analogue sums over a fixed set of responses.
#[derive(Debug, Default, Clone, Copy)]
pub struct Tally {
    /// Runs executed.
    pub runs: u64,
    /// Runs that returned a certified equilibrium.
    pub successes: u64,
    /// Ground-truth equilibria covered, on enumerated games.
    pub covered: u64,
    /// Ground-truth equilibria, on enumerated games.
    pub targets: u64,
    /// Simulated hardware time of every run, seconds.
    pub model_time_s: f64,
}

impl Tally {
    /// Table 1 analogue: certified runs over runs executed, percent.
    pub fn ne_success_pct(&self) -> f64 {
        100.0 * self.successes as f64 / self.runs.max(1) as f64
    }

    /// Fig. 9 analogue: Σ covered / Σ target_count, percent.
    pub fn coverage_pct(&self) -> f64 {
        100.0 * self.covered as f64 / self.targets.max(1) as f64
    }

    /// Fig. 10 analogue: Σ model run time / Σ successful runs, µs.
    pub fn model_tts_us(&self) -> f64 {
        1e6 * self.model_time_s / self.successes.max(1) as f64
    }
}

/// What a verified response tells the benchmark.
#[derive(Debug, Clone, Copy)]
pub struct Verified {
    /// The daemon's own `wall_ms` for the solve.
    pub wall_ms: f64,
    /// The game's size: its larger action count.
    pub actions: usize,
}

/// Verifies responses and remembers the deterministic payload of every
/// request seen, so repeats must match byte for byte.
#[derive(Default)]
pub struct Checker {
    games: HashMap<String, BimatrixGame>,
    answers: HashMap<String, String>,
}

fn field<'a>(doc: &'a Json, key: &str) -> Result<&'a Json, String> {
    doc.get(key).map_err(|e| format!("response: {e}"))
}

fn num(doc: &Json, key: &str) -> Result<f64, String> {
    field(doc, key)?
        .as_f64()
        .map_err(|e| format!("`{key}`: {e}"))
}

fn strategy(doc: &Json, key: &str) -> Result<MixedStrategy, String> {
    let probs = field(doc, key)?
        .as_arr()
        .map_err(|e| e.to_string())?
        .iter()
        .map(|p| p.as_f64().map_err(|e| e.to_string()))
        .collect::<Result<Vec<f64>, String>>()?;
    MixedStrategy::new(probs).map_err(|e| format!("distinct_found `{key}`: {e}"))
}

/// The response minus its `id`, wall-clock fields and provenance
/// (`cache`, `cache_hit`): what every answer to one request must share.
pub fn deterministic_payload(doc: &Json) -> String {
    let mut doc = doc.clone();
    strip_timing(&mut doc);
    if let Json::Obj(map) = &mut doc {
        for key in ["id", "cache", "cache_hit"] {
            map.remove(key);
        }
    }
    doc.compact()
}

impl Checker {
    /// Checks one response to `req`; `disk` demands a store hit. On
    /// success, adds the response's paper sums to `tally`.
    pub fn check(
        &mut self,
        req: &Req,
        response: Option<&str>,
        disk: bool,
        tally: Option<&mut Tally>,
    ) -> Result<Verified, String> {
        let line = response.ok_or("dropped: no response")?;
        let doc = Json::parse(line).map_err(|e| format!("unparseable response: {e}"))?;
        let sent = Json::parse(&req.line).expect("generated lines parse");
        if doc.opt("id") != sent.opt("id") {
            return Err("response id does not echo the request id".into());
        }
        if doc.opt("ok").and_then(|v| v.as_bool().ok()) != Some(true) {
            return Err(format!("error response: {line}"));
        }
        if field(&doc, "cancelled")?
            .as_bool()
            .map_err(|e| e.to_string())?
        {
            return Err("cancelled".into());
        }
        let provenance = doc.opt("cache").and_then(|v| v.as_str().ok());
        if disk && provenance != Some("disk") {
            return Err("expected a store hit (`\"cache\":\"disk\"`)".into());
        }
        let report = field(&doc, "report")?;
        let runs = num(&doc, "executed_runs")? as u64;
        let dist = field(report, "distribution")?;
        let (pure, mixed) = (num(dist, "pure_ne")? as u64, num(dist, "mixed_ne")? as u64);
        if runs != req.job.runs as u64
            || num(report, "runs")? as u64 != runs
            || num(dist, "error")? as u64 + pure + mixed != runs
        {
            return Err("run counts do not add up to the requested runs".into());
        }

        // Every claimed equilibrium must hold on the game rebuilt here
        // from the same spec, at the repository's claim tolerance.
        let spec = req.job.game.to_json().compact();
        if !self.games.contains_key(&spec) {
            let game = req.job.game.build().map_err(|e| e.message)?;
            self.games.insert(spec.clone(), game);
        }
        let game = &self.games[&spec];
        let found = field(report, "distinct_found")?
            .as_arr()
            .map_err(|e| e.to_string())?;
        for eq in found {
            let (p, q) = (strategy(eq, "row")?, strategy(eq, "col")?);
            if !game.is_equilibrium(&p, &q, ReportAccumulator::TOL) {
                return Err(format!(
                    "claimed equilibrium fails re-verification: {}",
                    eq.compact()
                ));
            }
        }

        let payload = deterministic_payload(&doc);
        match self.answers.get(&req.key) {
            Some(first) if *first != payload => {
                return Err("repeat of a request returned a different payload".into())
            }
            Some(_) => {}
            None => {
                self.answers.insert(req.key.clone(), payload);
            }
        }

        if let Some(t) = tally {
            t.runs += runs;
            t.successes += pure + mixed;
            if req.truth == TruthPolicy::Enumerate {
                t.covered += num(report, "covered")? as u64;
                t.targets += num(report, "target_count")? as u64;
            }
            t.model_time_s += num(report, "mean_run_time_s")? * runs as f64;
        }
        Ok(Verified {
            wall_ms: num(&doc, "wall_ms")?,
            actions: game.row_actions().max(game.col_actions()),
        })
    }
}
