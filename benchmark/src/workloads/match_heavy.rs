//! `match_heavy`: hundreds of candidates per true match, so nearly all of
//! a pass is feature computation and forest scoring over the candidate
//! set. This is where candidate economics and demand-driven scoring must
//! show, and where a blocking or storage change must show nothing.

use std::collections::HashSet;
use std::path::Path;

use magellan_block::OverlapBlocker;
use magellan_core::exec::ProductionExecutor;
use magellan_core::workflow::EmWorkflow;
use magellan_datagen::domains::persons;
use magellan_datagen::{DirtModel, EmScenario, ScenarioConfig};
use magellan_par::ParConfig;
use magellan_simjoin::{join_tokenized_par, SetSimMeasure, TokenizedCollection};
use magellan_textsim::tokenize::AlphanumericTokenizer;

use super::{
    column_strings, digest, gold_rows, other_workers, put_blocking_counts, put_derived,
    put_join_counts, put_speedup, replay_matching, score, timed, train_workflow, PassOut,
    ReplayCtx, Scale, Workload,
};

pub struct MatchHeavy {
    scenario: EmScenario,
    gold: HashSet<(u32, u32)>,
    workflow: EmWorkflow,
}

impl MatchHeavy {
    fn run(&self, workers: usize) -> Result<PassOut, String> {
        let (a, b) = (&self.scenario.table_a, &self.scenario.table_b);
        let (out, wall_s, cpu_s) = timed(|| {
            let rep = ProductionExecutor::new(workers)
                .run(&self.workflow, a, b)
                .map_err(|e| e.to_string())?;
            let quality = score(&rep.matches, a, b, &self.scenario.gold)?;
            Ok::<_, String>((rep.matches, quality))
        });
        let (matches, quality) = out?;
        Ok(PassOut::one_batch(
            0,
            digest(matches.pairs(), 0),
            quality,
            wall_s,
            cpu_s,
        ))
    }
}

impl Workload for MatchHeavy {
    fn setup(seed: u64, scale: Scale, _dir: &Path) -> Result<Self, String> {
        let n = scale.pick(3_000, 400);
        let scenario = persons(&ScenarioConfig {
            size_a: n,
            size_b: n,
            n_matches: n / 3,
            dirt: DirtModel::light(),
            seed,
        });
        let workflow =
            train_workflow(&scenario, Box::new(OverlapBlocker::words("name", 1)), scale)?;
        Ok(MatchHeavy {
            gold: gold_rows(&scenario)?,
            scenario,
            workflow,
        })
    }

    fn pass(&mut self, _i: usize, workers: usize) -> Result<PassOut, String> {
        self.run(workers)
    }

    fn references(&mut self, workers: usize) -> Result<Vec<(&'static str, u64)>, String> {
        let (a, b) = (&self.scenario.table_a, &self.scenario.table_b);
        let serial = self.workflow.execute(a, b).map_err(|e| e.to_string())?;
        Ok(vec![
            (
                "serial EmWorkflow::execute",
                digest(serial.matches().pairs(), 0),
            ),
            (
                "executor on another worker count",
                self.run(other_workers(workers))?.digest,
            ),
        ])
    }

    fn replay(&mut self, i: usize, ctx: &mut ReplayCtx<'_>) -> Result<PassOut, String> {
        let (a, b) = (&self.scenario.table_a, &self.scenario.table_b);
        let cfg = ParConfig::workers(ctx.workers);
        let (t, layers) = (&mut *ctx.tracer, &mut *ctx.layers);
        let pass = i as u32;
        t.begin_pass(pass);

        let (out, wall_s, cpu_s) = timed(|| {
            t.span("pass", |t| {
                let (cands, block_stats) = t
                    .span("block.block_s", |_| {
                        self.workflow.blocker.block_par(a, b, &cfg)
                    })
                    .map_err(|e| e.to_string())?;
                let (matches, mut regions) =
                    replay_matching(&self.workflow, a, b, cands.pairs(), &cfg, t, layers)?;
                let quality = t.span("core.evaluate_s", |_| {
                    score(&matches, a, b, &self.scenario.gold)
                })?;
                regions.push(block_stats);
                Ok::<_, String>((cands, matches, quality, regions))
            })
        });
        let (cands, matches, quality, regions) = out?;
        put_blocking_counts(layers, &cands, &self.gold);

        // The sim-join layer on its own, configured as the blocker above
        // configures it: tokenize the blocking attribute, then join.
        let left = column_strings(a, "name")?;
        let right = column_strings(b, "name")?;
        let coll = t.span("extra.simjoin.tokenize_s", |_| {
            TokenizedCollection::build(&left, &right, &AlphanumericTokenizer::as_set())
        });
        let (_, join_stats) = t.span("extra.simjoin.join_s", |_| {
            join_tokenized_par(&coll, SetSimMeasure::OverlapSize(1), &cfg)
        });
        put_join_counts(layers, coll.vocab_size, &join_stats.join);

        put_derived(layers, t, pass, cands.len(), &regions);
        layers.put("core.exec_overhead_s", ctx.base_wall_s - wall_s);
        if i == 0 {
            put_speedup(layers, ctx.base_wall_s, || self.run(1))?;
        }
        Ok(PassOut::one_batch(
            0,
            digest(matches.pairs(), 0),
            quality,
            wall_s,
            cpu_s,
        ))
    }
}
