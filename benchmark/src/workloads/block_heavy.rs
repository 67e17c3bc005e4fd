//! `block_heavy`: a large table against a small one under a tight
//! Jaccard join, so few candidates survive and a pass is table ingest
//! (CSV -> emtbl -> mmap), sharded sim-join blocking and checkpointing —
//! the mirror image of `match_heavy`, and the only workload that reads
//! cells through mapped storage and the sharded index.

use std::collections::HashSet;
use std::path::{Path, PathBuf};

use magellan_block::SimJoinBlocker;
use magellan_core::checkpoint::{Checkpoint, CheckpointStore, FileStore};
use magellan_core::exec::{ProductionExecutor, RecoveryOptions};
use magellan_core::workflow::EmWorkflow;
use magellan_datagen::domains::products;
use magellan_datagen::{DirtModel, ScenarioConfig};
use magellan_par::ParConfig;
use magellan_simjoin::{join_tokenized_sharded, ProbeSide, SetSimMeasure, TokenizedCollection};
use magellan_table::{csv, emtbl, Schema, Table, ValueRef};
use magellan_textsim::tokenize::AlphanumericTokenizer;

use super::{
    column_strings, digest, gold_rows, other_workers, put_blocking_counts, put_derived,
    put_join_counts, put_speedup, replay_matching, score, timed, train_workflow, Fnv, PassOut,
    ReplayCtx, Scale, Workload,
};

const MEASURE: SetSimMeasure = SetSimMeasure::Jaccard(0.7);
const SHARDS: usize = 4;

pub struct BlockHeavy {
    dir: PathBuf,
    schema_a: Schema,
    schema_b: Schema,
    gold_ids: HashSet<(String, String)>,
    gold: HashSet<(u32, u32)>,
    workflow: EmWorkflow,
    /// Checksum over every cell of the generated in-memory tables.
    cells: u64,
}

fn cell_checksum(tables: [&Table; 2]) -> u64 {
    let mut h = Fnv::default();
    let mut fold = |x: u64| h.add(x);
    for t in tables {
        for r in 0..t.nrows() {
            for c in 0..t.ncols() {
                match t.value(r, c) {
                    ValueRef::Null => fold(0),
                    ValueRef::Bool(v) => fold(1 + u64::from(v)),
                    ValueRef::Int(v) => fold(v as u64),
                    ValueRef::Float(v) => fold(v.to_bits()),
                    ValueRef::Str(s) => s.bytes().for_each(|b| fold(u64::from(b))),
                }
            }
        }
    }
    h.0
}

impl BlockHeavy {
    fn file(&self, name: &str) -> PathBuf {
        self.dir.join(name)
    }

    /// CSV on disk -> emtbl on disk -> two mapped tables.
    fn ingest(&self) -> Result<(Table, Table), String> {
        let e = |e: magellan_table::TableError| e.to_string();
        let a = csv::read_csv_path(self.file("a.csv"), self.schema_a.clone()).map_err(e)?;
        let b = csv::read_csv_path(self.file("b.csv"), self.schema_b.clone()).map_err(e)?;
        emtbl::write_path(&a, self.file("a.emtbl")).map_err(e)?;
        emtbl::write_path(&b, self.file("b.emtbl")).map_err(e)?;
        drop((a, b));
        Ok((
            emtbl::open_table(self.file("a.emtbl")).map_err(e)?,
            emtbl::open_table(self.file("b.emtbl")).map_err(e)?,
        ))
    }

    fn fresh_store(&self) -> Result<FileStore, String> {
        let mut store = FileStore::new(self.file("run.emckpt"));
        store.clear().map_err(|e| e.to_string())?;
        Ok(store)
    }

    fn run(&self, workers: usize) -> Result<PassOut, String> {
        let (out, wall_s, cpu_s) = timed(|| {
            let (a, b) = self.ingest()?;
            let mut store = self.fresh_store()?;
            let rep = ProductionExecutor::new(workers)
                .run_with_recovery(
                    &self.workflow,
                    &a,
                    &b,
                    &mut store,
                    &RecoveryOptions::default(),
                )
                .map_err(|e| e.to_string())?;
            let quality = score(&rep.matches, &a, &b, &self.gold_ids)?;
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

impl Workload for BlockHeavy {
    fn setup(seed: u64, scale: Scale, dir: &Path) -> Result<Self, String> {
        let small = scale.pick(6_000, 400);
        let scenario = products(&ScenarioConfig {
            size_a: scale.pick(100_000, 8_000),
            size_b: small,
            n_matches: small / 2,
            dirt: DirtModel::light(),
            seed,
        });
        let (a, b) = (&scenario.table_a, &scenario.table_b);
        csv::write_csv_path(a, dir.join("a.csv")).map_err(|e| e.to_string())?;
        csv::write_csv_path(b, dir.join("b.csv")).map_err(|e| e.to_string())?;
        let blocker = SimJoinBlocker {
            l_attr: "title".into(),
            r_attr: "title".into(),
            measure: MEASURE,
            qgram: None,
            shards: SHARDS,
        };
        Ok(BlockHeavy {
            dir: dir.to_owned(),
            schema_a: a.schema().clone(),
            schema_b: b.schema().clone(),
            gold: gold_rows(&scenario)?,
            workflow: train_workflow(&scenario, Box::new(blocker), scale)?,
            cells: cell_checksum([a, b]),
            gold_ids: scenario.gold,
        })
    }

    fn pass(&mut self, _i: usize, workers: usize) -> Result<PassOut, String> {
        self.run(workers)
    }

    fn references(&mut self, workers: usize) -> Result<Vec<(&'static str, u64)>, String> {
        let (a, b) = self.ingest()?;
        if cell_checksum([&a, &b]) != self.cells {
            return Err(
                "cells read back through CSV -> emtbl -> mmap differ from the generated tables"
                    .into(),
            );
        }
        let mut store = self.fresh_store()?;
        let exec = ProductionExecutor::new(other_workers(workers));
        let opts = RecoveryOptions::default();
        let mut run = || {
            exec.run_with_recovery(&self.workflow, &a, &b, &mut store, &opts)
                .map(|rep| digest(rep.matches.pairs(), 0))
                .map_err(|e| e.to_string())
        };
        let (fresh, resumed) = (run()?, run()?);
        let serial = self.workflow.execute(&a, &b).map_err(|e| e.to_string())?;
        Ok(vec![
            ("run_with_recovery on another worker count", fresh),
            ("run_with_recovery again on the finished store", resumed),
            (
                "serial EmWorkflow::execute",
                digest(serial.matches().pairs(), 0),
            ),
        ])
    }

    fn replay(&mut self, i: usize, ctx: &mut ReplayCtx<'_>) -> Result<PassOut, String> {
        let cfg = ParConfig::workers(ctx.workers);
        let (t, layers) = (&mut *ctx.tracer, &mut *ctx.layers);
        let pass = i as u32;
        t.begin_pass(pass);
        let te = |e: magellan_table::TableError| e.to_string();
        let ce = |e: magellan_core::error::MagellanError| e.to_string();

        let (out, wall_s, cpu_s) = timed(|| {
            t.span("pass", |t| {
                let (ra, rb) = t
                    .span("table.csv_read_s", |_| {
                        let a = csv::read_csv_path(self.file("a.csv"), self.schema_a.clone())?;
                        let b = csv::read_csv_path(self.file("b.csv"), self.schema_b.clone())?;
                        Ok((a, b))
                    })
                    .map_err(te)?;
                let rows = ra.nrows() + rb.nrows();
                t.span("table.emtbl_write_s", |_| {
                    emtbl::write_path(&ra, self.file("a.emtbl"))?;
                    emtbl::write_path(&rb, self.file("b.emtbl"))
                })
                .map_err(te)?;
                drop((ra, rb));
                let (a, b) = t
                    .span("table.emtbl_open_s", |_| {
                        let a = emtbl::open_table(self.file("a.emtbl"))?;
                        let b = emtbl::open_table(self.file("b.emtbl"))?;
                        Ok((a, b))
                    })
                    .map_err(te)?;

                let mut store = self.fresh_store()?;
                let (cands, block_stats) = t
                    .span("block.block_s", |_| {
                        self.workflow.blocker.block_par(&a, &b, &cfg)
                    })
                    .map_err(te)?;
                let mut ckpt_bytes = 0;
                let mut checkpoint = |t: &mut crate::trace::Tracer, ck: Checkpoint| {
                    let bytes = t.span("core.ckpt_encode_s", |_| ck.to_bytes());
                    ckpt_bytes += bytes.len();
                    t.span("core.ckpt_write_s", |_| store.save_bytes(&bytes))
                };
                checkpoint(
                    t,
                    Checkpoint::Blocked {
                        candidates: cands.pairs().to_vec(),
                    },
                )
                .map_err(ce)?;

                let (matches, mut regions) =
                    replay_matching(&self.workflow, &a, &b, cands.pairs(), &cfg, t, layers)?;
                checkpoint(
                    t,
                    Checkpoint::Done {
                        matches: matches.pairs().to_vec(),
                        n_candidates: cands.len(),
                    },
                )
                .map_err(ce)?;
                layers.put("core.ckpt_bytes", ckpt_bytes as f64);
                let quality = t.span("core.evaluate_s", |_| {
                    score(&matches, &a, &b, &self.gold_ids)
                })?;
                regions.push(block_stats);
                Ok::<_, String>((a, b, rows, cands, matches, quality, regions))
            })
        });
        let (a, b, rows, cands, matches, quality, regions) = out?;
        put_blocking_counts(layers, &cands, &self.gold);
        self.put_storage_ratios(layers, t, pass, rows)?;
        self.replay_simjoin(&a, &b, &cfg, ctx)?;

        let (t, layers) = (&mut *ctx.tracer, &mut *ctx.layers);
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

impl BlockHeavy {
    fn put_storage_ratios(
        &self,
        layers: &mut super::Layers,
        t: &crate::trace::Tracer,
        pass: u32,
        rows: usize,
    ) -> Result<(), String> {
        let size = |name: &str| {
            std::fs::metadata(self.file(name))
                .map(|m| m.len() as f64)
                .map_err(|e| format!("{name}: {e}"))
        };
        let csv_bytes = size("a.csv")? + size("b.csv")?;
        layers.put(
            "table.emtbl_bytes_per_csv_byte",
            (size("a.emtbl")? + size("b.emtbl")?) / csv_bytes,
        );
        let read_s = t
            .self_seconds_by_name(pass)
            .get("table.csv_read_s")
            .copied()
            .unwrap_or(0.0);
        layers.put("table.csv_rows_per_s", rows as f64 / read_s.max(1e-9));
        Ok(())
    }

    /// The sim-join layer on its own, configured as the blocker configures
    /// it: tokenize the blocking attribute, then the sharded join.
    fn replay_simjoin(
        &self,
        a: &Table,
        b: &Table,
        cfg: &ParConfig,
        ctx: &mut ReplayCtx<'_>,
    ) -> Result<(), String> {
        let left = column_strings(a, "title")?;
        let right = column_strings(b, "title")?;
        let coll = ctx.tracer.span("extra.simjoin.tokenize_s", |_| {
            TokenizedCollection::build(&left, &right, &AlphanumericTokenizer::as_set())
        });
        let (_, stats, shards) = ctx.tracer.span("extra.simjoin.join_s", |_| {
            join_tokenized_sharded(&coll, MEASURE, ProbeSide::Auto, SHARDS, cfg)
        });
        let layers = &mut *ctx.layers;
        put_join_counts(layers, coll.vocab_size, &stats.join);
        layers.put("simjoin.peak_index_bytes", shards.peak_index_bytes as f64);
        Ok(())
    }
}
