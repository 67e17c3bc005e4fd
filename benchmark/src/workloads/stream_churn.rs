//! `stream_churn`: the sim-join, feature and forest layers used as
//! *writes beside reads*. Product titles flow through a `StreamSession`
//! as small mutation batches; tombstones, the tail overlay, per-record
//! cache invalidation, dirty rescoring and index compaction are all on
//! the path, so a batch-path gain that costs the incremental path is
//! visible here, and compaction pauses reach the tail latency.
//!
//! The session runs on one worker: a 20-mutation tick has no parallel
//! slack, and with two workers passes repeated 17 % apart instead of 4 %.

use std::collections::HashSet;
use std::path::Path;
use std::time::Instant;

use magellan_core::StreamSession;
use magellan_datagen::domains::products;
use magellan_datagen::{DirtModel, ScenarioConfig};
use magellan_features::{Feature, FeatureKind, TokSpecF};
use magellan_ml::{Dataset, FlatForest, Metrics, RandomForestLearner};
use magellan_par::ParConfig;
use magellan_simjoin::{set_sim_join, IncrementalJoin, RecordMutation, SetSimMeasure, Side};
use magellan_table::ValueRef;
use magellan_textsim::tokenize::AlphanumericTokenizer;

use super::{column_strings, gold_rows, timed, Fnv, PassOut, Quality, ReplayCtx, Scale, Workload};
use crate::host::splitmix64;

const MEASURE: SetSimMeasure = SetSimMeasure::Jaccard(0.6);
const THRESHOLD: f64 = 0.5;
const SEED_BATCH_ROWS: usize = 1_000;
const MUTATIONS_PER_BATCH: usize = 20;
const TRAINING_PAIRS: usize = 600;

pub struct StreamChurn {
    features: Vec<Feature>,
    forest: FlatForest,
    fit_forest_s: f64,
    seed_batches: Vec<Vec<RecordMutation>>,
    churn_batches: Vec<Vec<RecordMutation>>,
    /// Gold pairs, as live row ids, once every batch has been applied.
    final_gold: HashSet<(usize, usize)>,
}

/// One side of the plan's bookkeeping: which generated title each live
/// row currently shows, and which titles no row shows.
struct SidePlan {
    side: Side,
    titles: Vec<Option<String>>,
    /// Generated-title index per row id (`None` once deleted).
    shown_by: Vec<Option<usize>>,
    alive: Vec<usize>,
    unused: Vec<usize>,
}

impl SidePlan {
    fn insert(&mut self, pick: u64) -> RecordMutation {
        let src = self
            .unused
            .swap_remove((pick % self.unused.len() as u64) as usize);
        self.alive.push(self.shown_by.len());
        self.shown_by.push(Some(src));
        RecordMutation::Insert {
            side: self.side,
            text: self.titles[src].clone(),
        }
    }

    fn delete(&mut self, victim: u64) -> RecordMutation {
        let rid = self
            .alive
            .swap_remove((victim % self.alive.len() as u64) as usize);
        self.unused.extend(self.shown_by[rid].take());
        RecordMutation::Delete {
            side: self.side,
            rid,
        }
    }

    fn update(&mut self, victim: u64, pick: u64) -> RecordMutation {
        let rid = self.alive[(victim % self.alive.len() as u64) as usize];
        let src = self
            .unused
            .swap_remove((pick % self.unused.len() as u64) as usize);
        self.unused.extend(self.shown_by[rid].replace(src));
        RecordMutation::Update {
            side: self.side,
            rid,
            text: self.titles[src].clone(),
        }
    }
}

fn cell(text: &Option<String>) -> ValueRef<'_> {
    text.as_deref().map_or(ValueRef::Null, ValueRef::Str)
}

impl StreamChurn {
    fn session(&self) -> StreamSession {
        StreamSession::new(
            MEASURE,
            self.features.clone(),
            self.forest.clone(),
            THRESHOLD,
            ParConfig::workers(1),
        )
    }

    /// Everything after the last batch, outside the timed region: the
    /// live view must be bit-equal to a from-scratch rebuild.
    fn finish(
        &self,
        session: &StreamSession,
        wall_s: f64,
        cpu_s: f64,
        batch_ms: Vec<f64>,
    ) -> Result<PassOut, String> {
        let matched = session.matched_pairs();
        let oracle = session.rebuild_oracle().map_err(|e| e.to_string())?;
        let same = matched.len() == oracle.len()
            && matched
                .iter()
                .zip(&oracle)
                .all(|(x, y)| x.0 == y.0 && x.1.to_bits() == y.1.to_bits());
        if !same {
            return Err("matched_pairs() differs from rebuild_oracle()".into());
        }
        let predicted: HashSet<(usize, usize)> = matched.iter().map(|&(k, _)| k).collect();
        let mut h = Fnv::default();
        for &((l, r), p) in &matched {
            for x in [l as u64, r as u64, p.to_bits()] {
                h.add(x);
            }
        }
        Ok(PassOut {
            key: 0,
            digest: h.0,
            quality: Quality::from(Metrics::from_pair_sets(&predicted, &self.final_gold)),
            wall_s,
            cpu_s,
            batch_ms,
        })
    }
}

impl Workload for StreamChurn {
    fn setup(seed: u64, scale: Scale, _dir: &Path) -> Result<Self, String> {
        let rows = scale.pick(10_000, 1_000);
        let seeded = rows * 8 / 10;
        let scenario = products(&ScenarioConfig {
            size_a: rows,
            size_b: rows,
            n_matches: rows / 2,
            dirt: DirtModel::light(),
            seed,
        });
        let titles_a = column_strings(&scenario.table_a, "title")?;
        let titles_b = column_strings(&scenario.table_b, "title")?;
        let gold = gold_rows(&scenario)?;

        // A forest over two set measures of the title, fit on pairs the
        // batch join finds, labelled by the generator's gold.
        let features = vec![
            Feature::new("text", "text", FeatureKind::Jaccard(TokSpecF::Word)),
            Feature::new("text", "text", FeatureKind::Dice(TokSpecF::Word)),
        ];
        let joined = set_sim_join(
            &titles_a,
            &titles_b,
            &AlphanumericTokenizer::as_set(),
            MEASURE,
        );
        let mut labelled = Dataset::with_dims(features.len());
        let stride = (joined.len() / TRAINING_PAIRS).max(1);
        for p in joined.iter().step_by(stride).take(TRAINING_PAIRS) {
            let row: Vec<f64> = features
                .iter()
                .map(|f| f.compute(cell(&titles_a[p.l]), cell(&titles_b[p.r])))
                .collect();
            labelled.push(&row, gold.contains(&(p.l as u32, p.r as u32)));
        }
        if labelled.is_empty() {
            return Err("the title join found no pairs to train on".into());
        }
        let (forest, fit_forest_s, _) = timed(|| {
            RandomForestLearner {
                n_trees: 12,
                ..Default::default()
            }
            .fit_forest(&labelled)
        });

        // The plan: seed most titles in bulk, then churn in small ticks.
        let side_plan = |side, titles: Vec<Option<String>>| SidePlan {
            side,
            unused: (0..titles.len()).rev().collect(),
            titles,
            shown_by: Vec::new(),
            alive: Vec::new(),
        };
        let mut sides = [
            side_plan(Side::Left, titles_a),
            side_plan(Side::Right, titles_b),
        ];
        let per_batch = SEED_BATCH_ROWS.min(seeded);
        let seed_batches: Vec<Vec<RecordMutation>> = (0..seeded / per_batch)
            .map(|_| {
                let mut batch = Vec::with_capacity(2 * per_batch);
                for s in &mut sides {
                    batch.extend((0..per_batch).map(|_| s.insert(0)));
                }
                batch
            })
            .collect();
        let mut churn_batches = Vec::new();
        for b in 0..scale.pick(1_000, 60) {
            let mut batch = Vec::with_capacity(MUTATIONS_PER_BATCH);
            for step in b * MUTATIONS_PER_BATCH..(b + 1) * MUTATIONS_PER_BATCH {
                let r = splitmix64(seed ^ splitmix64(step as u64));
                let (victim, pick) = (splitmix64(r), splitmix64(r ^ 1));
                let s = &mut sides[(r & 1) as usize];
                if s.unused.is_empty() || s.alive.is_empty() {
                    return Err(format!(
                        "churn plan ran dry at step {step}; raise the reserve"
                    ));
                }
                // 25 % insert, 25 % delete, 50 % update to an unused title.
                batch.push(match (r >> 1) % 4 {
                    0 => s.insert(pick),
                    1 => s.delete(victim),
                    _ => s.update(victim, pick),
                });
            }
            churn_batches.push(batch);
        }

        let holder = |s: &SidePlan| {
            let mut rows = vec![None; s.titles.len()];
            for &rid in &s.alive {
                if let Some(src) = s.shown_by[rid] {
                    rows[src] = Some(rid);
                }
            }
            rows
        };
        let (left, right) = (holder(&sides[0]), holder(&sides[1]));
        let final_gold = gold
            .iter()
            .filter_map(|&(a, b)| Some((left[a as usize]?, right[b as usize]?)))
            .collect();
        Ok(StreamChurn {
            features,
            forest: FlatForest::from_forest(&forest),
            fit_forest_s,
            seed_batches,
            churn_batches,
            final_gold,
        })
    }

    fn pass(&mut self, _i: usize, _workers: usize) -> Result<PassOut, String> {
        let mut session = self.session();
        for batch in &self.seed_batches {
            session.ingest(batch).map_err(|e| e.to_string())?;
        }
        let mut batch_ms = Vec::with_capacity(self.churn_batches.len());
        let (out, _, cpu_s) = timed(|| {
            for batch in &self.churn_batches {
                let t = Instant::now();
                session.ingest(batch).map_err(|e| e.to_string())?;
                batch_ms.push(t.elapsed().as_secs_f64() * 1e3);
            }
            Ok::<_, String>(())
        });
        out?;
        let wall_s = batch_ms.iter().sum::<f64>() / 1e3;
        self.finish(&session, wall_s, cpu_s, batch_ms)
    }

    fn references(&mut self, _workers: usize) -> Result<Vec<(&'static str, u64)>, String> {
        // The rebuild oracle already runs after every pass.
        Ok(Vec::new())
    }

    fn replay(&mut self, i: usize, ctx: &mut ReplayCtx<'_>) -> Result<PassOut, String> {
        let (t, layers) = (&mut *ctx.tracer, &mut *ctx.layers);
        t.begin_pass(i as u32);
        let mut session = self.session();
        // A second join engine fed the same batches: what the delta join
        // alone costs, next to the whole `ingest`.
        let mut shadow = IncrementalJoin::new(MEASURE);
        let tokenizer = AlphanumericTokenizer::as_set();
        let one = ParConfig::workers(1);

        t.span("extra.stream.seed_s", |_| {
            for batch in &self.seed_batches {
                session.ingest(batch).map_err(|e| e.to_string())?;
            }
            Ok::<_, String>(())
        })?;
        for batch in &self.seed_batches {
            shadow.apply_batch(batch, &tokenizer, &one);
        }

        let mut batch_ms = Vec::with_capacity(self.churn_batches.len());
        let (mut dirty, mut compactions, mut live) = (0usize, 0u64, 0usize);
        let (out, _, cpu_s) = timed(|| {
            for batch in &self.churn_batches {
                t.span("extra.stream.delta_join_s", |_| {
                    shadow.apply_batch(batch, &tokenizer, &one)
                });
                let t0 = Instant::now();
                let report = t
                    .span("stream.ingest_s", |_| session.ingest(batch))
                    .map_err(|e| e.to_string())?;
                batch_ms.push(t0.elapsed().as_secs_f64() * 1e3);
                dirty += report.dirty_pairs;
                compactions += report.compactions;
                live = report.live_candidates;
            }
            Ok::<_, String>(())
        });
        out?;
        let wall_s = batch_ms.iter().sum::<f64>() / 1e3;

        let secs = t.self_seconds_by_name(i as u32);
        let delta = secs
            .get("extra.stream.delta_join_s")
            .copied()
            .unwrap_or(0.0);
        layers.put("stream.rest_s", wall_s - delta);
        layers.put(
            "stream.dirty_pairs_per_batch",
            dirty as f64 / batch_ms.len().max(1) as f64,
        );
        layers.put("stream.compactions", compactions as f64);
        layers.put("stream.live_candidates", live as f64);
        layers.put("ml.fit_forest_s", self.fit_forest_s);
        self.finish(&session, wall_s, cpu_s, batch_ms)
    }
}
