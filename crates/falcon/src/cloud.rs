//! CloudMatcher: self-service EM as a (simulated) cloud service.
//!
//! §5.1 of the paper: CloudMatcher 1.0 "break[s] each submitted EM
//! workflow into multiple DAG fragments, where each fragment performs only
//! one kind of task", routes fragments to three execution engines
//! (user-interaction, crowd, batch), and a *metamanager* interleaves
//! fragments from concurrent workflows.
//!
//! This module reproduces that architecture with the substitutions
//! documented in DESIGN.md: the crowd is a majority vote of simulated
//! noisy annotators with Mechanical-Turk-like fees and latency; compute
//! either runs on "our local machine" (no dollar cost) or on metered
//! "cloud" time; labeling latency is simulated time while compute time is
//! measured wall-clock. The per-task accounting reproduces every cost and
//! time column of Table 2, and the metamanager's event-driven schedule
//! shows the interleaving win (makespan well under the serial sum).

use std::collections::HashSet;
use std::time::Instant;

use magellan_core::evaluate::evaluate_matches;
use magellan_core::labeling::{Label, Labeler, OracleLabeler};
use magellan_core::MagellanError;
use magellan_faults::FaultPlan;
use magellan_obs::EvVal;
use magellan_table::Table;
use rand::rngs::StdRng;
use rand::Rng;
use rand::SeedableRng;

use crate::schedule::{
    schedule_fragments, task_chain, Engine, Fragment, ScheduleRecoveryOptions, ScheduleReport,
};
use crate::workflow::{run_falcon, FalconConfig, FalconReport};

/// Cost and latency model for the simulated deployment.
#[derive(Debug, Clone, Copy)]
pub struct CostModel {
    /// Fee per crowd vote (the paper's tasks paid cents per answer).
    pub crowd_fee_per_vote: f64,
    /// Votes solicited per crowd question (majority decides).
    pub crowd_votes: usize,
    /// Per-question crowd round-trip in simulated seconds (Turk latency:
    /// Table 2 shows 22–36 h for crowd tasks).
    pub crowd_latency_s: f64,
    /// Per-question single-user latency in simulated seconds (Table 2:
    /// 9 min – 2 h for 160–1200 questions).
    pub user_latency_s: f64,
    /// Metered compute price per hour (AWS role; Table 2's "$2.33").
    pub compute_dollars_per_hour: f64,
}

impl Default for CostModel {
    fn default() -> Self {
        CostModel {
            crowd_fee_per_vote: 0.02,
            // Five-way redundancy: at a 10% per-worker error rate the
            // majority answer is wrong only ~0.9% of the time, which the
            // blocking-rule learner tolerates; three-way (~2.8% wrong)
            // measurably poisons learned rules.
            crowd_votes: 5,
            crowd_latency_s: 90.0,
            user_latency_s: 6.0,
            compute_dollars_per_hour: 0.50,
        }
    }
}

impl CostModel {
    /// Simulated seconds one question takes on the labeling engine.
    pub(crate) fn per_question_s(&self, label: Engine) -> f64 {
        if label == Engine::Crowd {
            self.crowd_latency_s
        } else {
            self.user_latency_s
        }
    }

    /// Crowd fees for `questions` questions at full vote redundancy.
    pub(crate) fn crowd_dollars(&self, questions: f64) -> f64 {
        questions * self.crowd_votes as f64 * self.crowd_fee_per_vote
    }

    /// Metered compute dollars for `machine_s` seconds (0 on the free
    /// local machine).
    pub(crate) fn compute_dollars(&self, machine_s: f64, on_cloud: bool) -> f64 {
        if on_cloud {
            machine_s / 3600.0 * self.compute_dollars_per_hour
        } else {
            0.0
        }
    }
}

/// Who labels a task's questions.
#[derive(Debug, Clone, Copy)]
pub enum LabelingMode {
    /// The submitting user labels, with the given error rate (0 = the
    /// ideal expert; the "Vehicles" expert of Table 2 was far from it).
    SingleUser {
        /// Per-question flip probability.
        error_rate: f64,
    },
    /// Crowd workers label; majority of `CostModel::crowd_votes` votes,
    /// each vote flipped with this probability.
    Crowd {
        /// Per-vote flip probability.
        worker_error_rate: f64,
    },
}

/// A submitted EM task.
pub struct TaskSpec<'a> {
    /// Task name (Table 2's first column).
    pub name: String,
    /// Left table.
    pub table_a: &'a Table,
    /// Right table.
    pub table_b: &'a Table,
    /// Key attribute of A.
    pub a_key: String,
    /// Key attribute of B.
    pub b_key: String,
    /// Gold matches for the oracle behind the labeler and for scoring.
    pub gold: &'a HashSet<(String, String)>,
    /// Labeling mode.
    pub labeling: LabelingMode,
    /// Billed cloud compute (true) vs. free local machine (false).
    pub on_cloud: bool,
    /// Falcon knobs.
    pub falcon: FalconConfig,
}

/// Per-task accounting — one row of Table 2.
#[derive(Debug, Clone, PartialEq)]
pub struct TaskOutcome {
    /// Task name.
    pub name: String,
    /// |A|, |B|.
    pub rows: (usize, usize),
    /// Match precision against gold.
    pub precision: f64,
    /// Match recall against gold.
    pub recall: f64,
    /// Questions asked.
    pub questions: usize,
    /// Crowd dollars (0 for single-user tasks).
    pub crowd_cost: f64,
    /// Compute dollars (0 for local tasks).
    pub compute_cost: f64,
    /// Simulated labeling time, seconds.
    pub label_time_s: f64,
    /// Measured machine time, seconds.
    pub machine_time_s: f64,
    /// Candidate pairs examined.
    pub n_candidates: usize,
    /// Crowd votes that never showed up and were re-solicited (0 unless
    /// the service runs under a [`FaultPlan`]).
    pub crowd_no_shows: usize,
    /// Questions the crowd abandoned entirely, answered instead by the
    /// submitting user (the crowd→single-user degradation path).
    pub crowd_degraded_questions: usize,
}

impl TaskOutcome {
    /// Label + machine time.
    pub fn total_time_s(&self) -> f64 {
        self.label_time_s + self.machine_time_s
    }
}

/// A crowd labeler: majority vote over noisy votes, with fee accounting.
///
/// Under a non-empty [`FaultPlan`], individual votes can be **no-shows**
/// (the Turker accepts the HIT and never answers): the labeler solicits a
/// replacement vote (a fresh vote id), paying only for delivered votes.
/// A question whose replacement budget is exhausted is **degraded** to
/// the submitting user, who answers it directly — the crowd→single-user
/// fallback of the self-healing metamanager.
struct CrowdLabeler {
    oracle: OracleLabeler,
    votes: usize,
    worker_error_rate: f64,
    rng: StdRng,
    fees: f64,
    fee_per_vote: f64,
    /// Seeded no-show source; [`FaultPlan::none`] disables injection.
    plan: FaultPlan,
    /// Monotonic question id for no-show keying.
    next_question: u64,
    /// Votes that never arrived (re-solicited).
    no_shows: usize,
    /// Questions handed back to the submitting user.
    degraded: usize,
}

impl Labeler for CrowdLabeler {
    fn label(&mut self, a: &Table, ra: usize, b: &Table, rb: usize) -> Label {
        let truth = self.oracle.label(a, ra, b, rb);
        let qid = self.next_question;
        self.next_question += 1;
        let mut yes = 0usize;
        let mut delivered = 0usize;
        // Replacement budget: a question may burn at most one extra batch
        // of solicitations before the service gives up on the crowd.
        let cap = (self.votes * 2) as u64;
        let mut vote_id = 0u64;
        while delivered < self.votes && vote_id < cap {
            if self.plan.crowd_no_show(qid, vote_id) {
                self.no_shows += 1;
                vote_id += 1;
                magellan_obs::counter_add("magellan_falcon_crowd_no_shows_total", 1);
                continue;
            }
            let vote = if self.rng.gen_bool(self.worker_error_rate) {
                truth != Label::Match
            } else {
                truth == Label::Match
            };
            if vote {
                yes += 1;
            }
            self.fees += self.fee_per_vote;
            delivered += 1;
            vote_id += 1;
        }
        if delivered < self.votes {
            // The crowd abandoned this question: degrade to the
            // submitting user, whose answer is authoritative (and free).
            self.degraded += 1;
            magellan_obs::counter_add("magellan_falcon_crowd_degraded_total", 1);
            magellan_obs::event("crowd_question_degraded", &[("question", EvVal::U(qid))]);
            return truth;
        }
        if yes * 2 > self.votes {
            Label::Match
        } else {
            Label::NoMatch
        }
    }

    fn questions_asked(&self) -> usize {
        self.oracle.questions_asked()
    }
}

/// A single (possibly imperfect) user.
struct UserLabeler {
    oracle: OracleLabeler,
    error_rate: f64,
    rng: StdRng,
}

impl Labeler for UserLabeler {
    fn label(&mut self, a: &Table, ra: usize, b: &Table, rb: usize) -> Label {
        let truth = self.oracle.label(a, ra, b, rb);
        if self.error_rate > 0.0 && self.rng.gen_bool(self.error_rate) {
            if truth == Label::Match {
                Label::NoMatch
            } else {
                Label::Match
            }
        } else {
            truth
        }
    }

    fn questions_asked(&self) -> usize {
        self.oracle.questions_asked()
    }
}

/// The CloudMatcher service: runs tasks, accounts costs, and schedules
/// fragments across engines.
#[derive(Debug, Clone, Copy)]
pub struct CloudMatcher {
    /// Cost/latency model.
    pub cost_model: CostModel,
    /// Batch-engine worker slots for the metamanager simulation (≥ 1;
    /// [`CloudMatcher::run_tasks`] rejects 0 as a configuration error).
    pub batch_slots: usize,
    /// Seed for the simulated annotators.
    pub seed: u64,
    /// Seeded fault plan for the chaos suite; [`FaultPlan::none`] (the
    /// default) runs the service fault-free.
    pub faults: FaultPlan,
}

impl Default for CloudMatcher {
    fn default() -> Self {
        CloudMatcher {
            cost_model: CostModel::default(),
            batch_slots: 4,
            seed: 7,
            faults: FaultPlan::none(),
        }
    }
}

/// Everything the labeling phase of one task produced — shared by
/// [`CloudMatcher::run_task`] (which accounts machine time by wall
/// clock) and the multi-tenant service layer (which must account it on
/// the simulated clock to stay bit-deterministic).
pub(crate) struct LabelRun {
    /// The Falcon run report.
    pub report: FalconReport,
    /// Total questions asked.
    pub questions: usize,
    /// Crowd fees paid (0 for single-user labeling).
    pub crowd_cost: f64,
    /// Which engine answered questions.
    pub label_engine: Engine,
    /// Crowd votes that never arrived.
    pub no_shows: usize,
    /// Questions degraded from the crowd to the submitting user.
    pub degraded: usize,
}

impl LabelRun {
    /// The task's Table 2 row: matches scored against gold, labeling
    /// time and dollars from the cost model, for `machine_time_s` of
    /// compute.
    pub(crate) fn outcome(
        &self,
        spec: &TaskSpec<'_>,
        machine_time_s: f64,
        cm: &CostModel,
    ) -> magellan_table::Result<TaskOutcome> {
        let (a, b) = (spec.table_a, spec.table_b);
        let matches = &self.report.matches;
        let metrics = evaluate_matches(matches, a, b, &spec.a_key, &spec.b_key, spec.gold)?;
        Ok(TaskOutcome {
            name: spec.name.clone(),
            rows: (a.nrows(), b.nrows()),
            precision: metrics.precision(),
            recall: metrics.recall(),
            questions: self.questions,
            crowd_cost: self.crowd_cost,
            compute_cost: cm.compute_dollars(machine_time_s, spec.on_cloud),
            label_time_s: self.questions as f64 * cm.per_question_s(self.label_engine),
            machine_time_s,
            n_candidates: self.report.n_candidates,
            crowd_no_shows: self.no_shows,
            crowd_degraded_questions: self.degraded,
        })
    }
}

/// Run the Falcon workflow for one task under the given labeling mode.
/// A pure function of `(spec, seed, faults, cost model)` — every source
/// of randomness is seeded — which is what makes a tenant's outcome in
/// the service layer byte-identical to its solo run.
pub(crate) fn execute_labeling(
    spec: &TaskSpec<'_>,
    seed: u64,
    faults: FaultPlan,
    cm: &CostModel,
) -> magellan_table::Result<LabelRun> {
    let oracle = OracleLabeler::new(spec.gold.clone(), &spec.a_key, &spec.b_key);
    let falcon = |labeler: &mut dyn Labeler| {
        run_falcon(spec.table_a, spec.table_b, &spec.a_key, &spec.b_key, labeler, &spec.falcon)
    };
    match spec.labeling {
        LabelingMode::SingleUser { error_rate } => {
            let mut labeler = UserLabeler {
                oracle,
                error_rate,
                rng: StdRng::seed_from_u64(seed ^ 0x11),
            };
            Ok(LabelRun {
                report: falcon(&mut labeler)?,
                questions: labeler.questions_asked(),
                crowd_cost: 0.0,
                label_engine: Engine::UserInteraction,
                no_shows: 0,
                degraded: 0,
            })
        }
        LabelingMode::Crowd { worker_error_rate } => {
            let mut labeler = CrowdLabeler {
                oracle,
                votes: cm.crowd_votes,
                worker_error_rate,
                rng: StdRng::seed_from_u64(seed ^ 0x22),
                fees: 0.0,
                fee_per_vote: cm.crowd_fee_per_vote,
                plan: faults,
                next_question: 0,
                no_shows: 0,
                degraded: 0,
            };
            Ok(LabelRun {
                report: falcon(&mut labeler)?,
                questions: labeler.questions_asked(),
                crowd_cost: labeler.fees,
                label_engine: Engine::Crowd,
                no_shows: labeler.no_shows,
                degraded: labeler.degraded,
            })
        }
    }
}

impl CloudMatcher {
    /// Run one task end to end; returns its Table 2 row and its DAG
    /// fragments for the metamanager.
    pub fn run_task(
        &self,
        spec: &TaskSpec<'_>,
    ) -> magellan_table::Result<(TaskOutcome, Vec<Fragment>)> {
        // Key the task span by a stable hash of the task name so traces
        // of multi-task submissions keep one span per task.
        let _task_span =
            magellan_obs::span("falcon_task", magellan_obs::fnv1a(spec.name.as_bytes()));
        let cm = &self.cost_model;
        let t0 = Instant::now();
        let run = execute_labeling(spec, self.seed, self.faults, cm)?;
        let machine_time_s = t0.elapsed().as_secs_f64();
        let outcome = run.outcome(spec, machine_time_s, cm)?;
        let fragments = task_chain(
            run.label_engine,
            cm.per_question_s(run.label_engine),
            (run.report.questions_blocking, run.report.questions_matching),
            machine_time_s,
        );
        Ok((outcome, fragments))
    }

    /// Run several tasks and schedule their fragments — CloudMatcher 1.0's
    /// metamanager ([`schedule_fragments`] under this service's fault
    /// plan). Fragments within a task are a chain; fragments of
    /// different tasks interleave. User-interaction fragments never
    /// contend (each task has its own user), the crowd is effectively
    /// unbounded, and the batch engine has `batch_slots` workers.
    pub fn run_tasks(
        &self,
        specs: &[TaskSpec<'_>],
    ) -> Result<(Vec<TaskOutcome>, ScheduleReport), MagellanError> {
        let mut outcomes = Vec::with_capacity(specs.len());
        let mut chains: Vec<Vec<Fragment>> = Vec::with_capacity(specs.len());
        for spec in specs {
            let (outcome, fragments) = self.run_task(spec)?;
            outcomes.push(outcome);
            chains.push(fragments);
        }
        let opts = ScheduleRecoveryOptions { faults: self.faults, ..Default::default() };
        let schedule = schedule_fragments(&chains, self.batch_slots, &opts)?;
        Ok((outcomes, schedule))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schedule::ScheduleTelemetry;
    use magellan_datagen::domains::persons;
    use magellan_datagen::{DirtModel, ScenarioConfig};

    fn small_falcon() -> FalconConfig {
        FalconConfig {
            sample_size: 300,
            ..Default::default()
        }
    }

    /// The fault-free schedule.
    fn schedule(chains: &[Vec<Fragment>], batch_slots: usize) -> ScheduleReport {
        schedule_fragments(chains, batch_slots, &ScheduleRecoveryOptions::default()).unwrap()
    }

    fn scenario(seed: u64) -> magellan_datagen::EmScenario {
        persons(&ScenarioConfig {
            size_a: 250,
            size_b: 250,
            n_matches: 80,
            dirt: DirtModel::light(),
            seed,
        })
    }

    #[test]
    fn single_user_task_accounts_costs_and_accuracy() {
        let s = scenario(61);
        let cm = CloudMatcher::default();
        let spec = TaskSpec {
            name: "persons".into(),
            table_a: &s.table_a,
            table_b: &s.table_b,
            a_key: "id".into(),
            b_key: "id".into(),
            gold: &s.gold,
            labeling: LabelingMode::SingleUser { error_rate: 0.0 },
            on_cloud: false,
            falcon: small_falcon(),
        };
        let (outcome, fragments) = cm.run_task(&spec).unwrap();
        assert_eq!(outcome.crowd_cost, 0.0);
        assert_eq!(outcome.compute_cost, 0.0);
        assert!(outcome.precision > 0.75, "{outcome:?}");
        assert!(outcome.recall > 0.6, "{outcome:?}");
        assert!(outcome.questions > 0);
        assert!(
            (outcome.label_time_s - outcome.questions as f64 * 6.0).abs() < 1e-9
        );
        assert_eq!(fragments.len(), 4);
        assert!(fragments
            .iter()
            .any(|f| f.engine == Engine::UserInteraction));
    }

    #[test]
    fn crowd_task_costs_dollars_and_is_slower() {
        let s = scenario(62);
        let cm = CloudMatcher::default();
        let spec = TaskSpec {
            name: "persons-crowd".into(),
            table_a: &s.table_a,
            table_b: &s.table_b,
            a_key: "id".into(),
            b_key: "id".into(),
            gold: &s.gold,
            labeling: LabelingMode::Crowd {
                worker_error_rate: 0.1,
            },
            on_cloud: true,
            falcon: small_falcon(),
        };
        let (outcome, _) = cm.run_task(&spec).unwrap();
        let votes = CloudMatcher::default().cost_model.crowd_votes as f64;
        let expected = outcome.questions as f64 * votes * 0.02;
        assert!((outcome.crowd_cost - expected).abs() < 1e-9);
        assert!(outcome.compute_cost > 0.0);
        // Crowd latency dwarfs single-user latency.
        assert!(outcome.label_time_s > outcome.questions as f64 * 80.0);
        // Majority vote largely absorbs 10% worker noise.
        assert!(outcome.precision > 0.7, "{outcome:?}");
    }

    #[test]
    fn metamanager_interleaving_beats_serial() {
        // Synthetic chains: label (no contention) then batch.
        let chains: Vec<Vec<Fragment>> = (0..6)
            .map(|_| {
                vec![
                    Fragment {
                        engine: Engine::UserInteraction,
                        duration_s: 100.0,
                    },
                    Fragment {
                        engine: Engine::Batch,
                        duration_s: 50.0,
                    },
                ]
            })
            .collect();
        let rep = schedule(&chains, 3);
        assert_eq!(rep.serial_total_s, 900.0);
        // 6 users label in parallel (100s), then 6 batch fragments over 3
        // slots (2 waves of 50s) => 200s.
        assert!((rep.interleaved_makespan_s - 200.0).abs() < 1e-9);
        assert!(rep.speedup() > 4.0);
        let batch_busy = rep
            .busy
            .iter()
            .find(|(e, _)| *e == Engine::Batch)
            .unwrap()
            .1;
        assert_eq!(batch_busy, 300.0);
    }

    #[test]
    fn batch_contention_is_respected() {
        let chains: Vec<Vec<Fragment>> = (0..4)
            .map(|_| {
                vec![Fragment {
                    engine: Engine::Batch,
                    duration_s: 10.0,
                }]
            })
            .collect();
        let rep = schedule(&chains, 1);
        assert!((rep.interleaved_makespan_s - 40.0).abs() < 1e-9);
        let rep = schedule(&chains, 4);
        assert!((rep.interleaved_makespan_s - 10.0).abs() < 1e-9);
    }

    #[test]
    fn zero_batch_slots_is_a_typed_error_never_a_panic() {
        let chains = vec![vec![Fragment {
            engine: Engine::Batch,
            duration_s: 10.0,
        }]];
        let err = schedule_fragments(&chains, 0, &ScheduleRecoveryOptions::default()).unwrap_err();
        assert!(matches!(err, MagellanError::Config { .. }), "{err}");
        assert!(err.fatal(), "bad configuration is not retryable");
        assert!(err.to_string().contains("batch_slots"), "{err}");
        let cm = CloudMatcher { batch_slots: 0, ..CloudMatcher::default() };
        let err = cm.run_tasks(&[]).unwrap_err();
        assert!(matches!(err, MagellanError::Config { .. }), "{err}");
    }

    #[test]
    fn empty_schedule_is_zero() {
        let rep = schedule(&[], 2);
        assert_eq!(rep.serial_total_s, 0.0);
        assert_eq!(rep.interleaved_makespan_s, 0.0);
        // Zero-denominator convention: an empty schedule speeds nothing
        // up, so the ratio is the neutral 1.0 — finite, never NaN/∞.
        assert_eq!(rep.speedup(), 1.0);
        assert!(rep.speedup().is_finite());
        assert_eq!(rep.telemetry, ScheduleTelemetry::default());
    }

    fn synthetic_chains() -> Vec<Vec<Fragment>> {
        (0..6)
            .map(|_| {
                vec![
                    Fragment {
                        engine: Engine::Crowd,
                        duration_s: 100.0,
                    },
                    Fragment {
                        engine: Engine::Batch,
                        duration_s: 50.0,
                    },
                ]
            })
            .collect()
    }

    #[test]
    fn recovery_scheduler_without_faults_is_identical() {
        let chains = synthetic_chains();
        let plain = schedule(&chains, 3);
        let none = ScheduleRecoveryOptions { faults: FaultPlan::none(), ..Default::default() };
        let rec = schedule_fragments(&chains, 3, &none).unwrap();
        assert_eq!(plain.interleaved_makespan_s, rec.interleaved_makespan_s);
        assert_eq!(plain.serial_total_s, rec.serial_total_s);
        assert_eq!(plain.busy, rec.busy);
        assert_eq!(rec.telemetry, ScheduleTelemetry::default());
    }

    #[test]
    fn fragment_failures_are_retried_with_backoff() {
        let chains = synthetic_chains();
        let opts = ScheduleRecoveryOptions {
            faults: FaultPlan {
                fragment_failure_per_mille: 1000,
                straggler_per_mille: 0,
                crowd_no_show_per_mille: 0,
                ..FaultPlan::seeded(41)
            },
            ..ScheduleRecoveryOptions::default()
        };
        let rec = schedule_fragments(&chains, 3, &opts).unwrap();
        assert!(rec.telemetry.fragment_retries > 0);
        assert!(rec.telemetry.backoff_s > 0.0);
        let plain = schedule(&chains, 3);
        assert!(rec.interleaved_makespan_s > plain.interleaved_makespan_s);
        // Deterministic: the same plan yields the same schedule.
        let again = schedule_fragments(&chains, 3, &opts).unwrap();
        assert_eq!(rec.interleaved_makespan_s, again.interleaved_makespan_s);
        assert_eq!(rec.telemetry, again.telemetry);
    }

    #[test]
    fn straggling_batch_fragments_get_speculative_backups() {
        let chains = synthetic_chains();
        let opts = ScheduleRecoveryOptions {
            faults: FaultPlan {
                straggler_per_mille: 1000,
                straggler_factor_x100: 400, // 4x stragglers
                fragment_failure_per_mille: 0,
                crowd_no_show_per_mille: 0,
                ..FaultPlan::seeded(42)
            },
            ..ScheduleRecoveryOptions::default()
        };
        let rec = schedule_fragments(&chains, 3, &opts).unwrap();
        assert_eq!(rec.telemetry.speculative_launched, 6);
        assert_eq!(rec.telemetry.speculative_wins, 6, "2x backup beats 4x straggler");
        // Every batch fragment finishes at 2x nominal, not 4x.
        let plain = schedule(&chains, 3);
        assert!(rec.interleaved_makespan_s < plain.interleaved_makespan_s * 4.0);
        // The backup copies burn extra batch busy-seconds.
        let batch_busy = rec.busy.iter().find(|(e, _)| *e == Engine::Batch).unwrap().1;
        let plain_busy = plain.busy.iter().find(|(e, _)| *e == Engine::Batch).unwrap().1;
        assert!(batch_busy > plain_busy);
    }

    #[test]
    fn straggler_over_budget_is_killed_and_rerun_at_nominal() {
        let chains = vec![vec![Fragment {
            engine: Engine::Batch,
            duration_s: 10.0,
        }]];
        let opts = ScheduleRecoveryOptions {
            faults: FaultPlan {
                straggler_per_mille: 1000,
                straggler_factor_x100: 10_000, // 100x: hopeless straggler
                fragment_failure_per_mille: 0,
                crowd_no_show_per_mille: 0,
                ..FaultPlan::seeded(43)
            },
            fragment_timeout_s: 30.0,
            ..ScheduleRecoveryOptions::default()
        };
        let rec = schedule_fragments(&chains, 1, &opts).unwrap();
        assert_eq!(rec.telemetry.fragments_timed_out, 1);
        assert_eq!(rec.telemetry.speculative_launched, 0);
        // Cost: 30s killed attempt + backoff + 10s nominal rerun — far
        // below the 1000s the straggler would have taken.
        assert!(rec.interleaved_makespan_s < 100.0, "{rec:?}");
        assert!(rec.interleaved_makespan_s >= 40.0);
    }

    #[test]
    fn abandoned_crowd_fragments_degrade_to_single_user() {
        let chains = synthetic_chains();
        let opts = ScheduleRecoveryOptions {
            faults: FaultPlan {
                crowd_no_show_per_mille: 1000,
                fragment_failure_per_mille: 0,
                straggler_per_mille: 0,
                ..FaultPlan::seeded(44)
            },
            ..ScheduleRecoveryOptions::default()
        };
        let rec = schedule_fragments(&chains, 3, &opts).unwrap();
        assert_eq!(rec.telemetry.fragments_rerouted, 6);
        // The degraded fragments now run on the user engine.
        let user_busy = rec
            .busy
            .iter()
            .find(|(e, _)| *e == Engine::UserInteraction)
            .map(|(_, b)| *b)
            .unwrap_or(0.0);
        assert!(user_busy > 0.0);
        assert!(rec.busy.iter().all(|(e, b)| *e != Engine::Crowd || *b == 0.0));
    }

    #[test]
    fn crowd_labeler_replaces_no_shows_and_degrades_when_abandoned() {
        let s = scenario(63);
        let mut cm = CloudMatcher::default();
        cm.faults = FaultPlan {
            crowd_no_show_per_mille: 300,
            ..FaultPlan::none()
        };
        cm.faults.seed = 9;
        let spec = TaskSpec {
            name: "persons-flaky-crowd".into(),
            table_a: &s.table_a,
            table_b: &s.table_b,
            a_key: "id".into(),
            b_key: "id".into(),
            gold: &s.gold,
            labeling: LabelingMode::Crowd {
                worker_error_rate: 0.1,
            },
            on_cloud: false,
            falcon: small_falcon(),
        };
        let (outcome, _) = cm.run_task(&spec).unwrap();
        assert!(outcome.crowd_no_shows > 0, "{outcome:?}");
        // Accuracy survives the flaky crowd: replacements + degradation
        // keep the majority signal intact.
        assert!(outcome.precision > 0.7, "{outcome:?}");
        // Fees are only paid for delivered votes.
        let max_fee = outcome.questions as f64
            * cm.cost_model.crowd_votes as f64
            * cm.cost_model.crowd_fee_per_vote;
        assert!(outcome.crowd_cost <= max_fee + 1e-9);

        // A crowd that never shows up degrades every question to the
        // submitting user: zero fees, oracle-grade answers.
        let mut dead = CloudMatcher::default();
        dead.faults = FaultPlan {
            crowd_no_show_per_mille: 1000,
            ..FaultPlan::none()
        };
        dead.faults.seed = 9;
        let (outcome, _) = dead.run_task(&spec).unwrap();
        assert_eq!(outcome.crowd_degraded_questions, outcome.questions);
        assert_eq!(outcome.crowd_cost, 0.0);
        assert!(outcome.precision > 0.75, "{outcome:?}");
    }

    #[test]
    fn faulted_cloudmatcher_outcome_matches_are_unchanged() {
        // Fault injection at the schedule level must not perturb the EM
        // results themselves: same seed, same precision/recall.
        let s = scenario(64);
        let spec = |_name: &str| TaskSpec {
            name: "persons".into(),
            table_a: &s.table_a,
            table_b: &s.table_b,
            a_key: "id".into(),
            b_key: "id".into(),
            gold: &s.gold,
            labeling: LabelingMode::SingleUser { error_rate: 0.0 },
            on_cloud: false,
            falcon: small_falcon(),
        };
        let clean = CloudMatcher::default();
        let mut chaotic = CloudMatcher::default();
        chaotic.faults = FaultPlan::seeded(77);
        let (a, _) = clean.run_task(&spec("a")).unwrap();
        let (b, _) = chaotic.run_task(&spec("b")).unwrap();
        assert_eq!(a.precision, b.precision);
        assert_eq!(a.recall, b.recall);
        assert_eq!(a.n_candidates, b.n_candidates);
        assert_eq!(a.questions, b.questions);
    }
}
