//! The service checkpoint (`emsvc v2`): completed tenant workload runs,
//! restored at start and appended to after every fresh run, so a killed
//! service resumes to a report bit-identical to an uninterrupted one.

use std::collections::BTreeMap;

use magellan_core::checkpoint::CheckpointStore;
use magellan_core::MagellanError;
use magellan_faults::{run_with_retry, SimClock};
use magellan_obs::EvVal;
use magellan_table::segment::{self, SegmentError, SegmentReader};

use super::{run_workload, ServiceConfig, TenantSubmission, Workload, WorkloadRun};
use crate::cloud::TaskOutcome;
use crate::schedule::Engine;

const SVC_MAGIC: &str = "emsvc v2";

/// One segment: `count:u64`, then per completed run its submission
/// index, eight integers and six IEEE-754 bit patterns (15 × u64).
const SEG_RUNS: u32 = 1;

const RUN_WORDS: usize = 15;

/// Serialize completed workload runs as `emsvc v2`. Floats are stored as
/// bit patterns so restoration is byte-identical.
fn runs_to_bytes(runs: &BTreeMap<usize, WorkloadRun>) -> Vec<u8> {
    let mut payload = Vec::with_capacity(8 + runs.len() * RUN_WORDS * 8);
    payload.extend_from_slice(&(runs.len() as u64).to_le_bytes());
    for (&i, r) in runs {
        let o = &r.outcome;
        let ints = [
            i,
            r.questions_blocking,
            r.questions_matching,
            o.questions,
            o.n_candidates,
            o.crowd_no_shows,
            o.crowd_degraded_questions,
            o.rows.0,
            o.rows.1,
        ];
        let floats = [
            o.precision,
            o.recall,
            o.crowd_cost,
            o.compute_cost,
            o.label_time_s,
            o.machine_time_s,
        ];
        for w in ints
            .map(|v| v as u64)
            .into_iter()
            .chain(floats.map(f64::to_bits))
        {
            payload.extend_from_slice(&w.to_le_bytes());
        }
    }
    segment::encode(SVC_MAGIC, &[(SEG_RUNS, &payload)])
}

fn svc_corrupt(msg: impl std::fmt::Display) -> MagellanError {
    MagellanError::Checkpoint {
        message: format!("corrupt service checkpoint: {msg}"),
        transient: false,
    }
}

/// Parse `emsvc v2` back into the completed-run map. Names and label
/// engines are reattached from the submissions at resume time, so only
/// the deterministic numbers are stored.
fn runs_from_bytes(
    data: &[u8],
    subs: &[TenantSubmission<'_>],
) -> Result<BTreeMap<usize, WorkloadRun>, MagellanError> {
    let read = || -> Result<Vec<u64>, SegmentError> {
        let mut file = SegmentReader::open(data, SVC_MAGIC)?;
        let mut f = file.expect(SEG_RUNS)?.fields();
        let n = f.count(RUN_WORDS * 8)? * RUN_WORDS;
        let words = (0..n).map(|_| f.u64()).collect::<Result<_, _>>()?;
        f.end()?;
        file.finish()?;
        Ok(words)
    };
    let mut runs = BTreeMap::new();
    for row in read().map_err(svc_corrupt)?.chunks_exact(RUN_WORDS) {
        let idx = row[0] as usize;
        // The writer emits strictly increasing indices; a repeat would
        // silently overwrite a run.
        if let Some((&last, _)) = runs.last_key_value() {
            if idx <= last {
                return Err(svc_corrupt(format!(
                    "run index {idx} does not follow {last}"
                )));
            }
        }
        let ints: Vec<usize> = row[1..9].iter().map(|&w| w as usize).collect();
        let bits = &row[9..];
        let sub = subs
            .get(idx)
            .ok_or_else(|| svc_corrupt(format!("run index {idx} out of range")))?;
        let crowd = match &sub.workload {
            Workload::Em(spec) => matches!(spec.labeling, crate::cloud::LabelingMode::Crowd { .. }),
            Workload::Synthetic(s) => s.crowd,
        };
        let name = match &sub.workload {
            Workload::Em(spec) => spec.name.clone(),
            Workload::Synthetic(_) => sub.tenant.name.clone(),
        };
        runs.insert(
            idx,
            WorkloadRun {
                outcome: TaskOutcome {
                    name,
                    rows: (ints[6], ints[7]),
                    precision: f64::from_bits(bits[0]),
                    recall: f64::from_bits(bits[1]),
                    questions: ints[2],
                    crowd_cost: f64::from_bits(bits[2]),
                    compute_cost: f64::from_bits(bits[3]),
                    label_time_s: f64::from_bits(bits[4]),
                    machine_time_s: f64::from_bits(bits[5]),
                    n_candidates: ints[3],
                    crowd_no_shows: ints[4],
                    crowd_degraded_questions: ints[5],
                },
                questions_blocking: ints[0],
                questions_matching: ints[1],
                label_engine: if crowd {
                    Engine::Crowd
                } else {
                    Engine::UserInteraction
                },
            },
        );
    }
    Ok(runs)
}

/// Completed workload runs: restored from the `emsvc v2` checkpoint at
/// start, appended to it after every fresh run.
pub(super) struct RunLog<'s> {
    runs: BTreeMap<usize, WorkloadRun>,
    store: Option<&'s mut dyn CheckpointStore>,
    io_clock: SimClock,
    /// Workloads run in this process (the chaos kill hook counts these).
    fresh: u32,
}

impl<'s> RunLog<'s> {
    pub(super) fn open(
        mut store: Option<&'s mut dyn CheckpointStore>,
        subs: &[TenantSubmission<'_>],
        cfg: &ServiceConfig,
    ) -> Result<Self, MagellanError> {
        let mut io_clock = SimClock::new();
        let mut runs = BTreeMap::new();
        if let Some(s) = store.as_mut() {
            let loaded = run_with_retry(&cfg.recovery.retry, &mut io_clock, |_| s.load_bytes())?;
            if let Some(bytes) = loaded {
                runs = runs_from_bytes(&bytes, subs)?;
            }
        }
        if !runs.is_empty() {
            magellan_obs::event(
                "service_resumed",
                &[("restored_runs", EvVal::U(runs.len() as u64))],
            );
        }
        Ok(RunLog {
            runs,
            store,
            io_clock,
            fresh: 0,
        })
    }

    /// Tenant `i`'s run: restored, or run now and checkpointed — and the
    /// process killed here if the chaos hook says so.
    pub(super) fn get_or_run(
        &mut self,
        i: usize,
        subs: &[TenantSubmission<'_>],
        cfg: &ServiceConfig,
    ) -> Result<WorkloadRun, MagellanError> {
        if let Some(r) = self.runs.get(&i) {
            return Ok(r.clone());
        }
        let r = run_workload(&subs[i], cfg)?;
        self.runs.insert(i, r.clone());
        self.fresh += 1;
        if let Some(s) = self.store.as_mut() {
            let bytes = runs_to_bytes(&self.runs);
            run_with_retry(&cfg.recovery.retry, &mut self.io_clock, |_| {
                s.save_bytes(&bytes)
            })?;
        }
        if cfg.kill_after_tenants == Some(self.fresh) {
            let after = EvVal::U(u64::from(self.fresh));
            magellan_obs::event("service_killed", &[("after_runs", after)]);
            return Err(MagellanError::Killed {
                after_phase: "service",
            });
        }
        Ok(r)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::service::tests::synth;
    use crate::service::{MatchService, TenantQuota};
    use magellan_core::checkpoint::MemStore;

    #[test]
    fn corrupt_service_checkpoints_are_fatal_not_half_parsed() {
        let subs = vec![synth(0, 0.0, false, TenantQuota::unlimited())];
        let svc = MatchService::new(ServiceConfig::default()).unwrap();
        let resume = |bytes: &[u8]| {
            let mut store = MemStore::default();
            store.save_bytes(bytes).unwrap();
            svc.run_with_checkpoint(&subs, &mut store).unwrap_err()
        };

        let mut runs = BTreeMap::new();
        runs.insert(0usize, run_workload(&subs[0], &svc.config).unwrap());
        let good = runs_to_bytes(&runs);
        assert!(runs_from_bytes(&good, &subs).is_ok());

        // A torn write: the runs segment cut before its checksum.
        let err = resume(&good[..good.len() - 24 - 8]);
        assert!(err.fatal() && err.to_string().contains("checksum"), "{err}");

        // The run index flipped under a stale checksum.
        let mut tampered = good.clone();
        tampered[16 + 16 + 8] = 9;
        let err = resume(&tampered);
        assert!(
            err.fatal() && err.to_string().contains("checksum mismatch"),
            "{err}"
        );

        // Re-sealed, the same edit reaches the range check.
        let payload = &good[16 + 16..good.len() - 24 - 8];
        let mut edited = payload.to_vec();
        edited[8] = 9;
        let err = resume(&segment::encode(SVC_MAGIC, &[(SEG_RUNS, &edited)]));
        assert!(
            err.to_string().contains("run index 9 out of range"),
            "{err}"
        );

        // Bad magic is diagnosed as such, naming what was found.
        let err = resume(b"emckpt v1\n");
        assert!(err.to_string().contains("bad magic"), "{err}");
        let err = resume(b"emsvc v1\nruns 0\nend\n");
        assert!(
            err.fatal() && err.to_string().contains("found `emsvc v1`"),
            "{err}"
        );
    }

    #[test]
    fn emsvc_restore_rejects_a_repeated_or_decreasing_run_index() {
        let subs: Vec<_> = (0..2)
            .map(|i| synth(i, 0.0, false, TenantQuota::unlimited()))
            .collect();
        let cfg = ServiceConfig::default();
        let mut runs = BTreeMap::new();
        for (i, sub) in subs.iter().enumerate() {
            runs.insert(i, run_workload(sub, &cfg).unwrap());
        }
        let good = runs_to_bytes(&runs);
        assert_eq!(runs_from_bytes(&good, &subs).unwrap().len(), 2);
        // Re-seal the runs segment with the indices rewritten, so only
        // the order check can object.
        let payload = &good[16 + 16..good.len() - 24 - 8];
        for (first, second, msg) in [
            (0u64, 0u64, "run index 0 does not follow 0"),
            (1, 0, "run index 0 does not follow 1"),
        ] {
            let mut edited = payload.to_vec();
            edited[8..16].copy_from_slice(&first.to_le_bytes());
            edited[8 + RUN_WORDS * 8..16 + RUN_WORDS * 8].copy_from_slice(&second.to_le_bytes());
            let resealed = segment::encode(SVC_MAGIC, &[(SEG_RUNS, &edited)]);
            let err = runs_from_bytes(&resealed, &subs).unwrap_err();
            assert!(err.fatal() && err.to_string().contains(msg), "{err}");
        }
    }

    #[test]
    fn service_checkpoints_roundtrip_float_bits_exactly() {
        let subs: Vec<_> = (0..3)
            .map(|i| synth(i, 0.0, i == 1, TenantQuota::unlimited()))
            .collect();
        let cfg = ServiceConfig::default();
        let mut runs = BTreeMap::new();
        for (i, sub) in subs.iter().enumerate() {
            runs.insert(i, run_workload(sub, &cfg).unwrap());
        }
        let bytes = runs_to_bytes(&runs);
        let back = runs_from_bytes(&bytes, &subs).unwrap();
        assert_eq!(back.len(), 3);
        for (i, r) in &runs {
            let b = &back[i];
            assert_eq!(b.outcome, r.outcome);
            assert_eq!(b.questions_blocking, r.questions_blocking);
            assert_eq!(b.questions_matching, r.questions_matching);
            assert_eq!(b.label_engine, r.label_engine);
        }
    }

    #[test]
    fn emsvc_bytes_are_pinned() {
        let subs: Vec<_> = (0..5)
            .map(|i| synth(i, 0.0, i % 2 == 1, TenantQuota::unlimited()))
            .collect();
        let cfg = ServiceConfig::default();
        let mut runs = BTreeMap::new();
        for i in [0, 1, 3, 4] {
            runs.insert(i, run_workload(&subs[i], &cfg).unwrap());
        }
        let bytes = runs_to_bytes(&runs);
        assert_eq!(
            (bytes.len(), magellan_obs::fnv1a(&bytes)),
            (552, 13993758644846044057)
        );
    }
}
