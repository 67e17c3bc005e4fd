//! Admission control: every submission is estimated in the currencies of
//! Table 2 and checked against its tenant's quota, then activated, queued
//! or rejected by current load. Both steps are pure functions of the
//! submission, the cost models and the load, so admission decisions never
//! depend on execution state.

use super::{ServiceConfig, TenantSubmission, Workload};

/// Per-tenant quotas in the currencies of Table 2. `f64::INFINITY`
/// disables a cap.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TenantQuota {
    /// Cap on labeling dollars (crowd fees).
    pub label_dollars: f64,
    /// Cap on metered compute dollars.
    pub compute_dollars: f64,
    /// Cap on machine time, simulated seconds.
    pub machine_time_s: f64,
}

impl TenantQuota {
    /// No caps.
    pub fn unlimited() -> Self {
        TenantQuota {
            label_dollars: f64::INFINITY,
            compute_dollars: f64::INFINITY,
            machine_time_s: f64::INFINITY,
        }
    }
}

/// Why a submission was rejected at admission.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RejectReason {
    /// The workload estimate exceeds the named quota currency.
    Quota {
        /// `"label_dollars"`, `"compute_dollars"`, or `"machine_time_s"`.
        currency: &'static str,
    },
    /// Active set and admission queue are both full (overload shed).
    QueueFull,
}

impl std::fmt::Display for RejectReason {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RejectReason::Quota { currency } => write!(f, "quota_exceeded:{currency}"),
            RejectReason::QueueFull => write!(f, "queue_full"),
        }
    }
}

/// The admission controller's decision for one tenant.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Admission {
    /// Activated on arrival.
    Admitted,
    /// Held in the bounded queue, activated when a slot freed up.
    AdmittedAfterQueue,
    /// Never ran.
    Rejected(RejectReason),
}

impl Admission {
    /// Did this tenant's workload run?
    pub fn accepted(&self) -> bool {
        !matches!(self, Admission::Rejected(_))
    }
}

/// The Table 2 currencies a workload is estimated to consume; what the
/// admission controller charges against the tenant's quota.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct WorkloadEstimate {
    /// Estimated labeling dollars.
    pub label_dollars: f64,
    /// Estimated compute dollars.
    pub compute_dollars: f64,
    /// Estimated machine time, simulated seconds.
    pub machine_time_s: f64,
}

/// Estimate a workload without running it — a pure function of the
/// submission and the cost models, so admission decisions never depend
/// on execution state. A synthetic workload spends exactly its estimate.
pub fn estimate_workload(sub: &TenantSubmission<'_>, cfg: &ServiceConfig) -> WorkloadEstimate {
    let cm = &cfg.cost_model;
    let (questions, crowd, rows, n_candidates, on_cloud) = match &sub.workload {
        Workload::Em(spec) => (
            spec.falcon.sample_size as f64,
            matches!(spec.labeling, crate::cloud::LabelingMode::Crowd { .. }),
            (spec.table_a.nrows(), spec.table_b.nrows()),
            0usize, // candidates unknown before blocking; the machine
            // budget covers the gap at run time via degradation
            spec.on_cloud,
        ),
        Workload::Synthetic(s) => (
            (s.questions_blocking + s.questions_matching) as f64,
            s.crowd,
            s.rows,
            s.n_candidates,
            s.on_cloud,
        ),
    };
    let machine_time_s = cfg.svc_cost.machine_s(rows, n_candidates);
    WorkloadEstimate {
        label_dollars: if crowd {
            cm.crowd_dollars(questions)
        } else {
            0.0
        },
        compute_dollars: cm.compute_dollars(machine_time_s, on_cloud),
        machine_time_s,
    }
}

/// Admission decision for one submission given current load — pure in
/// `(estimate, quota, active, queued, limits)`: `Ok(true)` activates now,
/// `Ok(false)` queues.
pub(super) fn admit(
    est: &WorkloadEstimate,
    quota: &TenantQuota,
    active_now: usize,
    queued_now: usize,
    cfg: &ServiceConfig,
) -> Result<bool, RejectReason> {
    if est.label_dollars > quota.label_dollars {
        return Err(RejectReason::Quota {
            currency: "label_dollars",
        });
    }
    if est.compute_dollars > quota.compute_dollars {
        return Err(RejectReason::Quota {
            currency: "compute_dollars",
        });
    }
    if est.machine_time_s > quota.machine_time_s {
        return Err(RejectReason::Quota {
            currency: "machine_time_s",
        });
    }
    if active_now < cfg.max_active_tenants {
        Ok(true) // activate now
    } else if queued_now < cfg.max_queue {
        Ok(false) // queue
    } else {
        Err(RejectReason::QueueFull)
    }
}
