//! # magellan-falcon — self-service EM (Falcon + CloudMatcher)
//!
//! The paper's second thrust (§5): EM for *lay users* who can only answer
//! "do these two tuples match?".
//!
//! * [`active`] — query-by-committee active learning over a random forest:
//!   each round labels the pool items the trees disagree on most (vote
//!   entropy), which is what keeps Table 2's question counts in the
//!   160–1200 range instead of thousands.
//! * [`rules`] — extraction of candidate blocking rules from every
//!   root→"No"-leaf path of the forest's trees (Fig. 4), precision
//!   evaluation against labeled pairs, and conversion of the executable
//!   subset into a `magellan-block` rule blocker.
//! * [`workflow`] — the end-to-end Falcon workflow (Fig. 3): sample →
//!   active-learn forest → extract + verify blocking rules → execute rules
//!   → active-learn matcher on the candidate set → predict at the vote
//!   threshold α.
//! * [`cloud`] — CloudMatcher: concurrent EM workflows decomposed into
//!   engine-tagged fragments (user-interaction / crowd / batch), and the
//!   cost/latency accounting behind Table 2's crowd-$, compute-$ and time
//!   columns.
//! * [`schedule`] — the one *metamanager* core both [`cloud`] and
//!   [`service`] place fragments through: fault resolution, per-engine
//!   slots, and one placement order (earliest start, priority, virtual
//!   time, lane id).
//! * [`service`] — the multi-tenant CloudMatcher service core: admission
//!   control against Table 2 budget currencies, weighted fair-share +
//!   priority lanes on the [`schedule`] core, and policy-driven graceful
//!   degradation (shed crowd → disable speculation → downgrade
//!   priority), all bit-deterministic.
//! * [`services`] — the Table 4 service registry (basic + composite).
//! * [`smurf`] — Smurf-lite: learning blocking rules *without* labels via
//!   confident pseudo-labels, reproducing the §5.3 claim of a 43–76%
//!   labeling-effort reduction at equal accuracy.

#![warn(missing_docs)]

pub mod active;
pub mod cloud;
pub mod rules;
pub mod schedule;
pub mod service;
pub mod services;
pub mod smurf;
pub mod workflow;

pub use active::{active_learn, ActiveLearnConfig, ActiveLearnOutcome};
pub use cloud::{CloudMatcher, CostModel, LabelingMode, TaskOutcome, TaskSpec};
pub use schedule::{
    schedule_fragments, Engine, Fragment, Priority, ScheduleRecoveryOptions, ScheduleReport,
    ScheduleTelemetry,
};
pub use service::{
    estimate_workload, Admission, DegradationPolicy, DegradationRule, DegradeAction,
    DegradeTrigger, MatchService, RejectReason, ServiceConfig, ServiceCostModel,
    ServiceReport, ServiceTelemetry, SyntheticTask, TenantQuota, TenantReport, TenantSpec,
    TenantSubmission, Workload, WorkloadEstimate,
};
pub use rules::{extract_blocking_rules, ExtractedRule};
pub use workflow::{run_falcon, FalconConfig, FalconReport};
