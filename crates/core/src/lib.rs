//! # magellan-core — PyMatcher
//!
//! The paper's primary contribution for power users: an ecosystem of
//! interoperable EM tools organized around the *development-stage* how-to
//! guide (Fig. 2) and a *production-stage* executor.
//!
//! The development-stage guide, as implemented by [`pipeline`]:
//!
//! 1. **down-sample** the two input tables ([`downsample`] — the paper's
//!    "intelligently down sampling two tables ... is tricky" pain-point
//!    tool);
//! 2. **select a blocker** by experimenting with several and comparing
//!    label-free recall estimates (`magellan-block`'s debugger);
//! 3. **block** to get the candidate set `C`;
//! 4. **sample** `S ⊂ C` and **label** it ([`sample`], [`labeling`]);
//! 5. **cross-validate** several learners and select the best matcher
//!    (`magellan-ml`);
//! 6. **predict** over `C`, optionally post-processed by a hand-crafted
//!    [`rules::RuleLayer`] (the paper: "the most accurate EM workflows are
//!    likely to involve a combination of ML and rules");
//! 7. **quality-check** on held-out labels and iterate.
//!
//! The resulting artifact is an [`workflow::EmWorkflow`] — the Rust
//! equivalent of the captured Python script `W` — which the
//! production-stage executor ([`exec`]) runs over the full tables on
//! multiple cores (the role Dask plays in the paper).
//!
//! ## Parallel execution ([`par`])
//!
//! Every hot loop in the stack — blocking, sim-joins, feature extraction,
//! forest training, batch prediction, active-learning scoring — runs on
//! one shared work-stealing chunk executor, re-exported here as
//! [`par`] (`magellan-par`). Its determinism contract: parallel output is
//! **bit-identical to serial for any worker count**, enforced end to end
//! by `crates/core/tests/par_determinism.rs`. [`exec::ProductionExecutor`]
//! surfaces each phase's [`par::ParStats`] (pairs/sec, chunks stolen,
//! per-worker busy time) in its [`exec::ProductionReport`].
//!
//! [`registry`] catalogs every user-facing command by guide step and
//! origin, regenerating the paper's Table 3.

#![warn(missing_docs)]

pub mod checkpoint;
pub mod clean;
pub mod debug;
pub mod downsample;
pub mod error;
pub mod evaluate;
pub mod exec;
pub mod interactive;
pub mod labeling;
pub mod persist;
pub mod pipeline;
pub mod registry;
pub mod rules;
pub mod sample;
pub mod stream;
pub mod workflow;

pub use magellan_par as par;

pub use checkpoint::{Checkpoint, CheckpointStore, FileStore, FlakyStore, MemStore, Phase};
pub use error::MagellanError;

pub use labeling::{Label, Labeler, NoisyLabeler, OracleLabeler, RecordingLabeler};
pub use pipeline::{DevConfig, DevReport};
pub use rules::{Cmp, MatchRule, RuleAction, RuleLayer};
pub use stream::{StreamBatchReport, StreamSession, TextGen};
pub use workflow::EmWorkflow;
