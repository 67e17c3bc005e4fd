//! The command registry: which user-facing commands exist, for which step
//! of the how-to guide, and where they came from — the data behind the
//! paper's Table 3 ("Developing tools for the steps of the guide").

use std::fmt;

/// The steps of the PyMatcher development-stage guide (Table 3, column A).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum GuideStep {
    /// Read/write data.
    ReadWriteData,
    /// Down sample.
    DownSample,
    /// Data exploration.
    DataExploration,
    /// Blocking.
    Blocking,
    /// Sampling.
    Sampling,
    /// Labeling.
    Labeling,
    /// Creating feature vectors.
    CreatingFeatureVectors,
    /// Matching.
    Matching,
    /// Computing accuracy.
    ComputingAccuracy,
    /// Adding rules.
    AddingRules,
    /// Managing metadata.
    ManagingMetadata,
}

impl GuideStep {
    /// All steps in guide order.
    pub fn all() -> &'static [GuideStep] {
        &[
            GuideStep::ReadWriteData,
            GuideStep::DownSample,
            GuideStep::DataExploration,
            GuideStep::Blocking,
            GuideStep::Sampling,
            GuideStep::Labeling,
            GuideStep::CreatingFeatureVectors,
            GuideStep::Matching,
            GuideStep::ComputingAccuracy,
            GuideStep::AddingRules,
            GuideStep::ManagingMetadata,
        ]
    }
}

impl fmt::Display for GuideStep {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            GuideStep::ReadWriteData => "Read/Write Data",
            GuideStep::DownSample => "Down Sample",
            GuideStep::DataExploration => "Data Exploration",
            GuideStep::Blocking => "Blocking",
            GuideStep::Sampling => "Sampling",
            GuideStep::Labeling => "Labeling",
            GuideStep::CreatingFeatureVectors => "Creating Feature Vectors",
            GuideStep::Matching => "Matching",
            GuideStep::ComputingAccuracy => "Computing Accuracy",
            GuideStep::AddingRules => "Adding Rules",
            GuideStep::ManagingMetadata => "Managing Metadata",
        };
        f.write_str(s)
    }
}

/// Where a command came from (Table 3, columns B–D).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CommandOrigin {
    /// Re-used substrate functionality (pandas/scikit-learn role).
    ExistingPackage,
    /// Written for the ecosystem.
    OwnCode,
    /// A dedicated pain-point tool.
    PainPointTool,
}

/// One user-facing command.
#[derive(Debug, Clone)]
pub struct Command {
    /// Qualified name, `crate::path::function`.
    pub name: &'static str,
    /// Guide step it serves.
    pub step: GuideStep,
    /// Origin class.
    pub origin: CommandOrigin,
}

/// The full command registry of the Magellan-rs ecosystem. This is the
/// machine-readable equivalent of the paper's Table 3 and regenerates it.
pub fn commands() -> Vec<Command> {
    use CommandOrigin::*;
    use GuideStep::*;
    let c = |name, step, origin| Command { name, step, origin };
    vec![
        // Read/write data.
        c("magellan_table::csv::read_csv", ReadWriteData, OwnCode),
        c("magellan_table::csv::read_csv_path", ReadWriteData, OwnCode),
        c("magellan_table::csv::write_csv", ReadWriteData, OwnCode),
        c(
            "magellan_table::csv::write_csv_path",
            ReadWriteData,
            OwnCode,
        ),
        c("magellan_table::Table::from_rows", ReadWriteData, OwnCode),
        c("magellan_table::Table::project", ReadWriteData, OwnCode),
        // Down sample.
        c(
            "magellan_core::downsample::down_sample",
            DownSample,
            PainPointTool,
        ),
        c(
            "magellan_core::downsample::down_sample_indices",
            DownSample,
            PainPointTool,
        ),
        // Data exploration.
        c(
            "magellan_table::profile::profile_table",
            DataExploration,
            ExistingPackage,
        ),
        c(
            "magellan_table::profile::profile_column",
            DataExploration,
            ExistingPackage,
        ),
        c(
            "magellan_table::profile::key_candidates",
            DataExploration,
            ExistingPackage,
        ),
        // Blocking.
        c("magellan_block::AttrEquivalenceBlocker", Blocking, OwnCode),
        c("magellan_block::HashBlocker", Blocking, OwnCode),
        c("magellan_block::OverlapBlocker", Blocking, OwnCode),
        c("magellan_block::SimJoinBlocker", Blocking, OwnCode),
        c(
            "magellan_block::SortedNeighborhoodBlocker",
            Blocking,
            OwnCode,
        ),
        c("magellan_block::BlackBoxBlocker", Blocking, OwnCode),
        c("magellan_block::RuleBasedBlocker", Blocking, OwnCode),
        c("magellan_block::CandidateSet::union", Blocking, OwnCode),
        c("magellan_block::CandidateSet::intersect", Blocking, OwnCode),
        c("magellan_block::CandidateSet::minus", Blocking, OwnCode),
        c("magellan_simjoin::set_sim_join", Blocking, OwnCode),
        c("magellan_simjoin::set_sim_join_parallel", Blocking, OwnCode),
        c(
            "magellan_simjoin::editjoin::edit_distance_join",
            Blocking,
            OwnCode,
        ),
        c(
            "magellan_textsim::tokenize::QgramTokenizer",
            Blocking,
            OwnCode,
        ),
        c(
            "magellan_textsim::tokenize::AlphanumericTokenizer",
            Blocking,
            OwnCode,
        ),
        c(
            "magellan_textsim::tokenize::WhitespaceTokenizer",
            Blocking,
            OwnCode,
        ),
        c(
            "magellan_textsim::tokenize::DelimiterTokenizer",
            Blocking,
            OwnCode,
        ),
        c(
            "magellan_block::debugger::debug_blocker",
            Blocking,
            PainPointTool,
        ),
        c(
            "magellan_block::debugger::estimate_recall",
            Blocking,
            PainPointTool,
        ),
        c(
            "magellan_block::metrics::evaluate_blocking",
            Blocking,
            OwnCode,
        ),
        c("magellan_block::CandidateSet::to_table", Blocking, OwnCode),
        c("magellan_block::dedup::dedup_block", Blocking, OwnCode),
        c(
            "magellan_table::csv::read_csv_infer",
            ReadWriteData,
            OwnCode,
        ),
        // Sampling.
        c(
            "magellan_core::sample::sample_pairs",
            Sampling,
            ExistingPackage,
        ),
        c(
            "magellan_core::sample::sample_positions",
            Sampling,
            ExistingPackage,
        ),
        // Labeling.
        c("magellan_core::labeling::OracleLabeler", Labeling, OwnCode),
        c("magellan_core::labeling::NoisyLabeler", Labeling, OwnCode),
        c(
            "magellan_core::labeling::RecordingLabeler",
            Labeling,
            PainPointTool,
        ),
        c(
            "magellan_core::interactive::InteractiveLabeler",
            Labeling,
            PainPointTool,
        ),
        // Creating feature vectors.
        c(
            "magellan_features::generate_features",
            CreatingFeatureVectors,
            PainPointTool,
        ),
        c(
            "magellan_features::Feature::new",
            CreatingFeatureVectors,
            PainPointTool,
        ),
        c(
            "magellan_features::extract_feature_matrix",
            CreatingFeatureVectors,
            OwnCode,
        ),
        c(
            "magellan_features::infer_attr_type",
            CreatingFeatureVectors,
            OwnCode,
        ),
        c("magellan_textsim::seqsim", CreatingFeatureVectors, OwnCode),
        c("magellan_textsim::setsim", CreatingFeatureVectors, OwnCode),
        c(
            "magellan_textsim::corpsim::TfIdfModel",
            CreatingFeatureVectors,
            OwnCode,
        ),
        // Matching.
        c(
            "magellan_ml::DecisionTreeLearner",
            Matching,
            ExistingPackage,
        ),
        c(
            "magellan_ml::RandomForestLearner",
            Matching,
            ExistingPackage,
        ),
        c(
            "magellan_ml::LogisticRegressionLearner",
            Matching,
            ExistingPackage,
        ),
        c("magellan_ml::LinearSvmLearner", Matching, ExistingPackage),
        c(
            "magellan_ml::naive_bayes::GaussianNbLearner",
            Matching,
            ExistingPackage,
        ),
        c("magellan_ml::knn::KnnLearner", Matching, ExistingPackage),
        c("magellan_ml::cv::cross_validate", Matching, ExistingPackage),
        c("magellan_ml::cv::select_matcher", Matching, OwnCode),
        c(
            "magellan_core::pipeline::run_development_stage",
            Matching,
            OwnCode,
        ),
        c("magellan_core::exec::ProductionExecutor", Matching, OwnCode),
        c("magellan_core::persist::save_workflow", Matching, OwnCode),
        c("magellan_core::persist::load_workflow", Matching, OwnCode),
        c("magellan_ml::persist::save_forest", Matching, OwnCode),
        c("magellan_ml::persist::load_forest", Matching, OwnCode),
        c(
            "magellan_core::debug::debug_matches",
            Matching,
            PainPointTool,
        ),
        // Computing accuracy.
        c(
            "magellan_ml::Metrics::from_predictions",
            ComputingAccuracy,
            OwnCode,
        ),
        c(
            "magellan_ml::Metrics::from_pair_sets",
            ComputingAccuracy,
            OwnCode,
        ),
        c(
            "magellan_core::evaluate::evaluate_matches",
            ComputingAccuracy,
            OwnCode,
        ),
        c(
            "magellan_core::evaluate::pairs_to_ids",
            ComputingAccuracy,
            OwnCode,
        ),
        // Adding rules.
        c(
            "magellan_core::rules::MatchRule::accept",
            AddingRules,
            OwnCode,
        ),
        c(
            "magellan_core::rules::MatchRule::reject",
            AddingRules,
            OwnCode,
        ),
        c("magellan_core::rules::RuleLayer", AddingRules, OwnCode),
        c("magellan_block::rules::BlockingRule", AddingRules, OwnCode),
        c("magellan_block::rules::Predicate", AddingRules, OwnCode),
        // Data exploration / cleaning (§5.3: detect, isolate, clean).
        c(
            "magellan_core::clean::normalize_column",
            DataExploration,
            PainPointTool,
        ),
        c(
            "magellan_core::clean::detect_generic_values",
            DataExploration,
            PainPointTool,
        ),
        c(
            "magellan_core::clean::isolate_rows",
            DataExploration,
            PainPointTool,
        ),
        // Managing metadata.
        c(
            "magellan_table::Catalog::set_key",
            ManagingMetadata,
            OwnCode,
        ),
        c(
            "magellan_table::Catalog::validate_key",
            ManagingMetadata,
            OwnCode,
        ),
        c(
            "magellan_table::Catalog::set_candidate_meta",
            ManagingMetadata,
            OwnCode,
        ),
        c(
            "magellan_table::Catalog::validate_candidate",
            ManagingMetadata,
            OwnCode,
        ),
        c(
            "magellan_table::Catalog::require_key",
            ManagingMetadata,
            OwnCode,
        ),
        c("magellan_table::Catalog::remove", ManagingMetadata, OwnCode),
    ]
}

/// Count commands per step (Table 3, column E).
pub fn commands_per_step() -> Vec<(GuideStep, usize)> {
    GuideStep::all()
        .iter()
        .map(|&s| (s, commands().iter().filter(|c| c.step == s).count()))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_step_has_commands() {
        for (step, n) in commands_per_step() {
            assert!(n > 0, "guide step {step} has no commands");
        }
    }

    #[test]
    fn pain_point_tools_exist_for_the_named_steps() {
        // Table 3 column D names pain-point tools for: down sample,
        // blocking (debugger), feature creation, matching (debuggers),
        // labeling.
        let cmds = commands();
        for step in [
            GuideStep::DownSample,
            GuideStep::Blocking,
            GuideStep::CreatingFeatureVectors,
            GuideStep::Matching,
        ] {
            assert!(
                cmds.iter()
                    .any(|c| c.step == step && c.origin == CommandOrigin::PainPointTool),
                "no pain-point tool registered for {step}"
            );
        }
    }

    #[test]
    fn names_are_unique() {
        let cmds = commands();
        let mut names: Vec<&str> = cmds.iter().map(|c| c.name).collect();
        names.sort_unstable();
        let before = names.len();
        names.dedup();
        assert_eq!(before, names.len(), "duplicate command names");
    }

    #[test]
    fn registry_is_reasonably_large() {
        // The paper counts 104 commands across 6 packages; our ecosystem
        // registers the user-facing core. Guard against accidental
        // shrinkage.
        assert!(commands().len() >= 60, "{}", commands().len());
    }
}
