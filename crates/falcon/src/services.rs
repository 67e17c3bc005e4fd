//! The CloudMatcher service registry — the paper's Table 4 and the unit of
//! the envisioned microservice decomposition (§5.3, §6).
//!
//! CloudMatcher 2.0 "extracts a set of basic services from the Falcon EM
//! workflow ... then allows users to flexibly combine them to form
//! different EM workflows (including the original Falcon one)". The
//! registry below records each service's kind, the engine it runs on, and
//! — for composite services — the basic services it composes. The
//! `implemented_by` field maps each service to the Rust API that realizes
//! it, which is how the Fig. 6 "ecosystem" rendering is generated.

/// Basic vs. composite (Table 4 groups them this way).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ServiceKind {
    /// A single self-contained step.
    Basic,
    /// A composition of basic services.
    Composite,
}

/// One CloudMatcher service.
#[derive(Debug, Clone)]
pub struct Service {
    /// Service name as the UI would list it.
    pub name: &'static str,
    /// Basic or composite.
    pub kind: ServiceKind,
    /// Engine the service's work runs on.
    pub engine: crate::schedule::Engine,
    /// One-line description.
    pub description: &'static str,
    /// The Rust API implementing it in this reproduction.
    pub implemented_by: &'static str,
    /// For composites: the names of the composed basic services.
    pub composes: &'static [&'static str],
}

/// The standard service registry (Table 4).
pub fn services() -> Vec<Service> {
    use crate::schedule::Engine::*;
    use ServiceKind::*;
    let s = |name, kind, engine, description, implemented_by, composes| Service {
        name,
        kind,
        engine,
        description,
        implemented_by,
        composes,
    };
    vec![
        // --- basic services ---
        s(
            "upload dataset",
            Basic,
            Batch,
            "ingest a CSV table",
            "magellan_table::csv::read_csv_path",
            &[],
        ),
        s(
            "profile dataset",
            Basic,
            Batch,
            "per-column statistics",
            "magellan_table::profile::profile_table",
            &[],
        ),
        s(
            "edit metadata",
            Basic,
            Batch,
            "set/validate key metadata",
            "magellan_table::Catalog::set_key",
            &[],
        ),
        s(
            "browse dataset",
            Basic,
            Batch,
            "paginated table view",
            "magellan_table::Table::head",
            &[],
        ),
        s(
            "down sample",
            Basic,
            Batch,
            "index-guided table shrinking",
            "magellan_core::downsample::down_sample",
            &[],
        ),
        s(
            "sample pairs",
            Basic,
            Batch,
            "draw candidate pairs for labeling",
            "magellan_falcon::workflow (sampler)",
            &[],
        ),
        s(
            "generate features",
            Basic,
            Batch,
            "type-driven feature grid",
            "magellan_features::generate_features",
            &[],
        ),
        s(
            "extract feature vectors",
            Basic,
            Batch,
            "evaluate features over pairs",
            "magellan_features::extract_feature_matrix",
            &[],
        ),
        s(
            "label pairs (user)",
            Basic,
            UserInteraction,
            "interactive match/no-match answers",
            "magellan_core::labeling::OracleLabeler",
            &[],
        ),
        s(
            "label pairs (crowd)",
            Basic,
            Crowd,
            "majority vote of paid annotators",
            "magellan_falcon::cloud (CrowdLabeler)",
            &[],
        ),
        s(
            "train classifier",
            Basic,
            Batch,
            "fit a random forest",
            "magellan_ml::RandomForestLearner::fit_forest",
            &[],
        ),
        s(
            "apply classifier",
            Basic,
            Batch,
            "predict over a candidate set",
            "magellan_ml::RandomForestClassifier",
            &[],
        ),
        s(
            "learn blocking rules",
            Basic,
            Batch,
            "extract tree paths as rules",
            "magellan_falcon::rules::extract_blocking_rules",
            &[],
        ),
        s(
            "evaluate blocking rules",
            Basic,
            Batch,
            "precision/coverage of each rule",
            "magellan_falcon::rules (precision eval)",
            &[],
        ),
        s(
            "execute blocking rules",
            Basic,
            Batch,
            "rules as sim-join plans",
            "magellan_block::RuleBasedBlocker::block",
            &[],
        ),
        s(
            "compute accuracy",
            Basic,
            Batch,
            "P/R/F1 against labeled pairs",
            "magellan_core::evaluate::evaluate_matches",
            &[],
        ),
        s(
            "export results",
            Basic,
            Batch,
            "write matches as CSV",
            "magellan_table::csv::write_csv_path",
            &[],
        ),
        s(
            "estimate cost",
            Basic,
            Batch,
            "predict crowd $ and latency",
            "magellan_falcon::cloud::CostModel",
            &[],
        ),
        // --- composite services ---
        s(
            "active learning",
            Composite,
            UserInteraction,
            "iteratively label the most uncertain pairs",
            "magellan_falcon::active::active_learn",
            &[
                "sample pairs",
                "extract feature vectors",
                "label pairs (user)",
                "train classifier",
            ],
        ),
        s(
            "get blocking rules",
            Composite,
            Batch,
            "suggest precise blocking rules to the user",
            "magellan_falcon::rules::extract_blocking_rules",
            &[
                "active learning",
                "learn blocking rules",
                "evaluate blocking rules",
            ],
        ),
        s(
            "falcon",
            Composite,
            Batch,
            "the end-to-end self-service EM workflow",
            "magellan_falcon::workflow::run_falcon",
            &[
                "get blocking rules",
                "execute blocking rules",
                "active learning",
                "apply classifier",
                "compute accuracy",
            ],
        ),
    ]
}

/// Render the Fig. 6 style ecosystem summary: on-premise packages plus the
/// cloud services, with composition edges.
pub fn ecosystem_summary() -> String {
    let mut out = String::new();
    out.push_str("Magellan-rs ecosystem\n");
    out.push_str("== on-premise packages (PyData role) ==\n");
    for p in [
        "magellan-table",
        "magellan-textsim",
        "magellan-simjoin",
        "magellan-ml",
        "magellan-block",
        "magellan-features",
        "magellan-core (PyMatcher)",
        "magellan-datagen",
    ] {
        out.push_str("  ");
        out.push_str(p);
        out.push('\n');
    }
    out.push_str("== cloud services (CloudMatcher role) ==\n");
    for svc in services() {
        let kind = match svc.kind {
            ServiceKind::Basic => "basic",
            ServiceKind::Composite => "composite",
        };
        out.push_str(&format!(
            "  [{kind:9}] {:26} ({:?}) -> {}\n",
            svc.name, svc.engine, svc.implemented_by
        ));
        if !svc.composes.is_empty() {
            out.push_str(&format!(
                "             composes: {}\n",
                svc.composes.join(", ")
            ));
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn registry_matches_table4_shape() {
        let all = services();
        let basic = all.iter().filter(|s| s.kind == ServiceKind::Basic).count();
        let composite = all
            .iter()
            .filter(|s| s.kind == ServiceKind::Composite)
            .count();
        // The paper: "CloudMatcher provides 18 basic services and 2
        // composite services" (Appendix D) plus the falcon composite.
        assert_eq!(basic, 18);
        assert_eq!(composite, 3);
    }

    #[test]
    fn composite_components_exist() {
        let all = services();
        let names: Vec<&str> = all.iter().map(|s| s.name).collect();
        for svc in &all {
            for dep in svc.composes {
                assert!(names.contains(dep), "{}: missing component {dep}", svc.name);
            }
        }
    }

    #[test]
    fn names_unique_and_implementations_present() {
        let all = services();
        let mut names: Vec<&str> = all.iter().map(|s| s.name).collect();
        names.sort_unstable();
        let n = names.len();
        names.dedup();
        assert_eq!(n, names.len());
        assert!(all.iter().all(|s| !s.implemented_by.is_empty()));
    }

    #[test]
    fn labeling_services_run_on_human_engines() {
        for svc in services() {
            if svc.name.starts_with("label pairs") {
                assert_ne!(svc.engine, crate::schedule::Engine::Batch, "{}", svc.name);
            }
        }
    }

    #[test]
    fn ecosystem_summary_renders() {
        let s = ecosystem_summary();
        assert!(s.contains("magellan-core (PyMatcher)"));
        assert!(s.contains("falcon"));
        assert!(s.contains("composes:"));
    }
}
