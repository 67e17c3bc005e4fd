//! Falcon and Smurf ask the join engine for a top-k and the rule blocker
//! for a plan; what they report must be what the sort-and-take sampler and
//! the all-joins rule executor gave. The sampler is pinned against a
//! test-local copy of the old one, the reports against digests recorded
//! with it in place (commit c701fa6). Each report's workflow reproduces
//! its run through the production executor and the eager oracle.

use magellan_core::exec::ProductionExecutor;
use magellan_core::labeling::OracleLabeler;
use magellan_datagen::domains::{addresses, persons, products};
use magellan_datagen::{DirtModel, EmScenario, ScenarioConfig};
use magellan_falcon::smurf::run_smurf;
use magellan_falcon::workflow::sample_pairs;
use magellan_falcon::{run_falcon, FalconConfig, FalconReport};
use magellan_simjoin::{set_sim_join, SetSimMeasure};
use magellan_table::Table;
use magellan_textsim::tokenize::AlphanumericTokenizer;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

fn scenarios() -> Vec<(&'static str, EmScenario)> {
    let cfg = |seed| ScenarioConfig {
        size_a: 400,
        size_b: 400,
        n_matches: 130,
        dirt: DirtModel::light(),
        seed,
    };
    vec![
        ("addresses", addresses(&cfg(61))),
        ("persons", persons(&cfg(62))),
        ("products", products(&cfg(63))),
    ]
}

/// `sample_pairs` as it was: threshold join at 0.2, stable sort by
/// similarity, take `n / 2`; then the uniform half.
fn old_sample_pairs(a: &Table, b: &Table, key: &str, n: usize, seed: u64) -> Vec<(u32, u32)> {
    let concat = |t: &Table| -> Vec<Option<String>> {
        let fields = t.schema().fields();
        t.rows()
            .map(|r| {
                let parts: Vec<String> = (0..fields.len())
                    .filter(|&i| fields[i].name != key && !t.value(r, i).is_null())
                    .map(|i| t.value(r, i).display_string())
                    .collect();
                (!parts.is_empty()).then(|| parts.join(" "))
            })
            .collect()
    };
    let tok = AlphanumericTokenizer::as_set();
    let mut joined = set_sim_join(&concat(a), &concat(b), &tok, SetSimMeasure::Jaccard(0.2));
    joined.sort_by(|x, y| {
        y.sim
            .partial_cmp(&x.sim)
            .unwrap_or(std::cmp::Ordering::Equal)
    });
    let mut pairs: Vec<(u32, u32)> = joined
        .iter()
        .take(n / 2)
        .map(|p| (p.l as u32, p.r as u32))
        .collect();
    let mut rng = StdRng::seed_from_u64(seed);
    let mut seen: std::collections::HashSet<(u32, u32)> = pairs.iter().copied().collect();
    let mut guard = 0;
    while pairs.len() < n && guard < 20 * n {
        guard += 1;
        let p = (
            rng.gen_range(0..a.nrows()) as u32,
            rng.gen_range(0..b.nrows()) as u32,
        );
        if seen.insert(p) {
            pairs.push(p);
        }
    }
    pairs
}

#[test]
fn the_sample_is_what_sort_and_take_gave() {
    for (name, s) in scenarios() {
        let (a, b) = (&s.table_a, &s.table_b);
        // Up to more plausible pairs than the join at 0.2 has.
        for n in [2, 60, 600, 5_000, 400_000] {
            assert_eq!(
                sample_pairs(a, b, "id", "id", n, 7),
                old_sample_pairs(a, b, "id", n, 7),
                "{name}, n = {n}"
            );
        }
    }
}

/// Everything a report says, in one line.
fn digest(r: &FalconReport) -> String {
    let matches = r.matches.pairs().iter().fold(0u64, |h, &(l, r)| {
        (h ^ (u64::from(l) << 32 | u64::from(r))).wrapping_mul(0x100_0000_01b3)
    });
    format!(
        "q={}+{} cands={} matches={}/{matches:016x} fallback={} rules={:?}",
        r.questions_blocking,
        r.questions_matching,
        r.n_candidates,
        r.matches.len(),
        r.used_fallback_blocker,
        r.rules
    )
}

/// (scenario, `run_falcon` digest, `run_smurf` digest), recorded at c701fa6.
const PINNED: [(&str, &str, &str); 3] = [
    (
        "addresses",
        r#"q=116+133 cands=133 matches=130/d5fd90425d7180f9 fallback=false rules=["jaccard(word(A.street), word(B.street)) <= 0.375 AND exact_match(A.zip, B.zip) <= 0.500 -> No", "jaccard(word(A.street), word(B.street)) <= 0.375 AND jaccard(3gram(A.zip), 3gram(B.zip)) <= 0.583 -> No", "exact_match(A.zip, B.zip) <= 0.500 AND jaccard(word(A.street), word(B.street)) <= 0.375 -> No", "exact_match(A.zip, B.zip) <= 0.500 AND cosine(word(A.street), word(B.street)) <= 0.537 -> No"]"#,
        r#"q=0+127 cands=127 matches=127/e864d5b1adde0e9c fallback=false rules=["exact_match(A.zip, B.zip) <= 0.500 -> No", "jaccard(3gram(A.zip), 3gram(B.zip)) <= 0.636 -> No", "exact_match(A.city, B.city) <= 0.500 -> No"]"#,
    ),
    (
        "persons",
        r#"q=157+170 cands=684 matches=124/a5628afdd0f80400 fallback=false rules=["jaccard(3gram(A.name), 3gram(B.name)) <= 0.402 AND jaccard(word(A.name), word(B.name)) <= 0.292 AND jaccard(3gram(A.name), 3gram(B.name)) <= 0.050 -> No", "jaccard(word(A.name), word(B.name)) <= 0.292 AND jaccard(3gram(A.state), 3gram(B.state)) <= 0.583 -> No", "jaccard(3gram(A.name), 3gram(B.name)) <= 0.380 AND jaccard(3gram(A.state), 3gram(B.state)) <= 0.571 -> No", "cosine(word(A.name), word(B.name)) <= 0.454 AND jaccard(3gram(A.name), 3gram(B.name)) <= 0.410 AND exact_match(A.city, B.city) <= 0.500 -> No"]"#,
        r#"q=0+170 cands=3891 matches=118/6c45893e7204f664 fallback=false rules=["exact_match(A.city, B.city) <= 0.500 AND jaccard(word(A.name), word(B.name)) <= 0.833 -> No", "exact_match(A.city, B.city) <= 0.500 AND cosine(word(A.name), word(B.name)) <= 0.908 -> No", "jaccard(3gram(A.city), 3gram(B.city)) <= 0.588 AND cosine(word(A.name), word(B.name)) <= 0.908 -> No", "jaccard(3gram(A.city), 3gram(B.city)) <= 0.765 AND jaccard(word(A.name), word(B.name)) <= 0.833 -> No"]"#,
    ),
    (
        "products",
        r#"q=135+100 cands=7355 matches=127/ea161c3d27c71ef4 fallback=false rules=["jaccard(word(A.title), word(B.title)) <= 0.675 AND jaccard(3gram(A.brand), 3gram(B.brand)) <= 0.303 -> No", "jaccard(word(A.title), word(B.title)) <= 0.675 AND jaccard(3gram(A.title), 3gram(B.title)) <= 0.632 AND jaccard(3gram(A.brand), 3gram(B.brand)) <= 0.303 -> No", "cosine(word(A.title), word(B.title)) <= 0.808 AND jaccard(3gram(A.title), 3gram(B.title)) <= 0.631 AND cosine(word(A.title), word(B.title)) <= -0.000 AND exact_match(A.brand, B.brand) <= 0.500 -> No", "jaccard(word(A.title), word(B.title)) <= 0.675 AND jaccard(3gram(A.title), 3gram(B.title)) <= 0.632 AND cosine(word(A.title), word(B.title)) <= 0.664 AND cosine(word(A.title), word(B.title)) <= -0.000 AND jaccard(3gram(A.brand), 3gram(B.brand)) <= 0.583 -> No"]"#,
        r#"q=0+90 cands=7314 matches=128/416b6e805a70c65b fallback=false rules=["exact_match(A.brand, B.brand) <= 0.500 -> No", "jaccard(3gram(A.brand), 3gram(B.brand)) <= 0.700 -> No", "jaccard(3gram(A.brand), 3gram(B.brand)) <= 0.750 -> No", "jaccard(word(A.title), word(B.title)) <= 0.667 AND exact_match(A.brand, B.brand) <= 0.500 -> No"]"#,
    ),
];

#[test]
fn falcon_and_smurf_reports_are_unchanged() {
    for ((name, s), (pinned_name, falcon, smurf)) in scenarios().into_iter().zip(PINNED) {
        assert_eq!(name, pinned_name);
        let (a, b) = (&s.table_a, &s.table_b);
        let cfg = FalconConfig::default();
        let mut labeler = OracleLabeler::new(s.gold.clone(), "id", "id");
        let got = digest(&run_falcon(a, b, "id", "id", &mut labeler, &cfg).unwrap());
        assert_eq!(got, falcon, "run_falcon on {name}");
        let mut labeler = OracleLabeler::new(s.gold.clone(), "id", "id");
        let got = digest(&run_smurf(a, b, "id", "id", &mut labeler, &cfg).unwrap());
        assert_eq!(got, smurf, "run_smurf on {name}");
    }
}

/// The workflow a report returns is what its run did: on the same tables,
/// the production executor at 1 and 2 workers and the eager
/// `EmWorkflow::execute` each give the report's candidate count and
/// matches, for Falcon's rule blocker and Smurf's guarded one alike.
#[test]
fn the_reports_workflow_reproduces_its_run() {
    for (name, s) in scenarios() {
        let (a, b) = (&s.table_a, &s.table_b);
        for run in [run_falcon, run_smurf] {
            let mut labeler = OracleLabeler::new(s.gold.clone(), "id", "id");
            let report = run(a, b, "id", "id", &mut labeler, &FalconConfig::default()).unwrap();
            let workflow = report.workflow.as_ref().expect("a run with candidates");
            for workers in [1, 2] {
                let got = ProductionExecutor::new(workers)
                    .run(workflow, a, b)
                    .unwrap();
                assert_eq!(got.n_candidates, report.n_candidates, "{name}, {workers}");
                assert_eq!(got.matches, report.matches, "{name}, {workers} workers");
            }
            let eager = workflow.execute(a, b).unwrap();
            assert_eq!(eager.candidates.len(), report.n_candidates, "{name}");
            assert_eq!(eager.matches(), report.matches, "{name}, eager");
        }
    }
}
