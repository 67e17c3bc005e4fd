//! The paper's catalogs name real code. Every path in Table 3's command
//! registry ([`magellan_core::registry::commands`]) and in Table 4's
//! service registry ([`magellan_falcon::services::services`]) must name
//! `pub` items in that crate's `src/`: deleting what a table lists fails
//! here instead of leaving the regenerated table pointing at nothing.
//!
//! The check reads the sources. For `magellan_x::m::Type::method`,
//! `crates/x/src` must declare `pub mod m`, `pub <kind> Type` and a
//! `fn method` (trait methods carry no `pub`). A trailing parenthetical
//! (`magellan_falcon::rules (precision eval)`) is a note, not a path.

use std::fs;
use std::path::Path;

/// Does `src` hold `needle` with no identifier character on either side?
fn has_word(src: &str, needle: &str) -> bool {
    let ident = |c: Option<char>| c.is_some_and(|c| c.is_alphanumeric() || c == '_');
    src.match_indices(needle).any(|(at, _)| {
        !ident(src[..at].chars().next_back()) && !ident(src[at + needle.len()..].chars().next())
    })
}

fn read_rs(dir: &Path, out: &mut String) {
    for path in fs::read_dir(dir).unwrap().map(|e| e.unwrap().path()) {
        if path.is_dir() {
            read_rs(&path, out);
        } else if path.extension().is_some_and(|e| e == "rs") {
            out.push_str(&fs::read_to_string(&path).unwrap());
        }
    }
}

/// Does a catalog entry name `pub` items of a workspace crate?
fn names_pub_items(entry: &str) -> bool {
    let path = entry.split(" (").next().unwrap_or(entry);
    let segments: Vec<&str> = path.split("::").collect();
    let Some(dir) = segments[0].strip_prefix("magellan_") else {
        return false;
    };
    let src_dir = Path::new(env!("CARGO_MANIFEST_DIR")).join(format!("../{dir}/src"));
    if segments.len() < 2 || !src_dir.is_dir() {
        return false;
    }
    let mut src = String::new();
    read_rs(&src_dir, &mut src);
    let declared = |kinds: &[&str], name: &str| {
        kinds
            .iter()
            .any(|k| has_word(&src, &format!("pub {k} {name}")))
    };
    let last = segments.len() - 1;
    (1..=last).all(|i| {
        let seg = segments[i];
        if i == last && segments[i - 1].starts_with(char::is_uppercase) {
            has_word(&src, &format!("fn {seg}"))
        } else if i < last && seg.starts_with(char::is_lowercase) {
            declared(&["mod"], seg)
        } else {
            declared(
                &["fn", "struct", "enum", "trait", "mod", "type", "const"],
                seg,
            )
        }
    })
}

#[test]
fn every_table3_command_and_table4_service_names_pub_items() {
    let commands = magellan_core::registry::commands();
    let services = magellan_falcon::services::services();
    let paths = commands.iter().map(|c| c.name);
    let paths = paths.chain(services.iter().map(|s| s.implemented_by));
    let missing: Vec<&str> = paths.filter(|p| !names_pub_items(p)).collect();
    assert!(
        missing.is_empty(),
        "the paper's tables name missing code: {missing:?}"
    );
}

/// Items that are gone, private or misspelled do not resolve.
#[test]
fn removed_and_private_items_do_not_resolve() {
    for gone in [
        "magellan_features::extract_feature_matrix_scalar",
        "magellan_ml::DecisionTreeClassifier::n_leaves",
        "magellan_par::try_map_indexed",
        "magellan_simjoin::editjoin::qgrams",
        "magellan_simjoin::no_such_module::set_sim_join",
        "magellan_no_such_crate::Table",
        "magellan_table",
    ] {
        assert!(!names_pub_items(gone), "{gone} resolved");
    }
    assert!(names_pub_items("magellan_block::RuleBasedBlocker::block"));
}
