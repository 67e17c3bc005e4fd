//! Pins what `down_sample_indices` returns: a digest of `(a_rows, b_rows)`
//! on two generated scenarios, each with no attribute excluded, with the
//! key excluded, and with the key and the main text attribute excluded (so
//! only the short strings and the numeric cells are indexed). The literals were recorded with the `HashMap`-index
//! down-sampler; any rewrite of the sampler must reproduce them unedited.

use magellan_core::downsample::down_sample_indices;
use magellan_datagen::domains::{persons, products};
use magellan_datagen::{DirtModel, ScenarioConfig};
use magellan_obs::fnv1a;
use magellan_table::Table;

/// `(|A'|, |B'|, fnv1a of every row index as little-endian u64, A' then B')`.
fn digest(a: &Table, b: &Table, size_b: usize, exclude: &[&str]) -> (usize, usize, u64) {
    let (a_rows, b_rows) = down_sample_indices(a, b, size_b, 4, exclude, 7);
    let bytes: Vec<u8> = a_rows
        .iter()
        .chain(&b_rows)
        .flat_map(|&r| (r as u64).to_le_bytes())
        .collect();
    (a_rows.len(), b_rows.len(), fnv1a(&bytes))
}

/// `block_heavy`'s products shape at a fifth of its size: 20 000 × 1 200
/// rows, B down-sampled to 400.
#[test]
fn products_down_sample_is_pinned() {
    let s = products(&ScenarioConfig {
        size_a: 20_000,
        size_b: 1_200,
        n_matches: 600,
        dirt: DirtModel::light(),
        seed: 77,
    });
    let (a, b) = (&s.table_a, &s.table_b);
    assert_eq!(digest(a, b, 400, &[]), PRODUCTS_ALL);
    assert_eq!(digest(a, b, 400, &["id"]), PRODUCTS_NO_ID);
    assert_eq!(digest(a, b, 400, &["id", "title"]), PRODUCTS_NO_TITLE);
}

/// `match_heavy`'s persons tables, B down-sampled to 2 000.
#[test]
fn persons_down_sample_is_pinned() {
    let s = persons(&ScenarioConfig {
        size_a: 3_000,
        size_b: 3_000,
        n_matches: 1_000,
        dirt: DirtModel::light(),
        seed: 77,
    });
    let (a, b) = (&s.table_a, &s.table_b);
    assert_eq!(digest(a, b, 2_000, &[]), PERSONS_ALL);
    assert_eq!(digest(a, b, 2_000, &["id"]), PERSONS_NO_ID);
    assert_eq!(digest(a, b, 2_000, &["id", "name"]), PERSONS_NO_NAME);
}

const PRODUCTS_ALL: (usize, usize, u64) = (1_533, 400, 0x4e8cf16bef7e2d0e);
const PRODUCTS_NO_ID: (usize, usize, u64) = (1_533, 400, 0x4e8cf16bef7e2d0e);
const PRODUCTS_NO_TITLE: (usize, usize, u64) = (1_513, 400, 0x47062db71176321a);
const PERSONS_ALL: (usize, usize, u64) = (2_706, 2_000, 0x6603f720dde9729d);
const PERSONS_NO_ID: (usize, usize, u64) = (2_706, 2_000, 0x6603f720dde9729d);
const PERSONS_NO_NAME: (usize, usize, u64) = (2_626, 2_000, 0x85d5af406db25d94);
