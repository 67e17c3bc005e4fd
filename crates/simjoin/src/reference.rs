//! The pre-CSR HashMap join engine, preserved as a baseline.
//!
//! This is the original filter-verify implementation: a
//! `HashMap<u32, Vec<(rid, pos)>>` prefix index, a first-collision-only
//! positional filter, and an unbounded full-merge verification. It is
//! kept (not dead-coded) for two jobs:
//!
//! * the **oracle tests** pin the CSR engine bit-identical to it, and
//! * `exp_simjoin` measures the CSR engine's speedup against it on the
//!   same tokenized inputs (`BENCH_simjoin.json`, floor 2×).
//!
//! Do not route production callers here — use [`crate::join_tokenized`].

use std::collections::HashMap;

use magellan_textsim::intern::intersect_size_sorted;

use crate::collection::{TokenColumn, TokenizedCollection};
use crate::join::{JoinPair, SetSimMeasure};

/// HashMap-based prefix index: token id → `(rid, pos)` postings.
struct HashPrefixIndex {
    map: HashMap<u32, Vec<(u32, u32)>>,
}

impl HashPrefixIndex {
    fn build(records: &TokenColumn, prefix_len_of: impl Fn(usize) -> usize) -> Self {
        let mut map: HashMap<u32, Vec<(u32, u32)>> = HashMap::new();
        for (rid, rec) in records.iter().enumerate() {
            let plen = prefix_len_of(rec.len()).min(rec.len());
            for (pos, &tok) in rec[..plen].iter().enumerate() {
                map.entry(tok).or_default().push((rid as u32, pos as u32));
            }
        }
        HashPrefixIndex { map }
    }

    fn get(&self, token: u32) -> &[(u32, u32)] {
        self.map.get(&token).map(Vec::as_slice).unwrap_or(&[])
    }
}

/// The seed join: probe left against a HashMap prefix index over right,
/// first-collision position filter, unbounded verification. Returns
/// pairs sorted by `(l, r)` — the exact output contract of
/// [`crate::join_tokenized`].
pub fn join_tokenized_hashmap(coll: &TokenizedCollection, measure: SetSimMeasure) -> Vec<JoinPair> {
    measure.validate();
    let index = HashPrefixIndex::build(&coll.right, |s| measure.prefix_len(s));
    let mut out = Vec::new();
    let mut stamps = vec![u32::MAX; coll.right.len()];
    for (l, x) in coll.left.iter().enumerate() {
        let sx = x.len();
        if sx == 0 {
            continue;
        }
        let (lo, hi) = measure.size_bounds(sx);
        let probe_len = measure.prefix_len(sx).min(sx);
        let stamp = l as u32;
        for (px, &tok) in x[..probe_len].iter().enumerate() {
            for &(rid, py) in index.get(tok) {
                let rid = rid as usize;
                if stamps[rid] == stamp {
                    continue; // already considered for this probe
                }
                stamps[rid] = stamp;
                let y = &coll.right[rid];
                let sy = y.len();
                if sy < lo || sy > hi {
                    continue;
                }
                // First-collision position filter only.
                let ubound = 1 + (sx - px - 1).min(sy - py as usize - 1);
                if ubound < measure.min_overlap(sx, sy) {
                    continue;
                }
                let overlap = intersect_size_sorted(x, y);
                if measure.qualifies(sx, sy, overlap) {
                    out.push(JoinPair {
                        l,
                        r: rid,
                        sim: measure.similarity(sx, sy, overlap),
                    });
                }
            }
        }
    }
    out.sort_unstable_by_key(|a| (a.l, a.r));
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use magellan_textsim::tokenize::WhitespaceTokenizer;

    #[test]
    fn reference_engine_still_joins() {
        let tok = WhitespaceTokenizer::new();
        let left = vec![Some("dave smith"), Some("joe wilson")];
        let right = vec![Some("dave smith"), Some("dave jones")];
        let coll = TokenizedCollection::build(&left, &right, &tok);
        let out = join_tokenized_hashmap(&coll, SetSimMeasure::Jaccard(0.9));
        assert_eq!(out.len(), 1);
        assert_eq!((out[0].l, out[0].r, out[0].sim), (0, 0, 1.0));
    }
}
