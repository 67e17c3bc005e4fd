//! Edit-distance join: all cross pairs within Levenshtein distance `d`.
//!
//! Filter-verify plan:
//!
//! * **length filter**: `||x| − |y|| ≤ d`;
//! * **q-gram count filter** (q = 2): strings within distance `d` share
//!   at least `max(|Gx|, |Gy|) − q·d` unpadded q-grams (each edit destroys
//!   at most `q` grams). When that bound is non-positive (short strings), the
//!   length-bucketed candidates are verified directly;
//! * **q-gram signature prefilter** (PR 6): a 128-bit Bloom-style
//!   signature per string (one bit per hashed gram). The same q-gram
//!   lemma bounds the multiset differences: `dist(x, y) ≤ d` implies
//!   `|Gx \ Gy| ≤ q·d` and `|Gy \ Gx| ≤ q·d`, and every bit set in
//!   `sig(x) & !sig(y)` witnesses at least one *distinct* gram of
//!   `Gx \ Gy` (bits only appear via grams, and a gram of `x` also in
//!   `y` would have set the bit in both). So
//!   `popcount(sig(x) & !sig(y)) > q·d` (either direction) soundly
//!   proves `dist > d` — two word-ANDs + popcounts kill the candidate
//!   before any banded-DP cell is computed. Hash collisions only *merge*
//!   bits, which weakens the filter, never unsoundly strengthens it.
//!   (This also covers gram-less strings: if `|Gx| = 0` and
//!   `dist ≤ d`, the lemma forces `|Gy| ≤ q·d`, so y's popcount can't
//!   exceed the budget.)
//! * **verify**: banded (Ukkonen) Levenshtein with early exit.
//!
//! Prefilter effectiveness is reported through
//! [`magellan_par::JoinStats::killed_by_qgram_sig`] /
//! [`magellan_par::JoinStats::qgram_sig_checked`].

use magellan_par::JoinStats;
use std::collections::HashMap;

/// Banded Levenshtein with Ukkonen's cut-off: `Some(dist)` if
/// `dist ≤ max_d`, else `None`. O((max_d+1)·min(|a|,|b|)) worst case,
/// and typically much less: besides the static diagonal band, the band
/// **shrinks adaptively** to the live cells (values ≤ `max_d`) of the
/// previous row, and the row loop early-exits the moment the running row
/// minimum exceeds the threshold.
///
/// Why shrinking is lossless: the Levenshtein DP is diagonally monotone
/// (`D[i][j] ≥ D[i-1][j-1]`), so any cell more than one column right of
/// the previous row's last live cell is itself dead — the upper band
/// edge can be pulled in to `live_hi + 1`. Symmetrically, once the
/// boundary column is dead (`i > max_d`), a cell left of the previous
/// row's first live cell has all three of its inputs dead, so the lower
/// edge can be pushed out to `live_lo`.
pub fn levenshtein_within(a: &str, b: &str, max_d: usize) -> Option<usize> {
    let a: Vec<char> = a.chars().collect();
    let b: Vec<char> = b.chars().collect();
    let (a, b) = if a.len() <= b.len() { (a, b) } else { (b, a) };
    let (n, m) = (a.len(), b.len());
    if m - n > max_d {
        return None;
    }
    if n == 0 {
        return Some(m);
    }
    const INF: usize = usize::MAX / 2;
    // Row over the shorter string; band of width ≤ 2*max_d+1 around the
    // diagonal, clipped to the previous row's live range.
    let mut prev = vec![INF; n + 1];
    let mut cur = vec![INF; n + 1];
    for (j, p) in prev.iter_mut().enumerate().take(max_d.min(n) + 1) {
        *p = j;
    }
    // Live range of row 0: the whole initialized stretch.
    let mut live_lo = 0usize;
    let mut live_hi = max_d.min(n);
    let mut hi = live_hi;
    let mut lo = 1usize;
    for i in 1..=m {
        // Static diagonal band ∩ adaptive live window. The lower edge only
        // uses the live clip once the boundary column is dead (i > max_d);
        // before that, column 0 holds a live `i` that can seed the row.
        // Both edges are kept monotone (`lo` never left of the previous
        // row's band start) so every `prev` read hits a cell the previous
        // row actually wrote or sealed.
        lo = if i > max_d {
            (i - max_d).max(live_lo).max(lo).max(1)
        } else {
            1
        };
        hi = (i + max_d).min(n).min(live_hi + 1);
        if lo > hi {
            return None;
        }
        cur[lo - 1] = if lo == 1 { i } else { INF };
        live_lo = usize::MAX;
        live_hi = 0;
        if lo == 1 && i <= max_d {
            live_lo = 0;
            live_hi = 0;
        }
        for j in lo..=hi {
            let sub = prev[j - 1] + usize::from(b[i - 1] != a[j - 1]);
            let del = prev[j].saturating_add(1);
            let ins = cur[j - 1].saturating_add(1);
            let v = sub.min(del).min(ins);
            cur[j] = v;
            if v <= max_d {
                live_lo = live_lo.min(j);
                live_hi = j;
            }
        }
        if hi < n {
            cur[hi + 1] = INF; // seal band edge for next row's reads
        }
        if live_lo == usize::MAX && live_hi == 0 && (lo > 1 || i > max_d) {
            return None; // no live cell: the running row minimum > max_d
        }
        std::mem::swap(&mut prev, &mut cur);
    }
    // If the band contracted away from the final column, the true
    // distance exceeds max_d by diagonal monotonicity.
    if hi < n {
        return None;
    }
    (prev[n] <= max_d).then_some(prev[n])
}

/// A qualifying pair from an edit-distance join.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EditJoinPair {
    /// Index into the left collection.
    pub l: usize,
    /// Index into the right collection.
    pub r: usize,
    /// The exact edit distance (≤ the join threshold).
    pub dist: usize,
}

/// The q-gram size of the count filter and the signature prefilter.
const Q: usize = 2;

fn qgrams(s: &str) -> Vec<String> {
    let chars: Vec<char> = s.chars().collect();
    if chars.len() < Q {
        return Vec::new();
    }
    chars.windows(Q).map(|w| w.iter().collect()).collect()
}

/// 128-bit q-gram signature: bit `fnv1a(gram) mod 128` per gram.
/// Strings with no grams (shorter than [`Q`]) signature to zero.
fn qgram_signature(grams: &[String]) -> [u64; 2] {
    let mut sig = [0u64; 2];
    for g in grams {
        let bit = (magellan_obs::fnv1a(g.as_bytes()) % 128) as usize;
        sig[bit / 64] |= 1u64 << (bit % 64);
    }
    sig
}

/// Sound signature test: `false` proves `dist(x, y) > d` (see the
/// module docs for the q-gram-lemma argument); `true` decides nothing.
#[inline]
fn sig_may_match(sx: [u64; 2], sy: [u64; 2], gram_budget: u32) -> bool {
    let x_only = (sx[0] & !sy[0]).count_ones() + (sx[1] & !sy[1]).count_ones();
    if x_only > gram_budget {
        return false;
    }
    let y_only = (sy[0] & !sx[0]).count_ones() + (sy[1] & !sx[1]).count_ones();
    y_only <= gram_budget
}

/// Join: every `(l, r)` with `levenshtein(left[l], right[r]) ≤ d`, sorted
/// by `(l, r)`. `None` entries never match. The filter counters (those of
/// [`JoinStats`]) are published as `magellan_simjoin_*` metrics, pure
/// functions of the inputs.
pub fn edit_distance_join<S: AsRef<str>>(
    left: &[Option<S>],
    right: &[Option<S>],
    d: usize,
) -> Vec<EditJoinPair> {
    // Bits the signature prefilter may see differ by `q·d` at most when
    // the pair qualifies; clamp for the (absurd) huge-threshold case.
    let gram_budget = (Q.saturating_mul(d)).min(u32::MAX as usize) as u32;
    // Token-id map over all grams of the right side.
    let mut gram_ids: HashMap<String, u32> = HashMap::new();
    let mut postings: Vec<Vec<u32>> = Vec::new(); // gram id -> right record ids
    let mut right_lens: Vec<usize> = Vec::with_capacity(right.len());
    let mut by_len: HashMap<usize, Vec<u32>> = HashMap::new();
    let mut right_gram_count: Vec<usize> = Vec::with_capacity(right.len());
    let mut right_sigs: Vec<[u64; 2]> = Vec::with_capacity(right.len());
    for (rid, s) in right.iter().enumerate() {
        let Some(s) = s else {
            right_lens.push(usize::MAX); // unmatched sentinel
            right_gram_count.push(0);
            right_sigs.push([0; 2]);
            continue;
        };
        let s = s.as_ref();
        let len = s.chars().count();
        right_lens.push(len);
        by_len.entry(len).or_default().push(rid as u32);
        let grams = qgrams(s);
        right_gram_count.push(grams.len());
        right_sigs.push(qgram_signature(&grams));
        for g in grams {
            let next_id = gram_ids.len() as u32;
            let id = *gram_ids.entry(g).or_insert(next_id);
            if id as usize == postings.len() {
                postings.push(Vec::new());
            }
            postings[id as usize].push(rid as u32);
        }
    }

    let mut out = Vec::new();
    let mut stats = JoinStats::default();
    let mut counts: Vec<u32> = vec![0; right.len()];
    let mut touched: Vec<u32> = Vec::new();
    for (l, s) in left.iter().enumerate() {
        let Some(s) = s else { continue };
        let s = s.as_ref();
        stats.probes += 1;
        let n = s.chars().count();
        let lo = n.saturating_sub(d);
        let hi = n + d;

        // Count-filterable candidates: partner length m where the required
        // shared-gram count is >= 1, i.e. max(|Gx|,|Gy|) - q*d >= 1.
        // We conservatively require only `req(m)` grams for each candidate.
        let probe_grams = qgrams(s);
        let sig_x = qgram_signature(&probe_grams);
        for g in &probe_grams {
            if let Some(&id) = gram_ids.get(g) {
                for &rid in &postings[id as usize] {
                    if counts[rid as usize] == 0 {
                        touched.push(rid);
                    }
                    counts[rid as usize] += 1;
                }
            }
        }
        let x_grams = probe_grams.len();
        for &rid in &touched {
            let m = right_lens[rid as usize];
            if m < lo || m > hi {
                counts[rid as usize] = 0;
                continue;
            }
            let req = x_grams
                .max(right_gram_count[rid as usize])
                .saturating_sub(Q * d);
            if req >= 1 && (counts[rid as usize] as usize) < req {
                counts[rid as usize] = 0;
                continue;
            }
            counts[rid as usize] = 0;
            if req >= 1 {
                stats.candidates += 1;
                stats.qgram_sig_checked += 1;
                if !sig_may_match(sig_x, right_sigs[rid as usize], gram_budget) {
                    stats.killed_by_qgram_sig += 1;
                    continue;
                }
                if let Some(b) = right[rid as usize].as_ref() {
                    stats.verified += 1;
                    if let Some(dist) = levenshtein_within(s, b.as_ref(), d) {
                        stats.pairs += 1;
                        out.push(EditJoinPair {
                            l,
                            r: rid as usize,
                            dist,
                        });
                    }
                }
            }
            // req == 0 candidates are handled by the bucket scan below to
            // avoid duplicates.
        }
        touched.clear();

        // Bucket scan for partner lengths where the count filter is
        // powerless (req(m) <= 0): these must all be verified.
        for m in lo..=hi {
            let req = x_grams.max(m.saturating_sub(Q - 1)).saturating_sub(Q * d);
            if req >= 1 {
                continue; // covered by the count-filter path
            }
            if let Some(bucket) = by_len.get(&m) {
                for &rid in bucket {
                    stats.candidates += 1;
                    stats.qgram_sig_checked += 1;
                    if !sig_may_match(sig_x, right_sigs[rid as usize], gram_budget) {
                        stats.killed_by_qgram_sig += 1;
                        continue;
                    }
                    if let Some(b) = right[rid as usize].as_ref() {
                        stats.verified += 1;
                        if let Some(dist) = levenshtein_within(s, b.as_ref(), d) {
                            stats.pairs += 1;
                            out.push(EditJoinPair {
                                l,
                                r: rid as usize,
                                dist,
                            });
                        }
                    }
                }
            }
        }
    }
    out.sort_unstable_by_key(|a| (a.l, a.r));
    out.dedup();
    stats.publish();
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use magellan_textsim::seqsim::levenshtein;

    fn some(items: &[&str]) -> Vec<Option<String>> {
        items.iter().map(|s| Some((*s).to_owned())).collect()
    }

    #[test]
    fn banded_levenshtein_agrees_with_full() {
        let words = [
            "",
            "a",
            "ab",
            "kitten",
            "sitting",
            "mississippi",
            "misisipi",
        ];
        for a in words {
            for b in words {
                let full = levenshtein(a, b);
                for d in 0..6 {
                    let banded = levenshtein_within(a, b, d);
                    if full <= d {
                        assert_eq!(banded, Some(full), "{a} {b} d={d}");
                    } else {
                        assert_eq!(banded, None, "{a} {b} d={d}");
                    }
                }
            }
        }
    }

    /// The adaptive band + early exits must be invisible: for every pair
    /// and threshold, `levenshtein_within` equals the unbounded DP when
    /// the distance is within the band and `None` otherwise. Random
    /// strings over a tiny alphabet maximize collisions and near-misses.
    #[test]
    fn bounded_dp_equals_unbounded_on_random_strings() {
        let mut state = 0xC0FFEEu64;
        let mut next = move || {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            (state >> 33) as usize
        };
        for trial in 0..400 {
            let la = next() % 14;
            let lb = next() % 14;
            let a: String = (0..la)
                .map(|_| (b'a' + (next() % 3) as u8) as char)
                .collect();
            let b: String = (0..lb)
                .map(|_| (b'a' + (next() % 3) as u8) as char)
                .collect();
            let full = levenshtein(&a, &b);
            for d in 0..=10 {
                let banded = levenshtein_within(&a, &b, d);
                if full <= d {
                    assert_eq!(banded, Some(full), "trial={trial} a={a:?} b={b:?} d={d}");
                } else {
                    assert_eq!(banded, None, "trial={trial} a={a:?} b={b:?} d={d}");
                }
            }
        }
    }

    fn naive(left: &[Option<String>], right: &[Option<String>], d: usize) -> Vec<(usize, usize)> {
        let mut out = Vec::new();
        for (l, a) in left.iter().enumerate() {
            for (r, b) in right.iter().enumerate() {
                if let (Some(a), Some(b)) = (a, b) {
                    if levenshtein(a, b) <= d {
                        out.push((l, r));
                    }
                }
            }
        }
        out
    }

    #[test]
    fn join_matches_naive_small() {
        let left = some(&["dave", "daniel", "joe", "x", ""]);
        let right = some(&["dav", "david", "daniela", "joseph", "y", ""]);
        for d in 0..4 {
            let fast: Vec<(usize, usize)> = edit_distance_join(&left, &right, d)
                .into_iter()
                .map(|p| (p.l, p.r))
                .collect();
            let slow = naive(&left, &right, d);
            assert_eq!(fast, slow, "d={d}");
        }
    }

    #[test]
    fn join_matches_naive_random() {
        let mut state = 5u64;
        let mut next = move || {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            (state >> 33) as usize
        };
        let mk = |next: &mut dyn FnMut() -> usize| -> Vec<Option<String>> {
            (0..80)
                .map(|_| {
                    let n = next() % 8;
                    Some(
                        (0..n)
                            .map(|_| (b'a' + (next() % 4) as u8) as char)
                            .collect(),
                    )
                })
                .collect()
        };
        let left = mk(&mut next);
        let right = mk(&mut next);
        for d in [0, 1, 2] {
            let fast: Vec<(usize, usize)> = edit_distance_join(&left, &right, d)
                .into_iter()
                .map(|p| (p.l, p.r))
                .collect();
            let slow = naive(&left, &right, d);
            assert_eq!(fast, slow, "d={d}");
        }
    }

    #[test]
    fn distances_reported_exactly() {
        let left = some(&["kitten"]);
        let right = some(&["sitting", "kitten"]);
        let out = edit_distance_join(&left, &right, 3);
        assert_eq!(out.len(), 2);
        assert_eq!(out[0].dist, 3);
        assert_eq!(out[1].dist, 0);
    }

    #[test]
    fn nulls_never_match() {
        let left: Vec<Option<String>> = vec![None];
        let right = some(&["x"]);
        assert!(edit_distance_join(&left, &right, 5).is_empty());
    }

    /// Prefilter soundness against the unbounded-Levenshtein oracle: no
    /// candidate the banded DP would have accepted may be pre-filtered
    /// out. Verified by brute force — for every cross pair within the
    /// threshold, the signature test must say "may match".
    #[test]
    fn qgram_sig_prefilter_never_kills_a_true_match() {
        let mut state = 0xED17u64;
        let mut next = move || {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            (state >> 33) as usize
        };
        let mk = |next: &mut dyn FnMut() -> usize, n: usize, alpha: usize| -> Vec<String> {
            (0..n)
                .map(|_| {
                    let len = next() % 10;
                    (0..len)
                        .map(|_| (b'a' + (next() % alpha) as u8) as char)
                        .collect()
                })
                .collect()
        };
        for alpha in [2usize, 4, 8] {
            let xs = mk(&mut next, 60, alpha);
            let ys = mk(&mut next, 60, alpha);
            for d in [0usize, 1, 2] {
                let budget = (Q * d) as u32;
                for x in &xs {
                    let sx = qgram_signature(&qgrams(x));
                    for y in &ys {
                        if levenshtein(x, y) <= d {
                            let sy = qgram_signature(&qgrams(y));
                            assert!(
                                sig_may_match(sx, sy, budget),
                                "sound filter killed true match: {x:?} {y:?} d={d}"
                            );
                        }
                    }
                }
            }
        }
    }

    /// End-to-end: the join agrees with the naive oracle (so the prefilter
    /// changed nothing), the counters it publishes are coherent, and
    /// on clusterable data the signature prefilter actually kills a
    /// meaningful share of candidates.
    #[test]
    fn join_stats_report_qgram_sig_kills() {
        let mut state = 99u64;
        let mut next = move || {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            (state >> 33) as usize
        };
        // Repeated-motif strings with random tails: the motif's gram
        // *multiplicity* inflates the shared-gram count filter (it counts
        // occurrence products, not distinct grams), so pairs sharing a
        // motif survive it — while their tails contribute > q·d distinct
        // one-sided grams, which is exactly what the signature sees.
        let motifs = ["abc", "cba", "bac", "acb"];
        let mk = |next: &mut dyn FnMut() -> usize| -> Vec<Option<String>> {
            (0..100)
                .map(|_| {
                    let m = motifs[next() % motifs.len()];
                    let tail: String = (0..6)
                        .map(|_| (b'g' + (next() % 12) as u8) as char)
                        .collect();
                    Some(format!("{m}{m}{m}{tail}"))
                })
                .collect()
        };
        let left = mk(&mut next);
        let right = mk(&mut next);
        for d in [1usize, 2] {
            let obs = magellan_obs::Obs::pinned();
            let guard = obs.install();
            let pairs = edit_distance_join(&left, &right, d);
            drop(guard);
            let snap = obs.snapshot();
            let n = |name: &str| snap.counter(&format!("magellan_simjoin_{name}_total")) as usize;
            let fast: Vec<(usize, usize)> = pairs.iter().map(|p| (p.l, p.r)).collect();
            assert_eq!(fast, naive(&left, &right, d), "d={d}");
            // Counter coherence: every checked candidate is either killed
            // or goes on to verification; emitted pairs ⊆ verified.
            let (checked, killed) = (n("qgram_sig_checked"), n("killed_by_qgram_sig"));
            assert_eq!(checked, n("candidates"));
            assert_eq!(n("verified") + killed, checked, "d={d}");
            assert!(n("pairs") <= n("verified"));
            assert_eq!(n("pairs"), pairs.len());
            assert!(n("probes") > 0 && checked > 0);
            // The prefilter must actually be doing work on this shape.
            assert!(
                killed * 10 > checked,
                "{killed} of {checked} killed (d={d})"
            );
        }
    }

    #[test]
    fn unicode_lengths_counted_in_chars() {
        let left = some(&["héllo"]);
        let right = some(&["hello"]);
        let out = edit_distance_join(&left, &right, 1);
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].dist, 1);
    }
}
