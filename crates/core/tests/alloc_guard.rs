//! Count guards on the development stage:
//!
//! * how many heap allocations one `down_sample_indices` call makes, so a
//!   `String` per token, a `Vec` per row or a map per sampled row cannot
//!   creep back in unnoticed;
//! * how high the live heap climbs during `run_development_stage`, so a
//!   feature row per pre-sampled or probed pair cannot come back;
//! * how high it climbs during an overlap blocker's `block_par`, so the
//!   join cannot go back to staging its pairs wider than the candidate set.
//!
//! A counting `#[global_allocator]` needs a binary of its own. Counts and
//! live bytes are process-wide, so what the pool's worker threads allocate
//! is counted too; each test holds [`SERIAL`] for its whole body, so the
//! other test's set-up cannot land in its count.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicIsize, AtomicU64, Ordering};
use std::sync::{Mutex, MutexGuard};

use magellan_block::{Blocker, OverlapBlocker};
use magellan_core::downsample::down_sample_indices;
use magellan_core::labeling::OracleLabeler;
use magellan_core::pipeline::{run_development_stage, DevConfig};
use magellan_datagen::domains::{persons, products};
use magellan_datagen::{DirtModel, ScenarioConfig};
use magellan_features::generate_features;
use magellan_ml::{DecisionTreeLearner, Learner, RandomForestLearner};
use magellan_par::ParConfig;

/// Allocations and reallocations, by every thread.
static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);
/// Bytes allocated minus bytes freed, by every thread, and their
/// high-water mark.
static LIVE: AtomicIsize = AtomicIsize::new(0);
static PEAK: AtomicIsize = AtomicIsize::new(0);

/// Held by each test for its whole body.
static SERIAL: Mutex<()> = Mutex::new(());

/// Run one test at a time, whether or not another one failed.
fn serial() -> MutexGuard<'static, ()> {
    SERIAL
        .lock()
        .unwrap_or_else(|poisoned| poisoned.into_inner())
}

/// Move the live bytes by `delta`, raising the high-water mark.
fn grow(delta: isize) {
    let live = LIVE.fetch_add(delta, Ordering::Relaxed) + delta;
    PEAK.fetch_max(live, Ordering::Relaxed);
}

struct Counting;

// SAFETY: every call is forwarded unchanged to `System`, which upholds the
// `GlobalAlloc` contract; the only addition is an atomic counter bump.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        grow(layout.size() as isize);
        // SAFETY: same layout the caller vouched for.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        grow(-(layout.size() as isize));
        // SAFETY: `ptr` came from `System` through `alloc`/`realloc` above.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        grow(new_size as isize - layout.size() as isize);
        // SAFETY: as for `dealloc`, with the caller's `new_size`.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Allocations (and reallocations) the process makes while running `f`.
fn allocations_in<T>(f: impl FnOnce() -> T) -> (T, u64) {
    let before = ALLOCATIONS.load(Ordering::Relaxed);
    let out = f();
    (out, ALLOCATIONS.load(Ordering::Relaxed) - before)
}

/// How far above its starting level the process's live heap climbed while
/// running `f`, in bytes.
fn peak_heap_in<T>(f: impl FnOnce() -> T) -> (T, isize) {
    let start = LIVE.load(Ordering::Relaxed);
    PEAK.store(start, Ordering::Relaxed);
    let out = f();
    (out, PEAK.load(Ordering::Relaxed) - start)
}

/// `block_heavy`'s products tables at a fifth of their size, B
/// down-sampled to a third: tokenizing 20 000 A rows and 400 sampled B
/// rows, indexing A and ranking its rows for each B row must cost a fixed
/// number of buffers, not one per row, token or sampled row.
#[test]
fn down_sample_allocates_per_buffer_not_per_row() {
    let _serial = serial();
    let s = products(&ScenarioConfig {
        size_a: 20_000,
        size_b: 1_200,
        n_matches: 600,
        dirt: DirtModel::light(),
        seed: 77,
    });
    let ((a_rows, b_rows), n) =
        allocations_in(|| down_sample_indices(&s.table_a, &s.table_b, 400, 4, &[], 7));
    eprintln!(
        "down_sample_indices 20000 x 1200 -> {} x {}: {n} allocations",
        a_rows.len(),
        b_rows.len()
    );
    assert_eq!(b_rows.len(), 400);
    assert!(n <= 256, "{n} allocations for one down-sample");
}

/// `dev_stage_pin`'s pre-sampled shape: 6 334 candidates, a 1 800-pair
/// pre-sample and a 6 334-pair calibration probe. Scoring the pre-sample
/// keeps one proxy key per pair and the probe materialises rows only for
/// predicted matches, so the stage's live heap stays well under what a
/// feature row per pre-sampled and per probed pair needs.
#[test]
fn development_stage_peak_heap_stays_off_the_pre_sample() {
    let _serial = serial();
    let s = persons(&ScenarioConfig {
        size_a: 400,
        size_b: 400,
        n_matches: 120,
        dirt: DirtModel::light(),
        seed: 31,
    });
    let features = generate_features(&s.table_a, &s.table_b, &["id"]).unwrap();
    let mut labeler = OracleLabeler::new(s.gold.clone(), "id", "id");
    let tree = DecisionTreeLearner::default();
    let forest = RandomForestLearner {
        n_trees: 8,
        ..Default::default()
    };
    let learners: [&dyn Learner; 2] = [&tree, &forest];
    let cfg = DevConfig {
        sample_size: 60,
        calibration_labels: 40,
        ..Default::default()
    };
    let (out, peak) = peak_heap_in(|| {
        run_development_stage(
            &s.table_a,
            &s.table_b,
            vec![Box::new(OverlapBlocker::words("name", 1))],
            features,
            &learners,
            &mut labeler,
            &cfg,
        )
    });
    let (_, report) = out.unwrap();
    eprintln!(
        "run_development_stage over {} candidates: peak live heap {peak} B",
        report.n_candidates
    );
    assert_eq!(report.n_candidates, 6_334);
    assert!(peak <= PEAK_BOUND, "peak live heap {peak} B");
}

/// Halfway between the stage with a feature row per pre-sampled and probed
/// pair (2 489 805 B) and the streamed stage (1 099 376 B).
const PEAK_BOUND: isize = 1_794_000;

/// `match_heavy`'s blocker on a seeded `persons` scenario at 2 workers:
/// the word-overlap join of 1 500 × 1 500 names hands over 86 140
/// candidates, 689 120 B as `(u32, u32)`. Staging them as 24-byte join
/// pairs, merging the chunks, sorting and copying them into the set
/// climbed to 3 951 733 B above the start; writing 8-byte pairs and
/// ordering them in one linear pass climbs to 1 636 757 B: the chunks'
/// pairs and the ordered set, each once, and the tokenized names.
#[test]
fn blocking_peak_heap_stays_near_the_candidate_set() {
    let _serial = serial();
    let s = persons(&ScenarioConfig {
        size_a: 1_500,
        size_b: 1_500,
        n_matches: 500,
        dirt: DirtModel::light(),
        seed: 77,
    });
    let blocker = OverlapBlocker::words("name", 1);
    let cfg = ParConfig::workers(2);
    let (out, peak) = peak_heap_in(|| blocker.block_par(&s.table_a, &s.table_b, &cfg));
    let (cands, _) = out.unwrap();
    eprintln!("block_par over {} candidates: peak live heap {peak} B", cands.len());
    assert_eq!(cands.len(), 86_140);
    assert!(peak <= BLOCKING_PEAK_BOUND, "peak live heap {peak} B");
}

/// Halfway between the join staging 24-byte pairs (3 951 733 B) and the
/// one writing 8-byte pairs (1 636 757 B).
const BLOCKING_PEAK_BOUND: isize = 2_794_000;
