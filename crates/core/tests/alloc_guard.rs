//! Count guards on the development stage:
//!
//! * how many heap allocations one `down_sample_indices` call makes, so a
//!   `String` per token, a `Vec` per row or a map per sampled row cannot
//!   creep back in unnoticed;
//! * how high the live heap climbs during `run_development_stage`, so a
//!   feature row per pre-sampled or probed pair cannot come back.
//!
//! A counting `#[global_allocator]` needs a binary of its own. Counts and
//! live bytes are per thread, so the harness's own threads and the other
//! tests do not disturb them.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use magellan_block::OverlapBlocker;
use magellan_core::downsample::down_sample_indices;
use magellan_core::labeling::OracleLabeler;
use magellan_core::pipeline::{run_development_stage, DevConfig};
use magellan_datagen::domains::{persons, products};
use magellan_datagen::{DirtModel, ScenarioConfig};
use magellan_features::generate_features;
use magellan_ml::{DecisionTreeLearner, Learner, RandomForestLearner};

thread_local! {
    // Const-initialised and without a destructor: touching them from
    // inside the allocator never allocates.
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
    // Bytes this thread allocated minus bytes it freed (negative when it
    // frees what another thread allocated), and their high-water mark.
    static LIVE: Cell<isize> = const { Cell::new(0) };
    static PEAK: Cell<isize> = const { Cell::new(0) };
}

/// Move this thread's live bytes by `delta`, raising the high-water mark.
fn grow(delta: isize) {
    let live = LIVE.with(|l| {
        l.set(l.get() + delta);
        l.get()
    });
    PEAK.with(|p| p.set(p.get().max(live)));
}

struct Counting;

// SAFETY: every call is forwarded unchanged to `System`, which upholds the
// `GlobalAlloc` contract; the only addition is a thread-local counter bump.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.with(|n| n.set(n.get() + 1));
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
        ALLOCATIONS.with(|n| n.set(n.get() + 1));
        grow(new_size as isize - layout.size() as isize);
        // SAFETY: as for `dealloc`, with the caller's `new_size`.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Allocations (and reallocations) this thread makes while running `f`.
fn allocations_in<T>(f: impl FnOnce() -> T) -> (T, u64) {
    let before = ALLOCATIONS.with(Cell::get);
    let out = f();
    (out, ALLOCATIONS.with(Cell::get) - before)
}

/// How far above its starting level this thread's live heap climbed while
/// running `f`, in bytes.
fn peak_heap_in<T>(f: impl FnOnce() -> T) -> (T, isize) {
    let start = LIVE.with(Cell::get);
    PEAK.with(|p| p.set(start));
    let out = f();
    (out, PEAK.with(Cell::get) - start)
}

/// `block_heavy`'s products tables at a fifth of their size, B
/// down-sampled to a third: tokenizing 20 000 A rows and 400 sampled B
/// rows, indexing A and ranking its rows for each B row must cost a fixed
/// number of buffers, not one per row, token or sampled row.
#[test]
fn down_sample_allocates_per_buffer_not_per_row() {
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
