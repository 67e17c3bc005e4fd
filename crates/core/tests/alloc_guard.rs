//! Count guard on the down-sampler: how many heap allocations one
//! `down_sample_indices` call makes, so a `String` per token, a `Vec` per
//! row or a map per sampled row cannot creep back in unnoticed.
//!
//! A counting `#[global_allocator]` needs a binary of its own. Counts are
//! per thread, so the harness's own threads and the other tests do not
//! disturb them.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use magellan_core::downsample::down_sample_indices;
use magellan_datagen::domains::products;
use magellan_datagen::{DirtModel, ScenarioConfig};

thread_local! {
    // Const-initialised and without a destructor: touching it from inside
    // the allocator never allocates.
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

struct Counting;

// SAFETY: every call is forwarded unchanged to `System`, which upholds the
// `GlobalAlloc` contract; the only addition is a thread-local counter bump.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.with(|n| n.set(n.get() + 1));
        // SAFETY: same layout the caller vouched for.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System` through `alloc`/`realloc` above.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.with(|n| n.set(n.get() + 1));
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
