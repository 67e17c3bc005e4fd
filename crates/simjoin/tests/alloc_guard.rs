//! Count guard on the token path: how many heap allocations the two
//! ingest-side loops make per unit of work, so a `String` per token or per
//! field cannot creep back in unnoticed.
//!
//! A counting `#[global_allocator]` needs a binary of its own, which is
//! why the CSV reader (`magellan-table`) is guarded here next to
//! `TokenizedCollection::build`. Counts are per thread, so the harness's
//! own threads and the other test do not disturb them.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use magellan_simjoin::TokenizedCollection;
use magellan_table::{csv, Dtype, Schema};
use magellan_textsim::tokenize::AlphanumericTokenizer;

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

/// Eight distinct ASCII tokens per record over a vocabulary of about
/// 2 600 (a product catalogue's shape: few brands and kinds, a few hundred
/// descriptive words, model numbers), in mixed case so the lowercasing
/// path is on it too.
fn title(i: usize) -> String {
    format!(
        "Brand{} kind{} Alpha{} beta{} gamma{} DELTA{} eps{} {}",
        i % 50,
        i % 37,
        i * 7 % 300,
        i * 11 % 300,
        i * 13 % 300,
        i * 17 % 300,
        i * 19 % 300,
        i % 1000,
    )
}

#[test]
fn collection_build_allocates_per_record_not_per_token() {
    const RECORDS: usize = 10_000;
    let left: Vec<Option<String>> = (0..RECORDS * 9 / 10).map(|i| Some(title(i))).collect();
    let right: Vec<Option<String>> = (0..RECORDS / 10).map(|i| Some(title(i * 3 + 1))).collect();
    let tok = AlphanumericTokenizer::as_set();
    let (coll, allocations) = allocations_in(|| TokenizedCollection::build(&left, &right, &tok));
    assert_eq!(coll.left.len() + coll.right.len(), RECORDS);
    assert!(
        coll.left.iter().all(|rec| rec.len() == 8),
        "eight distinct tokens a record"
    );
    // One exact-size id set per record, two strings per *new* token, table
    // growth. It was 14.5 a record with a `String` per token.
    let per_record = allocations as f64 / RECORDS as f64;
    println!("TokenizedCollection::build: {per_record:.2} allocations per record");
    assert!(
        allocations <= 4 * RECORDS as u64,
        "{allocations} allocations for {RECORDS} records ({per_record:.2} each, limit 4)"
    );
}

#[test]
fn csv_read_allocates_per_string_cell_not_per_field() {
    const ROWS: usize = 20_000;
    let mut data = String::from("id,title,qty,price\n");
    for i in 0..ROWS {
        // Every fourth title is empty: a null cell, which allocates nothing.
        let title = if i % 4 == 0 { String::new() } else { title(i) };
        data.push_str(&format!("r{i},{title},{},{}.5\r\n", i % 13, i % 97));
    }
    let schema = Schema::from_pairs(&[
        ("id", Dtype::Str),
        ("title", Dtype::Str),
        ("qty", Dtype::Int),
        ("price", Dtype::Float),
    ])
    .unwrap();
    let (table, allocations) =
        allocations_in(|| csv::read_csv(data.as_bytes(), "T", schema).unwrap());
    assert_eq!(table.nrows(), ROWS);
    let string_cells = (ROWS + ROWS * 3 / 4) as u64;
    // Per 8 192-row batch: four fresh staging columns, their vector, and
    // what growing the table's own columns costs. The reader's buffers are
    // allocated once.
    let batches = ROWS.div_ceil(8192) as u64;
    let limit = string_cells + 32 * (batches + 1);
    println!(
        "csv::read_csv: {allocations} allocations for {string_cells} string cells in {batches} batches"
    );
    assert!(
        allocations <= limit,
        "{allocations} allocations for {string_cells} string cells (limit {limit})"
    );
}
