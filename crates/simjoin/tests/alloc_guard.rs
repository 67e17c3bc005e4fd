//! Count guard on the token path and the stream tick: how many heap
//! allocations the two ingest-side loops make per unit of work, so a
//! `String` per token or per cell cannot creep back in unnoticed, and how
//! many a delta-join tick makes per mutation, so a tree node per live pair
//! or a map per tick cannot either.
//!
//! A counting `#[global_allocator]` needs a binary of its own, which is
//! why the CSV reader (`magellan-table`) is guarded here next to
//! `TokenizedCollection::build`. Counts are per thread, so the harness's
//! own threads and the other tests do not disturb them.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use magellan_par::ParConfig;
use magellan_simjoin::{IncrementalJoin, RecordMutation, SetSimMeasure, Side, TokenizedCollection};
use magellan_table::{csv, Dtype, Schema};
use magellan_textsim::tokenize::AlphanumericTokenizer;

thread_local! {
    // Const-initialised and without a destructor: touching it from inside
    // the allocator never allocates.
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
    static DEALLOCATIONS: Cell<u64> = const { Cell::new(0) };
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
        DEALLOCATIONS.with(|n| n.set(n.get() + 1));
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

/// Blocks this thread frees while running `f`.
fn deallocations_in(f: impl FnOnce()) -> u64 {
    let before = DEALLOCATIONS.with(Cell::get);
    f();
    DEALLOCATIONS.with(Cell::get) - before
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
fn collection_build_allocates_per_column_not_per_record() {
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
    // Two flat columns, sized from their first records, plus the
    // interner's three buffers and the build's two tables, grown by
    // doubling. It was 15 212 (1.52 a record) with a `Vec` per record and
    // two strings per new token, 14.5 a record with a `String` per token.
    println!("TokenizedCollection::build: {allocations} allocations for {RECORDS} records");
    assert!(
        allocations <= 64,
        "{allocations} allocations for {RECORDS} records (limit 64)"
    );
    // Each column is its ids and its offsets, whatever the record count.
    let freed = deallocations_in(|| drop(coll));
    println!("TokenizedCollection drop: {freed} blocks freed");
    assert!(freed <= 4, "{freed} blocks freed on drop (limit 4)");
}

/// 300 ticks of 20 mutations against 8 000 seeded titles at Jaccard 0.6,
/// one worker (so every allocation is on this thread).
#[test]
fn churn_tick_allocates_per_mutation_not_per_pair() {
    const SEEDED: usize = 8_000;
    const TITLES: usize = 2_000;
    const TICKS: usize = 300;
    const PER_TICK: usize = 20;
    let tok = AlphanumericTokenizer::as_set();
    let cfg = ParConfig::serial();
    let side = |i: usize| {
        if i.is_multiple_of(2) {
            Side::Left
        } else {
            Side::Right
        }
    };
    // Every title sits twice on each side and titles 300 apart share six
    // of their eight tokens, so each record has live partners and a
    // re-write both removes and adds pairs.
    let seed: Vec<RecordMutation> = (0..SEEDED)
        .map(|i| RecordMutation::Insert {
            side: side(i),
            text: Some(title(i / 2 % TITLES)),
        })
        .collect();
    let mut eng = IncrementalJoin::new(SetSimMeasure::Jaccard(0.6));
    eng.apply_batch(&seed, &tok, &cfg);
    // The ticks are built up front so only `apply_batch` is counted: a
    // quarter inserts, a quarter deletes, half re-writes, over titles the
    // interner has already seen.
    let mut state = 2_611u64;
    let mut next = move |n: usize| {
        state = state
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        (state >> 33) as usize % n
    };
    let mut records = [SEEDED / 2; 2];
    let ticks: Vec<Vec<RecordMutation>> = (0..TICKS)
        .map(|_| {
            (0..PER_TICK)
                .map(|_| {
                    let s = next(2);
                    let (side, text) = (side(s), Some(title(next(TITLES))));
                    match next(4) {
                        0 => {
                            records[s] += 1;
                            RecordMutation::Insert { side, text }
                        }
                        1 => RecordMutation::Delete {
                            side,
                            rid: next(records[s]),
                        },
                        _ => RecordMutation::Update {
                            side,
                            rid: next(records[s]),
                            text,
                        },
                    }
                })
                .collect()
        })
        .collect();
    let (deltas, allocations) = allocations_in(|| {
        ticks
            .iter()
            .map(|batch| eng.apply_batch(batch, &tok, &cfg).0.len())
            .sum::<usize>()
    });
    assert_eq!(eng.live_pairs(), eng.rebuild_from_scratch(&tok));
    let mutations = (TICKS * PER_TICK) as u64;
    let per_mutation = allocations as f64 / mutations as f64;
    println!(
        "IncrementalJoin::apply_batch: {per_mutation:.2} allocations per mutation, {:.1} deltas per tick",
        deltas as f64 / TICKS as f64
    );
    assert!(
        deltas >= 2 * TICKS * PER_TICK,
        "{deltas} deltas: the churn must move pairs for the bound to mean anything"
    );
    // A record's text and key set, the tick's own vectors over 20
    // mutations, and postings and partner lists outgrowing their
    // capacity: 5.24 a mutation (4.96 with postings lists doubling their
    // capacity, 6.15 with a tail overlay of postings
    // beside a packed snapshot, 8.2 while each probe ran as a chunk of its
    // own, with an output slot and vectors). It was 11.7 with the
    // live view in a `BTreeMap` and the adjacencies in
    // `HashMap<usize, BTreeSet>`s, whose nodes come and go with the ~20
    // pair deltas each mutation moves here.
    assert!(
        allocations <= 10 * mutations,
        "{allocations} allocations for {mutations} mutations ({per_mutation:.2} each, limit 10)"
    );
}

/// A string cell's bytes go onto its column's heap, so reading a file and
/// dropping the table cost blocks per column (growing only with the log of
/// the rows, by doubling), not per cell.
#[test]
fn csv_read_allocates_per_column_not_per_cell() {
    const ROWS: usize = 20_000;
    let mut data = String::from("id,title,qty,price\n");
    for i in 0..ROWS {
        // Every fourth title is empty: a null cell.
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
    let string_cells = ROWS + ROWS * 3 / 4;
    let frees = deallocations_in(|| drop(table));
    println!(
        "csv::read_csv: {allocations} allocations for {string_cells} string cells, {frees} blocks freed on drop"
    );
    // The reader's buffers once, then each column's vectors and heap
    // growing by doubling: 116 here. It was 35 047 with a `String` per
    // string cell, and dropping the table freed 35 000 of them. Now the
    // drop frees three blocks per string column, one per other column and
    // the schema's: 15.
    assert!(
        allocations <= 256,
        "{allocations} allocations for {string_cells} string cells (limit 256)"
    );
    assert!(
        frees <= 32,
        "dropping the table freed {frees} blocks (limit 32)"
    );
}
