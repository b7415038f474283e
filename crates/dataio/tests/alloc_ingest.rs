//! Proves the turbo parse hot path is allocation-free in steady state:
//! once the structural index and the column storage are warm (capacity
//! established by the first pass), re-scanning and re-parsing a buffer of
//! the same shape performs **zero** heap allocations — no per-row `Vec`s,
//! no token vectors, no fragment frames.
//!
//! Mirrors `dlframe/tests/alloc_hot_path.rs`: a counting global allocator
//! wraps `System`, a warm-up phase establishes capacity, then the counter
//! must not move across repeated steady-state passes. Counts are kept per
//! thread, so tests running concurrently in this binary never see each
//! other's allocations.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

/// Counts every allocation-path call (alloc / alloc_zeroed / realloc) on
/// the calling thread and delegates to the system allocator.
/// Deallocations are free and uncounted.
struct CountingAlloc;

thread_local! {
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
}

fn count() {
    // `try_with`: a thread being torn down can allocate after its
    // thread-locals are gone.
    let _ = ALLOCS.try_with(|n| n.set(n.get() + 1));
}

/// Allocations made so far by the calling thread.
fn allocs() -> u64 {
    ALLOCS.with(Cell::get)
}

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count();
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count();
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count();
        System.alloc_zeroed(layout)
    }
}

#[global_allocator]
static COUNTER: CountingAlloc = CountingAlloc;

use dataio::csv::turbo::{parse_into, scan, StructuralIndex};

/// A numeric CSV buffer shaped like a (shrunken) NT3 slice: `rows` records
/// of 24 mixed int/decimal/scientific fields.
fn csv_buffer(rows: usize) -> Vec<u8> {
    let mut text = String::new();
    for r in 0..rows {
        for c in 0..24 {
            if c > 0 {
                text.push(',');
            }
            match (r + c) % 3 {
                0 => text.push_str(&format!("{}", r * 31 + c)),
                1 => text.push_str(&format!("{}.{:03}", c, (r * 7 + c) % 1000)),
                _ => text.push_str(&format!("{}e-{}", r % 97 + 1, c % 9 + 1)),
            }
        }
        text.push('\n');
    }
    text.into_bytes()
}

#[test]
fn steady_state_turbo_parse_allocates_nothing() {
    let bytes = csv_buffer(600);
    let mut idx = StructuralIndex::new();
    let mut columns: Vec<Vec<f64>> = Vec::new();
    // Warm-up: establishes the index and column capacities.
    scan(&bytes, &mut idx).unwrap();
    assert!(parse_into(&bytes, &idx, &mut columns, 1));
    assert_eq!(idx.rows(), 600);
    assert_eq!(columns.len(), 24);

    let before = allocs();
    for _ in 0..5 {
        scan(&bytes, &mut idx).unwrap();
        assert!(parse_into(&bytes, &idx, &mut columns, 1));
    }
    let after = allocs();
    assert_eq!(
        after - before,
        0,
        "steady-state scan+parse performed {} heap allocations",
        after - before
    );
    // The accounting also proves the passes actually parsed.
    assert_eq!(columns[0].len(), 600);
    assert_eq!(columns[0][0], 0.0);
    assert_eq!(columns[3][0], 3.0);
    assert_eq!(columns[1][0], 1.001);
}

/// Multi-threaded parses pay a constant per-call cost (scoped thread
/// spawns), never a per-row cost: octupling the row count must not grow
/// the allocation count of a warm parse. The count covers the calling
/// thread, which drives the parse and spawns its workers.
#[test]
fn parallel_parse_allocations_are_row_count_independent() {
    let count_warm_passes = |rows: usize, passes: usize| -> u64 {
        let bytes = csv_buffer(rows);
        let mut idx = StructuralIndex::new();
        let mut columns: Vec<Vec<f64>> = Vec::new();
        scan(&bytes, &mut idx).unwrap();
        assert!(parse_into(&bytes, &idx, &mut columns, 4));
        let before = allocs();
        for _ in 0..passes {
            scan(&bytes, &mut idx).unwrap();
            assert!(parse_into(&bytes, &idx, &mut columns, 4));
        }
        allocs() - before
    };
    let small = count_warm_passes(500, 4);
    let big = count_warm_passes(4000, 4);
    // 8x the rows: identical thread-spawn bookkeeping, zero per-row cost.
    // The margin absorbs allocator-internal variance in spawn bookkeeping.
    assert!(
        big <= small + 64,
        "allocations grew with row count: {small} at 500 rows vs {big} at 4000 rows"
    );
}
