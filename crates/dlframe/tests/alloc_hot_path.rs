//! Proves the zero-allocation training hot path: once the workspace pool,
//! layer caches, and batch buffers are warm, repeated `train_batch` calls
//! perform **zero** heap allocations.
//!
//! A counting global allocator wraps `System`; the test runs a warm-up
//! phase, snapshots the allocation counter, trains three more epochs, and
//! asserts the counter did not move. Counts are kept per thread, so other
//! tests running concurrently in this binary cannot move the counter.

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

use dlframe::{
    Activation, Conv1D, Dataset, Dense, Dropout, Flatten, Loss, MaxPooling1D, NoSync, Optimizer,
    Reshape3, Sequential,
};
use tensor::Tensor;
use xrng::RandomSource;

/// A scaled-down NT3: reshape → conv → pool → conv → flatten → dense →
/// dropout → dense, exercising every layer kind in the hot path.
fn nt3ish_model() -> Sequential {
    let mut rng = xrng::seeded(11);
    let mut model = Sequential::new(7);
    model.add(Box::new(Reshape3::new(60, 1)));
    model.add(Box::new(Conv1D::new(1, 8, 5, 2, Activation::Relu, &mut rng)));
    model.add(Box::new(MaxPooling1D::new(2)));
    model.add(Box::new(Conv1D::new(8, 8, 3, 1, Activation::Relu, &mut rng)));
    model.add(Box::new(Flatten::new()));
    model.add(Box::new(Dense::new(96, 16, Activation::Relu, &mut rng)));
    model.add(Box::new(Dropout::new(0.1, xrng::seeded(12))));
    model.add(Box::new(Dense::new(16, 2, Activation::Linear, &mut rng)));
    model.compile(Loss::SoftmaxCrossEntropy, Optimizer::sgd(0.01));
    model
}

fn toy_data() -> Dataset {
    let mut rng = xrng::seeded(13);
    let x = Tensor::from_fn([64, 60], |_| rng.next_f32() - 0.5);
    let y = Tensor::from_fn([64, 2], |i| if i % 2 == (i / 2) % 2 { 1.0 } else { 0.0 });
    Dataset::new(x, y)
}

#[test]
fn train_batch_steady_state_allocates_nothing() {
    let mut model = nt3ish_model();
    let data = toy_data();
    let mut sync = NoSync;
    // 64 samples / batch 16 → four equal batches; fixed order (no shuffle)
    // so every epoch replays the same shapes.
    let batches = data.batch_indices(16, None);
    let mut bx = Tensor::zeros([1, 1]);
    let mut by = Tensor::zeros([1, 1]);
    // Warm-up: populates the workspace pool, the layers' cache slots, the
    // dropout mask / pooling argmax buffers, and the flat gradient buffer.
    for _ in 0..2 {
        for idx in &batches {
            data.batch_into(idx, &mut bx, &mut by);
            model.train_batch(&bx, &by, &mut sync).unwrap();
        }
    }
    let before = allocs();
    for _ in 0..3 {
        for idx in &batches {
            data.batch_into(idx, &mut bx, &mut by);
            model.train_batch(&bx, &by, &mut sync).unwrap();
        }
    }
    let after = allocs();
    assert_eq!(
        after - before,
        0,
        "steady-state training epochs performed {} heap allocations",
        after - before
    );
    // The accounting also proves the batches actually ran.
    assert_eq!(model.hot_stats().batches, 20);
}
