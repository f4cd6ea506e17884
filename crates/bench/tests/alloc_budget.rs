//! Deterministic allocation budget for the shard hot path.
//!
//! A counting global allocator tallies every heap allocation made on the
//! test thread while one shard serially executes the hot-path FT batch
//! (2,048 holders, 800 transfers, one shard, as `hotpath_experiment` builds
//! it). The count depends on the code, not the host or its load, so the gate
//! needs no timing and holds on any machine.
//!
//! The budget: the batch measures 99.3 allocations per committed
//! transaction with inline addresses and shared component paths (143.5
//! with heap addresses and per-holder key-path copies). The bound leaves
//! about one allocation per transaction of slack, so copying a written
//! key's path once more per write (two more per transfer) fails it, while
//! an unrelated change that moves the count must update the bound on
//! purpose.
//!
//! This file holds a single test: the allocator counts only on the thread
//! that armed it, but one test per binary keeps the harness quiet too.

use chain::executor::execute_batch;
use cosplit_bench::experiments::hotpath_batch;
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicU64, Ordering};

/// Allocations per committed transaction the batch may make.
const BUDGET_PER_TX: f64 = 100.5;

struct Counting;

static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);

thread_local! {
    static ARMED: Cell<bool> = const { Cell::new(false) };
}

fn count() {
    if ARMED.with(Cell::get) {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
    }
}

// SAFETY: every method forwards to the system allocator unchanged; the
// counter is a side effect only.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count();
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count();
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count();
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Heap allocations made on this thread while `f` runs.
fn allocations_during<T>(f: impl FnOnce() -> T) -> (T, u64) {
    let before = ALLOCATIONS.load(Ordering::Relaxed);
    ARMED.with(|a| a.set(true));
    let out = f();
    ARMED.with(|a| a.set(false));
    (out, ALLOCATIONS.load(Ordering::Relaxed) - before)
}

#[test]
fn shard_batch_stays_within_its_allocation_budget() {
    telemetry::set_enabled(true);
    telemetry::trace::set_tracing(false);
    let (net, batch, cfg) = hotpath_batch(2_048, 800);
    // Warm-up run: first-use registrations (telemetry handles, lazily
    // lowered code) are one-off costs, not per-transaction ones.
    let warm = execute_batch(&cfg, net.state(), batch.clone());
    let (mb, allocs) = allocations_during(|| execute_batch(&cfg, net.state(), batch));
    assert_eq!(mb.committed(), warm.committed(), "the two runs must agree");
    assert!(mb.committed() > 0, "the batch must commit transactions");
    let per_tx = allocs as f64 / mb.committed() as f64;
    println!(
        "{allocs} allocations over {} committed txs: {per_tx:.1} per tx",
        mb.committed()
    );
    assert!(
        per_tx <= BUDGET_PER_TX,
        "{per_tx:.1} allocations per committed tx exceeds the budget of {BUDGET_PER_TX}"
    );
}
