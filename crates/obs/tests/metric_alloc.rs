//! Steady-state metric updates allocate nothing: a counting global
//! allocator watches counter, gauge and histogram updates (and trace
//! minting) through handles on a namespaced `child_named` recorder, the
//! shape every fleet shard records through.

use hermes_obs::Recorder;
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

struct Counting;

thread_local! {
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
}

// SAFETY: defers every call to the system allocator; the count is a
// const-initialised thread-local, which itself never allocates.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.with(|n| n.set(n.get() + 1));
        System.alloc(layout)
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout);
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCS.with(|n| n.set(n.get() + 1));
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Allocations made on this thread while running `f`.
fn allocations(f: impl FnOnce()) -> u64 {
    let before = ALLOCS.with(Cell::get);
    f();
    ALLOCS.with(Cell::get) - before
}

#[test]
fn steady_state_metric_updates_allocate_nothing() {
    let fleet = Recorder::new();
    let shard = fleet.child_named("shard3");
    let served = shard.counter("serve", "served");
    let depth = shard.gauge("serve", "queue_depth");
    let latency = shard.histogram("serve", "latency", &[16, 64, 256, 1024]);
    // first updates list the metrics (that may grow the snapshot order)
    shard.counter_add(served, 1);
    shard.gauge_set(depth, 1);
    shard.observe(latency, 1);

    let n = allocations(|| {
        for i in 0..1000u64 {
            shard.counter_add(served, 1);
            shard.gauge_set(depth, i as i64);
            shard.observe(latency, i * 3);
            std::hint::black_box(shard.mint_trace());
        }
    });
    assert_eq!(n, 0, "steady-state updates allocated {n} times");

    let snap = shard.snapshot();
    assert_eq!(snap.counters, vec![("shard3/serve".to_string(), "served".to_string(), 1001)]);
    assert_eq!(snap.gauges[0].2, 999);
    assert_eq!(snap.histograms[0].2.count, 1001);

    // a disabled recorder's handles cost one branch and no allocation
    let off = Recorder::disabled();
    let c = off.counter("serve", "served");
    let n = allocations(|| {
        for _ in 0..1000 {
            off.counter_add(c, 1);
        }
    });
    assert_eq!(n, 0);
}
