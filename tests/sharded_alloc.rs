//! The sharded engine seeds its caches straight into the per-shard
//! blocks: a trial's live heap holds the node state once, not a
//! whole-population copy beside the blocks. A counting global allocator
//! records the peak of live bytes while one trial runs.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicBool, AtomicIsize, AtomicUsize, Ordering};
use std::sync::Arc;

use impatience_core::demand::Popularity;
use impatience_core::utility::Step;
use impatience_sim::config::{ContactSource, SimConfig};
use impatience_sim::policy::PolicyKind;
use impatience_sim::sharded::run_trial_sharded;

struct Counting;

static ARMED: AtomicBool = AtomicBool::new(false);
static LIVE: AtomicIsize = AtomicIsize::new(0);
static PEAK: AtomicUsize = AtomicUsize::new(0);

fn grow(size: usize) {
    if ARMED.load(Ordering::Relaxed) {
        let live = LIVE.fetch_add(size as isize, Ordering::Relaxed) + size as isize;
        PEAK.fetch_max(live.max(0) as usize, Ordering::Relaxed);
    }
}

fn shrink(size: usize) {
    if ARMED.load(Ordering::Relaxed) {
        LIVE.fetch_sub(size as isize, Ordering::Relaxed);
    }
}

// SAFETY: every call forwards to the system allocator unchanged; the
// wrapper only tallies sizes.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        grow(layout.size());
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        shrink(layout.size());
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        grow(new_size);
        shrink(layout.size());
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

#[test]
fn sharded_trial_holds_its_node_state_once() {
    let nodes = 50_000;
    let config = SimConfig::builder(50, 5)
        .demand(Popularity::pareto(50, 1.0).demand_rates(1.0))
        .utility(Arc::new(Step::new(10.0)))
        .bin(60.0)
        .build();
    let source = ContactSource::homogeneous(nodes, 3.4e-6, 30.0);
    // The only test in this binary, so no other thread allocates while
    // the counter is armed, and the trial runs on this thread alone. A
    // free of a block allocated before arming would lower the tally: it
    // could hide live bytes, never invent them.
    LIVE.store(0, Ordering::Relaxed);
    PEAK.store(0, Ordering::Relaxed);
    ARMED.store(true, Ordering::Relaxed);
    let out = run_trial_sharded(&config, &source, PolicyKind::qcr_default(), 1, 1);
    ARMED.store(false, Ordering::Relaxed);
    let out = out.expect("supported configuration");
    assert!(out.contacts_processed > 0);
    // Node state is 108 bytes a node at ρ = 5: 76 of cache arena (five
    // u32 slots, five u64 stamps, len, sticky slot, clock), a 24-byte
    // mandate map and two request-queue heads. Seeding adds a transient
    // 8-byte node order. Seeding a whole-population arena and splitting
    // it into blocks held a second copy of the arena at the peak: 152
    // bytes a node against 124 seeded in place.
    let per_node = PEAK.load(Ordering::Relaxed) as f64 / nodes as f64;
    assert!(
        per_node <= 140.0,
        "a sharded trial peaked at {per_node:.1} live heap bytes per node"
    );
}
