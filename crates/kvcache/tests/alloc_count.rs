//! Heap allocations made by caching a long chain: a block on a session's
//! chain must cost a slab entry, not an allocation of its own.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use kvcache::{Block, KvPool};
use simcore::SimTime;

/// Counts allocations made on the current thread, so tests running in
/// parallel do not see each other's.
struct Counting;

thread_local! {
    static ALLOCS: Cell<usize> = const { Cell::new(0) };
}

// SAFETY: every call forwards to `System` with the caller's own
// arguments; the thread-local counter is a `const`-initialised `Cell`
// without a destructor, so touching it never allocates or re-enters.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.with(|n| n.set(n.get() + 1));
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCS.with(|n| n.set(n.get() + 1));
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

fn allocs() -> usize {
    ALLOCS.with(Cell::get)
}

#[test]
fn caching_a_chain_allocates_per_slab_growth_not_per_block() {
    const BLOCKS: u64 = 1_000;
    let chain = Block::sequence(7, BLOCKS * 64, 64);
    let mut pool = KvPool::new(u64::MAX, 64);
    let before = allocs();
    assert!(pool.insert(&chain, SimTime::ZERO));
    let made = allocs() - before;
    // The slab doubles about log2(1000) ≈ 10 times; a handful more cover
    // the returned path and the eviction index's first node.
    assert!(made <= 24, "{made} allocations to cache {BLOCKS} blocks");
    let m = pool.match_prefix(&chain, SimTime::from_secs(1.0));
    assert_eq!(m.matched_tokens, BLOCKS * 64);
    pool.unlock(&m);
    pool.check_invariants();
}
