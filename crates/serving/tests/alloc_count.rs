//! Heap allocations made by recording inter-token gaps: a recorder that
//! knows its requests' output lengths writes every gap into one buffer,
//! so recording costs a constant number of allocations, not a few per
//! request.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use serving::{MetricsRecorder, SloSpec};
use simcore::{SimDuration, SimTime};

/// Counts allocations made on the current thread, and the largest of
/// them, so tests running in parallel do not see each other's.
struct Counting;

thread_local! {
    static ALLOCS: Cell<usize> = const { Cell::new(0) };
    static LARGEST: Cell<usize> = const { Cell::new(0) };
}

fn count(size: usize) {
    ALLOCS.with(|n| n.set(n.get() + 1));
    LARGEST.with(|m| m.set(m.get().max(size)));
}

// SAFETY: every call forwards to `System` with the caller's own
// arguments; the thread-local counters are `const`-initialised `Cell`s
// without destructors, so touching them never allocates or re-enters.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count(new_size);
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

fn allocs() -> usize {
    ALLOCS.with(Cell::get)
}

#[test]
fn recording_gaps_allocates_once_per_trace_not_per_request() {
    const REQUESTS: usize = 1_000;
    const TOKENS: u64 = 200;
    let mut m = MetricsRecorder::with_output_tokens([TOKENS; REQUESTS]);
    let arrivals = vec![SimTime::ZERO; REQUESTS];
    let before = allocs();
    for step in 0..TOKENS {
        let now = SimTime::from_secs(0.5 + 0.02 * step as f64);
        for req in 0..REQUESTS {
            m.emit_tokens(req, now, 1);
        }
    }
    let end = SimTime::from_secs(5.0);
    for req in 0..REQUESTS {
        m.finish(req, end, SimTime::ZERO);
    }
    let recorded = allocs() - before;
    // One buffer for every request's gaps, allocated at the first gap.
    assert_eq!(recorded, 1, "{recorded} allocations to record the gaps");

    let before = allocs();
    LARGEST.with(|m| m.set(0));
    let report = m.report(&arrivals, SimDuration::from_secs(5.0), &SloSpec::llama8b());
    let reported = allocs() - before;
    let gaps = REQUESTS * (TOKENS as usize - 1);
    assert_eq!(report.tbt.len(), gaps);
    // The gaps widen in place and move into the report whole; what
    // allocates is the other summaries (TTFT, TPOT, E2E, one sample per
    // request) growing as they are recorded.
    assert!(reported <= 48, "{reported} allocations to build the report");
    let largest = LARGEST.with(Cell::get);
    assert!(
        largest < gaps * std::mem::size_of::<f64>(),
        "building the report made a {largest}-byte allocation: the samples were copied"
    );
}
