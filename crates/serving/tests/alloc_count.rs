//! Heap allocations made by recording inter-token gaps and by launching
//! decode iterations. A recorder that knows its requests' output lengths
//! writes every gap into one buffer, so recording costs a constant
//! number of allocations, not a few per request. A decode side writes
//! its batch's context list into one reused buffer, so a warm launch
//! allocates nothing for it.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::collections::VecDeque;

use gpusim::{ClusterSpec, CtxId, GpuSim, GroupId};
use modelspec::{ModelSpec, Parallelism};
use serving::{
    DecodeSide, Driver, Handoff, LeaseTable, Lifecycle, MetricsRecorder, ReqId, Scheduler,
    ServeCtx, SloSpec,
};
use simcore::{SimDuration, SimTime};
use workload::{ContentSpec, RequestSpec};

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
    let gaps = REQUESTS * (TOKENS as usize - 1);
    let before = allocs();
    LARGEST.with(|m| m.set(0));
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
    // One buffer for every request's gaps, allocated at the first gap,
    // with 32 bits a gap.
    assert_eq!(recorded, 1, "{recorded} allocations to record the gaps");
    let largest = LARGEST.with(Cell::get);
    assert!(
        largest <= gaps * std::mem::size_of::<u32>(),
        "recording made a {largest}-byte allocation for {gaps} gaps"
    );

    let before = allocs();
    LARGEST.with(|m| m.set(0));
    let report = m.report(&arrivals, SimDuration::from_secs(5.0), &SloSpec::llama8b());
    let reported = allocs() - before;
    assert_eq!(report.tbt.len(), gaps);
    // The gaps move into the report whole, still 32 bits each; what
    // allocates is the other summaries (TTFT, TPOT, E2E, one sample per
    // request) growing as they are recorded.
    assert!(reported <= 48, "{reported} allocations to build the report");
    let largest = LARGEST.with(Cell::get);
    assert!(
        largest < gaps * std::mem::size_of::<u32>(),
        "building the report made a {largest}-byte allocation: the samples were copied or widened"
    );
}

/// A decode-only engine on one [`DecodeSide`]: each arrival's context
/// lands on the decode side already prefilled, and every launch counts
/// the allocations its iteration work takes.
struct DecodeOnly {
    model: ModelSpec,
    par: Parallelism,
    table: LeaseTable,
    lifecycle: Lifecycle,
    waiting: VecDeque<ReqId>,
    side: DecodeSide,
    stream: Option<(GroupId, CtxId)>,
    /// The widest batch launched so far.
    widest: usize,
    /// Launches no wider than an earlier one, and their allocations.
    warm: usize,
    warm_allocs: usize,
    cold_allocs: usize,
}

impl DecodeOnly {
    fn step(&mut self, ctx: &mut ServeCtx) {
        self.side.admit(&mut self.table, &mut self.lifecycle, ctx);
        let now = ctx.now();
        if !self
            .side
            .grow(&mut self.table, &mut self.waiting, &mut self.lifecycle, now)
        {
            return;
        }
        let width = self.side.batch().len();
        let before = allocs();
        let work = self.side.iteration_work(&self.model, &self.par);
        let made = allocs() - before;
        if width <= self.widest {
            self.warm += 1;
            self.warm_allocs += made;
        } else {
            self.cold_allocs += made;
            self.widest = width;
        }
        let (group, stream) = self.stream.expect("started");
        self.side.launch(ctx, group, stream, work, 0);
    }
}

impl Scheduler for DecodeOnly {
    fn on_start(&mut self, ctx: &mut ServeCtx) {
        let group = ctx.gpu.create_group(vec![0]);
        let sms = ctx.gpu.spec().sm_count;
        self.stream = Some((group, ctx.gpu.set_context(group, sms)));
    }

    fn on_arrival(&mut self, id: ReqId, ctx: &mut ServeCtx) {
        self.lifecycle.admit(id);
        let context = ctx.request(id).input_tokens();
        self.side.queue(Handoff {
            id,
            context,
            reserved: false,
        });
        self.step(ctx);
    }

    fn on_kernel_done(&mut self, _tag: u64, ctx: &mut ServeCtx) {
        self.side
            .iteration_done(&mut self.table, &mut self.lifecycle, ctx);
        self.step(ctx);
    }
}

#[test]
fn a_warm_decode_launch_allocates_nothing_for_its_context_list() {
    const REQUESTS: usize = 48;
    let reqs: Vec<RequestSpec> = (0..REQUESTS)
        .map(|i| RequestSpec {
            id: i as u64,
            arrival: SimTime::from_secs(0.005 * i as f64),
            session: i as u64,
            turn: 0,
            content: ContentSpec::single(i as u64, 200 + 10 * i as u64),
            prior_context: 0,
            output_tokens: 160,
        })
        .collect();
    let cluster = ClusterSpec::single_a100();
    let mut engine = DecodeOnly {
        model: ModelSpec::llama8b(),
        par: Parallelism::tp(1, cluster.nvlink_gbs),
        table: LeaseTable::new(1 << 20, 64),
        lifecycle: Lifecycle::new(),
        waiting: VecDeque::new(),
        side: DecodeSide::new(),
        stream: None,
        widest: 0,
        warm: 0,
        warm_allocs: 0,
        cold_allocs: 0,
    };
    let report =
        Driver::new(GpuSim::from_cluster(&cluster), reqs, SloSpec::llama8b()).run(&mut engine);
    assert_eq!(report.finished, REQUESTS);
    assert!(engine.widest > 1, "the batch never grew");
    assert!(
        engine.cold_allocs > 0,
        "widening the batch grows the buffer"
    );
    assert!(engine.warm >= 100, "only {} warm launches", engine.warm);
    assert_eq!(
        engine.warm_allocs, 0,
        "{} warm launches allocated {} times for their context lists",
        engine.warm, engine.warm_allocs
    );
}
