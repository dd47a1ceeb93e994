//! The event-driven simulation driver.
//!
//! [`Driver`] merges three event sources — request arrivals, GPU kernel /
//! transfer completions, and scheduler timers — into one deterministic
//! timeline and dispatches them to a [`Scheduler`]. The scheduler reacts
//! by calling back into the [`ServeCtx`] (submit kernels, set timers,
//! emit tokens, finish requests).

use simcore::{EventQueue, SimDuration, SimTime};

use gpusim::{CtxId, GpuSim, GroupId};
use workload::RequestSpec;

use crate::faults::{FaultKind, FaultPlan};
use crate::instance::Instance;
use crate::lease::LeaseTable;
use crate::lifecycle::EngineCounters;
use crate::metrics::{MetricsRecorder, Report};
use crate::recovery::CrashVictim;
use crate::request::{ReqId, SloSpec};

/// Events delivered to the scheduler (`FaultBoundary` is internal: the
/// driver re-evaluates active fault windows there and never forwards it;
/// `Requeue` is the recovery manager's scheduled re-injection of a crash
/// victim).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Event {
    Arrival(ReqId),
    Timer(u64),
    FaultBoundary,
    Requeue(ReqId),
}

// The parallel sweep runner moves drivers into worker threads and sends
// their reports back; catch any regression at compile time rather than
// at a distant use site.
const _: () = {
    const fn require_send<T: Send>() {}
    require_send::<Report>();
    require_send::<Driver>();
};

/// Shared state the scheduler manipulates: the GPU simulator, the request
/// list, metrics, and timers.
#[derive(Debug)]
pub struct ServeCtx {
    /// The GPU server.
    pub gpu: GpuSim,
    pub(crate) requests: Vec<RequestSpec>,
    pub(crate) metrics: MetricsRecorder,
    pub(crate) queue: EventQueue<Event>,
    pub(crate) now: SimTime,
}

impl ServeCtx {
    /// Current simulated time.
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// The request specs of this run.
    pub fn request(&self, id: ReqId) -> &RequestSpec {
        &self.requests[id]
    }

    /// Number of requests in the run.
    pub fn num_requests(&self) -> usize {
        self.requests.len()
    }

    /// Emits `count` output tokens for a request at the current time.
    ///
    /// # Panics
    ///
    /// Panics in debug builds if the request would emit more tokens
    /// than its `output_tokens`; the metrics recorder sizes each
    /// request's gap region on that bound.
    pub fn emit_tokens(&mut self, id: ReqId, count: u64) {
        debug_assert!(
            self.metrics.tokens_emitted(id) + count <= self.requests[id].output_tokens,
            "request {id} emits {count} token(s) after {} of its {}",
            self.metrics.tokens_emitted(id),
            self.requests[id].output_tokens
        );
        let now = self.now;
        self.metrics.emit_tokens(id, now, count);
    }

    /// Output tokens emitted so far for a request.
    pub fn tokens_emitted(&self, id: ReqId) -> u64 {
        self.metrics.tokens_emitted(id)
    }

    /// Marks a request complete.
    pub fn finish_request(&mut self, id: ReqId) {
        let now = self.now;
        let arrival = self.requests[id].arrival;
        self.metrics.finish(id, now, arrival);
    }

    /// Whether a request has been marked complete.
    pub fn is_finished(&self, id: ReqId) -> bool {
        self.metrics.is_finished(id)
    }

    /// Schedules a timer event with an opaque tag after `delay`.
    pub fn set_timer(&mut self, delay: SimDuration, tag: u64) {
        let at = self.now + delay;
        self.queue.push(at, Event::Timer(tag));
    }
}

/// A serving policy: MuxWise or one of the baselines.
///
/// All methods receive the mutable [`ServeCtx`]; the driver guarantees
/// `ctx.now()` is the event's timestamp and that GPU state is advanced to
/// it.
///
/// `Send` is a supertrait so boxed schedulers can be built inside the
/// parallel sweep runner's worker threads; every engine in this
/// workspace is plain owned data, so the bound costs nothing.
pub trait Scheduler: Send {
    /// One-time setup (create groups/contexts, size pools).
    fn on_start(&mut self, ctx: &mut ServeCtx);
    /// A request arrived.
    fn on_arrival(&mut self, id: ReqId, ctx: &mut ServeCtx);
    /// A kernel completed; `tag` is the scheduler's submission tag.
    fn on_kernel_done(&mut self, tag: u64, ctx: &mut ServeCtx);
    /// A link transfer completed.
    fn on_transfer_done(&mut self, _tag: u64, _ctx: &mut ServeCtx) {}
    /// A timer fired.
    fn on_timer(&mut self, _tag: u64, _ctx: &mut ServeCtx) {}
    /// Compute groups for utilization accounting (defaults to none).
    fn groups(&self) -> Vec<GroupId> {
        Vec::new()
    }
    /// Compute streams for bubble-ratio accounting.
    fn streams(&self) -> Vec<(GroupId, CtxId)> {
        Vec::new()
    }
    /// Lifecycle counters accumulated over the run, folded into the
    /// [`Report`] by the driver (defaults to all-zero for schedulers that
    /// do not track a [`crate::Lifecycle`]).
    fn counters(&self) -> EngineCounters {
        EngineCounters::default()
    }
    /// The scheduler's KV lease tables, checked by the driver's
    /// end-of-run leak detector (defaults to none for pool-less
    /// schedulers).
    fn lease_tables(&self) -> Vec<&LeaseTable> {
        Vec::new()
    }
    /// Mutable access to the same tables, used by the driver to shrink /
    /// restore pool capacity during `KvShrink` fault windows. Must
    /// return the tables in the same order as
    /// [`Scheduler::lease_tables`].
    fn lease_tables_mut(&mut self) -> Vec<&mut LeaseTable> {
        Vec::new()
    }
    /// The set of active faults changed (a window opened or closed).
    /// `active` lists every fault in effect from this instant on —
    /// empty means the hardware just recovered. Engines may switch to a
    /// conservative configuration here; they must NOT read ground-truth
    /// slowdowns (those arrive only as observed latency).
    ///
    /// It is also a wake-up. A closing `KvShrink` window restores pool
    /// capacity with no completion event to announce it, so an engine
    /// must retry here any admission or launch the smaller pool blocked;
    /// an engine that went idle waiting for space otherwise strands its
    /// requests when the run drains.
    fn on_fault(&mut self, _active: &[FaultKind], _ctx: &mut ServeCtx) {}
    /// The driver's watchdog asks the scheduler to shed a request whose
    /// TTFT deadline is unmeetable. Return `true` after removing it from
    /// the waiting queue and dropping it through
    /// [`crate::Lifecycle::drop_request`] (without emitting tokens);
    /// return `false` (the default) if the request is already running
    /// and cannot be shed.
    fn on_shed(&mut self, _id: ReqId, _ctx: &mut ServeCtx) -> bool {
        false
    }
    /// A GPU fail-stopped. The driver has already killed the device in
    /// the simulator ([`GpuSim::fail_gpu`](gpusim::GpuSim::fail_gpu));
    /// `cancelled` holds the tags of every kernel (running or queued)
    /// that died with it. The scheduler must revoke all state homed on
    /// the device — release the victims' KV leases, move them back to
    /// `Queued`, clear tag maps — and report each revoked request as a
    /// [`CrashVictim`]. The driver re-injects victims via
    /// [`Scheduler::on_arrival`] after a backoff; do NOT re-enqueue them
    /// locally. The default (for crash-unaware schedulers) reports no
    /// victims.
    fn on_gpu_lost(
        &mut self,
        _gpu: u32,
        _cancelled: &[u64],
        _ctx: &mut ServeCtx,
    ) -> Vec<CrashVictim> {
        Vec::new()
    }
    /// A previously failed GPU came back (finite `down_for` elapsed).
    /// The simulator accepts work for it again; the scheduler should
    /// resume launching.
    fn on_gpu_recovered(&mut self, _gpu: u32, _ctx: &mut ServeCtx) {}
    /// `(total decode iterations, macro-coalesced iterations)` —
    /// telemetry for engines with a macro-stepped decode fast path.
    /// Coalesced launches are bit-identical to full ones, so this never
    /// affects results; the default (for engines without the
    /// optimization) reports zero.
    fn decode_iter_stats(&self) -> (u64, u64) {
        (0, 0)
    }
    /// Toggle the macro-stepped decode fast path at runtime. Coalesced
    /// launches are bit-identical to single-step ones by construction;
    /// this hook exists so equivalence tests can run the same engine
    /// both ways through `Box<dyn Scheduler>`. Engines without the
    /// optimization ignore it.
    fn set_macro_steps(&mut self, _on: bool) {}
}

/// Overload-protection knobs for the driver's per-tick watchdog.
///
/// Inactive unless installed with [`Driver::with_watchdog`]; all
/// thresholds are deterministic (no wall clock, no randomness), so
/// watchdog decisions replay identically across thread counts.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct WatchdogConfig {
    /// Admission-control cap: arrivals beyond this many in-flight
    /// (delivered, unfinished) requests are shed outright.
    pub queue_depth_cap: usize,
    /// A queued request that has produced no token this long after
    /// arrival is offered to [`Scheduler::on_shed`] (once).
    pub ttft_deadline: SimDuration,
    /// How many times an arrival is deferred (not delivered) while a
    /// severe fault window is active, before being delivered anyway.
    pub retry_budget: u32,
    /// Base deferral delay; attempt `k` waits `k × retry_backoff`.
    pub retry_backoff: SimDuration,
}

impl Default for WatchdogConfig {
    fn default() -> WatchdogConfig {
        WatchdogConfig {
            queue_depth_cap: 512,
            ttft_deadline: SimDuration::from_secs(30.0),
            retry_budget: 3,
            retry_backoff: SimDuration::from_millis(250.0),
        }
    }
}

/// Runs one serving experiment: a scheduler against a request trace on a
/// GPU simulator.
///
/// # Examples
///
/// See the crate examples (`examples/quickstart.rs`) for an end-to-end
/// run; unit construction:
///
/// ```
/// use serving::{Driver, SloSpec};
/// use gpusim::{ClusterSpec, GpuSim};
///
/// let gpu = GpuSim::from_cluster(&ClusterSpec::dgx_a100());
/// let driver = Driver::new(gpu, Vec::new(), SloSpec::llama70b());
/// ```
#[derive(Debug)]
pub struct Driver {
    pub(crate) ctx: ServeCtx,
    pub(crate) slo: SloSpec,
    /// Hard cap on simulated time (safety net against livelock).
    pub(crate) max_sim_time: SimTime,
    pub(crate) stalled: bool,
    /// Scripted fault schedule (empty = healthy hardware, strict no-op).
    pub(crate) faults: FaultPlan,
    /// Overload protection; `None` disables the watchdog entirely.
    pub(crate) watchdog: Option<WatchdogConfig>,
}

impl Driver {
    /// Creates a driver over a request trace.
    pub fn new(gpu: GpuSim, requests: Vec<RequestSpec>, slo: SloSpec) -> Driver {
        let metrics = MetricsRecorder::with_output_tokens(requests.iter().map(|r| r.output_tokens));
        Driver {
            ctx: ServeCtx {
                gpu,
                requests,
                metrics,
                queue: EventQueue::new(),
                now: SimTime::ZERO,
            },
            slo,
            max_sim_time: SimTime::from_secs(3.0 * 3600.0),
            stalled: false,
            faults: FaultPlan::none(),
            watchdog: None,
        }
    }

    /// Caps the simulated time (default three hours).
    pub fn with_max_sim_time(mut self, cap: SimTime) -> Driver {
        self.max_sim_time = cap;
        self
    }

    /// Installs a fault schedule. [`FaultPlan::none`] leaves the run
    /// bit-identical to a driver without this call.
    pub fn with_faults(mut self, plan: FaultPlan) -> Driver {
        self.faults = plan;
        self
    }

    /// Enables the overload watchdog (admission cap, deadline shedding,
    /// fault-window arrival backoff).
    pub fn with_watchdog(mut self, cfg: WatchdogConfig) -> Driver {
        self.watchdog = Some(cfg);
        self
    }

    /// Runs the simulation until all requests finish, the scheduler goes
    /// idle with work left (a stall — reported, not fatal), or the time
    /// cap is hit. Returns the metrics report.
    pub fn run(self, scheduler: &mut dyn Scheduler) -> Report {
        self.run_stats(scheduler).0
    }

    /// Like [`Driver::run`] but also returns the simulator's
    /// boundary-event count — throughput telemetry for benchmarks
    /// (events/wall-second). The report is bit-identical to
    /// [`Driver::run`]'s.
    ///
    /// This is a thin wrapper over the resumable [`Instance`] state
    /// machine: one unbounded step runs the historical event loop
    /// unmodified (the bound check compiles out when the limit is
    /// `SimTime::MAX`), so results are byte-identical to the
    /// pre-`Instance` driver.
    pub fn run_stats(self, scheduler: &mut dyn Scheduler) -> (Report, u64) {
        let mut inst = Instance::start(self, scheduler);
        inst.step_until(scheduler, SimTime::MAX);
        inst.finish(scheduler)
    }

    /// Converts the driver into a resumable [`Instance`]: fires
    /// `on_start`, enqueues the fault schedule and any pre-loaded trace,
    /// and returns the paused state machine at `t = 0`. Step it with
    /// [`Instance::step_until`]; feed it routed requests with
    /// [`Instance::admit`].
    pub fn into_instance(self, scheduler: &mut dyn Scheduler) -> Instance {
        Instance::start(self, scheduler)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gpusim::{ClusterSpec, KernelKind, WorkItem};
    use workload::ContentSpec;

    /// A trivial scheduler: each request runs one fixed-duration kernel,
    /// then emits all its tokens and finishes.
    struct OneShot {
        group: Option<GroupId>,
        ctx_id: Option<CtxId>,
    }

    impl Scheduler for OneShot {
        fn on_start(&mut self, ctx: &mut ServeCtx) {
            let g = ctx.gpu.create_group(vec![0]);
            self.group = Some(g);
            self.ctx_id = Some(ctx.gpu.set_context(g, 108));
        }
        fn on_arrival(&mut self, id: ReqId, ctx: &mut ServeCtx) {
            let work = WorkItem::new(KernelKind::Prefill, 0.0, 0.0, 0.010);
            let now = ctx.now();
            ctx.gpu.submit(
                self.group.unwrap(),
                self.ctx_id.unwrap(),
                work,
                now,
                id as u64,
            );
        }
        fn on_kernel_done(&mut self, tag: u64, ctx: &mut ServeCtx) {
            let id = tag as ReqId;
            let out = ctx.request(id).output_tokens;
            ctx.emit_tokens(id, out);
            ctx.finish_request(id);
        }
        fn groups(&self) -> Vec<GroupId> {
            self.group.into_iter().collect()
        }
    }

    fn req(id: u64, at: f64, out: u64) -> RequestSpec {
        RequestSpec {
            id,
            arrival: SimTime::from_secs(at),
            session: id,
            turn: 0,
            content: ContentSpec::single(id, 100),
            prior_context: 0,
            output_tokens: out,
        }
    }

    #[test]
    fn driver_runs_to_completion() {
        let gpu = GpuSim::from_cluster(&ClusterSpec::single_a100());
        let reqs = vec![req(0, 0.0, 5), req(1, 0.005, 3)];
        let driver = Driver::new(gpu, reqs, SloSpec::llama70b());
        let mut sched = OneShot {
            group: None,
            ctx_id: None,
        };
        let rep = driver.run(&mut sched);
        assert_eq!(rep.finished, 2);
        assert_eq!(rep.total_tokens, 8);
        assert!(rep.is_stable());
        // Second request queues behind the first: kernel FIFO.
        assert!(rep.ttft.max() >= 0.014, "queued TTFT {}", rep.ttft.max());
    }

    #[test]
    fn timers_fire_in_order() {
        struct TimerSched {
            fired: Vec<u64>,
        }
        impl Scheduler for TimerSched {
            fn on_start(&mut self, ctx: &mut ServeCtx) {
                ctx.set_timer(SimDuration::from_secs(2.0), 2);
                ctx.set_timer(SimDuration::from_secs(1.0), 1);
            }
            fn on_arrival(&mut self, _id: ReqId, _ctx: &mut ServeCtx) {}
            fn on_kernel_done(&mut self, _tag: u64, _ctx: &mut ServeCtx) {}
            fn on_timer(&mut self, tag: u64, _ctx: &mut ServeCtx) {
                self.fired.push(tag);
            }
        }
        let gpu = GpuSim::from_cluster(&ClusterSpec::single_a100());
        let driver = Driver::new(gpu, Vec::new(), SloSpec::llama8b());
        let mut sched = TimerSched { fired: Vec::new() };
        driver.run(&mut sched);
        assert_eq!(sched.fired, vec![1, 2]);
    }

    #[test]
    fn stall_is_reported_not_fatal() {
        // A scheduler that never submits anything: arrivals happen, no
        // tokens; the run ends when the queue drains, leaving unfinished
        // requests → unstable report.
        struct Dead;
        impl Scheduler for Dead {
            fn on_start(&mut self, _ctx: &mut ServeCtx) {}
            fn on_arrival(&mut self, _id: ReqId, _ctx: &mut ServeCtx) {}
            fn on_kernel_done(&mut self, _tag: u64, _ctx: &mut ServeCtx) {}
        }
        let gpu = GpuSim::from_cluster(&ClusterSpec::single_a100());
        let rep = Driver::new(gpu, vec![req(0, 0.0, 4)], SloSpec::llama8b()).run(&mut Dead);
        assert_eq!(rep.finished, 0);
        assert!(!rep.is_stable());
    }
}
