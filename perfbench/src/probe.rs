//! Forwarding wrappers that observe the engines and the router from
//! outside.
//!
//! [`Probe`] wraps any engine and forwards all sixteen [`Scheduler`]
//! methods to it unchanged, including the defaulted ones (`groups`,
//! `streams`, `counters`, the lease tables, `decode_iter_stats`,
//! `set_macro_steps`). A wrapper that dropped one of them would silently
//! change utilization, the leak check or `KvShrink` handling; the
//! report-equality checks in `main.rs` catch that. Around each of the
//! eight context-carrying callbacks it runs a [`Hook`]:
//!
//! * [`Stopwatch`] times each callback (the per-layer ledger);
//! * [`Books`] watches request copies reach their first token and their
//!   finish (offered-request accounting, see `books.rs`).
//!
//! Hooks hand their tallies back over a channel when the wrapper drops,
//! because a `Fleet` owns its members' schedulers and drops them at the
//! end of `Fleet::run`.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::mpsc::Sender;
use std::sync::Arc;
use std::time::Instant;

use fleet::{Decision, InstanceSignals, RoutePolicy};
use gpusim::{CtxId, GroupId};
use serving::{CrashVictim, EngineCounters, FaultKind, LeaseTable, ReqId, Scheduler, ServeCtx};
use simcore::stats::Summary;
use simcore::SimTime;
use workload::RequestSpec;

use crate::books::CopyOutcome;
use crate::clock;

/// The eight scheduler callbacks that run during a simulation
/// (`on_start` runs once while the instance is built and is timed as
/// part of set-up).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Callback {
    Arrival,
    KernelDone,
    TransferDone,
    Timer,
    Fault,
    Shed,
    GpuLost,
    GpuRecovered,
}

impl Callback {
    /// Every callback, in ledger order.
    pub const ALL: [Callback; 8] = [
        Callback::Arrival,
        Callback::KernelDone,
        Callback::TransferDone,
        Callback::Timer,
        Callback::Fault,
        Callback::Shed,
        Callback::GpuLost,
        Callback::GpuRecovered,
    ];

    /// The `Scheduler` method name.
    pub fn name(self) -> &'static str {
        match self {
            Callback::Arrival => "on_arrival",
            Callback::KernelDone => "on_kernel_done",
            Callback::TransferDone => "on_transfer_done",
            Callback::Timer => "on_timer",
            Callback::Fault => "on_fault",
            Callback::Shed => "on_shed",
            Callback::GpuLost => "on_gpu_lost",
            Callback::GpuRecovered => "on_gpu_recovered",
        }
    }
}

/// Which crate implements a wrapped engine.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EngineCrate {
    /// `crates/core`: MuxWise.
    Core,
    /// `crates/baselines`: SGLang-PD and the other baselines.
    Baselines,
}

/// Runs around each context-carrying callback of a [`Probe`].
pub trait Hook: Send {
    /// Runs `call` (the forwarded callback) and returns its result.
    fn around<R>(
        &mut self,
        cb: Callback,
        ctx: &mut ServeCtx,
        call: impl FnOnce(&mut ServeCtx) -> R,
    ) -> R;
    /// A request copy is delivered to the engine (before `on_arrival`).
    fn delivered(&mut self, _id: ReqId, _ctx: &ServeCtx) {}
    /// `on_shed` returned: `dropped` is its result.
    fn shed(&mut self, _id: ReqId, _dropped: bool) {}
    /// The wrapper is dropping; `inner` is the engine, still alive.
    fn close(&mut self, _inner: &dyn Scheduler) {}
}

/// A forwarding [`Scheduler`] that runs a [`Hook`] around the engine's
/// callbacks.
pub struct Probe<H: Hook> {
    inner: Box<dyn Scheduler>,
    hook: H,
}

impl<H: Hook> Probe<H> {
    /// Wraps `inner`.
    pub fn new(inner: Box<dyn Scheduler>, hook: H) -> Probe<H> {
        Probe { inner, hook }
    }
}

impl<H: Hook> Drop for Probe<H> {
    fn drop(&mut self) {
        self.hook.close(self.inner.as_ref());
    }
}

impl<H: Hook> Scheduler for Probe<H> {
    fn on_start(&mut self, ctx: &mut ServeCtx) {
        self.inner.on_start(ctx);
    }
    fn on_arrival(&mut self, id: ReqId, ctx: &mut ServeCtx) {
        self.hook.delivered(id, ctx);
        let inner = &mut self.inner;
        self.hook
            .around(Callback::Arrival, ctx, |ctx| inner.on_arrival(id, ctx));
    }
    fn on_kernel_done(&mut self, tag: u64, ctx: &mut ServeCtx) {
        let inner = &mut self.inner;
        self.hook.around(Callback::KernelDone, ctx, |ctx| {
            inner.on_kernel_done(tag, ctx)
        });
    }
    fn on_transfer_done(&mut self, tag: u64, ctx: &mut ServeCtx) {
        let inner = &mut self.inner;
        self.hook.around(Callback::TransferDone, ctx, |ctx| {
            inner.on_transfer_done(tag, ctx)
        });
    }
    fn on_timer(&mut self, tag: u64, ctx: &mut ServeCtx) {
        let inner = &mut self.inner;
        self.hook
            .around(Callback::Timer, ctx, |ctx| inner.on_timer(tag, ctx));
    }
    fn groups(&self) -> Vec<GroupId> {
        self.inner.groups()
    }
    fn streams(&self) -> Vec<(GroupId, CtxId)> {
        self.inner.streams()
    }
    fn counters(&self) -> EngineCounters {
        self.inner.counters()
    }
    fn lease_tables(&self) -> Vec<&LeaseTable> {
        self.inner.lease_tables()
    }
    fn lease_tables_mut(&mut self) -> Vec<&mut LeaseTable> {
        self.inner.lease_tables_mut()
    }
    fn on_fault(&mut self, active: &[FaultKind], ctx: &mut ServeCtx) {
        let inner = &mut self.inner;
        self.hook
            .around(Callback::Fault, ctx, |ctx| inner.on_fault(active, ctx));
    }
    fn on_shed(&mut self, id: ReqId, ctx: &mut ServeCtx) -> bool {
        let inner = &mut self.inner;
        let dropped = self
            .hook
            .around(Callback::Shed, ctx, |ctx| inner.on_shed(id, ctx));
        self.hook.shed(id, dropped);
        dropped
    }
    fn on_gpu_lost(&mut self, gpu: u32, cancelled: &[u64], ctx: &mut ServeCtx) -> Vec<CrashVictim> {
        let inner = &mut self.inner;
        self.hook.around(Callback::GpuLost, ctx, |ctx| {
            inner.on_gpu_lost(gpu, cancelled, ctx)
        })
    }
    fn on_gpu_recovered(&mut self, gpu: u32, ctx: &mut ServeCtx) {
        let inner = &mut self.inner;
        self.hook.around(Callback::GpuRecovered, ctx, |ctx| {
            inner.on_gpu_recovered(gpu, ctx)
        });
    }
    fn decode_iter_stats(&self) -> (u64, u64) {
        self.inner.decode_iter_stats()
    }
    fn set_macro_steps(&mut self, on: bool) {
        self.inner.set_macro_steps(on);
    }
}

fn nanos_between(t0: Instant, t1: Instant) -> u64 {
    u64::try_from(t1.duration_since(t0).as_nanos()).unwrap_or(u64::MAX)
}

/// One engine's callback ledger, sent when its wrapper drops.
#[derive(Debug, Clone)]
pub struct EngineTally {
    /// Crate of the wrapped engine.
    pub krate: EngineCrate,
    /// Calls per callback, in [`Callback::ALL`] order.
    pub calls: [u64; 8],
    /// Wall nanoseconds inside each callback.
    pub busy_ns: [u64; 8],
    /// Per-call wall nanoseconds of `on_kernel_done`.
    pub kernel_done_ns: Summary,
    /// `(decode iterations, macro-coalesced iterations)`.
    pub decode_iters: (u64, u64),
    /// The engine's lifecycle counters.
    pub counters: EngineCounters,
}

/// Times every callback of one engine.
pub struct Stopwatch {
    tally: EngineTally,
    /// Engine busy nanoseconds summed over every wrapped engine of the
    /// run; the router wrapper reads it to net engine time out of the
    /// gap between two routing decisions.
    engine_busy: Arc<AtomicU64>,
    out: Sender<EngineTally>,
}

impl Stopwatch {
    /// A stopwatch for an engine from `krate`.
    pub fn new(
        krate: EngineCrate,
        engine_busy: Arc<AtomicU64>,
        out: Sender<EngineTally>,
    ) -> Stopwatch {
        Stopwatch {
            tally: EngineTally {
                krate,
                calls: [0; 8],
                busy_ns: [0; 8],
                kernel_done_ns: Summary::new(),
                decode_iters: (0, 0),
                counters: EngineCounters::default(),
            },
            engine_busy,
            out,
        }
    }
}

impl Hook for Stopwatch {
    fn around<R>(
        &mut self,
        cb: Callback,
        ctx: &mut ServeCtx,
        call: impl FnOnce(&mut ServeCtx) -> R,
    ) -> R {
        let t0 = clock::now();
        let r = call(ctx);
        let ns = nanos_between(t0, clock::now());
        let k = cb as usize;
        self.tally.calls[k] += 1;
        self.tally.busy_ns[k] += ns;
        if cb == Callback::KernelDone {
            self.tally.kernel_done_ns.record(ns as f64);
        }
        // Relaxed: a statistic that publishes no other data.
        self.engine_busy.fetch_add(ns, Ordering::Relaxed);
        r
    }

    fn close(&mut self, inner: &dyn Scheduler) {
        self.tally.decode_iters = inner.decode_iter_stats();
        self.tally.counters = inner.counters();
        // The receiver outlives every run; a send error can only mean
        // the benchmark is already unwinding.
        let _ = self.out.send(self.tally.clone());
    }
}

#[derive(Debug, Clone, Copy)]
struct CopyState {
    outcome: CopyOutcome,
    open: bool,
}

/// Follows every request copy one engine receives to its first token
/// and its finish. The state it reads (`tokens_emitted`,
/// `is_finished`) only changes inside callbacks, so checking the open
/// copies after each callback sees every transition at the simulated
/// instant it happened.
pub struct Books {
    copies: Vec<Option<CopyState>>,
    open: Vec<ReqId>,
    out: Sender<Vec<CopyOutcome>>,
}

impl Books {
    /// Books for one engine, sent to `out` when its wrapper drops.
    pub fn new(out: Sender<Vec<CopyOutcome>>) -> Books {
        Books {
            copies: Vec::new(),
            open: Vec::new(),
            out,
        }
    }

    fn sweep(&mut self, now: SimTime, ctx: &ServeCtx) {
        let copies = &mut self.copies;
        self.open.retain(|&id| {
            let Some(c) = copies[id].as_mut() else {
                return false;
            };
            if c.outcome.first_token.is_none() && ctx.tokens_emitted(id) > 0 {
                c.outcome.first_token = Some(now);
            }
            if ctx.is_finished(id) {
                c.outcome.finished = true;
                c.open = false;
            }
            c.open
        });
    }
}

impl Hook for Books {
    fn around<R>(
        &mut self,
        _cb: Callback,
        ctx: &mut ServeCtx,
        call: impl FnOnce(&mut ServeCtx) -> R,
    ) -> R {
        let r = call(ctx);
        self.sweep(ctx.now(), ctx);
        r
    }

    fn delivered(&mut self, id: ReqId, ctx: &ServeCtx) {
        if self.copies.len() <= id {
            self.copies.resize(id + 1, None);
        }
        let c = self.copies[id].get_or_insert(CopyState {
            outcome: CopyOutcome {
                offered: ctx.request(id).id,
                first_token: None,
                finished: false,
            },
            open: false,
        });
        // A crash victim is delivered again when it is re-injected.
        if !c.open && !c.outcome.finished {
            c.open = true;
            self.open.push(id);
        }
    }

    fn shed(&mut self, id: ReqId, dropped: bool) {
        // A dropped copy left the engine's queue and emits nothing more.
        if dropped {
            if let Some(c) = self.copies.get_mut(id).and_then(Option::as_mut) {
                c.open = false;
            }
            self.open.retain(|&o| o != id);
        }
    }

    fn close(&mut self, _inner: &dyn Scheduler) {
        let outcomes = self.copies.iter().flatten().map(|c| c.outcome).collect();
        let _ = self.out.send(outcomes);
    }
}

/// A forwarding [`RoutePolicy`] that times each routing decision and
/// the gap since the previous one.
pub struct TimedRoute<'a> {
    inner: &'a mut dyn RoutePolicy,
    engine_busy: Arc<AtomicU64>,
    /// Wall nanoseconds inside `pick`, one sample per call.
    pub pick_ns: Summary,
    /// Wall nanoseconds between the end of one `pick` and the start of
    /// the next, minus engine callback time in that gap: the fleet's
    /// per-arrival cost of stepping members and collecting signals.
    pub gap_ns: Summary,
    last: Option<(Instant, u64)>,
}

impl<'a> TimedRoute<'a> {
    /// Wraps `inner`; `engine_busy` is the run's shared engine clock.
    pub fn new(inner: &'a mut dyn RoutePolicy, engine_busy: Arc<AtomicU64>) -> TimedRoute<'a> {
        TimedRoute {
            inner,
            engine_busy,
            pick_ns: Summary::new(),
            gap_ns: Summary::new(),
            last: None,
        }
    }
}

impl RoutePolicy for TimedRoute<'_> {
    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn pick(&mut self, spec: &RequestSpec, signals: &[InstanceSignals]) -> Decision {
        let start = clock::now();
        if let Some((end, busy_then)) = self.last {
            let gap = nanos_between(end, start);
            let engine = self.engine_busy.load(Ordering::Relaxed) - busy_then;
            self.gap_ns.record(gap.saturating_sub(engine) as f64);
        }
        let d = self.inner.pick(spec, signals);
        let end = clock::now();
        self.pick_ns.record(nanos_between(start, end) as f64);
        self.last = Some((end, self.engine_busy.load(Ordering::Relaxed)));
        d
    }
}
