//! What each workload measures, run on the worker thread.
//!
//! `--trace 0` repeats set-up and the bare (unwrapped) run until the
//! run time is spent, timing the set-ups and checking that every repeat
//! reports the same, then derives the simulated metrics. Fleets add one
//! accounting run with [`Books`](crate::probe::Books) around every
//! engine, stepping on [`REPLAY_THREADS`] threads; its report must equal
//! the measured 1-thread run's.
//!
//! `--trace 1` alternates bare and traced runs on one thread and emits
//! the per-layer ledger of the last traced run; every report must equal
//! a bare reference run on [`REPLAY_THREADS`] threads.

use std::sync::atomic::AtomicU64;
use std::sync::mpsc::{self, Sender};
use std::sync::Arc;
use std::time::{Duration, Instant};

use fleet::{FleetReport, PrefixAffinity};
use simcore::stats::Summary;
use simcore::SimTime;

use crate::books::{self, CopyOutcome};
use crate::clock;
use crate::digest;
use crate::probe::{Callback, EngineCrate, EngineTally, TimedRoute};
use crate::workloads::{
    run_fleet, run_rung, setup_fleet, setup_solo, FleetRun, Rung, RungRun, SetupTimes, Workload,
    Wrap, SOLO_LATENCY_RUNG,
};

/// Progress and results, sent to the supervising thread as they are
/// known, so a run that never returns still leaves a record.
pub enum Msg {
    /// A simulation run of this many offered requests starts.
    Begin(usize),
    /// The run that just returned failed its simulated-horizon check.
    Failed,
    /// One set-up's phase times.
    Setup(SetupTimes),
    /// A metric value.
    Metric(String, f64),
    /// A correctness check and whether it held.
    Check(&'static str, bool),
    /// The measurement finished.
    Done,
}

/// Threads of the fleet runs that check replay identity. Measured fleet
/// runs step on one thread: on a 2-vCPU host, the 2-thread wall time
/// swung by 40% across invocations with contention from outside.
const REPLAY_THREADS: usize = 2;

/// Untimed set-ups at the start of an invocation: they fault in the
/// memory the later ones reuse, a cost that varies from process to
/// process and that a long-lived server pays once.
const SETUP_WARMUP: usize = 3;
/// Timed set-ups before each bare run; `setup_s` and the per-layer
/// set-up phases are their medians. Each takes milliseconds, so one
/// sample is mostly noise, and a shared host's speed swings over
/// seconds, so the samples are spread over the whole run time rather
/// than made back to back.
const SETUPS_PER_RUN: usize = 5;

struct Out<'a>(&'a Sender<Msg>);

impl Out<'_> {
    fn send(&self, m: Msg) {
        // The supervisor only stops listening after a deadline trip,
        // when nothing this thread sends matters any more.
        let _ = self.0.send(m);
    }
    fn metric(&self, name: &str, v: f64) {
        self.send(Msg::Metric(name.to_string(), v));
    }
    fn check(&self, what: &'static str, ok: bool) {
        self.send(Msg::Check(what, ok));
    }
}

/// Measures workload `w` for about `seconds` of wall time.
pub fn workload(w: Workload, seed: u64, seconds: f64, trace: bool, tx: &Sender<Msg>) {
    let out = Out(tx);
    for _ in 0..SETUP_WARMUP {
        match w {
            Workload::Solo => drop(setup_solo(seed, &Wrap::Bare)),
            _ => drop(setup_fleet(w, seed, 1, &Wrap::Bare)),
        }
    }
    let stop = clock::now() + Duration::from_secs_f64(seconds);
    match (w, trace) {
        (Workload::Solo, false) => solo_e2e(seed, stop, &out),
        (Workload::Solo, true) => solo_traced(seed, stop, &out),
        (_, false) => fleet_e2e(w, seed, stop, &out),
        (_, true) => fleet_traced(w, seed, stop, &out),
    }
    out.send(Msg::Done);
}

/// Peak resident memory of this process (`VmHWM`), MB; 0 where
/// `/proc` is unavailable. Read after the first measured iteration:
/// later iterations only let allocator fragmentation creep the peak by
/// an amount that depends on how many fit in the run time.
fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Makes [`SETUPS_PER_RUN`] timed set-ups, reporting each, and returns
/// the last one built; the others are dropped as soon as they are timed.
fn timed_setups<T>(out: &Out, setup: impl Fn() -> (T, SetupTimes)) -> T {
    for _ in 1..SETUPS_PER_RUN {
        out.send(Msg::Setup(setup().1));
    }
    let (built, t) = setup();
    out.send(Msg::Setup(t));
    built
}

// ---------------------------------------------------------------------
// solo-toolagent-8b

fn run_ladder(rungs: Vec<Rung>, out: &Out) -> Vec<RungRun> {
    rungs
        .into_iter()
        .map(|r| {
            out.send(Msg::Begin(r.requests()));
            run_rung(r)
        })
        .collect()
}

fn ladder_wall(runs: &[RungRun]) -> f64 {
    runs.iter().map(|r| r.step_s + r.finish_s).sum()
}

fn ladder_digest(runs: &[RungRun]) -> Vec<u64> {
    runs.iter().map(|r| digest::report(&r.report)).collect()
}

fn solo_e2e(seed: u64, stop: Instant, out: &Out) {
    let mut first: Option<Vec<u64>> = None;
    let mut repeats_identical = true;
    loop {
        let rungs = timed_setups(out, || setup_solo(seed, &Wrap::Bare));
        let runs = run_ladder(rungs, out);
        let d = ladder_digest(&runs);
        match &first {
            None => {
                out.metric("peak_rss_mb", peak_rss_mb());
                solo_checks(&runs, out);
                solo_metrics(&runs, out);
                first = Some(d);
            }
            Some(f) => repeats_identical &= *f == d,
        }
        if clock::now() >= stop {
            break;
        }
    }
    out.check("repeats_identical", repeats_identical);
}

/// Books close on every rung that drained. A rung cut off by its time
/// cap (the overloaded top of the ladder) ends with requests still in
/// flight, which is how the stability sweep detects overload.
fn solo_checks(runs: &[RungRun], out: &Out) {
    let closed = runs.iter().all(|r| {
        let cut = r.report.makespan.as_secs() >= r.horizon.as_secs() - 1.0;
        cut || books::books_close(&r.report)
    });
    out.check("books_close", closed);
    let leaked: u64 = runs.iter().map(|r| r.report.counters.leaked_leases).sum();
    out.check("zero_leaks", leaked == 0);
}

fn solo_metrics(runs: &[RungRun], out: &Out) {
    let r = &runs[SOLO_LATENCY_RUNG].report;
    let offered = books::from_report(r);
    out.metric("ttft_p50_s", r.ttft.p50());
    out.metric("ttft_p95_s", r.ttft.percentile(95.0));
    out.metric("tbt_p99_ms", r.tbt.p99() * 1e3);
    out.metric("ttft_attainment", offered.ttft_attainment());
    out.metric("finished_frac", offered.finished_frac());
    // `FleetReport::goodput_tokens_per_sec`'s weighting on one report,
    // over the nominal offered span.
    let span = r.total as f64 / runs[SOLO_LATENCY_RUNG].rate;
    out.metric(
        "goodput_tok_s",
        r.total_tokens as f64 * r.tbt_attainment() * r.ttft_attainment() / span,
    );
    let goodput_rps = runs
        .iter()
        .filter(|run| {
            let rep = &run.report;
            books::from_report(rep).ttft_attainment() >= 0.9
                && rep.tbt.p99() <= rep.slo.tbt.as_secs()
                && rep.is_stable()
        })
        .map(|run| run.rate)
        .fold(0.0, f64::max);
    out.metric("goodput_rps", goodput_rps);
}

fn solo_traced(seed: u64, stop: Instant, out: &Out) {
    let mut bare_walls = Vec::new();
    let mut traced_walls = Vec::new();
    let mut identical = true;
    let mut sim_s;
    loop {
        let rungs = timed_setups(out, || setup_solo(seed, &Wrap::Bare));
        let bare = run_ladder(rungs, out);
        bare_walls.push(ladder_wall(&bare));
        sim_s = bare.iter().map(|r| r.report.makespan.as_secs()).sum();
        let want = ladder_digest(&bare);
        drop(bare);

        let engine_busy = Arc::new(AtomicU64::new(0));
        let (etx, erx) = mpsc::channel();
        let wrap = Wrap::Timed {
            engine_busy,
            out: etx,
        };
        let (rungs, _) = setup_solo(seed, &wrap);
        let traced = run_ladder(rungs, out);
        let wall = ladder_wall(&traced);
        traced_walls.push(wall);
        identical &= ladder_digest(&traced) == want;
        if clock::now() >= stop {
            let tallies: Vec<EngineTally> = erx.try_iter().collect();
            let step_s: f64 = traced.iter().map(|r| r.step_s).sum();
            let engine_s = engine_metrics(&tallies, wall, out);
            out.metric("serving.step_s", step_s);
            out.metric("serving.finish_s", traced.iter().map(|r| r.finish_s).sum());
            out.metric("serving.self_s", step_s - engine_s);
            let events: u64 = traced.iter().map(|r| r.events).sum();
            out.metric("gpusim.events", events as f64);
            out.metric("gpusim.events_per_wall_s", events as f64 / wall);
            break;
        }
    }
    out.check("traced_equals_untraced", identical);
    overhead_metrics(sim_s, &bare_walls, &traced_walls, out);
}

// ---------------------------------------------------------------------
// fleets

fn fleet_e2e(w: Workload, seed: u64, stop: Instant, out: &Out) {
    let mut first: Option<u64> = None;
    let mut repeats_identical = true;
    loop {
        let setup = timed_setups(out, || setup_fleet(w, seed, 1, &Wrap::Bare));
        out.send(Msg::Begin(setup.trace.len()));
        let run = run_fleet(setup, &mut PrefixAffinity::default());
        if !run.within_horizon() {
            out.send(Msg::Failed);
        }
        let d = digest::fleet(&run.report);
        match first {
            None => {
                out.metric("peak_rss_mb", peak_rss_mb());
                let closed = run.report.reports.iter().all(books::books_close);
                out.check("books_close", closed);
                out.check("zero_leaks", run.report.leaked_leases() == 0);
                fleet_latency_metrics(&run, out);
                first = Some(d);
            }
            Some(f) => repeats_identical &= f == d,
        }
        if clock::now() >= stop {
            break;
        }
    }
    out.check("repeats_identical", repeats_identical);

    // Offered-request accounting needs each copy's first token, which
    // only the engine boundary shows: one more run, engines wrapped in
    // `Books`, stepping on two threads.
    let (btx, brx) = mpsc::channel::<Vec<CopyOutcome>>();
    let (setup, _) = setup_fleet(w, seed, REPLAY_THREADS, &Wrap::Books { out: btx });
    out.send(Msg::Begin(setup.trace.len()));
    let run = run_fleet(setup, &mut PrefixAffinity::default());
    out.check(
        "two_thread_books_run_equals_measured_run",
        first == Some(digest::fleet(&run.report)),
    );
    let arrivals: Vec<SimTime> = run.trace.iter().map(|r| r.arrival).collect();
    let slo = run
        .report
        .reports
        .first()
        .map_or(0.5, |r| r.slo.ttft.as_secs());
    let offered = books::fold_copies(&arrivals, brx.try_iter().flatten(), slo);
    out.check("copies_map_to_offered_requests", offered.is_ok());
    let offered = offered.unwrap_or_default();
    let mut finished_frac = offered.finished_frac();
    if !run.within_horizon() {
        out.send(Msg::Failed);
        finished_frac = 0.0;
    }
    out.metric("ttft_attainment", offered.ttft_attainment());
    out.metric("finished_frac", finished_frac);
    out.metric("goodput_rps", offered.ttft_hits as f64 / run.offered_span_s);
}

/// Latencies pooled over every member's samples, and fleet goodput:
/// `FleetReport::goodput_tokens_per_sec`'s SLO weighting over the
/// nominal offered span.
fn fleet_latency_metrics(run: &FleetRun, out: &Out) {
    let mut ttft = Summary::new();
    let mut tbt = Summary::new();
    for r in &run.report.reports {
        ttft.merge(&r.ttft);
        tbt.merge(&r.tbt);
    }
    out.metric("ttft_p50_s", ttft.p50());
    out.metric("ttft_p95_s", ttft.percentile(95.0));
    out.metric("tbt_p99_ms", tbt.p99() * 1e3);
    let weighted: f64 = run
        .report
        .reports
        .iter()
        .map(|r| r.total_tokens as f64 * r.tbt_attainment() * r.ttft_attainment())
        .sum();
    out.metric("goodput_tok_s", weighted / run.offered_span_s);
}

fn fleet_traced(w: Workload, seed: u64, stop: Instant, out: &Out) {
    // The reference report: unwrapped, on two threads.
    let (setup, _) = setup_fleet(w, seed, REPLAY_THREADS, &Wrap::Bare);
    out.send(Msg::Begin(setup.trace.len()));
    let want = digest::fleet(&run_fleet(setup, &mut PrefixAffinity::default()).report);

    let mut bare_walls = Vec::new();
    let mut traced_walls = Vec::new();
    let mut one_thread_identical = true;
    let mut traced_identical = true;
    let mut sim_s;
    loop {
        let setup = timed_setups(out, || setup_fleet(w, seed, 1, &Wrap::Bare));
        out.send(Msg::Begin(setup.trace.len()));
        let run = run_fleet(setup, &mut PrefixAffinity::default());
        bare_walls.push(run.wall_s);
        sim_s = run.sim_s();
        one_thread_identical &= digest::fleet(&run.report) == want;
        drop(run);

        let engine_busy = Arc::new(AtomicU64::new(0));
        let (etx, erx) = mpsc::channel();
        let wrap = Wrap::Timed {
            engine_busy: engine_busy.clone(),
            out: etx,
        };
        let (setup, _) = setup_fleet(w, seed, 1, &wrap);
        out.send(Msg::Begin(setup.trace.len()));
        let mut policy = PrefixAffinity::default();
        let mut route = TimedRoute::new(&mut policy, engine_busy);
        let run = run_fleet(setup, &mut route);
        traced_walls.push(run.wall_s);
        traced_identical &= digest::fleet(&run.report) == want;
        if clock::now() >= stop {
            let tallies: Vec<EngineTally> = erx.try_iter().collect();
            let engine_s = engine_metrics(&tallies, run.wall_s, out);
            fleet_layers(&run.report, &route, engine_s, run.wall_s, out);
            break;
        }
    }
    out.check("one_thread_equals_two_threads", one_thread_identical);
    out.check("traced_equals_untraced", traced_identical);
    overhead_metrics(sim_s, &bare_walls, &traced_walls, out);
}

fn fleet_layers(report: &FleetReport, route: &TimedRoute, engine_s: f64, wall: f64, out: &Out) {
    let route_s = route.pick_ns.samples().iter().sum::<f64>() * 1e-9;
    out.metric("fleet.run_s", wall);
    out.metric("fleet.route.picks", route.pick_ns.len() as f64);
    out.metric("fleet.route.busy_s", route_s);
    out.metric("fleet.route.ns_p50", route.pick_ns.p50());
    out.metric("fleet.route.ns_p99", route.pick_ns.p99());
    out.metric("fleet.barrier_gap.ns_p50", route.gap_ns.p50());
    out.metric("fleet.barrier_gap.ns_p99", route.gap_ns.p99());
    out.metric("fleet.self_share", 1.0 - (engine_s + route_s) / wall);
    out.metric("gpusim.events", report.total_events() as f64);
    out.metric(
        "gpusim.events_per_wall_s",
        report.total_events() as f64 / wall,
    );
    out.metric("fleet.prefix_hit_rate", report.prefix_hit_rate());
    out.metric("fleet.load_imbalance", report.load_imbalance());
    out.metric("fleet.hedges_launched", report.hedge.launched as f64);
    out.metric("fleet.hedge_wins", report.hedge.hedge_wins as f64);
    out.metric("fleet.cancelled", report.cancelled() as f64);
    let wasted: u64 = report.reports.iter().map(|r| r.cancelled_tokens).sum();
    out.metric("fleet.cancelled_tokens", wasted as f64);
    out.metric("fleet.migrated", report.failover.migrated as f64);
    out.metric(
        "fleet.migrated_finished",
        report.failover.migrated_finished as f64,
    );
    out.metric(
        "fleet.replicas_pushed",
        report.replication.replicas_pushed as f64,
    );
    out.metric("fleet.ejections", report.health.ejections as f64);
    out.metric("fleet.gray_trips", report.health.gray_trips as f64);
    out.metric("fleet.ingress_shed", report.overload.ingress_shed as f64);
    let victims: u64 = report
        .reports
        .iter()
        .map(|r| r.recovery.crash_victims)
        .sum();
    let recovered: u64 = report.reports.iter().map(|r| r.recovery.recovered).sum();
    out.metric("serving.crash_victims", victims as f64);
    out.metric("serving.recovered", recovered as f64);
}

// ---------------------------------------------------------------------
// shared ledger pieces

/// Emits the engine-callback ledger; returns engine busy seconds over
/// both crates.
fn engine_metrics(tallies: &[EngineTally], wall: f64, out: &Out) -> f64 {
    let mut total_s = 0.0;
    for (krate, prefix) in [
        (EngineCrate::Core, "core"),
        (EngineCrate::Baselines, "baselines"),
    ] {
        let mine: Vec<&EngineTally> = tallies.iter().filter(|t| t.krate == krate).collect();
        let mut busy_s = 0.0;
        for cb in Callback::ALL {
            let k = cb as usize;
            let calls: u64 = mine.iter().map(|t| t.calls[k]).sum();
            let ns: u64 = mine.iter().map(|t| t.busy_ns[k]).sum();
            busy_s += ns as f64 * 1e-9;
            out.metric(&format!("{prefix}.{}.calls", cb.name()), calls as f64);
            out.metric(&format!("{prefix}.{}.busy_s", cb.name()), ns as f64 * 1e-9);
        }
        out.metric(&format!("{prefix}.share"), busy_s / wall);
        total_s += busy_s;
    }
    let core: Vec<&EngineTally> = tallies
        .iter()
        .filter(|t| t.krate == EngineCrate::Core)
        .collect();
    let mut kernel_done = Summary::new();
    for t in &core {
        kernel_done.merge(&t.kernel_done_ns);
    }
    out.metric("core.on_kernel_done.ns_p50", kernel_done.p50());
    out.metric("core.on_kernel_done.ns_p99", kernel_done.p99());
    let iters: u64 = core.iter().map(|t| t.decode_iters.0).sum();
    let coalesced: u64 = core.iter().map(|t| t.decode_iters.1).sum();
    out.metric("core.decode_iters", iters as f64);
    out.metric("core.decode_coalesced", coalesced as f64);
    out.metric(
        "core.macro_coalescing_ratio",
        if iters == 0 {
            0.0
        } else {
            coalesced as f64 / iters as f64
        },
    );
    out.metric(
        "core.requeues",
        core.iter().map(|t| t.counters.requeues).sum::<u64>() as f64,
    );
    out.metric(
        "core.drops",
        core.iter().map(|t| t.counters.drops).sum::<u64>() as f64,
    );
    out.metric(
        "core.preemptions",
        core.iter().map(|t| t.counters.preemptions).sum::<u64>() as f64,
    );
    total_s
}

/// The median of `values` (0 when empty).
pub fn median(values: impl IntoIterator<Item = f64>) -> f64 {
    let mut s = Summary::new();
    for v in values {
        s.record(v);
    }
    s.p50()
}

/// Run speed and tracing overhead. `sim_s` is one run's simulated
/// instance-seconds: rung makespans summed on the ladder, member
/// makespans summed on a fleet, so the figure does not hinge on the last
/// straggler's drain.
fn overhead_metrics(sim_s: f64, bare_walls: &[f64], traced_walls: &[f64], out: &Out) {
    let bare = median(bare_walls.iter().copied());
    let traced = median(traced_walls.iter().copied());
    out.metric("bench.sim_s_per_wall_s", sim_s / bare);
    out.metric("bench.untraced_wall_s", bare);
    out.metric("bench.traced_wall_s", traced);
    out.metric("bench.trace_overhead_s", traced - bare);
}
