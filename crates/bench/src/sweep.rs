//! Parallel experiment runner: a deterministic worker pool for
//! simulation sweeps.
//!
//! Every experiment binary sweeps some grid — systems × rates, panels ×
//! systems, ablation variants — and each grid point is an independent
//! simulation seeded by its own [`simcore::SimRng`]. This module fans
//! those points out over a scoped-thread worker pool and collects results
//! **in submission order**, so the output of a parallel run is
//! bit-identical to the sequential path: workers never print or write,
//! they only return values; callers do all I/O after collection.
//!
//! The pool size comes from the `MUXWISE_BENCH_THREADS` environment
//! variable, defaulting to the machine's available parallelism. Setting
//! it to `1` gives a true sequential run (no threads are spawned).

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::mpsc;

use serving::{assemble_goodput, GoodputPoint, GoodputResult};
use workload::WorkloadKind;

use crate::harness::{stability_run, Faults, Run};
use crate::systems::{SystemKind, Testbed};

// Workers share `&Testbed` across threads and send `Run`s back;
// regressions in either bound should fail here, not in a distant caller.
const _: () = {
    const fn require_sync<T: Sync>() {}
    const fn require_send<T: Send>() {}
    require_sync::<Testbed>();
    require_send::<Run>();
};

/// Number of worker threads the sweep runner uses: the
/// `MUXWISE_BENCH_THREADS` environment variable when set to a positive
/// integer, otherwise the machine's available parallelism.
pub fn num_threads() -> usize {
    if let Ok(v) = std::env::var("MUXWISE_BENCH_THREADS") {
        if let Ok(n) = v.trim().parse::<usize>() {
            if n >= 1 {
                return n;
            }
        }
        static WARN_ONCE: std::sync::Once = std::sync::Once::new();
        WARN_ONCE.call_once(|| {
            eprintln!("ignoring invalid MUXWISE_BENCH_THREADS={v:?} (want a positive integer)");
        });
    }
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}

/// Runs `f` and returns its result with the wall-clock seconds it took,
/// for reporting-only throughput columns; the reading never feeds
/// simulation state.
#[allow(clippy::disallowed_methods)]
pub fn wall_timed<R>(f: impl FnOnce() -> R) -> (R, f64) {
    let t0 = std::time::Instant::now();
    let out = f();
    (out, t0.elapsed().as_secs_f64())
}

/// Applies `f` to every item on a scoped worker pool and returns the
/// results in item order — the parallel equivalent of
/// `items.iter().map(f).collect()`, bit-identical as long as `f` is a
/// pure function of its item.
///
/// Workers pull items off a shared atomic cursor, so uneven job costs
/// balance automatically. With one thread (or fewer than two items) no
/// threads are spawned at all.
///
/// # Panics
///
/// Propagates a panic from `f`.
pub fn parallel_map<I, R, F>(items: &[I], f: F) -> Vec<R>
where
    I: Sync,
    R: Send,
    F: Fn(&I) -> R + Sync,
{
    let workers = num_threads().min(items.len());
    if workers <= 1 {
        return items.iter().map(f).collect();
    }

    let cursor = AtomicUsize::new(0);
    let (tx, rx) = mpsc::channel::<(usize, R)>();
    std::thread::scope(|scope| {
        for _ in 0..workers {
            let tx = tx.clone();
            let cursor = &cursor;
            let f = &f;
            scope.spawn(move || loop {
                let i = cursor.fetch_add(1, Ordering::Relaxed);
                let Some(item) = items.get(i) else { break };
                if tx.send((i, f(item))).is_err() {
                    break;
                }
            });
        }
        drop(tx);
        let mut slots: Vec<Option<R>> = std::iter::repeat_with(|| None).take(items.len()).collect();
        for (i, r) in rx {
            slots[i] = Some(r);
        }
        slots
            .into_iter()
            .map(|s| s.expect("every item produced a result"))
            .collect()
    })
}

/// One grid point of an experiment sweep: which system, on which
/// testbed, over which workload, at what Poisson rate, with which seed,
/// under which faults. [`stability_run`] runs it.
///
/// Jobs are self-contained and order-independent — each one seeds its
/// own RNG — which is what makes the pool deterministic.
#[derive(Clone, Copy)]
pub struct SweepJob<'a> {
    /// Model/cluster/SLO bundle (shared, read-only).
    pub tb: &'a Testbed,
    /// Serving system to instantiate.
    pub kind: SystemKind,
    /// Workload generator.
    pub workload: WorkloadKind,
    /// Number of requests.
    pub n: usize,
    /// Poisson arrival rate (requests/second).
    pub rate: f64,
    /// RNG seed for trace generation and a generated fault plan.
    pub seed: u64,
    /// The fault setting.
    pub faults: Faults,
}

/// Runs a batch of sweep jobs on the worker pool; results come back in
/// job order, identical to `jobs.iter().map(stability_run)`.
pub fn run_sweep(jobs: &[SweepJob<'_>]) -> Vec<Option<Run>> {
    parallel_map(jobs, stability_run)
}

/// Goodput search over several systems at once (Fig. 15): every
/// (system × rate) grid point of healthy [`stability_run`]s runs
/// concurrently, then each system's points are reassembled with
/// [`serving::find_goodput`]'s early-stop truncation, so per-system
/// results equal that sequential sweep's exactly. Rates beyond the
/// sequential stop point are evaluated speculatively (that is the price
/// of the parallelism) but never reported.
///
/// Returns one entry per input system; `None` where the system cannot
/// host the model.
pub fn parallel_goodput(
    tb: &Testbed,
    kinds: &[SystemKind],
    workload: WorkloadKind,
    n: usize,
    rates: &[f64],
    seed: u64,
) -> Vec<Option<GoodputResult>> {
    let jobs: Vec<SweepJob<'_>> = kinds
        .iter()
        .filter(|&&kind| tb.build(kind).is_some())
        .flat_map(|&kind| {
            rates.iter().map(move |&rate| SweepJob {
                tb,
                kind,
                workload,
                n,
                rate,
                seed,
                faults: Faults::Healthy,
            })
        })
        .collect();
    let mut runs = run_sweep(&jobs).into_iter();

    kinds
        .iter()
        .map(|&kind| {
            tb.build(kind)?;
            let points: Vec<GoodputPoint> = rates
                .iter()
                .map(|&rate| {
                    let run = runs
                        .next()
                        .expect("one job per supported (system, rate)")
                        .expect("stability_run succeeds for buildable systems");
                    GoodputPoint::from_report(rate, &run.report)
                })
                .collect();
            Some(assemble_goodput(points, tb.slo.tbt.as_secs()))
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::harness::CrashSpec;
    use serving::find_goodput;

    #[test]
    fn parallel_map_preserves_submission_order() {
        let items: Vec<u64> = (0..64).collect();
        // Uneven per-item cost exercises work stealing off the cursor.
        let out = parallel_map(&items, |&x| {
            let spin = (x % 7) * 1000;
            let mut acc = x;
            for i in 0..spin {
                acc = acc.wrapping_mul(6364136223846793005).wrapping_add(i);
            }
            (x, acc)
        });
        assert_eq!(out.len(), items.len());
        for (i, (x, _)) in out.iter().enumerate() {
            assert_eq!(*x, items[i]);
        }
    }

    #[test]
    fn parallel_map_handles_tiny_inputs() {
        assert_eq!(parallel_map(&[] as &[u8], |&x| x), Vec::<u8>::new());
        assert_eq!(parallel_map(&[9u8], |&x| x + 1), vec![10]);
    }

    #[test]
    fn sweep_matches_sequential_bit_for_bit() {
        // Healthy, generated-fault and crash points must stay pure
        // functions of the job: a 4-worker pool run equals the
        // sequential map bit for bit (raw latency samples, decode
        // counters and event counts included), on any host.
        let tb = Testbed::llama8b_a100();
        let crash = |gpu| {
            Faults::Crash(CrashSpec {
                gpu,
                at_secs: 2.0,
                down_secs: 4.0,
            })
        };
        let jobs: Vec<SweepJob<'_>> = [
            (SystemKind::MuxWise, 40, 2.0, 0x5EED, Faults::Healthy),
            (SystemKind::Chunked, 40, 2.0, 0x5EED, Faults::Healthy),
            (SystemKind::MuxWise, 40, 4.0, 0x5EED, Faults::Healthy),
            (SystemKind::Chunked, 40, 4.0, 0x5EED, Faults::Healthy),
            (SystemKind::MuxWise, 30, 2.5, 0xFA17, Faults::Generated(0.5)),
            (SystemKind::Chunked, 30, 2.5, 0xFA17, Faults::Generated(1.0)),
            (SystemKind::MuxWise, 30, 2.5, 0xFA17, Faults::Generated(0.0)),
            (
                SystemKind::SglangPd,
                30,
                2.5,
                0xFA17,
                Faults::Generated(0.75),
            ),
            (SystemKind::MuxWise, 30, 3.0, 0xC7A5, crash(0)),
            (SystemKind::SglangPd, 30, 3.0, 0xC7A5, crash(7)),
        ]
        .into_iter()
        .map(|(kind, n, rate, seed, faults)| SweepJob {
            tb: &tb,
            kind,
            workload: WorkloadKind::ShareGpt,
            n,
            rate,
            seed,
            faults,
        })
        .collect();
        std::env::set_var("MUXWISE_BENCH_THREADS", "4");
        let parallel = run_sweep(&jobs);
        std::env::remove_var("MUXWISE_BENCH_THREADS");
        let sequential: Vec<Option<Run>> = jobs.iter().map(stability_run).collect();
        assert_eq!(parallel, sequential);
    }

    #[test]
    fn parallel_goodput_matches_sequential_goodput() {
        let tb = Testbed::llama8b_a100();
        let kinds = [SystemKind::MuxWise, SystemKind::Chunked];
        let rates = [2.0, 5.0, 9.0, 14.0];
        let parallel = parallel_goodput(&tb, &kinds, WorkloadKind::ShareGpt, 60, &rates, 0x60D);
        for (&kind, got) in kinds.iter().zip(&parallel) {
            let want = find_goodput(&rates, tb.slo.tbt.as_secs(), |rate| {
                let job = SweepJob {
                    tb: &tb,
                    kind,
                    workload: WorkloadKind::ShareGpt,
                    n: 60,
                    rate,
                    seed: 0x60D,
                    faults: Faults::Healthy,
                };
                stability_run(&job).expect("buildable").report
            });
            assert_eq!(got.as_ref(), Some(&want), "mismatch for {}", kind.name());
        }
    }

    #[test]
    fn wall_timed_returns_the_closure_value() {
        let (value, secs) = wall_timed(|| (1..=10u64).sum::<u64>());
        assert_eq!(value, 55);
        assert!(secs >= 0.0 && secs.is_finite());
    }

    #[test]
    fn parallel_map_runs_each_item_once() {
        let calls = AtomicUsize::new(0);
        let items: Vec<usize> = (0..40).collect();
        let out = parallel_map(&items, |&x| {
            calls.fetch_add(1, Ordering::Relaxed);
            x * 2
        });
        assert_eq!(calls.into_inner(), items.len());
        assert_eq!(out, items.iter().map(|x| x * 2).collect::<Vec<_>>());
    }

    #[test]
    fn run_sweep_leaves_unhostable_jobs_empty() {
        let tb = Testbed::qwen235b_h200();
        let job = |kind| SweepJob {
            tb: &tb,
            kind,
            workload: WorkloadKind::ShareGpt,
            n: 4,
            rate: 1.0,
            seed: 1,
            faults: Faults::Healthy,
        };
        let runs = run_sweep(&[job(SystemKind::SglangPd), job(SystemKind::MuxWise)]);
        assert!(runs[0].is_none());
        assert_eq!(runs[1], stability_run(&job(SystemKind::MuxWise)));
        assert!(runs[1].is_some());
    }

    #[test]
    fn parallel_goodput_skips_unhostable_systems() {
        let tb = Testbed::qwen235b_h200();
        let kinds = [SystemKind::SglangPd, SystemKind::MuxWise];
        let got = parallel_goodput(&tb, &kinds, WorkloadKind::ShareGpt, 4, &[0.5, 1.0], 1);
        assert_eq!(got.len(), 2);
        assert!(got[0].is_none());
        let muxwise = got[1].as_ref().expect("MuxWise hosts Qwen-235B");
        assert_eq!(muxwise.points.first().map(|p| p.rate), Some(0.5));
    }
}
