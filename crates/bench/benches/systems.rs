//! Criterion end-to-end benchmarks: simulated-seconds-per-wall-second of
//! each serving system (how fast the reproduction itself runs), plus the
//! offline profiling cost.

use criterion::{black_box, criterion_group, criterion_main, BenchmarkId, Criterion};
use gpusim::{ClusterSpec, GpuSim};
use modelspec::ModelSpec;
use muxwise::Estimators;
use serving::Driver;
use simcore::SimRng;
use std::time::Duration;
use workload::{generate, WorkloadKind};

use bench::harness::{stability_run, Faults};
use bench::sweep::{run_sweep, SweepJob};
use bench::systems::{SystemKind, Testbed};

fn testbed() -> Testbed {
    Testbed::llama8b_a100()
}

fn bench_serving_systems(c: &mut Criterion) {
    let tb = testbed();
    let mut group = c.benchmark_group("end_to_end_serving");
    group.sample_size(10);
    for kind in [
        SystemKind::MuxWise,
        SystemKind::Chunked,
        SystemKind::NanoFlow,
        SystemKind::LoongServe,
        SystemKind::SglangPd,
        SystemKind::WindServe,
        SystemKind::TemporalMux,
    ] {
        group.bench_with_input(
            BenchmarkId::new("sharegpt_100reqs", kind.name()),
            &kind,
            |b, &kind| {
                b.iter(|| {
                    let mut engine = tb.build(kind).expect("buildable on 8B/A100");
                    let mut rng = SimRng::seed_from(9);
                    let reqs = generate(WorkloadKind::ShareGpt, 100, 5.0, &mut rng);
                    let report = Driver::new(GpuSim::from_cluster(&tb.cluster), reqs, tb.slo)
                        .run(engine.as_mut());
                    black_box(report.total_tokens)
                })
            },
        );
    }
    group.finish();
}

fn bench_offline_profiling(c: &mut Criterion) {
    let mut group = c.benchmark_group("offline_profiling");
    group.sample_size(10);
    group.bench_function("estimators_llama8b_a100", |b| {
        b.iter(|| {
            black_box(Estimators::profile(
                &ModelSpec::llama8b(),
                &ClusterSpec::dgx_a100(),
                8,
            ))
        })
    });
    group.finish();
}

fn bench_driver_overhead(c: &mut Criterion) {
    // Pure driver turnover: MuxWise serving a decode-heavy stream;
    // measures simulator event throughput.
    let tb = testbed();
    c.bench_function("driver_openthoughts_10reqs", |b| {
        b.iter(|| {
            let mut engine = tb.build(SystemKind::MuxWise).expect("buildable");
            let mut rng = SimRng::seed_from(17);
            let reqs = generate(WorkloadKind::OpenThoughts, 10, 1.0, &mut rng);
            let report =
                Driver::new(GpuSim::from_cluster(&tb.cluster), reqs, tb.slo).run(engine.as_mut());
            black_box(report.total_tokens)
        })
    });
}

fn bench_sweep_runner(c: &mut Criterion) {
    // The parallel sweep pool vs its sequential path over the same job
    // grid (2 systems × 2 rates; results are asserted identical in the
    // sweep unit tests, here we only time the two paths).
    let tb = testbed();
    let tb = &tb;
    let jobs: Vec<SweepJob<'_>> = [SystemKind::MuxWise, SystemKind::Chunked]
        .into_iter()
        .flat_map(|kind| {
            [3.0f64, 6.0].into_iter().map(move |rate| SweepJob {
                tb,
                kind,
                workload: WorkloadKind::ShareGpt,
                n: 60,
                rate,
                seed: 0xBE,
                faults: Faults::Healthy,
            })
        })
        .collect();
    let mut group = c.benchmark_group("sweep_runner");
    group.sample_size(10);
    group.bench_function("sequential_4jobs", |b| {
        b.iter(|| black_box(jobs.iter().map(stability_run).collect::<Vec<_>>()))
    });
    group.bench_function("parallel_4jobs", |b| b.iter(|| black_box(run_sweep(&jobs))));
    group.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default()
        .warm_up_time(Duration::from_millis(500))
        .measurement_time(Duration::from_secs(2))
        .sample_size(10);
    targets =
    bench_serving_systems,
    bench_offline_profiling,
    bench_driver_overhead,
    bench_sweep_runner
}
criterion_main!(benches);
