//! `serve` — the command-line driver: run any serving system over a
//! generated or replayed trace and print the latency report.
//!
//! `--system` accepts a comma-separated list; the systems run
//! concurrently on the sweep pool and their rows print in list order.
//! `muxwise` preempts a prefill phase only to rescue a TTFT and keeps
//! batches FCFS; `muxwise-preempt` forms batches shortest prompt first
//! (`Preemption::ShortestFirst`, the Fig. 20 configuration).
//!
//! ```sh
//! cargo run --release -p bench --bin serve -- \
//!     --system muxwise --model llama-70b --gpu a100 \
//!     --workload tool-agent --requests 200 --rate 1.0
//!
//! # Compare several systems over one trace in a single run:
//! cargo run --release -p bench --bin serve -- \
//!     --system muxwise,chunked,sglang-pd --model llama-8b \
//!     --workload sharegpt --requests 500 --rate 8
//!
//! # Replay a saved trace against chunked prefill:
//! cargo run --release -p bench --bin serve -- \
//!     --system chunked --model llama-8b --trace my_trace.jsonl
//!
//! # Save the generated trace for later replay:
//! cargo run --release -p bench --bin serve -- \
//!     --system muxwise --model llama-8b --workload sharegpt \
//!     --requests 500 --rate 8 --save-trace my_trace.jsonl
//! ```

use bench::harness::LatencyRow;
use bench::sweep::parallel_map;
use bench::systems::{SystemKind, Testbed};
use gpusim::{ClusterSpec, GpuSim};
use modelspec::ModelSpec;
use serving::{Driver, SloSpec};
use simcore::{SimDuration, SimRng};
use workload::{generate, trace, RequestSpec, WorkloadKind};

#[derive(Debug)]
struct Args {
    systems: Vec<SystemKind>,
    model: ModelSpec,
    cluster: ClusterSpec,
    workload: WorkloadKind,
    requests: usize,
    rate: f64,
    seed: u64,
    trace_in: Option<String>,
    trace_out: Option<String>,
    tbt_ms: Option<f64>,
    estimator_cache: Option<String>,
}

fn usage() -> ! {
    eprintln!(
        "usage: serve [--system muxwise|muxwise-preempt|chunked|nanoflow|loongserve|sglang-pd|windserve|temporal[,...]]\n\
         \x20            [--model llama-8b|llama-70b|qwen-235b|codellama-34b]\n\
         \x20            [--gpu a100|h100|h200] [--gpus N]\n\
         \x20            [--workload sharegpt|loogle|openthoughts|conversation|tool-agent]\n\
         \x20            [--requests N] [--rate R] [--seed S] [--tbt-ms T]\n\
         \x20            [--trace FILE.jsonl] [--save-trace FILE.jsonl]\n\
         \x20            [--estimators CACHE.json]"
    );
    std::process::exit(2)
}

fn parse_system(name: &str) -> SystemKind {
    match name {
        "muxwise" => SystemKind::MuxWise,
        "muxwise-preempt" => SystemKind::MuxWisePreempt,
        "chunked" => SystemKind::Chunked,
        "nanoflow" => SystemKind::NanoFlow,
        "loongserve" => SystemKind::LoongServe,
        "sglang-pd" => SystemKind::SglangPd,
        "windserve" => SystemKind::WindServe,
        "temporal" => SystemKind::TemporalMux,
        other => {
            eprintln!("unknown system: {other}");
            usage()
        }
    }
}

fn parse_args() -> Args {
    let mut args = Args {
        systems: vec![SystemKind::MuxWise],
        model: ModelSpec::llama8b(),
        cluster: ClusterSpec::dgx_a100(),
        workload: WorkloadKind::ShareGpt,
        requests: 200,
        rate: 2.0,
        seed: 42,
        trace_in: None,
        trace_out: None,
        tbt_ms: None,
        estimator_cache: None,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = |name: &str| -> String {
            it.next().unwrap_or_else(|| {
                eprintln!("missing value for {name}");
                usage()
            })
        };
        match flag.as_str() {
            "--system" => {
                args.systems = value("--system")
                    .split(',')
                    .map(|s| parse_system(s.trim()))
                    .collect();
                if args.systems.is_empty() {
                    usage()
                }
            }
            "--model" => {
                args.model = match value("--model").as_str() {
                    "llama-8b" => ModelSpec::llama8b(),
                    "llama-70b" => ModelSpec::llama70b(),
                    "qwen-235b" => ModelSpec::qwen235b(),
                    "codellama-34b" => ModelSpec::codellama34b(),
                    other => {
                        eprintln!("unknown model: {other}");
                        usage()
                    }
                }
            }
            "--gpu" => {
                let gpus = args.cluster.num_gpus;
                args.cluster = match value("--gpu").as_str() {
                    "a100" => ClusterSpec::dgx_a100(),
                    "h100" => ClusterSpec::dgx_h100(),
                    "h200" => ClusterSpec::dgx_h200(),
                    other => {
                        eprintln!("unknown gpu: {other}");
                        usage()
                    }
                };
                args.cluster.num_gpus = gpus;
            }
            "--gpus" => args.cluster.num_gpus = value("--gpus").parse().unwrap_or_else(|_| usage()),
            "--workload" => {
                args.workload = match value("--workload").as_str() {
                    "sharegpt" => WorkloadKind::ShareGpt,
                    "loogle" => WorkloadKind::Loogle,
                    "openthoughts" => WorkloadKind::OpenThoughts,
                    "conversation" => WorkloadKind::Conversation,
                    "tool-agent" => WorkloadKind::ToolAgent,
                    other => {
                        eprintln!("unknown workload: {other}");
                        usage()
                    }
                }
            }
            "--requests" => args.requests = value("--requests").parse().unwrap_or_else(|_| usage()),
            "--rate" => args.rate = value("--rate").parse().unwrap_or_else(|_| usage()),
            "--seed" => args.seed = value("--seed").parse().unwrap_or_else(|_| usage()),
            "--tbt-ms" => args.tbt_ms = Some(value("--tbt-ms").parse().unwrap_or_else(|_| usage())),
            "--trace" => args.trace_in = Some(value("--trace")),
            "--estimators" => args.estimator_cache = Some(value("--estimators")),
            "--save-trace" => args.trace_out = Some(value("--save-trace")),
            "--help" | "-h" => usage(),
            other => {
                eprintln!("unknown flag: {other}");
                usage()
            }
        }
    }
    args
}

fn main() {
    let args = parse_args();
    let slo = {
        let base = if args.model.hidden >= 8192 {
            SloSpec::llama70b()
        } else {
            SloSpec::llama8b()
        };
        match args.tbt_ms {
            Some(ms) => SloSpec::new(base.ttft, SimDuration::from_millis(ms)),
            None => base,
        }
    };

    let reqs: Vec<RequestSpec> = match &args.trace_in {
        Some(path) => {
            println!("replaying trace {path} ...");
            match trace::load_trace(path) {
                Ok(t) => t,
                Err(e) => {
                    eprintln!("failed to load trace: {e}");
                    std::process::exit(1);
                }
            }
        }
        None => {
            let mut rng = SimRng::seed_from(args.seed);
            generate(args.workload, args.requests, args.rate, &mut rng)
        }
    };
    if let Some(path) = &args.trace_out {
        if let Err(e) = trace::save_trace(path, &reqs) {
            eprintln!("failed to save trace: {e}");
            std::process::exit(1);
        }
        println!("trace saved to {path} ({} requests)", reqs.len());
    }

    let names: Vec<&str> = args.systems.iter().map(|s| s.name()).collect();
    println!(
        "serving {} requests of {} with {} on {}x{} ({} TBT target)",
        reqs.len(),
        args.workload.name(),
        names.join(","),
        args.cluster.num_gpus,
        args.cluster.gpu.name,
        slo.tbt,
    );
    let tb = match &args.estimator_cache {
        Some(path) => {
            println!("loading/profiling estimators (cache: {path}) ...");
            let tp = args.cluster.num_gpus;
            let est = muxwise::Estimators::load_or_profile(path, &args.model, &args.cluster, tp);
            Testbed {
                model: args.model,
                cluster: args.cluster,
                tp,
                slo,
                est,
            }
        }
        None => {
            println!("profiling estimators ...");
            Testbed::new(args.model, args.cluster, slo)
        }
    };
    for &system in &args.systems {
        if tb.build(system).is_none() {
            eprintln!(
                "{} cannot host {} on this cluster (instance too small)",
                system.name(),
                tb.model.name
            );
            std::process::exit(1);
        }
    }
    let reports = parallel_map(&args.systems, |&system| {
        let mut engine = tb.build(system).expect("checked above");
        Driver::new(GpuSim::from_cluster(&tb.cluster), reqs.clone(), slo).run(engine.as_mut())
    });
    println!();
    LatencyRow::print_header();
    for (system, report) in args.systems.iter().zip(&reports) {
        LatencyRow::from_report(system.name(), report).print();
    }
    for (system, report) in args.systems.iter().zip(&reports) {
        let tag = if args.systems.len() > 1 {
            format!("{}: ", system.name())
        } else {
            String::new()
        };
        println!(
            "\n{tag}tokens/s {:.0} | GPU util {:.1}% | bubble {:.1}% | TBT SLO {}",
            report.token_throughput(),
            report.utilization * 100.0,
            report.bubble_ratio * 100.0,
            if report.meets_tbt_slo() {
                "met at P99"
            } else {
                "VIOLATED"
            },
        );
    }
}
