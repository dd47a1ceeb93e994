//! Every metric the benchmark reports: name, unit and direction.
//! `BENCHMARK.json` at the repository root lists the same metrics; a
//! test keeps the two in step.

use crate::probe::Callback;

/// Which way a metric improves.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Higher,
    Lower,
}

impl Better {
    /// The `BENCHMARK.json` spelling.
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Higher => "higher",
            Better::Lower => "lower",
        }
    }
}

/// One reported metric.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    pub name: String,
    pub unit: &'static str,
    pub better: Better,
    /// Share of the parent's median by which an end-to-end metric may
    /// worsen before a change counts as a regression (`None` for
    /// per-layer metrics, which have no bound).
    pub bound: Option<f64>,
}

fn metric(name: &str, unit: &'static str, better: Better, bound: Option<f64>) -> Metric {
    Metric {
        name: name.to_string(),
        unit,
        better,
        bound,
    }
}

/// The end-to-end metrics, printed with `--trace 0`.
pub fn end_to_end() -> Vec<Metric> {
    use Better::{Higher, Lower};
    [
        ("setup_s", "s", Lower, 0.25),
        ("peak_rss_mb", "MB", Lower, 0.2),
        ("ttft_p50_s", "s", Lower, 0.15),
        ("ttft_p95_s", "s", Lower, 0.25),
        ("tbt_p99_ms", "ms", Lower, 0.15),
        ("ttft_attainment", "ratio", Higher, 0.15),
        ("goodput_tok_s", "tok/s", Higher, 0.15),
        ("finished_frac", "ratio", Higher, 0.05),
        ("goodput_rps", "req/s", Higher, 0.15),
    ]
    .into_iter()
    .map(|(n, u, b, bound)| metric(n, u, b, Some(bound)))
    .collect()
}

/// The per-layer metrics, printed with `--trace 1`.
pub fn per_layer() -> Vec<Metric> {
    use Better::{Higher, Lower};
    let mut out: Vec<Metric> = Vec::new();
    let mut push = |name: &str, unit: &'static str, better: Better| {
        out.push(metric(name, unit, better, None));
    };
    // Set-up phases (every workload).
    push("workload.generate_s", "s", Lower);
    push("estimator.profile_s", "s", Lower);
    push("serving.build_s", "s", Lower);
    // Instance stepping and the simulator (solo ladder).
    push("serving.step_s", "s", Lower);
    push("serving.finish_s", "s", Lower);
    push("serving.self_s", "s", Lower);
    push("gpusim.events", "count", Lower);
    push("gpusim.events_per_wall_s", "1/s", Higher);
    // Engine callbacks, by crate.
    for krate in ["core", "baselines"] {
        for cb in Callback::ALL {
            push(&format!("{krate}.{}.calls", cb.name()), "count", Lower);
            push(&format!("{krate}.{}.busy_s", cb.name()), "s", Lower);
        }
        push(&format!("{krate}.share"), "ratio", Lower);
    }
    push("core.on_kernel_done.ns_p50", "ns", Lower);
    push("core.on_kernel_done.ns_p99", "ns", Lower);
    push("core.decode_iters", "count", Lower);
    push("core.decode_coalesced", "count", Higher);
    push("core.macro_coalescing_ratio", "ratio", Higher);
    push("core.requeues", "count", Lower);
    push("core.drops", "count", Lower);
    push("core.preemptions", "count", Lower);
    // Fleet speed.
    push("fleet.run_s", "s", Lower);
    push("fleet.route.picks", "count", Lower);
    push("fleet.route.busy_s", "s", Lower);
    push("fleet.route.ns_p50", "ns", Lower);
    push("fleet.route.ns_p99", "ns", Lower);
    push("fleet.barrier_gap.ns_p50", "ns", Lower);
    push("fleet.barrier_gap.ns_p99", "ns", Lower);
    push("fleet.self_share", "ratio", Lower);
    // Fleet routing quality.
    push("fleet.prefix_hit_rate", "ratio", Higher);
    push("fleet.load_imbalance", "ratio", Lower);
    // Fleet fault tiers.
    push("fleet.hedges_launched", "count", Lower);
    push("fleet.hedge_wins", "count", Higher);
    push("fleet.cancelled", "count", Lower);
    push("fleet.cancelled_tokens", "count", Lower);
    push("fleet.migrated", "count", Lower);
    push("fleet.migrated_finished", "count", Higher);
    push("fleet.replicas_pushed", "count", Lower);
    push("fleet.ejections", "count", Lower);
    push("fleet.gray_trips", "count", Lower);
    push("fleet.ingress_shed", "count", Lower);
    push("serving.crash_victims", "count", Lower);
    push("serving.recovered", "count", Higher);
    // Run speed, and the tracing itself.
    push("bench.sim_s_per_wall_s", "s/s", Higher);
    push("bench.untraced_wall_s", "s", Lower);
    push("bench.traced_wall_s", "s", Lower);
    push("bench.trace_overhead_s", "s", Lower);
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use serde_json::Value;

    /// `(name, unit, better, bound)` rows, from the catalog or the file.
    type Row = (String, String, String, Option<f64>);

    fn rows(metrics: Vec<Metric>) -> Vec<Row> {
        metrics
            .into_iter()
            .map(|m| (m.name, m.unit.into(), m.better.as_str().into(), m.bound))
            .collect()
    }

    fn listed(doc: &Value, key: &str) -> Vec<Row> {
        let Some(Value::Array(items)) = doc.get(key) else {
            panic!("BENCHMARK.json has no `{key}` list");
        };
        items
            .iter()
            .map(|m| {
                let s = |k: &str| m.get(k).and_then(Value::as_str).unwrap_or_default().into();
                (
                    s("name"),
                    s("unit"),
                    s("better"),
                    m.get("bound").and_then(Value::as_f64),
                )
            })
            .collect()
    }

    #[test]
    fn catalog_matches_benchmark_json() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        let doc: Value = serde_json::from_str(&text).expect("BENCHMARK.json parses");
        assert_eq!(listed(&doc, "end_to_end"), rows(end_to_end()));
        assert_eq!(listed(&doc, "per_layer"), rows(per_layer()));
    }

    #[test]
    fn names_are_unique_and_within_limits() {
        let all: Vec<Metric> = end_to_end().into_iter().chain(per_layer()).collect();
        let mut names: Vec<&str> = all.iter().map(|m| m.name.as_str()).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), all.len(), "duplicate metric name");
        assert!(per_layer().len() <= 128);
        for m in &all {
            assert!(m.name.len() <= 64 && m.unit.len() <= 16, "{m:?}");
            assert!(m.bound.is_none_or(|b| b > 0.0 && b <= 0.25), "{m:?}");
        }
        assert!(end_to_end()
            .iter()
            .any(|m| m.name == "setup_s" && m.unit == "s" && m.better == Better::Lower));
    }
}
