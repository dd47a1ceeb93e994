//! Registry of all serving systems under evaluation.

use baselines::{ChunkedPrefill, LoongServe, SglangPd, TemporalMux, WindServe};
use estimator::SoloPredictor;
use gpusim::ClusterSpec;
use modelspec::{ModelSpec, Parallelism};
use muxwise::{Estimators, MuxWise, MuxWiseConfig, Preemption};
use serving::{Scheduler, SloSpec};

/// The systems compared in §4 (plus the §6 related-work variants).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum SystemKind {
    /// The paper's contribution.
    MuxWise,
    /// MuxWise with shortest-first preemptive scheduling
    /// (`Preemption::ShortestFirst`, §4.4.3); plain [`SystemKind::MuxWise`]
    /// preempts only to rescue a TTFT, with FCFS batches.
    MuxWisePreempt,
    /// Chunked-prefill in SGLang (SARATHI-Serve methodology).
    Chunked,
    /// NanoFlow (nano-batch overlap on top of chunked prefill).
    NanoFlow,
    /// LoongServe (elastic sequence parallelism).
    LoongServe,
    /// SGLang-PD static disaggregation.
    SglangPd,
    /// WindServe-style plain-stream multiplexing (§6).
    WindServe,
    /// Temporal-only multiplexing variant (§6).
    TemporalMux,
}

impl SystemKind {
    /// Display name matching the paper's figures.
    pub fn name(&self) -> &'static str {
        match self {
            SystemKind::MuxWise => "MuxWise",
            SystemKind::MuxWisePreempt => "MuxWise+P",
            SystemKind::Chunked => "Chunked",
            SystemKind::NanoFlow => "NanoFlow",
            SystemKind::LoongServe => "LoongServe",
            SystemKind::SglangPd => "SGLang-PD",
            SystemKind::WindServe => "WindServe",
            SystemKind::TemporalMux => "Temporal",
        }
    }

    /// The four baselines of §4.1 plus MuxWise — the Fig. 14/15/17
    /// line-up.
    pub fn headline() -> [SystemKind; 5] {
        [
            SystemKind::MuxWise,
            SystemKind::Chunked,
            SystemKind::NanoFlow,
            SystemKind::LoongServe,
            SystemKind::SglangPd,
        ]
    }
}

/// A model/cluster/SLO bundle with its profiled estimators (built once,
/// shared across every run in a binary).
pub struct Testbed {
    /// Model under test.
    pub model: ModelSpec,
    /// Server configuration.
    pub cluster: ClusterSpec,
    /// MuxWise tensor-parallel degree.
    pub tp: u32,
    /// SLO targets.
    pub slo: SloSpec,
    /// Profiled estimators.
    pub est: Estimators,
}

impl Testbed {
    /// Builds a testbed, running the offline profiling.
    pub fn new(model: ModelSpec, cluster: ClusterSpec, slo: SloSpec) -> Testbed {
        let tp = cluster.num_gpus;
        let est = Estimators::profile(&model, &cluster, tp);
        Testbed {
            model,
            cluster,
            tp,
            slo,
            est,
        }
    }

    /// The paper's primary testbed: Llama-8B on 8×A100, 50 ms TBT.
    pub fn llama8b_a100() -> Testbed {
        Testbed::new(
            ModelSpec::llama8b(),
            ClusterSpec::dgx_a100(),
            SloSpec::llama8b(),
        )
    }

    /// Llama-70B on 8×A100, 100 ms TBT.
    pub fn llama70b_a100() -> Testbed {
        Testbed::new(
            ModelSpec::llama70b(),
            ClusterSpec::dgx_a100(),
            SloSpec::llama70b(),
        )
    }

    /// Llama-8B on 8×H100 (Fig. 16).
    pub fn llama8b_h100() -> Testbed {
        Testbed::new(
            ModelSpec::llama8b(),
            ClusterSpec::dgx_h100(),
            SloSpec::llama8b(),
        )
    }

    /// Llama-70B on 8×H100 (Fig. 16).
    pub fn llama70b_h100() -> Testbed {
        Testbed::new(
            ModelSpec::llama70b(),
            ClusterSpec::dgx_h100(),
            SloSpec::llama70b(),
        )
    }

    /// Qwen3-235B-A22B on 8×H200 (Fig. 16).
    pub fn qwen235b_h200() -> Testbed {
        Testbed::new(
            ModelSpec::qwen235b(),
            ClusterSpec::dgx_h200(),
            SloSpec::llama70b(),
        )
    }

    /// LoongServe's per-model TP degree (paper §4.1: TP 4 for Llama-70B,
    /// TP 2 for Llama-8B).
    pub fn loongserve_tp(&self) -> u32 {
        if self.model.hidden >= 8192 {
            4
        } else {
            2
        }
    }

    /// Instantiates a system; returns `None` when the system cannot host
    /// the model (e.g. disaggregation of Qwen-235B).
    pub fn build(&self, kind: SystemKind) -> Option<Box<dyn Scheduler>> {
        // A half-cluster instance is viable only if, after holding the
        // full weights, it retains a meaningful KV pool (a quarter of the
        // aggregated deployment's per-instance share). Qwen-235B fails
        // this even on H200, as the paper notes.
        let half = self.cluster.num_gpus / 2;
        let full_tp = self.cluster.num_gpus;
        let fits_half = half > 0 && {
            let half_cap =
                serving::kv_pool_capacity_tokens(&self.cluster, &self.model, half, half, 0.0);
            let full_cap =
                serving::kv_pool_capacity_tokens(&self.cluster, &self.model, full_tp, full_tp, 0.0);
            half_cap * 4 >= full_cap && half_cap >= 2 * self.model.max_context
        };
        Some(match kind {
            SystemKind::MuxWise => Box::new(MuxWise::new(
                &self.model,
                &self.cluster,
                self.tp,
                self.slo,
                self.est.clone(),
                MuxWiseConfig::default(),
            )),
            SystemKind::MuxWisePreempt => Box::new(MuxWise::new(
                &self.model,
                &self.cluster,
                self.tp,
                self.slo,
                self.est.clone(),
                MuxWiseConfig::with_preemption(Preemption::ShortestFirst),
            )),
            SystemKind::Chunked => Box::new(ChunkedPrefill::tuned(
                &self.model,
                &self.cluster,
                self.tp,
                self.slo,
            )),
            SystemKind::NanoFlow => Box::new(ChunkedPrefill::nanoflow(
                &self.model,
                &self.cluster,
                self.tp,
                self.slo,
            )),
            SystemKind::LoongServe => {
                if self.model.moe.is_some() || !fits_half {
                    return None; // unsupported, as in the paper
                }
                Box::new(LoongServe::new(
                    &self.model,
                    &self.cluster,
                    self.loongserve_tp(),
                    self.slo,
                ))
            }
            SystemKind::SglangPd => {
                if !fits_half {
                    return None;
                }
                Box::new(SglangPd::new(&self.model, &self.cluster, self.slo))
            }
            SystemKind::WindServe => Box::new(WindServe::new(
                &self.model,
                &self.cluster,
                self.tp,
                self.slo,
            )),
            SystemKind::TemporalMux => {
                let par = Parallelism::tp(self.tp, self.cluster.nvlink_gbs);
                let predictor = SoloPredictor::profile(
                    &self.model,
                    &self.cluster,
                    &par,
                    &[self.cluster.gpu.sm_count],
                );
                Box::new(TemporalMux::new(
                    &self.model,
                    &self.cluster,
                    self.tp,
                    self.slo,
                    predictor,
                ))
            }
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const ALL: [SystemKind; 8] = [
        SystemKind::MuxWise,
        SystemKind::MuxWisePreempt,
        SystemKind::Chunked,
        SystemKind::NanoFlow,
        SystemKind::LoongServe,
        SystemKind::SglangPd,
        SystemKind::WindServe,
        SystemKind::TemporalMux,
    ];

    #[test]
    fn headline_lineup_matches_paper() {
        let names: Vec<&str> = SystemKind::headline().iter().map(|s| s.name()).collect();
        assert_eq!(
            names,
            vec!["MuxWise", "Chunked", "NanoFlow", "LoongServe", "SGLang-PD"]
        );
    }

    #[test]
    fn qwen_disaggregation_is_unsupported() {
        let tb = Testbed::qwen235b_h200();
        assert!(tb.build(SystemKind::SglangPd).is_none());
        assert!(tb.build(SystemKind::LoongServe).is_none());
        assert!(tb.build(SystemKind::MuxWise).is_some());
        assert!(tb.build(SystemKind::Chunked).is_some());
    }

    #[test]
    fn every_system_hosts_llama8b() {
        let tb = Testbed::llama8b_a100();
        for kind in ALL {
            assert!(tb.build(kind).is_some(), "{} fails to build", kind.name());
        }
    }

    #[test]
    fn system_names_are_distinct() {
        let mut names: Vec<&str> = ALL.iter().map(|k| k.name()).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), ALL.len());
    }
}
