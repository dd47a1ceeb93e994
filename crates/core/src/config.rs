//! Configuration and prebuilt estimators.

use estimator::{ContentionGuard, SoloPredictor};
use gpusim::ClusterSpec;
use modelspec::{ModelSpec, Parallelism};

/// How SM partitions are reconfigured (§3.2.1's comparison of spatial
/// sharing mechanisms).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum PartitionBackend {
    /// CUDA Green Contexts: intra-process, reconfiguration costs only a
    /// stream synchronization (microseconds). MuxWise's choice.
    #[default]
    GreenContext,
    /// CUDA MPS: inter-process; changing SM allocations requires
    /// restarting the server processes (hundreds of milliseconds of
    /// stall), so adaptation is expensive.
    Mps,
    /// CUDA MIG-style static slicing: the initial partition never
    /// changes.
    Static,
}

impl PartitionBackend {
    /// Host-side stall charged per reconfiguration.
    pub fn reconfig_stall_secs(&self) -> f64 {
        match self {
            PartitionBackend::GreenContext => 0.0, // the μs cost lives in gpusim
            PartitionBackend::Mps => 0.25,
            PartitionBackend::Static => 0.0,
        }
    }

    /// Whether the partition may change after startup.
    pub fn can_reconfigure(&self) -> bool {
        !matches!(self, PartitionBackend::Static)
    }
}

/// Layer-boundary preemption of the running prefill phase by a newly
/// arrived prompt (§3.4.2, Fig. 20). Preemption never nests: a preemptor
/// runs to completion, and only one phase waits preempted at a time. It
/// needs [`MuxWiseConfig::layer_wise`]; whole-phase launches never
/// preempt.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Preemption {
    /// Never preempt; batches form first come, first served.
    Off,
    /// Preempt only to rescue a TTFT: every request of the running phase
    /// misses TTFT anyway, the arrival meets it if it starts now, and the
    /// phase still makes its length-scaled deadline. Batches stay first
    /// come, first served.
    #[default]
    TtftRescue,
    /// The same preemption check, with batches formed shortest prompt
    /// first (Fig. 20's preemptive scheduling, which breaks FCFS).
    ShortestFirst,
}

/// Feature switches for MuxWise (all on by default; ablations in §4.4
/// turn them off individually).
#[derive(Debug, Clone, PartialEq)]
pub struct MuxWiseConfig {
    /// Layer-wise prefill execution (§3.2.3). Off = launch the whole
    /// remaining prefill phase as one kernel (Fig. 19 ablation), which
    /// has no layer boundary to preempt at.
    pub layer_wise: bool,
    /// Query-based synchronization (§3.2.3). Off = decode blocks until an
    /// active prefill batch completes before relaunching (Fig. 19).
    pub query_sync: bool,
    /// Layer-boundary preemption of prefill phases (§3.4.2, Fig. 20).
    pub preemption: Preemption,
    /// Use the contention guard for worst-case partitioning. Off = trust
    /// solo-run predictions alone (risking SLO violations).
    pub contention_guard: bool,
    /// The spatial-sharing mechanism (§3.2.1): green contexts by
    /// default; MPS/static model the inter-process alternatives.
    pub backend: PartitionBackend,
}

impl Default for MuxWiseConfig {
    fn default() -> MuxWiseConfig {
        MuxWiseConfig {
            layer_wise: true,
            query_sync: true,
            preemption: Preemption::TtftRescue,
            contention_guard: true,
            backend: PartitionBackend::GreenContext,
        }
    }
}

impl MuxWiseConfig {
    /// The default system with another preemption mode (Fig. 20
    /// compares [`Preemption::Off`] with [`Preemption::ShortestFirst`]).
    pub fn with_preemption(preemption: Preemption) -> MuxWiseConfig {
        MuxWiseConfig {
            preemption,
            ..MuxWiseConfig::default()
        }
    }

    /// Ablation: disable layer-wise execution (whole-phase launches).
    pub fn without_layer_wise() -> MuxWiseConfig {
        MuxWiseConfig {
            layer_wise: false,
            ..MuxWiseConfig::default()
        }
    }

    /// Ablation: additionally disable query-based synchronization.
    pub fn without_query_sync() -> MuxWiseConfig {
        MuxWiseConfig {
            layer_wise: false,
            query_sync: false,
            ..MuxWiseConfig::default()
        }
    }

    /// Ablation: trust solo-run predictions without the contention guard.
    pub fn without_guard() -> MuxWiseConfig {
        MuxWiseConfig {
            contention_guard: false,
            ..MuxWiseConfig::default()
        }
    }

    /// §3.2.1 comparison: run on a different spatial-sharing backend.
    pub fn with_backend(backend: PartitionBackend) -> MuxWiseConfig {
        MuxWiseConfig {
            backend,
            ..MuxWiseConfig::default()
        }
    }
}

/// A profiled estimator pair, shareable across engine instances of a rate
/// sweep (one-time offline profiling per LLM–machine pair, §3.3.2).
#[derive(Debug, Clone)]
pub struct Estimators {
    /// Solo-run latency predictor (Eq. 1/2).
    pub predictor: SoloPredictor,
    /// Worst-case contention guard.
    pub guard: ContentionGuard,
}

impl Estimators {
    /// Runs the offline profiling for `model` on `cluster` at
    /// tensor-parallel degree `tp`: solo-run fits over every partition
    /// configuration (and their prefill complements), plus the pairwise
    /// contention grid.
    pub fn profile(model: &ModelSpec, cluster: &ClusterSpec, tp: u32) -> Estimators {
        let par = Parallelism::tp(tp, cluster.nvlink_gbs);
        let decode_configs = cluster.gpu.partition_configs();
        let mut partitions: Vec<u32> = decode_configs.clone();
        partitions.extend(decode_configs.iter().map(|&sms| cluster.gpu.sm_count - sms));
        partitions.push(cluster.gpu.sm_count);
        partitions.sort_unstable();
        partitions.dedup();
        let predictor = SoloPredictor::profile(model, cluster, &par, &partitions);
        let guard = ContentionGuard::profile(model, cluster, &par, &decode_configs);
        Estimators { predictor, guard }
    }

    /// Loads a cached profiling artifact from `path`, or profiles and
    /// writes it when absent/unreadable — mirroring how deployments
    /// amortize the paper's one-time per-LLM–machine profiling.
    pub fn load_or_profile(
        path: impl AsRef<std::path::Path>,
        model: &ModelSpec,
        cluster: &ClusterSpec,
        tp: u32,
    ) -> Estimators {
        if let Ok((predictor, guard)) = estimator::load_estimators(&path) {
            return Estimators { predictor, guard };
        }
        let est = Estimators::profile(model, cluster, tp);
        let _ = estimator::save_estimators(&path, &est.predictor, &est.guard);
        est
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_config_enables_engine_features() {
        let c = MuxWiseConfig::default();
        assert!(c.layer_wise && c.query_sync && c.contention_guard);
        assert_eq!(c.preemption, Preemption::TtftRescue);
    }

    #[test]
    fn ablation_constructors() {
        assert!(!MuxWiseConfig::without_layer_wise().layer_wise);
        let nq = MuxWiseConfig::without_query_sync();
        assert!(!nq.layer_wise && !nq.query_sync);
        let sf = MuxWiseConfig::with_preemption(Preemption::ShortestFirst);
        assert_eq!(sf.preemption, Preemption::ShortestFirst);
    }

    #[test]
    fn profile_covers_all_partitions() {
        let est = Estimators::profile(&ModelSpec::llama8b(), &ClusterSpec::dgx_a100(), 8);
        let parts = est.predictor.partitions();
        assert!(parts.contains(&16));
        assert!(parts.contains(&92)); // complement of 16 on 108 SMs
        assert!(parts.contains(&108));
        assert!(est.guard.max_slowdown() >= 1.0);
    }
}
#[cfg(test)]
mod backend_tests {
    use super::*;

    #[test]
    fn backend_costs_match_design() {
        assert_eq!(PartitionBackend::GreenContext.reconfig_stall_secs(), 0.0);
        assert!(PartitionBackend::Mps.reconfig_stall_secs() > 0.1);
        assert!(PartitionBackend::GreenContext.can_reconfigure());
        assert!(PartitionBackend::Mps.can_reconfigure());
        assert!(!PartitionBackend::Static.can_reconfigure());
        assert_eq!(PartitionBackend::default(), PartitionBackend::GreenContext);
    }

    #[test]
    fn with_backend_builder() {
        let cfg = MuxWiseConfig::with_backend(PartitionBackend::Static);
        assert_eq!(cfg.backend, PartitionBackend::Static);
        assert!(cfg.layer_wise, "other defaults retained");
        assert!(!MuxWiseConfig::without_guard().contention_guard);
    }
}
