//! Hardware specifications for the GPUs the paper evaluates on.
//!
//! Constants come from public NVIDIA datasheets; launch costs come from the
//! paper (§3.2.2: decode CUDA-graph launch ≈ 0.5 ms, piecewise prefill
//! graph launch ≈ 10 ms for Llama-70B on 8 A100s) and the contention caps
//! from §3.3.2 (max observed slowdown ≈ 20 % on A100, ≈ 30 % on H100).

use simcore::SimDuration;

/// Specification of one GPU model.
///
/// # Examples
///
/// ```
/// use gpusim::GpuSpec;
/// let a100 = GpuSpec::a100();
/// assert_eq!(a100.sm_count, 108);
/// assert_eq!(a100.partition_configs().len(), 6); // §3.3.2 of the paper
/// let h100 = GpuSpec::h100();
/// assert_eq!(h100.partition_configs().len(), 7);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct GpuSpec {
    /// Marketing name ("A100-80GB", ...).
    pub name: &'static str,
    /// Number of streaming multiprocessors.
    pub sm_count: u32,
    /// Dense FP16/BF16 tensor-core throughput in TFLOP/s.
    pub fp16_tflops: f64,
    /// HBM capacity in GiB.
    pub hbm_capacity_gib: f64,
    /// Peak HBM bandwidth in GB/s.
    pub hbm_bw_gbs: f64,
    /// Cost of launching one captured CUDA graph (decode iteration).
    pub graph_launch: SimDuration,
    /// CPU-side cost of launching one un-captured kernel.
    pub kernel_launch: SimDuration,
    /// Cost of launching one layer of prefill as a piecewise CUDA graph.
    pub layer_graph_launch: SimDuration,
    /// Green-context SM partition granularity (16 on current parts, §3.3.2).
    pub partition_granularity: u32,
    /// Green-context reconfiguration cost (a stream synchronization).
    pub reconfig_cost: SimDuration,
    /// Ground-truth cap on the contention-induced slowdown residual
    /// (beyond bandwidth water-filling); 0.20 for A100, 0.30 for
    /// H100-class parts per §3.3.2.
    pub contention_residual_max: f64,
    /// Fraction of the SM count at which achievable HBM bandwidth is half
    /// of peak (bandwidth saturates with few SMs; see [`GpuSpec::mem_rate`]).
    pub bw_half_saturation: f64,
    /// Achievable fraction of peak tensor-core FLOPs on real transformer
    /// kernels (model FLOPs utilization; ~0.55 on A100-class parts).
    pub compute_efficiency: f64,
    /// Achievable FLOPs fraction for decode-phase kernels. Decode's
    /// GEMV-shaped matmuls stream operands and execute near peak once
    /// data arrives — their bottleneck is memory, which the roofline's
    /// `max()` captures; derating their compute too would double-count.
    pub decode_compute_efficiency: f64,
    /// Achievable fraction of peak HBM bandwidth on streaming kernels.
    pub mem_efficiency: f64,
    /// GPU memory consumed by one captured decode CUDA graph, in MiB
    /// (used for the §4.5 memory-overhead experiment).
    pub graph_memory_mib: f64,
    /// GPU memory consumed by creating a group of green contexts, in MiB.
    pub green_ctx_memory_mib: f64,
}

impl GpuSpec {
    /// NVIDIA A100-SXM4-80GB.
    pub fn a100() -> GpuSpec {
        GpuSpec {
            name: "A100-80GB",
            sm_count: 108,
            fp16_tflops: 312.0,
            hbm_capacity_gib: 80.0,
            hbm_bw_gbs: 2039.0,
            graph_launch: SimDuration::from_micros(500.0),
            kernel_launch: SimDuration::from_micros(8.0),
            layer_graph_launch: SimDuration::from_micros(125.0),
            partition_granularity: 16,
            reconfig_cost: SimDuration::from_micros(10.0),
            contention_residual_max: 0.20,
            bw_half_saturation: 0.25,
            compute_efficiency: 0.55,
            decode_compute_efficiency: 0.90,
            mem_efficiency: 0.80,
            graph_memory_mib: 40.0,
            green_ctx_memory_mib: 4.0,
        }
    }

    /// NVIDIA H100-SXM5-80GB.
    pub fn h100() -> GpuSpec {
        GpuSpec {
            name: "H100-80GB",
            sm_count: 132,
            fp16_tflops: 989.0,
            hbm_capacity_gib: 80.0,
            hbm_bw_gbs: 3350.0,
            graph_launch: SimDuration::from_micros(500.0),
            kernel_launch: SimDuration::from_micros(8.0),
            layer_graph_launch: SimDuration::from_micros(125.0),
            partition_granularity: 16,
            reconfig_cost: SimDuration::from_micros(10.0),
            contention_residual_max: 0.30,
            bw_half_saturation: 0.25,
            compute_efficiency: 0.55,
            decode_compute_efficiency: 0.90,
            mem_efficiency: 0.80,
            graph_memory_mib: 40.0,
            green_ctx_memory_mib: 4.0,
        }
    }

    /// NVIDIA H200-SXM5-141GB.
    pub fn h200() -> GpuSpec {
        GpuSpec {
            name: "H200-141GB",
            hbm_capacity_gib: 141.0,
            hbm_bw_gbs: 4800.0,
            ..GpuSpec::h100()
        }
    }

    /// The decode-partition configurations exposed by green contexts:
    /// multiples of [`GpuSpec::partition_granularity`] that leave at least
    /// half a granule for the other phase. Yields the paper's 6 configs on
    /// A100 and 7 on H100/H200 (§3.3.2).
    pub fn partition_configs(&self) -> Vec<u32> {
        let g = self.partition_granularity;
        (1..)
            .map(|k| k * g)
            .take_while(|&sms| self.sm_count.saturating_sub(sms) >= g / 2)
            .collect()
    }

    /// Compute throughput in FLOP/s available to a context owning `sms`
    /// SMs (linear in the SM share).
    ///
    /// # Panics
    ///
    /// Panics in debug builds if `sms` exceeds the SM count.
    pub fn compute_rate(&self, sms: u32) -> f64 {
        debug_assert!(sms <= self.sm_count);
        self.fp16_tflops * 1e12 * self.compute_efficiency * sms as f64 / self.sm_count as f64
    }

    /// Compute throughput for a kernel of the given kind (decode kernels
    /// reach a higher FLOPs fraction; see
    /// [`GpuSpec::decode_compute_efficiency`]).
    pub fn compute_rate_for(&self, kind: crate::KernelKind, sms: u32) -> f64 {
        let base = self.compute_rate(sms) / self.compute_efficiency;
        match kind {
            crate::KernelKind::Decode => base * self.decode_compute_efficiency,
            _ => base * self.compute_efficiency,
        }
    }

    /// Achievable HBM bandwidth (GB/s) for a context owning `sms` SMs.
    ///
    /// Memory bandwidth saturates with far fewer SMs than compute: the
    /// model is `peak * (1+k) * x / (x + k)` with `x = sms/total` and
    /// `k =` [`GpuSpec::bw_half_saturation`]. A 16-SM partition on an A100
    /// (x ≈ 0.148) reaches ≈ 62 % of peak — which is why a small decode
    /// partition can still meet TBT SLOs (§2.4).
    pub fn mem_rate(&self, sms: u32) -> f64 {
        let x = sms as f64 / self.sm_count as f64;
        let k = self.bw_half_saturation;
        self.hbm_bw_gbs * 1e9 * self.mem_efficiency * ((1.0 + k) * x / (x + k)).min(1.0)
    }

    /// Memory (MiB) consumed by CUDA-graph captures for `num_partitions`
    /// partition configurations × `batch_sizes_captured` decode batch
    /// sizes, plus green-context creation. Drives the §4.5 overhead
    /// experiment.
    pub fn graph_memory_overhead_mib(
        &self,
        num_partitions: usize,
        batch_sizes_captured: usize,
    ) -> f64 {
        self.green_ctx_memory_mib
            + self.graph_memory_mib * num_partitions as f64 * batch_sizes_captured as f64
    }
}

/// A server: `num_gpus` identical GPUs joined by NVLink.
///
/// # Examples
///
/// ```
/// use gpusim::ClusterSpec;
/// let server = ClusterSpec::dgx_a100();
/// assert_eq!(server.num_gpus, 8);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct ClusterSpec {
    /// The GPU model installed.
    pub gpu: GpuSpec,
    /// Number of GPUs in the server.
    pub num_gpus: u32,
    /// Per-GPU NVLink bandwidth in GB/s.
    pub nvlink_gbs: f64,
    /// NVLink per-message latency.
    pub nvlink_latency: SimDuration,
}

impl ClusterSpec {
    /// The paper's primary testbed: 8×A100-80GB, 600 GB/s NVLink.
    pub fn dgx_a100() -> ClusterSpec {
        ClusterSpec {
            gpu: GpuSpec::a100(),
            num_gpus: 8,
            nvlink_gbs: 600.0,
            nvlink_latency: SimDuration::from_micros(5.0),
        }
    }

    /// 8×H100-SXM5-80GB, 900 GB/s NVLink.
    pub fn dgx_h100() -> ClusterSpec {
        ClusterSpec {
            gpu: GpuSpec::h100(),
            num_gpus: 8,
            nvlink_gbs: 900.0,
            nvlink_latency: SimDuration::from_micros(5.0),
        }
    }

    /// 8×H200-SXM5-141GB, 900 GB/s NVLink.
    pub fn dgx_h200() -> ClusterSpec {
        ClusterSpec {
            gpu: GpuSpec::h200(),
            num_gpus: 8,
            nvlink_gbs: 900.0,
            nvlink_latency: SimDuration::from_micros(5.0),
        }
    }

    /// A single-GPU A100 box (used for §4.3.1).
    pub fn single_a100() -> ClusterSpec {
        ClusterSpec {
            num_gpus: 1,
            ..ClusterSpec::dgx_a100()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn partition_config_counts_match_paper() {
        assert_eq!(
            GpuSpec::a100().partition_configs(),
            vec![16, 32, 48, 64, 80, 96]
        );
        assert_eq!(
            GpuSpec::h100().partition_configs(),
            vec![16, 32, 48, 64, 80, 96, 112]
        );
        assert_eq!(GpuSpec::h200().partition_configs().len(), 7);
    }

    #[test]
    fn compute_rate_is_linear() {
        let g = GpuSpec::a100();
        let half = g.compute_rate(54);
        let full = g.compute_rate(108);
        assert!((full / half - 2.0).abs() < 1e-9);
        assert!((full - 312.0e12 * g.compute_efficiency).abs() < 1e3);
    }

    #[test]
    fn mem_rate_saturates_early() {
        let g = GpuSpec::a100();
        let frac_16 = g.mem_rate(16) / g.mem_rate(108);
        assert!(
            frac_16 > 0.35 && frac_16 < 0.65,
            "16 SMs should reach 35-65% of peak bandwidth, got {frac_16}"
        );
        // Monotone non-decreasing.
        let mut prev = 0.0;
        for sms in (0..=108).step_by(4) {
            let r = g.mem_rate(sms);
            assert!(r >= prev);
            prev = r;
        }
        assert!(g.mem_rate(108) <= g.hbm_bw_gbs * 1e9 + 1.0);
    }

    #[test]
    fn decode_is_memory_bound_prefill_compute_bound() {
        // Sanity check of the asymmetry the paper builds on, with rough
        // Llama-70B TP-8 numbers: decode reads ~17.5 GB of weights per GPU
        // with tiny FLOPs; prefill of 2K tokens does ~35 TFLOPs per GPU.
        let g = GpuSpec::a100();
        // Machine balance at 32 SMs: FLOPs/byte above which a kernel is
        // compute-bound.
        let balance = g.compute_rate(32) / g.mem_rate(32);
        // Llama-70B TP-8 decode at bs=32: ~0.55 TFLOP over ~18.5 GB.
        let decode_intensity = 0.55e12 / 18.5e9;
        assert!(decode_intensity < balance, "decode must be memory-bound");
        // Prefill of 2K tokens: ~35 TFLOP over ~19 GB.
        let prefill_intensity = 35.0e12 / 19.0e9;
        assert!(prefill_intensity > balance, "prefill must be compute-bound");
    }

    #[test]
    fn graph_memory_matches_headline_overhead() {
        // §4.5: ~6.2% of an 80 GB GPU for 6 partitions × ~20 batch sizes.
        let g = GpuSpec::a100();
        let mib = g.graph_memory_overhead_mib(6, 20);
        let frac = mib / (g.hbm_capacity_gib * 1024.0);
        assert!(
            (0.04..0.08).contains(&frac),
            "graph memory fraction {frac} not ≈ 6%"
        );
    }

    #[test]
    fn cluster_totals() {
        assert_eq!(ClusterSpec::single_a100().num_gpus, 1);
    }
}
