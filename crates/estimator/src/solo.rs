//! The solo-run latency predictor (paper Eq. 1 and Eq. 2).

use std::collections::BTreeMap;
use std::sync::Arc;

use gpusim::{ClusterSpec, GpuSim, WorkItem};
use modelspec::{ModelSpec, Parallelism, SeqState};

use crate::linreg::{fit_max_affine, least_squares, predict, predict_max_affine};

/// Per-partition coefficient sets for the prefill and decode models.
#[derive(Debug, Clone, PartialEq, serde::Serialize, serde::Deserialize)]
struct Coefficients {
    /// `[θ₁, θ₂, θ₃, θ₄]` against `[Σn², Σn·r, Σn, 1]` (paper Eq. 1).
    prefill: Vec<f64>,
    /// Max-affine extension of the paper's Eq. 2: two planes over
    /// `[Σr, bs, 1]`, predicting `max(plane₁, plane₂)`. A single plane
    /// cannot follow the roofline kink between the weight/KV-streaming
    /// (memory-bound) and large-batch (compute-bound) regimes on small
    /// partitions; the max of two planes recovers the paper's ≤ 8.84 %
    /// deviation (see DESIGN.md, substitutions).
    decode: Vec<Vec<f64>>,
}

/// Predicts solo-run (contention-free) latency of prefill layers and
/// decode iterations on a given SM partition. Built by one-time offline
/// profiling per (model, machine) pair (§3.3.2); the profile takes
/// seconds against the simulator where the paper's took hours on
/// hardware.
///
/// The fitted coefficients never change after profiling, so clones
/// share one table behind an [`Arc`]. Equality compares the tables, and
/// the saved form is the table's own.
#[derive(Debug, Clone, PartialEq)]
pub struct SoloPredictor {
    fitted: Arc<Fitted>,
}

/// What a profile fits: one coefficient set per SM partition.
#[derive(Debug, PartialEq, serde::Serialize, serde::Deserialize)]
struct Fitted {
    model_layers: u32,
    by_partition: BTreeMap<u32, Coefficients>,
}

impl serde::Serialize for SoloPredictor {
    fn to_value(&self) -> serde::Value {
        self.fitted.to_value()
    }
}

impl serde::Deserialize for SoloPredictor {
    fn from_value(v: &serde::Value) -> Result<SoloPredictor, serde::DeError> {
        Ok(SoloPredictor {
            fitted: Arc::new(Fitted::from_value(v)?),
        })
    }
}

/// Profiling grid for `n` (new tokens) and `r` (reused tokens).
const TOKEN_GRID: [u64; 8] = [128, 512, 2048, 8192, 16_384, 32_768, 65_536, 131_072];
/// Profiling grid for decode batch sizes (~20 points, as in SOTA serving
/// frameworks' CUDA-graph capture lists).
const BATCH_GRID: [usize; 17] = [
    1, 2, 4, 8, 12, 16, 24, 32, 48, 64, 96, 128, 160, 192, 224, 256, 320,
];

/// The profiled points of one model: each point's feature row and model
/// work. Neither depends on the SM partition, so a profile builds them
/// once and times the work on every partition.
#[derive(Default)]
struct Grid {
    features: Vec<Vec<f64>>,
    work: Vec<WorkItem>,
}

impl Grid {
    fn push(&mut self, features: Vec<f64>, work: WorkItem) {
        self.features.push(features);
        self.work.push(work);
    }

    /// Full prefill phases over the `(n, r)` grid at batch size 1, plus
    /// `r = 0` rows for short prompts.
    fn prefill(model: &ModelSpec, par: &Parallelism) -> Grid {
        let mut grid = Grid::default();
        for &n in &TOKEN_GRID {
            for &r in &TOKEN_GRID {
                if n + r > model.max_context {
                    continue;
                }
                let work = model.prefill_full_work(&[SeqState::new(n, r)], par);
                let nf = n as f64;
                let rf = r as f64;
                grid.push(vec![nf * nf, nf * rf, nf, 1.0], work);
            }
        }
        for &n in &[32u64, 64] {
            let work = model.prefill_full_work(&[SeqState::new(n, 0)], par);
            let nf = n as f64;
            grid.push(vec![nf * nf, 0.0, nf, 1.0], work);
        }
        grid
    }

    /// Decode iterations over the (batch size, per-request context) grid.
    fn decode(model: &ModelSpec, par: &Parallelism) -> Grid {
        let mut grid = Grid::default();
        let mut ctx = Vec::new();
        for &bs in &BATCH_GRID {
            for &r in &TOKEN_GRID {
                if r > model.max_context {
                    continue;
                }
                ctx.clear();
                ctx.resize(bs, r);
                let work = model.decode_iter_work(&ctx, par);
                grid.push(vec![(r * bs as u64) as f64, bs as f64, 1.0], work);
            }
        }
        grid
    }

    /// Writes every point's solo duration on `sms` SMs into `secs`.
    fn time(&self, sim: &GpuSim, sms: u32, secs: &mut Vec<f64>) {
        secs.clear();
        secs.extend(self.work.iter().map(|w| sim.solo_duration(sms, w)));
    }
}

impl SoloPredictor {
    /// Profiles solo runs of `model` on `cluster` for each SM partition in
    /// `partitions` and fits the Eq. 1 / Eq. 2 models.
    ///
    /// # Panics
    ///
    /// Panics if `partitions` is empty or profiling produces a singular
    /// fit (cannot happen for the built-in grids).
    pub fn profile(
        model: &ModelSpec,
        cluster: &ClusterSpec,
        par: &Parallelism,
        partitions: &[u32],
    ) -> SoloPredictor {
        assert!(!partitions.is_empty(), "no partitions to profile");
        let sim = GpuSim::from_cluster(cluster);
        let prefill_grid = Grid::prefill(model, par);
        let decode_grid = Grid::decode(model, par);
        let mut secs = Vec::with_capacity(prefill_grid.work.len().max(decode_grid.work.len()));
        let mut by_partition = BTreeMap::new();
        for &sms in partitions {
            prefill_grid.time(&sim, sms, &mut secs);
            let prefill =
                least_squares(&prefill_grid.features, &secs).expect("prefill fit is well-posed");
            decode_grid.time(&sim, sms, &mut secs);
            let decode = fit_max_affine(&decode_grid.features, &secs, 2, 20)
                .expect("decode fit is well-posed");
            by_partition.insert(sms, Coefficients { prefill, decode });
        }
        SoloPredictor {
            fitted: Arc::new(Fitted {
                model_layers: model.num_layers,
                by_partition,
            }),
        }
    }

    fn coef(&self, sms: u32) -> &Coefficients {
        // Nearest profiled partition (conservative choice: the one with
        // fewer or equal SMs, falling back to the smallest).
        let by_partition = &self.fitted.by_partition;
        by_partition
            .range(..=sms)
            .next_back()
            .map(|(_, c)| c)
            .unwrap_or_else(|| by_partition.values().next().expect("non-empty"))
    }

    /// Predicted solo latency (seconds) of the **full prefill phase** of
    /// `batch` on a `sms`-SM partition (Eq. 1).
    pub fn prefill_latency(&self, sms: u32, batch: &[SeqState]) -> f64 {
        let mut f = [0.0f64; 4];
        for s in batch {
            let n = s.new_tokens as f64;
            let r = s.reused_tokens as f64;
            f[0] += n * n;
            f[1] += n * r;
            f[2] += n;
        }
        f[3] = 1.0;
        predict(&self.coef(sms).prefill, &f).max(0.0)
    }

    /// Predicted solo latency (seconds) of **one decode iteration** with
    /// the given per-request context lengths (Eq. 2).
    pub fn decode_latency(&self, sms: u32, context_lens: &[u64]) -> f64 {
        let sum_r: u64 = context_lens.iter().sum();
        self.decode_latency_agg(sms, sum_r, context_lens.len())
    }

    /// [`SoloPredictor::decode_latency`] from pre-aggregated inputs: the
    /// `u64` context sum and batch size. Eq. 2 only reads these two
    /// aggregates (the sum is integer arithmetic, so an incrementally
    /// maintained sum is bit-identical to a fresh scan), which lets hot
    /// paths keep running sums instead of re-walking the batch at every
    /// iteration boundary.
    // simlint: hot
    pub fn decode_latency_agg(&self, sms: u32, context_sum: u64, batch: usize) -> f64 {
        let f = [context_sum as f64, batch as f64, 1.0];
        predict_max_affine(&self.coef(sms).decode, &f).max(0.0)
    }

    /// The resolved decode plane set for `sms` — the exact coefficients
    /// [`decode_latency_agg`](Self::decode_latency_agg) evaluates after
    /// its nearest-partition lookup. Dispatchers that probe the same
    /// candidate partitions every decode iteration can cache these and
    /// call [`predict_max_affine`] directly
    /// for bit-identical latencies without the per-call
    /// `BTreeMap` walk.
    pub fn decode_planes(&self, sms: u32) -> &[Vec<f64>] {
        &self.coef(sms).decode
    }

    /// The number of transformer layers of the profiled model.
    pub fn num_layers(&self) -> u32 {
        self.fitted.model_layers
    }

    /// The partitions that were profiled.
    pub fn partitions(&self) -> Vec<u32> {
        self.fitted.by_partition.keys().copied().collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use simcore::SimRng;

    fn setup() -> (ModelSpec, ClusterSpec, Parallelism, SoloPredictor) {
        let cluster = ClusterSpec::dgx_a100();
        let model = ModelSpec::llama70b();
        let par = Parallelism::tp(8, cluster.nvlink_gbs);
        let pred = SoloPredictor::profile(&model, &cluster, &par, &[16, 48, 92, 108]);
        (model, cluster, par, pred)
    }

    #[test]
    fn prefill_accuracy_within_paper_bounds() {
        // Paper: max deviation 8.16% for prefill. Validate on points off
        // the training grid.
        let (model, cluster, par, pred) = setup();
        let sim = GpuSim::from_cluster(&cluster);
        let mut rng = SimRng::seed_from(1);
        let mut worst: f64 = 0.0;
        for _ in 0..200 {
            let n = 64 + rng.next_range(60_000);
            let r = rng.next_range(60_000);
            let batch = [SeqState::new(n, r)];
            let truth = sim.solo_duration(92, &model.prefill_full_work(&batch, &par));
            let est = pred.prefill_latency(92, &batch);
            worst = worst.max((est - truth).abs() / truth);
        }
        assert!(worst < 0.12, "prefill max deviation {worst}");
    }

    #[test]
    fn decode_accuracy_within_paper_bounds() {
        let (model, cluster, par, pred) = setup();
        let sim = GpuSim::from_cluster(&cluster);
        let mut rng = SimRng::seed_from(2);
        let mut worst: f64 = 0.0;
        for _ in 0..200 {
            let bs = 1 + rng.next_range(128) as usize;
            let r = 256 + rng.next_range(100_000);
            let ctx = vec![r; bs];
            let truth = sim.solo_duration(16, &model.decode_iter_work(&ctx, &par));
            let est = pred.decode_latency(16, &ctx);
            worst = worst.max((est - truth).abs() / truth);
        }
        assert!(worst < 0.12, "decode max deviation {worst}");
    }

    #[test]
    fn more_sms_predicts_faster_prefill() {
        let (_, _, _, pred) = setup();
        let batch = [SeqState::new(8192, 8192)];
        assert!(pred.prefill_latency(108, &batch) < pred.prefill_latency(48, &batch));
        assert!(pred.prefill_latency(48, &batch) < pred.prefill_latency(16, &batch));
    }

    #[test]
    fn unprofiled_partition_uses_nearest_below() {
        let (_, _, _, pred) = setup();
        let batch = [SeqState::new(2048, 0)];
        // 64 is not profiled; nearest below is 48.
        assert_eq!(
            pred.prefill_latency(64, &batch),
            pred.prefill_latency(48, &batch)
        );
        // Below the smallest profiled partition falls back to smallest.
        assert_eq!(
            pred.prefill_latency(8, &batch),
            pred.prefill_latency(16, &batch)
        );
    }

    #[test]
    fn clones_share_one_fitted_table() {
        let (_, _, _, pred) = setup();
        let copy = pred.clone();
        assert!(
            Arc::ptr_eq(&pred.fitted, &copy.fitted),
            "clones copy no table"
        );
        assert_eq!(copy, pred);
        let json = serde_json::to_string(&pred).expect("serializes");
        let back: SoloPredictor = serde_json::from_str(&json).expect("parses");
        assert_eq!(back, pred);
        assert!(!Arc::ptr_eq(&back.fitted, &pred.fitted));
    }

    #[test]
    fn decode_latency_monotone_in_batch_and_context() {
        let (_, _, _, pred) = setup();
        let small = pred.decode_latency(16, &[1024; 8]);
        let bigger_batch = pred.decode_latency(16, &[1024; 64]);
        let longer_ctx = pred.decode_latency(16, &[65_536; 8]);
        assert!(bigger_batch > small);
        assert!(longer_ctx > small);
    }
}
