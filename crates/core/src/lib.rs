#![warn(missing_docs)]
//! **MuxWise**: high-goodput LLM serving via intra-GPU prefill-decode
//! multiplexing — the reproduction of the paper's core contribution.
//!
//! MuxWise executes the prefill and decode phases of LLM inference
//! **spatially multiplexed** on the same GPUs: decode runs on a
//! just-enough green-context SM partition that guarantees its TBT SLO
//! even under worst-case contention, prefill gets every remaining SM, and
//! both phases share one KV-cache pool. Three cooperating mechanisms
//! (§3 of the paper):
//!
//! 1. **Bubble-less multiplex engine** — prefill is split into
//!    *transformer layers* and launched in groups sized to cover exactly
//!    the concurrent decode iterations
//!    (`N_PL = ceil(T_d · N_T / T_P)`); completed prefills merge into the
//!    decode batch through *query-based synchronization* (no blocking);
//!    when decode drains mid-prefill, queued layers are re-launched on a
//!    re-partitioned context so no SMs idle.
//! 2. **Contention-tolerant estimator** — partition choices use
//!    worst-case decode latency: the solo-run predictor
//!    ([`estimator::SoloPredictor`], Eq. 1/2) times the contention
//!    guard's max observed slowdown
//!    ([`estimator::ContentionGuard`]), refined online after every
//!    co-run iteration.
//! 3. **SLO-aware dispatcher** — reserves the smallest SM partition
//!    meeting the TBT target and gives prefill the rest, applying the
//!    split one side at a time: decode at its iteration boundaries,
//!    prefill at its layer-group boundaries. By default
//!    ([`Preemption::TtftRescue`]) a new prompt preempts the running
//!    prefill phase at a layer boundary when every request of that phase
//!    misses TTFT anyway, the prompt meets it if it starts now, and the
//!    phase still makes its own length-scaled deadline (non-recursive).
//!
//! # Examples
//!
//! ```no_run
//! use gpusim::{ClusterSpec, GpuSim};
//! use modelspec::ModelSpec;
//! use muxwise::{Estimators, MuxWise, MuxWiseConfig};
//! use serving::{Driver, SloSpec};
//! use simcore::SimRng;
//! use workload::{generate, WorkloadKind};
//!
//! let cluster = ClusterSpec::dgx_a100();
//! let model = ModelSpec::llama70b();
//! let est = Estimators::profile(&model, &cluster, 8);
//! let mut engine = MuxWise::new(&model, &cluster, 8, SloSpec::llama70b(), est,
//!                               MuxWiseConfig::default());
//! let mut rng = SimRng::seed_from(1);
//! let reqs = generate(WorkloadKind::ShareGpt, 200, 2.0, &mut rng);
//! let report = Driver::new(GpuSim::from_cluster(&cluster), reqs, SloSpec::llama70b())
//!     .run(&mut engine);
//! println!("finished {}/{}", report.finished, report.total);
//! ```

pub mod config;
pub mod engine;

pub use config::{Estimators, MuxWiseConfig, PartitionBackend, Preemption};
pub use engine::MuxWise;
