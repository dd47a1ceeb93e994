#![warn(missing_docs)]
//! Baseline serving systems the paper compares MuxWise against (§4.1),
//! reimplemented as [`serving::Scheduler`]s on the same GPU simulator:
//!
//! * [`ChunkedPrefill`] — SGLang with SARATHI-Serve chunked prefill: each
//!   iteration fuses the ongoing decode batch with a prefill chunk capped
//!   by an offline-tuned token budget. Shares one KV pool (full reuse),
//!   but couples decode SLO to the budget — the dilemma of §2.3.2.
//! * [`ChunkedPrefill::nanoflow`] — NanoFlow: chunked-prefill with
//!   operator-level nano-batch overlap. Gains compute overlap but
//!   duplicates weight loading per iteration, which backfires when the
//!   fused batch is memory-bound (§4.2.1).
//! * [`SglangPd`] — static 1:1 prefill/decode disaggregation (Splitwise
//!   lineage, SGLang-PD implementation): two 4-GPU TP-4 instances with
//!   separate (halved) KV pools and NVLink KV migration.
//! * [`LoongServe`] — dynamic disaggregation with elastic sequence
//!   parallelism: prefill scales across free GPUs, KV migrates to the
//!   decode group, and **no cross-request KV reuse** (multi-turn context
//!   is recomputed every turn, §2.3.1).
//! * [`HybridPd`] — §5's large-scale deployment idea: static
//!   disaggregation whose decode instance absorbs overflow prefill on its
//!   idle SMs via spatial multiplexing (MuxWise as a building block
//!   inside disaggregated fleets).
//! * [`related::WindServe`] — §6: spatial multiplexing on plain CUDA
//!   streams: a fixed half/half SM split, no estimator, whole-phase
//!   prefill launches.
//! * [`related::TemporalMux`] — §6: the temporal-only variant (layer-wise
//!   prefill squeezed between decode iterations, never concurrent).
//!
//! # Adding a new engine
//!
//! An engine is a [`serving::Scheduler`] that owns *policy only*; the
//! request-lifecycle mechanics live in the `serving` substrate. Hold KV
//! through a [`serving::LeaseTable`] (created in `on_start`, reported via
//! `Scheduler::lease_tables` so the driver's end-of-run leak detector
//! covers you): admit a prompt with one call, `lease_prompt`, sized from
//! `peek_prefix`, which returns it as a [`serving::LeasedPrompt`] (or
//! `try_lease_private` for lock-less slots); grow with
//! `absorb_private`, and finish through `release` or
//! `release_and_commit` — never touch the raw pool lock API. Crash
//! victims return their leases through `revoke` (their prefix stays
//! protected); `lease_prompt` lifts the protection when they are
//! admitted again. Report them as `serving::CrashVictim`s. A batching
//! engine keeps only its batching policy: which waiting prompts it
//! takes, in what order, when it stops a batch (the caps are
//! [`serving::MAX_PREFILL_BATCH_REQUESTS`] and
//! [`serving::MAX_PREFILL_BATCH_TOKENS`]) and when it drops a prompt
//! that can never fit. A whole prefill phase launches through
//! [`serving::launch_prefill_phase`]. Track stages with a
//! [`serving::Lifecycle`] (`admit`/`begin_decode`/`requeue`/`finish`/
//! `drop_request`, and `shed_waiting` for the watchdog's deadline shed;
//! illegal orders panic) and return its counters from
//! `Scheduler::counters` so requeue/drop pressure lands in every
//! [`serving::Report`]. Keep decoding requests in a
//! [`serving::DecodeBatch`]: `grow_for_iteration` handles the
//! one-token-per-slot KV growth with tail-victim eviction and
//! `advance_iteration` handles emission and retirement.
//!
//! How a prefilled context reaches decode depends on the pool:
//!
//! * **One shared pool**: hand each finished prefill's lease to
//!   [`serving::join_decode`] (first token, radix migration, and the
//!   decode slot — or retirement when nothing is left to generate), and
//!   retire finished slots with [`serving::retire`] (commit prompt plus
//!   output, release, finish).
//! * **A separate decode instance**: keep a [`serving::DecodeSide`]
//!   (`connect` it in `on_start`) and hand it each prefilled context —
//!   over a KV transfer with `send`, which emits the first token and
//!   sizes the context, then `landed` in `on_transfer_done`, or directly
//!   as a [`serving::Handoff`] with `queue`. Say in each handoff whether
//!   the decode pool already holds its space. The decode side admits,
//!   grows with requeue, launches, retires and drains on a crash; the
//!   engine keeps only where prefill runs and what it submits.
//!
//! Capacity can also come back without a completion to announce it:
//! when a KV-shrink window closes, only `Scheduler::on_fault` fires.
//! Treat it as a wake-up that retries every admission and launch the
//! smaller pool blocked (each engine here runs the same resume sequence
//! as after a GPU recovery), or the run strands requests. So a new
//! scheduler is ~the admission policy, the kernel-submission logic, and
//! nothing else. [`SglangPd`] is the smallest complete disaggregated
//! template, [`related::WindServe`] the smallest shared-pool one.
//!
//! # Examples
//!
//! ```no_run
//! use baselines::ChunkedPrefill;
//! use gpusim::{ClusterSpec, GpuSim};
//! use modelspec::ModelSpec;
//! use serving::{Driver, SloSpec};
//! use simcore::SimRng;
//! use workload::{generate, WorkloadKind};
//!
//! let cluster = ClusterSpec::dgx_a100();
//! let model = ModelSpec::llama8b();
//! let slo = SloSpec::llama8b();
//! let mut engine = ChunkedPrefill::tuned(&model, &cluster, 8, slo);
//! let mut rng = SimRng::seed_from(1);
//! let reqs = generate(WorkloadKind::ShareGpt, 100, 2.0, &mut rng);
//! let rep = Driver::new(GpuSim::from_cluster(&cluster), reqs, slo).run(&mut engine);
//! println!("{}/{} finished", rep.finished, rep.total);
//! ```

pub mod chunked;
pub mod hybrid;
pub mod loongserve;
pub mod pd;
pub mod related;

pub use chunked::ChunkedPrefill;
pub use hybrid::HybridPd;
pub use loongserve::LoongServe;
pub use pd::SglangPd;
pub use related::{TemporalMux, WindServe};
