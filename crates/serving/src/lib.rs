#![warn(missing_docs)]
//! The serving framework: request lifecycle, event-driven driver, SLO
//! metrics, goodput search.
//!
//! Every serving system in the reproduction — MuxWise and the six
//! baselines — is a [`Scheduler`]: a policy object that reacts to request
//! arrivals, kernel completions, KV transfers and timers by submitting
//! work to the shared [`gpusim::GpuSim`]. The [`Driver`] owns the
//! simulator, the event queue and the metrics recorder, and runs the
//! simulation to completion.
//!
//! Engines share a lifecycle substrate rather than re-implementing it:
//! [`lease`] makes KV lock/allocation pairs structurally un-leakable
//! (the driver checks every [`LeaseTable`] when a run drains), [`lifecycle`]
//! is the canonical request state machine whose [`EngineCounters`] land
//! in every [`Report`], and [`batch`] is the common decode-batch
//! container with the per-iteration grow/advance loops, plus the
//! in-batch prefix test engines apply while forming a prefill batch.
//!
//! Metrics follow the paper (§4.1):
//!
//! * **TTFT** — arrival to first output token (prefill SLO).
//! * **TBT** — gap between consecutive output tokens of one request
//!   (decode SLO; stricter than the averaged TPOT).
//! * **TPOT** — mean time per output token after the first.
//! * **E2E** — arrival to last token.
//! * **SLO attainment / goodput** — fraction of TBT samples within the
//!   target; goodput is the highest request rate whose P99 TBT meets the
//!   target while the system remains stable ([`goodput::find_goodput`]).
//!
//! # Examples
//!
//! ```
//! use serving::SloSpec;
//! use simcore::SimDuration;
//!
//! let slo = SloSpec::new(
//!     SimDuration::from_millis(500.0),
//!     SimDuration::from_millis(100.0),
//! );
//! assert_eq!(slo.tbt.as_millis(), 100.0);
//! ```

pub mod batch;
pub mod capacity;
pub mod driver;
pub mod faults;
pub mod goodput;
pub mod instance;
pub mod lease;
pub mod lifecycle;
pub mod metrics;
pub mod order;
pub mod recovery;
pub mod request;

pub use batch::{computed_in_batch, DecodeBatch, DecodeSlot};
pub use capacity::kv_pool_capacity_tokens;
pub use driver::{Driver, Scheduler, ServeCtx, WatchdogConfig};
pub use faults::{FaultKind, FaultPlan, FaultWindow};
pub use goodput::{
    assemble_goodput, find_goodput, find_goodput_faulty, FaultyGoodput, GoodputPoint, GoodputResult,
};
pub use instance::{CancelOutcome, Instance, StepOutcome};
pub use lease::{KvLease, LeaseTable};
pub use lifecycle::{EngineCounters, IllegalTransition, Lifecycle, Stage};
pub use metrics::{MetricsRecorder, RecoveryStats, Report};
pub use order::drain_sorted;
pub use recovery::{CrashVictim, MigratableVictim, RecoveryClass, RecoveryManager};
pub use request::{ReqId, SloSpec};
