//! SLO specification and per-request runtime state.

use simcore::{SimDuration, SimTime};

use crate::metrics::Region;

/// Index of a request within a [`crate::Driver`] run.
pub type ReqId = usize;

/// The service-level objectives of a deployment.
///
/// The paper uses TTFT < 500 ms as the chatbot-style prefill target and
/// TBT targets of 50 ms (Llama-8B) / 100 ms (Llama-70B) for decode.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SloSpec {
    /// Time-to-first-token target.
    pub ttft: SimDuration,
    /// Time-between-tokens target.
    pub tbt: SimDuration,
}

impl SloSpec {
    /// Creates an SLO spec.
    pub fn new(ttft: SimDuration, tbt: SimDuration) -> SloSpec {
        SloSpec { ttft, tbt }
    }

    /// The paper's Llama-8B targets: 500 ms TTFT, 50 ms TBT.
    pub fn llama8b() -> SloSpec {
        SloSpec::new(
            SimDuration::from_millis(500.0),
            SimDuration::from_millis(50.0),
        )
    }

    /// The paper's Llama-70B targets: 500 ms TTFT, 100 ms TBT.
    pub fn llama70b() -> SloSpec {
        SloSpec::new(
            SimDuration::from_millis(500.0),
            SimDuration::from_millis(100.0),
        )
    }
}

/// Runtime progress of one request (owned by the driver; schedulers read
/// it through [`crate::ServeCtx`]).
#[derive(Debug, Clone)]
pub(crate) struct ReqRuntime {
    pub first_token_at: Option<SimTime>,
    pub last_token_at: Option<SimTime>,
    pub tokens_emitted: u64,
    pub finished_at: Option<SimTime>,
    /// Where the recorder writes this request's inter-token gaps.
    pub gaps: Region,
}

impl ReqRuntime {
    pub fn new(gaps: Region) -> ReqRuntime {
        ReqRuntime {
            first_token_at: None,
            last_token_at: None,
            tokens_emitted: 0,
            finished_at: None,
            gaps,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn presets_match_paper() {
        assert_eq!(SloSpec::llama8b().tbt.as_millis(), 50.0);
        assert_eq!(SloSpec::llama70b().tbt.as_millis(), 100.0);
        assert_eq!(SloSpec::llama70b().ttft.as_millis(), 500.0);
    }
}
