//! The canonical per-request state machine shared by every engine.
//!
//! All seven schedulers move requests through the same stages — a
//! request waits in a queue, prefills, decodes, and either finishes or is
//! dropped under memory pressure — but each engine used to track this
//! implicitly through which `Vec` a request happened to sit in, with
//! private `requeue_count`/`dropped` counters that never reached the
//! [`crate::Report`]. A [`Lifecycle`] makes the stages explicit, rejects
//! illegal transitions (decoding before prefill completes, reviving a
//! finished request), and maintains the uniform [`EngineCounters`] the
//! driver folds into every report.

use std::collections::VecDeque;

use crate::request::ReqId;

/// Where a request currently is in its life.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Stage {
    /// Waiting for admission (the initial stage; also re-entered when a
    /// running request is requeued as a memory victim or preempted).
    Queued,
    /// Its prompt is being computed (KV admission granted).
    Prefilling,
    /// Emitting output tokens from the decode batch.
    Decoding,
    /// All output tokens emitted; terminal.
    Finished,
    /// Abandoned (could not be served within resource limits); terminal.
    Dropped,
}

/// Uniform per-engine event counters, folded into [`crate::Report`].
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct EngineCounters {
    /// Requests admitted to prefill (counts re-admissions after requeue).
    pub admissions: u64,
    /// Running requests sent back to the waiting queue (memory victims,
    /// preempted prefills).
    pub requeues: u64,
    /// Requests abandoned without completing.
    pub drops: u64,
    /// Prefill preemptions performed (MuxWise urgent-join path).
    pub preemptions: u64,
    /// KV leases still outstanding when the run ended (release builds
    /// only — debug builds panic in the driver's leak detector instead).
    pub leaked_leases: u64,
    /// Requests intentionally shed by the driver's overload watchdog
    /// (queue-depth cap or unmeetable TTFT deadline). A subset of
    /// `drops`, counted separately so shedding runs aren't conflated
    /// with unstable ones.
    pub shed: u64,
    /// Arrival deliveries deferred with backoff because a severe fault
    /// window was active (the watchdog's bounded retry path).
    pub fault_retries: u64,
    /// Waiting requests left out of a prefill batch because a request
    /// already in it computes their first uncached block
    /// ([`crate::computed_in_batch`]); each waits for the next batch.
    pub prefix_skips: u64,
}

/// A transition that the state machine does not permit.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct IllegalTransition {
    /// The request that attempted the transition.
    pub id: ReqId,
    /// The stage it was in.
    pub from: Stage,
    /// The stage it asked for.
    pub to: Stage,
}

impl std::fmt::Display for IllegalTransition {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "request {} cannot move {:?} -> {:?}",
            self.id, self.from, self.to
        )
    }
}

/// Tracks the [`Stage`] of every request an engine has seen and the
/// [`EngineCounters`] implied by its transitions.
///
/// Stages are stored densely by [`ReqId`]; ids the engine has not
/// touched yet report [`Stage::Queued`].
#[derive(Debug, Default)]
pub struct Lifecycle {
    stages: Vec<Stage>,
    counters: EngineCounters,
}

fn legal(from: Stage, to: Stage) -> bool {
    use Stage::*;
    matches!(
        (from, to),
        (Queued, Prefilling)
            | (Prefilling, Decoding)
            | (Prefilling, Queued)
            | (Decoding, Queued)
            | (Prefilling, Finished)
            | (Decoding, Finished)
            | (Queued, Dropped)
            | (Prefilling, Dropped)
    )
}

impl Lifecycle {
    /// Creates an empty lifecycle tracker.
    pub fn new() -> Lifecycle {
        Lifecycle::default()
    }

    /// The current stage of `id` ([`Stage::Queued`] if never touched).
    pub fn stage(&self, id: ReqId) -> Stage {
        self.stages.get(id).copied().unwrap_or(Stage::Queued)
    }

    /// The counters accumulated so far.
    pub fn counters(&self) -> EngineCounters {
        self.counters
    }

    /// Attempts to move `id` to `to`, updating the matching counter on
    /// success and leaving all state untouched on rejection.
    pub fn try_transition(&mut self, id: ReqId, to: Stage) -> Result<(), IllegalTransition> {
        let from = self.stage(id);
        if !legal(from, to) {
            return Err(IllegalTransition { id, from, to });
        }
        if self.stages.len() <= id {
            self.stages.resize(id + 1, Stage::Queued);
        }
        self.stages[id] = to;
        match to {
            Stage::Prefilling => self.counters.admissions += 1,
            Stage::Queued => self.counters.requeues += 1,
            Stage::Dropped => self.counters.drops += 1,
            Stage::Decoding | Stage::Finished => {}
        }
        Ok(())
    }

    fn transition(&mut self, id: ReqId, to: Stage) {
        if let Err(e) = self.try_transition(id, to) {
            panic!("{e}");
        }
    }

    /// Admits `id` to prefill (`Queued → Prefilling`).
    pub fn admit(&mut self, id: ReqId) {
        self.transition(id, Stage::Prefilling);
    }

    /// Moves `id` from prefill into the decode batch
    /// (`Prefilling → Decoding`).
    pub fn begin_decode(&mut self, id: ReqId) {
        self.transition(id, Stage::Decoding);
    }

    /// Sends a running `id` back to the waiting queue
    /// (`Prefilling/Decoding → Queued`).
    pub fn requeue(&mut self, id: ReqId) {
        self.transition(id, Stage::Queued);
    }

    /// Completes `id` (`Prefilling/Decoding → Finished`; prefill-stage
    /// finishes cover zero-output requests).
    pub fn finish(&mut self, id: ReqId) {
        self.transition(id, Stage::Finished);
    }

    /// Abandons `id` (`Queued/Prefilling → Dropped`).
    pub fn drop_request(&mut self, id: ReqId) {
        self.transition(id, Stage::Dropped);
    }

    /// Sheds `id` if it is still in `waiting` (the watchdog's deadline
    /// shed): removes it from the queue and drops it
    /// (`Queued → Dropped`). Returns `false`, changing nothing, when `id`
    /// is not waiting — it is already being served, or already gone.
    pub fn shed_waiting(&mut self, waiting: &mut VecDeque<ReqId>, id: ReqId) -> bool {
        let Some(pos) = waiting.iter().position(|&w| w == id) else {
            return false;
        };
        waiting.remove(pos);
        self.drop_request(id);
        true
    }

    /// Records a prefill preemption (counter only; the victim's stage
    /// change is reported separately via [`Lifecycle::requeue`]).
    pub fn record_preemption(&mut self) {
        self.counters.preemptions += 1;
    }

    /// Records a waiting request left out of the prefill batch being
    /// formed (counter only; the request stays [`Stage::Queued`]).
    pub fn record_prefix_skip(&mut self) {
        self.counters.prefix_skips += 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn happy_path_counts_one_admission() {
        let mut lc = Lifecycle::new();
        lc.admit(3);
        lc.begin_decode(3);
        lc.finish(3);
        assert_eq!(lc.stage(3), Stage::Finished);
        let c = lc.counters();
        assert_eq!((c.admissions, c.requeues, c.drops), (1, 0, 0));
        // Untouched ids (including 0..3) stay Queued.
        assert_eq!(lc.stage(0), Stage::Queued);
        assert_eq!(lc.stage(99), Stage::Queued);
    }

    #[test]
    fn requeue_and_readmit_counts_both() {
        let mut lc = Lifecycle::new();
        lc.admit(0);
        lc.begin_decode(0);
        lc.requeue(0);
        lc.admit(0);
        lc.begin_decode(0);
        lc.finish(0);
        let c = lc.counters();
        assert_eq!(c.admissions, 2);
        assert_eq!(c.requeues, 1);
    }

    #[test]
    fn decode_before_prefill_is_rejected() {
        let mut lc = Lifecycle::new();
        let err = lc.try_transition(5, Stage::Decoding).unwrap_err();
        assert_eq!(err.from, Stage::Queued);
        assert_eq!(err.to, Stage::Decoding);
        assert_eq!(lc.stage(5), Stage::Queued);
        assert_eq!(lc.counters(), EngineCounters::default());
    }

    #[test]
    fn terminal_stages_are_final() {
        let mut lc = Lifecycle::new();
        lc.admit(1);
        lc.finish(1);
        assert!(lc.try_transition(1, Stage::Prefilling).is_err());
        lc.drop_request(2);
        assert!(lc.try_transition(2, Stage::Prefilling).is_err());
        assert!(lc.try_transition(2, Stage::Dropped).is_err());
    }

    #[test]
    fn shed_waiting_drops_a_waiting_id_once() {
        let mut lc = Lifecycle::new();
        let mut waiting: VecDeque<ReqId> = [4, 7, 9].into();
        lc.admit(1);
        assert!(lc.shed_waiting(&mut waiting, 7));
        assert_eq!(waiting, [4, 9]);
        assert_eq!(lc.stage(7), Stage::Dropped);
        assert_eq!(lc.counters().drops, 1);
        // Gone from the queue: a second shed changes nothing, and so
        // does shedding a running or never-seen id.
        for id in [7, 1, 12] {
            assert!(!lc.shed_waiting(&mut waiting, id));
        }
        assert_eq!(waiting, [4, 9]);
        assert_eq!(lc.stage(1), Stage::Prefilling);
        assert_eq!(lc.counters().drops, 1);
    }

    #[test]
    #[should_panic(expected = "cannot move")]
    fn panicking_wrapper_rejects_illegal_moves() {
        let mut lc = Lifecycle::new();
        lc.begin_decode(0);
    }
}
