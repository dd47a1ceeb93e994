//! Latency metrics and end-of-run reports.

use simcore::stats::Summary;
use simcore::{SimDuration, SimTime};

use crate::lifecycle::EngineCounters;
use crate::request::{ReqId, ReqRuntime, SloSpec};

/// Records token-emission timestamps per request during a run.
#[derive(Debug)]
pub struct MetricsRecorder {
    pub(crate) runtimes: Vec<ReqRuntime>,
    total_tokens: u64,
    /// Requests intentionally shed by the driver's overload watchdog.
    shed: Vec<bool>,
    /// Hedge losers cancelled by the fleet tier: a third accounting
    /// class next to `finished` and `shed`, so duplicate copies never
    /// inflate latency summaries or completion rates.
    cancelled: Vec<bool>,
    /// Requests handed to the scheduler.
    delivered: Vec<bool>,
    /// Delivered requests not yet finished, shed or cancelled, kept
    /// where each of those is recorded.
    in_flight: usize,
    /// Each request's prompt tokens, recorded at delivery.
    prompt_tokens: Vec<u64>,
    /// Prompt tokens of delivered requests that have neither produced a
    /// token nor resolved, kept where delivery, the first token and
    /// each resolution are recorded.
    prefill_backlog: u64,
    /// TBT target tracked live for the recovery-time metric; `None`
    /// (the default) skips the tracking entirely.
    tbt_threshold: Option<f64>,
    /// Last instant a TBT sample exceeded the tracked threshold.
    last_tbt_violation_at: Option<SimTime>,
    /// Cumulative finished-request latency totals (non-cancelled only):
    /// the fleet's latency-aware health tracker reads these at merge
    /// barriers and EWMA-folds the per-barrier deltas.
    fin_count: u64,
    fin_ttft_sum: f64,
    fin_tbt_sum: f64,
    fin_tbt_count: u64,
}

impl MetricsRecorder {
    /// Creates a recorder for `n` requests.
    pub fn new(n: usize) -> MetricsRecorder {
        MetricsRecorder {
            runtimes: (0..n).map(|_| ReqRuntime::new()).collect(),
            total_tokens: 0,
            shed: vec![false; n],
            cancelled: vec![false; n],
            delivered: vec![false; n],
            in_flight: 0,
            prompt_tokens: vec![0; n],
            prefill_backlog: 0,
            tbt_threshold: None,
            last_tbt_violation_at: None,
            fin_count: 0,
            fin_ttft_sum: 0.0,
            fin_tbt_sum: 0.0,
            fin_tbt_count: 0,
        }
    }

    /// Grows the recorder by one request (dynamic admission into a
    /// steppable [`crate::Instance`]). The new slot starts untouched —
    /// identical to having been sized for it at construction.
    pub(crate) fn push_request(&mut self) {
        self.runtimes.push(ReqRuntime::new());
        self.shed.push(false);
        self.cancelled.push(false);
        self.delivered.push(false);
        self.prompt_tokens.push(0);
    }

    /// Records that `req`, a prompt of `prompt_tokens`, reached the
    /// scheduler.
    pub(crate) fn mark_delivered(&mut self, req: ReqId, prompt_tokens: u64) {
        if !self.delivered[req] && !self.is_resolved(req) {
            self.in_flight += 1;
            self.prefill_backlog += prompt_tokens;
        }
        self.delivered[req] = true;
        self.prompt_tokens[req] = prompt_tokens;
    }

    /// Whether `req` reached the scheduler.
    pub(crate) fn is_delivered(&self, req: ReqId) -> bool {
        self.delivered[req]
    }

    /// Delivered requests that are neither finished, shed nor
    /// cancelled.
    pub(crate) fn in_flight(&self) -> usize {
        self.in_flight
    }

    /// Prompt tokens of delivered requests that have neither produced a
    /// token nor resolved.
    pub(crate) fn prefill_backlog(&self) -> u64 {
        self.prefill_backlog
    }

    /// Whether `req` counts toward the prefill backlog: delivered,
    /// tokenless and unresolved.
    pub(crate) fn awaits_first_token(&self, req: ReqId) -> bool {
        self.runtimes[req].tokens_emitted == 0 && self.delivered[req] && !self.is_resolved(req)
    }

    /// Takes `req` out of the prefill backlog if it is still in it; called
    /// at its first token and at its first terminal mark. Cold: it runs
    /// about once per request, while [`MetricsRecorder::emit_tokens`]
    /// runs once per token.
    #[cold]
    fn leave_prefill_backlog(&mut self, req: ReqId) {
        if self.awaits_first_token(req) {
            self.prefill_backlog -= self.prompt_tokens[req];
        }
    }

    /// Whether `req` reached a terminal class: finished, shed or
    /// cancelled.
    pub(crate) fn is_resolved(&self, req: ReqId) -> bool {
        self.runtimes[req].finished_at.is_some() || self.shed[req] || self.cancelled[req]
    }

    /// Called before `req` is marked finished, shed or cancelled: its
    /// first terminal mark takes a delivered request out of flight, and
    /// out of the prefill backlog if it never produced a token.
    fn settle(&mut self, req: ReqId) {
        self.leave_prefill_backlog(req);
        if self.delivered[req] && !self.is_resolved(req) {
            self.in_flight -= 1;
        }
    }

    /// Marks a request as shed by the overload watchdog. Shed requests
    /// count as `shed` in the report and are excluded from the stability
    /// criterion's denominator.
    pub fn mark_shed(&mut self, req: ReqId) {
        self.settle(req);
        self.shed[req] = true;
    }

    /// Whether a request was shed.
    pub fn is_shed(&self, req: ReqId) -> bool {
        self.shed.get(req).copied().unwrap_or(false)
    }

    /// Marks a request as a cancelled hedge loser. Cancelled requests
    /// form their own accounting class: excluded from latency summaries
    /// and the finished count, but still admitted — the fleet books
    /// close as `finished + shed + cancelled == admitted`.
    pub fn mark_cancelled(&mut self, req: ReqId) {
        self.settle(req);
        self.cancelled[req] = true;
    }

    /// Whether a request was cancelled.
    pub fn is_cancelled(&self, req: ReqId) -> bool {
        self.cancelled.get(req).copied().unwrap_or(false)
    }

    /// Enables live tracking of TBT-threshold violations (used by the
    /// driver's recovery-time metric when fault injection is active).
    pub(crate) fn track_tbt_threshold(&mut self, secs: f64) {
        self.tbt_threshold = Some(secs);
    }

    /// The last instant a tracked TBT sample violated the threshold.
    pub(crate) fn last_tbt_violation(&self) -> Option<SimTime> {
        self.last_tbt_violation_at
    }

    /// Records the emission of `count` output tokens for `req` at `now`
    /// (decode iterations emit one per request; the prefill's completion
    /// emits the first).
    ///
    /// # Panics
    ///
    /// Panics if `req` is out of range.
    pub fn emit_tokens(&mut self, req: ReqId, now: SimTime, count: u64) {
        if count > 0 && self.runtimes[req].tokens_emitted == 0 {
            self.leave_prefill_backlog(req);
        }
        let r = &mut self.runtimes[req];
        for _ in 0..count {
            match r.last_token_at {
                None => r.first_token_at = Some(now),
                Some(prev) => {
                    // Multiple tokens at one instant (e.g. a final flush)
                    // contribute zero-gap TBT samples only for the first.
                    let gap = (now - prev).as_secs();
                    if let Some(th) = self.tbt_threshold {
                        if gap > th {
                            self.last_tbt_violation_at = Some(now);
                        }
                    }
                    r.tbt_samples.push(gap);
                }
            }
            r.last_token_at = Some(now);
            r.tokens_emitted += 1;
            self.total_tokens += 1;
        }
    }

    /// Marks a request finished. `arrival` is the request's arrival
    /// time, used to fold its TTFT/TBT into the cumulative
    /// finished-latency totals ([`MetricsRecorder::finished_latency`]).
    /// Cancelled hedge losers that run to completion still get a
    /// `finished_at` stamp (so in-flight accounting settles) but are
    /// kept out of the latency totals — a duplicate's latency says
    /// nothing about the member's health.
    pub fn finish(&mut self, req: ReqId, now: SimTime, arrival: SimTime) {
        self.settle(req);
        let r = &mut self.runtimes[req];
        r.finished_at = Some(now);
        if self.cancelled.get(req).copied().unwrap_or(false) {
            return;
        }
        self.fin_count += 1;
        if let Some(first) = r.first_token_at {
            self.fin_ttft_sum += (first - arrival).as_secs();
        }
        self.fin_tbt_count += r.tbt_samples.len() as u64;
        self.fin_tbt_sum += r.tbt_samples.iter().sum::<f64>();
    }

    /// Cumulative finished-request latency totals, in finish order:
    /// `(finished count, TTFT sum secs, TBT sample count, TBT sum secs)`.
    /// Monotone over a run; the fleet health layer diffs consecutive
    /// barrier readings to get deterministic per-window batch means.
    pub fn finished_latency(&self) -> (u64, f64, u64, f64) {
        (
            self.fin_count,
            self.fin_ttft_sum,
            self.fin_tbt_count,
            self.fin_tbt_sum,
        )
    }

    /// Whether the request has finished.
    pub fn is_finished(&self, req: ReqId) -> bool {
        self.runtimes[req].finished_at.is_some()
    }

    /// Tokens emitted so far for one request.
    pub fn tokens_emitted(&self, req: ReqId) -> u64 {
        self.runtimes[req].tokens_emitted
    }

    /// Total output tokens across all requests.
    pub fn total_tokens(&self) -> u64 {
        self.total_tokens
    }

    /// Builds the final report. `arrivals` gives each request's arrival
    /// time; `makespan` the simulated span used for throughput.
    pub fn report(&self, arrivals: &[SimTime], makespan: SimDuration, slo: &SloSpec) -> Report {
        assert_eq!(arrivals.len(), self.runtimes.len());
        let mut ttft = Summary::new();
        let mut tbt = Summary::new();
        let mut tpot = Summary::new();
        let mut e2e = Summary::new();
        let mut ttft_per_token = Summary::new();
        let mut finished = 0usize;
        let mut cancelled = 0usize;
        let mut cancelled_tokens = 0u64;
        for (i, (r, &arr)) in self.runtimes.iter().zip(arrivals).enumerate() {
            if self.cancelled[i] {
                // Cancelled hedge losers: their tokens are wasted
                // compute, not served output, and their latencies are
                // duplicates — keep both out of the summaries.
                cancelled += 1;
                cancelled_tokens += r.tokens_emitted;
                continue;
            }
            if let Some(first) = r.first_token_at {
                let t = (first - arr).as_secs();
                ttft.record(t);
                // TTFT normalized by input length is only meaningful with
                // the input length, which the caller folds in; here we
                // record raw TTFT and let callers divide (Fig. 20 uses
                // `ttft_per_token` filled by `report_with_inputs`).
                ttft_per_token.record(t);
            }
            for &s in &r.tbt_samples {
                tbt.record(s);
            }
            if let (Some(first), Some(last)) = (r.first_token_at, r.last_token_at) {
                if r.tokens_emitted > 1 {
                    tpot.record((last - first).as_secs() / (r.tokens_emitted - 1) as f64);
                }
            }
            if let Some(done) = r.finished_at {
                e2e.record((done - arr).as_secs());
                finished += 1;
            }
        }
        Report {
            ttft,
            tbt,
            tpot,
            e2e,
            ttft_per_token,
            finished,
            total: self.runtimes.len(),
            total_tokens: self.total_tokens - cancelled_tokens,
            shed: self.shed.iter().filter(|&&s| s).count(),
            cancelled,
            cancelled_tokens,
            makespan,
            slo: *slo,
            utilization: 0.0,
            bubble_ratio: 0.0,
            diverged: false,
            recovery_secs: None,
            recovery: RecoveryStats::default(),
            counters: EngineCounters::default(),
        }
    }

    /// Like [`MetricsRecorder::report`] but fills the TTFT-per-input-token
    /// distribution used by the preemption study (Fig. 20).
    pub fn report_with_inputs(
        &self,
        arrivals: &[SimTime],
        input_tokens: &[u64],
        makespan: SimDuration,
        slo: &SloSpec,
    ) -> Report {
        let mut rep = self.report(arrivals, makespan, slo);
        let mut per_token = Summary::new();
        for (i, ((r, &arr), &inp)) in self
            .runtimes
            .iter()
            .zip(arrivals)
            .zip(input_tokens)
            .enumerate()
        {
            if self.cancelled[i] {
                continue;
            }
            if let Some(first) = r.first_token_at {
                per_token.record((first - arr).as_secs() / inp.max(1) as f64);
            }
        }
        rep.ttft_per_token = per_token;
        rep
    }
}

/// Crash-failover outcomes of one run, filled by the driver's recovery
/// manager (`serving::recovery`). All-zero — and `PartialEq`-identical
/// to a pre-crash-support report — when no GPU fail-stop occurred.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct RecoveryStats {
    /// Crash victims whose work was revoked by a GPU fail-stop.
    pub crash_victims: u64,
    /// Victims re-dispatched to a survivor that went on to finish.
    pub recovered: u64,
    /// Victims given up on (retry budget exhausted or TTFT deadline
    /// unmeetable) and shed — never silently dropped.
    pub shed_on_crash: u64,
    /// Tokens of already-computed context burned and re-prefilled on a
    /// survivor (zero for layer-checkpoint resumes; charged against
    /// goodput because the re-computation occupies SMs that would
    /// otherwise serve fresh work).
    pub reprefill_tokens: u64,
    /// Failover latency samples: crash instant → the victim's successful
    /// re-dispatch, seconds.
    pub failover: Summary,
    /// Victims handed off to another instance by the fleet failover tier
    /// (accounted shed locally — the migrated copy's outcome lives in
    /// the fleet report, not this instance's).
    pub migrated_out: u64,
}

/// Aggregated latency/throughput results of one serving run.
///
/// `PartialEq` compares every field (including raw latency samples in
/// insertion order), which is how the parallel sweep runner asserts its
/// output is bit-identical to a sequential run.
#[derive(Debug, Clone, PartialEq)]
pub struct Report {
    /// Time-to-first-token samples (seconds).
    pub ttft: Summary,
    /// Time-between-tokens samples (seconds).
    pub tbt: Summary,
    /// Time-per-output-token samples (seconds).
    pub tpot: Summary,
    /// End-to-end latency samples (seconds).
    pub e2e: Summary,
    /// TTFT divided by input length (seconds/token; Fig. 20).
    pub ttft_per_token: Summary,
    /// Requests that completed.
    pub finished: usize,
    /// Requests submitted.
    pub total: usize,
    /// Output tokens generated.
    pub total_tokens: u64,
    /// Requests intentionally shed by the overload watchdog; excluded
    /// from the stability denominator (shedding is graceful degradation,
    /// not instability).
    pub shed: usize,
    /// Hedge losers cancelled by the fleet tier (duplicate copies whose
    /// twin won the race). Disjoint from `finished` and `shed`, so
    /// `finished + shed + cancelled == total`.
    pub cancelled: usize,
    /// Output tokens emitted by cancelled copies before the cancel
    /// landed — wasted compute charged to hedging, excluded from
    /// `total_tokens`.
    pub cancelled_tokens: u64,
    /// Simulated wall-clock span.
    pub makespan: SimDuration,
    /// The SLO the run was evaluated against.
    pub slo: SloSpec,
    /// Aggregated GPU utilization (filled by the driver from simulator
    /// accounting).
    pub utilization: f64,
    /// Mean bubble ratio across compute streams.
    pub bubble_ratio: f64,
    /// Set by load harnesses when queueing delay diverged (e.g. P99 TTFT
    /// comparable to the whole trace span): the offered load exceeded
    /// capacity even if every request eventually completed.
    pub diverged: bool,
    /// Time from the last fault window's end until the last TBT-SLO
    /// violation (the paper-style recovery time). `Some(0.0)` means TBT
    /// was back in SLO the moment the fault cleared; `None` when no
    /// fault plan was configured.
    pub recovery_secs: Option<f64>,
    /// Crash-failover outcomes (all-zero unless a GPU fail-stop fired).
    pub recovery: RecoveryStats,
    /// Lifecycle counters (admissions, requeues, drops, preemptions)
    /// folded in by the driver from the scheduler.
    pub counters: EngineCounters,
}

impl Report {
    /// Fraction of requests that finished.
    pub fn completion_rate(&self) -> f64 {
        if self.total == 0 {
            1.0
        } else {
            self.finished as f64 / self.total as f64
        }
    }

    /// Fraction of *served* requests that finished: shed and cancelled
    /// requests are removed from the denominator, so intentional load
    /// shedding under a fault (or a hedge loser losing its race) does
    /// not read as the engine falling behind.
    pub fn served_completion_rate(&self) -> f64 {
        let served = self.total.saturating_sub(self.shed + self.cancelled);
        if served == 0 {
            1.0
        } else {
            self.finished as f64 / served as f64
        }
    }

    /// A run is *stable* when it kept up with the load it chose to serve
    /// (≥ 99 % completion among non-shed requests and no queue
    /// divergence). Unstable baselines are reported but excluded from
    /// speedup averages, as in §4.2.1; a shedding run is degraded, not
    /// unstable.
    pub fn is_stable(&self) -> bool {
        self.served_completion_rate() >= 0.99 && !self.diverged
    }

    /// Fraction of TBT samples within the SLO target.
    pub fn tbt_attainment(&self) -> f64 {
        self.tbt.fraction_le(self.slo.tbt.as_secs())
    }

    /// Fraction of TTFT samples within the SLO target.
    pub fn ttft_attainment(&self) -> f64 {
        self.ttft.fraction_le(self.slo.ttft.as_secs())
    }

    /// True when the 99th-percentile TBT meets the target (the paper's
    /// SLO-guarantee criterion).
    pub fn meets_tbt_slo(&self) -> bool {
        self.tbt.p99() <= self.slo.tbt.as_secs() * 1.0001
    }

    /// Output-token throughput over the makespan (tokens/second).
    pub fn token_throughput(&self) -> f64 {
        let secs = self.makespan.as_secs();
        if secs <= 0.0 {
            0.0
        } else {
            self.total_tokens as f64 / secs
        }
    }

    /// One-line human-readable summary.
    pub fn oneline(&self) -> String {
        let mut line = format!(
            "p99TTFT={:.3}s p99TBT={:.1}ms attain={:.1}% tok/s={:.0} done={}/{} util={:.1}% requeues={} drops={} shed={}",
            self.ttft.p99(),
            self.tbt.p99() * 1e3,
            self.tbt_attainment() * 100.0,
            self.token_throughput(),
            self.finished,
            self.total,
            self.utilization * 100.0,
            self.counters.requeues,
            self.counters.drops,
            self.shed,
        );
        if self.cancelled > 0 {
            line.push_str(&format!(" cancelled={}", self.cancelled));
        }
        if let Some(rec) = self.recovery_secs {
            line.push_str(&format!(" recovery={rec:.2}s"));
        }
        line
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn slo() -> SloSpec {
        SloSpec::llama70b()
    }

    #[test]
    fn ttft_and_tbt_from_emissions() {
        let mut m = MetricsRecorder::new(1);
        let arr = [SimTime::from_secs(1.0)];
        m.emit_tokens(0, SimTime::from_secs(1.5), 1); // TTFT 0.5
        m.emit_tokens(0, SimTime::from_secs(1.58), 1); // TBT 0.08
        m.emit_tokens(0, SimTime::from_secs(1.70), 1); // TBT 0.12
        m.finish(0, SimTime::from_secs(1.70), arr[0]);
        let rep = m.report(&arr, SimDuration::from_secs(1.0), &slo());
        assert!((rep.ttft.mean() - 0.5).abs() < 1e-9);
        assert_eq!(rep.tbt.len(), 2);
        assert!((rep.tbt.max() - 0.12).abs() < 1e-9);
        assert!((rep.tpot.mean() - 0.1).abs() < 1e-9);
        assert!((rep.e2e.mean() - 0.7).abs() < 1e-9);
        assert_eq!(rep.finished, 1);
        assert!(rep.is_stable());
        assert!(!rep.meets_tbt_slo()); // 120 ms > 100 ms target
        assert_eq!(rep.tbt_attainment(), 0.5);
    }

    #[test]
    fn throughput_counts_all_tokens() {
        let mut m = MetricsRecorder::new(2);
        m.emit_tokens(0, SimTime::from_secs(0.1), 1);
        m.emit_tokens(1, SimTime::from_secs(0.2), 1);
        m.emit_tokens(0, SimTime::from_secs(0.3), 1);
        let rep = m.report(
            &[SimTime::ZERO, SimTime::ZERO],
            SimDuration::from_secs(3.0),
            &slo(),
        );
        assert_eq!(rep.total_tokens, 3);
        assert!((rep.token_throughput() - 1.0).abs() < 1e-9);
    }

    #[test]
    fn unfinished_requests_break_stability() {
        let m = MetricsRecorder::new(2);
        let rep = m.report(
            &[SimTime::ZERO, SimTime::ZERO],
            SimDuration::from_secs(1.0),
            &slo(),
        );
        assert_eq!(rep.finished, 0);
        assert!(!rep.is_stable());
        assert_eq!(rep.completion_rate(), 0.0);
    }

    #[test]
    fn ttft_per_token_normalizes_by_input() {
        let mut m = MetricsRecorder::new(1);
        m.emit_tokens(0, SimTime::from_secs(2.0), 1);
        let rep = m.report_with_inputs(
            &[SimTime::ZERO],
            &[1000],
            SimDuration::from_secs(2.0),
            &slo(),
        );
        let per = rep.ttft_per_token.clone();
        assert!((per.p50() - 0.002).abs() < 1e-9);
    }

    #[test]
    fn shed_requests_do_not_break_stability() {
        let mut m = MetricsRecorder::new(2);
        m.emit_tokens(0, SimTime::from_secs(0.5), 1);
        m.finish(0, SimTime::from_secs(0.5), SimTime::ZERO);
        m.mark_shed(1);
        assert!(m.is_shed(1) && !m.is_shed(0));
        let rep = m.report(
            &[SimTime::ZERO, SimTime::ZERO],
            SimDuration::from_secs(1.0),
            &slo(),
        );
        assert_eq!(rep.shed, 1);
        // Raw completion is 50 %, but every *served* request finished.
        assert!(rep.completion_rate() < 0.99);
        assert_eq!(rep.served_completion_rate(), 1.0);
        assert!(rep.is_stable(), "intentional shedding is not instability");
        assert!(rep.oneline().contains("shed=1"));
    }

    #[test]
    fn tbt_violations_are_tracked_when_enabled() {
        let mut m = MetricsRecorder::new(1);
        m.track_tbt_threshold(0.1);
        m.emit_tokens(0, SimTime::from_secs(1.0), 1);
        m.emit_tokens(0, SimTime::from_secs(1.05), 1); // within SLO
        assert_eq!(m.last_tbt_violation(), None);
        m.emit_tokens(0, SimTime::from_secs(1.5), 1); // 450 ms gap
        assert_eq!(m.last_tbt_violation(), Some(SimTime::from_secs(1.5)));
    }

    #[test]
    fn cancelled_requests_form_their_own_class() {
        let mut m = MetricsRecorder::new(3);
        // Request 0 finishes normally.
        m.emit_tokens(0, SimTime::from_secs(0.5), 2);
        m.finish(0, SimTime::from_secs(0.5), SimTime::ZERO);
        // Request 1 is a hedge loser: cancelled mid-run, then its
        // in-flight work drains to a (discarded) completion.
        m.emit_tokens(1, SimTime::from_secs(9.0), 5);
        m.mark_cancelled(1);
        m.finish(1, SimTime::from_secs(9.5), SimTime::ZERO);
        // Request 2 is shed.
        m.mark_shed(2);
        assert!(m.is_cancelled(1) && !m.is_cancelled(0));
        let rep = m.report(&[SimTime::ZERO; 3], SimDuration::from_secs(10.0), &slo());
        assert_eq!((rep.finished, rep.shed, rep.cancelled), (1, 1, 1));
        assert_eq!(rep.finished + rep.shed + rep.cancelled, rep.total);
        // The loser's tokens are wasted compute, not served output, and
        // its (terrible) latency never reaches the summaries.
        assert_eq!(rep.total_tokens, 2);
        assert_eq!(rep.cancelled_tokens, 5);
        assert_eq!(rep.ttft.len(), 1);
        assert!(rep.ttft.max() < 1.0);
        assert_eq!(rep.served_completion_rate(), 1.0);
        assert!(rep.oneline().contains("cancelled=1"));
    }

    #[test]
    fn finished_latency_totals_accumulate_in_finish_order() {
        let mut m = MetricsRecorder::new(3);
        m.emit_tokens(0, SimTime::from_secs(0.4), 1);
        m.emit_tokens(0, SimTime::from_secs(0.6), 1); // TBT 0.2
        m.finish(0, SimTime::from_secs(0.6), SimTime::ZERO);
        let (n, ttft, tbt_n, tbt) = m.finished_latency();
        assert_eq!((n, tbt_n), (1, 1));
        assert!((ttft - 0.4).abs() < 1e-9 && (tbt - 0.2).abs() < 1e-9);
        // A cancelled loser's completion must not move the totals.
        m.emit_tokens(1, SimTime::from_secs(5.0), 1);
        m.mark_cancelled(1);
        m.finish(1, SimTime::from_secs(5.0), SimTime::ZERO);
        assert_eq!(m.finished_latency(), (n, ttft, tbt_n, tbt));
        // A second real finish folds in.
        m.emit_tokens(2, SimTime::from_secs(1.0), 1);
        m.finish(2, SimTime::from_secs(1.0), SimTime::from_secs(0.5));
        let (n2, ttft2, _, _) = m.finished_latency();
        assert_eq!(n2, 2);
        assert!((ttft2 - (ttft + 0.5)).abs() < 1e-9);
    }

    #[test]
    fn batch_emission_counts() {
        let mut m = MetricsRecorder::new(1);
        m.emit_tokens(0, SimTime::from_secs(0.5), 3);
        assert_eq!(m.tokens_emitted(0), 3);
        assert_eq!(m.total_tokens(), 3);
    }
}
