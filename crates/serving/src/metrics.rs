//! Latency metrics and end-of-run reports.

use std::collections::BTreeMap;

use simcore::stats::Summary;
use simcore::{SimDuration, SimTime};

use crate::lifecycle::EngineCounters;
use crate::request::{ReqId, ReqRuntime, SloSpec};

/// Records token-emission timestamps per request during a run.
#[derive(Debug)]
pub struct MetricsRecorder {
    pub(crate) runtimes: Vec<ReqRuntime>,
    /// Every request's inter-token gaps, each written once.
    gaps: GapLog,
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

/// Inter-token gaps a request of `tokens` output tokens records: one
/// per token after its first.
fn gap_count(tokens: u64) -> usize {
    tokens.saturating_sub(1) as usize
}

impl MetricsRecorder {
    /// Creates a recorder for `n` requests whose output lengths are not
    /// known: it reserves no gap space up front, and each request's
    /// region moves to fresh space whenever it fills.
    pub fn new(n: usize) -> MetricsRecorder {
        MetricsRecorder::with_output_tokens(std::iter::repeat_n(0, n))
    }

    /// Creates a recorder for requests of the given output lengths, in
    /// request order. Each request gets a region of `output_tokens − 1`
    /// gap slots, back to back in one buffer that is allocated at the
    /// first recorded gap and moved whole into [`Report::tbt`].
    pub fn with_output_tokens(
        lens: impl IntoIterator<Item = u64, IntoIter: Clone>,
    ) -> MetricsRecorder {
        let lens = lens.into_iter();
        let mut gaps = GapLog::new(lens.clone().map(gap_count).sum());
        let runtimes: Vec<ReqRuntime> = lens
            .map(|t| ReqRuntime::new(gaps.reserve(gap_count(t))))
            .collect();
        let n = runtimes.len();
        MetricsRecorder {
            runtimes,
            gaps,
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

    /// Grows the recorder by one request of `output_tokens` (dynamic
    /// admission into a steppable [`crate::Instance`]). The new slot
    /// starts untouched — identical to having been sized for it at
    /// construction.
    pub(crate) fn push_request(&mut self, output_tokens: u64) {
        let gaps = self.gaps.reserve(gap_count(output_tokens));
        self.runtimes.push(ReqRuntime::new(gaps));
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
    // simlint: hot
    pub fn emit_tokens(&mut self, req: ReqId, now: SimTime, count: u64) {
        if count == 0 {
            return;
        }
        if self.runtimes[req].tokens_emitted == 0 {
            self.leave_prefill_backlog(req);
        }
        self.total_tokens += count;
        let r = &mut self.runtimes[req];
        // Every token after a request's first records one gap. Tokens
        // emitted at one instant (e.g. a final flush) record the real
        // gap since the previous token for the first of them, when
        // there was one, and a zero gap for each further one.
        let lead = match r.last_token_at {
            None => {
                r.first_token_at = Some(now);
                None
            }
            Some(prev) => Some(now - prev),
        };
        let recorded = gap_count(r.tokens_emitted);
        r.last_token_at = Some(now);
        r.tokens_emitted += count;
        let fresh = gap_count(r.tokens_emitted) - recorded;
        if fresh == 0 {
            return;
        }
        if let (Some(gap), Some(th)) = (lead, self.tbt_threshold) {
            if gap.as_secs() > th {
                self.last_tbt_violation_at = Some(now);
            }
        }
        self.gaps.record(
            &mut r.gaps,
            recorded,
            fresh,
            lead.map(SimDuration::as_nanos),
        );
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
        let n = gap_count(r.tokens_emitted);
        self.fin_tbt_count += n as u64;
        self.fin_tbt_sum += self.gaps.recorded(r.gaps, n).sum::<f64>();
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
    /// time; `makespan` the simulated span used for throughput. The
    /// recorded gaps move into [`Report::tbt`] in request order, without
    /// a copy when they still sit in one buffer in that order.
    /// [`Report::ttft_per_token`] stays empty: it needs the input lengths
    /// [`MetricsRecorder::report_with_inputs`] takes.
    pub fn report(self, arrivals: &[SimTime], makespan: SimDuration, slo: &SloSpec) -> Report {
        self.build_report(arrivals, None, makespan, slo)
    }

    /// Like [`MetricsRecorder::report`] but also fills the
    /// TTFT-per-input-token distribution used by the preemption study
    /// (Fig. 20).
    pub fn report_with_inputs(
        self,
        arrivals: &[SimTime],
        input_tokens: &[u64],
        makespan: SimDuration,
        slo: &SloSpec,
    ) -> Report {
        self.build_report(arrivals, Some(input_tokens), makespan, slo)
    }

    fn build_report(
        self,
        arrivals: &[SimTime],
        input_tokens: Option<&[u64]>,
        makespan: SimDuration,
        slo: &SloSpec,
    ) -> Report {
        assert_eq!(arrivals.len(), self.runtimes.len());
        let mut ttft = Summary::new();
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
                if let Some(inputs) = input_tokens {
                    ttft_per_token.record(t / inputs[i].max(1) as f64);
                }
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
        // Cancelled hedge losers' gaps stay out, like their other
        // latencies.
        let kept = self
            .runtimes
            .iter()
            .zip(&self.cancelled)
            .map(|(r, &c)| (r.gaps, if c { 0 } else { gap_count(r.tokens_emitted) }));
        let tbt = self.gaps.into_summary(kept);
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
}

/// Slots in a segment opened for requests admitted one at a time, whose
/// total is not known up front: 64 KiB of 32-bit gaps. This measured
/// lowest in both benchmark fleets' peak memory against 1,024 and 4,096
/// slots (EXPERIMENTS.md).
const SEGMENT_GAPS: usize = 16_384;

/// A slot's 32-bit value when its gap is `LONG_GAP` nanoseconds (4.29 s)
/// or longer: the gap itself sits in [`GapLog::long`].
const LONG_GAP: u32 = u32::MAX;

/// A recorded gap's nanoseconds as seconds, exactly as
/// [`SimDuration::as_secs`] gives them.
fn secs(nanos: u64) -> f64 {
    SimDuration::from_nanos(nanos).as_secs()
}

/// The gap in `slot` of segment `seg`, whose storage is `data`, in
/// nanoseconds; `long` is the [`GapLog`]'s table of long gaps.
fn nanos(data: &[u32], long: &BTreeMap<(usize, usize), u64>, seg: usize, slot: usize) -> u64 {
    match data[slot] {
        LONG_GAP => long[&(seg, slot)],
        short => u64::from(short),
    }
}

/// Where one request's inter-token gaps live: `cap` slots from `start`
/// in segment `seg` of its recorder's [`GapLog`].
#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct Region {
    seg: usize,
    start: usize,
    cap: usize,
}

/// Every request's inter-token gaps, each written once into its
/// request's region (DESIGN.md §12, "TBT recording").
///
/// Regions sit in segments of fixed length. A segment's storage is
/// allocated at the first gap written into it and never reallocates
/// during the run, so no stale copy of a gap is left behind. A recorder
/// built over a whole trace has one segment holding every region back
/// to back in request order; requests admitted one at a time fill
/// segments of [`SEGMENT_GAPS`] slots, or one of their own when longer.
/// A region that fills moves to fresh space.
///
/// A slot holds its gap's integer nanoseconds in 32 bits, and the
/// report keeps them so: [`Summary::from_nanos`] reads each as
/// [`SimDuration::as_secs`] gives it. The report takes the one segment
/// of a recorder built over a whole trace as it is, compacted in place;
/// a report spanning several segments gathers their gaps into a vector
/// of its own.
#[derive(Debug)]
struct GapLog {
    segs: Vec<Segment>,
    /// Whether some region moved; regions are then no longer in
    /// request order.
    moved: bool,
    /// Gaps of `LONG_GAP` nanoseconds or more, by `(segment, slot)`.
    /// Only crashes and stalls make them, so they cost a map entry each.
    long: BTreeMap<(usize, usize), u64>,
}

#[derive(Debug)]
struct Segment {
    /// Slots in the segment, fixed when it opens.
    len: usize,
    /// Slots handed to regions so far.
    used: usize,
    /// One gap per slot from the first gap written here on, filled out
    /// as far as gaps reach; unallocated before.
    data: Vec<u32>,
}

impl Segment {
    fn new(len: usize) -> Segment {
        Segment {
            len,
            used: 0,
            data: Vec::new(),
        }
    }
}

impl GapLog {
    /// A log whose first segment holds exactly `total` slots.
    fn new(total: usize) -> GapLog {
        GapLog {
            segs: if total > 0 {
                vec![Segment::new(total)]
            } else {
                Vec::new()
            },
            moved: false,
            long: BTreeMap::new(),
        }
    }

    /// Reserves `cap` slots for the next region: the tail of the last
    /// segment when it has room, else a fresh segment.
    fn reserve(&mut self, cap: usize) -> Region {
        if cap == 0 {
            return Region::default();
        }
        if self.segs.last().is_none_or(|s| s.len - s.used < cap) {
            self.segs.push(Segment::new(cap.max(SEGMENT_GAPS)));
        }
        let seg = self.segs.len() - 1;
        let s = &mut self.segs[seg];
        let start = s.used;
        s.used += cap;
        Region { seg, start, cap }
    }

    /// Writes gaps `k..k + n` of `region`, whose first `k` slots hold
    /// its gaps so far: `lead` nanoseconds first when given, then zeros.
    fn record(&mut self, region: &mut Region, k: usize, n: usize, lead: Option<u64>) {
        if k + n > region.cap || region.start + k + n > self.segs[region.seg].data.len() {
            self.make_room(region, k, n);
        }
        let at = region.start + k;
        let zeros = match lead {
            Some(nanos) => {
                self.put(region.seg, at, nanos);
                at + 1
            }
            None => at,
        };
        self.segs[region.seg].data[zeros..at + n].fill(0);
    }

    /// Writes a gap of `nanos` into `slot` of segment `seg`.
    fn put(&mut self, seg: usize, slot: usize, nanos: u64) {
        match u32::try_from(nanos) {
            Ok(short) if short != LONG_GAP => self.segs[seg].data[slot] = short,
            _ => self.put_long(seg, slot, nanos),
        }
    }

    #[cold]
    fn put_long(&mut self, seg: usize, slot: usize, nanos: u64) {
        self.long.insert((seg, slot), nanos);
        self.segs[seg].data[slot] = LONG_GAP;
    }

    /// Gives `region` room for `k + n` gaps, keeping its first `k`: a
    /// full region moves to fresh space of at least twice its size, and
    /// the segment is filled out far enough to hold them.
    #[cold]
    fn make_room(&mut self, region: &mut Region, k: usize, n: usize) {
        if k + n > region.cap {
            let to = self.reserve((k + n).max(2 * region.cap));
            self.fill_to(to.seg, to.start + k + n);
            // Fresh space never overlaps the region it replaces.
            for i in 0..k {
                let from = (region.seg, region.start + i);
                let nanos = nanos(&self.segs[from.0].data, &self.long, from.0, from.1);
                self.long.remove(&from);
                self.put(to.seg, to.start + i, nanos);
            }
            *region = to;
            self.moved = true;
        }
        self.fill_to(region.seg, region.start + k + n);
    }

    /// Makes the first `end` slots of segment `seg` writable. Its
    /// storage is allocated whole at the first gap written there, and
    /// zero-filled only as far as gaps reach, a page ahead at a time, so
    /// slots no gap reaches are never touched and the storage never
    /// reallocates.
    fn fill_to(&mut self, seg: usize, end: usize) {
        const PAGE_SLOTS: usize = 1024;
        let s = &mut self.segs[seg];
        if s.data.capacity() == 0 {
            s.data = Vec::with_capacity(s.len);
        }
        if s.data.len() < end {
            let to = end.max(s.data.len() + PAGE_SLOTS).min(s.len);
            s.data.resize(to, 0);
        }
    }

    /// The first `n` gaps of `region`, in seconds.
    fn recorded(&self, region: Region, n: usize) -> impl Iterator<Item = f64> + '_ {
        // A region with no gaps may name a segment never opened.
        let data = self.segs.get(region.seg).map_or(&[][..], |s| &s.data);
        (region.start..region.start + n)
            .map(move |slot| secs(nanos(data, &self.long, region.seg, slot)))
    }

    /// A summary of the first `n` gaps of each `(region, n)`, in the
    /// order given. It keeps them as 32-bit nanoseconds unless one is a
    /// long gap; then it holds them all as seconds. Regions still back
    /// to back in request order in one segment are compacted in place,
    /// and that segment becomes the summary's store; any other layout
    /// is gathered into a vector of exactly the samples' size.
    fn into_summary(mut self, regions: impl Iterator<Item = (Region, usize)> + Clone) -> Summary {
        let total = regions.clone().map(|(_, n)| n).sum();
        let keeps_long = !self.long.is_empty()
            && regions.clone().any(|(r, n)| {
                self.long
                    .range((r.seg, r.start)..(r.seg, r.start + n))
                    .next()
                    .is_some()
            });
        if keeps_long {
            let mut out = Vec::with_capacity(total);
            for (r, n) in regions {
                out.extend(self.recorded(r, n));
            }
            return Summary::from(out);
        }
        if self.segs.len() != 1 || self.moved {
            let mut out = Vec::with_capacity(total);
            for (r, n) in regions.filter(|&(_, n)| n > 0) {
                out.extend_from_slice(&self.segs[r.seg].data[r.start..r.start + n]);
            }
            return Summary::from_nanos(out);
        }
        let mut data = std::mem::take(&mut self.segs[0].data);
        let mut len = 0;
        for (r, n) in regions {
            if n > 0 && r.start != len {
                data.copy_within(r.start..r.start + n, len);
            }
            len += n;
        }
        data.truncate(len);
        data.shrink_to_fit();
        Summary::from_nanos(data)
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
    use proptest::prelude::*;

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
    fn report_keeps_no_per_token_ttft() {
        let mut m = MetricsRecorder::new(2);
        m.emit_tokens(0, SimTime::from_secs(0.4), 1);
        m.emit_tokens(1, SimTime::from_secs(0.6), 1);
        let rep = m.report(&[SimTime::ZERO; 2], SimDuration::from_secs(1.0), &slo());
        assert_eq!(rep.ttft.len(), 2);
        assert!(rep.ttft_per_token.is_empty(), "{:?}", rep.ttft_per_token);
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

    #[test]
    fn a_flush_records_its_real_gap_then_zeros() {
        for mut m in [
            MetricsRecorder::new(1),
            MetricsRecorder::with_output_tokens([4]),
        ] {
            m.emit_tokens(0, SimTime::from_secs(1.0), 1);
            m.emit_tokens(0, SimTime::from_secs(1.25), 3);
            assert_eq!(m.tokens_emitted(0), 4);
            let rep = m.report(&[SimTime::ZERO], SimDuration::from_secs(2.0), &slo());
            // Four tokens, three gaps: the real one, then one zero per
            // further token of the flush.
            assert_eq!(*rep.tbt.samples(), [0.25, 0.0, 0.0]);
        }
    }

    #[test]
    fn a_trace_sized_recorder_writes_each_gap_in_place() {
        let mut m = MetricsRecorder::with_output_tokens([3, 1, 0, 4]);
        for (req, at) in [(3, 1.0), (0, 1.0), (1, 1.5), (3, 1.5), (0, 2.0)] {
            m.emit_tokens(req, SimTime::from_secs(at), 1);
        }
        m.emit_tokens(3, SimTime::from_secs(2.5), 2);
        m.emit_tokens(0, SimTime::from_secs(2.5), 1);
        assert_eq!(m.gaps.segs.len(), 1, "one buffer for the whole trace");
        assert_eq!(m.gaps.segs[0].len, 2 + 3);
        assert!(!m.gaps.moved, "no region outgrew its output length");
        let rep = m.report(&[SimTime::ZERO; 4], SimDuration::from_secs(3.0), &slo());
        assert_eq!(*rep.tbt.samples(), [1.0, 0.5, 0.5, 1.0, 0.0]);
    }

    #[test]
    fn admissions_fill_fixed_segments_and_report_in_request_order() {
        let mut m = MetricsRecorder::with_output_tokens([]);
        let half = SEGMENT_GAPS as u64 / 2;
        let lens = [half + 1, half + 2, 3];
        for len in lens {
            m.push_request(len);
        }
        // The second region does not fit beside the first; the third
        // fits beside the second.
        assert_eq!(m.gaps.segs.len(), 2);
        for req in [2, 1, 0] {
            m.emit_tokens(req, SimTime::from_secs(1.0), 1);
            m.emit_tokens(req, SimTime::from_secs(1.0 + req as f64), 2);
        }
        let rep = m.report(&[SimTime::ZERO; 3], SimDuration::from_secs(4.0), &slo());
        assert_eq!(*rep.tbt.samples(), [0.0, 0.0, 1.0, 0.0, 2.0, 0.0]);
    }

    #[test]
    fn gaps_past_32_bits_are_recorded_exactly() {
        const LONGEST_SHORT: u64 = (1 << 32) - 2;
        let start = SimTime::from_secs(1.0);
        // Request 0: every gap at or just around the 32-bit limit, then
        // a 5 s stall. Request 1: a long gap, cancelled, so it never
        // reaches the report but sits between the regions it keeps.
        // Request 2: a 5 s gap followed by a 3-token flush.
        let plan: [&[(u64, u64)]; 3] = [
            &[
                (LONGEST_SHORT, 1),
                ((1 << 32) - 1, 1),
                (1 << 32, 1),
                (5_000_000_000, 1),
                (1, 1),
            ],
            &[(1 << 33, 1)],
            &[(5_000_000_000, 1), (7, 3)],
        ];
        for sized in [false, true] {
            let mut m = if sized {
                MetricsRecorder::with_output_tokens([6, 2, 5])
            } else {
                MetricsRecorder::new(3)
            };
            let mut kept: Vec<f64> = Vec::new();
            let mut tbt_sum = 0.0;
            for (req, steps) in plan.iter().enumerate() {
                m.emit_tokens(req, start, 1);
                let mut prev = start;
                let mut gaps = Vec::new();
                for &(ns, count) in *steps {
                    let now = prev + SimDuration::from_nanos(ns);
                    m.emit_tokens(req, now, count);
                    gaps.push((now - prev).as_secs());
                    gaps.extend(std::iter::repeat_n(0.0, count as usize - 1));
                    prev = now;
                }
                if req == 1 {
                    m.mark_cancelled(req);
                } else {
                    m.finish(req, prev, SimTime::ZERO);
                    tbt_sum += gaps.iter().sum::<f64>();
                    kept.extend(gaps);
                }
            }
            assert_eq!(
                latency_bits(m.finished_latency()),
                latency_bits((2, 2.0, kept.len() as u64, tbt_sum)),
                "sized {sized}"
            );
            let rep = m.report(&[SimTime::ZERO; 3], SimDuration::from_secs(30.0), &slo());
            assert_eq!(bits(&rep.tbt.samples()), bits(&kept), "sized {sized}");
        }
    }

    /// The per-request `Vec<f64>` recording that [`GapLog`] replaced,
    /// kept as the reference its samples and totals must equal.
    #[derive(Debug, Default)]
    struct Reference {
        first: Vec<Option<SimTime>>,
        last: Vec<Option<SimTime>>,
        gaps: Vec<Vec<f64>>,
        cancelled: Vec<bool>,
        finished: (u64, f64, u64, f64),
        violation: Option<SimTime>,
    }

    impl Reference {
        fn push(&mut self) {
            self.first.push(None);
            self.last.push(None);
            self.gaps.push(Vec::new());
            self.cancelled.push(false);
        }

        fn emit(&mut self, req: ReqId, now: SimTime, count: u64, threshold: f64) {
            for _ in 0..count {
                match self.last[req] {
                    None => self.first[req] = Some(now),
                    Some(prev) => {
                        let gap = (now - prev).as_secs();
                        if gap > threshold {
                            self.violation = Some(now);
                        }
                        self.gaps[req].push(gap);
                    }
                }
                self.last[req] = Some(now);
            }
        }

        fn finish(&mut self, req: ReqId) {
            if self.cancelled[req] {
                return;
            }
            let f = &mut self.finished;
            f.0 += 1;
            if let Some(first) = self.first[req] {
                f.1 += (first - SimTime::ZERO).as_secs();
            }
            f.2 += self.gaps[req].len() as u64;
            f.3 += self.gaps[req].iter().sum::<f64>();
        }

        fn samples(&self) -> Vec<f64> {
            self.gaps
                .iter()
                .zip(&self.cancelled)
                .filter(|(_, &c)| !c)
                .flat_map(|(g, _)| g.iter().copied())
                .collect()
        }
    }

    fn bits(v: &[f64]) -> Vec<u64> {
        v.iter().map(|x| x.to_bits()).collect()
    }

    fn latency_bits((n, ttft, tbt_n, tbt): (u64, f64, u64, f64)) -> (u64, u64, u64, u64) {
        (n, ttft.to_bits(), tbt_n, tbt.to_bits())
    }

    #[derive(Debug, Clone)]
    enum Op {
        Emit { req: usize, dt_ns: u64, count: u64 },
        Finish(usize),
        Shed(usize),
        Cancel(usize),
        Admit(u64),
    }

    /// Mostly single-token emissions; a fifth of them flush up to 39
    /// tokens, and a quarter land at the previous instant. One in
    /// sixteen comes 1 to 7 s late, and one in thirty-two within a
    /// nanosecond of 2³² ns, where gaps stop fitting in 32 bits.
    fn op() -> impl Strategy<Value = Op> {
        (
            0u8..12,
            any::<usize>(),
            0u64..200_000,
            0u64..12_000,
            0u64..6_000_000_000,
        )
            .prop_map(|(kind, req, x, y, z)| match kind {
                0..=7 => Op::Emit {
                    req,
                    dt_ns: match x % 32 {
                        1 => (1 << 32) - 1 + y % 3,
                        2 | 3 => 1_000_000_000 + z,
                        _ if x % 4 == 0 => 0,
                        _ => x * 1_000,
                    },
                    count: if y % 5 == 0 { y % 40 } else { 1 },
                },
                8 => Op::Finish(req),
                9 => Op::Shed(req),
                10 => Op::Cancel(req),
                _ => Op::Admit(y),
            })
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// Random interleavings of emissions (multi-token flushes
        /// included), finishes, sheds, cancels and admissions that
        /// cross segments, on recorders built with and without output
        /// lengths: the report's TBT samples and the finished-latency
        /// totals equal the per-request reference bit for bit.
        #[test]
        fn gap_log_matches_per_request_vectors(
            lens in prop::collection::vec(0u64..600, 0..8),
            sized in any::<bool>(),
            within_lengths in any::<bool>(),
            ops in prop::collection::vec(op(), 0..200),
        ) {
            const THRESHOLD: f64 = 0.1;
            let mut m = if sized {
                MetricsRecorder::with_output_tokens(lens.iter().copied())
            } else {
                MetricsRecorder::new(lens.len())
            };
            m.track_tbt_threshold(THRESHOLD);
            let mut lens = if sized { lens } else { vec![u64::MAX; lens.len()] };
            let mut reference = Reference::default();
            lens.iter().for_each(|_| reference.push());
            let mut now = SimTime::ZERO;
            for op in ops {
                let n = lens.len();
                match op {
                    Op::Admit(len) => {
                        m.push_request(len);
                        lens.push(len);
                        reference.push();
                    }
                    _ if n == 0 => {}
                    Op::Emit { req, dt_ns, count } => {
                        let req = req % n;
                        let left = lens[req].saturating_sub(m.tokens_emitted(req));
                        let count = if within_lengths { count.min(left) } else { count };
                        now += SimDuration::from_nanos(dt_ns);
                        m.emit_tokens(req, now, count);
                        reference.emit(req, now, count, THRESHOLD);
                    }
                    Op::Finish(req) => {
                        m.finish(req % n, now, SimTime::ZERO);
                        reference.finish(req % n);
                        prop_assert_eq!(
                            latency_bits(m.finished_latency()),
                            latency_bits(reference.finished)
                        );
                    }
                    Op::Shed(req) => m.mark_shed(req % n),
                    Op::Cancel(req) => {
                        m.mark_cancelled(req % n);
                        reference.cancelled[req % n] = true;
                    }
                }
            }
            prop_assert_eq!(m.last_tbt_violation(), reference.violation);
            let n = lens.len();
            let rep = m.report(&vec![SimTime::ZERO; n], SimDuration::from_secs(1.0), &slo());
            prop_assert_eq!(bits(&rep.tbt.samples()), bits(&reference.samples()));
        }
    }
}
