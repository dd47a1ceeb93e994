//! The MuxWise scheduler: bubble-less multiplex engine + SLO-aware
//! dispatcher.

use std::collections::{HashMap, VecDeque};

use estimator::GuardQuery;
use gpusim::{CtxId, GroupId};
use kvcache::{Block, KvPool};
use modelspec::{ModelSpec, Parallelism, SeqState};
use serving::lease::{KvLease, LeaseTable};
use serving::lifecycle::{EngineCounters, Lifecycle};
use serving::{
    computed_in_batch, kv_pool_capacity_tokens, CrashVictim, DecodeBatch, DecodeSlot, FaultKind,
    RecoveryClass, ReqId, Scheduler, ServeCtx, SloSpec,
};
use simcore::{SimDuration, SimTime};

use crate::config::{Estimators, MuxWiseConfig, Preemption};

/// What a kernel-completion tag refers to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Tag {
    /// One prefill layer (or whole-phase launch) of prefill job `gen`.
    PrefillLayer { gen: u64 },
}

/// Reserved tag for decode-iteration kernels. Exactly one decode kernel
/// is ever in flight, so its completion is recognized by value instead
/// of a per-iteration `tags` map insert/remove. `next_tag` counts up
/// from 1 and can never collide.
const DECODE_TAG: u64 = u64::MAX;

/// One request being prefilled.
#[derive(Debug)]
struct PrefillReq {
    id: ReqId,
    seq: SeqState,
    lease: KvLease,
}

/// A batched prefill phase in flight.
#[derive(Debug)]
struct PrefillJob {
    gen: u64,
    reqs: Vec<PrefillReq>,
    /// Cached `Σ new_tokens` / `Σ reused_tokens` over `reqs` (fixed at
    /// admission), so guard queries need no per-request fold.
    new_sum: u64,
    reused_sum: u64,
    layers_done: u32,
    layers_inflight: u32,
    /// First and last arrival among `reqs`: the phase's length-scaled
    /// deadline runs from the first, and every request misses TTFT once
    /// the last one does.
    earliest_arrival: SimTime,
    latest_arrival: SimTime,
    /// Solo estimate of the full phase at admission (for preemption
    /// deadline checks).
    est_full: f64,
    /// This job preempted another; it may not itself be preempted
    /// (non-recursive preemption, §3.4.2).
    is_preemptor: bool,
}

/// Information about the decode iteration in flight (for guard
/// refinement).
#[derive(Debug, Clone, Copy)]
struct DecodeInflight {
    ready_at: SimTime,
    predicted_solo: f64,
    corun: Option<GuardQuery>,
}

/// One candidate partition of the macro-step dispatcher's cached
/// best-fit scan: the resolved Eq. 2 plane set plus the guard factor
/// for the current (context-bucket, batch) grid cell.
#[derive(Debug)]
struct MacroCand {
    sms: u32,
    planes: Vec<Vec<f64>>,
    factor: f64,
}

/// The MuxWise serving engine. See the [crate docs](crate) and
/// [`MuxWiseConfig`] for the design.
#[derive(Debug)]
pub struct MuxWise {
    model: ModelSpec,
    par: Parallelism,
    slo: SloSpec,
    cfg: MuxWiseConfig,
    est: Estimators,
    partition_configs: Vec<u32>,
    sm_count: u32,
    pool_capacity: u64,

    group: Option<GroupId>,
    decode_ctx: Option<CtxId>,
    prefill_ctx: Option<CtxId>,
    /// SMs each green context holds now. They add up to `sm_count`
    /// except while one side waits at its boundary to grow into SMs the
    /// other has just released.
    decode_sms: u32,
    prefill_sms: u32,

    table: Option<LeaseTable>,
    lifecycle: Lifecycle,
    waiting: VecDeque<ReqId>,
    prefill: Option<PrefillJob>,
    preempted: Option<PrefillJob>,
    decode: DecodeBatch,
    pending_join: Vec<DecodeSlot>,
    decode_inflight: Option<DecodeInflight>,
    /// Set when query-sync is disabled and decode must wait for the
    /// active prefill phase to finish.
    decode_blocked: bool,
    /// A fault window is open: the offline profile is stale, so the
    /// dispatcher pins the most conservative decode partition until the
    /// hardware recovers.
    fault_mode: bool,
    /// A GPU of the (single, all-spanning) group fail-stopped; all
    /// launches halt until the driver signals recovery.
    down: bool,
    /// Layer checkpoints of crash-revoked prefill victims: MuxWise's
    /// layer-wise prefill lets a victim restart from its last completed
    /// layer instead of layer zero.
    resume_layers: HashMap<ReqId, u32>,

    host_busy_until: SimTime,
    next_tag: u64,
    next_gen: u64,
    tags: HashMap<u64, Tag>,

    /// Reused per-iteration scratch (hot-loop allocation freedom): the
    /// decode context slice handed to the cost model, eviction victims,
    /// and retired slots.
    ctx_scratch: Vec<u64>,
    victim_scratch: Vec<ReqId>,
    retired_scratch: Vec<DecodeSlot>,

    /// Macro-step (coalesced decode) state: armed when the previous
    /// launch proved the engine quiescent — no prefill anywhere, nothing
    /// waiting or joining — so the next launch may skip the full prelude
    /// after cheap invariant re-checks. Every other entry point clears
    /// the flag.
    macro_armed: bool,
    /// Cached candidate partitions for the fast best-fit scan.
    macro_cands: Vec<MacroCand>,
    /// `(context bucket, batch size)` the cached guard factors were
    /// computed at; a mismatch forces a refresh.
    macro_key: (u8, usize),
    /// Cached TBT budget of the quiescent regime, computed with the same
    /// float ops as `desired_decode_sms`.
    macro_budget: f64,
    /// The factor/budget caches are current (cleared on fault
    /// transitions and online guard refinements).
    macro_valid: bool,
    /// Decode iterations launched in total / via the macro fast path.
    decode_iters: u64,
    coalesced_iters: u64,

    /// `(time, decode SMs)` at every partition change (Fig. 18).
    partition_log: Vec<(SimTime, u32)>,
    peak_decode_batch: usize,
}

impl MuxWise {
    /// Creates a MuxWise engine for `model` on the cluster whose GPU spec
    /// the driver's simulator uses. `tp` is the tensor-parallel degree
    /// (8 in all the paper's MuxWise configurations).
    ///
    /// # Panics
    ///
    /// Panics if the model cannot fit (zero pool capacity).
    pub fn new(
        model: &ModelSpec,
        cluster: &gpusim::ClusterSpec,
        tp: u32,
        slo: SloSpec,
        est: Estimators,
        cfg: MuxWiseConfig,
    ) -> MuxWise {
        let partition_configs = cluster.gpu.partition_configs();
        let graph_mib = cluster
            .gpu
            .graph_memory_overhead_mib(partition_configs.len(), 20);
        let pool_capacity =
            kv_pool_capacity_tokens(cluster, model, cluster.num_gpus, tp, graph_mib);
        assert!(pool_capacity > 0, "model does not fit on this cluster");
        MuxWise {
            model: model.clone(),
            par: Parallelism::tp(tp, cluster.nvlink_gbs),
            slo,
            cfg,
            est,
            sm_count: cluster.gpu.sm_count,
            partition_configs,
            pool_capacity,
            group: None,
            decode_ctx: None,
            prefill_ctx: None,
            decode_sms: 0,
            prefill_sms: 0,
            table: None,
            lifecycle: Lifecycle::default(),
            waiting: VecDeque::new(),
            prefill: None,
            preempted: None,
            decode: DecodeBatch::new(),
            pending_join: Vec::new(),
            decode_inflight: None,
            decode_blocked: false,
            fault_mode: false,
            down: false,
            resume_layers: HashMap::new(),
            host_busy_until: SimTime::ZERO,
            next_tag: 1,
            next_gen: 1,
            tags: HashMap::new(),
            ctx_scratch: Vec::new(),
            victim_scratch: Vec::new(),
            retired_scratch: Vec::new(),
            macro_armed: false,
            macro_cands: Vec::new(),
            macro_key: (u8::MAX, 0),
            macro_budget: 0.0,
            macro_valid: false,
            decode_iters: 0,
            coalesced_iters: 0,
            partition_log: Vec::new(),
            peak_decode_batch: 0,
        }
    }

    /// The partition-change log: `(time, SMs reserved for decode)`
    /// (regenerates Fig. 18).
    pub fn partition_log(&self) -> &[(SimTime, u32)] {
        &self.partition_log
    }

    /// Number of prefill preemptions performed.
    pub fn preemptions(&self) -> u64 {
        self.lifecycle.counters().preemptions
    }

    /// KV-cache hit statistics of the shared pool.
    pub fn pool_stats(&self) -> Option<kvcache::PoolStats> {
        self.table.as_ref().map(|t| t.stats())
    }

    /// Read access to the shared pool (for invariant checks in tests).
    pub fn pool(&self) -> Option<&KvPool> {
        self.table.as_ref().map(|t| t.pool())
    }

    /// Requests forcibly requeued because the pool ran dry mid-decode.
    pub fn requeues(&self) -> u64 {
        self.lifecycle.counters().requeues
    }

    /// Largest decode batch observed (telemetry for partition studies).
    pub fn peak_decode_batch(&self) -> usize {
        self.peak_decode_batch
    }

    /// `(total decode iterations, macro-coalesced iterations)`. A
    /// coalesced iteration took the fast launch path; it is bit-identical
    /// to a full launch, so the ratio is pure telemetry.
    pub fn decode_iter_stats(&self) -> (u64, u64) {
        (self.decode_iters, self.coalesced_iters)
    }

    /// Requests dropped because they could never fit the pool.
    pub fn dropped(&self) -> u64 {
        self.lifecycle.counters().drops
    }

    /// Populated contention-guard cells (grows with §3.3.2's online
    /// refinement as co-run iterations are observed).
    pub fn guard_cells(&self) -> usize {
        self.est.guard.num_cells()
    }

    // ---- tag helpers -------------------------------------------------------

    fn alloc_tag(&mut self, tag: Tag) -> u64 {
        let t = self.next_tag;
        self.next_tag += 1;
        self.tags.insert(t, tag);
        t
    }

    /// Serializes host-side launch work; returns the kernel's ready time.
    fn host_submit(&mut self, now: SimTime, cost: SimDuration) -> SimTime {
        let start = now.max(self.host_busy_until);
        self.host_busy_until = start + cost;
        self.host_busy_until
    }

    // ---- dispatcher: partition selection ------------------------------------

    /// Smallest partition whose worst-case decode latency meets the TBT
    /// budget (§3.4.2's best-fit reservation). When no prefill work
    /// exists at all, decode takes the largest partition instead — idle
    /// SMs would otherwise be wasted (the Fig. 18 OpenThoughts regime,
    /// where most SMs serve decode).
    // simlint: hot
    fn desired_decode_sms(&self, ctx: &ServeCtx) -> u32 {
        if self.decode.is_empty() && self.pending_join.is_empty() {
            return self.partition_configs[0];
        }
        if self.fault_mode {
            // Degraded hardware: the predictor's profiled latencies no
            // longer hold, so reserve the largest decode partition and
            // let online refinement re-learn the guard.
            return *self.partition_configs.last().expect("non-empty configs");
        }
        // Eq. 2 and the guard key only read (Σ context, batch); both are
        // exact u64 aggregates, so no per-slot slice is materialized.
        let mut ctx_sum = self.decode.context_sum();
        for s in &self.pending_join {
            ctx_sum += s.context;
        }
        let batch = self.decode.len() + self.pending_join.len();
        let mut budget =
            self.slo.tbt.as_secs() * self.cfg.tbt_margin - ctx.gpu.spec().graph_launch.as_secs();
        if self.prefill.is_none() && self.preempted.is_none() && self.waiting.is_empty() {
            // No prefill work: spend the idle SMs on decode by targeting
            // a much faster iteration than the SLO requires.
            budget *= 0.3;
        }
        for &sms in &self.partition_configs {
            let solo = self.est.predictor.decode_latency_agg(sms, ctx_sum, batch);
            let factor = if self.cfg.contention_guard {
                self.est
                    .guard
                    .factor(&self.guard_query(sms, ctx_sum, batch))
            } else {
                1.0
            };
            if solo * factor <= budget {
                return sms;
            }
        }
        *self.partition_configs.last().expect("non-empty configs")
    }

    // simlint: hot
    fn guard_query(&self, sms: u32, ctx_sum: u64, batch: usize) -> GuardQuery {
        let (p_new, p_reused) = match &self.prefill {
            Some(job) => (job.new_sum, job.reused_sum),
            None => (0, 0),
        };
        let avg_ctx = if batch == 0 {
            0
        } else {
            ctx_sum / batch as u64
        };
        GuardQuery {
            prefill_new: p_new,
            prefill_reused: p_reused,
            decode_batch: batch.max(1),
            decode_context: avg_ctx,
            decode_sms: sms,
        }
    }

    /// Moves the green contexts toward the dispatcher's split one side
    /// at a time. A resize needs an idle stream, so each side changes at
    /// its own boundary: decode between iterations, prefill between
    /// layer groups. Shrinks go first, and a side grows only into SMs
    /// the other no longer holds, so the contexts never oversubscribe.
    /// MPS-style backends, and any backend in fault mode, move both
    /// sides at once, while both are idle.
    fn try_apply_partition(&mut self, ctx: &mut ServeCtx) {
        if !self.cfg.backend.can_reconfigure() && !self.partition_log.is_empty() {
            return; // MIG-style static slicing never adapts.
        }
        let (group, d_ctx, p_ctx) = match (self.group, self.decode_ctx, self.prefill_ctx) {
            (Some(g), Some(d), Some(p)) => (g, d, p),
            _ => return,
        };
        let decode = self.desired_decode_sms(ctx);
        let prefill = self.sm_count - decode;
        if decode == self.decode_sms && prefill == self.prefill_sms {
            return;
        }
        let d_idle = ctx.gpu.is_idle(group, d_ctx);
        let p_idle = ctx.gpu.is_idle(group, p_ctx);
        // Both sides resize together, only while both are idle, where a
        // one-sided change costs more than it buys. MPS-style backends
        // pay a process restart per reconfiguration, stalling all
        // subsequent launches and so both sides anyway. In fault mode
        // the split is a precaution, not a predicted need, and squeezing
        // a running prefill phase for it costs TTFT and throughput.
        let stall = self.cfg.backend.reconfig_stall_secs();
        if (stall > 0.0 || self.fault_mode) && !(d_idle && p_idle) {
            return;
        }
        let old_decode = self.decode_sms;
        if d_idle && decode < self.decode_sms {
            ctx.gpu.resize_context(group, d_ctx, decode);
            self.decode_sms = decode;
        }
        if p_idle && prefill < self.prefill_sms {
            ctx.gpu.resize_context(group, p_ctx, prefill);
            self.prefill_sms = prefill;
        }
        let free = self.sm_count - self.decode_sms - self.prefill_sms;
        if d_idle && decode > self.decode_sms && free > 0 {
            self.decode_sms += (decode - self.decode_sms).min(free);
            ctx.gpu.resize_context(group, d_ctx, self.decode_sms);
        }
        let free = self.sm_count - self.decode_sms - self.prefill_sms;
        if p_idle && prefill > self.prefill_sms && free > 0 {
            self.prefill_sms += (prefill - self.prefill_sms).min(free);
            ctx.gpu.resize_context(group, p_ctx, self.prefill_sms);
        }
        if self.decode_sms != old_decode {
            self.partition_log.push((ctx.now(), self.decode_sms));
            if stall > 0.0 {
                let now = ctx.now();
                self.host_submit(now, SimDuration::from_secs(stall));
            }
        }
    }

    /// Fast re-check that `try_apply_partition` would keep the current
    /// partition, valid only under the macro invariants (no prefill job,
    /// no preempted job, empty waiting queue, empty join queue). It
    /// replays `desired_decode_sms`'s arithmetic bit-for-bit from cached
    /// plane sets and guard factors, so "stable" here means the full
    /// path would have been a no-op — any other answer demotes the
    /// launch to the full path, which recomputes from scratch.
    // simlint: hot
    fn macro_partition_stable(&mut self, ctx: &ServeCtx) -> bool {
        if !self.cfg.backend.can_reconfigure() && !self.partition_log.is_empty() {
            return true; // MIG-style static slicing never resizes
        }
        debug_assert_eq!(
            self.decode_sms + self.prefill_sms,
            self.sm_count,
            "a quiescent engine holds a settled split"
        );
        let last = *self.partition_configs.last().expect("non-empty configs");
        if self.fault_mode {
            return self.decode_sms == last;
        }
        let ctx_sum = self.decode.context_sum();
        let batch = self.decode.len();
        let bucket = estimator::guard::context_bucket(ctx_sum / batch as u64);
        if !self.macro_valid || self.macro_key != (bucket, batch) {
            self.macro_refresh(ctx, ctx_sum, batch, bucket);
        }
        let f = [ctx_sum as f64, batch as f64, 1.0];
        for cand in &self.macro_cands {
            let solo = estimator::linreg::predict_max_affine(&cand.planes, &f).max(0.0);
            if solo * cand.factor <= self.macro_budget {
                return cand.sms == self.decode_sms;
            }
        }
        self.decode_sms == last
    }

    /// Rebuilds the macro-step caches: resolved decode planes per
    /// candidate partition (once — the predictor is immutable), the
    /// quiescent-regime TBT budget, and the guard factor for the current
    /// grid cell. All three reproduce `desired_decode_sms`'s exact
    /// float operations under the macro invariants.
    fn macro_refresh(&mut self, ctx: &ServeCtx, ctx_sum: u64, batch: usize, bucket: u8) {
        if self.macro_cands.is_empty() {
            for &sms in &self.partition_configs {
                self.macro_cands.push(MacroCand {
                    sms,
                    planes: self.est.predictor.decode_planes(sms).to_vec(),
                    factor: 1.0,
                });
            }
        }
        // Same ops in the same order as `desired_decode_sms`; the 0.3
        // no-prefill scaling always applies in the quiescent regime.
        let mut budget =
            self.slo.tbt.as_secs() * self.cfg.tbt_margin - ctx.gpu.spec().graph_launch.as_secs();
        budget *= 0.3;
        self.macro_budget = budget;
        for i in 0..self.macro_cands.len() {
            let sms = self.macro_cands[i].sms;
            let factor = if self.cfg.contention_guard {
                self.est
                    .guard
                    .factor(&self.guard_query(sms, ctx_sum, batch))
            } else {
                1.0
            };
            self.macro_cands[i].factor = factor;
        }
        self.macro_key = (bucket, batch);
        self.macro_valid = true;
    }

    // ---- prefill side --------------------------------------------------------

    /// Admits a batch of waiting requests into a new prefill job (or
    /// resumes a preempted one).
    fn try_start_prefill(&mut self, ctx: &mut ServeCtx) {
        if self.prefill.is_some() || self.down {
            return;
        }
        if let Some(job) = self.preempted.take() {
            self.prefill = Some(job);
            self.launch_prefill_layers(ctx);
            return;
        }
        if self.waiting.is_empty() {
            return;
        }
        if self.cfg.preemption == Preemption::ShortestFirst {
            // Preemptive scheduling breaks FCFS (§4.4.3): short requests
            // jump long ones at batch formation too, so a queued chat
            // turn never waits behind a queue of long-document prefills.
            let mut sorted: Vec<ReqId> = self.waiting.iter().copied().collect();
            sorted.sort_by_key(|&id| (ctx.request(id).input_tokens(), id));
            self.waiting = sorted.into();
        }
        let mut reqs = Vec::new();
        let mut batch_blocks: Vec<Vec<Block>> = Vec::new();
        let mut new_total = 0u64;
        // Position of the next candidate: requests skipped below stay
        // queued ahead of it, so the earliest of them heads the next
        // batch.
        let mut pos = 0;
        while let Some(&id) = self.waiting.get(pos) {
            if reqs.len() >= 32 {
                break;
            }
            let spec = ctx.request(id).clone();
            let table = self.table.as_ref().expect("table");
            let blocks = spec.content.blocks(table.block_size());
            let cached = table.export_prefix(&blocks);
            if computed_in_batch(
                batch_blocks.iter().map(Vec::as_slice),
                &blocks,
                cached.len(),
            ) {
                // A request already in this batch computes this one's
                // first uncached block (typically the previous turn of
                // its session): wait one batch and reuse it instead.
                self.lifecycle.record_prefix_skip();
                pos += 1;
                continue;
            }
            let reused = Block::total_tokens(cached);
            let new_tokens = spec.input_tokens() - reused;
            if !reqs.is_empty() && new_total + new_tokens > self.cfg.max_prefill_batch_tokens {
                break;
            }
            let table = self.table.as_mut().expect("table");
            let Some(lease) =
                table.try_lease_prompt(&blocks, spec.input_tokens(), new_tokens, ctx.now())
            else {
                // Pool pressure: wait for running requests to release
                // space — unless nothing is running, in which case the
                // request can never fit and must be dropped to stay live.
                if reqs.is_empty()
                    && self.decode.is_empty()
                    && self.pending_join.is_empty()
                    && self.prefill.is_none()
                    && self.preempted.is_none()
                {
                    // Nothing was admitted, so nothing was skipped:
                    // `pos` is still the queue head.
                    self.waiting.remove(pos);
                    ctx.finish_request(id);
                    self.lifecycle.drop_request(id);
                    continue;
                }
                break;
            };
            // The lock is taken after the peek; eviction in between can
            // only shrink the match (more recompute, reserved above).
            let reused = lease.matched_tokens();
            table.readmit(id, &blocks);
            let seq = SeqState::new(spec.input_tokens() - reused, reused);
            new_total += seq.new_tokens;
            self.waiting.remove(pos);
            self.lifecycle.admit(id);
            reqs.push(PrefillReq { id, seq, lease });
            batch_blocks.push(blocks);
        }
        if reqs.is_empty() {
            return;
        }
        // Layer-checkpoint resume: a batch made of crash victims restarts
        // from the shallowest checkpoint its members share; one fresh
        // request forces a full restart.
        let resume = if self.cfg.layer_wise {
            reqs.iter()
                .map(|r| self.resume_layers.remove(&r.id).unwrap_or(0))
                .min()
                .unwrap_or(0)
        } else {
            for r in &reqs {
                self.resume_layers.remove(&r.id);
            }
            0
        };
        let batch: Vec<SeqState> = reqs.iter().map(|r| r.seq).collect();
        let est_full = self.est.predictor.prefill_latency(self.prefill_sms, &batch);
        let arrivals = reqs.iter().map(|r| ctx.request(r.id).arrival);
        let earliest = arrivals.clone().min().expect("non-empty");
        let latest = arrivals.max().expect("non-empty");
        let gen = self.next_gen;
        self.next_gen += 1;
        let (new_sum, reused_sum) = reqs.iter().fold((0, 0), |(n, r), pr| {
            (n + pr.seq.new_tokens, r + pr.seq.reused_tokens)
        });
        self.prefill = Some(PrefillJob {
            gen,
            reqs,
            new_sum,
            reused_sum,
            layers_done: resume,
            layers_inflight: 0,
            earliest_arrival: earliest,
            latest_arrival: latest,
            est_full,
            is_preemptor: false,
        });
        self.launch_prefill_layers(ctx);
    }

    /// Launches the next group of prefill layers, sized by the paper's
    /// `N_PL = ceil(T_d · N_T / T_P)` so prefill work covers the
    /// concurrent decode iteration (§3.4.2).
    fn launch_prefill_layers(&mut self, ctx: &mut ServeCtx) {
        if self.down {
            return;
        }
        let (group, p_ctx) = match (self.group, self.prefill_ctx) {
            (Some(g), Some(p)) => (g, p),
            _ => return,
        };
        let Some(job) = &self.prefill else { return };
        if job.layers_inflight > 0 || job.layers_done >= self.model.num_layers {
            return;
        }
        // Prefill takes the SMs decode released at its last boundary;
        // any it is still due arrive at the next layer group.
        self.try_apply_partition(ctx);
        let job = self.prefill.as_ref().expect("checked");
        let batch: Vec<SeqState> = job.reqs.iter().map(|r| r.seq).collect();
        let remaining = self.model.num_layers - job.layers_done;
        let layers_done = job.layers_done;
        let gen = job.gen;

        let spec = ctx.gpu.spec().clone();
        let now = ctx.now();
        if self.cfg.layer_wise {
            let n_pl = self.layers_to_launch(&batch, remaining);
            let layer_work = self.model.prefill_layer_work(&batch, &self.par);
            for i in 0..n_pl {
                let ready = self.host_submit(now, spec.layer_graph_launch);
                let mut work = layer_work;
                if job_is_last_layer(layers_done + i + 1, self.model.num_layers) {
                    // Fold the LM head into the final layer.
                    work = work.plus(&self.model.lm_head_work(batch.len() as f64, &self.par));
                }
                let tag = self.alloc_tag(Tag::PrefillLayer { gen });
                ctx.gpu.submit(group, p_ctx, work, ready, tag);
            }
            self.prefill.as_mut().expect("checked").layers_inflight = n_pl;
        } else {
            // Ablation: whole remaining phase in one launch. The host is
            // busy for the full phase-launch time (~10 ms for Llama-70B),
            // delaying decode launches — the first bubble type of Fig. 9.
            let launch_cost =
                SimDuration::from_secs(spec.layer_graph_launch.as_secs() * remaining as f64);
            let ready = self.host_submit(now, launch_cost);
            let frac = remaining as f64 / self.model.num_layers as f64;
            let work = self.model.prefill_full_work(&batch, &self.par).scaled(frac);
            let tag = self.alloc_tag(Tag::PrefillLayer { gen });
            ctx.gpu.submit(group, p_ctx, work, ready, tag);
            let job = self.prefill.as_mut().expect("checked");
            job.layers_inflight = remaining;
            job.layers_done = self.model.num_layers - remaining;
        }
    }

    fn layers_to_launch(&self, batch: &[SeqState], remaining: u32) -> u32 {
        let t_p = self
            .est
            .predictor
            .prefill_latency(self.prefill_sms, batch)
            .max(1e-6);
        if self.decode.is_empty() {
            return remaining;
        }
        let t_d = self.est.predictor.decode_latency_agg(
            self.decode_sms,
            self.decode.context_sum(),
            self.decode.len(),
        );
        let n_pl = (t_d * self.model.num_layers as f64 / t_p).ceil() as u32;
        n_pl.clamp(1, remaining)
    }

    /// Handles completion of one prefill layer (or whole-phase launch).
    fn on_prefill_layer_done(&mut self, gen: u64, ctx: &mut ServeCtx) {
        self.macro_armed = false;
        let in_current = self.prefill.as_ref().map(|j| j.gen) == Some(gen);
        let job = if in_current {
            self.prefill.as_mut()
        } else if self.preempted.as_ref().map(|j| j.gen) == Some(gen) {
            self.preempted.as_mut()
        } else {
            None
        };
        let Some(job) = job else { return };
        if self.cfg.layer_wise {
            job.layers_done += 1;
            job.layers_inflight -= 1;
        } else {
            job.layers_done += job.layers_inflight;
            job.layers_inflight = 0;
        }
        let complete = job.layers_done >= self.model.num_layers;
        if complete && in_current {
            let job = self.prefill.take().expect("current job");
            self.complete_prefill_job(job, ctx);
            if self.decode_blocked {
                self.decode_blocked = false;
                self.launch_decode(ctx);
            }
            self.try_start_prefill(ctx);
        } else if in_current {
            self.launch_prefill_layers(ctx);
        } else {
            // The preempted job's running head drained the prefill
            // context. Deliver the job if that was its last layer; either
            // way the preemptor, which waited for the idle context, can
            // launch now.
            if complete {
                let job = self.preempted.take().expect("preempted job");
                self.complete_prefill_job(job, ctx);
            }
            self.launch_prefill_layers(ctx);
        }
    }

    /// Emits first tokens and moves finished prefills toward the decode
    /// batch (query-based synchronization: they join at the next decode
    /// launch without stalling it).
    fn complete_prefill_job(&mut self, job: PrefillJob, ctx: &mut ServeCtx) {
        for mut r in job.reqs {
            let spec = ctx.request(r.id).clone();
            let already = ctx.tokens_emitted(r.id);
            if already == 0 {
                ctx.emit_tokens(r.id, 1);
            }
            let emitted = ctx.tokens_emitted(r.id);
            let remaining = spec.output_tokens.saturating_sub(emitted);
            // The freshly computed prompt KV enters the shared radix
            // immediately (as SGLang's tree does), so concurrent and
            // later turns can reuse it before this request finishes.
            let table = self.table.as_mut().expect("table");
            let blocks = spec.content.blocks(table.block_size());
            table.migrate(&mut r.lease, &blocks, ctx.now());
            let slot = DecodeSlot {
                id: r.id,
                context: spec.input_tokens() + emitted,
                remaining_out: remaining,
                lease: r.lease,
            };
            if remaining == 0 {
                self.retire_slot(slot, ctx);
            } else {
                self.lifecycle.begin_decode(slot.id);
                self.pending_join.push(slot);
            }
        }
        self.launch_decode(ctx);
    }

    /// Commits a finished request's context (input + generated tokens) to
    /// the shared pool for future-turn reuse, and releases its resources.
    fn retire_slot(&mut self, slot: DecodeSlot, ctx: &mut ServeCtx) {
        let spec = ctx.request(slot.id).clone();
        let table = self.table.as_mut().expect("table");
        let mut committed = spec.content.clone();
        committed.push(spec.session, ctx.tokens_emitted(slot.id));
        let blocks = committed.blocks(table.block_size());
        table.release_and_commit(slot.lease, &blocks, ctx.now());
        ctx.finish_request(slot.id);
        self.lifecycle.finish(slot.id);
    }

    // ---- decode side ----------------------------------------------------------

    // simlint: hot
    fn launch_decode(&mut self, ctx: &mut ServeCtx) {
        if self.decode_inflight.is_some() || self.decode_blocked || self.down {
            return;
        }
        // Macro fast path: the previous launch proved the engine
        // quiescent — no prefill anywhere, nothing waiting or joining —
        // so the merge/partition/prefill prelude can be skipped after
        // cheap invariant re-checks. Any deviation (pool victims, a
        // partition the best-fit scan would now change) demotes this
        // launch to the full path, which recomputes everything.
        let mut fast = self.macro_armed;
        self.macro_armed = false;
        if !fast {
            // Query-based sync: merge finished prefills at the launch
            // boundary.
            while self.decode.len() < self.cfg.max_decode_batch && !self.pending_join.is_empty() {
                self.decode.push(self.pending_join.remove(0));
            }
            if self.decode.is_empty() {
                return;
            }
        }
        debug_assert!(
            !fast || (self.pending_join.is_empty() && !self.decode.is_empty()),
            "macro arm invariants violated"
        );
        let (group, d_ctx) = match (self.group, self.decode_ctx) {
            (Some(g), Some(d)) => (g, d),
            _ => return,
        };
        // Grow each sequence's KV allocation by one token; requeue
        // victims if the pool is truly exhausted.
        let now = ctx.now();
        let table = self.table.as_mut().expect("table");
        self.decode
            .grow_for_iteration_into(table, now, &mut self.victim_scratch);
        if !self.victim_scratch.is_empty() {
            // Requeues repopulate `waiting`, which feeds the partition
            // budget: full prelude required.
            fast = false;
            for i in 0..self.victim_scratch.len() {
                let id = self.victim_scratch[i];
                self.waiting.push_front(id);
                self.lifecycle.requeue(id);
            }
            if self.decode.is_empty() {
                return;
            }
        }
        if fast && self.macro_partition_stable(ctx) {
            // Unchanged slot set: every context advanced by exactly one
            // token since the scratch was built.
            for c in &mut self.ctx_scratch {
                *c += 1;
            }
            self.coalesced_iters += 1;
        } else {
            // Decode releases or takes SMs at its own boundary.
            self.try_apply_partition(ctx);
            self.peak_decode_batch = self.peak_decode_batch.max(self.decode.len());
            self.ctx_scratch.clear();
            self.ctx_scratch.extend(self.decode.contexts());
        }
        self.decode_iters += 1;
        let work = self.model.decode_iter_work(&self.ctx_scratch, &self.par);
        let spec_launch = ctx.gpu.spec().graph_launch;
        let ready = self.host_submit(now, spec_launch);
        ctx.gpu.submit(group, d_ctx, work, ready, DECODE_TAG);
        // The guard query, its solo prediction, and the O(batch) context
        // sum feeding them are only needed when a co-running prefill
        // turns this iteration into a guard observation.
        let (corun, predicted_solo) =
            if self.prefill.as_ref().is_some_and(|j| j.layers_inflight > 0) {
                let ctx_sum = self.decode.context_sum();
                let batch = self.decode.len();
                (
                    Some(self.guard_query(self.decode_sms, ctx_sum, batch)),
                    self.est
                        .predictor
                        .decode_latency_agg(self.decode_sms, ctx_sum, batch),
                )
            } else {
                (None, 0.0)
            };
        self.decode_inflight = Some(DecodeInflight {
            ready_at: ready,
            predicted_solo,
            corun,
        });
        // Re-arm for the next iteration only in the quiescent regime.
        self.macro_armed = self.cfg.macro_steps
            && self.prefill.is_none()
            && self.preempted.is_none()
            && self.waiting.is_empty()
            && self.pending_join.is_empty();
    }

    // simlint: hot
    fn on_decode_done(&mut self, ctx: &mut ServeCtx) {
        if let Some(inflight) = self.decode_inflight.take() {
            // Online refinement of the contention guard (§3.3.2).
            if let Some(q) = inflight.corun {
                let measured = (ctx.now() - inflight.ready_at).as_secs();
                if inflight.predicted_solo > 0.0 {
                    self.est
                        .guard
                        .observe(&q, measured / inflight.predicted_solo);
                    // A refined cell may invalidate cached factors.
                    self.macro_valid = false;
                }
            }
        }
        let mut retired = std::mem::take(&mut self.retired_scratch);
        self.decode.advance_iteration_into(ctx, &mut retired);
        if !retired.is_empty() {
            // The slot set changed: the cached context scratch no longer
            // describes the batch.
            self.macro_armed = false;
        }
        for slot in retired.drain(..) {
            self.retire_slot(slot, ctx);
        }
        self.retired_scratch = retired;
        if !self.cfg.query_sync && self.prefill.is_some() {
            // Ablation: block the next decode launch on the prefill
            // phase's completion (the stall of Fig. 19).
            self.decode_blocked = true;
            return;
        }
        self.launch_decode(ctx);
        // Freed pool space may unblock waiting prefills.
        self.try_start_prefill(ctx);
    }

    // ---- preemption -------------------------------------------------------------

    /// §3.4.2's layer-boundary preemption, used to rescue TTFT. A new
    /// arrival preempts the running phase only when every request of the
    /// phase misses TTFT anyway, the arrival meets it if it starts now,
    /// and the phase still makes its length-scaled deadline (long
    /// prompts cannot meet an absolute 500 ms target; the paper judges
    /// them by TTFT per token, §4.4.3). Preemption never nests, and it
    /// needs layer-wise launches: a whole-phase kernel has no layer
    /// boundary to stop at. Returns whether the arrival became the
    /// preemptor.
    fn maybe_preempt(&mut self, id: ReqId, ctx: &mut ServeCtx) -> bool {
        if self.cfg.preemption == Preemption::Off || !self.cfg.layer_wise || self.down {
            return false;
        }
        let Some(job) = &self.prefill else {
            return false;
        };
        // A preempted phase waits only while its preemptor runs, and a
        // preemptor is never preempted itself.
        if job.is_preemptor || job.layers_done >= self.model.num_layers {
            return false;
        }
        let spec = ctx.request(id);
        let table = self.table.as_ref().expect("table");
        let blocks = spec.content.blocks(table.block_size());
        let reused = table.peek_prefix(&blocks);
        let new_tokens = spec.input_tokens() - reused;
        // Solo times on the prefill share the phase holds now.
        let predictor = &self.est.predictor;
        let psms = self.prefill_sms;
        let t_new = predictor.prefill_latency(psms, &[SeqState::new(new_tokens, reused)]);
        let batch: Vec<SeqState> = job.reqs.iter().map(|r| r.seq).collect();
        let remaining_frac =
            (self.model.num_layers - job.layers_done) as f64 / self.model.num_layers as f64;
        let t_remaining = predictor.prefill_latency(psms, &batch) * remaining_frac;
        let now = ctx.now();
        let ttft = self.slo.ttft;
        let phase_misses = now + SimDuration::from_secs(t_remaining) > job.latest_arrival + ttft;
        let arrival_meets = now + SimDuration::from_secs(t_new) <= spec.arrival + ttft;
        let deadline = job.earliest_arrival + SimDuration::from_secs(2.0 * job.est_full) + ttft;
        let phase_keeps_deadline = now + SimDuration::from_secs(t_new + t_remaining) <= deadline;
        if !(phase_misses && arrival_meets && phase_keeps_deadline) {
            return false;
        }
        let (input_tokens, arrival) = (spec.input_tokens(), spec.arrival);
        let table = self.table.as_mut().expect("table");
        let Some(lease) = table.try_lease_prompt(&blocks, input_tokens, new_tokens, now) else {
            return false;
        };
        table.readmit(id, &blocks);
        // Preempt: drop queued (not-running) layers; the running head
        // finishes (non-preemptive GPU execution).
        let (group, p_ctx) = (
            self.group.expect("started"),
            self.prefill_ctx.expect("started"),
        );
        let cancelled = ctx.gpu.cancel_queued(group, p_ctx);
        for (_, tag) in &cancelled {
            self.tags.remove(tag);
        }
        let mut job = self.prefill.take().expect("checked");
        job.layers_inflight -= cancelled.len() as u32;
        debug_assert!(self.preempted.is_none(), "preemption nested");
        self.preempted = Some(job);
        self.lifecycle.record_preemption();

        // Start the preemptor with just this request.
        let seq = SeqState::new(
            input_tokens - lease.matched_tokens(),
            lease.matched_tokens(),
        );
        self.waiting.retain(|&w| w != id);
        self.lifecycle.admit(id);
        let gen = self.next_gen;
        self.next_gen += 1;
        let est_full = self.est.predictor.prefill_latency(psms, &[seq]);
        self.prefill = Some(PrefillJob {
            gen,
            new_sum: seq.new_tokens,
            reused_sum: seq.reused_tokens,
            reqs: vec![PrefillReq { id, seq, lease }],
            layers_done: 0,
            layers_inflight: 0,
            earliest_arrival: arrival,
            latest_arrival: arrival,
            est_full,
            is_preemptor: true,
        });
        // Launch begins once the old head drains (`on_prefill_layer_done`
        // launches it otherwise).
        if ctx.gpu.is_idle(group, p_ctx) {
            self.launch_prefill_layers(ctx);
        }
        true
    }
}

fn job_is_last_layer(done_after: u32, total: u32) -> bool {
    done_after == total
}

impl Scheduler for MuxWise {
    fn on_start(&mut self, ctx: &mut ServeCtx) {
        let gpus: Vec<u32> = (0..ctx.gpu.num_gpus()).collect();
        let group = ctx.gpu.create_group(gpus);
        self.decode_sms = self.partition_configs[0];
        self.prefill_sms = self.sm_count - self.decode_sms;
        let d = ctx.gpu.set_context(group, self.decode_sms);
        let p = ctx.gpu.set_context(group, self.prefill_sms);
        self.group = Some(group);
        self.decode_ctx = Some(d);
        self.prefill_ctx = Some(p);
        self.table = Some(LeaseTable::new(self.pool_capacity, 64));
        self.partition_log.push((ctx.now(), self.decode_sms));
    }

    fn on_arrival(&mut self, id: ReqId, ctx: &mut ServeCtx) {
        self.macro_armed = false;
        if self.maybe_preempt(id, ctx) {
            return;
        }
        if !self.waiting.contains(&id) {
            self.waiting.push_back(id);
        }
        self.try_start_prefill(ctx);
    }

    fn on_kernel_done(&mut self, tag: u64, ctx: &mut ServeCtx) {
        if tag == DECODE_TAG {
            // The reserved decode tag never enters the `tags` map. A
            // stale decode completion (none exist today — crashes cancel
            // in-flight kernels — but cheap to guard) is ignored exactly
            // as a cleared map entry used to be.
            if self.decode_inflight.is_some() {
                self.on_decode_done(ctx);
            }
            return;
        }
        match self.tags.remove(&tag) {
            Some(Tag::PrefillLayer { gen }) => self.on_prefill_layer_done(gen, ctx),
            None => {}
        }
    }

    fn groups(&self) -> Vec<GroupId> {
        self.group.into_iter().collect()
    }

    fn streams(&self) -> Vec<(GroupId, CtxId)> {
        match (self.group, self.decode_ctx, self.prefill_ctx) {
            (Some(g), Some(d), Some(p)) => vec![(g, d), (g, p)],
            _ => Vec::new(),
        }
    }

    fn counters(&self) -> EngineCounters {
        self.lifecycle.counters()
    }

    fn decode_iter_stats(&self) -> (u64, u64) {
        (self.decode_iters, self.coalesced_iters)
    }

    fn set_macro_steps(&mut self, on: bool) {
        self.cfg.macro_steps = on;
        self.macro_armed = false;
    }

    fn lease_tables(&self) -> Vec<&LeaseTable> {
        self.table.iter().collect()
    }

    fn lease_tables_mut(&mut self) -> Vec<&mut LeaseTable> {
        self.table.iter_mut().collect()
    }

    fn on_fault(&mut self, active: &[FaultKind], _ctx: &mut ServeCtx) {
        // Fault boundaries can shrink the pool or flip `fault_mode`;
        // both break the macro invariants and the cached factors.
        self.macro_armed = false;
        self.macro_valid = false;
        let degraded = !active.is_empty();
        if degraded && !self.fault_mode {
            // The hardware changed under the offline profile: discard
            // the per-cell grid (queries fall back to the conservative
            // global max) and re-learn online as co-runs are observed.
            self.est.guard.invalidate();
        }
        self.fault_mode = degraded;
    }

    fn on_shed(&mut self, id: ReqId, _ctx: &mut ServeCtx) -> bool {
        self.macro_armed = false;
        self.lifecycle.shed_waiting(&mut self.waiting, id)
    }

    fn on_gpu_lost(
        &mut self,
        _gpu: u32,
        _cancelled: &[u64],
        ctx: &mut ServeCtx,
    ) -> Vec<CrashVictim> {
        // MuxWise runs one lockstep group over every GPU, so any device
        // death takes the whole engine down: all in-flight kernels were
        // cancelled by the driver and every running request loses its
        // device-resident KV.
        self.macro_armed = false;
        self.down = true;
        self.tags.clear();
        self.decode_inflight = None;
        self.decode_blocked = false;
        let mut victims = Vec::new();
        // Prefill victims resume from their last completed layer (the
        // layer-wise launch IS the checkpoint); their freshly computed
        // private KV below that layer is lost with the device, so the
        // lease is released and the prefix protected for re-admission.
        let table = self.table.as_mut().expect("table");
        for job in self.prefill.take().into_iter().chain(self.preempted.take()) {
            for r in job.reqs {
                table.revoke(r.id, r.lease, &ctx.request(r.id).content);
                self.lifecycle.requeue(r.id);
                victims.push(if self.cfg.layer_wise {
                    if job.layers_done > 0 {
                        self.resume_layers.insert(r.id, job.layers_done);
                    }
                    CrashVictim {
                        id: r.id,
                        class: RecoveryClass::ResumeFromLayer(job.layers_done),
                        lost_tokens: 0,
                    }
                } else {
                    CrashVictim::reprefill(r.id, r.seq.new_tokens)
                });
            }
        }
        // Decode victims (joined or pending join) must re-prefill their
        // full accumulated context on re-admission.
        let mut slots = std::mem::take(&mut self.pending_join);
        slots.extend(self.decode.drain());
        for slot in slots {
            table.revoke(slot.id, slot.lease, &ctx.request(slot.id).content);
            self.lifecycle.requeue(slot.id);
            victims.push(CrashVictim::reprefill(slot.id, slot.context));
        }
        victims
    }

    fn on_gpu_recovered(&mut self, _gpu: u32, ctx: &mut ServeCtx) {
        if let Some(group) = self.group {
            if ctx.gpu.group_has_dead_gpu(group) {
                return; // another device of the group is still down
            }
        }
        self.macro_armed = false;
        self.down = false;
        self.try_start_prefill(ctx);
        self.launch_decode(ctx);
    }

    fn on_transfer_done(&mut self, _tag: u64, _ctx: &mut ServeCtx) {
        // MuxWise schedules no transfers, but any external event breaks
        // the macro-step quiescence proof on principle.
        self.macro_armed = false;
    }

    fn on_timer(&mut self, _tag: u64, _ctx: &mut ServeCtx) {
        self.macro_armed = false;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::PartitionBackend;
    use gpusim::{ClusterSpec, GpuSim};
    use serving::{Driver, FaultKind, FaultPlan, StepOutcome};
    use simcore::SimRng;
    use workload::{generate, ContentSpec, RequestSpec, WorkloadKind};

    fn est8b() -> Estimators {
        Estimators::profile(&ModelSpec::llama8b(), &ClusterSpec::dgx_a100(), 8)
    }

    fn run(
        kind: WorkloadKind,
        n: usize,
        rate: f64,
        cfg: MuxWiseConfig,
        est: &Estimators,
    ) -> (serving::Report, MuxWise) {
        let cluster = ClusterSpec::dgx_a100();
        let model = ModelSpec::llama8b();
        let slo = SloSpec::llama8b();
        let mut engine = MuxWise::new(&model, &cluster, 8, slo, est.clone(), cfg);
        let mut rng = SimRng::seed_from(42);
        let reqs = generate(kind, n, rate, &mut rng);
        let report = Driver::new(GpuSim::from_cluster(&cluster), reqs, slo).run(&mut engine);
        (report, engine)
    }

    #[test]
    fn sharegpt_completes_within_slo() {
        let est = est8b();
        let (rep, _) = run(
            WorkloadKind::ShareGpt,
            120,
            4.0,
            MuxWiseConfig::default(),
            &est,
        );
        assert_eq!(rep.finished, rep.total, "all requests must finish");
        assert!(
            rep.tbt.p99() <= 0.050 * 1.05,
            "P99 TBT {}ms exceeds the 50ms target",
            rep.tbt.p99() * 1e3
        );
        assert!(rep.ttft.p99() < 2.0, "P99 TTFT {}s", rep.ttft.p99());
    }

    #[test]
    fn multi_turn_workload_reuses_cache() {
        let est = est8b();
        let (rep, engine) = run(
            WorkloadKind::Conversation,
            60,
            1.0,
            MuxWiseConfig::default(),
            &est,
        );
        assert_eq!(rep.finished, rep.total);
        let stats = engine.pool_stats().expect("pool exists");
        assert!(
            stats.hit_rate() > 0.2,
            "multi-turn hit rate too low: {}",
            stats.hit_rate()
        );
    }

    #[test]
    fn partition_adapts_to_workload() {
        // Fig. 18's mechanism: a decode-heavy 70B workload (OpenThoughts:
        // short inputs, ultra-long outputs) must grow the decode
        // partition beyond the minimum, while a prefill-heavy one
        // (LooGLE) keeps decode at the minimum.
        let cluster = ClusterSpec::dgx_a100();
        let model = ModelSpec::llama70b();
        let slo = SloSpec::llama70b();
        let est = Estimators::profile(&model, &cluster, 8);
        let run70 = |kind: WorkloadKind, n: usize, rate: f64| {
            let mut engine = MuxWise::new(
                &model,
                &cluster,
                8,
                slo,
                est.clone(),
                MuxWiseConfig::default(),
            );
            let mut rng = SimRng::seed_from(11);
            let reqs = generate(kind, n, rate, &mut rng);
            Driver::new(GpuSim::from_cluster(&cluster), reqs, slo).run(&mut engine);
            engine
        };
        let loogle = run70(WorkloadKind::Loogle, 10, 0.5);
        // A chat flood drives the decode batch into the hundreds, where
        // one granule of SMs can no longer meet the 100 ms TBT target.
        let flood = run70(WorkloadKind::ShareGpt, 500, 60.0);
        // Time-weighted mean decode partition: prefill-heavy LooGLE must
        // keep decode far smaller than the chat flood.
        let avg_sms = |e: &MuxWise| {
            let log = e.partition_log();
            let mut weighted = 0.0;
            let mut total = 0.0;
            for w in log.windows(2) {
                let dur = (w[1].0 - w[0].0).as_secs();
                weighted += w[0].1 as f64 * dur;
                total += dur;
            }
            if total == 0.0 {
                log.last().map(|&(_, s)| s as f64).unwrap_or(0.0)
            } else {
                weighted / total
            }
        };
        assert!(
            avg_sms(&loogle) + 8.0 < avg_sms(&flood),
            "LooGLE {} vs flood {}",
            avg_sms(&loogle),
            avg_sms(&flood)
        );
    }

    #[test]
    fn ablations_still_complete() {
        let est = est8b();
        for cfg in [
            MuxWiseConfig::without_layer_wise(),
            MuxWiseConfig::without_query_sync(),
        ] {
            let (rep, _) = run(WorkloadKind::ShareGpt, 60, 2.0, cfg, &est);
            assert_eq!(rep.finished, rep.total);
        }
    }

    #[test]
    fn query_sync_improves_tbt() {
        // Under sustained load (prefill almost always active), blocking
        // the decode relaunch on prefill completion inflates TBT
        // massively (Fig. 19).
        let est = est8b();
        let (with, _) = run(
            WorkloadKind::Conversation,
            80,
            8.0,
            MuxWiseConfig::default(),
            &est,
        );
        let (without, _) = run(
            WorkloadKind::Conversation,
            80,
            8.0,
            MuxWiseConfig::without_query_sync(),
            &est,
        );
        assert!(
            without.tbt.mean() > with.tbt.mean() * 1.5,
            "blocking sync should inflate TBT: {} vs {}",
            without.tbt.mean(),
            with.tbt.mean()
        );
    }

    #[test]
    fn preemption_happens_on_mixed_workloads() {
        let est = est8b();
        // Interleave LooGLE (ultra-long) and ShareGPT (short) requests.
        let cluster = ClusterSpec::dgx_a100();
        let model = ModelSpec::llama8b();
        let slo = SloSpec::llama8b();
        let mut rng = SimRng::seed_from(7);
        let mut reqs = generate(WorkloadKind::Loogle, 15, 0.5, &mut rng);
        let short = generate(WorkloadKind::ShareGpt, 15, 0.5, &mut rng);
        for (i, mut s) in short.into_iter().enumerate() {
            s.id = (reqs.len() + i) as u64;
            // Arrive just after a long request.
            s.arrival = reqs[i % 15].arrival + SimDuration::from_millis(50.0);
            reqs.push(s);
        }
        reqs.sort_by_key(|r| r.arrival);
        for (i, r) in reqs.iter_mut().enumerate() {
            r.id = i as u64;
        }
        let mut engine = MuxWise::new(
            &model,
            &cluster,
            8,
            slo,
            est.clone(),
            MuxWiseConfig::with_preemption(Preemption::ShortestFirst),
        );
        let rep = Driver::new(GpuSim::from_cluster(&cluster), reqs, slo).run(&mut engine);
        assert_eq!(rep.finished, rep.total);
        assert!(engine.preemptions() > 0, "expected at least one preemption");
    }

    #[test]
    fn online_refinement_populates_guard_cells() {
        let est = est8b();
        let before = est.guard.num_cells();
        let (_, engine) = run(
            WorkloadKind::Conversation,
            80,
            6.0,
            MuxWiseConfig::default(),
            &est,
        );
        assert!(
            engine.guard_cells() > before,
            "co-run observations must refine the guard: {} -> {}",
            before,
            engine.guard_cells()
        );
    }

    fn turn(id: u64, at_ms: f64, session: u64, tokens: u64, out: u64) -> RequestSpec {
        RequestSpec {
            id,
            arrival: SimTime::from_secs(at_ms * 1e-3),
            session,
            turn: 0,
            content: ContentSpec::single(session, tokens),
            prior_context: 0,
            output_tokens: out,
        }
    }

    #[test]
    fn later_turn_waits_for_the_batch_computing_its_prefix() {
        // Turns 0 and 1 of session 7 arrive together while an unrelated
        // prefill runs, so both are queued when the next batch forms.
        // (On an idle engine the first arrival starts a job by itself
        // before the second is delivered.) They fit one batch, but turn
        // 1 would recompute every block turn 0 computes: it must sit
        // that batch out, head the next, and lease turn 0's full blocks.
        let est = est8b();
        let cluster = ClusterSpec::dgx_a100();
        let slo = SloSpec::llama8b();
        let (prompt, out, new) = (3_000, 4, 500);
        let mut second = turn(2, 1.0, 7, prompt + out + new, out);
        second.turn = 1;
        second.prior_context = prompt + out;
        let reqs = vec![
            turn(0, 0.0, 999, 8_000, 2),
            turn(1, 1.0, 7, prompt, out),
            second,
        ];
        let cfg = MuxWiseConfig::default();
        assert!(2 * prompt + out + new <= cfg.max_prefill_batch_tokens);
        let mut engine = MuxWise::new(&ModelSpec::llama8b(), &cluster, 8, slo, est, cfg);
        let mut inst =
            Driver::new(GpuSim::from_cluster(&cluster), reqs, slo).into_instance(&mut engine);
        // Every prefill job the engine starts: its requests and the
        // tokens each one's lease matched.
        let mut jobs: Vec<(u64, Vec<(ReqId, u64)>)> = Vec::new();
        let mut t = 0.0;
        loop {
            t += 0.5e-3;
            let outcome = inst.step_until(&mut engine, SimTime::from_secs(t));
            if let Some(job) = &engine.prefill {
                if jobs.last().map(|(gen, _)| *gen) != Some(job.gen) {
                    let members = job.reqs.iter().map(|r| (r.id, r.lease.matched_tokens()));
                    jobs.push((job.gen, members.collect()));
                }
            }
            if outcome == StepOutcome::Idle {
                break;
            }
        }
        let full_blocks = prompt / 64 * 64;
        let members: Vec<_> = jobs.into_iter().map(|(_, m)| m).collect();
        assert_eq!(
            members,
            vec![vec![(0, 0)], vec![(1, 0)], vec![(2, full_blocks)]]
        );
        assert_eq!(engine.counters().prefix_skips, 1);
        let (rep, _) = inst.finish(&mut engine);
        assert_eq!(rep.finished, rep.total);
    }

    #[test]
    fn tool_agent_trace_realizes_its_prior_context() {
        // At 8 req/s consecutive Tool&Agent turns often queue together.
        // Without the batch rule a later turn re-prefills the previous
        // turn's prompt, and realized reuse falls well short of the
        // context the trace carries over.
        let est = est8b();
        let (n, rate) = (400, 8.0);
        let (rep, engine) = run(
            WorkloadKind::ToolAgent,
            n,
            rate,
            MuxWiseConfig::default(),
            &est,
        );
        assert_eq!(rep.finished, rep.total);
        assert_eq!(rep.counters.leaked_leases, 0);
        assert!(rep.counters.prefix_skips > 0);
        let trace = generate(WorkloadKind::ToolAgent, n, rate, &mut SimRng::seed_from(42));
        let prior: u64 = trace.iter().map(|r| r.prior_context).sum();
        let input: u64 = trace.iter().map(|r| r.input_tokens()).sum();
        let prior_share = prior as f64 / input as f64;
        let hit = engine.pool_stats().expect("pool exists").hit_rate();
        assert!(
            (hit - prior_share).abs() <= 0.02,
            "pool hit share {hit} vs prior-context share {prior_share}"
        );
    }

    /// What the engine did with a prompt that arrived while decode held
    /// a partition widened during a pure-decode stretch.
    #[derive(Debug)]
    struct LateArrival {
        /// Decode SMs when the prompt arrived.
        decode_sms: u32,
        /// Time from arrival to its first layer launch.
        launch_wait: f64,
        /// Time since arrival and prefill SMs at each of its layer-group
        /// launches.
        groups: Vec<(f64, u32)>,
        /// Upper bound on its TTFT (the step that saw its first token).
        ttft: f64,
    }

    /// Llama-70B on 8×A100: sixteen 1,000-token chat requests arrive at
    /// t = 0 and decode alone, so the dispatcher widens decode past the
    /// minimum partition; a `tokens`-token prompt then arrives 14 ms
    /// before the end of a decode iteration.
    fn prompt_after_decode_widens(tokens: u64) -> LateArrival {
        late_prompt(tokens, MuxWiseConfig::default(), FaultPlan::none())
    }

    /// [`prompt_after_decode_widens`] under `cfg` and `faults`.
    fn late_prompt(tokens: u64, cfg: MuxWiseConfig, faults: FaultPlan) -> LateArrival {
        let cluster = ClusterSpec::dgx_a100();
        let model = ModelSpec::llama70b();
        let slo = SloSpec::llama70b();
        let est = Estimators::profile(&model, &cluster, 8);
        let late: ReqId = 16;
        let at = 3.004;
        let mut reqs: Vec<RequestSpec> = (0..16).map(|i| turn(i, 0.0, i, 1_000, 200)).collect();
        reqs.push(turn(16, at * 1e3, 99, tokens, 4));
        let mut engine = MuxWise::new(&model, &cluster, 8, slo, est, cfg);
        let mut inst = Driver::new(GpuSim::from_cluster(&cluster), reqs, slo)
            .with_faults(faults)
            .into_instance(&mut engine);
        let arrival = SimTime::from_secs(at);
        inst.step_until(&mut engine, arrival);
        assert!(
            engine.decode_inflight.is_some(),
            "decode idle at the arrival"
        );
        let mut seen = LateArrival {
            decode_sms: engine.decode_sms,
            launch_wait: f64::NAN,
            groups: Vec::new(),
            ttft: f64::NAN,
        };
        // Layers launched so far: done plus in flight.
        let mut launched = 0;
        let mut t = at;
        while inst.serve_ctx().tokens_emitted(late) == 0 {
            t += 0.25e-3;
            inst.step_until(&mut engine, SimTime::from_secs(t));
            let Some(job) = engine.prefill.as_ref() else {
                continue;
            };
            assert_eq!(job.reqs[0].id, late);
            if job.layers_done + job.layers_inflight > launched {
                launched = job.layers_done + job.layers_inflight;
                if seen.launch_wait.is_nan() {
                    seen.launch_wait = t - at;
                }
                seen.groups.push((t - at, engine.prefill_sms));
            }
        }
        seen.ttft = t - at;
        inst.step_until(&mut engine, SimTime::MAX);
        let (rep, _) = inst.finish(&mut engine);
        assert_eq!(rep.finished, rep.total);
        seen
    }

    #[test]
    fn prefill_launches_at_arrival_and_takes_released_sms_at_its_next_layer_group() {
        let sm_count = ClusterSpec::dgx_a100().gpu.sm_count;
        let est = Estimators::profile(&ModelSpec::llama70b(), &ClusterSpec::dgx_a100(), 8);
        let tokens = 3_300;
        let seen = prompt_after_decode_widens(tokens);
        // The whole phase on the stale partition misses the 500 ms
        // target; on the minimum decode partition's complement it meets
        // it.
        let batch = [SeqState::new(tokens, 0)];
        assert_eq!(seen.decode_sms, 32, "decode never widened: {seen:?}");
        assert!(est.predictor.prefill_latency(sm_count - 32, &batch) > 0.5);
        assert!(est.predictor.prefill_latency(sm_count - 16, &batch) < 0.45);
        // No wait for the decode boundary: the first layer group runs on
        // the 76 SMs decode left, and decode's next boundary hands back
        // the rest, which prefill takes at its next group.
        assert!(seen.launch_wait <= 0.25e-3, "{seen:?}");
        assert_eq!(seen.groups[0].1, sm_count - 32, "{seen:?}");
        assert!(seen.groups.len() > 1, "{seen:?}");
        assert!(
            seen.groups[1..].iter().all(|&(_, s)| s == sm_count - 16),
            "{seen:?}"
        );
        assert!(seen.ttft <= 0.5, "{seen:?}");
    }

    #[test]
    fn prefill_launches_at_once_when_waiting_cannot_change_its_ttft() {
        let sm_count = ClusterSpec::dgx_a100().gpu.sm_count;
        // 1,500 tokens meet 500 ms on either partition; 8,000 miss it
        // on both.
        for (tokens, meets) in [(1_500, true), (8_000, false)] {
            let seen = prompt_after_decode_widens(tokens);
            assert!(seen.decode_sms > 16, "decode never widened: {seen:?}");
            assert!(seen.launch_wait <= 0.25e-3, "{tokens} tokens: {seen:?}");
            assert_eq!(
                seen.groups[0].1,
                sm_count - seen.decode_sms,
                "{tokens} tokens: {seen:?}"
            );
            assert_eq!(seen.ttft <= 0.5, meets, "{tokens} tokens: {seen:?}");
        }
    }

    #[test]
    fn a_running_phase_keeps_its_sms_on_mps_and_in_fault_mode() {
        let sm_count = ClusterSpec::dgx_a100().gpu.sm_count;
        // MPS: decode gives SMs back at its boundary, but a one-sided
        // resize would cost a process restart each time, so the phase
        // stays on the 76 SMs it launched on.
        let mps = MuxWiseConfig::with_backend(PartitionBackend::Mps);
        let seen = late_prompt(3_300, mps, FaultPlan::none());
        assert_eq!(seen.decode_sms, 32, "decode never widened: {seen:?}");
        assert!(seen.groups.len() > 1, "{seen:?}");
        assert!(
            seen.groups.iter().all(|&(_, s)| s == sm_count - 32),
            "{seen:?}"
        );
        // Fault mode from 300 ms into a 16k-token phase: the dispatcher
        // reserves the largest decode partition as a precaution, and the
        // running phase keeps the SMs it holds rather than shrink at its
        // next layer group.
        let hbm = FaultKind::HbmDegrade {
            gpu: 0,
            bw_fraction: 0.5,
        };
        let faults = FaultPlan::single(hbm, SimTime::from_secs(3.304), SimTime::MAX);
        let seen = late_prompt(16_000, MuxWiseConfig::default(), faults);
        let held = seen.groups.iter().rev().find(|&&(t, _)| t < 0.3);
        let (_, held) = *held.expect("no group before the fault");
        assert_eq!(held, sm_count - 16, "{seen:?}");
        assert!(seen.groups.iter().any(|&(t, _)| t > 0.3), "{seen:?}");
        assert!(
            seen.groups.iter().all(|&(t, s)| t < 0.3 || s == held),
            "{seen:?}"
        );
    }

    /// One preemption scenario's outcome.
    #[derive(Debug)]
    struct PreemptRun {
        preemptions: u64,
        /// The requests of the phase running when each request arrived.
        running_at_arrival: Vec<Vec<ReqId>>,
        /// Each request's TTFT, rounded up to the 1 ms step.
        ttft: Vec<f64>,
    }

    /// Llama-70B on 8×A100: prompts of `(arrival ms, tokens)` with two
    /// output tokens each, run under `cfg` to completion.
    fn preemption_run(cfg: MuxWiseConfig, prompts: &[(f64, u64)]) -> PreemptRun {
        let cluster = ClusterSpec::dgx_a100();
        let model = ModelSpec::llama70b();
        let slo = SloSpec::llama70b();
        let est = Estimators::profile(&model, &cluster, 8);
        let reqs = prompts
            .iter()
            .enumerate()
            .map(|(i, &(at, tokens))| turn(i as u64, at, i as u64, tokens, 2))
            .collect();
        let mut engine = MuxWise::new(&model, &cluster, 8, slo, est, cfg);
        let mut inst =
            Driver::new(GpuSim::from_cluster(&cluster), reqs, slo).into_instance(&mut engine);
        let arrivals: Vec<f64> = prompts.iter().map(|&(at, _)| at * 1e-3).collect();
        let mut run = PreemptRun {
            preemptions: 0,
            running_at_arrival: Vec::new(),
            ttft: vec![f64::NAN; prompts.len()],
        };
        let mut t: f64 = 0.0;
        while run.ttft.iter().any(|x| x.is_nan()) {
            assert!(t < 30.0, "stranded: {run:?}");
            // Stop exactly at the next arrival (delivered just after it)
            // to see which phase it meets.
            let next = arrivals.get(run.running_at_arrival.len());
            t = match next {
                Some(&at) if at <= t + 1e-3 => at,
                _ => t + 1e-3,
            };
            inst.step_until(&mut engine, SimTime::from_secs(t));
            if next == Some(&t) {
                let running = engine.prefill.as_ref().map(|j| j.reqs.iter().map(|r| r.id));
                run.running_at_arrival
                    .push(running.into_iter().flatten().collect());
            }
            for (i, ttft) in run.ttft.iter_mut().enumerate() {
                if ttft.is_nan() && inst.serve_ctx().tokens_emitted(i as ReqId) > 0 {
                    *ttft = t - arrivals[i];
                }
            }
        }
        inst.step_until(&mut engine, SimTime::MAX);
        let (rep, _) = inst.finish(&mut engine);
        assert_eq!(rep.finished, rep.total);
        assert_eq!(rep.counters.leaked_leases, 0);
        run.preemptions = engine.preemptions();
        run
    }

    #[test]
    fn a_prompt_that_can_make_ttft_preempts_a_phase_that_cannot() {
        // A 16k-token phase needs ~2.3 s solo: it misses 500 ms whatever
        // happens. A 1k-token prompt arriving 200 ms in meets it if it
        // starts now, and the phase keeps its length-scaled deadline.
        let run = preemption_run(MuxWiseConfig::default(), &[(0.0, 16_000), (200.0, 1_000)]);
        assert_eq!(run.running_at_arrival[1], vec![0], "{run:?}");
        assert_eq!(run.preemptions, 1, "{run:?}");
        assert!(run.ttft[1] <= 0.5, "{run:?}");
        // FCFS without preemption leaves the prompt behind the phase.
        let off = MuxWiseConfig::with_preemption(Preemption::Off);
        let run = preemption_run(off, &[(0.0, 16_000), (200.0, 1_000)]);
        assert_eq!(run.preemptions, 0, "{run:?}");
        assert!(run.ttft[1] > 2.0, "{run:?}");
    }

    #[test]
    fn no_preemption_while_the_running_phase_can_still_make_ttft() {
        // A 3k-token phase (~0.38 s solo) still makes 500 ms when a
        // prompt that could preempt it arrives 50 ms in.
        let run = preemption_run(MuxWiseConfig::default(), &[(0.0, 3_000), (50.0, 1_000)]);
        assert_eq!(run.running_at_arrival[1], vec![0], "{run:?}");
        assert_eq!(run.preemptions, 0, "{run:?}");
        assert!(run.ttft[0] <= 0.5, "{run:?}");
    }

    #[test]
    fn a_phase_is_doomed_only_when_its_latest_arrival_misses_ttft() {
        // Requests 1 and 2 queue behind a 3k-token phase and share the
        // next batch (~0.26 s solo from ~0.39 s). When request 3 arrives
        // at 450 ms that batch misses request 1's TTFT but still makes
        // request 2's: it must not be preempted.
        let prompts = [(0.0, 3_000), (10.0, 1_000), (350.0, 1_000), (450.0, 500)];
        let run = preemption_run(MuxWiseConfig::default(), &prompts);
        assert_eq!(run.running_at_arrival[3], vec![1, 2], "{run:?}");
        assert_eq!(run.preemptions, 0, "{run:?}");
        assert!(run.ttft[1] > 0.5 && run.ttft[2] <= 0.5, "{run:?}");
    }

    #[test]
    fn no_preemption_past_the_phase_length_scaled_deadline() {
        // Request 1 (4k tokens, ~0.52 s solo) can never make 500 ms, so
        // it waits out the 16k-token phase and starts at ~2.3 s, already
        // past its length-scaled deadline (arrival + 500 ms + twice its
        // solo time). Request 2 could make TTFT by preempting it, but
        // that would push the phase further past its deadline.
        let prompts = [(0.0, 16_000), (10.0, 4_000), (2_500.0, 1_000)];
        let run = preemption_run(MuxWiseConfig::default(), &prompts);
        assert_eq!(run.running_at_arrival[1], vec![0], "{run:?}");
        assert_eq!(run.running_at_arrival[2], vec![1], "{run:?}");
        assert_eq!(run.preemptions, 0, "{run:?}");
    }

    #[test]
    fn a_preemptor_is_never_preempted() {
        // Request 1 needs just under 500 ms on the 92 prefill SMs, so it
        // preempts the doomed 16k-token phase at 200 ms; but it first
        // waits out that phase's running layer, so by 400 ms it misses
        // TTFT too. Request 2 could rescue its own TTFT by preempting it,
        // but preemption does not nest.
        let sm_count = ClusterSpec::dgx_a100().gpu.sm_count;
        let est = Estimators::profile(&ModelSpec::llama70b(), &ClusterSpec::dgx_a100(), 8);
        let solo = est
            .predictor
            .prefill_latency(sm_count - 16, &[SeqState::new(3_800, 0)]);
        assert!(solo > 0.48 && solo < 0.5, "{solo}");
        let prompts = [(0.0, 16_000), (200.0, 3_800), (400.0, 1_000)];
        let run = preemption_run(MuxWiseConfig::default(), &prompts);
        assert_eq!(run.running_at_arrival[1], vec![0], "{run:?}");
        assert_eq!(run.running_at_arrival[2], vec![1], "{run:?}");
        assert_eq!(run.preemptions, 1, "{run:?}");
        assert!(run.ttft[1] > 0.5, "{run:?}");
    }

    #[test]
    fn whole_phase_launches_never_preempt() {
        // Without layer-wise execution the 16k-token phase is one kernel
        // behind a ~10 ms host launch. A 1k-token prompt arriving inside
        // that window, or while the kernel runs, passes the TTFT check,
        // but there is no layer boundary to stop at: cancelling the
        // queued kernel would drop the phase, and waiting for the running
        // one rescues nothing.
        for cfg in [
            MuxWiseConfig::without_layer_wise(),
            MuxWiseConfig::without_query_sync(),
        ] {
            assert_eq!(cfg.preemption, Preemption::TtftRescue);
            let prompts = [(0.0, 16_000), (5.0, 1_000), (200.0, 1_000)];
            let run = preemption_run(cfg, &prompts);
            assert_eq!(run.running_at_arrival[1], vec![0], "{run:?}");
            assert_eq!(run.running_at_arrival[2], vec![0], "{run:?}");
            assert_eq!(run.preemptions, 0, "{run:?}");
        }
    }

    #[test]
    fn a_preemptor_launches_when_the_preempted_head_is_the_last_layer() {
        // Find when the 16k-token phase runs its last layer alone, then
        // let a short prompt arrive then: the phase is delivered when
        // that layer ends, and the preemptor must launch right after.
        let cluster = ClusterSpec::dgx_a100();
        let model = ModelSpec::llama70b();
        let slo = SloSpec::llama70b();
        let est = Estimators::profile(&model, &cluster, 8);
        let mut engine = MuxWise::new(&model, &cluster, 8, slo, est, MuxWiseConfig::default());
        let reqs = vec![turn(0, 0.0, 0, 16_000, 2)];
        let mut inst =
            Driver::new(GpuSim::from_cluster(&cluster), reqs, slo).into_instance(&mut engine);
        let mut t = 0.0;
        while engine
            .prefill
            .as_ref()
            .is_none_or(|j| j.layers_done + 1 < model.num_layers)
        {
            t += 1e-3;
            inst.step_until(&mut engine, SimTime::from_secs(t));
        }
        let at_ms = t * 1e3 + 1.0;
        let run = preemption_run(MuxWiseConfig::default(), &[(0.0, 16_000), (at_ms, 1_000)]);
        assert_eq!(run.running_at_arrival[1], vec![0], "{run:?}");
        assert_eq!(run.preemptions, 1, "{run:?}");
        assert!(run.ttft[1] <= 0.5, "{run:?}");
    }

    #[test]
    fn decode_widens_at_its_boundary_while_prefill_work_remains() {
        // Llama-70B on 8×A100: 400 chat requests arrive at once. Prefill
        // batches run back to back for about 20 s, each one growing the
        // decode batch, until 16 SMs no longer meet the TBT target.
        // Prefill must give SMs up at its next layer group so decode can
        // widen at its boundary; otherwise decode holds 16 SMs until
        // prefill drains.
        let cluster = ClusterSpec::dgx_a100();
        let model = ModelSpec::llama70b();
        let slo = SloSpec::llama70b();
        let est = Estimators::profile(&model, &cluster, 8);
        let reqs: Vec<RequestSpec> = (0..400).map(|i| turn(i, 0.0, i, 400, 200)).collect();
        let cfg = MuxWiseConfig::default();
        let mut engine = MuxWise::new(&model, &cluster, 8, slo, est, cfg);
        let rep = Driver::new(GpuSim::from_cluster(&cluster), reqs, slo).run(&mut engine);
        assert_eq!(rep.finished, rep.total);
        let log = engine.partition_log();
        let (widened, _) = *log
            .iter()
            .find(|&&(_, sms)| sms > 16)
            .expect("decode never widened");
        // Every request arrived at 0, so the largest TTFT is when the
        // last prefill phase ended.
        assert!(
            widened.as_secs() + 1.0 < rep.ttft.max(),
            "decode widened at {widened} after prefill drained ({} s): {log:?}",
            rep.ttft.max()
        );
        assert!(
            rep.tbt.p99() <= slo.tbt.as_secs(),
            "P99 TBT {}",
            rep.tbt.p99()
        );
    }

    #[test]
    fn prefill_arriving_as_the_last_decoder_retires_is_never_stranded() {
        // Single A100, Llama-8B: a short request decodes alone on a
        // widened partition while a long prompt arrives, at every 2.5 ms
        // offset across its decode. Decode's last boundary launches no
        // iteration, so the phase must get its SMs from its own layer
        // launches.
        let cluster = ClusterSpec::single_a100();
        let model = ModelSpec::llama8b();
        let slo = SloSpec::llama8b();
        let est = Estimators::profile(&model, &cluster, 1);
        for k in 0..800 {
            let second = turn(1, 50.0 + 2.5 * k as f64, 1, 4_000, 4);
            let reqs = vec![turn(0, 0.0, 0, 500, 20), second];
            let cfg = MuxWiseConfig::default();
            let mut engine = MuxWise::new(&model, &cluster, 1, slo, est.clone(), cfg);
            let rep = Driver::new(GpuSim::from_cluster(&cluster), reqs, slo).run(&mut engine);
            assert_eq!(rep.finished, rep.total, "k = {k}: a request was stranded");
            assert_eq!(rep.counters.leaked_leases, 0, "k = {k}");
            let table = engine.table.as_ref().expect("started");
            assert_eq!(table.outstanding(), 0, "k = {k}: a lease is still held");
        }
    }

    #[test]
    fn utilization_is_reported() {
        let est = est8b();
        let (rep, _) = run(
            WorkloadKind::ShareGpt,
            80,
            8.0,
            MuxWiseConfig::default(),
            &est,
        );
        assert!(rep.utilization > 0.05, "util {}", rep.utilization);
        assert!(rep.utilization <= 1.0);
    }
}
