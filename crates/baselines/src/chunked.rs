//! Chunked-prefill (SGLang + SARATHI-Serve) and its NanoFlow variant.

use std::collections::VecDeque;

use gpusim::{ClusterSpec, CtxId, GpuSim, GroupId, KernelKind, WorkItem};
use kvcache::KvPool;
use modelspec::{ModelSpec, Parallelism, SeqState};
use serving::lease::{KvLease, LeaseTable};
use serving::lifecycle::{EngineCounters, Lifecycle};
use serving::{
    join_decode, kv_pool_capacity_tokens, retire, CrashVictim, DecodeBatch, DecodeSlot, FaultKind,
    ReqId, Scheduler, ServeCtx, SloSpec,
};
use simcore::SimDuration;

/// A request whose prompt is being processed chunk by chunk.
#[derive(Debug)]
struct PrefillProgress {
    id: ReqId,
    lease: KvLease,
    /// Cached prefix (reused) length at admission.
    cached: u64,
    /// Uncached prompt tokens to process in total.
    total_new: u64,
    /// Prompt tokens processed so far.
    done_new: u64,
}

/// SGLang-style chunked prefill: every iteration fuses the decode batch
/// with a prefill chunk capped by the token budget; shared radix KV pool.
/// The same scheduler doubles as **NanoFlow** with
/// [`ChunkedPrefill::nanoflow`]: nano-batch overlap trades ~12 % faster
/// compute for a duplicated weight load every iteration.
#[derive(Debug)]
pub struct ChunkedPrefill {
    model: ModelSpec,
    par: Parallelism,
    budget: u64,
    nano: bool,
    pool_capacity: u64,
    group: Option<GroupId>,
    ctx_id: Option<CtxId>,
    table: Option<LeaseTable>,
    lifecycle: Lifecycle,
    waiting: VecDeque<ReqId>,
    prefilling: VecDeque<PrefillProgress>,
    decode: DecodeBatch,
    /// Pieces of the in-flight iteration: `(request id, tokens)`.
    inflight: Option<Vec<(ReqId, u64)>>,
    /// The single all-GPU group lost a device; launches halt until the
    /// driver signals recovery.
    down: bool,
    /// Reused per-iteration scratch (hot-loop allocation freedom).
    ctx_scratch: Vec<u64>,
    victim_scratch: Vec<ReqId>,
    retired_scratch: Vec<DecodeSlot>,
    /// Spare pieces buffer cycled through `inflight` so assembling an
    /// iteration never reallocates.
    pieces_spare: Vec<(ReqId, u64)>,
    /// Macro-stepped decode (as in MuxWise): during quiescent
    /// decode-only stretches the chunk-assembly prelude is skipped
    /// behind cheap invariant checks. Schedules are bit-identical either
    /// way; equivalence tests switch it off through
    /// `Scheduler::set_macro_steps` to A/B the two paths.
    macro_steps: bool,
    /// The previous launch proved the engine quiescent (decode-only,
    /// nothing waiting or prefilling), so this launch may coalesce.
    macro_armed: bool,
    decode_iters: u64,
    coalesced_iters: u64,
}

/// The candidate token budgets tried by offline tuning (descending).
const BUDGETS: [u64; 7] = [4096, 2048, 1024, 512, 256, 128, 64];
/// Reference decode batch used for tuning, as in Fig. 6.
const TUNE_BS: usize = 32;
/// Reference reused context (tokens) for tuning.
const TUNE_CTX: u64 = 1024;

impl ChunkedPrefill {
    /// Creates the scheduler with an explicit token budget.
    ///
    /// # Panics
    ///
    /// Panics if the model does not fit on the cluster.
    pub fn with_budget(
        model: &ModelSpec,
        cluster: &ClusterSpec,
        tp: u32,
        slo: SloSpec,
        budget: u64,
    ) -> ChunkedPrefill {
        let pool_capacity = kv_pool_capacity_tokens(cluster, model, cluster.num_gpus, tp, 0.0);
        assert!(pool_capacity > 0, "model does not fit on this cluster");
        let _ = slo; // the budget already encodes the SLO target
        ChunkedPrefill {
            model: model.clone(),
            par: Parallelism::tp(tp, cluster.nvlink_gbs),
            budget,
            nano: false,
            pool_capacity,
            group: None,
            ctx_id: None,
            table: None,
            lifecycle: Lifecycle::new(),
            waiting: VecDeque::new(),
            prefilling: VecDeque::new(),
            decode: DecodeBatch::new(),
            inflight: None,
            down: false,
            ctx_scratch: Vec::new(),
            victim_scratch: Vec::new(),
            retired_scratch: Vec::new(),
            pieces_spare: Vec::new(),
            macro_steps: true,
            macro_armed: false,
            decode_iters: 0,
            coalesced_iters: 0,
        }
    }

    /// Creates the scheduler with the SARATHI-Serve methodology: the
    /// largest budget whose fused-iteration latency (reference decode
    /// batch of 32, 1 K reused context) meets the TBT target, determined
    /// offline (§4.1).
    pub fn tuned(
        model: &ModelSpec,
        cluster: &ClusterSpec,
        tp: u32,
        slo: SloSpec,
    ) -> ChunkedPrefill {
        let budget = tune_token_budget(model, cluster, tp, &slo);
        ChunkedPrefill::with_budget(model, cluster, tp, slo, budget)
    }

    /// NanoFlow: same scheduling, nano-batch execution model.
    pub fn nanoflow(
        model: &ModelSpec,
        cluster: &ClusterSpec,
        tp: u32,
        slo: SloSpec,
    ) -> ChunkedPrefill {
        let mut c = ChunkedPrefill::tuned(model, cluster, tp, slo);
        c.nano = true;
        c
    }

    /// The active token budget.
    pub fn budget(&self) -> u64 {
        self.budget
    }

    /// KV-pool hit statistics.
    pub fn pool_stats(&self) -> Option<kvcache::PoolStats> {
        self.table.as_ref().map(|t| t.stats())
    }

    /// Requests dropped because they could never fit the pool.
    pub fn dropped(&self) -> u64 {
        self.lifecycle.counters().drops
    }

    /// Read access to the shared pool (for invariant checks in tests).
    pub fn pool(&self) -> Option<&KvPool> {
        self.table.as_ref().map(|t| t.pool())
    }

    fn admit_waiting(&mut self, ctx: &mut ServeCtx) {
        if self.down {
            return;
        }
        while let Some(&id) = self.waiting.front() {
            if self.prefilling.len() >= 64 {
                break;
            }
            let spec = ctx.request(id).clone();
            let table = self.table.as_mut().expect("table");
            let blocks = spec.content.blocks(table.block_size());
            let lease = table.lease_prefix(&blocks, ctx.now());
            table.readmit(id, &blocks);
            let cached = lease.matched_tokens();
            self.waiting.pop_front();
            self.lifecycle.admit(id);
            self.prefilling.push_back(PrefillProgress {
                id,
                lease,
                cached,
                total_new: spec.input_tokens() - cached,
                done_new: 0,
            });
        }
    }

    // simlint: hot
    fn launch_iteration(&mut self, ctx: &mut ServeCtx) {
        if self.inflight.is_some() || self.down {
            return;
        }
        let (group, c) = match (self.group, self.ctx_id) {
            (Some(g), Some(c)) => (g, c),
            _ => return,
        };
        if self.decode.is_empty() && self.prefilling.is_empty() {
            return;
        }
        // Macro fast path: the previous launch proved the engine
        // quiescent (decode-only, nothing waiting or prefilling), so the
        // chunk-assembly prelude can be skipped and the cached context
        // scratch advanced in place. Any deviation (victims, arrivals,
        // retirements) disarms and demotes to the full path below.
        let mut fast = self.macro_armed;
        self.macro_armed = false;
        let now = ctx.now();
        // Grow decode KV by one token per sequence; requeue victims when
        // the pool is exhausted (their leases return through the table —
        // re-admission re-matches the radix tree fresh, so `cached` can
        // never go stale).
        let table = self.table.as_mut().expect("table");
        self.decode
            .grow_for_iteration_into(table, now, &mut self.victim_scratch);
        if !self.victim_scratch.is_empty() {
            // Requeues repopulate `waiting`: full prelude required.
            fast = false;
            for i in 0..self.victim_scratch.len() {
                let id = self.victim_scratch[i];
                self.waiting.push_front(id);
                self.lifecycle.requeue(id);
            }
        }

        // Assemble the fused batch: decode first, then a chunk within the
        // remaining budget. The pieces buffer cycles through `inflight`
        // and back via `pieces_spare`, so this allocates nothing steady
        // state.
        let bs = self.decode.len() as u64;
        let mut pieces: Vec<(ReqId, u64)> = std::mem::take(&mut self.pieces_spare);
        pieces.clear();
        let mut chunk_work = WorkItem::empty(KernelKind::Fused);
        if fast {
            // Unchanged slot set: every context advanced by exactly one
            // token since the scratch was built, and an armed launch
            // implies no prefill chunks, so the loop below would
            // contribute nothing.
            debug_assert!(
                self.prefilling.is_empty()
                    && self.waiting.is_empty()
                    && self.ctx_scratch.len() == self.decode.len(),
                "macro arm invariants violated"
            );
            for c in &mut self.ctx_scratch {
                *c += 1;
            }
            self.coalesced_iters += 1;
        } else {
            let mut chunk_left = self.budget.saturating_sub(bs);
            for p in self.prefilling.iter_mut() {
                if chunk_left == 0 {
                    break;
                }
                let need = p.total_new - p.done_new;
                if need == 0 {
                    // Fully-cached prompt (e.g. a requeued crash victim
                    // whose committed prefix covers every block): nothing
                    // to compute, but it must ride this iteration as a
                    // zero-token piece so the completion path retires it.
                    pieces.push((p.id, 0));
                    continue;
                }
                let take = chunk_left.min(need);
                let table = self.table.as_mut().expect("table");
                if !table.try_alloc_private(take, now) {
                    break;
                }
                p.lease.absorb_private(take);
                // The chunk re-reads the KV of everything before it —
                // cached prefix plus all earlier chunks (§2.3.2's
                // repetitive access).
                let seq = SeqState::new(take, p.cached + p.done_new);
                chunk_work = chunk_work.plus(&self.model.prefill_full_work(&[seq], &self.par));
                pieces.push((p.id, take));
                chunk_left -= take;
            }

            if bs == 0 && pieces.is_empty() {
                self.pieces_spare = pieces;
                // Pool exhausted with nothing running: drop the head
                // request (cannot ever fit) to stay live.
                if self.decode.is_empty() && self.inflight.is_none() {
                    if let Some(p) = self.prefilling.pop_front() {
                        self.table.as_mut().expect("table").release(p.lease);
                        ctx.finish_request(p.id);
                        self.lifecycle.drop_request(p.id);
                    }
                }
                return;
            }

            self.ctx_scratch.clear();
            self.ctx_scratch.extend(self.decode.contexts());
        }
        if bs > 0 {
            self.decode_iters += 1;
        }
        let chunk_tokens: u64 = pieces.iter().map(|&(_, t)| t).sum();
        let mut work = chunk_work;
        if !self.ctx_scratch.is_empty() {
            work = work.plus(&self.model.decode_iter_work(&self.ctx_scratch, &self.par));
        }
        work.kind = KernelKind::Fused;
        if self.nano {
            // Nano-batch overlap: the fused pass streams the weights
            // twice (one extra load per iteration), and splitting the
            // chunk in two only pays off when each half still saturates
            // the compute (NanoFlow's design point is a ≥1024 budget —
            // below it, the halves underutilize the tensor cores).
            if chunk_tokens >= 1024 {
                work.flops /= 1.12;
            } else {
                work.flops *= 1.18;
            }
            work.bytes += self.model.weight_bytes_per_gpu(self.par.tp);
        }
        let spec = ctx.gpu.spec();
        let mut launch = spec.graph_launch;
        if !pieces.is_empty() {
            // A chunk relaunches the whole model pass piecewise.
            launch += SimDuration::from_secs(
                spec.layer_graph_launch.as_secs() * self.model.num_layers as f64,
            );
        }
        let ready = now + launch;
        ctx.gpu.submit(group, c, work, ready, 1);
        // Re-arm for the next iteration only in the quiescent decode-only
        // regime: no chunk rode this launch and nothing is waiting to.
        self.macro_armed = self.macro_steps
            && bs > 0
            && pieces.is_empty()
            && self.prefilling.is_empty()
            && self.waiting.is_empty();
        self.inflight = Some(pieces);
    }

    /// Retries what a down group or a smaller pool blocked (after a
    /// recovery, and on every fault-window change).
    fn resume(&mut self, ctx: &mut ServeCtx) {
        self.admit_waiting(ctx);
        self.launch_iteration(ctx);
    }

    // simlint: hot
    fn on_iteration_done(&mut self, ctx: &mut ServeCtx) {
        let pieces = self.inflight.take().unwrap_or_default();
        // Decode side: one token each.
        let mut retired = std::mem::take(&mut self.retired_scratch);
        self.decode.advance_iteration_into(ctx, &mut retired);
        if !retired.is_empty() {
            // The slot set changed: the cached context scratch no longer
            // describes the batch.
            self.macro_armed = false;
        }
        let table = self.table.as_mut().expect("table");
        for slot in retired.drain(..) {
            retire(table, &mut self.lifecycle, ctx, slot);
        }
        self.retired_scratch = retired;
        // Prefill side: advance chunk progress; completed prompts join
        // the decode batch immediately (inflight batching).
        for &(id, tokens) in &pieces {
            if let Some(pos) = self.prefilling.iter().position(|p| p.id == id) {
                self.prefilling[pos].done_new += tokens;
                if self.prefilling[pos].done_new >= self.prefilling[pos].total_new {
                    let p = self.prefilling.remove(pos).expect("present");
                    let table = self.table.as_mut().expect("table");
                    if let Some(slot) = join_decode(table, &mut self.lifecycle, ctx, p.id, p.lease)
                    {
                        // Even when the batch is full, park the finished
                        // prefill as a zero-progress decode candidate for
                        // the next round.
                        self.decode.push(slot);
                    }
                }
            }
        }
        self.pieces_spare = pieces;
        self.admit_waiting(ctx);
        self.launch_iteration(ctx);
    }
}

impl Scheduler for ChunkedPrefill {
    fn on_start(&mut self, ctx: &mut ServeCtx) {
        let gpus: Vec<u32> = (0..ctx.gpu.num_gpus()).collect();
        let group = ctx.gpu.create_group(gpus);
        let sms = ctx.gpu.spec().sm_count;
        self.ctx_id = Some(ctx.gpu.set_context(group, sms));
        self.group = Some(group);
        self.table = Some(LeaseTable::new(self.pool_capacity, 64));
    }

    fn on_arrival(&mut self, id: ReqId, ctx: &mut ServeCtx) {
        self.macro_armed = false;
        self.waiting.push_back(id);
        self.admit_waiting(ctx);
        self.launch_iteration(ctx);
    }

    fn on_kernel_done(&mut self, _tag: u64, ctx: &mut ServeCtx) {
        self.on_iteration_done(ctx);
    }

    fn groups(&self) -> Vec<GroupId> {
        self.group.into_iter().collect()
    }

    fn streams(&self) -> Vec<(GroupId, CtxId)> {
        match (self.group, self.ctx_id) {
            (Some(g), Some(c)) => vec![(g, c)],
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
        self.macro_steps = on;
        self.macro_armed = false;
    }

    fn lease_tables(&self) -> Vec<&LeaseTable> {
        self.table.iter().collect()
    }

    fn lease_tables_mut(&mut self) -> Vec<&mut LeaseTable> {
        self.table.iter_mut().collect()
    }

    fn on_shed(&mut self, id: ReqId, _ctx: &mut ServeCtx) -> bool {
        self.lifecycle.shed_waiting(&mut self.waiting, id)
    }

    fn on_gpu_lost(
        &mut self,
        _gpu: u32,
        _cancelled: &[u64],
        ctx: &mut ServeCtx,
    ) -> Vec<CrashVictim> {
        // One lockstep group spans every GPU: a single device death
        // halts the whole engine and loses all device-resident KV.
        self.down = true;
        self.inflight = None;
        self.macro_armed = false;
        let mut victims = Vec::new();
        // Chunked prefill has no layer checkpoints — chunk progress dies
        // with the device, so every victim re-prefills in full.
        let table = self.table.as_mut().expect("table");
        for p in std::mem::take(&mut self.prefilling) {
            table.revoke(p.id, p.lease, &ctx.request(p.id).content);
            self.lifecycle.requeue(p.id);
            victims.push(CrashVictim::reprefill(p.id, p.done_new));
        }
        for slot in self.decode.drain() {
            table.revoke(slot.id, slot.lease, &ctx.request(slot.id).content);
            self.lifecycle.requeue(slot.id);
            victims.push(CrashVictim::reprefill(slot.id, slot.context));
        }
        victims
    }

    fn on_gpu_recovered(&mut self, _gpu: u32, ctx: &mut ServeCtx) {
        if let Some(group) = self.group {
            if ctx.gpu.group_has_dead_gpu(group) {
                return;
            }
        }
        self.down = false;
        self.macro_armed = false;
        self.resume(ctx);
    }

    fn on_fault(&mut self, _active: &[FaultKind], ctx: &mut ServeCtx) {
        self.resume(ctx);
    }
}

/// The offline budget-tuning probe: largest budget whose fused iteration
/// (decode bs = 32, 1 K contexts, chunk filling the rest of the budget)
/// meets the TBT target on the full GPU.
pub fn tune_token_budget(model: &ModelSpec, cluster: &ClusterSpec, tp: u32, slo: &SloSpec) -> u64 {
    let sim = GpuSim::from_cluster(cluster);
    let par = Parallelism::tp(tp, cluster.nvlink_gbs);
    let sms = cluster.gpu.sm_count;
    for &budget in &BUDGETS {
        let t = fused_probe_latency(model, &sim, &par, sms, budget, cluster);
        if t <= slo.tbt.as_secs() * 0.9 {
            return budget;
        }
    }
    *BUDGETS.last().expect("non-empty")
}

/// Latency of one reference fused iteration at the given budget
/// (regenerates Fig. 6a when swept over budgets).
pub fn fused_probe_latency(
    model: &ModelSpec,
    sim: &GpuSim,
    par: &Parallelism,
    sms: u32,
    budget: u64,
    cluster: &ClusterSpec,
) -> f64 {
    let chunk = budget.saturating_sub(TUNE_BS as u64).max(1);
    let decode = model.decode_iter_work(&vec![TUNE_CTX; TUNE_BS], par);
    let prefill = model.prefill_full_work(&[SeqState::new(chunk, TUNE_CTX)], par);
    let mut work = decode.plus(&prefill);
    work.kind = KernelKind::Fused;
    let launch = cluster.gpu.graph_launch.as_secs()
        + cluster.gpu.layer_graph_launch.as_secs() * model.num_layers as f64;
    sim.solo_duration(sms, &work) + launch
}

#[cfg(test)]
mod tests {
    use super::*;
    use serving::Driver;
    use simcore::SimRng;
    use workload::{generate, WorkloadKind};

    #[test]
    fn tuned_budget_meets_tbt_at_reference_point() {
        let cluster = ClusterSpec::dgx_a100();
        let model = ModelSpec::llama70b();
        let slo = SloSpec::llama70b();
        let budget = tune_token_budget(&model, &cluster, 8, &slo);
        // The paper's tuned budget for a 100 ms TBT target on Llama-70B
        // is 256 (§1: "8× larger than the SLO-compliant budget (256)").
        assert!(
            (128..=512).contains(&budget),
            "tuned budget {budget} far from the paper's 256"
        );
    }

    #[test]
    fn budget_sweet_spot_shape_matches_fig6a() {
        // Latency grows slowly until the GPU saturates (~4K), and the
        // 4K-budget latency lands near the paper's 505 ms.
        let cluster = ClusterSpec::dgx_a100();
        let model = ModelSpec::llama70b();
        let sim = GpuSim::from_cluster(&cluster);
        let par = Parallelism::tp(8, cluster.nvlink_gbs);
        let t_4k = fused_probe_latency(&model, &sim, &par, 108, 4096, &cluster);
        let t_256 = fused_probe_latency(&model, &sim, &par, 108, 256, &cluster);
        assert!(
            (0.3..0.8).contains(&t_4k),
            "4K-budget fused latency {t_4k}s should be near 0.5s"
        );
        assert!(t_256 < 0.1, "256-budget latency {t_256}s must meet 100ms");
    }

    #[test]
    fn completes_sharegpt() {
        let cluster = ClusterSpec::dgx_a100();
        let model = ModelSpec::llama8b();
        let slo = SloSpec::llama8b();
        let mut engine = ChunkedPrefill::tuned(&model, &cluster, 8, slo);
        let mut rng = SimRng::seed_from(3);
        let reqs = generate(WorkloadKind::ShareGpt, 100, 4.0, &mut rng);
        let rep = Driver::new(GpuSim::from_cluster(&cluster), reqs, slo).run(&mut engine);
        assert_eq!(rep.finished, rep.total);
        assert!(rep.tbt.len() > 1000);
    }

    #[test]
    fn long_reused_context_inflates_tbt() {
        // Fig. 6b's mechanism: with the budget fixed, a chunk dragging a
        // long reused context inflates the fused iteration beyond SLO.
        let cluster = ClusterSpec::dgx_a100();
        let model = ModelSpec::llama70b();
        let par = Parallelism::tp(8, cluster.nvlink_gbs);
        let sim = GpuSim::from_cluster(&cluster);
        let iteration = |reused: u64| {
            let decode = model.decode_iter_work(&vec![1024; 32], &par);
            let chunk = model.prefill_full_work(&[SeqState::new(512, reused)], &par);
            let mut fused = decode.plus(&chunk);
            fused.kind = KernelKind::Fused;
            sim.solo_duration(108, &fused)
        };
        let short = iteration(1024);
        let long = iteration(65_536);
        assert!(
            long > short * 1.5,
            "reused context must inflate TBT: {short} → {long}"
        );
        assert!(long > 0.100, "64K reused context should violate 100ms SLO");
    }

    #[test]
    fn nanoflow_pays_weight_reload_when_memory_bound() {
        let cluster = ClusterSpec::dgx_a100();
        let model = ModelSpec::llama70b();
        let slo = SloSpec::llama70b();
        let chunked = ChunkedPrefill::tuned(&model, &cluster, 8, slo);
        let nano = ChunkedPrefill::nanoflow(&model, &cluster, 8, slo);
        assert_eq!(chunked.budget(), nano.budget(), "same budget methodology");
        assert!(nano.nano);
    }

    #[test]
    fn multi_turn_reuse_via_shared_pool() {
        let cluster = ClusterSpec::dgx_a100();
        let model = ModelSpec::llama8b();
        let slo = SloSpec::llama8b();
        let mut engine = ChunkedPrefill::tuned(&model, &cluster, 8, slo);
        let mut rng = SimRng::seed_from(5);
        let reqs = generate(WorkloadKind::Conversation, 50, 1.0, &mut rng);
        let rep = Driver::new(GpuSim::from_cluster(&cluster), reqs, slo).run(&mut engine);
        assert_eq!(rep.finished, rep.total);
        let stats = engine.pool_stats().expect("pool");
        assert!(stats.hit_rate() > 0.2, "hit rate {}", stats.hit_rate());
    }
}
