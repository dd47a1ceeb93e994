//! Hybrid disaggregation (§5 "Large-scale deployment"): a static
//! prefill/decode split in which the **decode instance multiplexes
//! prefill onto its idle SMs**, MuxWise-style.
//!
//! The paper argues MuxWise is complementary to disaggregated
//! deployments: low-utilization decode instances can absorb prefill work
//! through spatial multiplexing. This scheduler implements that design
//! point: prefill requests go to the dedicated prefill instance first;
//! when it is backlogged, overflow prefills run on the decode instance's
//! spare partition (the decode SLO still guarded by a worst-case
//! estimate).

use std::collections::{HashMap, VecDeque};

use estimator::{ContentionGuard, GuardQuery, SoloPredictor};
use gpusim::{ClusterSpec, CtxId, GroupId};
use modelspec::{ModelSpec, Parallelism, SeqState};
use serving::lease::{LeaseTable, LeasedPrompt};
use serving::lifecycle::{EngineCounters, Lifecycle};
use serving::{
    kv_pool_capacity_tokens, launch_prefill_phase, CrashVictim, DecodeSide, FaultKind, Handoff,
    ReqId, Scheduler, ServeCtx, SloSpec, MAX_PREFILL_BATCH_REQUESTS, MAX_PREFILL_BATCH_TOKENS,
};

/// Tag name space.
const TAG_DECODE: u64 = u64::MAX;
const TAG_P_INSTANCE: u64 = u64::MAX - 1;

/// The hybrid scheduler. See the [module docs](self).
#[derive(Debug)]
pub struct HybridPd {
    model: ModelSpec,
    par: Parallelism,
    slo: SloSpec,
    predictor: SoloPredictor,
    guard: ContentionGuard,
    p_pool_capacity: u64,
    d_pool_capacity: u64,
    /// Queue length (in uncached tokens) beyond which prefill overflows
    /// to the decode instance.
    overflow_threshold_tokens: u64,

    p_group: Option<GroupId>,
    p_ctx: Option<CtxId>,
    d_group: Option<GroupId>,
    d_decode_ctx: Option<CtxId>,
    d_prefill_ctx: Option<CtxId>,
    decode_sms: u32,
    p_table: Option<LeaseTable>,
    d_table: Option<LeaseTable>,
    lifecycle: Lifecycle,

    waiting: VecDeque<ReqId>,
    p_inflight: Option<Vec<LeasedPrompt>>,
    /// Overflow prefill running multiplexed on the decode instance.
    mux_inflight: Option<LeasedPrompt>,
    next_mux_tag: u64,
    mux_tags: HashMap<u64, ()>,
    /// The decode instance; while it is down, decode and overflow
    /// prefill launches halt.
    decode: DecodeSide,
    next_transfer_tag: u64,
    overflow_count: u64,
    /// The prefill instance lost a device; instance prefills halt.
    p_down: bool,
}

impl HybridPd {
    /// Creates the hybrid scheduler on a half/half split.
    ///
    /// # Panics
    ///
    /// Panics if the model does not fit a half-cluster instance.
    pub fn new(
        model: &ModelSpec,
        cluster: &ClusterSpec,
        slo: SloSpec,
        predictor: SoloPredictor,
        guard: ContentionGuard,
    ) -> HybridPd {
        let half = cluster.num_gpus / 2;
        assert!(half > 0, "need at least two GPUs");
        let capacity = kv_pool_capacity_tokens(cluster, model, half, half, 0.0);
        assert!(
            capacity > 0,
            "model does not fit on a half-cluster instance"
        );
        HybridPd {
            model: model.clone(),
            par: Parallelism::tp(half, cluster.nvlink_gbs),
            slo,
            predictor,
            guard,
            p_pool_capacity: capacity,
            d_pool_capacity: capacity,
            overflow_threshold_tokens: 8_192,
            p_group: None,
            p_ctx: None,
            d_group: None,
            d_decode_ctx: None,
            d_prefill_ctx: None,
            decode_sms: 0,
            p_table: None,
            d_table: None,
            lifecycle: Lifecycle::default(),
            waiting: VecDeque::new(),
            p_inflight: None,
            mux_inflight: None,
            next_mux_tag: 1,
            mux_tags: HashMap::new(),
            decode: DecodeSide::new(),
            next_transfer_tag: 1_000_000,
            overflow_count: 0,
            p_down: false,
        }
    }

    /// Prefills absorbed by the decode instance's spare SMs.
    pub fn overflow_prefills(&self) -> u64 {
        self.overflow_count
    }

    fn queued_uncached_tokens(&self, ctx: &ServeCtx) -> u64 {
        let table = self.p_table.as_ref().expect("table");
        self.waiting
            .iter()
            .map(|&id| {
                let spec = ctx.request(id);
                let blocks = spec.content.blocks(table.block_size());
                spec.input_tokens() - table.peek_prefix(&blocks)
            })
            .sum()
    }

    fn try_dispatch_prefills(&mut self, ctx: &mut ServeCtx) {
        self.try_start_instance_prefill(ctx);
        // Overflow path: backlogged and the decode instance has spare SMs.
        if self.mux_inflight.is_none()
            && !self.waiting.is_empty()
            && self.queued_uncached_tokens(ctx) > self.overflow_threshold_tokens
        {
            self.try_start_mux_prefill(ctx);
        }
    }

    fn try_start_instance_prefill(&mut self, ctx: &mut ServeCtx) {
        if self.p_inflight.is_some() || self.waiting.is_empty() || self.p_down {
            return;
        }
        let mut reqs = Vec::new();
        let mut new_total = 0u64;
        while let Some(&id) = self.waiting.front() {
            // The batch stops once it holds more than the token cap, so
            // its last prompt may overshoot it.
            if reqs.len() >= MAX_PREFILL_BATCH_REQUESTS || new_total > MAX_PREFILL_BATCH_TOKENS {
                break;
            }
            let spec = ctx.request(id);
            let input = spec.input_tokens();
            let table = self.p_table.as_mut().expect("table");
            let blocks = spec.content.blocks(table.block_size());
            let new_tokens = input - table.peek_prefix(&blocks);
            let Some(r) = table.lease_prompt(id, &blocks, input, new_tokens, ctx.now()) else {
                if reqs.is_empty() && self.decode.batch().is_empty() && self.mux_inflight.is_none()
                {
                    self.waiting.pop_front();
                    ctx.finish_request(id);
                    self.lifecycle.drop_request(id);
                    continue;
                }
                break;
            };
            new_total += r.seq.new_tokens;
            self.waiting.pop_front();
            self.lifecycle.admit(id);
            reqs.push(r);
        }
        if reqs.is_empty() {
            return;
        }
        let batch: Vec<SeqState> = reqs.iter().map(|r| r.seq).collect();
        let (g, c) = (self.p_group.expect("started"), self.p_ctx.expect("started"));
        launch_prefill_phase(ctx, &self.model, g, c, &batch, &self.par, TAG_P_INSTANCE);
        self.p_inflight = Some(reqs);
    }

    /// Runs one overflow prefill on the decode instance's prefill
    /// partition (spatially multiplexed with decode).
    fn try_start_mux_prefill(&mut self, ctx: &mut ServeCtx) {
        if self.decode.is_down() {
            return;
        }
        let Some(&id) = self.waiting.front() else {
            return;
        };
        let input = ctx.request(id).input_tokens();
        let table = self.d_table.as_mut().expect("table");
        // The multiplexed prefill computes into the decode pool directly
        // (no migration needed afterwards); +1 covers the first generated
        // token's KV entry.
        let Some(lease) = table.try_lease_private(input + 1, ctx.now()) else {
            return;
        };
        self.waiting.pop_front();
        self.lifecycle.admit(id);
        // No cross-instance cache: the decode side recomputes the full
        // input.
        let seq = SeqState::new(input, 0);
        let (g, c) = (
            self.d_group.expect("started"),
            self.d_prefill_ctx.expect("started"),
        );
        let tag = self.next_mux_tag;
        self.next_mux_tag += 1;
        self.mux_tags.insert(tag, ());
        launch_prefill_phase(ctx, &self.model, g, c, &[seq], &self.par, tag);
        self.mux_inflight = Some(LeasedPrompt { id, seq, lease });
        self.overflow_count += 1;
    }

    fn on_instance_prefill_done(&mut self, ctx: &mut ServeCtx) {
        let reqs = self.p_inflight.take().expect("in flight");
        for r in reqs {
            let table = self.p_table.as_mut().expect("table");
            let blocks = ctx.request(r.id).content.blocks(table.block_size());
            table.release_and_commit(r.lease, &blocks, ctx.now());
            let tag = self.next_transfer_tag;
            self.next_transfer_tag += 1;
            // The decode pool allocates a migrated context at admission.
            self.decode
                .send(ctx, tag, r.id, &self.model, self.par.tp, false);
        }
        self.try_dispatch_prefills(ctx);
    }

    fn on_mux_prefill_done(&mut self, ctx: &mut ServeCtx) {
        let r = self.mux_inflight.take().expect("in flight");
        if ctx.tokens_emitted(r.id) == 0 {
            ctx.emit_tokens(r.id, 1);
        }
        // Already resident in the decode pool; admit directly. The KV
        // stays raw in the table across the handoff and is re-wrapped
        // into a lease when the decode slot forms.
        let context = self.d_table.as_mut().expect("table").detach(r.lease);
        self.decode.queue(Handoff {
            id: r.id,
            context,
            reserved: true,
        });
        self.resume(ctx);
    }

    /// Chooses the decode partition: smallest configuration meeting the
    /// worst-case TBT, considering the multiplexed prefill as co-runner.
    fn desired_decode_sms(&self, ctx: &ServeCtx) -> u32 {
        let configs = ctx.gpu.spec().partition_configs();
        if self.decode.batch().is_empty() {
            return configs[0];
        }
        let batch = self.decode.batch();
        let budget =
            self.slo.tbt.as_secs() * SloSpec::TBT_MARGIN - ctx.gpu.spec().graph_launch.as_secs();
        for &sms in &configs {
            let solo = self
                .predictor
                .decode_latency_agg(sms, batch.context_sum(), batch.len());
            let q = GuardQuery {
                prefill_new: self
                    .mux_inflight
                    .as_ref()
                    .map(|r| r.seq.new_tokens)
                    .unwrap_or(0),
                prefill_reused: 0,
                decode_batch: batch.len(),
                decode_context: batch.context_sum() / batch.len() as u64,
                decode_sms: sms,
            };
            if solo * self.guard.factor(&q) <= budget {
                return sms;
            }
        }
        *configs.last().expect("non-empty")
    }

    /// Admits landed contexts and launches the next decode iteration.
    /// Migrated contexts buffer without allocations while the decode
    /// instance is down, so a permanent crash leaks nothing.
    fn step_decode(&mut self, ctx: &mut ServeCtx) {
        let table = self.d_table.as_mut().expect("table");
        self.decode.admit(table, &mut self.lifecycle, ctx);
        if !self
            .decode
            .grow(table, &mut self.waiting, &mut self.lifecycle, ctx.now())
        {
            return;
        }
        // Re-partition the decode instance when possible.
        let desired = self.desired_decode_sms(ctx);
        let (g, dc, pc) = (
            self.d_group.expect("started"),
            self.d_decode_ctx.expect("started"),
            self.d_prefill_ctx.expect("started"),
        );
        if desired != self.decode_sms && ctx.gpu.is_idle(g, dc) && ctx.gpu.is_idle(g, pc) {
            let sm_count = ctx.gpu.spec().sm_count;
            if desired < self.decode_sms {
                ctx.gpu.resize_context(g, dc, desired);
                ctx.gpu.resize_context(g, pc, sm_count - desired);
            } else {
                ctx.gpu.resize_context(g, pc, sm_count - desired);
                ctx.gpu.resize_context(g, dc, desired);
            }
            self.decode_sms = desired;
        }
        let work = self.decode.iteration_work(&self.model, &self.par);
        self.decode.launch(ctx, g, dc, work, TAG_DECODE);
    }

    fn on_decode_done(&mut self, ctx: &mut ServeCtx) {
        let table = self.d_table.as_mut().expect("table");
        self.decode.iteration_done(table, &mut self.lifecycle, ctx);
        self.resume(ctx);
    }

    /// Admits and launches whatever can run now: decode first, then
    /// prefill. Runs after each decode iteration and overflow prefill, a
    /// recovery, and every fault-window change (a closing shrink frees
    /// space silently).
    fn resume(&mut self, ctx: &mut ServeCtx) {
        self.step_decode(ctx);
        self.try_dispatch_prefills(ctx);
    }

    /// Books one decode-instance crash victim: protects whatever prompt
    /// prefix the prefill pool has cached and requeues for re-prefill.
    fn revoke_decode_victim(&mut self, id: ReqId, context: u64, ctx: &mut ServeCtx) -> CrashVictim {
        let p_table = self.p_table.as_mut().expect("table");
        p_table.protect(id, &ctx.request(id).content);
        self.lifecycle.requeue(id);
        CrashVictim::reprefill(id, context)
    }
}

impl Scheduler for HybridPd {
    fn on_start(&mut self, ctx: &mut ServeCtx) {
        let n = ctx.gpu.num_gpus();
        let half = n / 2;
        let sms = ctx.gpu.spec().sm_count;
        let pg = ctx.gpu.create_group((0..half).collect());
        let dg = ctx.gpu.create_group((half..n).collect());
        self.p_ctx = Some(ctx.gpu.set_context(pg, sms));
        self.decode_sms = ctx.gpu.spec().partition_configs()[0];
        self.d_decode_ctx = Some(ctx.gpu.set_context(dg, self.decode_sms));
        self.d_prefill_ctx = Some(ctx.gpu.set_context(dg, sms - self.decode_sms));
        self.p_group = Some(pg);
        self.d_group = Some(dg);
        self.decode.connect(ctx);
        self.p_table = Some(LeaseTable::new(self.p_pool_capacity, 64));
        self.d_table = Some(LeaseTable::new(self.d_pool_capacity, 64));
    }

    fn on_arrival(&mut self, id: ReqId, ctx: &mut ServeCtx) {
        self.waiting.push_back(id);
        self.try_dispatch_prefills(ctx);
    }

    fn on_kernel_done(&mut self, tag: u64, ctx: &mut ServeCtx) {
        if tag == TAG_DECODE {
            self.on_decode_done(ctx);
        } else if tag == TAG_P_INSTANCE {
            self.on_instance_prefill_done(ctx);
        } else if self.mux_tags.remove(&tag).is_some() {
            self.on_mux_prefill_done(ctx);
        }
    }

    fn on_transfer_done(&mut self, tag: u64, ctx: &mut ServeCtx) {
        if self.decode.landed(tag) {
            self.step_decode(ctx);
        }
    }

    fn groups(&self) -> Vec<GroupId> {
        self.p_group.into_iter().chain(self.d_group).collect()
    }

    fn streams(&self) -> Vec<(GroupId, CtxId)> {
        let mut v = Vec::new();
        if let (Some(g), Some(c)) = (self.p_group, self.p_ctx) {
            v.push((g, c));
        }
        if let (Some(g), Some(c)) = (self.d_group, self.d_decode_ctx) {
            v.push((g, c));
        }
        v
    }

    fn counters(&self) -> EngineCounters {
        self.lifecycle.counters()
    }

    fn lease_tables(&self) -> Vec<&LeaseTable> {
        self.p_table.iter().chain(self.d_table.iter()).collect()
    }

    fn lease_tables_mut(&mut self) -> Vec<&mut LeaseTable> {
        self.p_table
            .iter_mut()
            .chain(self.d_table.iter_mut())
            .collect()
    }

    fn on_shed(&mut self, id: ReqId, _ctx: &mut ServeCtx) -> bool {
        self.lifecycle.shed_waiting(&mut self.waiting, id)
    }

    fn on_gpu_lost(
        &mut self,
        gpu: u32,
        _cancelled: &[u64],
        ctx: &mut ServeCtx,
    ) -> Vec<CrashVictim> {
        let half = ctx.gpu.num_gpus() / 2;
        let mut victims = Vec::new();
        if gpu < half {
            // Prefill instance died: only the in-flight instance batch is
            // lost; the decode instance (and any overflow prefill it is
            // multiplexing) carries on.
            self.p_down = true;
            let p_table = self.p_table.as_mut().expect("table");
            for r in self.p_inflight.take().into_iter().flatten() {
                p_table.revoke(r.id, r.lease, &ctx.request(r.id).content);
                self.lifecycle.requeue(r.id);
                victims.push(CrashVictim::reprefill(r.id, r.seq.new_tokens));
            }
        } else {
            // Decode instance died: the multiplexed overflow prefill,
            // the decode batch and every context parked for admission
            // or in transit lose their device-resident KV.
            self.mux_tags.clear();
            if let Some(r) = self.mux_inflight.take() {
                self.d_table.as_mut().expect("table").release(r.lease);
                let v = self.revoke_decode_victim(r.id, r.seq.new_tokens, ctx);
                victims.push(v);
            }
            let d_table = self.d_table.as_mut().expect("table");
            for (id, context) in self.decode.crash(d_table) {
                victims.push(self.revoke_decode_victim(id, context, ctx));
            }
        }
        victims
    }

    fn on_gpu_recovered(&mut self, gpu: u32, ctx: &mut ServeCtx) {
        let prefill_side = gpu < ctx.gpu.num_gpus() / 2;
        let group = if prefill_side {
            self.p_group
        } else {
            self.d_group
        };
        if group.is_some_and(|g| ctx.gpu.group_has_dead_gpu(g)) {
            return;
        }
        if prefill_side {
            self.p_down = false;
        } else {
            self.decode.recover();
        }
        self.resume(ctx);
    }

    fn on_fault(&mut self, _active: &[FaultKind], ctx: &mut ServeCtx) {
        self.resume(ctx);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gpusim::GpuSim;
    use serving::Driver;
    use simcore::SimRng;
    use workload::{generate, WorkloadKind};

    fn build() -> (ModelSpec, ClusterSpec, SloSpec, HybridPd) {
        let cluster = ClusterSpec::dgx_a100();
        let model = ModelSpec::llama8b();
        let slo = SloSpec::llama8b();
        let par = Parallelism::tp(4, cluster.nvlink_gbs);
        let predictor = SoloPredictor::profile(&model, &cluster, &par, &[16, 48, 92, 108]);
        let guard = ContentionGuard::flat(1.2);
        let engine = HybridPd::new(&model, &cluster, slo, predictor, guard);
        (model, cluster, slo, engine)
    }

    #[test]
    fn completes_and_absorbs_overflow() {
        let (_, cluster, slo, mut engine) = build();
        let mut rng = SimRng::seed_from(61);
        // High rate: the prefill instance backlogs, overflow kicks in.
        let reqs = generate(WorkloadKind::Conversation, 120, 8.0, &mut rng);
        let rep = Driver::new(GpuSim::from_cluster(&cluster), reqs, slo).run(&mut engine);
        assert_eq!(rep.finished, rep.total);
        assert!(
            engine.overflow_prefills() > 0,
            "overflow multiplexing never engaged"
        );
    }

    #[test]
    fn decode_slo_holds_despite_multiplexed_prefill() {
        let (_, cluster, slo, mut engine) = build();
        let mut rng = SimRng::seed_from(62);
        let reqs = generate(WorkloadKind::ToolAgent, 100, 6.0, &mut rng);
        let rep = Driver::new(GpuSim::from_cluster(&cluster), reqs, slo).run(&mut engine);
        assert_eq!(rep.finished, rep.total);
        assert!(
            rep.tbt.p99() <= slo.tbt.as_secs() * 1.1,
            "p99 TBT {} under overflow multiplexing",
            rep.tbt.p99()
        );
    }

    #[test]
    fn light_load_never_overflows() {
        let (_, cluster, slo, mut engine) = build();
        let mut rng = SimRng::seed_from(63);
        let reqs = generate(WorkloadKind::ShareGpt, 30, 0.5, &mut rng);
        let rep = Driver::new(GpuSim::from_cluster(&cluster), reqs, slo).run(&mut engine);
        assert_eq!(rep.finished, rep.total);
        assert_eq!(engine.overflow_prefills(), 0);
    }
}
