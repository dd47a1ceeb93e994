//! Related-work multiplexing variants evaluated in §6 of the paper.
//!
//! * [`WindServe`] — prefill and decode co-run via plain CUDA streams:
//!   modeled as a **fixed half/half SM split** with no latency estimator,
//!   no worst-case guard, and whole-phase prefill launches. Contention is
//!   uncontrolled and the partition never adapts, so decode SLOs wobble
//!   and prefill starves under load (MuxWise reports a 1.61× goodput win
//!   against it).
//! * [`TemporalMux`] — a Tropical-style temporal-only variant enhanced
//!   with layer-wise prefill: between decode iterations, as many prefill
//!   layers as fit in the TBT slack run on the **full** GPU; the phases
//!   never overlap spatially, so decode's memory-bound iterations leave
//!   the compute idle (≥ 20 % worse than MuxWise in the paper's trials).

use std::collections::{HashMap, VecDeque};

use estimator::SoloPredictor;
use gpusim::{ClusterSpec, CtxId, GroupId, KernelKind, WorkItem};
use modelspec::{ModelSpec, Parallelism};
use serving::lease::{KvLease, LeaseTable, LeasedPrompt};
use serving::lifecycle::{EngineCounters, Lifecycle};
use serving::{
    join_decode, kv_pool_capacity_tokens, launch_prefill_phase, retire, CrashVictim, DecodeBatch,
    FaultKind, RecoveryClass, ReqId, Scheduler, ServeCtx, SloSpec,
};
use simcore::SimDuration;

/// Shared plumbing of the two variants (single pool, simple decode
/// batch, whole-request prefill bookkeeping).
#[derive(Debug)]
struct Common {
    model: ModelSpec,
    par: Parallelism,
    pool_capacity: u64,
    table: Option<LeaseTable>,
    lifecycle: Lifecycle,
    waiting: VecDeque<ReqId>,
    decode: DecodeBatch,
    decode_inflight: bool,
    /// The all-GPU group lost a device; launches halt until recovery.
    down: bool,
    /// Reused context list for [`Common::decode_work`].
    ctx_scratch: Vec<u64>,
}

impl Common {
    fn new(model: &ModelSpec, cluster: &ClusterSpec, tp: u32) -> Common {
        let pool_capacity = kv_pool_capacity_tokens(cluster, model, cluster.num_gpus, tp, 0.0);
        assert!(pool_capacity > 0, "model does not fit on this cluster");
        Common {
            model: model.clone(),
            par: Parallelism::tp(tp, cluster.nvlink_gbs),
            pool_capacity,
            table: None,
            lifecycle: Lifecycle::new(),
            waiting: VecDeque::new(),
            decode: DecodeBatch::new(),
            decode_inflight: false,
            down: false,
            ctx_scratch: Vec::new(),
        }
    }

    /// The work of one decode iteration of the batch; its context list
    /// goes into a reused buffer.
    fn decode_work(&mut self) -> WorkItem {
        self.ctx_scratch.clear();
        self.ctx_scratch.extend(self.decode.contexts());
        self.model.decode_iter_work(&self.ctx_scratch, &self.par)
    }

    /// Admits the head of the queue, or drops it when it can never fit
    /// (at most one prompt per call).
    fn admit_one(&mut self, ctx: &mut ServeCtx) -> Option<LeasedPrompt> {
        if self.down {
            return None;
        }
        let &id = self.waiting.front()?;
        let spec = ctx.request(id);
        let input = spec.input_tokens();
        let table = self.table.as_mut().expect("table");
        let blocks = spec.content.blocks(table.block_size());
        let new_tokens = input - table.peek_prefix(&blocks);
        let Some(r) = table.lease_prompt(id, &blocks, input, new_tokens, ctx.now()) else {
            if self.decode.is_empty() && !self.decode_inflight {
                self.waiting.pop_front();
                ctx.finish_request(id);
                self.lifecycle.drop_request(id);
            }
            return None;
        };
        self.waiting.pop_front();
        self.lifecycle.admit(id);
        Some(r)
    }

    /// Allocates the per-iteration decode KV growth, requeueing victims
    /// when the pool runs dry. Returns `false` when the batch emptied.
    fn grow_decode_kv(&mut self, ctx: &mut ServeCtx) -> bool {
        let now = ctx.now();
        let table = self.table.as_mut().expect("table");
        for id in self.decode.grow_for_iteration(table, now) {
            self.waiting.push_front(id);
            self.lifecycle.requeue(id);
        }
        !self.decode.is_empty()
    }

    fn advance_decode(&mut self, ctx: &mut ServeCtx) {
        let table = self.table.as_mut().expect("table");
        for slot in self.decode.advance_iteration(ctx) {
            retire(table, &mut self.lifecycle, ctx, slot);
        }
    }

    /// Returns one victim's lease (its prefix protected for the retry,
    /// see [`LeaseTable::revoke`]) and requeues it in the lifecycle.
    fn revoke(&mut self, id: ReqId, lease: KvLease, ctx: &mut ServeCtx) {
        let table = self.table.as_mut().expect("table");
        table.revoke(id, lease, &ctx.request(id).content);
        self.lifecycle.requeue(id);
    }

    /// Drains the decode batch after a fail-stop: every slot loses its
    /// device-resident KV and must re-prefill its accumulated context.
    fn revoke_decode(&mut self, ctx: &mut ServeCtx) -> Vec<CrashVictim> {
        let mut victims = Vec::new();
        for slot in self.decode.drain() {
            self.revoke(slot.id, slot.lease, ctx);
            victims.push(CrashVictim::reprefill(slot.id, slot.context));
        }
        victims
    }
}

// --------------------------------------------------------------------------

/// WindServe-style stream multiplexing: fixed 50/50 SM split, no
/// estimator, whole-phase prefill launches. See the [module docs](self).
#[derive(Debug)]
pub struct WindServe {
    common: Common,
    group: Option<GroupId>,
    d_ctx: Option<CtxId>,
    p_ctx: Option<CtxId>,
    prefill: Option<LeasedPrompt>,
}

impl WindServe {
    /// Creates the scheduler.
    pub fn new(model: &ModelSpec, cluster: &ClusterSpec, tp: u32, _slo: SloSpec) -> WindServe {
        WindServe {
            common: Common::new(model, cluster, tp),
            group: None,
            d_ctx: None,
            p_ctx: None,
            prefill: None,
        }
    }

    fn try_start_prefill(&mut self, ctx: &mut ServeCtx) {
        if self.prefill.is_some() {
            return;
        }
        let Some(r) = self.common.admit_one(ctx) else {
            return;
        };
        let (g, c) = (self.group.expect("started"), self.p_ctx.expect("started"));
        let common = &self.common;
        launch_prefill_phase(ctx, &common.model, g, c, &[r.seq], &common.par, 1);
        self.prefill = Some(r);
    }

    /// Retries what a down group or a smaller pool blocked (after a
    /// recovery, and on every fault-window change).
    fn resume(&mut self, ctx: &mut ServeCtx) {
        self.try_start_prefill(ctx);
        self.launch_decode(ctx);
    }

    fn launch_decode(&mut self, ctx: &mut ServeCtx) {
        if self.common.decode_inflight || self.common.decode.is_empty() || self.common.down {
            return;
        }
        if !self.common.grow_decode_kv(ctx) {
            return;
        }
        let work = self.common.decode_work();
        let ready = ctx.now() + ctx.gpu.spec().graph_launch;
        ctx.gpu.submit(
            self.group.expect("started"),
            self.d_ctx.expect("started"),
            work,
            ready,
            0,
        );
        self.common.decode_inflight = true;
    }
}

impl Scheduler for WindServe {
    fn on_start(&mut self, ctx: &mut ServeCtx) {
        let gpus: Vec<u32> = (0..ctx.gpu.num_gpus()).collect();
        let group = ctx.gpu.create_group(gpus);
        let sms = ctx.gpu.spec().sm_count;
        self.d_ctx = Some(ctx.gpu.set_context(group, sms / 2));
        self.p_ctx = Some(ctx.gpu.set_context(group, sms - sms / 2));
        self.group = Some(group);
        self.common.table = Some(LeaseTable::new(self.common.pool_capacity, 64));
    }

    fn on_arrival(&mut self, id: ReqId, ctx: &mut ServeCtx) {
        self.common.waiting.push_back(id);
        self.try_start_prefill(ctx);
    }

    fn on_kernel_done(&mut self, tag: u64, ctx: &mut ServeCtx) {
        if tag == 0 {
            self.common.decode_inflight = false;
            self.common.advance_decode(ctx);
        } else if let Some(r) = self.prefill.take() {
            let c = &mut self.common;
            let table = c.table.as_mut().expect("table");
            if let Some(slot) = join_decode(table, &mut c.lifecycle, ctx, r.id, r.lease) {
                c.decode.push(slot);
            }
            self.try_start_prefill(ctx);
        }
        self.launch_decode(ctx);
        self.try_start_prefill(ctx);
    }

    fn groups(&self) -> Vec<GroupId> {
        self.group.into_iter().collect()
    }

    fn streams(&self) -> Vec<(GroupId, CtxId)> {
        match (self.group, self.d_ctx, self.p_ctx) {
            (Some(g), Some(d), Some(p)) => vec![(g, d), (g, p)],
            _ => Vec::new(),
        }
    }

    fn counters(&self) -> EngineCounters {
        self.common.lifecycle.counters()
    }

    fn lease_tables(&self) -> Vec<&LeaseTable> {
        self.common.table.iter().collect()
    }

    fn lease_tables_mut(&mut self) -> Vec<&mut LeaseTable> {
        self.common.table.iter_mut().collect()
    }

    fn on_shed(&mut self, id: ReqId, _ctx: &mut ServeCtx) -> bool {
        let common = &mut self.common;
        common.lifecycle.shed_waiting(&mut common.waiting, id)
    }

    fn on_gpu_lost(
        &mut self,
        _gpu: u32,
        _cancelled: &[u64],
        ctx: &mut ServeCtx,
    ) -> Vec<CrashVictim> {
        // The 50/50 split runs both streams on one all-GPU group, so a
        // single device death takes the whole engine down.
        self.common.down = true;
        self.common.decode_inflight = false;
        let mut victims = Vec::new();
        if let Some(r) = self.prefill.take() {
            // Whole-phase prefill launches: no checkpoint to resume from.
            let lost = r.seq.new_tokens;
            self.common.revoke(r.id, r.lease, ctx);
            victims.push(CrashVictim::reprefill(r.id, lost));
        }
        victims.extend(self.common.revoke_decode(ctx));
        victims
    }

    fn on_gpu_recovered(&mut self, _gpu: u32, ctx: &mut ServeCtx) {
        if let Some(group) = self.group {
            if ctx.gpu.group_has_dead_gpu(group) {
                return;
            }
        }
        self.common.down = false;
        self.resume(ctx);
    }

    fn on_fault(&mut self, _active: &[FaultKind], ctx: &mut ServeCtx) {
        self.resume(ctx);
    }
}

// --------------------------------------------------------------------------

/// Temporal-only multiplexing: layer-wise prefill squeezed into the TBT
/// slack between decode iterations, never spatially concurrent. See the
/// [module docs](self).
#[derive(Debug)]
pub struct TemporalMux {
    common: Common,
    slo: SloSpec,
    predictor: SoloPredictor,
    group: Option<GroupId>,
    ctx_id: Option<CtxId>,
    prefill: Option<LeasedPrompt>,
    layers_done: u32,
    layers_inflight: u32,
    sm_count: u32,
    /// Layer checkpoints of crash victims: re-admission resumes here
    /// instead of replaying the already-completed prefill layers.
    resume_layers: HashMap<ReqId, u32>,
}

/// Tags distinguishing the phases.
const TAG_DECODE: u64 = 0;
const TAG_LAYER: u64 = 1;

impl TemporalMux {
    /// Creates the scheduler; `predictor` sizes the per-gap layer bursts.
    pub fn new(
        model: &ModelSpec,
        cluster: &ClusterSpec,
        tp: u32,
        slo: SloSpec,
        predictor: SoloPredictor,
    ) -> TemporalMux {
        TemporalMux {
            common: Common::new(model, cluster, tp),
            slo,
            predictor,
            group: None,
            ctx_id: None,
            prefill: None,
            layers_done: 0,
            layers_inflight: 0,
            sm_count: cluster.gpu.sm_count,
            resume_layers: HashMap::new(),
        }
    }

    fn schedule(&mut self, ctx: &mut ServeCtx) {
        // One shared stream: alternate a decode iteration with a burst of
        // prefill layers that fits the remaining TBT slack.
        if self.common.decode_inflight || self.layers_inflight > 0 || self.common.down {
            return;
        }
        if self.prefill.is_none() {
            if let Some(r) = self.common.admit_one(ctx) {
                self.layers_done = self.resume_layers.remove(&r.id).unwrap_or(0);
                self.prefill = Some(r);
            }
        }
        let (group, c) = (self.group.expect("started"), self.ctx_id.expect("started"));
        let decode = &self.common.decode;
        let have_decode = !decode.is_empty();
        let t_decode = if have_decode {
            self.predictor
                .decode_latency_agg(self.sm_count, decode.context_sum(), decode.len())
        } else {
            0.0
        };
        if let Some(r) = &self.prefill {
            let total_layers = self.common.model.num_layers;
            let t_phase = self.predictor.prefill_latency(self.sm_count, &[r.seq]);
            let t_layer = (t_phase / total_layers as f64).max(1e-6);
            let slack = if have_decode {
                (self.slo.tbt.as_secs() * SloSpec::TBT_MARGIN - t_decode).max(0.0)
            } else {
                f64::INFINITY
            };
            let n = if slack.is_infinite() {
                total_layers - self.layers_done
            } else {
                ((slack / t_layer).floor() as u32).min(total_layers - self.layers_done)
            };
            if n > 0 {
                let layer = self
                    .common
                    .model
                    .prefill_layer_work(&[r.seq], &self.common.par);
                let mut burst = layer.scaled(n as f64);
                if self.layers_done + n == total_layers {
                    burst = burst.plus(&self.common.model.lm_head_work(1.0, &self.common.par));
                }
                burst.kind = KernelKind::Prefill;
                let launch =
                    SimDuration::from_secs(ctx.gpu.spec().layer_graph_launch.as_secs() * n as f64);
                let ready = ctx.now() + launch;
                ctx.gpu.submit(group, c, burst, ready, TAG_LAYER);
                self.layers_inflight = n;
            }
        }
        if have_decode {
            if !self.common.grow_decode_kv(ctx) {
                return;
            }
            let work = self.common.decode_work();
            let ready = ctx.now() + ctx.gpu.spec().graph_launch;
            ctx.gpu.submit(group, c, work, ready, TAG_DECODE);
            self.common.decode_inflight = true;
        }
    }
}

impl Scheduler for TemporalMux {
    fn on_start(&mut self, ctx: &mut ServeCtx) {
        let gpus: Vec<u32> = (0..ctx.gpu.num_gpus()).collect();
        let group = ctx.gpu.create_group(gpus);
        let sms = ctx.gpu.spec().sm_count;
        self.ctx_id = Some(ctx.gpu.set_context(group, sms));
        self.group = Some(group);
        self.common.table = Some(LeaseTable::new(self.common.pool_capacity, 64));
    }

    fn on_arrival(&mut self, id: ReqId, ctx: &mut ServeCtx) {
        self.common.waiting.push_back(id);
        self.schedule(ctx);
    }

    fn on_kernel_done(&mut self, tag: u64, ctx: &mut ServeCtx) {
        match tag {
            TAG_DECODE => {
                self.common.decode_inflight = false;
                self.common.advance_decode(ctx);
            }
            _ => {
                self.layers_done += self.layers_inflight;
                self.layers_inflight = 0;
                if self.layers_done >= self.common.model.num_layers {
                    if let Some(r) = self.prefill.take() {
                        let c = &mut self.common;
                        let table = c.table.as_mut().expect("table");
                        if let Some(slot) = join_decode(table, &mut c.lifecycle, ctx, r.id, r.lease)
                        {
                            c.decode.push(slot);
                        }
                    }
                }
            }
        }
        self.schedule(ctx);
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
        self.common.lifecycle.counters()
    }

    fn lease_tables(&self) -> Vec<&LeaseTable> {
        self.common.table.iter().collect()
    }

    fn lease_tables_mut(&mut self) -> Vec<&mut LeaseTable> {
        self.common.table.iter_mut().collect()
    }

    fn on_shed(&mut self, id: ReqId, _ctx: &mut ServeCtx) -> bool {
        let common = &mut self.common;
        common.lifecycle.shed_waiting(&mut common.waiting, id)
    }

    fn on_gpu_lost(
        &mut self,
        _gpu: u32,
        _cancelled: &[u64],
        ctx: &mut ServeCtx,
    ) -> Vec<CrashVictim> {
        self.common.down = true;
        self.common.decode_inflight = false;
        self.layers_inflight = 0;
        let mut victims = Vec::new();
        if let Some(r) = self.prefill.take() {
            // Layer-wise launches double as checkpoints: the retry skips
            // the layers that had already completed before the crash.
            let checkpoint = self.layers_done;
            if checkpoint > 0 {
                self.resume_layers.insert(r.id, checkpoint);
            }
            self.layers_done = 0;
            self.common.revoke(r.id, r.lease, ctx);
            victims.push(CrashVictim {
                id: r.id,
                class: RecoveryClass::ResumeFromLayer(checkpoint),
                lost_tokens: 0,
            });
        }
        victims.extend(self.common.revoke_decode(ctx));
        victims
    }

    fn on_gpu_recovered(&mut self, _gpu: u32, ctx: &mut ServeCtx) {
        if let Some(group) = self.group {
            if ctx.gpu.group_has_dead_gpu(group) {
                return;
            }
        }
        self.common.down = false;
        self.schedule(ctx);
    }

    fn on_fault(&mut self, _active: &[FaultKind], ctx: &mut ServeCtx) {
        self.schedule(ctx);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gpusim::GpuSim;
    use serving::Driver;
    use simcore::SimRng;
    use workload::{generate, WorkloadKind};

    fn cluster_model() -> (ClusterSpec, ModelSpec, SloSpec) {
        (
            ClusterSpec::dgx_a100(),
            ModelSpec::llama8b(),
            SloSpec::llama8b(),
        )
    }

    #[test]
    fn windserve_completes_sharegpt() {
        let (cluster, model, slo) = cluster_model();
        let mut engine = WindServe::new(&model, &cluster, 8, slo);
        let mut rng = SimRng::seed_from(51);
        let reqs = generate(WorkloadKind::ShareGpt, 80, 3.0, &mut rng);
        let rep = Driver::new(GpuSim::from_cluster(&cluster), reqs, slo).run(&mut engine);
        assert_eq!(rep.finished, rep.total);
    }

    #[test]
    fn temporal_completes_sharegpt_and_respects_slack() {
        let (cluster, model, slo) = cluster_model();
        let par = Parallelism::tp(8, cluster.nvlink_gbs);
        let predictor = SoloPredictor::profile(&model, &cluster, &par, &[108]);
        let mut engine = TemporalMux::new(&model, &cluster, 8, slo, predictor);
        let mut rng = SimRng::seed_from(52);
        let reqs = generate(WorkloadKind::ShareGpt, 80, 3.0, &mut rng);
        let rep = Driver::new(GpuSim::from_cluster(&cluster), reqs, slo).run(&mut engine);
        assert_eq!(rep.finished, rep.total);
        assert!(
            rep.tbt.p99() < slo.tbt.as_secs() * 1.6,
            "p99 {}",
            rep.tbt.p99()
        );
    }
}
