//! LoongServe: dynamic disaggregation with elastic sequence parallelism.
//!
//! Prefill jobs elastically grab GPU groups — the prefill half of the
//! server, plus the decode half whenever decode is idle — and run with
//! sequence parallelism across them. After prefill, the KV cache
//! migrates to the decode group. **No KV is kept after a request
//! finishes**: scaling releases the cache immediately (§2.3.1), so every
//! multi-turn follow-up recomputes its entire context — the recompute
//! penalty that dominates LoongServe's TTFT on Conversation/Tool&Agent.

use std::collections::{HashMap, VecDeque};

use gpusim::{ClusterSpec, CtxId, GroupId};
use modelspec::{ModelSpec, Parallelism, SeqState};
use serving::lease::LeaseTable;
use serving::lifecycle::{EngineCounters, Lifecycle};
use serving::{
    kv_pool_capacity_tokens, launch_prefill_phase, CrashVictim, DecodeSide, FaultKind, ReqId,
    Scheduler, ServeCtx, SloSpec,
};

/// A prefill job running on an elastic group.
#[derive(Debug)]
struct Job {
    id: ReqId,
    gpus: Vec<u32>,
    group: GroupId,
    ctx_id: CtxId,
}

/// The LoongServe scheduler. See the [module docs](self).
#[derive(Debug)]
pub struct LoongServe {
    model: ModelSpec,
    /// Tensor-parallel degree inside each group (paper: 4 for Llama-70B,
    /// 2 for Llama-8B).
    tp: u32,
    nvlink_gbs: f64,
    d_pool_capacity: u64,
    num_gpus: u32,
    d_group: Option<GroupId>,
    d_ctx: Option<CtxId>,
    d_table: Option<LeaseTable>,
    lifecycle: Lifecycle,
    free_gpus: Vec<u32>,
    waiting: VecDeque<ReqId>,
    jobs: HashMap<u64, Job>,
    /// The fixed decode group; while it is down, decode admission and
    /// launches halt.
    decode: DecodeSide,
    /// Job and transfer tags, drawn from one counter.
    next_tag: u64,
    /// Total tokens recomputed because no cross-request reuse exists.
    recomputed_tokens: u64,
}

impl LoongServe {
    /// Creates the scheduler with the paper's model-parallel
    /// configuration: `tp` per group (4 for 70B-class, 2 for 8B-class);
    /// the decode group owns `tp` GPUs, the rest serve elastic prefill.
    ///
    /// # Panics
    ///
    /// Panics if the cluster has fewer than `2 × tp` GPUs or the model
    /// does not fit the decode group.
    pub fn new(model: &ModelSpec, cluster: &ClusterSpec, tp: u32, _slo: SloSpec) -> LoongServe {
        assert!(cluster.num_gpus >= 2 * tp, "need at least two TP groups");
        let d_pool_capacity = kv_pool_capacity_tokens(cluster, model, tp, tp, 0.0);
        assert!(d_pool_capacity > 0, "model does not fit the decode group");
        LoongServe {
            model: model.clone(),
            tp,
            nvlink_gbs: cluster.nvlink_gbs,
            d_pool_capacity,
            num_gpus: cluster.num_gpus,
            d_group: None,
            d_ctx: None,
            d_table: None,
            lifecycle: Lifecycle::new(),
            free_gpus: Vec::new(),
            waiting: VecDeque::new(),
            jobs: HashMap::new(),
            decode: DecodeSide::new(),
            next_tag: 1,
            recomputed_tokens: 0,
        }
    }

    /// Tokens that had to be recomputed because the KV cache was released
    /// (the cross-request reuse LoongServe gives up).
    pub fn recomputed_tokens(&self) -> u64 {
        self.recomputed_tokens
    }

    /// Requests dropped because they could never fit the pool.
    pub fn dropped(&self) -> u64 {
        self.lifecycle.counters().drops
    }

    fn try_start_prefills(&mut self, ctx: &mut ServeCtx) {
        while let Some(&id) = self.waiting.front() {
            // Elastic sizing: long inputs take more GPU groups; the
            // decode half can be borrowed while decode is idle.
            let spec = ctx.request(id);
            let (input, prior) = (spec.input_tokens(), spec.prior_context);
            let wanted_groups = (1 + input / 32_768).min(4) as usize;
            // Elasticity lives on the prefill side: jobs size their
            // groups from the free pool. The decode group keeps serving
            // throughout (real LoongServe migrates decode to fewer GPUs
            // rather than pausing it).
            let available = self.free_gpus.clone();
            let take_gpus = (wanted_groups * self.tp as usize).min(available.len());
            let take_gpus = take_gpus - take_gpus % self.tp as usize;
            if take_gpus == 0 {
                break;
            }
            let gpus: Vec<u32> = available[..take_gpus].to_vec();
            // Remove from the free pool; the job returns them when it
            // completes. The decode group's GPUs are never in the pool.
            self.free_gpus.retain(|g| !gpus.contains(g));
            self.waiting.pop_front();
            self.lifecycle.admit(id);

            let sp = (gpus.len() as u32) / self.tp;
            let par = Parallelism::tp_sp(self.tp, sp, self.nvlink_gbs);
            // No cross-request reuse: the full input is recomputed.
            self.recomputed_tokens += prior;
            let seq = SeqState::new(input, 0);
            let group = ctx.gpu.create_group(gpus.clone());
            let sms = ctx.gpu.spec().sm_count;
            let c = ctx.gpu.set_context(group, sms);
            let tag = self.next_tag;
            self.next_tag += 1;
            launch_prefill_phase(ctx, &self.model, group, c, &[seq], &par, tag);
            self.jobs.insert(
                tag,
                Job {
                    id,
                    gpus,
                    group,
                    ctx_id: c,
                },
            );
        }
    }

    fn on_prefill_done(&mut self, tag: u64, ctx: &mut ServeCtx) {
        let job = self.jobs.remove(&tag).expect("known job");
        ctx.gpu.remove_context(job.group, job.ctx_id);
        ctx.gpu.destroy_group(job.group);
        for g in job.gpus {
            if g >= self.tp {
                self.free_gpus.push(g);
            }
        }
        self.free_gpus.sort_unstable();
        // Migrate to the decode group, whose pool allocates the context
        // at admission; the source copy is released immediately
        // (LoongServe keeps no spare KV).
        let t = self.next_tag;
        self.next_tag += 1;
        self.decode
            .send(ctx, t, job.id, &self.model, self.tp, false);
        self.try_start_prefills(ctx);
    }

    /// Admits landed contexts and launches the next decode iteration.
    /// Migrated contexts buffer without leases while the decode group is
    /// down, so a permanent crash leaks nothing.
    fn step_decode(&mut self, ctx: &mut ServeCtx) {
        let table = self.d_table.as_mut().expect("table");
        self.decode.admit(table, &mut self.lifecycle, ctx);
        if !self
            .decode
            .grow(table, &mut self.waiting, &mut self.lifecycle, ctx.now())
        {
            return;
        }
        let par = Parallelism::tp(self.tp, self.nvlink_gbs);
        let work = self.decode.iteration_work(&self.model, &par);
        let (g, c) = (self.d_group.expect("started"), self.d_ctx.expect("started"));
        self.decode.launch(ctx, g, c, work, 0);
    }

    fn on_decode_done(&mut self, ctx: &mut ServeCtx) {
        // Everything is released — nothing is cached for the session's
        // next turn.
        let table = self.d_table.as_mut().expect("table");
        self.decode.iteration_done(table, &mut self.lifecycle, ctx);
        self.step_decode(ctx);
        self.try_start_prefills(ctx);
    }
}

impl Scheduler for LoongServe {
    fn on_start(&mut self, ctx: &mut ServeCtx) {
        let sms = ctx.gpu.spec().sm_count;
        let dg = ctx.gpu.create_group((0..self.tp).collect());
        self.d_ctx = Some(ctx.gpu.set_context(dg, sms));
        self.d_group = Some(dg);
        self.free_gpus = (self.tp..self.num_gpus).collect();
        self.decode.connect(ctx);
        self.d_table = Some(LeaseTable::new(self.d_pool_capacity, 64));
    }

    fn on_arrival(&mut self, id: ReqId, ctx: &mut ServeCtx) {
        self.waiting.push_back(id);
        self.try_start_prefills(ctx);
    }

    fn on_kernel_done(&mut self, tag: u64, ctx: &mut ServeCtx) {
        if tag == 0 {
            self.on_decode_done(ctx);
        } else {
            self.on_prefill_done(tag, ctx);
        }
    }

    fn on_transfer_done(&mut self, tag: u64, ctx: &mut ServeCtx) {
        if self.decode.landed(tag) {
            self.step_decode(ctx);
        }
    }

    fn groups(&self) -> Vec<GroupId> {
        self.d_group.into_iter().collect()
    }

    fn streams(&self) -> Vec<(GroupId, CtxId)> {
        match (self.d_group, self.d_ctx) {
            (Some(g), Some(c)) => vec![(g, c)],
            _ => Vec::new(),
        }
    }

    fn counters(&self) -> EngineCounters {
        self.lifecycle.counters()
    }

    fn lease_tables(&self) -> Vec<&LeaseTable> {
        self.d_table.iter().collect()
    }

    fn lease_tables_mut(&mut self) -> Vec<&mut LeaseTable> {
        self.d_table.iter_mut().collect()
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
        let mut victims = Vec::new();
        if gpu < self.tp {
            // Decode group died: batched, pending and in-transit contexts
            // all lose their KV. LoongServe keeps no spare copy anywhere,
            // so every victim recomputes its full context.
            let table = self.d_table.as_mut().expect("table");
            for (id, context) in self.decode.crash(table) {
                self.lifecycle.requeue(id);
                victims.push(CrashVictim::reprefill(id, context));
            }
        } else {
            // An elastic prefill GPU died. At most one job spans it (a
            // GPU serves a single elastic group at a time); tear the job
            // down, return its surviving GPUs and hold the dead one out
            // of the free pool until recovery.
            self.free_gpus.retain(|&g| g != gpu);
            let mut hit: Vec<u64> = self
                .jobs
                .iter()
                .filter(|(_, j)| j.gpus.contains(&gpu))
                .map(|(&tag, _)| tag)
                .collect();
            hit.sort_unstable();
            for tag in hit {
                let job = self.jobs.remove(&tag).expect("known job");
                ctx.gpu.remove_context(job.group, job.ctx_id);
                ctx.gpu.destroy_group(job.group);
                for g in job.gpus {
                    if g >= self.tp && g != gpu {
                        self.free_gpus.push(g);
                    }
                }
                self.free_gpus.sort_unstable();
                self.lifecycle.requeue(job.id);
                victims.push(CrashVictim::reprefill(
                    job.id,
                    ctx.request(job.id).input_tokens(),
                ));
            }
        }
        victims
    }

    fn on_gpu_recovered(&mut self, gpu: u32, ctx: &mut ServeCtx) {
        if gpu < self.tp {
            if let Some(g) = self.d_group {
                if ctx.gpu.group_has_dead_gpu(g) {
                    return;
                }
            }
            self.decode.recover();
            self.step_decode(ctx);
        } else {
            if !self.free_gpus.contains(&gpu) {
                self.free_gpus.push(gpu);
                self.free_gpus.sort_unstable();
            }
            self.try_start_prefills(ctx);
        }
    }

    fn on_fault(&mut self, _active: &[FaultKind], ctx: &mut ServeCtx) {
        // Only decode admission waits on the pool; prefill needs GPUs.
        self.step_decode(ctx);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gpusim::GpuSim;
    use serving::Driver;
    use simcore::SimRng;
    use workload::{generate, WorkloadKind};

    fn run(kind: WorkloadKind, n: usize, rate: f64) -> (serving::Report, LoongServe) {
        let cluster = ClusterSpec::dgx_a100();
        let model = ModelSpec::llama8b();
        let slo = SloSpec::llama8b();
        let mut engine = LoongServe::new(&model, &cluster, 2, slo);
        let mut rng = SimRng::seed_from(31);
        let reqs = generate(kind, n, rate, &mut rng);
        let rep = Driver::new(GpuSim::from_cluster(&cluster), reqs, slo).run(&mut engine);
        (rep, engine)
    }

    #[test]
    fn completes_sharegpt() {
        let (rep, engine) = run(WorkloadKind::ShareGpt, 80, 4.0);
        assert_eq!(rep.finished, rep.total);
        // Single-turn: nothing to recompute.
        assert_eq!(engine.recomputed_tokens(), 0);
    }

    #[test]
    fn multi_turn_recomputes_context() {
        let (rep, engine) = run(WorkloadKind::Conversation, 40, 1.0);
        assert_eq!(rep.finished, rep.total);
        assert!(
            engine.recomputed_tokens() > 10_000,
            "multi-turn context must be recomputed: {}",
            engine.recomputed_tokens()
        );
    }

    #[test]
    fn elastic_groups_release_gpus() {
        let (rep, engine) = run(WorkloadKind::Loogle, 20, 1.0);
        assert_eq!(rep.finished, rep.total);
        // All prefill GPUs returned to the free pool at the end.
        assert_eq!(engine.free_gpus.len(), 6);
    }
}
