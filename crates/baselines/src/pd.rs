//! SGLang-PD: static 1:1 prefill/decode disaggregation.
//!
//! Two 4-GPU TP-4 instances. The prefill instance runs whole prefill
//! phases and caches computed prefixes in **its own** pool; finished
//! prefills migrate their KV over NVLink to the decode instance, which
//! holds active contexts in **its own** pool. Each instance pays the full
//! model weights on half the GPUs, so the combined cache capacity is far
//! below an aggregated deployment — the §2.3.1 drawback that shows up as
//! stalls on cache-hungry workloads.

use std::collections::VecDeque;

use gpusim::{ClusterSpec, CtxId, GroupId};
use modelspec::{ModelSpec, Parallelism, SeqState};
use serving::lease::{LeaseTable, LeasedPrompt};
use serving::lifecycle::{EngineCounters, Lifecycle};
use serving::{
    kv_pool_capacity_tokens, launch_prefill_phase, CrashVictim, DecodeSide, FaultKind, ReqId,
    Scheduler, ServeCtx, SloSpec, MAX_PREFILL_BATCH_REQUESTS, MAX_PREFILL_BATCH_TOKENS,
};

/// The static-disaggregation scheduler. See the [module docs](self).
#[derive(Debug)]
pub struct SglangPd {
    model: ModelSpec,
    par: Parallelism,
    p_pool_capacity: u64,
    d_pool_capacity: u64,
    p_group: Option<GroupId>,
    p_ctx: Option<CtxId>,
    d_group: Option<GroupId>,
    d_ctx: Option<CtxId>,
    p_table: Option<LeaseTable>,
    d_table: Option<LeaseTable>,
    lifecycle: Lifecycle,
    waiting: VecDeque<ReqId>,
    /// The prefill batch in flight. Each prompt also holds its decode
    /// slot, prompt plus first token, reserved raw in the decode table
    /// until its transfer lands (§4.3: "the system must still reserve
    /// slots for KV caches during prefill and decode"; prefill stalls
    /// when the decode pool cannot host the context).
    prefill: Option<Vec<LeasedPrompt>>,
    decode: DecodeSide,
    next_tag: u64,
    /// The prefill instance lost a device; prefill launches halt.
    p_down: bool,
}

impl SglangPd {
    /// Creates the scheduler: prefill on GPUs 0–3, decode on 4–7, both
    /// TP-4, each with its own KV pool.
    ///
    /// # Panics
    ///
    /// Panics if the model does not fit on a 4-GPU instance (e.g.
    /// Qwen-235B — the paper notes disaggregation is infeasible there).
    pub fn new(model: &ModelSpec, cluster: &ClusterSpec, _slo: SloSpec) -> SglangPd {
        assert!(cluster.num_gpus >= 2, "disaggregation needs ≥ 2 GPUs");
        let half = cluster.num_gpus / 2;
        let capacity = kv_pool_capacity_tokens(cluster, model, half, half, 0.0);
        assert!(
            capacity > 0,
            "model does not fit on a half-cluster instance"
        );
        SglangPd {
            model: model.clone(),
            par: Parallelism::tp(half, cluster.nvlink_gbs),
            p_pool_capacity: capacity,
            d_pool_capacity: capacity,
            p_group: None,
            p_ctx: None,
            d_group: None,
            d_ctx: None,
            p_table: None,
            d_table: None,
            lifecycle: Lifecycle::new(),
            waiting: VecDeque::new(),
            prefill: None,
            decode: DecodeSide::new(),
            next_tag: 1,
            p_down: false,
        }
    }

    /// Prefill-instance pool statistics (cache hit rate under the halved
    /// capacity — Fig. 5's effect).
    pub fn prefill_pool_stats(&self) -> Option<kvcache::PoolStats> {
        self.p_table.as_ref().map(|t| t.stats())
    }

    /// Requests dropped because they could never fit the pool.
    pub fn dropped(&self) -> u64 {
        self.lifecycle.counters().drops
    }

    fn try_start_prefill(&mut self, ctx: &mut ServeCtx) {
        // A dead decode instance also stalls prefill: the up-front
        // decode-slot reservation has nowhere to land.
        if self.prefill.is_some() || self.waiting.is_empty() || self.p_down || self.decode.is_down()
        {
            return;
        }
        let mut reqs = Vec::new();
        let mut new_total = 0u64;
        while let Some(&id) = self.waiting.front() {
            if reqs.len() >= MAX_PREFILL_BATCH_REQUESTS {
                break;
            }
            let spec = ctx.request(id);
            let input = spec.input_tokens();
            let table = self.p_table.as_mut().expect("table");
            let blocks = spec.content.blocks(table.block_size());
            let new_tokens = input - table.peek_prefix(&blocks);
            if !reqs.is_empty() && new_total + new_tokens > MAX_PREFILL_BATCH_TOKENS {
                break;
            }
            // Reserve the decode-instance slot, prompt plus first token,
            // before prefilling; when the decode pool is exhausted,
            // prefill stalls (the OpenThoughts pathology of §4.3).
            let d_table = self.d_table.as_mut().expect("table");
            let mut leased = None;
            if d_table.try_alloc_private(input + 1, ctx.now()) {
                leased = table.lease_prompt(id, &blocks, input, new_tokens, ctx.now());
                if leased.is_none() {
                    d_table.free_private(input + 1);
                }
            }
            let Some(r) = leased else {
                if reqs.is_empty() && self.prefill.is_none() && self.decode.is_idle() {
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
        launch_prefill_phase(ctx, &self.model, g, c, &batch, &self.par, 0);
        self.prefill = Some(reqs);
    }

    fn on_prefill_done(&mut self, ctx: &mut ServeCtx) {
        let reqs = self.prefill.take().expect("prefill in flight");
        for r in reqs {
            // Cache the computed prompt in the prefill pool for future
            // turns, then release the working allocation.
            let table = self.p_table.as_mut().expect("table");
            let blocks = ctx.request(r.id).content.blocks(table.block_size());
            table.release_and_commit(r.lease, &blocks, ctx.now());
            // Migrate the KV cache into the decode slot reserved at
            // admission (sharded over the instance's NVLink pairs).
            let tag = self.next_tag;
            self.next_tag += 1;
            self.decode
                .send(ctx, tag, r.id, &self.model, self.par.tp, true);
        }
        self.try_start_prefill(ctx);
    }

    /// Admits landed contexts (space was reserved at prefill admission,
    /// so every one fits) and launches the next decode iteration.
    fn step_decode(&mut self, ctx: &mut ServeCtx) {
        let table = self.d_table.as_mut().expect("table");
        self.decode.admit(table, &mut self.lifecycle, ctx);
        // Decode pool exhausted: requeue the newest contexts to the
        // prefill instance (full recompute there).
        if !self
            .decode
            .grow(table, &mut self.waiting, &mut self.lifecycle, ctx.now())
        {
            return;
        }
        let work = self.decode.iteration_work(&self.model, &self.par);
        let (g, c) = (self.d_group.expect("started"), self.d_ctx.expect("started"));
        self.decode.launch(ctx, g, c, work, u64::MAX);
    }

    /// Admits and launches whatever can run now: decode first, then
    /// prefill. Runs after each decode iteration, a recovery, and every
    /// fault-window change (a closing shrink frees space silently).
    fn resume(&mut self, ctx: &mut ServeCtx) {
        self.step_decode(ctx);
        self.try_start_prefill(ctx);
    }

    /// Books one decode-side crash victim: protects its cached prompt in
    /// the prefill pool and requeues it for a full re-prefill.
    fn revoke_decode_victim(&mut self, id: ReqId, context: u64, ctx: &mut ServeCtx) -> CrashVictim {
        let p_table = self.p_table.as_mut().expect("table");
        p_table.protect(id, &ctx.request(id).content);
        self.lifecycle.requeue(id);
        CrashVictim::reprefill(id, context)
    }

    fn on_decode_done(&mut self, ctx: &mut ServeCtx) {
        let table = self.d_table.as_mut().expect("table");
        self.decode.iteration_done(table, &mut self.lifecycle, ctx);
        self.resume(ctx);
    }
}

impl Scheduler for SglangPd {
    fn on_start(&mut self, ctx: &mut ServeCtx) {
        let n = ctx.gpu.num_gpus();
        let half = n / 2;
        let sms = ctx.gpu.spec().sm_count;
        let pg = ctx.gpu.create_group((0..half).collect());
        let dg = ctx.gpu.create_group((half..n).collect());
        self.p_ctx = Some(ctx.gpu.set_context(pg, sms));
        self.d_ctx = Some(ctx.gpu.set_context(dg, sms));
        self.p_group = Some(pg);
        self.d_group = Some(dg);
        self.decode.connect(ctx);
        self.p_table = Some(LeaseTable::new(self.p_pool_capacity, 64));
        self.d_table = Some(LeaseTable::new(self.d_pool_capacity, 64));
    }

    fn on_arrival(&mut self, id: ReqId, ctx: &mut ServeCtx) {
        self.waiting.push_back(id);
        self.try_start_prefill(ctx);
    }

    fn on_kernel_done(&mut self, tag: u64, ctx: &mut ServeCtx) {
        if tag == u64::MAX {
            self.on_decode_done(ctx);
        } else {
            self.on_prefill_done(ctx);
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
        if let (Some(g), Some(c)) = (self.d_group, self.d_ctx) {
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
            // Prefill instance died: only the in-flight prefill batch is
            // lost; migrated contexts and the decode instance carry on.
            self.p_down = true;
            for r in self.prefill.take().into_iter().flatten() {
                let spec = ctx.request(r.id);
                let p_table = self.p_table.as_mut().expect("table");
                p_table.revoke(r.id, r.lease, &spec.content);
                self.d_table
                    .as_mut()
                    .expect("table")
                    .free_private(spec.input_tokens() + 1);
                self.lifecycle.requeue(r.id);
                victims.push(CrashVictim::reprefill(r.id, r.seq.new_tokens));
            }
        } else {
            // Decode instance died: every active context — batched,
            // awaiting admission, or mid-transfer — loses its KV (and its
            // reservation) and must re-prefill from the prefill
            // instance's cached prompt.
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

    fn run(kind: WorkloadKind, n: usize, rate: f64) -> (serving::Report, SglangPd) {
        let cluster = ClusterSpec::dgx_a100();
        let model = ModelSpec::llama8b();
        let slo = SloSpec::llama8b();
        let mut engine = SglangPd::new(&model, &cluster, slo);
        let mut rng = SimRng::seed_from(21);
        let reqs = generate(kind, n, rate, &mut rng);
        let rep = Driver::new(GpuSim::from_cluster(&cluster), reqs, slo).run(&mut engine);
        (rep, engine)
    }

    #[test]
    fn completes_sharegpt_with_transfers() {
        let (rep, _) = run(WorkloadKind::ShareGpt, 80, 4.0);
        assert_eq!(rep.finished, rep.total);
        // Decode is isolated on its instance: TBT comfortably under SLO.
        assert!(rep.tbt.p99() < 0.050, "p99 TBT {}", rep.tbt.p99());
    }

    #[test]
    fn multi_turn_hit_rate_suffers_vs_shared_pool() {
        let (rep, engine) = run(WorkloadKind::Conversation, 50, 1.0);
        assert_eq!(rep.finished, rep.total);
        let stats = engine.prefill_pool_stats().expect("pool");
        // Outputs never reach the prefill pool, so reuse is partial at
        // best (the aggregated-pool systems cache input+output).
        assert!(stats.hit_rate() < 0.95);
    }

    #[test]
    #[should_panic(expected = "does not fit")]
    fn rejects_models_too_large_for_half_cluster() {
        SglangPd::new(
            &ModelSpec::qwen235b(),
            &ClusterSpec::dgx_a100(),
            SloSpec::llama70b(),
        );
    }
}
