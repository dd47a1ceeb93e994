//! The common decode batch, and the two ways a prefilled context joins
//! one.
//!
//! `MuxWise::DecodeSlot` and the five baseline `Slot` variants were the
//! same struct with different field names, and every engine repeated the
//! same two loops around them: grow each slot's KV by one token per
//! iteration (evicting tail victims back to the waiting queue when the
//! pool is full) and advance the batch after an iteration completes
//! (emit one token per slot, then pull out the slots that finished).
//! [`DecodeBatch`] owns both loops; the engine keeps only its policy —
//! what to do with the victims and how to retire a finished slot.
//!
//! A prefilled context reaches decode one of two ways. Over a shared
//! pool, [`join_decode`] emits its first token, migrates its prompt into
//! the radix tree and returns its slot, and [`retire`] commits prompt
//! plus output when it finishes. A disaggregated engine hands it to its
//! [`DecodeSide`] as a [`Handoff`], which admits, grows, launches,
//! retires and, on a crash, drains it; the engine keeps only where
//! prefill runs. Either way, the engine must retry admission when a
//! KV-shrink window closes ([`crate::Scheduler::on_fault`]): no
//! completion announces the restored capacity.
//!
//! [`computed_in_batch`] is the prefill-side counterpart: the overlap
//! test an engine applies while forming a prefill batch.

use std::collections::{HashMap, VecDeque};

use crate::driver::ServeCtx;
use crate::lease::{KvLease, LeaseTable};
use crate::lifecycle::Lifecycle;
use crate::order::drain_sorted;
use crate::request::ReqId;
use gpusim::{CtxId, GroupId, LinkId, WorkItem};
use kvcache::Block;
use modelspec::{ModelSpec, Parallelism};
use simcore::SimTime;

/// Whether a prompt already admitted to a prefill batch computes the
/// first uncached block of `blocks`: some `batch` prompt holds that
/// block, `blocks[cached]`, and every block before it. The candidate
/// gains nothing by joining that batch — it would recompute KV its
/// sibling is computing. Left for the next batch, it reuses the blocks
/// the sibling migrates into the radix tree at prefill completion (the
/// in-batch prefix check of SGLang's scheduler). A fully cached prompt
/// has no uncached block and never matches.
pub fn computed_in_batch<'a>(
    batch: impl IntoIterator<Item = &'a [Block]>,
    blocks: &[Block],
    cached: usize,
) -> bool {
    let Some(first_new) = blocks.get(cached) else {
        return false;
    };
    batch
        .into_iter()
        .any(|other| other.get(cached) == Some(first_new) && other[..cached] == blocks[..cached])
}

/// One request in the decode batch.
#[derive(Debug)]
pub struct DecodeSlot {
    /// The request occupying the slot.
    pub id: ReqId,
    /// Context length attended over in the next iteration.
    pub context: u64,
    /// Output tokens still to generate.
    pub remaining_out: u64,
    /// The KV resources the slot holds.
    pub lease: KvLease,
}

/// An ordered decode batch (oldest slot first; memory victims are taken
/// from the tail, so the youngest requests yield first).
///
/// The batch maintains the running sum of its slots' context lengths
/// incrementally (exact: `u64` arithmetic), so per-iteration estimator
/// queries need no per-slot scan.
#[derive(Debug, Default)]
pub struct DecodeBatch {
    slots: Vec<DecodeSlot>,
    context_sum: u64,
    /// Reused survivor buffer for `advance_iteration_into` (kept warm so
    /// retirement never reallocates).
    spare: Vec<DecodeSlot>,
}

impl DecodeBatch {
    /// Creates an empty batch.
    pub fn new() -> DecodeBatch {
        DecodeBatch::default()
    }

    /// Number of slots in the batch.
    pub fn len(&self) -> usize {
        self.slots.len()
    }

    /// Whether the batch is empty.
    pub fn is_empty(&self) -> bool {
        self.slots.is_empty()
    }

    /// Appends a slot at the tail (the next victim position).
    pub fn push(&mut self, slot: DecodeSlot) {
        self.context_sum += slot.context;
        self.slots.push(slot);
    }

    /// The slots, oldest first.
    pub fn slots(&self) -> &[DecodeSlot] {
        &self.slots
    }

    /// Context lengths of all slots, oldest first.
    pub fn contexts(&self) -> impl Iterator<Item = u64> + '_ {
        self.slots.iter().map(|s| s.context)
    }

    /// Sum of all slots' context lengths, maintained incrementally.
    /// Identical to `self.contexts().sum::<u64>()` (u64 addition is
    /// order-independent), without the scan.
    pub fn context_sum(&self) -> u64 {
        self.context_sum
    }

    /// Grows every slot's KV by one token for the upcoming iteration,
    /// evicting tail victims while the pool cannot fit one token per
    /// remaining slot. Victims' leases are released to `table`; their ids
    /// are returned in eviction order for the engine to requeue
    /// (`waiting.push_front` in returned order reproduces the legacy
    /// loop exactly). An emptied batch means even one slot cannot grow.
    pub fn grow_for_iteration(&mut self, table: &mut LeaseTable, now: SimTime) -> Vec<ReqId> {
        let mut victims = Vec::new();
        self.grow_for_iteration_into(table, now, &mut victims);
        victims
    }

    /// Allocation-free variant of [`DecodeBatch::grow_for_iteration`]:
    /// victims are appended to the caller-owned `victims` scratch (which
    /// is cleared first), in eviction order.
    // simlint: hot
    pub fn grow_for_iteration_into(
        &mut self,
        table: &mut LeaseTable,
        now: SimTime,
        victims: &mut Vec<ReqId>,
    ) {
        victims.clear();
        loop {
            let need = self.slots.len() as u64;
            if need == 0 {
                break;
            }
            if table.try_alloc_private(need, now) {
                for s in &mut self.slots {
                    s.lease.absorb_private(1);
                }
                break;
            }
            let victim = self.slots.pop().expect("len checked above");
            self.context_sum -= victim.context;
            victims.push(victim.id);
            table.release(victim.lease);
        }
    }

    /// Removes and returns every slot (oldest first), leaving the batch
    /// empty. Used by crash failover: the engine releases each victim's
    /// lease and hands the ids to the recovery manager.
    pub fn drain(&mut self) -> Vec<DecodeSlot> {
        self.context_sum = 0;
        std::mem::take(&mut self.slots)
    }

    /// Advances the batch after one decode iteration: every slot emits
    /// one token and its context grows by one. Slots that have emitted
    /// their last token are removed and returned (oldest first) for the
    /// engine to retire.
    pub fn advance_iteration(&mut self, ctx: &mut ServeCtx) -> Vec<DecodeSlot> {
        let mut retired = Vec::new();
        self.advance_iteration_into(ctx, &mut retired);
        retired
    }

    /// Allocation-free variant of [`DecodeBatch::advance_iteration`]:
    /// retired slots are appended to the caller-owned `retired` scratch
    /// (cleared first), oldest first; survivors keep their order.
    // simlint: hot
    pub fn advance_iteration_into(&mut self, ctx: &mut ServeCtx, retired: &mut Vec<DecodeSlot>) {
        retired.clear();
        for s in &mut self.slots {
            ctx.emit_tokens(s.id, 1);
            s.context += 1;
            s.remaining_out -= 1;
        }
        self.context_sum += self.slots.len() as u64;
        if self.slots.iter().all(|s| s.remaining_out != 0) {
            return; // common case: nobody finished, nothing moves
        }
        // Stable split preserving both orders: survivors re-fill the
        // (reused) spare buffer, finished slots move out oldest-first.
        let mut survivors = std::mem::take(&mut self.spare);
        survivors.clear();
        for slot in self.slots.drain(..) {
            if slot.remaining_out == 0 {
                self.context_sum -= slot.context;
                retired.push(slot);
            } else {
                survivors.push(slot);
            }
        }
        std::mem::swap(&mut self.slots, &mut survivors);
        self.spare = survivors;
    }
}

/// Moves a shared-pool engine's finished prefill toward decode: emits
/// the first token unless an earlier attempt already did, migrates the
/// prompt KV into the radix tree, and returns the decode slot (its
/// request now [`Lifecycle::begin_decode`]d) for the engine to place.
/// A request with nothing left to generate is retired instead, and the
/// result is `None`.
pub fn join_decode(
    table: &mut LeaseTable,
    lifecycle: &mut Lifecycle,
    ctx: &mut ServeCtx,
    id: ReqId,
    mut lease: KvLease,
) -> Option<DecodeSlot> {
    let spec = ctx.request(id);
    let (input, output) = (spec.input_tokens(), spec.output_tokens);
    let blocks = spec.content.blocks(table.block_size());
    if ctx.tokens_emitted(id) == 0 {
        ctx.emit_tokens(id, 1);
    }
    let emitted = ctx.tokens_emitted(id);
    // As in SGLang's tree, later turns may reuse the prompt at once.
    table.migrate(&mut lease, &blocks, ctx.now());
    let slot = DecodeSlot {
        id,
        context: input + emitted,
        remaining_out: output.saturating_sub(emitted),
        lease,
    };
    if slot.remaining_out == 0 {
        retire(table, lifecycle, ctx, slot);
        return None;
    }
    lifecycle.begin_decode(id);
    Some(slot)
}

/// Retires a shared-pool slot: commits the request's prompt plus every
/// generated token to the pool for future-turn reuse, releases the
/// lease and finishes the request.
pub fn retire(
    table: &mut LeaseTable,
    lifecycle: &mut Lifecycle,
    ctx: &mut ServeCtx,
    slot: DecodeSlot,
) {
    let spec = ctx.request(slot.id);
    let mut committed = spec.content.clone();
    committed.push(spec.session, ctx.tokens_emitted(slot.id));
    let blocks = committed.blocks(table.block_size());
    table.release_and_commit(slot.lease, &blocks, ctx.now());
    ctx.finish_request(slot.id);
    lifecycle.finish(slot.id);
}

/// A prefilled context on its way to a disaggregated decode side.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Handoff {
    /// The request.
    pub id: ReqId,
    /// KV tokens the decode slot starts with (prompt plus first token).
    pub context: u64,
    /// The decode pool already holds the context's space as raw private
    /// tokens; an unreserved handoff allocates it at admission.
    pub reserved: bool,
}

/// The decode side of a disaggregated engine: the decode batch, the KV
/// transfers in flight toward it, the contexts waiting for a slot, and
/// the in-flight and down flags. It holds only private decode-pool
/// space under lock-less leases, so it needs no engine policy.
#[derive(Debug, Default)]
pub struct DecodeSide {
    batch: DecodeBatch,
    transfers: HashMap<u64, Handoff>,
    queue: VecDeque<Handoff>,
    inflight: bool,
    down: bool,
    /// Reused eviction buffer for [`DecodeSide::grow`].
    victims: Vec<ReqId>,
    /// Reused context list for [`DecodeSide::iteration_work`].
    contexts: Vec<u64>,
}

impl DecodeSide {
    /// Creates an empty, healthy decode side.
    pub fn new() -> DecodeSide {
        DecodeSide::default()
    }

    /// The decode batch.
    pub fn batch(&self) -> &DecodeBatch {
        &self.batch
    }

    /// Whether the decode instance is down, from
    /// [`DecodeSide::crash`] to [`DecodeSide::recover`].
    pub fn is_down(&self) -> bool {
        self.down
    }

    /// Whether the decode side holds nothing: no slot, no transfer, no
    /// waiting context, no iteration in flight.
    pub fn is_idle(&self) -> bool {
        self.batch.is_empty()
            && self.transfers.is_empty()
            && self.queue.is_empty()
            && !self.inflight
    }

    /// Marks the decode instance healthy again.
    pub fn recover(&mut self) {
        self.down = false;
    }

    /// Sends `handoff`'s KV to the decode instance over `link` as
    /// transfer `tag`; [`DecodeSide::landed`] queues it on completion.
    pub fn send(
        &mut self,
        ctx: &mut ServeCtx,
        link: LinkId,
        tag: u64,
        bytes: f64,
        handoff: Handoff,
    ) {
        ctx.gpu.submit_transfer(link, bytes, tag);
        self.transfers.insert(tag, handoff);
    }

    /// Queues a context that is already on the decode instance.
    pub fn queue(&mut self, handoff: Handoff) {
        self.queue.push_back(handoff);
    }

    /// Queues the context transfer `tag` carried. `false` for a tag this
    /// side never sent or a crash orphaned: there is nothing to admit.
    pub fn landed(&mut self, tag: u64) -> bool {
        let handoff = self.transfers.remove(&tag);
        self.queue.extend(handoff);
        handoff.is_some()
    }

    /// Admits waiting contexts into the batch, oldest first, while the
    /// decode instance is up. An unreserved context allocates its space
    /// here; the first that does not fit stops admission, so none
    /// overtakes it. A context with no output left frees its space and
    /// finishes; every other joins the batch under a lock-less lease.
    pub fn admit(&mut self, table: &mut LeaseTable, lifecycle: &mut Lifecycle, ctx: &mut ServeCtx) {
        if self.down {
            return;
        }
        while let Some(&h) = self.queue.front() {
            if !h.reserved && !table.try_alloc_private(h.context, ctx.now()) {
                break;
            }
            self.queue.pop_front();
            let remaining = ctx
                .request(h.id)
                .output_tokens
                .saturating_sub(ctx.tokens_emitted(h.id));
            if remaining == 0 {
                table.free_private(h.context);
                ctx.finish_request(h.id);
                lifecycle.finish(h.id);
                continue;
            }
            lifecycle.begin_decode(h.id);
            self.batch.push(DecodeSlot {
                id: h.id,
                context: h.context,
                remaining_out: remaining,
                lease: table.lease_private(h.context),
            });
        }
    }

    /// Grows every slot by one token, requeueing the youngest at the
    /// front of `waiting` while the pool cannot fit the growth. `false`
    /// when nothing should launch: an iteration is in flight, the decode
    /// instance is down, or the batch is (or became) empty.
    pub fn grow(
        &mut self,
        table: &mut LeaseTable,
        waiting: &mut VecDeque<ReqId>,
        lifecycle: &mut Lifecycle,
        now: SimTime,
    ) -> bool {
        if self.inflight || self.down || self.batch.is_empty() {
            return false;
        }
        self.batch
            .grow_for_iteration_into(table, now, &mut self.victims);
        for &id in &self.victims {
            waiting.push_front(id);
            lifecycle.requeue(id);
        }
        !self.batch.is_empty()
    }

    /// The work of one decode iteration of the batch under `model` and
    /// `par`. The batch's context lengths go into a reused buffer, so a
    /// launch allocates nothing for them once the buffer has grown to
    /// the batch.
    pub fn iteration_work(&mut self, model: &ModelSpec, par: &Parallelism) -> WorkItem {
        self.contexts.clear();
        self.contexts.extend(self.batch.contexts());
        model.decode_iter_work(&self.contexts, par)
    }

    /// Submits one decode iteration of `work` on `group`/`ctx_id` after
    /// the graph launch, completing with `tag`.
    pub fn launch(
        &mut self,
        ctx: &mut ServeCtx,
        group: GroupId,
        ctx_id: CtxId,
        work: WorkItem,
        tag: u64,
    ) {
        let ready = ctx.now() + ctx.gpu.spec().graph_launch;
        ctx.gpu.submit(group, ctx_id, work, ready, tag);
        self.inflight = true;
    }

    /// Completes the in-flight iteration: every slot emits a token, and
    /// finished slots release their space (nothing is cached) and
    /// finish.
    pub fn iteration_done(
        &mut self,
        table: &mut LeaseTable,
        lifecycle: &mut Lifecycle,
        ctx: &mut ServeCtx,
    ) {
        self.inflight = false;
        for slot in self.batch.advance_iteration(ctx) {
            table.release(slot.lease);
            ctx.finish_request(slot.id);
            lifecycle.finish(slot.id);
        }
    }

    /// The decode instance lost a device: marks the side down, releases
    /// every slot's lease and frees the space of reserved contexts.
    /// Returns each victim's id and context — the batch oldest first,
    /// then the waiting queue, then the transfers in tag order (their
    /// tags land as no-ops) — for the engine's per-victim bookkeeping.
    pub fn crash(&mut self, table: &mut LeaseTable) -> Vec<(ReqId, u64)> {
        self.down = true;
        self.inflight = false;
        let mut victims = Vec::new();
        for slot in self.batch.drain() {
            table.release(slot.lease);
            victims.push((slot.id, slot.context));
        }
        let transfers = drain_sorted(&mut self.transfers)
            .into_iter()
            .map(|(_, h)| h);
        for h in std::mem::take(&mut self.queue).into_iter().chain(transfers) {
            if h.reserved {
                table.free_private(h.context);
            }
            victims.push((h.id, h.context));
        }
        victims
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::driver::Driver;
    use crate::lifecycle::Stage;
    use crate::request::SloSpec;
    use gpusim::{ClusterSpec, GpuSim};
    use kvcache::Block;
    use simcore::SimDuration;
    use workload::{ContentSpec, RequestSpec};

    fn t(s: f64) -> SimTime {
        SimTime::from_secs(s)
    }

    fn slot(table: &mut LeaseTable, id: ReqId, context: u64, remaining_out: u64) -> DecodeSlot {
        assert!(table.try_alloc_private(context, t(0.0)));
        DecodeSlot {
            id,
            context,
            remaining_out,
            lease: table.lease_private(context),
        }
    }

    #[test]
    fn grow_absorbs_one_token_per_slot() {
        let mut table = LeaseTable::new(10_000, 64);
        let mut batch = DecodeBatch::new();
        batch.push(slot(&mut table, 0, 10, 5));
        batch.push(slot(&mut table, 1, 20, 5));
        let victims = batch.grow_for_iteration(&mut table, t(1.0));
        assert!(victims.is_empty());
        assert_eq!(batch.slots()[0].lease.private_tokens(), 11);
        assert_eq!(batch.slots()[1].lease.private_tokens(), 21);
        assert_eq!(table.pool().private_tokens(), 32);
    }

    #[test]
    fn grow_evicts_from_the_tail_until_it_fits() {
        // Pool of 40 tokens: three slots totalling 39 leave room for only
        // one more token, so growth (3 needed) evicts the youngest slot,
        // after which the remaining two fit.
        let mut table = LeaseTable::new(40, 8);
        let mut batch = DecodeBatch::new();
        batch.push(slot(&mut table, 0, 13, 5));
        batch.push(slot(&mut table, 1, 13, 5));
        batch.push(slot(&mut table, 2, 13, 5));
        let victims = batch.grow_for_iteration(&mut table, t(1.0));
        assert_eq!(victims, vec![2], "youngest slot yields first");
        assert_eq!(batch.len(), 2);
        assert_eq!(batch.slots()[0].id, 0);
        assert_eq!(table.outstanding(), 2);
        assert_eq!(table.pool().private_tokens(), 28);
    }

    #[test]
    fn grow_can_empty_the_batch() {
        let mut table = LeaseTable::new(16, 8);
        // Fill the pool with raw space so not even one token fits.
        assert!(table.try_alloc_private(16, t(0.0)));
        let mut batch = DecodeBatch::new();
        batch.push(DecodeSlot {
            id: 7,
            context: 0,
            remaining_out: 3,
            lease: table.lease_private(0),
        });
        let victims = batch.grow_for_iteration(&mut table, t(1.0));
        assert_eq!(victims, vec![7]);
        assert!(batch.is_empty());
        assert_eq!(table.outstanding(), 0);
    }

    #[test]
    fn leases_survive_release_after_eviction() {
        let mut table = LeaseTable::new(100, 8);
        let blocks = Block::sequence(1, 64, 8);
        table.insert(&blocks, t(0.0));
        let mut batch = DecodeBatch::new();
        let mut lease = table.lease_prefix(&blocks, t(0.1));
        assert!(table.try_alloc_private(30, t(0.1)));
        lease.absorb_private(30);
        batch.push(DecodeSlot {
            id: 0,
            context: 94,
            remaining_out: 2,
            lease,
        });
        // 100-token pool: 64 locked + 30 private leaves 6 free, growth of
        // 1 fits.
        assert!(batch.grow_for_iteration(&mut table, t(0.2)).is_empty());
        assert_eq!(table.pool().private_tokens(), 31);
    }

    /// A serving context over requests of 100-token prompts, one per
    /// entry of `outputs` (its output length), each already admitted to
    /// prefill in the returned lifecycle.
    fn served(outputs: &[u64]) -> (ServeCtx, Lifecycle) {
        let reqs = outputs
            .iter()
            .enumerate()
            .map(|(i, &output_tokens)| RequestSpec {
                id: i as u64,
                arrival: SimTime::ZERO,
                session: i as u64,
                turn: 0,
                content: ContentSpec::single(i as u64, 100),
                prior_context: 0,
                output_tokens,
            })
            .collect();
        let gpu = GpuSim::from_cluster(&ClusterSpec::single_a100());
        let ctx = Driver::new(gpu, reqs, SloSpec::llama8b()).ctx;
        let mut lifecycle = Lifecycle::new();
        for id in 0..outputs.len() {
            lifecycle.admit(id);
        }
        (ctx, lifecycle)
    }

    fn handoff(id: ReqId, context: u64, reserved: bool) -> Handoff {
        Handoff {
            id,
            context,
            reserved,
        }
    }

    #[test]
    fn reserved_handoff_is_admitted_without_allocating() {
        let (mut ctx, mut lifecycle) = served(&[5]);
        let mut table = LeaseTable::new(1_000, 64);
        assert!(table.try_alloc_private(101, t(0.0)));
        let mut side = DecodeSide::new();
        side.queue(handoff(0, 101, true));
        side.admit(&mut table, &mut lifecycle, &mut ctx);
        assert_eq!(side.batch().len(), 1);
        assert_eq!(side.batch().slots()[0].remaining_out, 5);
        assert_eq!(table.pool().private_tokens(), 101, "nothing allocated");
        assert_eq!(table.outstanding(), 1);
        assert_eq!(lifecycle.stage(0), Stage::Decoding);
    }

    #[test]
    fn unreserved_admission_stops_at_the_first_context_that_does_not_fit() {
        let (mut ctx, mut lifecycle) = served(&[5, 5, 5]);
        let mut table = LeaseTable::new(1_000, 64);
        let mut side = DecodeSide::new();
        side.queue(handoff(0, 600, false));
        side.queue(handoff(1, 600, false));
        // Would fit after the first, but must not overtake the second.
        side.queue(handoff(2, 100, false));
        side.admit(&mut table, &mut lifecycle, &mut ctx);
        assert_eq!(side.batch().len(), 1);
        assert_eq!(side.batch().slots()[0].id, 0);
        assert_eq!(table.pool().private_tokens(), 600);
        assert_eq!(lifecycle.stage(1), Stage::Prefilling);
        assert_eq!(lifecycle.stage(2), Stage::Prefilling);
        assert!(!side.is_idle());
    }

    #[test]
    fn handoff_with_no_output_left_frees_its_space_and_finishes() {
        for reserved in [true, false] {
            let (mut ctx, mut lifecycle) = served(&[1]);
            ctx.emit_tokens(0, 1);
            let mut table = LeaseTable::new(1_000, 64);
            if reserved {
                assert!(table.try_alloc_private(101, t(0.0)));
            }
            let mut side = DecodeSide::new();
            side.queue(handoff(0, 101, reserved));
            side.admit(&mut table, &mut lifecycle, &mut ctx);
            assert!(side.is_idle());
            assert_eq!(table.pool().private_tokens(), 0);
            assert_eq!(table.outstanding(), 0);
            assert!(ctx.is_finished(0));
            assert_eq!(lifecycle.stage(0), Stage::Finished);
        }
    }

    #[test]
    fn crash_drains_batch_then_queue_then_transfers_by_tag_freeing_reserved_space() {
        let (mut ctx, mut lifecycle) = served(&[5, 5, 5, 5, 5]);
        let link = ctx.gpu.create_link(0.0, SimDuration::from_micros(5.0));
        let mut table = LeaseTable::new(10_000, 64);
        let mut side = DecodeSide::new();
        // Request 0 decodes; 1 (reserved) and 2 wait; 3 (reserved) and 4
        // are in transit, 4 under the lower tag.
        side.queue(handoff(0, 100, false));
        side.admit(&mut table, &mut lifecycle, &mut ctx);
        assert!(table.try_alloc_private(101 + 103, t(0.0)));
        side.queue(handoff(1, 101, true));
        side.queue(handoff(2, 102, false));
        side.send(&mut ctx, link, 9, 1.0, handoff(3, 103, true));
        side.send(&mut ctx, link, 4, 1.0, handoff(4, 104, false));
        let victims = side.crash(&mut table);
        assert_eq!(
            victims,
            vec![(0, 100), (1, 101), (2, 102), (4, 104), (3, 103)]
        );
        assert_eq!(table.pool().private_tokens(), 0);
        assert_eq!(table.outstanding(), 0);
        assert!(side.is_down() && side.is_idle());
        // Down: a queued context waits for recovery.
        lifecycle.requeue(0);
        lifecycle.admit(0);
        side.queue(handoff(0, 100, false));
        side.admit(&mut table, &mut lifecycle, &mut ctx);
        assert!(side.batch().is_empty());
        side.recover();
        side.admit(&mut table, &mut lifecycle, &mut ctx);
        assert_eq!(side.batch().len(), 1);
    }

    #[test]
    fn an_orphaned_transfer_lands_as_a_no_op() {
        let (mut ctx, _) = served(&[5, 5]);
        let link = ctx.gpu.create_link(0.0, SimDuration::from_micros(5.0));
        let mut table = LeaseTable::new(1_000, 64);
        let mut side = DecodeSide::new();
        side.send(&mut ctx, link, 1, 1.0, handoff(0, 101, false));
        side.send(&mut ctx, link, 2, 1.0, handoff(1, 101, false));
        assert!(side.landed(1));
        assert!(!side.landed(1), "a tag lands once");
        side.crash(&mut table);
        assert!(!side.landed(2));
        assert!(side.is_idle());
    }

    #[test]
    fn join_decode_retires_a_one_token_request_committing_prompt_plus_token() {
        let (mut ctx, mut lifecycle) = served(&[1]);
        let mut table = LeaseTable::new(10_000, 64);
        let prompt = ctx.request(0).content.blocks(64);
        let lease = table
            .try_lease_prompt(&prompt, 100, 100, t(0.0))
            .expect("fits");
        assert!(join_decode(&mut table, &mut lifecycle, &mut ctx, 0, lease).is_none());
        assert_eq!(ctx.tokens_emitted(0), 1);
        assert!(ctx.is_finished(0));
        assert_eq!(lifecycle.stage(0), Stage::Finished);
        assert_eq!(table.outstanding(), 0);
        assert_eq!(table.pool().private_tokens(), 0);
        let mut committed = ContentSpec::single(0, 100);
        committed.push(0, 1);
        assert_eq!(table.peek_prefix(&committed.blocks(64)), 101);
    }

    #[test]
    fn join_decode_hands_back_a_slot_over_the_migrated_prompt() {
        let (mut ctx, mut lifecycle) = served(&[4]);
        let mut table = LeaseTable::new(10_000, 64);
        let prompt = ctx.request(0).content.blocks(64);
        let lease = table
            .try_lease_prompt(&prompt, 100, 100, t(0.0))
            .expect("fits");
        let slot = join_decode(&mut table, &mut lifecycle, &mut ctx, 0, lease).expect("decodes");
        assert_eq!((slot.context, slot.remaining_out), (101, 3));
        assert_eq!(slot.lease.matched_tokens(), 100, "locks the radix copy");
        assert_eq!(table.pool().private_tokens(), 0);
        assert_eq!(lifecycle.stage(0), Stage::Decoding);
        retire(&mut table, &mut lifecycle, &mut ctx, slot);
        assert_eq!(table.outstanding(), 0);
    }
}
