//! The common decode-batch container.
//!
//! `MuxWise::DecodeSlot` and the five baseline `Slot` variants were the
//! same struct with different field names, and every engine repeated the
//! same two loops around them: grow each slot's KV by one token per
//! iteration (evicting tail victims back to the waiting queue when the
//! pool is full) and advance the batch after an iteration completes
//! (emit one token per slot, then pull out the slots that finished).
//! [`DecodeBatch`] owns both loops; the engine keeps only its policy —
//! what to do with the victims and how to retire a finished slot.
//! [`computed_in_batch`] is the prefill-side counterpart: the overlap
//! test an engine applies while forming a prefill batch.

use crate::driver::ServeCtx;
use crate::lease::{KvLease, LeaseTable};
use crate::request::ReqId;
use kvcache::Block;
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

#[cfg(test)]
mod tests {
    use super::*;
    use kvcache::Block;

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
}
