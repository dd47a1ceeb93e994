//! KV leases: structurally audited ownership of pool resources.
//!
//! Every serving engine holds KV-cache resources on behalf of running
//! requests — an eviction lock on the shared radix prefix plus a private
//! token allocation for freshly computed KV. Historically each engine
//! paired `pool.unlock(&lock)` / `pool.free_private(n)` by hand on every
//! exit path (retire, requeue, drop, migrate), and a missed pair was only
//! caught by manual audit. A [`KvLease`] bundles both halves and can only
//! be returned through its [`LeaseTable`], which counts outstanding
//! leases so the driver can detect leaks when a run ends.
//!
//! The table deliberately reproduces the exact pool-operation order of
//! the hand-written code paths it replaced (release = unlock → free,
//! retire = unlock → free → insert, migrate = insert → relock → unlock →
//! free), so porting an engine onto it changes no simulation outcome.
//!
//! The table also owns crash protection. [`LeaseTable::revoke`] returns
//! a crash victim's lease and eviction-protects its cached prefix, and
//! [`LeaseTable::readmit`] lifts that protection once the victim's next
//! lease holds the prefix, so no engine keeps its own victim set.
//!
//! Every engine that batches whole prompts admits one through
//! [`LeaseTable::lease_prompt`], which reserves its uncached suffix,
//! locks its cached prefix, lifts its crash protection and returns it as
//! a [`LeasedPrompt`].

use std::collections::HashSet;

use kvcache::{Block, KvPool, MatchOutcome, PoolStats};
use modelspec::SeqState;
use simcore::SimTime;
use workload::ContentSpec;

use crate::request::ReqId;

/// The KV resources one request holds: an eviction lock on its cached
/// prefix plus the private tokens reserved for its new KV.
///
/// A lease is created by and must be returned to a [`LeaseTable`]; it
/// cannot be cloned or taken apart, so the unlock/free pair can never be
/// half-applied.
#[derive(Debug)]
#[must_use = "a KvLease must be returned to its LeaseTable"]
pub struct KvLease {
    lock: MatchOutcome,
    private: u64,
}

impl KvLease {
    /// Tokens of the request's prefix served from cache at lease time.
    pub fn matched_tokens(&self) -> u64 {
        self.lock.matched_tokens
    }

    /// Private pool tokens attributed to this lease.
    pub fn private_tokens(&self) -> u64 {
        self.private
    }

    /// Attributes `tokens` of already-reserved private pool space to this
    /// lease (the engine allocated them via
    /// [`LeaseTable::try_alloc_private`] — e.g. batch-wide decode growth
    /// split one token per slot, or a prefill chunk's new tokens).
    pub fn absorb_private(&mut self, tokens: u64) {
        self.private += tokens;
    }
}

/// A prompt admitted to prefill: the request, the tokens its prefill
/// computes over the prefix its lease matched, and that lease.
#[derive(Debug)]
pub struct LeasedPrompt {
    /// The request.
    pub id: ReqId,
    /// New (uncached) and reused tokens of its prefill.
    pub seq: SeqState,
    /// The KV resources it holds.
    pub lease: KvLease,
}

/// Owns an engine's [`KvPool`] and tracks every lease drawn from it.
///
/// All lock/unlock and private-allocation traffic goes through the
/// table; engines get read-only pool access via [`LeaseTable::pool`].
/// [`LeaseTable::outstanding`] is checked by the driver after the event
/// loop drains — a nonzero count on a fully-drained run is a leak.
#[derive(Debug)]
pub struct LeaseTable {
    pool: KvPool,
    outstanding: usize,
    /// Crash victims whose cached prefix [`LeaseTable::protect`] marked,
    /// awaiting [`LeaseTable::readmit`].
    protected: HashSet<ReqId>,
}

impl LeaseTable {
    /// Creates a table over a fresh pool of `capacity_tokens` tokens in
    /// blocks of `block_size`.
    pub fn new(capacity_tokens: u64, block_size: u32) -> LeaseTable {
        LeaseTable {
            pool: KvPool::new(capacity_tokens, block_size),
            outstanding: 0,
            protected: HashSet::new(),
        }
    }

    /// Read-only access to the underlying pool (telemetry, invariant
    /// checks). Mutation is only possible through lease operations.
    pub fn pool(&self) -> &KvPool {
        &self.pool
    }

    /// The pool's block size in tokens.
    pub fn block_size(&self) -> u32 {
        self.pool.block_size()
    }

    /// Hit-rate statistics of the underlying pool.
    pub fn stats(&self) -> PoolStats {
        self.pool.stats()
    }

    /// Number of leases currently held.
    pub fn outstanding(&self) -> usize {
        self.outstanding
    }

    /// Current pool capacity in tokens.
    pub fn capacity_tokens(&self) -> u64 {
        self.pool.capacity_tokens()
    }

    /// Shrinks or restores the pool's capacity (fault injection: losing
    /// HBM headroom mid-run). Unlocked LRU entries are evicted toward the
    /// new limit; leased/private space survives as tolerated overcommit.
    pub fn set_capacity(&mut self, cap: u64, now: SimTime) {
        self.pool.set_capacity_tokens(cap, now);
    }

    /// Peeks at the longest cached prefix without locking or recording
    /// statistics.
    pub fn peek_prefix(&self, blocks: &[Block]) -> u64 {
        self.pool.peek_prefix(blocks)
    }

    /// The cached leading slice of `blocks` — the export half of
    /// hot-prefix KV replication. The returned stream is exactly what
    /// this table holds of the prefix, so importing it into another
    /// table via [`LeaseTable::insert`] mirrors real state rather than
    /// fabricating cache the origin never computed. Exporting never
    /// locks nodes or touches access times.
    pub fn export_prefix<'a>(&self, blocks: &'a [Block]) -> &'a [Block] {
        let n = self.pool.cached_prefix_blocks(blocks);
        &blocks[..n]
    }

    /// Reserves raw private pool space not (yet) attributed to a lease.
    /// Attribute it afterwards with [`KvLease::absorb_private`], or hold
    /// it raw for cross-queue handoff (e.g. a decode slot reserved while
    /// the prefill instance still computes the context).
    pub fn try_alloc_private(&mut self, tokens: u64, now: SimTime) -> bool {
        self.pool.try_alloc_private(tokens, now)
    }

    /// Returns raw private space reserved with
    /// [`LeaseTable::try_alloc_private`] that was never attributed to a
    /// lease.
    pub fn free_private(&mut self, tokens: u64) {
        self.pool.free_private(tokens);
    }

    /// Commits `blocks` to the shared cache (no lease involved).
    pub fn insert(&mut self, blocks: &[Block], now: SimTime) -> bool {
        self.pool.insert(blocks, now)
    }

    /// Eviction-protects the cached prefix of crash victim `id`'s
    /// `content` until `id` is re-admitted (see [`LeaseTable::readmit`]).
    /// LRU pressure, capacity shrinks included, takes an unprotected
    /// entry first (see [`KvPool::protect_prefix`]), so a
    /// [`LeaseTable::set_capacity`] shrink between revocation and
    /// re-admission does not evict exactly the state the re-prefill
    /// needs. Disaggregated engines call this directly on their prefill
    /// table for decode victims whose lease lived in the decode table.
    ///
    /// Protection is one flag per radix node, not a count per victim: a
    /// prefix shared by two victims is unprotected by whichever is
    /// re-admitted first. A victim that never returns (shed, cancelled,
    /// migrated away) leaves its prefix protected.
    pub fn protect(&mut self, id: ReqId, content: &ContentSpec) {
        self.pool
            .protect_prefix(&content.blocks(self.pool.block_size()));
        self.protected.insert(id);
    }

    /// Revokes crash victim `id`: returns its `lease` (unlock, then free,
    /// as [`LeaseTable::release`]) and protects the cached prefix of its
    /// `content` (as [`LeaseTable::protect`]).
    pub fn revoke(&mut self, id: ReqId, lease: KvLease, content: &ContentSpec) {
        self.release(lease);
        self.protect(id, content);
    }

    /// Lifts the protection [`LeaseTable::protect`] set for `id`, whose
    /// re-admission has just leased `blocks`: the lease's lock pins the
    /// prefix now. Call it right after the lease is taken, so eviction
    /// during the lease's own allocation still sees the flags. A no-op
    /// for an id that holds no protection.
    pub fn readmit(&mut self, id: ReqId, blocks: &[Block]) {
        if self.protected.remove(&id) {
            self.pool.unprotect_prefix(blocks);
        }
    }

    /// Locks the longest cached prefix of `blocks` and opens a lease for
    /// it (hit statistics recorded). The lease starts with zero private
    /// tokens; attribute the request's working allocation with
    /// [`KvLease::absorb_private`].
    pub fn lease_prefix(&mut self, blocks: &[Block], now: SimTime) -> KvLease {
        let lock = self.pool.match_prefix(blocks, now);
        self.outstanding += 1;
        KvLease { lock, private: 0 }
    }

    /// Admits prompt `id` to prefill: reserves the `new_tokens` of private
    /// space its uncached suffix needs, sized by the caller as
    /// `input_tokens` minus [`LeaseTable::peek_prefix`] of its `blocks`,
    /// locks the cached prefix into a lease holding that space, and lifts
    /// the crash protection of `id` ([`LeaseTable::readmit`]). The
    /// prefill computes every token the lock does not cover.
    ///
    /// The reservation's own LRU eviction can remove part of the peeked
    /// prefix before the lock is taken. The shortfall is reserved too, so
    /// the lease holds exactly the private tokens its request will
    /// compute. When the pool cannot fit the prompt, nothing stays held
    /// and the result is `None`.
    pub fn lease_prompt(
        &mut self,
        id: ReqId,
        blocks: &[Block],
        input_tokens: u64,
        new_tokens: u64,
        now: SimTime,
    ) -> Option<LeasedPrompt> {
        let lease = self.try_lease_prompt(blocks, input_tokens, new_tokens, now)?;
        self.readmit(id, blocks);
        let reused = lease.matched_tokens();
        Some(LeasedPrompt {
            id,
            seq: SeqState::new(input_tokens - reused, reused),
            lease,
        })
    }

    /// The lease half of [`LeaseTable::lease_prompt`].
    fn try_lease_prompt(
        &mut self,
        blocks: &[Block],
        input_tokens: u64,
        new_tokens: u64,
        now: SimTime,
    ) -> Option<KvLease> {
        debug_assert_eq!(
            new_tokens,
            input_tokens - self.peek_prefix(blocks),
            "new_tokens must be sized from the current peek"
        );
        if !self.pool.try_alloc_private(new_tokens, now) {
            return None;
        }
        let mut lease = self.lease_prefix(blocks, now);
        lease.private = new_tokens;
        let need = input_tokens - lease.matched_tokens();
        if need > new_tokens && !self.pool.try_alloc_private(need - new_tokens, now) {
            self.release(lease);
            return None;
        }
        lease.private = need;
        Some(lease)
    }

    /// Opens a lock-less lease over `tokens` of **already reserved**
    /// private space (disaggregated decode slots hold no radix lock —
    /// their context lives entirely in private pool space that was
    /// allocated when the slot was admitted or reserved).
    pub fn lease_private(&mut self, tokens: u64) -> KvLease {
        self.outstanding += 1;
        KvLease {
            lock: MatchOutcome {
                matched_tokens: 0,
                path: Vec::new(),
            },
            private: tokens,
        }
    }

    /// Allocates `tokens` of private space and wraps it in a lock-less
    /// lease; `None` (allocating nothing) when the pool cannot make room.
    pub fn try_lease_private(&mut self, tokens: u64, now: SimTime) -> Option<KvLease> {
        if !self.pool.try_alloc_private(tokens, now) {
            return None;
        }
        Some(self.lease_private(tokens))
    }

    /// Returns a lease without committing anything: unlock, then free the
    /// private allocation (the requeue/drop path).
    pub fn release(&mut self, lease: KvLease) {
        self.pool.unlock(&lease.lock);
        self.pool.free_private(lease.private);
        self.outstanding -= 1;
    }

    /// Retires a lease, committing `blocks` (the request's full context)
    /// to the shared cache for future-turn reuse: unlock, free, insert —
    /// the exact order of every engine's retire path. Returns whether the
    /// insert was admitted.
    pub fn release_and_commit(&mut self, lease: KvLease, blocks: &[Block], now: SimTime) -> bool {
        self.pool.unlock(&lease.lock);
        self.pool.free_private(lease.private);
        self.outstanding -= 1;
        self.pool.insert(blocks, now)
    }

    /// Dissolves a **lock-less** lease back into raw private space
    /// without freeing anything, returning the token count. Used when a
    /// context is handed off through a plain queue (e.g. admitted to the
    /// decode batch only after a transfer completes); re-wrap it with
    /// [`LeaseTable::lease_private`] on the other side.
    ///
    /// # Panics
    ///
    /// Panics if the lease holds a radix lock — locks cannot be handed
    /// off raw.
    pub fn detach(&mut self, lease: KvLease) -> u64 {
        assert!(
            lease.lock.path.is_empty(),
            "cannot detach a lease holding a radix lock"
        );
        self.outstanding -= 1;
        lease.private
    }

    /// Migrates a finished prefill's working KV (held as private space)
    /// into the shared radix, swapping the lease's eviction lock onto the
    /// committed path: insert, lock the new path, unlock the old one,
    /// free the private allocation. When the pool cannot admit the
    /// insert, the lease is left unchanged (the request keeps its private
    /// allocation — it simply loses reuse).
    pub fn migrate(&mut self, lease: &mut KvLease, blocks: &[Block], now: SimTime) {
        if self.pool.insert(blocks, now) {
            let new_lock = self.pool.lock_prefix(blocks, now);
            let old_lock = std::mem::replace(&mut lease.lock, new_lock);
            self.pool.unlock(&old_lock);
            self.pool.free_private(lease.private);
            lease.private = 0;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(s: f64) -> SimTime {
        SimTime::from_secs(s)
    }

    #[test]
    fn lease_roundtrip_releases_everything() {
        let mut table = LeaseTable::new(10_000, 64);
        let blocks = Block::sequence(1, 640, 64);
        table.insert(&blocks, t(0.0));
        let mut lease = table.lease_prefix(&blocks, t(1.0));
        assert_eq!(lease.matched_tokens(), 640);
        assert!(table.try_alloc_private(100, t(1.0)));
        lease.absorb_private(100);
        assert_eq!(table.outstanding(), 1);
        table.release(lease);
        assert_eq!(table.outstanding(), 0);
        assert_eq!(table.pool().private_tokens(), 0);
        table.pool().check_invariants();
    }

    #[test]
    fn try_lease_prompt_covers_a_prefix_evicted_by_its_own_reservation() {
        // A full pool of unlocked cache whose least recently used entry
        // is the peeked 640-token prefix: the reservation sized from the
        // peek evicts six of its ten blocks.
        let mut table = LeaseTable::new(1_024, 64);
        let prompt = Block::sequence(1, 1_000, 64);
        table.insert(&prompt[..10], t(0.0));
        table.insert(&Block::sequence(2, 384, 64), t(1.0));
        let peeked = table.peek_prefix(&prompt);
        assert_eq!(peeked, 640);
        let lease = table
            .try_lease_prompt(&prompt, 1_000, 1_000 - peeked, t(2.0))
            .expect("room for the shortfall");
        assert_eq!(lease.matched_tokens(), 256);
        assert_eq!(lease.private_tokens(), 1_000 - 256);
        assert_eq!(table.pool().private_tokens(), 1_000 - 256);
        table.release(lease);
        assert_eq!(table.pool().private_tokens(), 0);
        table.pool().check_invariants();
    }

    #[test]
    fn try_lease_prompt_returns_everything_when_the_shortfall_does_not_fit() {
        // Every unlocked token is the peeked prefix itself: the shortfall
        // has nowhere to go, so the admission is undone.
        let mut table = LeaseTable::new(1_024, 64);
        let prompt = Block::sequence(1, 1_100, 64);
        table.insert(&prompt[..16], t(0.0));
        let peeked = table.peek_prefix(&prompt);
        assert_eq!(peeked, 1_024);
        assert!(table
            .try_lease_prompt(&prompt, 1_100, 1_100 - peeked, t(1.0))
            .is_none());
        assert_eq!(table.outstanding(), 0);
        assert_eq!(table.pool().private_tokens(), 0);
        table.pool().check_invariants();
    }

    #[test]
    fn lease_prompt_sizes_the_prefill_from_its_lock_and_readmits() {
        let mut table = LeaseTable::new(10_000, 64);
        let content = ContentSpec::single(1, 1_000);
        let prompt = content.blocks(64);
        table.insert(&prompt[..10], t(0.0));
        let crashed = table.lease_prefix(&prompt, t(0.5));
        table.revoke(1, crashed, &content);
        let r = table
            .lease_prompt(1, &prompt, 1_000, 1_000 - 640, t(1.0))
            .expect("fits");
        assert_eq!((r.id, r.seq.new_tokens, r.seq.reused_tokens), (1, 360, 640));
        assert_eq!(r.lease.private_tokens(), 360);
        assert!(table.protected.is_empty(), "protection outlived the lease");
        table.release(r.lease);
        assert_eq!(table.outstanding(), 0);
        table.pool().check_invariants();
    }

    #[test]
    fn release_and_commit_caches_the_context() {
        let mut table = LeaseTable::new(10_000, 64);
        let blocks = Block::sequence(2, 128, 64);
        let mut lease = table.lease_prefix(&blocks, t(0.0));
        assert!(table.try_alloc_private(128, t(0.0)));
        lease.absorb_private(128);
        assert!(table.release_and_commit(lease, &blocks, t(1.0)));
        assert_eq!(table.peek_prefix(&blocks), 128);
        assert_eq!(table.outstanding(), 0);
        assert_eq!(table.pool().private_tokens(), 0);
    }

    #[test]
    fn migrate_swaps_lock_and_frees_private() {
        let mut table = LeaseTable::new(10_000, 64);
        let blocks = Block::sequence(3, 256, 64);
        let mut lease = table.lease_prefix(&blocks, t(0.0));
        assert!(table.try_alloc_private(256, t(0.0)));
        lease.absorb_private(256);
        table.migrate(&mut lease, &blocks, t(1.0));
        assert_eq!(lease.private_tokens(), 0);
        assert_eq!(lease.matched_tokens(), 256);
        assert_eq!(table.pool().private_tokens(), 0);
        table.release(lease);
        table.pool().check_invariants();
    }

    #[test]
    fn migrate_keeps_lease_when_pool_is_full() {
        // Capacity 64 and it is all locked by the lease's own prefix, so
        // the 128-block insert cannot be admitted.
        let mut table = LeaseTable::new(64, 64);
        let small = Block::sequence(4, 64, 64);
        table.insert(&small, t(0.0));
        let mut lease = table.lease_prefix(&small, t(0.1));
        lease.absorb_private(0);
        let big = Block::sequence(5, 128, 64);
        table.migrate(&mut lease, &big, t(1.0));
        assert_eq!(lease.matched_tokens(), 64, "lease unchanged on failure");
        table.release(lease);
    }

    #[test]
    fn lockless_lease_detach_and_rewrap() {
        let mut table = LeaseTable::new(1_000, 64);
        let lease = table.try_lease_private(500, t(0.0)).expect("fits");
        assert_eq!(lease.private_tokens(), 500);
        let raw = table.detach(lease);
        assert_eq!(raw, 500);
        assert_eq!(table.outstanding(), 0);
        // Tokens stay allocated across the handoff.
        assert_eq!(table.pool().private_tokens(), 500);
        let lease = table.lease_private(raw);
        table.release(lease);
        assert_eq!(table.pool().private_tokens(), 0);
    }

    #[test]
    fn shrink_prefers_unprotected_victim_over_decode_victims_prefix() {
        // Regression: after a crash bulk-revokes a decode batch, the
        // victims' prefixes are unlocked and LRU-cold; a concurrent
        // KvShrink used to evict them first, forcing a full re-prefill
        // on re-admission. Protection must redirect the shrink to the
        // unprotected alternative.
        let mut table = LeaseTable::new(128, 64);
        let content = ContentSpec::single(1, 64);
        let victim = content.blocks(64);
        table.insert(&victim, t(0.0));
        let lease = table.lease_prefix(&victim, t(0.5));
        table.insert(&Block::sequence(2, 64, 64), t(1.0));
        table.revoke(1, lease, &content);
        assert_eq!(table.outstanding(), 0);
        table.set_capacity(64, t(2.0));
        assert_eq!(table.peek_prefix(&victim), 64);
        assert_eq!(table.peek_prefix(&Block::sequence(2, 64, 64)), 0);
        // Re-admission: lease the protected prefix, then lift protection.
        let lease = table.lease_prefix(&victim, t(3.0));
        table.readmit(1, &victim);
        assert_eq!(lease.matched_tokens(), 64);
        table.release(lease);
        table.pool().check_invariants();
    }

    #[test]
    fn protection_survives_shrinks_until_the_same_id_leases_again() {
        let mut table = LeaseTable::new(192, 64);
        let content = ContentSpec::single(1, 64);
        let victim = content.blocks(64);
        let (a, b, c) = (
            Block::sequence(2, 64, 64),
            Block::sequence(3, 64, 64),
            Block::sequence(4, 64, 64),
        );
        table.insert(&victim, t(0.0));
        table.insert(&a, t(1.0));
        table.insert(&b, t(2.0));
        table.protect(1, &content);
        // Another id leasing the same prefix does not lift it.
        table.readmit(2, &victim);
        table.set_capacity(128, t(3.0));
        assert_eq!(table.peek_prefix(&victim), 64, "protected prefix evicted");
        assert_eq!(table.peek_prefix(&a), 0);
        table.set_capacity(192, t(3.0));
        // The victim itself is re-admitted: from here on its prefix is
        // plain LRU, older than `c`, so a shrink takes it before `c`.
        let lease = table.lease_prefix(&victim, t(4.0));
        table.readmit(1, &victim);
        table.release(lease);
        table.insert(&c, t(5.0));
        table.set_capacity(64, t(6.0));
        assert_eq!(table.peek_prefix(&victim), 0, "protection outlived readmit");
        assert_eq!(table.peek_prefix(&b), 0);
        assert_eq!(table.peek_prefix(&c), 64);
        table.pool().check_invariants();
    }

    #[test]
    fn readmitting_an_id_never_revoked_changes_no_eviction() {
        // Two tables with one protected victim (id 1) and one plain
        // entry; only the second also re-admits ids 2 and 3, which
        // were never revoked, on both prefixes. Each shrink step must
        // evict the same entries from both.
        let content = ContentSpec::single(1, 128);
        let victim = content.blocks(64);
        let plain = Block::sequence(2, 128, 64);
        let survivors = |readmit: bool| {
            let mut table = LeaseTable::new(256, 64);
            table.insert(&victim, t(0.0));
            table.insert(&plain, t(1.0));
            table.protect(1, &content);
            if readmit {
                table.readmit(2, &victim);
                table.readmit(3, &plain);
            }
            let mut left = Vec::new();
            for cap in [192, 128, 64, 0] {
                table.set_capacity(cap, t(2.0));
                left.push((table.peek_prefix(&victim), table.peek_prefix(&plain)));
            }
            table.pool().check_invariants();
            left
        };
        let without = survivors(false);
        assert_eq!(without, [(128, 64), (128, 0), (64, 0), (0, 0)]);
        assert_eq!(survivors(true), without);
    }

    #[test]
    fn outstanding_counts_leaks() {
        let mut table = LeaseTable::new(1_000, 64);
        let blocks = Block::sequence(6, 64, 64);
        let lease = table.lease_prefix(&blocks, t(0.0));
        assert_eq!(table.outstanding(), 1);
        // Dropping the lease without returning it leaves the count high —
        // exactly what the driver's end-of-run leak detector reports.
        drop(lease);
        assert_eq!(table.outstanding(), 1);
    }

    #[test]
    #[should_panic(expected = "radix lock")]
    fn detach_rejects_locked_leases() {
        let mut table = LeaseTable::new(1_000, 64);
        let blocks = Block::sequence(7, 64, 64);
        table.insert(&blocks, t(0.0));
        let lease = table.lease_prefix(&blocks, t(1.0));
        table.detach(lease);
    }
}
