//! The KV-cache pool: capacity accounting, locking, LRU eviction, stats.

use simcore::SimTime;

use crate::radix::{Block, NodeId, RadixTree};

/// Result of a prefix lookup.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MatchOutcome {
    /// Tokens of the query covered by cached prefix (`r` in the paper).
    pub matched_tokens: u64,
    /// Path of matched nodes, root-first; pass to [`KvPool::unlock`] when
    /// the request finishes (the path is locked against eviction).
    pub path: Vec<NodeId>,
}

/// Hit-rate statistics (Fig. 5).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PoolStats {
    /// Number of prefix lookups.
    pub lookups: u64,
    /// Tokens requested across all lookups.
    pub lookup_tokens: u64,
    /// Tokens served from cache across all lookups.
    pub hit_tokens: u64,
    /// Tokens evicted so far.
    pub evicted_tokens: u64,
}

impl PoolStats {
    /// Token-weighted cache hit rate in `[0, 1]`; 0 when nothing was
    /// looked up.
    pub fn hit_rate(&self) -> f64 {
        if self.lookup_tokens == 0 {
            0.0
        } else {
            self.hit_tokens as f64 / self.lookup_tokens as f64
        }
    }
}

/// A KV-cache pool of fixed token capacity with radix-tree prefix sharing
/// and LRU eviction. See the [crate docs](crate) for the model.
#[derive(Debug)]
pub struct KvPool {
    tree: RadixTree,
    capacity_tokens: u64,
    shared_tokens: u64,
    private_tokens: u64,
    block_size: u32,
    stats: PoolStats,
}

impl KvPool {
    /// Creates a pool holding at most `capacity_tokens` tokens of KV
    /// entries, organized in blocks of `block_size` tokens.
    ///
    /// # Panics
    ///
    /// Panics if `block_size` is zero or above `u16::MAX`, the largest
    /// token count a radix-tree node stores.
    pub fn new(capacity_tokens: u64, block_size: u32) -> KvPool {
        assert!(block_size > 0, "zero block size");
        assert!(
            block_size <= u32::from(u16::MAX),
            "block size {block_size} exceeds the radix tree's limit of {} tokens per block",
            u16::MAX
        );
        KvPool {
            tree: RadixTree::new(),
            capacity_tokens,
            shared_tokens: 0,
            private_tokens: 0,
            block_size,
            stats: PoolStats::default(),
        }
    }

    /// The pool's block size in tokens.
    pub fn block_size(&self) -> u32 {
        self.block_size
    }

    /// Total capacity in tokens.
    pub fn capacity_tokens(&self) -> u64 {
        self.capacity_tokens
    }

    /// Tokens currently held (shared radix entries + private workspace).
    pub fn used_tokens(&self) -> u64 {
        self.shared_tokens + self.private_tokens
    }

    /// Tokens available without eviction.
    pub fn free_tokens(&self) -> u64 {
        self.capacity_tokens.saturating_sub(self.used_tokens())
    }

    /// Hit-rate statistics so far.
    pub fn stats(&self) -> PoolStats {
        self.stats
    }

    /// Finds the longest cached prefix of `blocks`, **locks** it against
    /// eviction, refreshes its LRU timestamps, and records hit statistics.
    /// Call [`KvPool::unlock`] with the returned path when the request
    /// leaves the system.
    pub fn match_prefix(&mut self, blocks: &[Block], now: SimTime) -> MatchOutcome {
        let (path, matched) = self.tree.walk(blocks);
        for &id in &path {
            self.tree.inc_ref(id, now);
        }
        self.stats.lookups += 1;
        self.stats.lookup_tokens += Block::total_tokens(blocks);
        self.stats.hit_tokens += matched;
        MatchOutcome {
            matched_tokens: matched,
            path,
        }
    }

    /// Peeks at the longest cached prefix without locking or recording
    /// statistics (used by schedulers to estimate the reused length before
    /// committing to a plan).
    pub fn peek_prefix(&self, blocks: &[Block]) -> u64 {
        self.tree.walk(blocks).1
    }

    /// Number of leading blocks of `blocks` currently cached — the
    /// export half of hot-prefix replication: `&blocks[..n]` is exactly
    /// the stream another pool can import with [`KvPool::insert`]
    /// without fabricating KV state the origin never computed.
    pub fn cached_prefix_blocks(&self, blocks: &[Block]) -> usize {
        self.tree.prefix_block_len(blocks)
    }

    /// Locks the longest cached prefix **without** recording hit
    /// statistics. Used when a scheduler migrates a running request's
    /// freshly computed KV into the shared radix (an internal move, not a
    /// cache lookup).
    pub fn lock_prefix(&mut self, blocks: &[Block], now: SimTime) -> MatchOutcome {
        let (path, matched) = self.tree.walk(blocks);
        for &id in &path {
            self.tree.inc_ref(id, now);
        }
        MatchOutcome {
            matched_tokens: matched,
            path,
        }
    }

    /// Commits `blocks` to the shared cache (a finished request's full
    /// context, so later turns can reuse it), evicting LRU entries as
    /// needed. Returns `false` — committing nothing — if even after
    /// evicting everything evictable the new tokens would not fit; the
    /// caller simply loses reuse, matching real systems' admission
    /// behaviour.
    pub fn insert(&mut self, blocks: &[Block], now: SimTime) -> bool {
        let total = Block::total_tokens(blocks);
        loop {
            // Count the missing suffix. Eviction below may remove part of
            // an already-cached prefix, so this is recomputed each pass.
            let (_, matched) = self.tree.walk(blocks);
            let would_add = total - matched;
            if self.free_tokens() >= would_add {
                let (_, added) = self.tree.insert_path(blocks, now);
                debug_assert_eq!(added, would_add);
                self.shared_tokens += added;
                return true;
            }
            if !self.make_room(would_add, now) {
                return false;
            }
        }
    }

    /// Releases the lock taken by [`KvPool::match_prefix`].
    ///
    /// # Panics
    ///
    /// Panics in debug builds if a node on the path is not locked.
    pub fn unlock(&mut self, outcome: &MatchOutcome) {
        for &id in &outcome.path {
            self.tree.dec_ref(id);
        }
    }

    /// Reserves `tokens` of private (unshared) pool space — the KV
    /// entries a running request computes for its new context and
    /// generated tokens. Evicts LRU shared entries if needed. Returns
    /// `false` (reserving nothing) when the pool cannot make room, i.e.
    /// the request must wait.
    pub fn try_alloc_private(&mut self, tokens: u64, now: SimTime) -> bool {
        if !self.make_room(tokens, now) {
            return false;
        }
        self.private_tokens += tokens;
        true
    }

    /// Returns private space reserved with [`KvPool::try_alloc_private`].
    ///
    /// # Panics
    ///
    /// Panics in debug builds when freeing more than was allocated.
    pub fn free_private(&mut self, tokens: u64) {
        debug_assert!(tokens <= self.private_tokens, "private underflow");
        self.private_tokens = self.private_tokens.saturating_sub(tokens);
    }

    /// Evicts unlocked LRU leaves until `tokens` fit. Returns whether the
    /// space is available afterwards.
    fn make_room(&mut self, tokens: u64, _now: SimTime) -> bool {
        while self.free_tokens() < tokens {
            // The least-recently-used evictable leaf (O(log n) via the
            // tree's evictable index; ties broken by node id).
            match self.tree.lru_evictable() {
                Some(id) => {
                    let freed = self.tree.remove_leaf(id) as u64;
                    self.shared_tokens -= freed;
                    self.stats.evicted_tokens += freed;
                }
                None => return false,
            }
        }
        true
    }

    /// Shrinks (or restores) the pool's capacity to `cap` tokens,
    /// evicting unlocked LRU shared entries toward the new limit. Private
    /// workspace and locked prefixes cannot be evicted, so the pool may
    /// remain overcommitted after a shrink; subsequent allocations fail
    /// until usage drains below the new capacity. Models losing (and
    /// regaining) HBM headroom mid-run, e.g. a co-tenant claiming memory.
    pub fn set_capacity_tokens(&mut self, cap: u64, _now: SimTime) {
        self.capacity_tokens = cap;
        while self.used_tokens() > cap {
            match self.tree.lru_evictable() {
                Some(id) => {
                    let freed = self.tree.remove_leaf(id) as u64;
                    self.shared_tokens -= freed;
                    self.stats.evicted_tokens += freed;
                }
                None => break,
            }
        }
    }

    /// Marks the cached prefix of `blocks` eviction-protected: protected
    /// entries are evicted only when no unprotected victim exists, so
    /// LRU pressure (including [`KvPool::set_capacity_tokens`] shrinks)
    /// prefers an alternative victim. Advisory — protection never makes
    /// an allocation fail that would otherwise succeed. Used by crash
    /// failover to keep a revoked request's prefix warm until it is
    /// re-admitted on a survivor; with no protected entries, eviction
    /// order is bit-identical to plain LRU.
    pub fn protect_prefix(&mut self, blocks: &[Block]) {
        let (path, _) = self.tree.walk(blocks);
        for id in path {
            self.tree.set_protected(id, true);
        }
    }

    /// Clears the protection set by [`KvPool::protect_prefix`] on the
    /// cached prefix of `blocks` (idempotent; already-evicted entries
    /// are simply absent).
    pub fn unprotect_prefix(&mut self, blocks: &[Block]) {
        let (path, _) = self.tree.walk(blocks);
        for id in path {
            self.tree.set_protected(id, false);
        }
    }

    /// Number of shared tokens resident (for capacity telemetry).
    pub fn shared_tokens(&self) -> u64 {
        self.shared_tokens
    }

    /// Number of private tokens reserved.
    pub fn private_tokens(&self) -> u64 {
        self.private_tokens
    }

    /// Internal consistency check, used by tests. The radix tree must be
    /// well formed: every live block is its parent's child under its own
    /// key and points back to that parent, the dead slots are exactly the
    /// free list, and the eviction index holds exactly the live,
    /// unreferenced, childless blocks at their current protection and
    /// access time. Its token count must equal the shared counter.
    ///
    /// # Panics
    ///
    /// Panics on the first broken condition.
    pub fn check_invariants(&self) {
        self.tree.check_structure();
        assert_eq!(self.tree.total_tokens(), self.shared_tokens);
        assert!(self.used_tokens() <= self.capacity_tokens.max(self.used_tokens()));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(s: f64) -> SimTime {
        SimTime::from_secs(s)
    }

    #[test]
    #[should_panic(
        expected = "block size 65536 exceeds the radix tree's limit of 65535 tokens per block"
    )]
    fn block_sizes_above_16_bits_are_rejected() {
        KvPool::new(1 << 20, u32::from(u16::MAX) + 1);
    }

    #[test]
    fn the_largest_block_size_caches_full_blocks() {
        let bs = u32::from(u16::MAX);
        let tokens = 2 * u64::from(bs) + 5;
        let mut p = KvPool::new(1 << 20, bs);
        let blocks = Block::sequence(1, tokens, bs);
        assert!(p.insert(&blocks, t(0.0)));
        assert_eq!(p.peek_prefix(&blocks), tokens);
        p.check_invariants();
    }

    #[test]
    fn insert_then_match_full_hit() {
        let mut p = KvPool::new(10_000, 64);
        let blocks = Block::sequence(1, 1000, 64);
        assert!(p.insert(&blocks, t(0.0)));
        let m = p.match_prefix(&blocks, t(1.0));
        assert_eq!(m.matched_tokens, 1000);
        assert!((p.stats().hit_rate() - 1.0).abs() < 1e-12);
        p.unlock(&m);
        p.check_invariants();
    }

    #[test]
    fn multi_turn_prefix_reuse() {
        let mut p = KvPool::new(100_000, 64);
        // Turn 1: 1,024 tokens of context committed.
        p.insert(&Block::sequence(5, 1024, 64), t(0.0));
        // Turn 2 reuses the first 1,024 of its 2,048-token context.
        let turn2 = Block::sequence(5, 2048, 64);
        let m = p.match_prefix(&turn2, t(1.0));
        assert_eq!(m.matched_tokens, 1024);
        p.unlock(&m);
        p.insert(&turn2, t(1.0));
        assert_eq!(p.shared_tokens(), 2048);
    }

    #[test]
    fn lru_eviction_order() {
        let mut p = KvPool::new(128, 64);
        p.insert(&Block::sequence(1, 64, 64), t(0.0));
        p.insert(&Block::sequence(2, 64, 64), t(1.0));
        // Touch stream 1 so stream 2 becomes LRU.
        let m = p.match_prefix(&Block::sequence(1, 64, 64), t(2.0));
        p.unlock(&m);
        // Inserting stream 3 must evict stream 2.
        assert!(p.insert(&Block::sequence(3, 64, 64), t(3.0)));
        assert_eq!(p.peek_prefix(&Block::sequence(1, 64, 64)), 64);
        assert_eq!(p.peek_prefix(&Block::sequence(2, 64, 64)), 0);
        assert_eq!(p.stats().evicted_tokens, 64);
        p.check_invariants();
    }

    #[test]
    fn locked_entries_survive_eviction() {
        let mut p = KvPool::new(128, 64);
        p.insert(&Block::sequence(1, 64, 64), t(0.0));
        let lock = p.match_prefix(&Block::sequence(1, 64, 64), t(0.5));
        p.insert(&Block::sequence(2, 64, 64), t(1.0));
        // Pool is full and stream 1 is locked → stream 3 cannot fit and
        // stream 2 (unlocked) is the only candidate.
        assert!(p.insert(&Block::sequence(3, 64, 64), t(2.0)));
        assert_eq!(p.peek_prefix(&Block::sequence(1, 64, 64)), 64);
        p.unlock(&lock);
    }

    #[test]
    fn insert_fails_when_everything_is_locked() {
        let mut p = KvPool::new(64, 64);
        p.insert(&Block::sequence(1, 64, 64), t(0.0));
        let lock = p.match_prefix(&Block::sequence(1, 64, 64), t(0.1));
        assert!(!p.insert(&Block::sequence(2, 64, 64), t(1.0)));
        p.unlock(&lock);
        assert!(p.insert(&Block::sequence(2, 64, 64), t(2.0)));
    }

    #[test]
    fn private_allocation_and_release() {
        let mut p = KvPool::new(1000, 64);
        assert!(p.try_alloc_private(800, t(0.0)));
        assert!(!p.try_alloc_private(300, t(0.0)));
        p.free_private(800);
        assert!(p.try_alloc_private(300, t(0.0)));
        assert_eq!(p.private_tokens(), 300);
    }

    #[test]
    fn private_allocation_evicts_shared() {
        let mut p = KvPool::new(128, 64);
        p.insert(&Block::sequence(1, 128, 64), t(0.0));
        assert!(p.try_alloc_private(64, t(1.0)));
        assert_eq!(p.shared_tokens(), 64);
        p.check_invariants();
    }

    #[test]
    fn hit_rate_degrades_with_smaller_pool() {
        // Fig. 5's mechanism in miniature: same access stream, two pool
        // sizes; the smaller pool evicts and misses more.
        let run = |capacity: u64| {
            let mut p = KvPool::new(capacity, 64);
            let mut clock = 0.0;
            for round in 0..4 {
                for session in 0..8u64 {
                    clock += 1.0;
                    let len = 512 * (round + 1);
                    let blocks = Block::sequence(session, len, 64);
                    let m = p.match_prefix(&blocks, t(clock));
                    p.unlock(&m);
                    p.insert(&blocks, t(clock));
                }
            }
            p.stats().hit_rate()
        };
        let big = run(64 * 1024);
        let small = run(2 * 1024);
        assert!(big > 0.5, "big pool hit rate {big}");
        assert!(small < big - 0.2, "small {small} vs big {big}");
    }

    #[test]
    fn capacity_shrink_evicts_lru_but_tolerates_locked_overcommit() {
        let mut p = KvPool::new(256, 64);
        p.insert(&Block::sequence(1, 64, 64), t(0.0));
        p.insert(&Block::sequence(2, 64, 64), t(1.0));
        let lock = p.match_prefix(&Block::sequence(1, 64, 64), t(2.0));
        assert!(p.try_alloc_private(64, t(2.0)));
        // Shrink to 64: stream 2 (unlocked LRU) is evicted; the locked
        // stream 1 prefix and the private workspace stay, leaving the
        // pool overcommitted (128 used > 64 cap) but consistent.
        p.set_capacity_tokens(64, t(3.0));
        assert_eq!(p.capacity_tokens(), 64);
        assert_eq!(p.peek_prefix(&Block::sequence(2, 64, 64)), 0);
        assert_eq!(p.peek_prefix(&Block::sequence(1, 64, 64)), 64);
        assert_eq!(p.used_tokens(), 128);
        assert_eq!(p.free_tokens(), 0);
        assert!(!p.try_alloc_private(1, t(3.0)));
        p.check_invariants();
        // Restore: allocations work again.
        p.set_capacity_tokens(256, t(4.0));
        assert!(p.try_alloc_private(64, t(4.0)));
        p.unlock(&lock);
        p.check_invariants();
    }

    #[test]
    fn capacity_shrink_spares_protected_prefix_when_alternative_exists() {
        // Regression: a decode victim's (released, unlocked) prefix used
        // to be the LRU entry after bulk revocation, so a capacity
        // shrink would evict exactly the state its re-admission needs.
        // Protection must redirect the eviction to the newer,
        // unprotected stream 2 — and plain LRU would have picked
        // stream 1, so the test fails without the protected tier.
        let mut p = KvPool::new(128, 64);
        let victim = Block::sequence(1, 64, 64);
        p.insert(&victim, t(0.0));
        p.insert(&Block::sequence(2, 64, 64), t(1.0));
        p.protect_prefix(&victim);
        p.set_capacity_tokens(64, t(2.0));
        assert_eq!(p.peek_prefix(&victim), 64, "protected prefix evicted");
        assert_eq!(p.peek_prefix(&Block::sequence(2, 64, 64)), 0);
        // With no unprotected alternative left, protection yields: the
        // next shrink may evict the protected entry rather than stall.
        p.set_capacity_tokens(0, t(3.0));
        assert_eq!(p.peek_prefix(&victim), 0);
        p.unprotect_prefix(&victim); // no-op on evicted entries
        p.check_invariants();
    }

    #[test]
    fn eviction_order_is_pinned() {
        // One fixed history whose victims pin slot ids, LIFO free-slot
        // reuse and the (protected, last_access, slot) tie-break. Each
        // entry is (slot, stream, tokens of the sequence, block index).
        fn take(p: &mut KvPool) -> Vec<(NodeId, u64, u32)> {
            std::mem::take(&mut p.tree.removed)
        }
        fn victims(expect: &[(NodeId, u64, u64, usize)]) -> Vec<(NodeId, u64, u32)> {
            expect
                .iter()
                .map(|&(slot, stream, tokens, i)| {
                    let b = Block::sequence(stream, tokens, 64)[i];
                    (slot, b.key, b.tokens)
                })
                .collect()
        }
        let seq = |stream, tokens| Block::sequence(stream, tokens, 64);
        let mut p = KvPool::new(2_000, 64);
        // 200 = 3×64 + 8 and 130 = 2×64 + 2: both end in a partial block;
        // streams 1 and 2 tie on access time.
        p.insert(&seq(1, 200), t(0.0));
        p.insert(&seq(2, 130), t(0.0));
        p.insert(&seq(3, 300), t(1.0));
        // A shorter restatement of stream 1 branches off its second
        // block with a 22-token tail beside the full third block.
        p.insert(&seq(1, 150), t(2.0));
        let lock2 = p.match_prefix(&seq(2, 130), t(3.0));
        p.protect_prefix(&seq(3, 300));
        p.set_capacity_tokens(400, t(4.0));
        let expect = [
            (4, 1, 200, 3),
            (3, 1, 200, 2),
            (13, 1, 150, 2),
            (2, 1, 200, 1),
            (1, 1, 200, 0),
            (12, 3, 300, 4), // protected, taken once nothing else is left
        ];
        assert_eq!(take(&mut p), victims(&expect));
        p.check_invariants();

        // Restore, release, and refill: new blocks take freed slots.
        p.set_capacity_tokens(2_000, t(5.0));
        p.unlock(&lock2);
        p.insert(&seq(4, 256), t(6.0));
        p.insert(&seq(5, 100), t(6.0));
        p.unprotect_prefix(&seq(3, 300));
        let lock4 = p.match_prefix(&seq(4, 128), t(7.0));
        assert!(p.try_alloc_private(p.free_tokens() + 300, t(8.0)));
        let expect = [
            (11, 3, 300, 3),
            (10, 3, 300, 2),
            (9, 3, 300, 1),
            (8, 3, 300, 0),
            (7, 2, 130, 2),
            (6, 2, 130, 1),
        ];
        assert_eq!(take(&mut p), victims(&expect));
        p.check_invariants();

        p.protect_prefix(&seq(2, 130));
        p.unlock(&lock4);
        p.set_capacity_tokens(0, t(9.0));
        // Streams 4 and 5 were inserted into slots freed above (LIFO) and
        // tie at t = 6 until stream 4's lock refreshed its first blocks.
        let expect = [
            (4, 5, 100, 1),
            (3, 5, 100, 0),
            (13, 4, 256, 3),
            (2, 4, 256, 2),
            (1, 4, 256, 1),
            (12, 4, 256, 0),
            (5, 2, 130, 0),
        ];
        assert_eq!(take(&mut p), victims(&expect));
        assert_eq!(p.shared_tokens(), 0);
        p.check_invariants();
    }

    #[test]
    fn peek_does_not_lock_or_count() {
        let mut p = KvPool::new(10_000, 64);
        p.insert(&Block::sequence(1, 640, 64), t(0.0));
        assert_eq!(p.peek_prefix(&Block::sequence(1, 640, 64)), 640);
        assert_eq!(p.stats().lookups, 0);
        // Still evictable after peek.
        assert!(p.try_alloc_private(10_000, t(1.0)));
    }
}
