//! Two-tier KV cache: GPU pool + host-memory pool.
//!
//! Fig. 5 shows the optimal hit rate needs terabytes of cache — far more
//! HBM than a server has. Production systems (e.g. the Mooncake
//! architecture the paper's traces come from) therefore keep a second,
//! much larger KV tier in host memory: entries evicted from the device
//! survive on the host and are *fetched* over PCIe instead of recomputed.
//!
//! [`TieredPool`] is write-through: commits land in both tiers, so a
//! device eviction never loses content that the host can still serve.
//! Lookups report how many tokens each tier covers
//! (the device lock's match plus [`TieredMatch::host_tokens`]); the
//! scheduler charges a PCIe fetch for host hits and recompute for misses
//! — both are far cheaper than recomputing everything, which is the
//! point.

use simcore::SimTime;

use crate::pool::{KvPool, MatchOutcome, PoolStats};
use crate::radix::Block;

/// Result of a two-tier lookup.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TieredMatch {
    /// The device-tier lock (reused directly, zero cost).
    pub device: MatchOutcome,
    /// Additional prefix tokens the host tier covers beyond the device
    /// match (must be fetched over the host link before use).
    pub host_tokens: u64,
}

impl TieredMatch {
    /// Tokens served without recompute (device + host).
    pub fn cached_tokens(&self) -> u64 {
        self.device.matched_tokens + self.host_tokens
    }
}

/// A write-through two-tier KV pool. See the [module docs](self).
#[derive(Debug)]
pub struct TieredPool {
    device: KvPool,
    host: KvPool,
    host_hit_tokens: u64,
}

impl TieredPool {
    /// Creates a tiered pool: `device_tokens` of HBM-backed cache and
    /// `host_tokens` of host-memory cache, both at `block_size`.
    ///
    /// # Panics
    ///
    /// Panics if `block_size` is zero.
    pub fn new(device_tokens: u64, host_tokens: u64, block_size: u32) -> TieredPool {
        TieredPool {
            device: KvPool::new(device_tokens, block_size),
            host: KvPool::new(host_tokens, block_size),
            host_hit_tokens: 0,
        }
    }

    /// The device tier (private allocations, locking and eviction behave
    /// exactly like a plain [`KvPool`]).
    pub fn device(&self) -> &KvPool {
        &self.device
    }

    /// Two-tier prefix lookup: locks the device match and counts the
    /// host tier's additional coverage.
    pub fn match_prefix(&mut self, blocks: &[Block], now: SimTime) -> TieredMatch {
        let device = self.device.match_prefix(blocks, now);
        let host_total = self.host.peek_prefix(blocks);
        // Touch the host entries so its LRU reflects use.
        let lock = self.host.lock_prefix(blocks, now);
        self.host.unlock(&lock);
        let host_tokens = host_total.saturating_sub(device.matched_tokens);
        self.host_hit_tokens += host_tokens;
        TieredMatch {
            device,
            host_tokens,
        }
    }

    /// Promotes host-resident content into the device tier after a fetch
    /// (the caller charges the PCIe time separately). Returns whether the
    /// device admitted it.
    pub fn promote(&mut self, blocks: &[Block], now: SimTime) -> bool {
        self.device.insert(blocks, now)
    }

    /// Write-through commit: the content enters both tiers.
    pub fn insert(&mut self, blocks: &[Block], now: SimTime) -> bool {
        let host_ok = self.host.insert(blocks, now);
        let device_ok = self.device.insert(blocks, now);
        host_ok || device_ok
    }

    /// Releases a device lock from [`TieredPool::match_prefix`].
    pub fn unlock(&mut self, m: &TieredMatch) {
        self.device.unlock(&m.device);
    }

    /// Device-tier statistics (device hit rate).
    pub fn device_stats(&self) -> PoolStats {
        self.device.stats()
    }

    /// Tokens served by the host tier so far (would have been recomputed
    /// in a single-tier deployment).
    pub fn host_hit_tokens(&self) -> u64 {
        self.host_hit_tokens
    }

    /// Combined hit rate over both tiers.
    pub fn combined_hit_rate(&self) -> f64 {
        let d = self.device.stats();
        if d.lookup_tokens == 0 {
            0.0
        } else {
            (d.hit_tokens + self.host_hit_tokens) as f64 / d.lookup_tokens as f64
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
    fn host_tier_survives_device_eviction() {
        let mut p = TieredPool::new(128, 4096, 64);
        p.insert(&Block::sequence(1, 128, 64), t(0.0));
        // Fill the device, evicting stream 1 there.
        p.insert(&Block::sequence(2, 128, 64), t(1.0));
        let m = p.match_prefix(&Block::sequence(1, 128, 64), t(2.0));
        assert_eq!(m.device.matched_tokens, 0, "device evicted stream 1");
        assert_eq!(m.host_tokens, 128, "host still serves it");
        assert_eq!(m.cached_tokens(), 128);
        p.unlock(&m);
    }

    #[test]
    fn promotion_restores_device_hits() {
        let mut p = TieredPool::new(128, 4096, 64);
        p.insert(&Block::sequence(1, 128, 64), t(0.0));
        p.insert(&Block::sequence(2, 128, 64), t(1.0));
        assert!(p.promote(&Block::sequence(1, 128, 64), t(2.0)));
        let m = p.match_prefix(&Block::sequence(1, 128, 64), t(3.0));
        assert_eq!(m.device.matched_tokens, 128);
        assert_eq!(m.host_tokens, 0);
        p.unlock(&m);
    }

    #[test]
    fn combined_hit_rate_counts_both_tiers() {
        let mut p = TieredPool::new(64, 4096, 64);
        p.insert(&Block::sequence(1, 64, 64), t(0.0));
        p.insert(&Block::sequence(2, 64, 64), t(1.0)); // evicts 1 on device
        let m1 = p.match_prefix(&Block::sequence(1, 64, 64), t(2.0));
        p.unlock(&m1);
        let m2 = p.match_prefix(&Block::sequence(2, 64, 64), t(3.0));
        p.unlock(&m2);
        assert_eq!(p.host_hit_tokens(), 64);
        assert!((p.combined_hit_rate() - 1.0).abs() < 1e-12);
        assert!(p.device_stats().hit_rate() < 1.0);
    }

    #[test]
    fn host_misses_are_real_misses() {
        let mut p = TieredPool::new(64, 256, 64);
        let m = p.match_prefix(&Block::sequence(9, 64, 64), t(0.0));
        assert_eq!(m.cached_tokens(), 0);
        p.unlock(&m);
        assert_eq!(p.combined_hit_rate(), 0.0);
    }

    #[test]
    fn host_tier_also_evicts_lru() {
        let mut p = TieredPool::new(64, 128, 64);
        p.insert(&Block::sequence(1, 64, 64), t(0.0));
        p.insert(&Block::sequence(2, 64, 64), t(1.0));
        p.insert(&Block::sequence(3, 64, 64), t(2.0)); // host evicts 1
        let m = p.match_prefix(&Block::sequence(1, 64, 64), t(3.0));
        assert_eq!(m.cached_tokens(), 0, "both tiers dropped stream 1");
        p.unlock(&m);
    }
}
