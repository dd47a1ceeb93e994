//! The radix tree over content blocks.
//!
//! Each node corresponds to one block of cached tokens. Nodes live in a
//! slab and are named by slot; eviction order among access-time ties
//! falls to the slot id, so it is deterministic.

use std::collections::{BTreeMap, BTreeSet};

use simcore::SimTime;

/// A fixed-size run of tokens identified by a content hash.
///
/// # Examples
///
/// ```
/// use kvcache::Block;
/// let a = Block::sequence(1, 130, 64);
/// assert_eq!(a.len(), 3); // 64 + 64 + 2 tokens
/// assert_eq!(a[2].tokens, 2);
/// let b = Block::sequence(1, 200, 64);
/// assert_eq!(a[0], b[0]); // same stream → shared prefix blocks
/// assert_ne!(a[2], b[2]); // partial tail block differs from full block
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Block {
    /// Content hash of the block.
    pub key: u64,
    /// Tokens in the block (equal to the block size except possibly the
    /// last block of a sequence).
    pub tokens: u32,
}

impl Block {
    /// Derives the block sequence for the first `tokens` tokens of a
    /// deterministic content stream `stream_id`. Prefixes of the same
    /// stream yield prefix block sequences, which is how the workload
    /// generator expresses multi-turn context reuse.
    ///
    /// A partial tail block hashes differently from the full block at the
    /// same position (a half-filled KV page cannot be shared with a
    /// request that continues past it... it can only be shared by exact
    /// restatement, which the tail hash encodes).
    ///
    /// # Panics
    ///
    /// Panics if `block_size` is zero.
    pub fn sequence(stream_id: u64, tokens: u64, block_size: u32) -> Vec<Block> {
        assert!(block_size > 0, "zero block size");
        let bs = block_size as u64;
        let full = tokens / bs;
        let tail = tokens % bs;
        let mut out = Vec::with_capacity((full + 1) as usize);
        for i in 0..full {
            out.push(Block {
                key: mix(stream_id, i, bs as u32),
                tokens: block_size,
            });
        }
        if tail > 0 {
            out.push(Block {
                key: mix(stream_id, full, tail as u32),
                tokens: tail as u32,
            });
        }
        out
    }

    /// Total token count of a block sequence.
    pub fn total_tokens(blocks: &[Block]) -> u64 {
        blocks.iter().map(|b| b.tokens as u64).sum()
    }
}

fn mix(stream: u64, index: u64, fill: u32) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for v in [stream, index, fill as u64] {
        h ^= v;
        h = h.wrapping_mul(0x0000_0100_0000_01B3);
        h ^= h >> 29;
    }
    h
}

/// Index of a node in the tree's slab.
pub(crate) type NodeId = usize;

/// A slot id as a node stores it. [`RadixTree::alloc`] refuses to grow
/// the slab past `u32::MAX` slots, so converting a `NodeId` to a `Slot`
/// never truncates.
type Slot = u32;

/// `Node::child` of a node without children.
const NO_CHILD: Slot = Slot::MAX;

/// One cached block. A chain block's only child sits inline, so a block
/// costs one slab entry and no heap allocation of its own.
#[derive(Debug)]
pub(crate) struct Node {
    key: u64,
    last_access: SimTime,
    /// Key of the first child; meaningful only while `child != NO_CHILD`.
    child_key: u64,
    /// Slot of the first child, or `NO_CHILD`. Any further children live
    /// in the tree's spill map, so a node without a first child has none.
    child: Slot,
    parent: Slot,
    tokens: u32,
    refs: u32,
    alive: bool,
    /// Advisory eviction protection: a protected node is evicted only
    /// when no unprotected victim exists. Used by crash failover to keep
    /// revoked requests' prefixes warm until re-admission.
    protected: bool,
    /// Whether the spill map holds children of this node.
    spilled: bool,
}

/// The tree: a slab of nodes with node 0 as the sentinel root, plus an
/// LRU-ordered index of evictable leaves (alive, unreferenced, childless)
/// so eviction is O(log n) instead of a full scan. The index key leads
/// with the protection flag (`false < true`), so protected leaves sort
/// after every unprotected one and are only chosen when nothing else is
/// left — with no protected nodes the order is plain LRU, bit-identical
/// to the unprotected-only tree. An evictable node sits in the index at
/// its current `(protected, last_access, id)`, so every change to those
/// fields, its references or its children goes through
/// [`RadixTree::unindex`] before and [`RadixTree::index`] after.
///
/// Children beyond a node's first share one ordered map keyed by
/// `(parent slot, block key)`: forks (a partial tail beside the full
/// block that continues it, one session per root child) cost one map
/// entry each, and chain nodes pay nothing for them. Children are only
/// looked up, never iterated, so their order cannot reach a result.
#[derive(Debug)]
pub(crate) struct RadixTree {
    nodes: Vec<Node>,
    free: Vec<NodeId>,
    evictable: BTreeSet<(bool, SimTime, NodeId)>,
    spill: BTreeMap<(Slot, u64), Slot>,
    /// Every removed block as `(slot, key, tokens)`, in removal order.
    #[cfg(test)]
    pub removed: Vec<(NodeId, u64, u32)>,
}

pub(crate) const ROOT: NodeId = 0;

impl RadixTree {
    pub fn new() -> RadixTree {
        RadixTree {
            nodes: vec![Node {
                key: 0,
                last_access: SimTime::ZERO,
                child_key: 0,
                child: NO_CHILD,
                parent: ROOT as Slot,
                tokens: 0,
                refs: 1, // the root is never evictable
                alive: true,
                protected: false,
                spilled: false,
            }],
            free: Vec::new(),
            evictable: BTreeSet::new(),
            spill: BTreeMap::new(),
            #[cfg(test)]
            removed: Vec::new(),
        }
    }

    /// The node's key in the evictable index, when it is evictable
    /// (alive, unreferenced, childless, not the root).
    fn index_key(&self, id: NodeId) -> Option<(bool, SimTime, NodeId)> {
        let n = &self.nodes[id];
        (id != ROOT && n.alive && n.refs == 0 && n.child == NO_CHILD).then_some((
            n.protected,
            n.last_access,
            id,
        ))
    }

    /// Takes the node out of the evictable index ahead of a change to
    /// its index key or evictability; a no-op for inner, locked and root
    /// nodes, the common case on hot lookup paths.
    // simlint: hot
    fn unindex(&mut self, id: NodeId) {
        if let Some(key) = self.index_key(id) {
            self.evictable.remove(&key);
        }
    }

    /// Puts the node back into the evictable index after a change, if it
    /// is evictable now.
    // simlint: hot
    fn index(&mut self, id: NodeId) {
        if let Some(key) = self.index_key(id) {
            self.evictable.insert(key);
        }
    }

    /// The child of `id` stored under `key`, if any.
    // simlint: hot
    fn child(&self, id: NodeId, key: u64) -> Option<NodeId> {
        let n = &self.nodes[id];
        if n.child == NO_CHILD {
            None
        } else if n.child_key == key {
            Some(n.child as NodeId)
        } else if n.spilled {
            self.spill.get(&(id as Slot, key)).map(|&c| c as NodeId)
        } else {
            None
        }
    }

    /// The first spilled child of `id`, as `(key, slot)`.
    fn first_spilled(&self, id: NodeId) -> Option<(u64, Slot)> {
        if !self.nodes[id].spilled {
            return None;
        }
        let s = id as Slot;
        let (&(_, key), &child) = self.spill.range((s, 0)..=(s, u64::MAX)).next()?;
        Some((key, child))
    }

    /// Stores `child` under `key`, replacing any child already there.
    fn set_child(&mut self, id: NodeId, key: u64, child: NodeId) {
        let n = &mut self.nodes[id];
        if n.child == NO_CHILD || n.child_key == key {
            n.child_key = key;
            n.child = child as Slot;
        } else {
            self.spill.insert((id as Slot, key), child as Slot);
            n.spilled = true;
        }
    }

    /// Drops the child stored under `key`. When that was the first
    /// child, a spilled one takes its place.
    fn remove_child(&mut self, id: NodeId, key: u64) {
        let n = &self.nodes[id];
        if n.child == NO_CHILD || n.child_key != key {
            self.spill.remove(&(id as Slot, key));
        } else if let Some((k, c)) = self.first_spilled(id) {
            self.spill.remove(&(id as Slot, k));
            let n = &mut self.nodes[id];
            (n.child_key, n.child) = (k, c);
        } else {
            self.nodes[id].child = NO_CHILD;
        }
        self.nodes[id].spilled = self.first_spilled(id).is_some();
    }

    /// Sets a node's advisory eviction protection.
    pub fn set_protected(&mut self, id: NodeId, protected: bool) {
        if self.nodes[id].protected != protected {
            self.unindex(id);
            self.nodes[id].protected = protected;
            self.index(id);
        }
    }

    /// Increments a node's reference count (pins it against eviction).
    // simlint: hot
    pub fn inc_ref(&mut self, id: NodeId, now: SimTime) {
        self.unindex(id);
        self.nodes[id].refs += 1;
        self.nodes[id].last_access = now;
    }

    /// Decrements a node's reference count.
    ///
    /// # Panics
    ///
    /// Panics in debug builds when the node is not referenced.
    // simlint: hot
    pub fn dec_ref(&mut self, id: NodeId) {
        debug_assert!(self.nodes[id].refs > 0, "unlock of unlocked node");
        self.nodes[id].refs = self.nodes[id].refs.saturating_sub(1);
        self.index(id);
    }

    /// Walks the longest existing path matching `blocks`; returns
    /// `(path, matched_tokens)`. Does not touch access times.
    pub fn walk(&self, blocks: &[Block]) -> (Vec<NodeId>, u64) {
        let mut cur = ROOT;
        let mut path = Vec::new();
        let mut tokens = 0u64;
        for b in blocks {
            match self.child(cur, b.key) {
                Some(child) if self.nodes[child].tokens == b.tokens => {
                    path.push(child);
                    tokens += b.tokens as u64;
                    cur = child;
                }
                _ => break,
            }
        }
        (path, tokens)
    }

    /// Length in blocks of the longest existing path matching `blocks` —
    /// the block-granular sibling of [`RadixTree::walk`]'s token count.
    /// Replica export uses it to clip a recorded block stream to what
    /// this tree actually holds; the clipped stream imports into another
    /// tree via [`RadixTree::insert_path`].
    pub fn prefix_block_len(&self, blocks: &[Block]) -> usize {
        self.walk(blocks).0.len()
    }

    /// Inserts missing nodes along `blocks`, returning the full path and
    /// the number of **new** tokens added.
    pub fn insert_path(&mut self, blocks: &[Block], now: SimTime) -> (Vec<NodeId>, u64) {
        let mut cur = ROOT;
        let mut path = Vec::with_capacity(blocks.len());
        let mut new_tokens = 0u64;
        for b in blocks {
            let next = match self.child(cur, b.key) {
                Some(child) if self.nodes[child].tokens == b.tokens => {
                    self.unindex(child);
                    self.nodes[child].last_access = now;
                    child
                }
                _ => {
                    // `cur` gains a child: it is no longer a leaf.
                    self.unindex(cur);
                    let id = self.alloc(Node {
                        key: b.key,
                        last_access: now,
                        child_key: 0,
                        child: NO_CHILD,
                        parent: cur as Slot,
                        tokens: b.tokens,
                        refs: 0,
                        alive: true,
                        protected: false,
                        spilled: false,
                    });
                    self.set_child(cur, b.key, id);
                    new_tokens += b.tokens as u64;
                    id
                }
            };
            self.index(next);
            path.push(next);
            cur = next;
        }
        (path, new_tokens)
    }

    /// Places `node` in the most recently freed slot, else at the end of
    /// the slab.
    ///
    /// # Panics
    ///
    /// Panics if the slab would exceed `u32::MAX` slots.
    fn alloc(&mut self, node: Node) -> NodeId {
        if let Some(id) = self.free.pop() {
            self.nodes[id] = node;
            id
        } else {
            assert!(
                self.nodes.len() < NO_CHILD as usize,
                "radix tree out of slots"
            );
            self.nodes.push(node);
            self.nodes.len() - 1
        }
    }

    /// Removes an unreferenced leaf, returning its token count.
    ///
    /// # Panics
    ///
    /// Panics in debug builds if the node is referenced, has children, or
    /// is the root.
    pub fn remove_leaf(&mut self, id: NodeId) -> u32 {
        debug_assert_ne!(id, ROOT);
        debug_assert_eq!(self.nodes[id].refs, 0, "evicting a locked node");
        debug_assert_eq!(self.nodes[id].child, NO_CHILD, "evicting an inner node");
        self.unindex(id);
        let parent = self.nodes[id].parent as NodeId;
        let key = self.nodes[id].key;
        self.remove_child(parent, key);
        #[cfg(test)]
        self.removed.push((id, key, self.nodes[id].tokens));
        self.nodes[id].alive = false;
        self.nodes[id].protected = false;
        self.free.push(id);
        // The parent may have just become an evictable leaf.
        self.index(parent);
        self.nodes[id].tokens
    }

    /// The preferred eviction victim, if any (O(log n)): the LRU
    /// unprotected leaf, falling back to the LRU protected leaf only
    /// when every evictable leaf is protected.
    pub fn lru_evictable(&self) -> Option<NodeId> {
        self.evictable.iter().next().map(|&(_, _, id)| id)
    }

    /// All evictable leaves (alive, zero refs, no children),
    /// unprotected-LRU-first.
    #[cfg(test)]
    pub fn evictable_leaves(&self) -> Vec<NodeId> {
        self.evictable.iter().map(|&(_, _, id)| id).collect()
    }

    /// Total tokens stored in live non-root nodes.
    pub fn total_tokens(&self) -> u64 {
        self.nodes
            .iter()
            .skip(1)
            .filter(|n| n.alive)
            .map(|n| n.tokens as u64)
            .sum()
    }

    /// Asserts the tree's structure: every live non-root node is its live
    /// parent's child under its own key and every child entry points back
    /// to its parent; the dead slots are exactly the free list; and the
    /// evictable index holds exactly the evictable nodes, each at its
    /// current `(protected, last_access)`.
    ///
    /// # Panics
    ///
    /// Panics on the first broken condition.
    pub fn check_structure(&self) {
        let root = &self.nodes[ROOT];
        assert!(
            root.alive && root.refs > 0,
            "root must stay alive and pinned"
        );
        let mut entries = 0usize;
        for (id, n) in self.nodes.iter().enumerate() {
            if !n.alive {
                continue;
            }
            if id != ROOT {
                let parent = n.parent as NodeId;
                assert!(
                    self.nodes[parent].alive,
                    "node {id} has dead parent {parent}"
                );
                assert_eq!(
                    self.child(parent, n.key),
                    Some(id),
                    "node {id} is not its parent's child under its key"
                );
            }
            if n.child != NO_CHILD {
                entries += 1;
                let c = &self.nodes[n.child as NodeId];
                assert!(c.alive, "node {id} lists dead child {}", n.child);
                assert_eq!((c.parent as NodeId, c.key), (id, n.child_key));
            }
            if n.spilled {
                assert!(
                    self.first_spilled(id).is_some(),
                    "node {id} spilled nothing"
                );
            }
        }
        for (&(parent, key), &child) in &self.spill {
            entries += 1;
            let (p, c) = (&self.nodes[parent as NodeId], &self.nodes[child as NodeId]);
            assert!(
                p.alive && p.child != NO_CHILD && p.spilled,
                "spill entry under {parent}"
            );
            assert!(c.alive, "node {parent} lists dead child {child}");
            assert_eq!((c.parent, c.key), (parent, key));
        }
        let live = self.nodes.iter().skip(1).filter(|n| n.alive).count();
        assert_eq!(entries, live, "child entries must list each live node once");

        let free: BTreeSet<NodeId> = self.free.iter().copied().collect();
        assert_eq!(free.len(), self.free.len(), "a slot is free twice");
        let dead: BTreeSet<NodeId> = (0..self.nodes.len())
            .filter(|&id| !self.nodes[id].alive)
            .collect();
        assert_eq!(free, dead, "dead slots must be exactly the free list");

        let evictable: BTreeSet<_> = (0..self.nodes.len())
            .filter_map(|id| self.index_key(id))
            .collect();
        assert_eq!(self.evictable, evictable, "evictable index is stale");
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sequence_prefix_property() {
        let a = Block::sequence(9, 640, 64);
        let b = Block::sequence(9, 1280, 64);
        assert_eq!(&b[..10], &a[..]);
        assert_eq!(Block::total_tokens(&a), 640);
    }

    #[test]
    fn different_streams_do_not_collide() {
        let a = Block::sequence(1, 64, 64);
        let b = Block::sequence(2, 64, 64);
        assert_ne!(a[0].key, b[0].key);
    }

    #[test]
    fn walk_and_insert_roundtrip() {
        let mut t = RadixTree::new();
        let blocks = Block::sequence(3, 300, 64);
        let (path, added) = t.insert_path(&blocks, SimTime::ZERO);
        assert_eq!(added, 300);
        assert_eq!(path.len(), 5);
        let (walked, tokens) = t.walk(&blocks);
        assert_eq!(walked, path);
        assert_eq!(tokens, 300);
        // Re-insert adds nothing.
        let (_, added2) = t.insert_path(&blocks, SimTime::ZERO);
        assert_eq!(added2, 0);
        assert_eq!(t.total_tokens(), 300);
    }

    #[test]
    fn prefix_block_len_clips_replica_exports() {
        let mut origin = RadixTree::new();
        origin.insert_path(&Block::sequence(9, 256, 64), SimTime::ZERO);
        // A recorded stream longer than what the origin holds: export
        // must clip to the cached prefix, not the full recording.
        let recorded = Block::sequence(9, 512, 64);
        let n = origin.prefix_block_len(&recorded);
        assert_eq!(n, 4);
        // Importing the clipped stream mirrors exactly the origin state.
        let mut replica = RadixTree::new();
        let (_, added) = replica.insert_path(&recorded[..n], SimTime::ZERO);
        assert_eq!(added, 256);
        assert_eq!(replica.walk(&recorded).1, origin.walk(&recorded).1);
    }

    #[test]
    fn partial_match_stops_at_divergence() {
        let mut t = RadixTree::new();
        t.insert_path(&Block::sequence(3, 128, 64), SimTime::ZERO);
        let longer = Block::sequence(3, 256, 64);
        let (path, tokens) = t.walk(&longer);
        assert_eq!(tokens, 128);
        assert_eq!(path.len(), 2);
    }

    #[test]
    fn remove_leaf_frees_tokens() {
        let mut t = RadixTree::new();
        let blocks = Block::sequence(3, 128, 64);
        let (path, _) = t.insert_path(&blocks, SimTime::ZERO);
        let leaf = *path.last().unwrap();
        assert_eq!(t.evictable_leaves(), vec![leaf]);
        assert_eq!(t.remove_leaf(leaf), 64);
        assert_eq!(t.total_tokens(), 64);
        // Parent becomes a leaf.
        assert_eq!(t.evictable_leaves(), vec![path[0]]);
    }

    #[test]
    fn protected_leaves_are_evicted_last() {
        let mut t = RadixTree::new();
        // Two independent single-block chains: `a` is older (would be
        // the LRU victim), `b` newer.
        let (pa, _) = t.insert_path(&Block::sequence(1, 64, 64), SimTime::ZERO);
        let (pb, _) = t.insert_path(&Block::sequence(2, 64, 64), SimTime::from_secs(1.0));
        t.set_protected(pa[0], true);
        // With an unprotected alternative, protection redirects eviction.
        assert_eq!(t.lru_evictable(), Some(pb[0]));
        assert_eq!(t.evictable_leaves(), vec![pb[0], pa[0]]);
        // Once the alternative is gone, the protected leaf is still
        // evictable (protection is advisory, not a pin).
        t.remove_leaf(pb[0]);
        assert_eq!(t.lru_evictable(), Some(pa[0]));
        // Unprotecting restores plain LRU order.
        t.set_protected(pa[0], false);
        assert_eq!(t.lru_evictable(), Some(pa[0]));
    }

    #[test]
    fn slab_reuses_freed_slots() {
        let mut t = RadixTree::new();
        let (p, _) = t.insert_path(&Block::sequence(1, 64, 64), SimTime::ZERO);
        t.remove_leaf(p[0]);
        let (q, _) = t.insert_path(&Block::sequence(2, 64, 64), SimTime::ZERO);
        assert_eq!(q, p);
        assert_eq!(t.nodes.len(), 2);
        t.check_structure();
    }

    #[test]
    fn node_size_matches_design() {
        // DESIGN.md §12 quotes 48 bytes per cached block.
        assert!(std::mem::size_of::<Node>() <= 48);
    }

    #[test]
    fn forks_spill_and_promote_on_removal() {
        let mut t = RadixTree::new();
        let chains: Vec<_> = (1..=3).map(|s| Block::sequence(s, 128, 64)).collect();
        for (i, c) in chains.iter().enumerate() {
            t.insert_path(c, SimTime::from_secs(i as f64));
        }
        // A 36-token tail beside stream 1's full second block.
        let tail = Block::sequence(1, 100, 64);
        t.insert_path(&tail, SimTime::from_secs(3.0));
        assert!(!t.spill.is_empty());
        t.check_structure();
        // Stream 1 owns the root's inline child; once its blocks are gone
        // a spilled sibling takes that place and still matches.
        let (p1, _) = t.walk(&chains[0]);
        let (pt, _) = t.walk(&tail);
        for id in [p1[1], pt[1], p1[0]] {
            t.remove_leaf(id);
            t.check_structure();
        }
        assert_eq!(t.walk(&chains[1]).1, 128);
        assert_eq!(t.walk(&chains[2]).1, 128);
        assert_eq!(t.walk(&chains[0]).1, 0);
        while let Some(id) = t.lru_evictable() {
            t.remove_leaf(id);
            t.check_structure();
        }
        assert!(t.spill.is_empty());
        assert_eq!(t.total_tokens(), 0);
    }
}
