//! Paged KV-cache block manager (paper §4.5 "memory planner ... memory
//! manager" — the PagedAttention allocation model of vLLM).
//!
//! Tokens are stored in fixed-size blocks; a request holds
//! `ceil(cached_tokens / block_size)` blocks. The manager enforces a
//! watermark: admissions must leave a configurable fraction of blocks free
//! so in-flight decodes can grow without immediate preemption.

use crate::request::NO_PREFIX;
use serde::{Deserialize, Serialize};

/// One reference-counted cached prefix: the first `tokens` tokens (always a
/// whole number of blocks) of every request carrying `key`. The blocks are
/// counted in [`BlockManager::used_blocks`] but owned by the cache tier, not
/// by any request; `refs` counts the live requests currently reading them,
/// and entries with `refs == 0` stay resident until LRU eviction reclaims
/// them under memory pressure.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
struct PrefixEntry {
    key: u64,
    /// Cached prefix length in tokens (a multiple of the block size).
    tokens: u64,
    /// Blocks the entry owns (`tokens / block_size`).
    blocks: u64,
    /// Live borrowers; only `refs == 0` entries are evictable.
    refs: u64,
    /// Last-touch sequence number for LRU ordering.
    lru: u64,
}

/// What one request holds in its replica's KV cache: the blocks it owns
/// and the cached prefix it borrows, if any. It lives in the request's
/// [`TrackedRequest::kv`](crate::TrackedRequest::kv), not in the manager.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct KvHolding {
    /// Blocks owned (0 = not a holder; a holder always owns ≥ 1 block
    /// since requests are non-empty).
    blocks: u64,
    /// Borrowed prefix-entry key: the entry [`BlockManager::release`] must
    /// dereference, exactly once.
    prefix: Option<u64>,
}

impl KvHolding {
    /// Blocks this request owns (borrowed prefix blocks excluded: the cache
    /// tier owns those).
    pub fn blocks(&self) -> u64 {
        self.blocks
    }
}

/// Paged KV-cache accounting for one replica: the block pool, the
/// admission watermark and the prefix-cache entries. What each request
/// holds is a [`KvHolding`] kept by the caller.
///
/// # Example
///
/// ```
/// use vidur_scheduler::{BlockManager, KvHolding};
/// let mut m = BlockManager::new(100, 16, 0.01);
/// let mut h = KvHolding::default();
/// assert!(m.try_reserve(&mut h, 64)); // 4 blocks for 64 tokens
/// assert_eq!(h.blocks(), 4);
/// assert_eq!(m.free_blocks(), 96);
/// m.release(&mut h);
/// assert_eq!(m.free_blocks(), 100);
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct BlockManager {
    total_blocks: u64,
    block_size: u32,
    watermark_blocks: u64,
    /// Holdings that own at least one block.
    holders: usize,
    used_blocks: u64,
    /// Whether the prefix-cache tier is armed. All prefix state below stays
    /// empty (and every hot path byte-identical to the pre-prefix manager)
    /// while this is `false`.
    prefix_armed: bool,
    /// Cached prefix entries. A linear scan: real runs share a handful of
    /// system prompts, not thousands.
    prefix_entries: Vec<PrefixEntry>,
    /// LRU clock for [`PrefixEntry::lru`].
    prefix_lru_seq: u64,
}

impl BlockManager {
    /// Creates a manager over `total_blocks` blocks of `block_size` tokens,
    /// keeping `watermark_frac` of blocks free during admission.
    ///
    /// # Panics
    ///
    /// Panics if `total_blocks == 0`, `block_size == 0`, or the watermark is
    /// outside `[0, 1)`.
    pub fn new(total_blocks: u64, block_size: u32, watermark_frac: f64) -> Self {
        assert!(total_blocks > 0, "need at least one KV block");
        assert!(block_size > 0, "block size must be positive");
        assert!(
            (0.0..1.0).contains(&watermark_frac),
            "watermark must be in [0, 1)"
        );
        let watermark_blocks = ((total_blocks as f64 * watermark_frac).ceil() as u64)
            .min(total_blocks.saturating_sub(1));
        BlockManager {
            total_blocks,
            block_size,
            watermark_blocks,
            holders: 0,
            used_blocks: 0,
            prefix_armed: false,
            prefix_entries: Vec::new(),
            prefix_lru_seq: 0,
        }
    }

    /// Arms the prefix-cache tier. Requests admitted with a prefix key after
    /// this share reference-counted cached prefix blocks; a disarmed manager
    /// is byte-identical to one built before the tier existed.
    pub fn arm_prefix_cache(&mut self) {
        self.prefix_armed = true;
    }

    /// Sets `h`'s owned-block count, keeping the holder count in sync.
    fn set_blocks(&mut self, h: &mut KvHolding, blocks: u64) {
        match (h.blocks, blocks) {
            (0, b) if b > 0 => self.holders += 1,
            (p, 0) if p > 0 => self.holders -= 1,
            _ => {}
        }
        h.blocks = blocks;
    }

    /// Total blocks under management.
    pub fn total_blocks(&self) -> u64 {
        self.total_blocks
    }

    /// Tokens per block.
    pub fn block_size(&self) -> u32 {
        self.block_size
    }

    /// Currently free blocks.
    pub fn free_blocks(&self) -> u64 {
        self.total_blocks - self.used_blocks
    }

    /// Currently used blocks.
    pub fn used_blocks(&self) -> u64 {
        self.used_blocks
    }

    /// Fraction of blocks in use.
    pub fn utilization(&self) -> f64 {
        self.used_blocks as f64 / self.total_blocks as f64
    }

    /// Blocks needed to cache `tokens` tokens.
    pub fn blocks_for(&self, tokens: u64) -> u64 {
        tokens.div_ceil(self.block_size as u64)
    }

    /// Reserves blocks so `h` holds capacity for `total_tokens` cached
    /// tokens (admission path; respects the watermark). Returns `false`
    /// without side effects if memory is insufficient — after evicting
    /// unreferenced cached prefixes when the prefix tier is armed.
    pub fn try_reserve(&mut self, h: &mut KvHolding, total_tokens: u64) -> bool {
        let target = self.blocks_for(total_tokens);
        if target <= h.blocks {
            return true;
        }
        let need = target - h.blocks;
        if !self.ensure_free(need + self.watermark_blocks) {
            return false;
        }
        self.used_blocks += need;
        self.set_blocks(h, target);
        true
    }

    /// Prefix-aware admission reserve: like [`try_reserve`](Self::try_reserve)
    /// for `total_tokens`, but when the prefix tier is armed and the request
    /// carries a prefix (`key != NO_PREFIX`, declared length `prefix_len` of
    /// its `prefill_tokens`-token prompt):
    ///
    /// - **Hit** (key already cached): the request borrows the entry's blocks
    ///   instead of reserving its own for them, and the returned token count
    ///   (> 0, whole blocks, always leaving at least one prefill token to
    ///   compute) is the prefill prefix admission may skip.
    /// - **Miss**: the full footprint is reserved and the aligned prefix
    ///   blocks are donated to a new cache entry so later arrivals hit.
    ///   Returns `Some(0)` — the first request computes its whole prefill.
    ///
    /// Returns `None` without side effects if memory is insufficient even
    /// after evicting every unreferenced cached prefix.
    pub fn try_reserve_prefixed(
        &mut self,
        h: &mut KvHolding,
        total_tokens: u64,
        key: u64,
        prefill_tokens: u64,
        prefix_len: u64,
    ) -> Option<u64> {
        if !self.prefix_armed || key == NO_PREFIX {
            return self.try_reserve(h, total_tokens).then_some(0);
        }
        debug_assert_eq!(h.prefix, None, "request already borrows");
        let bs = self.block_size as u64;
        let Some(pos) = self.entry_pos(key) else {
            // Miss: reserve in full, then carve the cache entry out of the
            // request's own footprint (used_blocks is unchanged by the
            // donation — ownership moves, capacity does not).
            if !self.try_reserve(h, total_tokens) {
                return None;
            }
            let aligned = prefix_len.min(prefill_tokens) / bs * bs;
            let blocks = aligned / bs;
            if blocks == 0 {
                return Some(0);
            }
            debug_assert!(blocks <= h.blocks, "prefix cannot exceed the reservation");
            self.set_blocks(h, h.blocks - blocks);
            self.prefix_lru_seq += 1;
            self.prefix_entries.push(PrefixEntry {
                key,
                tokens: aligned,
                blocks,
                refs: 1,
                lru: self.prefix_lru_seq,
            });
            h.prefix = Some(key);
            return Some(0);
        };
        let hit = self.hit_tokens(self.prefix_entries[pos].tokens, prefill_tokens);
        if hit == 0 {
            // Known key but unusable (sub-block prefix or one-token prompt).
            return self.try_reserve(h, total_tokens).then_some(0);
        }
        // Protect the entry from LRU eviction while we make room.
        self.prefix_entries[pos].refs += 1;
        let target = self.blocks_for(total_tokens).saturating_sub(hit / bs);
        let need = target.saturating_sub(h.blocks);
        if !self.ensure_free(need + self.watermark_blocks) {
            let pos = self.entry_pos(key).expect("referenced entries never evict");
            self.prefix_entries[pos].refs -= 1;
            return None;
        }
        self.used_blocks += need;
        self.set_blocks(h, target.max(h.blocks));
        self.prefix_lru_seq += 1;
        let pos = self.entry_pos(key).expect("referenced entries never evict");
        self.prefix_entries[pos].lru = self.prefix_lru_seq;
        h.prefix = Some(key);
        Some(hit)
    }

    /// Grows `h`'s reservation to `total_tokens` cached tokens on the
    /// *decode* path — watermark does not apply (watermark exists precisely
    /// to serve these growths), and tokens covered by a borrowed cached
    /// prefix need no blocks of the request's own. Returns `false` if truly
    /// out of blocks, even after evicting unreferenced cached prefixes.
    pub fn try_grow(&mut self, h: &mut KvHolding, total_tokens: u64) -> bool {
        let target = self
            .blocks_for(total_tokens)
            .saturating_sub(self.borrowed_blocks(h));
        if target <= h.blocks {
            return true;
        }
        let need = target - h.blocks;
        if !self.ensure_free(need) {
            return false;
        }
        self.used_blocks += need;
        self.set_blocks(h, target);
        true
    }

    /// Releases all blocks `h` owns (request finished or preempted) and
    /// drops its cached-prefix reference, if any — the entry itself stays
    /// resident (LRU-evictable once unreferenced) so future arrivals hit.
    pub fn release(&mut self, h: &mut KvHolding) {
        if h.blocks > 0 {
            debug_assert!(self.used_blocks >= h.blocks);
            self.used_blocks -= h.blocks;
            self.set_blocks(h, 0);
        }
        if let Some(key) = h.prefix.take() {
            let pos = self.entry_pos(key).expect("borrowed entries never evict");
            let e = &mut self.prefix_entries[pos];
            debug_assert!(e.refs > 0, "borrow without a reference");
            e.refs -= 1;
        }
    }

    /// Number of holdings that currently own blocks.
    pub fn num_holders(&self) -> usize {
        self.holders
    }

    /// Expected prefix-cache hit, in tokens, for a request carrying prefix
    /// `key` with a `prefill_tokens`-token prompt — the leading prefill
    /// tokens admission would skip right now. Zero when the tier is
    /// disarmed, the key is unknown, or the cached prefix is shorter than
    /// one block. Routing uses this to publish per-replica cached-prefix
    /// state without mutating anything.
    pub fn prefix_cached_tokens(&self, key: u64, prefill_tokens: u64) -> u64 {
        if !self.prefix_armed || key == NO_PREFIX {
            return 0;
        }
        match self.entry_pos(key) {
            Some(pos) => self.hit_tokens(self.prefix_entries[pos].tokens, prefill_tokens),
            None => 0,
        }
    }

    /// Blocks owned by cached prefix entries (referenced or not).
    pub fn prefix_cached_blocks(&self) -> u64 {
        self.prefix_entries.iter().map(|e| e.blocks).sum()
    }

    /// Number of resident cached prefix entries.
    pub fn num_prefix_entries(&self) -> usize {
        self.prefix_entries.len()
    }

    /// Drops every unreferenced cached prefix entry, reclaiming its blocks.
    /// The crash-eviction path: after a replica releases all of its
    /// requests, this returns the manager to zero used blocks.
    pub fn evict_cached_prefixes(&mut self) {
        let mut freed = 0;
        self.prefix_entries.retain(|e| {
            if e.refs == 0 {
                freed += e.blocks;
                false
            } else {
                true
            }
        });
        debug_assert!(self.used_blocks >= freed);
        self.used_blocks -= freed;
    }

    /// Leading tokens a hit may skip: capped one short of the full prefill
    /// (at least one prefill token must still be computed) and rounded down
    /// to whole blocks.
    fn hit_tokens(&self, entry_tokens: u64, prefill_tokens: u64) -> u64 {
        let bs = self.block_size as u64;
        entry_tokens.min(prefill_tokens.saturating_sub(1)) / bs * bs
    }

    /// Ensures at least `required` free blocks, evicting unreferenced cached
    /// prefixes in LRU order when the tier is armed. Returns whether the
    /// requirement is met.
    fn ensure_free(&mut self, required: u64) -> bool {
        if self.free_blocks() >= required {
            return true;
        }
        if !self.prefix_armed {
            return false;
        }
        while self.free_blocks() < required {
            let victim = self
                .prefix_entries
                .iter()
                .enumerate()
                .filter(|(_, e)| e.refs == 0)
                .min_by_key(|(_, e)| e.lru)
                .map(|(i, _)| i);
            let Some(i) = victim else {
                return false;
            };
            let evicted = self.prefix_entries.swap_remove(i);
            debug_assert!(self.used_blocks >= evicted.blocks);
            self.used_blocks -= evicted.blocks;
        }
        true
    }

    /// Blocks `h` reads from a borrowed cached prefix (0 when not
    /// borrowing).
    pub fn borrowed_blocks(&self, h: &KvHolding) -> u64 {
        h.prefix.map_or(0, |key| {
            let pos = self.entry_pos(key).expect("borrowed entries never evict");
            self.prefix_entries[pos].blocks
        })
    }

    fn entry_pos(&self, key: u64) -> Option<usize> {
        self.prefix_entries.iter().position(|e| e.key == key)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn reserve_and_release_balance() {
        let mut m = BlockManager::new(10, 16, 0.0);
        let mut h = [KvHolding::default(); 3];
        assert!(m.try_reserve(&mut h[0], 32)); // 2 blocks
        assert!(m.try_reserve(&mut h[1], 100)); // 7 blocks
        assert_eq!(m.used_blocks(), 9);
        assert!(!m.try_reserve(&mut h[2], 32)); // needs 2, only 1 free
        m.release(&mut h[0]);
        assert!(m.try_reserve(&mut h[2], 32));
        m.release(&mut h[1]);
        m.release(&mut h[2]);
        assert_eq!(m.used_blocks(), 0);
        assert_eq!(m.num_holders(), 0);
    }

    #[test]
    fn watermark_blocks_admission_but_not_growth() {
        // 10 blocks, 20% watermark => admissions must leave 2 free.
        let mut m = BlockManager::new(10, 16, 0.2);
        let (mut a, mut b) = (KvHolding::default(), KvHolding::default());
        assert!(m.try_reserve(&mut a, 16 * 8)); // 8 blocks: leaves 2 => ok
        assert!(!m.try_reserve(&mut b, 16)); // would leave 1 < watermark
                                             // But decode growth can dip into the watermark.
        assert!(m.try_grow(&mut a, 16 * 9));
        assert_eq!(m.free_blocks(), 1);
        assert!(m.try_grow(&mut a, 16 * 10));
        assert!(!m.try_grow(&mut a, 16 * 11));
    }

    #[test]
    fn grow_is_incremental() {
        let mut m = BlockManager::new(10, 16, 0.0);
        let mut h = KvHolding::default();
        assert!(m.try_reserve(&mut h, 16));
        assert_eq!(h.blocks(), 1);
        // Same block covers tokens 1..=16; token 17 needs another.
        assert!(m.try_grow(&mut h, 16));
        assert_eq!(h.blocks(), 1);
        assert!(m.try_grow(&mut h, 17));
        assert_eq!(h.blocks(), 2);
    }

    #[test]
    fn release_unknown_is_noop() {
        let mut m = BlockManager::new(10, 16, 0.0);
        m.release(&mut KvHolding::default());
        assert_eq!(m.used_blocks(), 0);
    }

    #[test]
    fn utilization_tracks_usage() {
        let mut m = BlockManager::new(10, 16, 0.0);
        m.try_reserve(&mut KvHolding::default(), 16 * 5);
        assert!((m.utilization() - 0.5).abs() < 1e-12);
    }

    proptest! {
        #[test]
        fn never_over_allocates(
            ops in proptest::collection::vec((0usize..20, 1u64..500, proptest::bool::ANY), 0..200)
        ) {
            let mut m = BlockManager::new(50, 16, 0.05);
            let mut h = [KvHolding::default(); 20];
            for (id, tokens, grow) in ops {
                if grow {
                    m.try_grow(&mut h[id], tokens);
                } else if h[id].blocks() == 0 {
                    m.try_reserve(&mut h[id], tokens);
                } else {
                    m.release(&mut h[id]);
                }
                prop_assert!(m.used_blocks() <= m.total_blocks());
                // Internal consistency: held sum == used.
                let held_sum: u64 = h.iter().map(KvHolding::blocks).sum();
                prop_assert_eq!(held_sum, m.used_blocks());
            }
        }
    }
}
