//! Sharded, bounded, generation-stamped cone-embedding cache.
//!
//! Keys are 128-bit structural digests
//! ([`nettag_netlist::structural_hash_with_phys`]): two cones with equal
//! keys declare the same gates in the same order with bitwise-equal
//! physical attributes, differing at most in gate names, so the model
//! reads the same input from both and their frozen embeddings are
//! bitwise equal. Values are
//! `Arc<Tensor>` — a hit hands the caller a second handle to the one
//! buffer already computed, never a copy.
//!
//! The map is sharded by the key's low bits so concurrent batcher lanes
//! and demo/test readers contend on different locks, and each shard is
//! bounded with FIFO eviction: serving workloads revisit recent cones
//! (the warm-cache regime the bench measures), and FIFO keeps eviction
//! O(1) without the bookkeeping of LRU — good enough because the digest
//! recompute on a miss is cheap next to the forward pass it saves.
//!
//! Every entry carries the **model generation** it was computed under.
//! A checkpoint hot-swap ([`crate::Engine::swap_checkpoint`]) bumps the
//! engine's generation; lookups then treat entries stamped with an older
//! generation as misses and evict them lazily on touch, so stale
//! embeddings are never served and no swap-time stop-the-world sweep is
//! needed.

use nettag_nn::Tensor;
use std::collections::{HashMap, VecDeque};
use std::sync::{Arc, Mutex};

const SHARDS: usize = 8;

/// A cached embedding stamped with the generation it was computed under.
#[derive(Debug)]
struct Entry {
    generation: u64,
    value: Arc<Tensor>,
}

#[derive(Debug, Default)]
struct Shard {
    map: HashMap<u128, Entry>,
    order: VecDeque<u128>,
}

/// Bounded concurrent map from structural digest to frozen embedding.
#[derive(Debug)]
pub struct ConeCache {
    shards: Vec<Mutex<Shard>>,
    per_shard: usize,
}

impl ConeCache {
    /// Creates a cache holding at most `capacity` embeddings (rounded up
    /// to a multiple of the shard count; `capacity = 0` disables caching).
    pub fn new(capacity: usize) -> ConeCache {
        ConeCache {
            shards: (0..SHARDS).map(|_| Mutex::new(Shard::default())).collect(),
            per_shard: capacity.div_ceil(SHARDS),
        }
    }

    fn shard(&self, key: u128) -> &Mutex<Shard> {
        &self.shards[(key as usize) % SHARDS]
    }

    /// Looks up a digest under a model generation, returning a shared
    /// handle on a current-generation hit. An entry stamped with a
    /// different generation was computed under a swapped-out checkpoint:
    /// it is evicted on the spot and reported as a miss.
    pub fn get(&self, key: u128, generation: u64) -> Option<Arc<Tensor>> {
        // A batch that panicked mid-insert leaves the shard in a valid
        // state (entries are whole or absent), so recover the guard
        // instead of propagating the poison to every later lookup.
        let mut shard = self.shard(key).lock().unwrap_or_else(|e| e.into_inner());
        match shard.map.get(&key) {
            Some(e) if e.generation == generation => Some(Arc::clone(&e.value)),
            Some(_) => {
                // Lazy invalidation: drop the stale entry and its FIFO slot.
                shard.map.remove(&key);
                if let Some(pos) = shard.order.iter().position(|k| *k == key) {
                    shard.order.remove(pos);
                }
                None
            }
            None => None,
        }
    }

    /// Inserts an embedding computed under `generation`, evicting the
    /// shard's oldest entry when full. Re-inserting an existing key
    /// refreshes the value (and its generation stamp) without growing.
    pub fn insert(&self, key: u128, value: Arc<Tensor>, generation: u64) {
        if self.per_shard == 0 {
            return;
        }
        let mut shard = self.shard(key).lock().unwrap_or_else(|e| e.into_inner());
        if shard.map.insert(key, Entry { generation, value }).is_none() {
            shard.order.push_back(key);
            if shard.order.len() > self.per_shard {
                if let Some(old) = shard.order.pop_front() {
                    shard.map.remove(&old);
                }
            }
        }
    }

    /// Number of cached embeddings across all shards (stale entries not
    /// yet touched since a generation bump still count — they occupy
    /// capacity until evicted lazily or by FIFO pressure).
    pub fn len(&self) -> usize {
        self.shards
            .iter()
            .map(|s| s.lock().unwrap_or_else(|e| e.into_inner()).map.len())
            .sum()
    }

    /// True when nothing is cached.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(v: f32) -> Arc<Tensor> {
        Arc::new(Tensor::scalar(v))
    }

    #[test]
    fn get_returns_the_inserted_handle() {
        let cache = ConeCache::new(16);
        cache.insert(7, t(1.5), 0);
        let hit = cache.get(7, 0).expect("hit");
        assert_eq!(hit.data, vec![1.5]);
        assert!(cache.get(8, 0).is_none());
    }

    #[test]
    fn hits_share_one_buffer() {
        let cache = ConeCache::new(16);
        let v = t(2.0);
        cache.insert(3, Arc::clone(&v), 0);
        assert!(Arc::ptr_eq(&cache.get(3, 0).expect("hit"), &v));
    }

    #[test]
    fn capacity_bounds_each_shard_fifo() {
        let cache = ConeCache::new(SHARDS); // one entry per shard
                                            // Keys 0 and SHARDS land in shard 0: the second insert evicts the
                                            // first (FIFO), never exceeding the per-shard bound.
        cache.insert(0, t(0.0), 0);
        cache.insert(SHARDS as u128, t(1.0), 0);
        assert!(cache.get(0, 0).is_none(), "oldest entry evicted first");
        assert!(cache.get(SHARDS as u128, 0).is_some());
        assert_eq!(cache.len(), 1);
    }

    #[test]
    fn reinsert_refreshes_without_growing() {
        let cache = ConeCache::new(SHARDS);
        cache.insert(0, t(1.0), 0);
        cache.insert(0, t(2.0), 0);
        assert_eq!(cache.len(), 1);
        assert_eq!(cache.get(0, 0).expect("hit").data, vec![2.0]);
    }

    #[test]
    fn zero_capacity_disables_caching() {
        let cache = ConeCache::new(0);
        cache.insert(1, t(1.0), 0);
        assert!(cache.is_empty());
        assert!(cache.get(1, 0).is_none());
    }

    #[test]
    fn stale_generation_misses_and_evicts_lazily() {
        let cache = ConeCache::new(16);
        cache.insert(5, t(1.0), 0);
        assert!(cache.get(5, 0).is_some(), "current generation hits");
        assert!(cache.get(5, 1).is_none(), "bumped generation misses");
        assert_eq!(cache.len(), 0, "stale entry evicted on touch");
        // Recompute under the new generation repopulates cleanly.
        cache.insert(5, t(2.0), 1);
        assert_eq!(cache.get(5, 1).expect("hit").data, vec![2.0]);
        assert_eq!(cache.len(), 1);
    }

    #[test]
    fn stale_eviction_keeps_fifo_accounting_consistent() {
        let cache = ConeCache::new(SHARDS); // one slot per shard
        cache.insert(0, t(1.0), 0);
        assert!(cache.get(0, 1).is_none(), "stale entry evicted");
        // The freed FIFO slot must be reusable without displacing the new
        // entry: insert two keys of the same shard under the new gen.
        cache.insert(0, t(2.0), 1);
        cache.insert(SHARDS as u128, t(3.0), 1);
        assert_eq!(cache.len(), 1, "per-shard bound still enforced");
        assert!(cache.get(SHARDS as u128, 1).is_some());
    }
}
