//! A bounded, sharded, content-addressed response cache.
//!
//! Under real traffic identical activation payloads recur — retried
//! requests, common prompts, synthetic monitors — and an identical
//! payload for the same model is guaranteed the identical integer
//! accumulators (the whole pipeline is deterministic), so it should
//! never re-enter the AQS-GEMM pipeline. The cache is keyed by the
//! model's *instance id*
//! ([`PreparedModel::instance_id`](panacea_serve::PreparedModel::instance_id)
//! — not its registry name, which can be re-bound to a different model
//! by re-registration) plus the typed request
//! [`Payload`]: a hit requires full key
//! equality at the *bit* level ([`Payload::bit_eq`] — codes compare
//! `==`, hidden states compare by `to_bits`, so `-0.0` and `0.0` never
//! alias), never a digest match alone. A hit is therefore always a
//! correct replay — even across model replacement, because a replaced
//! model's entries key under the old id and simply age out of the LRU.
//! The digest ([`Payload::content_hash`]) only picks the shard and
//! accelerates bucket lookup.
//!
//! **Stateless requests only.** A decode step's output depends on its
//! session's KV prefix, not just the payload, so cached replay would be
//! wrong — and even probing would skew the stats. The session path
//! (gateway `decode` verb) therefore has no reference to this cache at
//! all; the only call sites are the stateless `infer` path. See the
//! `decode_steps_never_touch_the_request_cache` regression test.
//!
//! Shards are independent LRUs behind their own locks, so concurrent
//! connection handlers rarely contend; eviction is strict
//! least-recently-used per shard. Each shard is bounded twice: by entry
//! count and by the bytes of the request and result payloads it holds,
//! so resident memory is capped by [`CacheConfig::max_bytes`] whatever
//! the payload sizes.

use std::collections::HashMap;
use std::hash::{DefaultHasher, Hash, Hasher};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

use panacea_serve::Payload;

/// Sizing knobs for [`RequestCache`].
#[derive(Debug, Clone, Copy)]
pub struct CacheConfig {
    /// Total cached responses across all shards; 0 disables caching.
    pub capacity: usize,
    /// Number of independently locked LRU shards.
    pub shards: usize,
    /// Total bytes of cached request and result payloads, split evenly
    /// across the shards. A shard evicts least-recently-used entries until
    /// a new one fits its share, and an entry larger than the whole share
    /// is not cached. `capacity` bounds only the entry *count*, so without
    /// this budget large never-repeated payloads could pin gigabytes.
    pub max_bytes: usize,
}

impl Default for CacheConfig {
    fn default() -> Self {
        CacheConfig {
            capacity: 1024,
            shards: 8,
            max_bytes: 16 << 20,
        }
    }
}

/// A cached response: everything needed to replay an inference without
/// touching the serving runtime.
#[derive(Debug, Clone, PartialEq)]
pub struct CachedOutput {
    /// The typed result: code accumulators for chains, hidden states
    /// for block models.
    pub payload: Payload,
    /// Scale converting code accumulators to floats; `1.0` for hidden
    /// results.
    pub scale: f64,
}

/// Counters describing cache effectiveness.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Lookups answered from the cache.
    pub hits: u64,
    /// Lookups that fell through to the runtime.
    pub misses: u64,
    /// Entries displaced by the LRU bound.
    pub evictions: u64,
    /// Entries currently resident.
    pub entries: usize,
}

impl CacheStats {
    /// Fraction of lookups served from the cache (0 when none yet).
    pub fn hit_rate(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }
}

#[derive(Debug)]
struct CacheKey {
    /// [`PreparedModel::instance_id`](panacea_serve::PreparedModel::instance_id)
    /// of the model that produced the cached output.
    model: u64,
    payload: Payload,
}

impl CacheKey {
    /// Bit-level key equality — the replay contract's identity.
    fn matches(&self, model: u64, payload: &Payload) -> bool {
        self.model == model && self.payload.bit_eq(payload)
    }
}

#[derive(Debug)]
struct Node {
    key: CacheKey,
    digest: u64,
    value: CachedOutput,
    /// Request plus result payload bytes, charged to the shard's budget.
    bytes: usize,
    prev: usize,
    next: usize,
}

const NIL: usize = usize::MAX;

/// One LRU shard: a digest-bucketed index over an intrusive
/// doubly-linked recency list stored in a slab.
#[derive(Debug, Default)]
struct LruShard {
    buckets: HashMap<u64, Vec<usize>>,
    slab: Vec<Option<Node>>,
    free: Vec<usize>,
    head: usize,
    tail: usize,
    len: usize,
    /// Bytes of all resident entries.
    bytes: usize,
}

impl LruShard {
    fn new() -> Self {
        LruShard {
            head: NIL,
            tail: NIL,
            ..LruShard::default()
        }
    }

    fn node(&self, i: usize) -> &Node {
        self.slab[i].as_ref().expect("live node")
    }

    fn node_mut(&mut self, i: usize) -> &mut Node {
        self.slab[i].as_mut().expect("live node")
    }

    fn unlink(&mut self, i: usize) {
        let (prev, next) = {
            let n = self.node(i);
            (n.prev, n.next)
        };
        match prev {
            NIL => self.head = next,
            p => self.node_mut(p).next = next,
        }
        match next {
            NIL => self.tail = prev,
            n => self.node_mut(n).prev = prev,
        }
    }

    fn push_front(&mut self, i: usize) {
        self.node_mut(i).prev = NIL;
        self.node_mut(i).next = self.head;
        match self.head {
            NIL => self.tail = i,
            h => self.node_mut(h).prev = i,
        }
        self.head = i;
    }

    fn find(&self, digest: u64, model: u64, payload: &Payload) -> Option<usize> {
        self.buckets
            .get(&digest)?
            .iter()
            .copied()
            .find(|&i| self.node(i).key.matches(model, payload))
    }

    fn get(&mut self, digest: u64, model: u64, payload: &Payload) -> Option<CachedOutput> {
        let i = self.find(digest, model, payload)?;
        self.unlink(i);
        self.push_front(i);
        Some(self.node(i).value.clone())
    }

    /// Inserts (or refreshes) an entry of `bytes` bytes; returns how many
    /// entries the count and byte bounds evicted. The caller has checked
    /// that the entry fits `budget` on its own.
    fn insert(
        &mut self,
        digest: u64,
        key: CacheKey,
        value: CachedOutput,
        bytes: usize,
        capacity: usize,
        budget: usize,
    ) -> u64 {
        if let Some(i) = self.find(digest, key.model, &key.payload) {
            // Bit-exact key already resident: refresh recency, keep the
            // (necessarily identical) value.
            self.unlink(i);
            self.push_front(i);
            return 0;
        }
        let mut evicted = 0;
        while self.len >= capacity || self.bytes + bytes > budget {
            self.evict_tail();
            evicted += 1;
        }
        let node = Node {
            key,
            digest,
            value,
            bytes,
            prev: NIL,
            next: NIL,
        };
        let i = match self.free.pop() {
            Some(slot) => {
                self.slab[slot] = Some(node);
                slot
            }
            None => {
                self.slab.push(Some(node));
                self.slab.len() - 1
            }
        };
        self.buckets.entry(digest).or_default().push(i);
        self.push_front(i);
        self.len += 1;
        self.bytes += bytes;
        evicted
    }

    fn evict_tail(&mut self) {
        let i = self.tail;
        debug_assert_ne!(i, NIL, "evict called on an empty shard");
        self.unlink(i);
        let node = self.slab[i].take().expect("live node");
        let bucket = self
            .buckets
            .get_mut(&node.digest)
            .expect("bucket for live node");
        bucket.retain(|&j| j != i);
        if bucket.is_empty() {
            self.buckets.remove(&node.digest);
        }
        self.free.push(i);
        self.len -= 1;
        self.bytes -= node.bytes;
    }
}

/// The gateway's sharded LRU response cache. See the module docs.
#[derive(Debug)]
pub struct RequestCache {
    shards: Vec<Mutex<LruShard>>,
    capacity_per_shard: usize,
    bytes_per_shard: usize,
    hits: AtomicU64,
    misses: AtomicU64,
    evictions: AtomicU64,
}

impl RequestCache {
    /// Builds a cache with `config.capacity` total entries and
    /// `config.max_bytes` total payload bytes spread over `config.shards`
    /// independently locked LRU shards.
    pub fn new(config: CacheConfig) -> Self {
        let shards = config.shards.max(1);
        RequestCache {
            shards: (0..shards).map(|_| Mutex::new(LruShard::new())).collect(),
            capacity_per_shard: config.capacity.div_ceil(shards),
            bytes_per_shard: config.max_bytes / shards,
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            evictions: AtomicU64::new(0),
        }
    }

    /// Whether this cache stores anything at all (capacity and byte
    /// budget above zero) — callers can skip key hashing and payload
    /// clones when it does not.
    pub fn enabled(&self) -> bool {
        self.capacity_per_shard > 0 && self.bytes_per_shard > 0
    }

    /// Whether an entry of `cells` 4-byte elements (request payload
    /// plus result payload — `i32` codes and `f32` hidden states are
    /// the same width) fits one shard's share of
    /// [`CacheConfig::max_bytes`]. Both counts are known before a request
    /// runs, so callers can skip the payload clone for entries
    /// [`insert`](Self::insert) would reject anyway.
    pub fn admits(&self, cells: usize) -> bool {
        entry_bytes(cells) <= self.bytes_per_shard
    }

    fn digest(model: u64, payload: &Payload) -> u64 {
        let mut h = DefaultHasher::new();
        model.hash(&mut h);
        payload.content_hash().hash(&mut h);
        h.finish()
    }

    fn shard_for(&self, digest: u64) -> &Mutex<LruShard> {
        &self.shards[(digest as usize) % self.shards.len()]
    }

    /// Looks up a bit-exact prior response for `(model, payload)`,
    /// refreshing its recency on a hit. `model` is the serving model's
    /// [`instance_id`](panacea_serve::PreparedModel::instance_id), so
    /// entries written for a since-replaced model can never answer.
    pub fn get(&self, model: u64, payload: &Payload) -> Option<CachedOutput> {
        let digest = Self::digest(model, payload);
        let found = self
            .shard_for(digest)
            .lock()
            .expect("cache shard poisoned")
            .get(digest, model, payload);
        match &found {
            Some(_) => self.hits.fetch_add(1, Ordering::Relaxed),
            None => self.misses.fetch_add(1, Ordering::Relaxed),
        };
        found
    }

    /// Stores a response for `(model, payload)`, evicting
    /// least-recently used entries until its shard has room for it by
    /// both entry count and bytes. `model` is the producing model's
    /// [`instance_id`](panacea_serve::PreparedModel::instance_id).
    /// Entries larger than a shard's share of [`CacheConfig::max_bytes`]
    /// are silently skipped.
    pub fn insert(&self, model: u64, payload: Payload, value: CachedOutput) {
        let cells = payload.cells() + value.payload.cells();
        if !self.enabled() || !self.admits(cells) {
            return;
        }
        let digest = Self::digest(model, &payload);
        let evicted = self
            .shard_for(digest)
            .lock()
            .expect("cache shard poisoned")
            .insert(
                digest,
                CacheKey { model, payload },
                value,
                entry_bytes(cells),
                self.capacity_per_shard,
                self.bytes_per_shard,
            );
        if evicted > 0 {
            self.evictions.fetch_add(evicted, Ordering::Relaxed);
        }
    }

    /// Entries currently resident across all shards.
    pub fn len(&self) -> usize {
        self.shards
            .iter()
            .map(|s| s.lock().expect("cache shard poisoned").len)
            .sum()
    }

    /// Whether no entries are resident.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Current hit/miss/eviction counters plus resident entry count.
    pub fn stats(&self) -> CacheStats {
        CacheStats {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            evictions: self.evictions.load(Ordering::Relaxed),
            entries: self.len(),
        }
    }
}

/// Bytes an entry of `cells` 4-byte payload elements is charged.
fn entry_bytes(cells: usize) -> usize {
    cells.saturating_mul(4)
}

#[cfg(test)]
mod tests {
    use super::*;
    use panacea_tensor::Matrix;
    use std::sync::Arc;

    fn codes(salt: i32) -> Payload {
        Payload::Codes(Matrix::from_fn(4, 2, |r, c| {
            salt * 100 + (r * 2 + c) as i32
        }))
    }

    fn output(salt: i32) -> CachedOutput {
        CachedOutput {
            payload: Payload::Codes(Matrix::from_fn(2, 2, |r, c| salt * 10 + (r + c) as i32)),
            scale: 0.5,
        }
    }

    #[test]
    fn hit_requires_bit_exact_codes_and_model() {
        let cache = RequestCache::new(CacheConfig::default());
        cache.insert(1, codes(1), output(1));
        assert_eq!(cache.get(1, &codes(1)), Some(output(1)));
        assert_eq!(cache.get(1, &codes(2)), None);
        assert_eq!(cache.get(2, &codes(1)), None);
        let nearly = Payload::Codes(Matrix::from_fn(4, 2, |r, c| {
            100 + (r * 2 + c) as i32 + usize::from(r == 3 && c == 1) as i32
        }));
        assert_eq!(cache.get(1, &nearly), None);
        let s = cache.stats();
        assert_eq!(s.hits, 1);
        assert_eq!(s.misses, 3);
        assert!((s.hit_rate() - 0.25).abs() < 1e-12);
    }

    #[test]
    fn lru_evicts_least_recently_used_first() {
        // One shard, capacity 2: deterministic recency order.
        let cache = RequestCache::new(CacheConfig {
            capacity: 2,
            shards: 1,
            ..CacheConfig::default()
        });
        cache.insert(1, codes(1), output(1));
        cache.insert(1, codes(2), output(2));
        // Touch 1 so 2 becomes the LRU victim.
        assert!(cache.get(1, &codes(1)).is_some());
        cache.insert(1, codes(3), output(3));
        assert_eq!(cache.stats().evictions, 1);
        assert!(cache.get(1, &codes(2)).is_none(), "victim survived");
        assert!(cache.get(1, &codes(1)).is_some());
        assert!(cache.get(1, &codes(3)).is_some());
        assert_eq!(cache.len(), 2);
    }

    #[test]
    fn reinserting_the_same_key_refreshes_instead_of_duplicating() {
        let cache = RequestCache::new(CacheConfig {
            capacity: 2,
            shards: 1,
            ..CacheConfig::default()
        });
        cache.insert(1, codes(1), output(1));
        cache.insert(1, codes(2), output(2));
        // Refresh 1 (no eviction, no growth), then insert a third: the
        // refreshed 1 must outlive 2.
        cache.insert(1, codes(1), output(1));
        assert_eq!(cache.len(), 2);
        assert_eq!(cache.stats().evictions, 0);
        cache.insert(1, codes(3), output(3));
        assert!(cache.get(1, &codes(1)).is_some());
        assert!(cache.get(1, &codes(2)).is_none());
    }

    #[test]
    fn zero_capacity_disables_caching() {
        let cache = RequestCache::new(CacheConfig {
            capacity: 0,
            shards: 4,
            ..CacheConfig::default()
        });
        cache.insert(1, codes(1), output(1));
        assert!(cache.is_empty());
        assert_eq!(cache.get(1, &codes(1)), None);
    }

    #[test]
    fn oversized_entries_are_not_cached() {
        // Budget of 64 bytes = 16 i32 cells across codes + accumulators.
        let cache = RequestCache::new(CacheConfig {
            capacity: 8,
            shards: 1,
            max_bytes: 64,
        });
        // 4×2 codes + 2×2 acc = 12 cells (48 bytes): fits.
        cache.insert(1, codes(1), output(1));
        assert_eq!(cache.len(), 1);
        // 4×4 codes + 2×2 acc = 20 cells (80 bytes): must be skipped, or
        // the count-based capacity stops bounding memory.
        let big = Payload::Codes(Matrix::from_fn(4, 4, |r, c| (r * 4 + c) as i32));
        cache.insert(1, big.clone(), output(2));
        assert_eq!(cache.len(), 1, "oversized entry was cached");
        assert!(cache.get(1, &big).is_none());
    }

    /// `codes` + `output` entries: 4×2 codes and 2×2 accumulators.
    const ENTRY_BYTES: usize = (8 + 4) * 4;

    /// Request and result payload bytes resident across all shards.
    fn resident_bytes(cache: &RequestCache) -> usize {
        cache.shards.iter().map(|s| s.lock().unwrap().bytes).sum()
    }

    #[test]
    fn lru_evicts_by_bytes_within_the_budget() {
        // Room for three entries by bytes, many more by count.
        let budget = 3 * ENTRY_BYTES;
        let cache = RequestCache::new(CacheConfig {
            capacity: 100,
            shards: 1,
            max_bytes: budget,
        });
        for salt in 0..10 {
            cache.insert(1, codes(salt), output(salt));
            assert!(resident_bytes(&cache) <= budget, "over budget at {salt}");
            // Keep entry 0 hot: it must outlive every colder entry.
            assert!(cache.get(1, &codes(0)).is_some(), "hot entry evicted");
        }
        assert_eq!(cache.len(), 3);
        assert_eq!(resident_bytes(&cache), budget);
        assert_eq!(cache.stats().evictions, 7);
        // Survivors: the hot entry and the two most recent inserts.
        for salt in [0, 8, 9] {
            assert!(cache.get(1, &codes(salt)).is_some(), "{salt} evicted");
        }
        assert!(cache.get(1, &codes(7)).is_none(), "LRU victim survived");
    }

    #[test]
    fn eviction_releases_the_budget() {
        let cache = RequestCache::new(CacheConfig {
            capacity: 100,
            shards: 1,
            max_bytes: 2 * ENTRY_BYTES,
        });
        cache.insert(1, codes(1), output(1));
        cache.insert(1, codes(2), output(2));
        assert_eq!(resident_bytes(&cache), 2 * ENTRY_BYTES);
        // 4×4 codes + 2×2 accumulators = 80 bytes: both residents must go
        // to make room, and their bytes with them.
        let big = Payload::Codes(Matrix::from_fn(4, 4, |r, c| (r * 4 + c) as i32));
        cache.insert(1, big.clone(), output(3));
        assert_eq!((cache.len(), resident_bytes(&cache)), (1, 80));
        assert_eq!(cache.stats().evictions, 2);
        // Evicting the big entry frees its 80 bytes for a small one.
        cache.insert(1, codes(4), output(4));
        assert_eq!((cache.len(), resident_bytes(&cache)), (1, ENTRY_BYTES));
        assert!(cache.get(1, &big).is_none());
        assert!(cache.get(1, &codes(4)).is_some());
    }

    #[test]
    fn entries_spread_across_shards() {
        let cache = RequestCache::new(CacheConfig {
            capacity: 256,
            shards: 4,
            ..CacheConfig::default()
        });
        for salt in 0..64 {
            cache.insert(1, codes(salt), output(salt));
        }
        assert_eq!(cache.len(), 64);
        let occupied = cache
            .shards
            .iter()
            .filter(|s| s.lock().unwrap().len > 0)
            .count();
        assert!(occupied >= 2, "all 64 keys landed in one shard");
    }

    #[test]
    fn hidden_payload_hits_are_bit_exact_not_just_numeric() {
        // -0.0 == 0.0 numerically, but the replay contract is about
        // bits: the two must not alias as cache keys.
        let cache = RequestCache::new(CacheConfig::default());
        let pos = Payload::Hidden(Matrix::from_vec(1, 1, vec![0.0f32]).unwrap());
        let neg = Payload::Hidden(Matrix::from_vec(1, 1, vec![-0.0f32]).unwrap());
        let out = CachedOutput {
            payload: Payload::Hidden(Matrix::from_vec(1, 1, vec![1.5f32]).unwrap()),
            scale: 1.0,
        };
        cache.insert(1, pos.clone(), out.clone());
        assert_eq!(cache.get(1, &pos), Some(out));
        assert_eq!(cache.get(1, &neg), None, "signed zeros aliased");
        // Kind is part of the key too: the same bits as codes miss.
        let as_codes = Payload::Codes(Matrix::from_vec(1, 1, vec![0i32]).unwrap());
        assert_eq!(cache.get(1, &as_codes), None);
    }

    #[test]
    fn concurrent_access_is_consistent() {
        let cache = Arc::new(RequestCache::new(CacheConfig {
            capacity: 64,
            shards: 4,
            ..CacheConfig::default()
        }));
        let mut threads = Vec::new();
        for t in 0..4 {
            let cache = Arc::clone(&cache);
            threads.push(std::thread::spawn(move || {
                for i in 0..100 {
                    let salt = (t * 7 + i) % 32;
                    cache.insert(1, codes(salt), output(salt));
                    if let Some(hit) = cache.get(1, &codes(salt)) {
                        assert_eq!(hit, output(salt), "cache returned a wrong payload");
                    }
                }
            }));
        }
        for th in threads {
            th.join().expect("worker");
        }
        assert!(cache.len() <= 64);
    }
}
