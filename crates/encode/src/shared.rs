//! A process-wide, sharded encode cache shared across sessions.
//!
//! One multi-tenant host runs thousands of sessions, and sessions of the
//! same application produce identical tiles — the whole point of content
//! addressing is that those tiles should encode **once per process**, not
//! once per session. [`SharedEncodeCache`] wraps N independent
//! [`EncodeCache`] shards, each behind its own mutex, selected by a
//! multiplicative hash of the key. Lock scope is one shard for one
//! lookup/insert, so sessions encoding concurrently contend only when they
//! touch the same shard, and global statistics are plain atomics read
//! without any lock.
//!
//! Tenant isolation rides on [`CacheKey::namespace`]: sessions that opted
//! into sharing use a common namespace (derived from their encode-relevant
//! config, so a hit is guaranteed byte-identical to a fresh encode), and
//! private/consent-gated sessions get a unique namespace — same shards,
//! zero key overlap.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

use bytes::Bytes;

use crate::cache::{CacheKey, EncodeCache};

/// Sharded, mutex-per-shard encode cache meant to be held in an `Arc` and
/// shared by every [`crate::EncodePipeline`] in the process.
#[derive(Debug)]
pub struct SharedEncodeCache {
    shards: Vec<Mutex<EncodeCache>>,
    /// `shards.len() - 1`; shard count is a power of two.
    mask: usize,
    hits: AtomicU64,
    misses: AtomicU64,
    insertions: AtomicU64,
}

/// Pick a shard by mixing the namespace into the content hash, then
/// spreading with a multiplicative (Fibonacci) hash so low-entropy inputs
/// still distribute.
fn shard_index(key: &CacheKey, mask: usize) -> usize {
    let mixed = key
        .content_hash
        .wrapping_add(key.namespace.rotate_left(32))
        .wrapping_mul(0x9E37_79B9_7F4A_7C15);
    (mixed >> 32) as usize & mask
}

impl SharedEncodeCache {
    /// A shared cache holding at most `budget_bytes` of encoded payload in
    /// total, split evenly across `shards` (rounded up to a power of two,
    /// minimum 1).
    pub fn new(budget_bytes: usize, shards: usize) -> Self {
        let shards = shards.max(1).next_power_of_two();
        let per_shard = (budget_bytes / shards).max(1);
        SharedEncodeCache {
            shards: (0..shards)
                .map(|_| Mutex::new(EncodeCache::new(per_shard)))
                .collect(),
            mask: shards - 1,
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            insertions: AtomicU64::new(0),
        }
    }

    /// Number of shards (power of two).
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    /// Look up `key`, refreshing its recency in the owning shard. Counts a
    /// process-wide hit or miss (lookup-level: an intra-batch alias in a
    /// pipeline never reaches this cache and is not counted here).
    pub fn get(&self, key: &CacheKey) -> Option<(u8, Bytes)> {
        let shard = &self.shards[shard_index(key, self.mask)];
        let out = shard.lock().expect("shard poisoned").get(key);
        if out.is_some() {
            self.hits.fetch_add(1, Ordering::Relaxed);
        } else {
            self.misses.fetch_add(1, Ordering::Relaxed);
        }
        out
    }

    /// Insert an encoded payload into the owning shard, evicting LRU
    /// entries from that shard until its slice of the budget holds.
    /// Returns how many entries were evicted.
    pub fn insert(&self, key: CacheKey, payload_type: u8, payload: Bytes) -> u64 {
        self.insertions.fetch_add(1, Ordering::Relaxed);
        let shard = &self.shards[shard_index(&key, self.mask)];
        shard
            .lock()
            .expect("shard poisoned")
            .insert(key, payload_type, payload)
    }

    /// Count `n` lookups a tenant answered from its own step-scoped region
    /// index (see [`crate::EncodePipeline::encode_region`]): each stands for
    /// the hit it replaced, so the process-wide ratio reads the same.
    pub fn count_hits(&self, n: u64) {
        self.hits.fetch_add(n, Ordering::Relaxed);
    }

    /// Process-wide lookup hits.
    pub fn hits(&self) -> u64 {
        self.hits.load(Ordering::Relaxed)
    }

    /// Process-wide lookup misses.
    pub fn misses(&self) -> u64 {
        self.misses.load(Ordering::Relaxed)
    }

    /// Process-wide insertions.
    pub fn insertions(&self) -> u64 {
        self.insertions.load(Ordering::Relaxed)
    }

    /// Hit rate in percent of all lookups (0 when nothing was looked up).
    pub fn hit_rate_pct(&self) -> f64 {
        let hits = self.hits() as f64;
        let total = hits + self.misses() as f64;
        if total == 0.0 {
            0.0
        } else {
            100.0 * hits / total
        }
    }

    /// Live entries across all shards.
    pub fn len(&self) -> usize {
        self.shards
            .iter()
            .map(|s| s.lock().expect("shard poisoned").len())
            .sum()
    }

    /// Whether every shard is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Encoded payload bytes currently held across all shards.
    pub fn bytes(&self) -> usize {
        self.shards
            .iter()
            .map(|s| s.lock().expect("shard poisoned").bytes())
            .sum()
    }

    /// Total byte budget (sum of the per-shard budgets).
    pub fn budget_bytes(&self) -> usize {
        self.shards
            .iter()
            .map(|s| s.lock().expect("shard poisoned").budget_bytes())
            .sum()
    }

    /// Lifetime evictions across all shards.
    pub fn evictions(&self) -> u64 {
        self.shards
            .iter()
            .map(|s| s.lock().expect("shard poisoned").evictions())
            .sum()
    }

    /// The hottest entries of `namespace` across all shards, at most `max`,
    /// hottest first — what cache persistence serializes for that tenant.
    /// Other namespaces are never exported: persistence must not become a
    /// cross-tenant leak.
    pub fn export_namespace(&self, namespace: u64, max: usize) -> Vec<(CacheKey, u8, Bytes)> {
        let mut all = Vec::new();
        for shard in &self.shards {
            let shard = shard.lock().expect("shard poisoned");
            all.extend(
                shard
                    .hot_entries(usize::MAX)
                    .into_iter()
                    .filter(|(k, _, _)| k.namespace == namespace),
            );
        }
        all.truncate(max);
        all
    }

    /// Insert persisted entries into their owning shards. Entries whose
    /// namespace differs from `namespace` are rejected (a warm file is
    /// tenant-scoped). Returns how many entries were accepted.
    pub fn preload(&self, namespace: u64, entries: &[(CacheKey, u8, Bytes)]) -> usize {
        let mut loaded = 0;
        for (key, payload_type, payload) in entries.iter().rev() {
            if key.namespace != namespace {
                continue;
            }
            self.insert(*key, *payload_type, payload.clone());
            loaded += 1;
        }
        loaded
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn key(ns: u64, h: u64) -> CacheKey {
        CacheKey {
            namespace: ns,
            content_hash: h,
            width: 8,
            height: 8,
            tier: 0,
        }
    }

    #[test]
    fn round_trips_across_shards() {
        let c = SharedEncodeCache::new(1 << 20, 8);
        for h in 0..256u64 {
            c.insert(key(0, h), 101, Bytes::from(vec![h as u8; 16]));
        }
        for h in 0..256u64 {
            let (pt, payload) = c.get(&key(0, h)).expect("present");
            assert_eq!(pt, 101);
            assert_eq!(payload, Bytes::from(vec![h as u8; 16]));
        }
        assert_eq!(c.hits(), 256);
        assert_eq!(c.misses(), 0);
        assert_eq!(c.len(), 256);
    }

    #[test]
    fn namespaces_do_not_leak() {
        let c = SharedEncodeCache::new(1 << 20, 4);
        c.insert(key(1, 42), 101, Bytes::from_static(b"tenant-1"));
        assert_eq!(c.get(&key(2, 42)), None, "same content hash, other tenant");
        assert_eq!(
            c.get(&key(1, 42)),
            Some((101, Bytes::from_static(b"tenant-1")))
        );
    }

    #[test]
    fn shard_count_rounds_to_power_of_two() {
        assert_eq!(SharedEncodeCache::new(1024, 0).shard_count(), 1);
        assert_eq!(SharedEncodeCache::new(1024, 3).shard_count(), 4);
        assert_eq!(SharedEncodeCache::new(1024, 16).shard_count(), 16);
    }

    #[test]
    fn hit_rate_tracks_lookups() {
        let c = SharedEncodeCache::new(1 << 20, 2);
        assert_eq!(c.hit_rate_pct(), 0.0);
        c.insert(key(0, 1), 101, Bytes::from_static(b"x"));
        c.get(&key(0, 1));
        c.get(&key(0, 2));
        assert!((c.hit_rate_pct() - 50.0).abs() < 1e-9);
    }

    #[test]
    fn concurrent_sessions_share_entries() {
        let c = std::sync::Arc::new(SharedEncodeCache::new(1 << 20, 8));
        c.insert(key(0, 7), 101, Bytes::from_static(b"shared"));
        std::thread::scope(|scope| {
            for _ in 0..4 {
                let c = c.clone();
                scope.spawn(move || {
                    for _ in 0..100 {
                        assert!(c.get(&key(0, 7)).is_some());
                    }
                });
            }
        });
        assert_eq!(c.hits(), 400);
    }
}
