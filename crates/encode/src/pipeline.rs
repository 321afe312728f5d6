//! The tile-encode pipeline: hash → cache → parallel encode → ordered
//! assembly, with observability for every stage.

use std::collections::HashMap;
use std::sync::Arc;

use adshare_codec::checksum::fast_hash64;
use adshare_codec::{Image, Rect};
use adshare_obs::Registry;
use bytes::Bytes;

use crate::cache::{CacheKey, EncodeCache};
use crate::pool::{scoped_map, WorkerPool};
use crate::shared::SharedEncodeCache;
use crate::tiling::{tiles, TileConfig};

/// Pipeline parameters (carried in the AH config).
#[derive(Debug, Clone, Copy)]
pub struct EncodeConfig {
    /// Tile grid for damage splitting. Set by `tests/encode_parity.rs`
    /// and `exp_encode_cache`.
    pub tile: TileConfig,
    /// Worker threads for cache-miss encoding; 0 = one per available core
    /// (capped at 8, [`resolve_workers`]), 1 = serial. A batch uses at
    /// most one per full tile (`tile.width × tile.height`) of missed
    /// pixels. Set by `tests/encode_parity.rs`, `tests/alloc_budget.rs`,
    /// the relay's and `TierEncoder`'s serial pipelines and the benchmark's
    /// leaf replay.
    pub workers: usize,
    /// Encoded-payload byte budget for the cross-frame cache. Narrowed by
    /// this crate's `tests/parity.rs` to force evictions.
    pub cache_budget_bytes: usize,
    /// Keep cache entries across frames (the point of this crate). `false`
    /// reproduces the legacy per-`step()` cache for ablations: entries
    /// only live until [`EncodePipeline::begin_step`] runs. The oracle in
    /// `tests/encode_parity.rs` and the baseline of `exp_encode_cache`.
    pub cross_frame_cache: bool,
}

impl Default for EncodeConfig {
    fn default() -> Self {
        EncodeConfig {
            tile: TileConfig::default(),
            workers: 0,
            cache_budget_bytes: 32 << 20,
            cross_frame_cache: true,
        }
    }
}

/// One tile awaiting encode: the cropped (and pointer-composited) pixels
/// plus the window-local rect they came from.
#[derive(Debug, Clone)]
pub struct TileJob {
    /// Window-local tile rectangle.
    pub rect: Rect,
    /// The tile's pixels, exactly as they should appear on the wire.
    pub image: Image,
}

/// One encoded tile, in the same order the jobs were submitted.
#[derive(Debug, Clone)]
pub struct EncodedTile {
    /// Window-local tile rectangle (copied from the job).
    pub rect: Rect,
    /// RTP payload type the encoder chose.
    pub payload_type: u8,
    /// Encoded payload.
    pub payload: Bytes,
    /// Wall-clock µs spent encoding this tile (0 on a cache hit).
    pub encode_us: u64,
    /// Whether the payload came from the cache (cross-frame or intra-batch
    /// dedup) rather than a fresh encode.
    pub cache_hit: bool,
}

/// What a region request is keyed by within one step: which surface, which
/// rectangle of it, at which quality tier.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct RegionKey {
    /// The surface (window) the region belongs to.
    pub surface: u64,
    /// The region, in the surface's own coordinates.
    pub rect: Rect,
    /// Quality tier id, as in [`CacheKey::tier`].
    pub tier: u8,
}

/// The encoded tiles of one region, as one requester sees them: a shared
/// handle on the list (and, through each payload's [`Bytes`], on the
/// encoded bytes) the first request of the step produced.
#[derive(Debug, Clone)]
pub struct RegionTiles {
    tiles: Arc<[EncodedTile]>,
    repeated: bool,
}

impl RegionTiles {
    /// Whether an earlier request this step already produced these tiles,
    /// so that this one cropped, hashed, looked up and encoded nothing.
    pub fn repeated(&self) -> bool {
        self.repeated
    }

    /// How many tiles the region has.
    pub fn len(&self) -> usize {
        self.tiles.len()
    }

    /// Whether the region produced no tile at all.
    pub fn is_empty(&self) -> bool {
        self.tiles.is_empty()
    }

    /// The tiles in row-major order, as *this* request got them: on a
    /// repeat every tile is a cache hit that cost no encode time.
    pub fn iter(&self) -> impl Iterator<Item = EncodedTile> + '_ {
        self.tiles.iter().map(|t| EncodedTile {
            encode_us: if self.repeated { 0 } else { t.encode_us },
            cache_hit: self.repeated || t.cache_hit,
            ..t.clone()
        })
    }
}

adshare_obs::metric_set! {
    /// Observability handles for the pipeline (adopt into a registry via
    /// [`EncodePipeline::register_metrics`]).
    struct Metrics {
        /// Tiles submitted for encoding.
        tiles: counter "tiles",
        /// Cross-frame cache hits.
        cache_hits: counter "cache.hits",
        /// Cache misses (fresh encodes).
        cache_misses: counter "cache.misses",
        /// Intra-batch dedup hits (same content twice in one batch).
        dedup_hits: counter "cache.dedup_hits",
        /// Entries evicted to hold the byte budget.
        evictions: counter "cache.evictions",
        /// Encoded bytes served from cache instead of re-encoded.
        bytes_saved: counter "cache.bytes_saved",
        /// Current cached payload bytes.
        cache_bytes: gauge "cache.bytes",
        /// Current cache entry count.
        cache_entries: gauge "cache.entries",
        /// Per-miss encode wall µs.
        tile_encode_us: histogram "tile_encode_us",
        /// Per-batch wall µs (misses only; hit-only batches are free).
        batch_wall_us: histogram "batch_wall_us",
        /// Parallel speedup ×100 per batch (cpu/wall; 100 = serial).
        speedup_x100: histogram "speedup_x100",
        /// Worker busy time in percent of `workers × wall`, per batch.
        pool_utilization_pct: histogram "pool_utilization_pct",
        /// Workers used by the last parallel batch.
        pool_workers: gauge "pool_workers",
        /// Σ batch wall µs (counter, so runs can be compared by subtraction).
        wall_us_total: counter "wall_us_total",
        /// Σ per-tile encode µs (the serial-equivalent cost).
        cpu_us_total: counter "cpu_us_total",
    }
}

/// Where a pipeline's cache lookups and insertions go.
#[derive(Debug)]
enum CacheBackend {
    /// A pipeline-owned cache (the single-session default). Keys use
    /// namespace 0.
    Private(EncodeCache),
    /// A slice of a process-wide [`SharedEncodeCache`], addressed under
    /// this pipeline's tenant namespace.
    Shared {
        cache: Arc<SharedEncodeCache>,
        namespace: u64,
    },
}

impl CacheBackend {
    fn namespace(&self) -> u64 {
        match self {
            CacheBackend::Private(_) => 0,
            CacheBackend::Shared { namespace, .. } => *namespace,
        }
    }

    /// Count `n` hits answered without a lookup (the shared cache keeps a
    /// process-wide tally of its own; a private one has none).
    fn count_hits(&self, n: u64) {
        if let CacheBackend::Shared { cache, .. } = self {
            cache.count_hits(n);
        }
    }

    fn get(&mut self, key: &CacheKey) -> Option<(u8, Bytes)> {
        match self {
            CacheBackend::Private(cache) => cache.get(key),
            CacheBackend::Shared { cache, .. } => cache.get(key),
        }
    }

    fn insert(&mut self, key: CacheKey, payload_type: u8, payload: Bytes) -> u64 {
        match self {
            CacheBackend::Private(cache) => cache.insert(key, payload_type, payload),
            CacheBackend::Shared { cache, .. } => cache.insert(key, payload_type, payload),
        }
    }

    fn bytes(&self) -> usize {
        match self {
            CacheBackend::Private(cache) => cache.bytes(),
            CacheBackend::Shared { cache, .. } => cache.bytes(),
        }
    }

    fn len(&self) -> usize {
        match self {
            CacheBackend::Private(cache) => cache.len(),
            CacheBackend::Shared { cache, .. } => cache.len(),
        }
    }

    fn evictions(&self) -> u64 {
        match self {
            CacheBackend::Private(cache) => cache.evictions(),
            CacheBackend::Shared { cache, .. } => cache.evictions(),
        }
    }
}

/// The pipeline: tile grid + persistent cache + worker pool + metrics.
#[derive(Debug)]
pub struct EncodePipeline {
    cfg: EncodeConfig,
    workers: usize,
    backend: CacheBackend,
    /// Bounded process-wide spawn budget; `None` means each batch may use
    /// the full per-pipeline `workers` count (single-session behaviour).
    pool: Option<WorkerPool>,
    /// Regions already encoded this step, in front of the cache: a second
    /// requester of the same `(surface, rect, tier)` gets the first one's
    /// tiles by handle. Cleared by [`EncodePipeline::begin_step`].
    step_regions: HashMap<RegionKey, Arc<[EncodedTile]>>,
    metrics: Metrics,
}

/// The worker count a configured budget stands for: 0 = one per available
/// core, capped at 8; any other value as given.
pub fn resolve_workers(cfg_workers: usize) -> usize {
    if cfg_workers == 0 {
        std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1)
            .min(8)
    } else {
        cfg_workers
    }
}

impl EncodePipeline {
    /// Build a single-session pipeline from config: a private cache and an
    /// unshared worker budget. Thin wrapper kept fully backward-compatible
    /// with the pre-host behaviour.
    pub fn new(cfg: EncodeConfig) -> Self {
        EncodePipeline {
            workers: resolve_workers(cfg.workers),
            backend: CacheBackend::Private(EncodeCache::new(cfg.cache_budget_bytes)),
            pool: None,
            step_regions: HashMap::new(),
            metrics: Metrics::default(),
            cfg,
        }
    }

    /// Build a multi-tenant pipeline: lookups and insertions go to the
    /// process-wide `cache` under `namespace`, and cache-miss encoding
    /// draws spawn permits from the shared `pool` (falling back to inline
    /// encoding when the budget is exhausted, never blocking).
    ///
    /// `cfg.cache_budget_bytes` is ignored (the shared cache carries its
    /// own budget), and per-step cache mode (`cross_frame_cache = false`)
    /// is not supported here: a shared cache outlives any one session's
    /// step, so [`EncodePipeline::begin_step`] becomes a no-op.
    pub fn with_shared(
        cfg: EncodeConfig,
        namespace: u64,
        cache: Arc<SharedEncodeCache>,
        pool: WorkerPool,
    ) -> Self {
        EncodePipeline {
            workers: resolve_workers(cfg.workers),
            backend: CacheBackend::Shared { cache, namespace },
            pool: Some(pool),
            step_regions: HashMap::new(),
            metrics: Metrics::default(),
            cfg,
        }
    }

    /// The configuration this pipeline was built from.
    pub fn config(&self) -> &EncodeConfig {
        &self.cfg
    }

    /// Resolved worker count.
    pub fn workers(&self) -> usize {
        self.workers
    }

    /// The tenant namespace cache keys carry (0 for a private pipeline).
    pub fn namespace(&self) -> u64 {
        self.backend.namespace()
    }

    /// The process-wide cache this pipeline shares, if any.
    pub fn shared_cache(&self) -> Option<&Arc<SharedEncodeCache>> {
        match &self.backend {
            CacheBackend::Private(_) => None,
            CacheBackend::Shared { cache, .. } => Some(cache),
        }
    }

    /// Frame boundary: the surfaces may have been repainted, so the step's
    /// region index ([`EncodePipeline::encode_region`]) is forgotten. Also
    /// clears the cache in per-step compatibility mode (a no-op when the
    /// cross-frame cache is on; a shared cache is never cleared — it
    /// outlives any one session's step — so per-step mode only applies to
    /// private pipelines).
    pub fn begin_step(&mut self) {
        self.step_regions.clear();
        if !self.cfg.cross_frame_cache {
            if let CacheBackend::Private(cache) = &mut self.backend {
                cache.clear();
            }
        }
    }

    /// Split a damaged rect along the configured tile grid.
    pub fn tile(&self, rect: Rect) -> Vec<Rect> {
        tiles(rect, self.cfg.tile)
    }

    /// Adopt the pipeline's metrics under `prefix.*`.
    pub fn register_metrics(&self, registry: &Registry, prefix: &str) {
        self.metrics.register(registry, prefix);
        self.metrics.pool_workers.set(self.workers as i64);
    }

    /// Live cache payload bytes (tests; metrics carry the same value).
    /// Process-wide for a shared backend.
    pub fn cache_bytes(&self) -> usize {
        self.backend.bytes()
    }

    /// Live cache entry count (process-wide for a shared backend).
    pub fn cache_entries(&self) -> usize {
        self.backend.len()
    }

    /// Lifetime evictions (process-wide for a shared backend).
    pub fn cache_evictions(&self) -> u64 {
        self.backend.evictions()
    }

    /// The hottest cache entries this pipeline could persist (hottest
    /// first, at most `max`). For a shared backend only this pipeline's
    /// namespace is exported — persistence never crosses tenants.
    pub fn export_hot_entries(&self, max: usize) -> Vec<(CacheKey, u8, Bytes)> {
        match &self.backend {
            CacheBackend::Private(cache) => cache.hot_entries(max),
            CacheBackend::Shared { cache, namespace } => cache.export_namespace(*namespace, max),
        }
    }

    /// Pre-warm the cache from persisted entries (a re-share of the same
    /// surface then hits on its first paints). Entries from a foreign
    /// namespace are rejected. Returns how many entries were accepted.
    pub fn prewarm(&mut self, entries: &[(CacheKey, u8, Bytes)]) -> usize {
        match &mut self.backend {
            CacheBackend::Private(cache) => {
                let own: Vec<(CacheKey, u8, Bytes)> = entries
                    .iter()
                    .filter(|(k, _, _)| k.namespace == 0)
                    .cloned()
                    .collect();
                cache.preload(&own)
            }
            CacheBackend::Shared { cache, namespace } => cache.preload(*namespace, entries),
        }
    }

    /// The tiles of one damaged region, encoded at most once per step.
    ///
    /// Between two [`EncodePipeline::begin_step`] calls the caller promises
    /// that `jobs` and `encode` are pure functions of `key` — the surface is
    /// not repainted, the pointer does not move — which is what a sender
    /// flushing one capture to many legs can promise. The first request for
    /// a key runs `jobs` (tile, crop, composite) and sends the result
    /// through [`EncodePipeline::encode_batch`] at `key.tier`, exactly as
    /// if it had called that directly; every later request in the step gets
    /// the same list by handle and runs neither closure: no crop, no hash,
    /// no cache lookup.
    ///
    /// A repeat is counted as the cache hits it stands in for — `tiles`,
    /// `cache.hits` and `cache.bytes_saved` move as if each tile had been
    /// looked up and found — so hit ratios read the same with one leg or
    /// eight. What it does not do is refresh the entries' recency in the
    /// cache. The index belongs to this pipeline alone, even when the cache
    /// behind it is shared between tenants.
    pub fn encode_region<J, F>(&mut self, key: RegionKey, jobs: J, encode: F) -> RegionTiles
    where
        J: FnOnce() -> Vec<TileJob>,
        F: Fn(&Image) -> (u8, Vec<u8>) + Sync,
    {
        if let Some(tiles) = self.step_regions.get(&key) {
            let n = tiles.len() as u64;
            self.metrics.tiles.add(n);
            self.metrics.cache_hits.add(n);
            self.metrics
                .bytes_saved
                .add(tiles.iter().map(|t| t.payload.len() as u64).sum());
            self.backend.count_hits(n);
            return RegionTiles {
                tiles: tiles.clone(),
                repeated: true,
            };
        }
        let tiles: Arc<[EncodedTile]> = self.encode_batch(key.tier, jobs(), encode).into();
        self.step_regions.insert(key, tiles.clone());
        RegionTiles {
            tiles,
            repeated: false,
        }
    }

    /// Encode a batch of tiles at quality tier `tier`.
    ///
    /// `encode` maps pixels to `(payload_type, payload)` and must be a
    /// pure function of the image (it runs concurrently on the pool for
    /// cache misses). Results come back in job order, and cache insertion
    /// happens in that same order on this thread — so for a given cache
    /// state the output bytes are identical whether `workers` is 1 or 16.
    pub fn encode_batch<F>(&mut self, tier: u8, jobs: Vec<TileJob>, encode: F) -> Vec<EncodedTile>
    where
        F: Fn(&Image) -> (u8, Vec<u8>) + Sync,
    {
        self.metrics.tiles.add(jobs.len() as u64);

        /// Where each submitted job's payload will come from.
        enum Plan {
            /// Served from the cross-frame cache.
            Hit { pt: u8, payload: Bytes },
            /// Fresh encode: index into the miss list.
            Miss(usize),
            /// Same content as an earlier miss in this batch: reuse its
            /// encode (index into the miss list).
            Alias(usize),
        }

        // Pass 1 (caller thread, deterministic): classify every job as a
        // cache hit, an intra-batch alias of an earlier miss, or a fresh
        // miss. Cache recency updates happen here, in submission order.
        let mut plans: Vec<(Rect, Plan)> = Vec::with_capacity(jobs.len());
        let mut misses: Vec<TileJob> = Vec::new();
        let mut miss_keys: Vec<CacheKey> = Vec::new();
        let mut pending: std::collections::HashMap<CacheKey, usize> =
            std::collections::HashMap::new();
        let namespace = self.backend.namespace();
        for job in jobs {
            let rect = job.rect;
            let key = CacheKey {
                namespace,
                content_hash: fast_hash64(job.image.data()),
                width: job.image.width(),
                height: job.image.height(),
                tier,
            };
            let plan = if let Some((pt, payload)) = self.backend.get(&key) {
                self.metrics.cache_hits.inc();
                self.metrics.bytes_saved.add(payload.len() as u64);
                Plan::Hit { pt, payload }
            } else if let Some(&idx) = pending.get(&key) {
                self.metrics.dedup_hits.inc();
                Plan::Alias(idx)
            } else {
                pending.insert(key, misses.len());
                misses.push(job);
                miss_keys.push(key);
                Plan::Miss(misses.len() - 1)
            };
            plans.push((rect, plan));
        }

        // Pass 2 (worker pool): encode the misses. Only this pass runs
        // concurrently, and results come back in miss order either way.
        let encode_one = |job: &TileJob| {
            let t0 = std::time::Instant::now();
            let (pt, payload) = encode(&job.image);
            (pt, Bytes::from(payload), t0.elapsed().as_micros() as u64)
        };
        // One worker per full grid cell of missed pixels: a few small
        // typing tiles cost less inline than a spawn.
        let tile_px = self.cfg.tile.width as u64 * self.cfg.tile.height as u64;
        let miss_px: u64 = misses
            .iter()
            .map(|job| job.image.width() as u64 * job.image.height() as u64)
            .sum();
        let workers = self.workers.min((miss_px / tile_px.max(1)) as usize).max(1);
        let (encoded, stats) = match &self.pool {
            Some(pool) => pool.map(workers, &misses, encode_one),
            None => scoped_map(workers, &misses, encode_one),
        };

        if !misses.is_empty() {
            self.metrics.cache_misses.add(misses.len() as u64);
            self.metrics.batch_wall_us.record(stats.wall_us);
            self.metrics.speedup_x100.record(stats.speedup_x100());
            self.metrics
                .pool_utilization_pct
                .record(stats.utilization_pct());
            self.metrics.pool_workers.set(stats.workers as i64);
            self.metrics.wall_us_total.add(stats.wall_us);
            self.metrics.cpu_us_total.add(stats.cpu_us);
        }

        // Pass 3 (caller thread, deterministic): insert fresh encodes in
        // miss order, then assemble the output in submission order.
        for (key, (pt, payload, encode_us)) in miss_keys.iter().zip(&encoded) {
            self.metrics.tile_encode_us.record(*encode_us);
            let evicted = self.backend.insert(*key, *pt, payload.clone());
            self.metrics.evictions.add(evicted);
        }
        self.metrics.cache_bytes.set(self.backend.bytes() as i64);
        self.metrics.cache_entries.set(self.backend.len() as i64);

        plans
            .into_iter()
            .map(|(rect, plan)| match plan {
                Plan::Hit { pt, payload } => EncodedTile {
                    rect,
                    payload_type: pt,
                    payload,
                    encode_us: 0,
                    cache_hit: true,
                },
                Plan::Miss(i) => {
                    let (pt, ref payload, encode_us) = encoded[i];
                    EncodedTile {
                        rect,
                        payload_type: pt,
                        payload: payload.clone(),
                        encode_us,
                        cache_hit: false,
                    }
                }
                Plan::Alias(i) => {
                    let (pt, ref payload, _) = encoded[i];
                    self.metrics.bytes_saved.add(payload.len() as u64);
                    EncodedTile {
                        rect,
                        payload_type: pt,
                        payload: payload.clone(),
                        encode_us: 0,
                        cache_hit: true,
                    }
                }
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn flat(w: u32, h: u32, fill: u8) -> Image {
        Image::filled(w, h, [fill, fill, fill, 255]).expect("image")
    }

    /// A deterministic stand-in encoder that counts invocations, so cache
    /// hits (which must skip it) are detectable.
    fn counting_encoder(
        calls: &std::sync::atomic::AtomicUsize,
    ) -> impl Fn(&Image) -> (u8, Vec<u8>) + Sync + '_ {
        move |img: &Image| {
            calls.fetch_add(1, std::sync::atomic::Ordering::SeqCst);
            (101, vec![img.data()[0]; 16])
        }
    }

    #[test]
    fn cross_frame_hits_skip_the_encoder() {
        let calls = std::sync::atomic::AtomicUsize::new(0);
        let mut p = EncodePipeline::new(EncodeConfig {
            workers: 1,
            ..EncodeConfig::default()
        });
        let job = || TileJob {
            rect: Rect::new(0, 0, 8, 8),
            image: flat(8, 8, 7),
        };
        let first = p.encode_batch(0, vec![job()], counting_encoder(&calls));
        p.begin_step();
        let second = p.encode_batch(0, vec![job()], counting_encoder(&calls));
        assert_eq!(calls.load(std::sync::atomic::Ordering::SeqCst), 1);
        assert!(!first[0].cache_hit);
        assert!(second[0].cache_hit);
        assert_eq!(first[0].payload, second[0].payload);
    }

    #[test]
    fn per_step_mode_clears_on_begin_step() {
        let calls = std::sync::atomic::AtomicUsize::new(0);
        let mut p = EncodePipeline::new(EncodeConfig {
            workers: 1,
            cross_frame_cache: false,
            ..EncodeConfig::default()
        });
        let job = || TileJob {
            rect: Rect::new(0, 0, 8, 8),
            image: flat(8, 8, 7),
        };
        p.encode_batch(0, vec![job()], counting_encoder(&calls));
        p.begin_step();
        p.encode_batch(0, vec![job()], counting_encoder(&calls));
        assert_eq!(calls.load(std::sync::atomic::Ordering::SeqCst), 2);
    }

    #[test]
    fn intra_batch_dedup_encodes_once() {
        let calls = std::sync::atomic::AtomicUsize::new(0);
        let mut p = EncodePipeline::new(EncodeConfig {
            workers: 1,
            ..EncodeConfig::default()
        });
        let jobs = vec![
            TileJob {
                rect: Rect::new(0, 0, 8, 8),
                image: flat(8, 8, 3),
            },
            TileJob {
                rect: Rect::new(8, 0, 8, 8),
                image: flat(8, 8, 3),
            },
        ];
        let out = p.encode_batch(0, jobs, counting_encoder(&calls));
        assert_eq!(calls.load(std::sync::atomic::Ordering::SeqCst), 1);
        assert!(!out[0].cache_hit);
        assert!(out[1].cache_hit, "second identical tile aliases the first");
        assert_eq!(out[0].payload, out[1].payload);
        assert_eq!(out[0].rect, Rect::new(0, 0, 8, 8));
        assert_eq!(out[1].rect, Rect::new(8, 0, 8, 8));
    }

    #[test]
    fn a_region_is_built_and_encoded_once_per_step() {
        let calls = std::sync::atomic::AtomicUsize::new(0);
        let built = std::cell::Cell::new(0);
        let mut p = EncodePipeline::new(EncodeConfig {
            workers: 1,
            ..EncodeConfig::default()
        });
        let registry = Registry::new();
        p.register_metrics(&registry, "enc");
        let key = RegionKey {
            surface: 3,
            rect: Rect::new(0, 0, 16, 8),
            tier: 0,
        };
        let jobs = || {
            built.set(built.get() + 1);
            vec![
                TileJob {
                    rect: Rect::new(0, 0, 8, 8),
                    image: flat(8, 8, 1),
                },
                TileJob {
                    rect: Rect::new(8, 0, 8, 8),
                    image: flat(8, 8, 2),
                },
            ]
        };
        let first = p.encode_region(key, jobs, counting_encoder(&calls));
        assert!(!first.repeated());
        assert!(first.iter().all(|t| !t.cache_hit));
        for _ in 0..7 {
            let again = p.encode_region(key, jobs, counting_encoder(&calls));
            assert!(again.repeated());
            assert!(again.iter().all(|t| t.cache_hit && t.encode_us == 0));
            assert!(again
                .iter()
                .zip(first.iter())
                .all(|(a, b)| a.payload == b.payload && a.rect == b.rect));
        }
        assert_eq!(built.get(), 1, "later requests crop nothing");
        assert_eq!(calls.load(std::sync::atomic::Ordering::SeqCst), 2);
        // Eight requesters, two tiles each: sixteen lookups, two misses —
        // what eight trips through the cache would have counted.
        assert_eq!(registry.counter_value("enc.tiles"), Some(16));
        assert_eq!(registry.counter_value("enc.cache.misses"), Some(2));
        assert_eq!(registry.counter_value("enc.cache.hits"), Some(14));
        assert_eq!(
            registry.counter_value("enc.cache.bytes_saved"),
            Some(14 * 16)
        );
        // Another tier or rect is another region.
        let lossy = RegionKey { tier: 2, ..key };
        assert!(!p
            .encode_region(lossy, jobs, counting_encoder(&calls))
            .repeated());
        // A new step forgets the index; the cache behind it still hits.
        p.begin_step();
        let next = p.encode_region(key, jobs, counting_encoder(&calls));
        assert!(!next.repeated());
        assert!(next.iter().all(|t| t.cache_hit));
        assert_eq!(built.get(), 3);
        assert_eq!(calls.load(std::sync::atomic::Ordering::SeqCst), 4);
    }

    #[test]
    fn tiers_do_not_share_entries() {
        let calls = std::sync::atomic::AtomicUsize::new(0);
        let mut p = EncodePipeline::new(EncodeConfig {
            workers: 1,
            ..EncodeConfig::default()
        });
        let job = || TileJob {
            rect: Rect::new(0, 0, 8, 8),
            image: flat(8, 8, 9),
        };
        p.encode_batch(0, vec![job()], counting_encoder(&calls));
        let lossy = p.encode_batch(2, vec![job()], counting_encoder(&calls));
        assert_eq!(
            calls.load(std::sync::atomic::Ordering::SeqCst),
            2,
            "tier 2 must re-encode despite identical pixels"
        );
        assert!(!lossy[0].cache_hit);
    }

    #[test]
    fn shared_backend_hits_across_pipelines() {
        let calls = std::sync::atomic::AtomicUsize::new(0);
        let cache = Arc::new(SharedEncodeCache::new(1 << 20, 4));
        let pool = WorkerPool::new(2);
        let cfg = EncodeConfig {
            workers: 1,
            ..EncodeConfig::default()
        };
        let mut a = EncodePipeline::with_shared(cfg, 7, cache.clone(), pool.clone());
        let mut b = EncodePipeline::with_shared(cfg, 7, cache.clone(), pool);
        let job = || TileJob {
            rect: Rect::new(0, 0, 8, 8),
            image: flat(8, 8, 5),
        };
        let first = a.encode_batch(0, vec![job()], counting_encoder(&calls));
        let second = b.encode_batch(0, vec![job()], counting_encoder(&calls));
        assert_eq!(
            calls.load(std::sync::atomic::Ordering::SeqCst),
            1,
            "second session must hit the first session's encode"
        );
        assert!(second[0].cache_hit);
        assert_eq!(first[0].payload, second[0].payload);
        assert_eq!(cache.hits(), 1);
        assert_eq!(cache.misses(), 1);
    }

    #[test]
    fn shared_backend_namespaces_are_isolated() {
        let calls = std::sync::atomic::AtomicUsize::new(0);
        let cache = Arc::new(SharedEncodeCache::new(1 << 20, 4));
        let pool = WorkerPool::new(2);
        let cfg = EncodeConfig {
            workers: 1,
            ..EncodeConfig::default()
        };
        let mut tenant_a = EncodePipeline::with_shared(cfg, 1, cache.clone(), pool.clone());
        let mut tenant_b = EncodePipeline::with_shared(cfg, 2, cache.clone(), pool);
        let job = || TileJob {
            rect: Rect::new(0, 0, 8, 8),
            image: flat(8, 8, 5),
        };
        tenant_a.encode_batch(0, vec![job()], counting_encoder(&calls));
        let out = tenant_b.encode_batch(0, vec![job()], counting_encoder(&calls));
        assert_eq!(
            calls.load(std::sync::atomic::Ordering::SeqCst),
            2,
            "identical pixels in another namespace must re-encode"
        );
        assert!(!out[0].cache_hit);
        assert_eq!(cache.hits(), 0);
    }

    #[test]
    fn shared_begin_step_never_clears() {
        let calls = std::sync::atomic::AtomicUsize::new(0);
        let cache = Arc::new(SharedEncodeCache::new(1 << 20, 2));
        let mut p = EncodePipeline::with_shared(
            EncodeConfig {
                workers: 1,
                cross_frame_cache: false,
                ..EncodeConfig::default()
            },
            0,
            cache,
            WorkerPool::new(1),
        );
        let job = || TileJob {
            rect: Rect::new(0, 0, 8, 8),
            image: flat(8, 8, 7),
        };
        p.encode_batch(0, vec![job()], counting_encoder(&calls));
        p.begin_step();
        let out = p.encode_batch(0, vec![job()], counting_encoder(&calls));
        assert_eq!(calls.load(std::sync::atomic::Ordering::SeqCst), 1);
        assert!(out[0].cache_hit, "shared cache survives begin_step");
    }

    #[test]
    fn a_batch_fans_out_only_when_each_worker_gets_a_tile() {
        let mk_jobs = |side: u32, n: u8| {
            (0..n)
                .map(|i| TileJob {
                    rect: Rect::new(i as u32 * side, 0, side, side),
                    image: flat(side, side, i),
                })
                .collect::<Vec<_>>()
        };
        let enc = |img: &Image| (101u8, img.data().to_vec());
        let mut serial = EncodePipeline::new(EncodeConfig {
            workers: 1,
            ..EncodeConfig::default()
        });
        let mut two = EncodePipeline::new(EncodeConfig {
            workers: 2,
            ..EncodeConfig::default()
        });
        let registry = Registry::new();
        two.register_metrics(&registry, "enc");
        let workers = || registry.snapshot().gauge("enc.pool_workers");
        // Two 16×16 misses are 512 px, short of one 128×128 tile: inline.
        let small = two.encode_batch(0, mk_jobs(16, 2), enc);
        assert_eq!(workers(), Some(1));
        // Four full tiles of misses: both workers.
        let large = two.encode_batch(0, mk_jobs(128, 4), enc);
        assert_eq!(workers(), Some(2));
        for (side, n, got) in [(16, 2, small), (128, 4, large)] {
            let want = serial.encode_batch(0, mk_jobs(side, n), enc);
            assert_eq!(want.len(), got.len());
            for (a, b) in want.iter().zip(&got) {
                assert_eq!((a.rect, a.payload_type), (b.rect, b.payload_type));
                assert_eq!(a.payload, b.payload);
            }
        }
    }

    #[test]
    fn parallel_output_matches_serial_output() {
        let mk_jobs = || {
            (0..32u8)
                .map(|i| TileJob {
                    rect: Rect::new(i as u32 * 8, 0, 8, 8),
                    image: flat(8, 8, i % 5),
                })
                .collect::<Vec<_>>()
        };
        let enc = |img: &Image| (101u8, img.data().to_vec());
        let mut serial = EncodePipeline::new(EncodeConfig {
            workers: 1,
            ..EncodeConfig::default()
        });
        let mut parallel = EncodePipeline::new(EncodeConfig {
            workers: 8,
            ..EncodeConfig::default()
        });
        let a = serial.encode_batch(0, mk_jobs(), enc);
        let b = parallel.encode_batch(0, mk_jobs(), enc);
        assert_eq!(a.len(), b.len());
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(x.rect, y.rect);
            assert_eq!(x.payload_type, y.payload_type);
            assert_eq!(x.payload, y.payload);
            assert_eq!(x.cache_hit, y.cache_hit);
        }
    }
}
