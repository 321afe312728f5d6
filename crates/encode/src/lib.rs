//! Parallel tile-encode pipeline with a cross-frame content-addressed
//! encode cache.
//!
//! Region encoding (draft §4.2) is the AH's hottest CPU path. This crate
//! makes it scale in three independent ways, all behind one
//! [`EncodePipeline`]:
//!
//! * [`tiling`] — damaged regions are split into fixed-size, grid-aligned
//!   tiles, so a large update parallelises across cores and a small
//!   repeated update (blinking cursor, menu toggle) becomes a stable,
//!   cacheable unit.
//! * [`cache`] — a byte-budgeted LRU keyed by
//!   `(content_hash, width, height, tier)` — the WebNC trick: identical
//!   pixels encode once, ever, no matter which window, frame, or
//!   participant they appear in. The hash is
//!   [`adshare_codec::checksum::fast_hash64`] over the tile's RGBA bytes,
//!   so the cache survives across frames and is shared by every
//!   participant and transport fanned out from one AH. Quality tiers are
//!   part of the key: a lossy-tier encode can never satisfy (poison) a
//!   lossless-tier request.
//! * [`shared`] — a sharded, mutex-per-shard variant of the cache meant to
//!   be `Arc`-shared by every session in a multi-tenant host process:
//!   identical app tiles across tenants encode once process-wide, with
//!   [`CacheKey::namespace`](cache::CacheKey) keeping private
//!   (consent-gated) sessions fully isolated.
//! * [`pool`] — cache misses encode on a pool of threads started once
//!   (per process, or per multi-tenant host). Results are assembled in
//!   submission order and cache insertion happens on the caller thread in
//!   that same order, so the emitted packets are byte-identical to a
//!   serial run regardless of worker count — the parity the proptests in
//!   `tests/parity.rs` pin down.
//!
//! The pipeline is codec-agnostic: callers pass the encode function (codec
//! selection, quality knobs) as a closure, so this crate depends only on
//! `adshare-codec` for the image type and hash.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod cache;
pub mod pipeline;
pub mod pool;
pub mod shared;
pub mod tiling;

pub use cache::{CacheKey, EncodeCache};
pub use pipeline::{
    resolve_workers, EncodeConfig, EncodePipeline, EncodedTile, RegionKey, RegionTiles, TileJob,
};
pub use pool::WorkerPool;
pub use shared::SharedEncodeCache;
pub use tiling::{tiles, TileConfig};
