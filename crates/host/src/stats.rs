//! Host-level statistics snapshot and its JSON export.

/// Schema marker for [`HostStats::to_json`] output; `obs_schema_check`
/// dispatches on it to `schemas/host_stats.schema.json`.
pub const HOST_STATS_SCHEMA: &str = "adshare-host-stats/v1";

/// Wire names of the codecs the per-codec CPU split is indexed by, in the
/// order of `CodecKind::ALL` (a test pins the two in sync — `adshare-codec`
/// is a dev-dependency only).
pub const CODEC_NAMES: [&str; 4] = ["raw", "png", "dct", "rle"];

/// A point-in-time roll-up of a [`crate::MultiHost`]: scheduling totals,
/// shared-cache effectiveness, and worker-pool pressure.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HostStats {
    /// Hosted sessions.
    pub sessions: u64,
    /// Sessions currently armed in the event loop (not parked).
    pub active_sessions: u64,
    /// Total event-loop services across all sessions.
    pub services: u64,
    /// Wall time spent inside `run_until` (µs).
    pub wall_us: u64,
    /// Sum of per-session service CPU (µs).
    pub cpu_us: u64,
    /// Fewest services any one session has received.
    pub steps_min: u64,
    /// Most services any one session has received.
    pub steps_max: u64,
    /// Shared-cache lookup hits (process-wide).
    pub cache_hits: u64,
    /// Shared-cache lookup misses.
    pub cache_misses: u64,
    /// Entries inserted into the shared cache.
    pub cache_insertions: u64,
    /// Entries evicted by the byte budget.
    pub cache_evictions: u64,
    /// Live entries across all shards.
    pub cache_entries: u64,
    /// Encoded bytes held across all shards.
    pub cache_bytes: u64,
    /// Shard count (power of two).
    pub cache_shards: u64,
    /// Hit rate as a rounded integer percentage.
    pub cache_hit_rate_pct: u64,
    /// Workers in the host's encode pool, the stepping thread included.
    pub pool_max_workers: u64,
    /// Batches that found no pool thread idle and encoded inline.
    pub pool_inline_fallbacks: u64,
    /// Encode CPU (µs) spent in each codec across all hosted sessions,
    /// indexed by [`CODEC_NAMES`]. Aggregated from the per-session
    /// `codec.<name>.cpu_us_total` counters; cache hits cost no encode CPU
    /// and so never appear here.
    pub codec_cpu_us: [u64; 4],
    /// Cache-miss encodes performed per codec, same indexing.
    pub codec_encodes: [u64; 4],
}

impl HostStats {
    /// JSON document carrying the [`HOST_STATS_SCHEMA`] marker.
    pub fn to_json(&self) -> String {
        adshare_obs::json::object(|o| {
            o.str("schema", HOST_STATS_SCHEMA)
                .u64("sessions", self.sessions)
                .u64("active_sessions", self.active_sessions)
                .u64("services", self.services)
                .u64("wall_us", self.wall_us)
                .u64("cpu_us", self.cpu_us)
                .u64("steps_min", self.steps_min)
                .u64("steps_max", self.steps_max)
                .object("cache", |o| {
                    o.u64("hits", self.cache_hits)
                        .u64("misses", self.cache_misses)
                        .u64("insertions", self.cache_insertions)
                        .u64("evictions", self.cache_evictions)
                        .u64("entries", self.cache_entries)
                        .u64("bytes", self.cache_bytes)
                        .u64("shards", self.cache_shards)
                        .u64("hit_rate_pct", self.cache_hit_rate_pct);
                })
                .object("pool", |o| {
                    o.u64("max_workers", self.pool_max_workers)
                        .u64("inline_fallbacks", self.pool_inline_fallbacks);
                })
                .object("codec", |codecs| {
                    for (i, name) in CODEC_NAMES.iter().enumerate() {
                        codecs.object(name, |o| {
                            o.u64("cpu_us", self.codec_cpu_us[i])
                                .u64("encodes", self.codec_encodes[i]);
                        });
                    }
                });
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn codec_names_match_codec_kind_order() {
        let kinds: Vec<&str> = adshare_codec::CodecKind::ALL
            .iter()
            .map(|k| k.encoding_name())
            .collect();
        assert_eq!(
            kinds, CODEC_NAMES,
            "CODEC_NAMES drifted from CodecKind::ALL"
        );
    }
}
