//! The `adshare-relay-tier-stats/v1` JSON document.
//!
//! Emitted by experiments (E20) and demo tooling, validated against
//! `schemas/relay_tier_stats.schema.json` by `obs_schema_check` in CI.

/// Schema marker for the tier-stats document.
pub const TIER_STATS_SCHEMA: &str = "adshare-relay-tier-stats/v1";

/// Per-leg tier state at snapshot time.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LegTierStats {
    /// Leg index within the relay.
    pub leg: usize,
    /// Active tier gauge (0 = lossless, 1 = balanced, 2 = economy).
    pub tier: u8,
    /// Committed tier switches on this leg.
    pub switches: u64,
    /// Committed downgrades (toward economy).
    pub downgrades: u64,
    /// Messages forwarded verbatim from upstream.
    pub verbatim_msgs: u64,
    /// Locally re-encoded (synthesized) messages sent.
    pub synth_msgs: u64,
    /// Bytes of synthesized payloads sent.
    pub synth_bytes: u64,
    /// The leg's AIMD estimate at snapshot time, bits/second.
    pub est_rate_bps: u64,
}

/// One relay's layered-quality snapshot.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TierStats {
    /// Relay identifier.
    pub relay_id: usize,
    /// Tier currently subscribed from upstream (gauge value).
    pub upstream_tier: u8,
    /// Upstream `TierRequest` packets sent.
    pub tier_requests: u64,
    /// Per-leg state.
    pub legs: Vec<LegTierStats>,
}

impl TierStats {
    /// Serialize to the schema'd JSON document.
    pub fn to_json(&self) -> String {
        adshare_obs::json::object(|o| {
            o.str("schema", TIER_STATS_SCHEMA)
                .u64("relay_id", self.relay_id as u64)
                .u64("upstream_tier", u64::from(self.upstream_tier))
                .u64("tier_requests", self.tier_requests)
                .array("legs", |legs| {
                    for leg in &self.legs {
                        legs.object(|o| {
                            o.u64("leg", leg.leg as u64)
                                .u64("tier", u64::from(leg.tier))
                                .u64("switches", leg.switches)
                                .u64("downgrades", leg.downgrades)
                                .u64("verbatim_msgs", leg.verbatim_msgs)
                                .u64("synth_msgs", leg.synth_msgs)
                                .u64("synth_bytes", leg.synth_bytes)
                                .u64("est_rate_bps", leg.est_rate_bps);
                        });
                    }
                });
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use adshare_obs::json::{parse, Json};

    #[test]
    fn json_carries_every_field() {
        let mut stats = TierStats {
            relay_id: 3,
            upstream_tier: 1,
            tier_requests: 2,
            legs: vec![LegTierStats {
                leg: 0,
                tier: 2,
                switches: 4,
                downgrades: 3,
                verbatim_msgs: 10,
                synth_msgs: 20,
                synth_bytes: 4096,
                est_rate_bps: 900_000,
            }],
        };
        let doc = parse(&stats.to_json()).expect("valid JSON");
        let top = |key: &str| doc.get(key).and_then(Json::as_u64);
        assert_eq!(
            doc.get("schema").and_then(Json::as_str),
            Some(TIER_STATS_SCHEMA)
        );
        assert_eq!((top("relay_id"), top("upstream_tier")), (Some(3), Some(1)));
        assert_eq!(top("tier_requests"), Some(2));
        let legs = doc.get("legs").and_then(Json::as_array).unwrap();
        let leg = |key: &str| legs[0].get(key).and_then(Json::as_u64);
        assert_eq!((leg("leg"), leg("tier")), (Some(0), Some(2)));
        assert_eq!((leg("switches"), leg("downgrades")), (Some(4), Some(3)));
        assert_eq!(
            (leg("verbatim_msgs"), leg("synth_msgs")),
            (Some(10), Some(20))
        );
        assert_eq!(leg("synth_bytes"), Some(4096));
        assert_eq!(leg("est_rate_bps"), Some(900_000));

        stats.legs.clear();
        let doc = parse(&stats.to_json()).expect("valid JSON");
        assert_eq!(
            doc.get("legs").and_then(Json::as_array).map(<[Json]>::len),
            Some(0)
        );
    }
}
