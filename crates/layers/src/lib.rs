//! Simulcast/SVC-style layered quality for application sharing.
//!
//! The relay tree (DESIGN §11) forwards verbatim, so one slow subtree drags
//! every viewer down to the worst leg's tier. This crate borrows the
//! simulcast/SVC bandwidth-management model from modern screen-sharing
//! stacks: the AH publishes 2–3 codec tiers of the **same damage stream**
//! (the encode cache already partitions keys by `(content_hash, dims,
//! tier)`, so shared tiles encode once per tier, not per viewer), tier
//! metadata rides in SDP (`adshare-layers`) and in RTCP APP subscription
//! packets (`ADTR`), and each relay selects — or locally re-encodes to —
//! the tier its subtree's AIMD estimate affords.
//!
//! The pieces, bottom-up:
//!
//! - [`TierSet`]: which [`QualityTier`]s a sender publishes, and its SDP
//!   attribute encoding ([`SDP_ATTR`]).
//! - [`TierSelector`]: a frame-boundary latch over the raw AIMD tier
//!   signal — downgrades apply at the next unit boundary, upgrades must
//!   dwell so a noisy estimate cannot flap the wire format.
//! - [`TierRequest`]: the upstream subscription signal, an RTCP APP packet
//!   that rides the existing RTCP path as [`adshare_rtp::rtcp::RtcpPacket::Unknown`]
//!   (no RTP-stack changes).
//! - [`TierEncoder`]: a relay-local re-encoder backed by the shared
//!   [`adshare_encode::EncodePipeline`], so a relay can synthesize a lossy
//!   tier from its shadow state when its subtree cannot afford the
//!   upstream tier.
//! - [`TierStats`]: the `adshare-relay-tier-stats/v1` JSON document
//!   emitted by experiments and validated in CI.
//!
//! Convergence contract: tier switches happen only at unit (frame)
//! boundaries; an upgrade back to [`QualityTier::Lossless`] triggers a
//! lossless catch-up/repair pass, so the fast subtree keeps pixel-identical
//! parity while a slow subtree degrades gracefully instead of starving.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod encoder;
pub mod selector;
pub mod signal;
pub mod stats;
pub mod tier;

pub use adshare_rate::{QualityTier, RateConfig};
pub use encoder::TierEncoder;
pub use selector::{TierSelector, TierSwitch, MIN_DWELL_US};
pub use signal::TierRequest;
pub use stats::{LegTierStats, TierStats, TIER_STATS_SCHEMA};
pub use tier::{tier_from_gauge, TierSet, SDP_ATTR};

/// Per-relay configuration for layered quality, carried in
/// `RelayConfig.layers`. `None` there keeps the relay byte-transparent
/// (today's verbatim fan-out). Every leg may take any of the three tiers
/// ([`TierSet::all`]); the upgrade dwell is [`MIN_DWELL_US`].
#[derive(Debug, Clone)]
pub struct LayersConfig {
    /// Per-leg AIMD band feeding the tier decision. The defaults differ
    /// from the AH's pacing band: the floor sits above the health engine's
    /// floor-pinned threshold (a deliberate tier downgrade must not read
    /// as a starved sender), and the initial estimate starts lossless so a
    /// healthy leg never dips below verbatim forwarding. Set by the relay's
    /// `low_rate_layers` unit tests and `tests/layers.rs`'s
    /// `tier_round_trip`.
    pub rate: RateConfig,
    /// Subscribe upstream to the least-lossy tier any open leg needs, so
    /// the AH can stop encoding tiers nobody is watching. Off, the relay
    /// always receives lossless and re-encodes locally. Set by the relay's
    /// upstream-subscription unit test and `exp_layers`.
    pub subscribe_upstream: bool,
}

impl Default for LayersConfig {
    fn default() -> Self {
        LayersConfig {
            rate: RateConfig {
                // Never collides with the health engine's floor-pinned
                // rule (`adshare_obs::ESTIMATOR_FLOOR_BPS`, 128 kb/s):
                // Economy is a deliberate tier, not a starved sender.
                floor_bps: 400_000,
                // Start lossless: a leg is verbatim until its own loss
                // feedback says otherwise, which keeps the fast subtree
                // bit-identical to a no-layers baseline by construction.
                initial_bps: 8_000_000,
                ceiling_bps: 64_000_000,
                ..RateConfig::default()
            },
            subscribe_upstream: false,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_config_is_lossless_first() {
        let cfg = LayersConfig::default();
        assert!(cfg.rate.initial_bps >= cfg.rate.lossless_above_bps);
        assert!(
            cfg.rate.floor_bps > adshare_obs::ESTIMATOR_FLOOR_BPS,
            "must clear floor-pinned rule"
        );
    }
}
