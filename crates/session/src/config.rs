//! Session configuration types.

use adshare_codec::CodecKind;
use adshare_screen::damage::MergeStrategy;

/// Which transport a participant uses (§4.3/§4.4).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TransportKind {
    /// Unicast UDP with RTCP feedback (PLI/NACK).
    Udp,
    /// TCP with RFC 4571 framing.
    Tcp,
    /// Member of a multicast group.
    Multicast,
}

/// How the AH ships the mouse pointer (§4.2: "The protocol supports two
/// different mouse pointer models. ... The AH decides which mouse model to
/// use. The participants MUST support both").
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PointerPolicy {
    /// Pointer pixels composited into RegionUpdates.
    InStream,
    /// Explicit MousePointerInfo messages.
    Explicit,
}

/// AH-side configuration. Each field names the tests and workloads that
/// set it to something other than its default.
#[derive(Debug, Clone)]
pub struct AhConfig {
    /// Content codec for RegionUpdates. RLE on the `typing_udp` and
    /// `relay_tree_tiers` workloads and in `tests/encode_parity.rs`, DCT in
    /// `tests/end_to_end.rs`, the negotiated codec in
    /// `SimSession::from_negotiation`.
    pub codec: CodecKind,
    /// §4.2 "according to their characteristics": classify each region and
    /// encode photographic content with the lossy DCT codec, synthetic
    /// content with `codec`. Off by default (pure lossless). On in the
    /// `video_dct_udp` workload, `tests/extensions.rs` and `exp_adaptive`.
    pub adaptive_codec: bool,
    /// RTP payload budget per UDP packet (bytes). Nothing sets it; it is a
    /// field because the benchmark's leaf replay reads it off the AH's
    /// config (`e2ebench/src/run.rs`).
    pub mtu: usize,
    /// Dynamic PT of the remoting stream itself. Set from the SDP answer
    /// by `SimSession::from_negotiation` and `tests/sdp_negotiation.rs`.
    pub remoting_pt: u8,
    /// Pointer model. In-stream in `tests/end_to_end.rs` and
    /// `tests/encode_parity.rs`.
    pub pointer: PointerPolicy,
    /// Whether the AH answers Generic NACKs with retransmissions
    /// (§4.5.1 MAY). Off in `tests/loss_recovery.rs`,
    /// `tests/extensions.rs` and `exp_loss_recovery`, and whenever the SDP
    /// answer declines it.
    pub retransmissions: bool,
    /// §7 policy: monitor the TCP send buffer and transmit only the
    /// freshest state when there is no backlog. Disabled = naive sender
    /// that queues everything: the oracle in `tests/backlog_policy.rs` and
    /// the ablation in experiment E4.
    pub tcp_freshness_policy: bool,
    /// Translate scrolls into MoveRectangle messages (§5.2.3). Disabled =
    /// re-encode scrolled pixels: the oracle in `tests/ablations.rs` and
    /// the ablation in E3 and E16.
    pub use_move_rectangle: bool,
    /// Damage coalescing strategy: per rect and bounding box are the
    /// oracles in `tests/ablations.rs` and the ablation in E9; the
    /// benchmark's leaf replay reads the default.
    pub damage_strategy: MergeStrategy,
    /// Retransmission cache bounds: (packets, bytes). Narrowed in
    /// `tests/alloc_budget.rs`.
    pub history: (usize, usize),
    /// Floor grant duration in µs; `None` = hold until release. Set by the
    /// `floor_storm` scenario.
    pub floor_grant_us: Option<u64>,
    /// Closed-loop congestion control (`adshare-rate`): estimate each
    /// participant's available bandwidth from RTCP feedback, pace
    /// RegionUpdates through a freshest-frame queue, and adapt codec
    /// quality to the estimate. `None` (the default) keeps the legacy
    /// fixed-rate pacing. Set by `tests/rate_adapt.rs`,
    /// `tests/wire_golden.rs`, `tests/metric_names.rs`, the
    /// `bandwidth_cliff` scenario and `adshare-demo`.
    pub adaptive_rate: Option<adshare_rate::RateConfig>,
    /// Tile-encode pipeline (`adshare-encode`): damage tiling grain, worker
    /// pool size, and the cross-frame content-addressed cache budget. The
    /// default enables the persistent cache with auto-sized workers; set
    /// `workers: 1` + `cross_frame_cache: false` to reproduce the legacy
    /// serial per-step path. Set by `tests/encode_parity.rs`,
    /// `tests/alloc_budget.rs` and `exp_encode_cache`.
    pub encode: adshare_encode::EncodeConfig,
}

impl Default for AhConfig {
    fn default() -> Self {
        AhConfig {
            codec: CodecKind::Png,
            adaptive_codec: false,
            mtu: 1400,
            remoting_pt: 99,
            pointer: PointerPolicy::Explicit,
            retransmissions: true,
            tcp_freshness_policy: true,
            use_move_rectangle: true,
            damage_strategy: MergeStrategy::Greedy { slack_percent: 130 },
            history: (4096, 8 << 20),
            floor_grant_us: None,
            adaptive_rate: None,
            encode: adshare_encode::EncodeConfig::default(),
        }
    }
}

/// How a participant lays out the shared windows on its own screen
/// (Figures 3–5 of the draft).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Layout {
    /// Original AH coordinates (participant 1, Figure 3).
    Original,
    /// All windows shifted by a fixed offset, relations preserved
    /// (participant 2, Figure 4).
    Shifted {
        /// Pixels subtracted from every window's x.
        dx: i64,
        /// Pixels subtracted from every window's y.
        dy: i64,
    },
    /// Windows packed toward the origin independently, for small screens
    /// (participant 3, Figure 5). Each window keeps its size; positions are
    /// assigned compactly in z-order.
    Packed {
        /// Participant screen width.
        width: u32,
        /// Participant screen height.
        height: u32,
    },
    /// Like [`Layout::Packed`], but windows of the same GroupID move as a
    /// unit, preserving their relative offsets (§4.1: "Grouping information
    /// MAY be used by the participant while relocating the windows").
    GroupedPacked {
        /// Participant screen width.
        width: u32,
        /// Participant screen height.
        height: u32,
    },
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_are_spec_shaped() {
        let c = AhConfig::default();
        assert_eq!(c.codec, CodecKind::Png, "PNG is the mandatory codec");
        assert!(c.tcp_freshness_policy, "§7 policy on by default");
        assert!(c.use_move_rectangle);
        assert!(c.mtu >= 576, "minimum sane MTU");
    }
}
