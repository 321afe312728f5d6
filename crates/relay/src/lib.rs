//! Cascadable fan-out relay tier for application/desktop sharing.
//!
//! The draft's AH serves every participant directly; with many viewers the
//! AH's uplink becomes the bottleneck and every downstream loss event rides
//! all the way back to the source. A relay node breaks that coupling:
//!
//! * **Upstream** it *is* one more remoting receiver — the same
//!   [`Ingress`] and [`Mirror`] a participant runs (DESIGN §5.2) — to the AH
//!   or to another relay, so relays cascade into a tree. The AH sees one
//!   leg regardless of how many participants sit below.
//! * **Downstream** it fans the reassembled remoting stream out to N legs
//!   (UDP, RFC 4571-framed TCP, or raw byte queues for embedding), each
//!   with its own pacer and freshest-frame supersede queue.
//! * **Generic NACKs** (§6 of the draft) terminate at the relay: a shared
//!   byte-budgeted [`RetransmitHistory`] keyed by upstream sequence answers
//!   them locally, a per-sequence suppression window collapses NACK storms
//!   from different legs into a single cache lookup, and only genuine cache
//!   misses escalate upstream (deduplicated within the same window).
//! * **PLIs** coalesce: at most one upstream PLI per refresh interval, and
//!   once the relay's own window mirror is synced a leg's PLI is served
//!   entirely locally as a catch-up burst — WindowManagerInfo plus a full
//!   `RegionUpdate` per window synthesized from the mirror — so late
//!   joiners never cost the AH a full refresh.
//!
//! Each leg gets its own contiguous RTP sequence space (rewritten from the
//! upstream numbers) so per-leg supersede drops never look like loss. For a
//! leg attached from the start of the stream the rewrite is the identity
//! and the forwarded RTP bytes are identical to direct delivery.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod scenario;
pub mod sim;

use std::collections::HashMap;
use std::rc::Rc;

use adshare_capture::{
    CaptureHandle, Direction as CapDirection, StreamKind as CapStreamKind,
    Transport as CapTransport,
};
use adshare_codec::codec::{default_pt, AnyCodec, CodecKind};
use adshare_codec::image::Rect;
use adshare_codec::Codec;
use adshare_encode::EncodeConfig;
use adshare_layers::{
    LayersConfig, LegTierStats, TierEncoder, TierRequest, TierSelector, TierStats, MIN_DWELL_US,
};
use adshare_netsim::tcp::{TcpConfig, TcpLink};
use adshare_netsim::time::us_to_ticks;
use adshare_netsim::udp::{LinkConfig, UdpChannel};
use adshare_obs::{EventKind, Obs, ACTOR_LEG_BASE, ACTOR_RELAY};
use adshare_rate::{FreshQueue, QualityTier, RateController};
use adshare_remoting::fragment::for_each_fragment;
use adshare_remoting::{
    MousePointerInfo, RegionUpdate, RemotingMessage, WindowId, WindowManagerInfo, WindowRecord,
};
use adshare_rtp::history::RetransmitHistory;
use adshare_rtp::rtcp::{decode_compound, GenericNack, RtcpPacket};
use adshare_rtp::RtpPacket;
use adshare_session::egress::{Burst, Downstream, StreamId, Tap, Verdict, Wire, REPEAT_WINDOW_US};
use adshare_session::ingress::{is_rtcp, Ingress};
use adshare_session::mirror::{Applied, Mirror};
use adshare_session::world::{Delivery, Relay};
use bytes::Bytes;

/// Schema marker for [`RelayNode::stats_json`].
pub const RELAY_STATS_SCHEMA: &str = "adshare-relay-stats/v1";

/// How many sequences each leg remembers for NACK translation (matches the
/// default retransmit-cache depth).
const LEG_RECORD: usize = 4096;

/// Retransmit-cache byte budget.
const CACHE_MAX_BYTES: usize = 8 << 20;
/// Minimum spacing between upstream PLIs (and between catch-up bursts to
/// the same leg).
const PLI_MIN_INTERVAL_US: u64 = 500_000;
/// Max RTP payload size for locally synthesized packets.
const MTU: usize = 1400;

/// What a relay is configured with.
#[derive(Debug, Clone)]
pub struct RelayConfig {
    /// Retransmit-cache packet-count budget. A field only as
    /// `cache_miss_escalates_upstream_once`'s lever onto the miss path.
    pub cache_max_packets: usize,
    /// Serve late-joiner PLIs from the mirror instead of escalating. A
    /// field only as `second_pli_within_interval_is_coalesced_upstream`'s
    /// lever onto the upstream-PLI path.
    pub catchup_enabled: bool,
    /// Layered-quality configuration. `None` (the default) disables tier
    /// selection entirely: every leg forwards verbatim, byte-identical to
    /// the pre-layers relay. `Some` arms a per-leg AIMD tier controller
    /// that re-encodes from the mirror when a subtree cannot afford the
    /// upstream tier. Set by `tests/layers.rs`, `tests/wire_golden.rs`,
    /// `exp_layers` and the `relay_tree_tiers` workload.
    pub layers: Option<LayersConfig>,
}

impl Default for RelayConfig {
    fn default() -> Self {
        RelayConfig {
            cache_max_packets: 4096,
            catchup_enabled: true,
            layers: None,
        }
    }
}

/// Aggregate relay counters, read through [`RelayNode::stats`] and
/// [`RelayNode::stats_json`]. They are plain fields, **not** registry
/// metrics: with an [`Obs`] attached the registry carries only the shared
/// retransmit cache (`relay.{id}.retx_cache.*`), the leg count
/// (`relay.{id}.legs`) and each leg's link and tier gauges, while the
/// decisions counted here also appear as flight-recorder events.
#[derive(Debug, Clone, Copy, Default)]
pub struct RelayStats {
    /// Remoting messages forwarded downstream (per leg).
    pub forwarded_msgs: u64,
    /// RTP packets forwarded downstream.
    pub forwarded_packets: u64,
    /// Wire bytes forwarded downstream (RTP only).
    pub forwarded_bytes: u64,
    /// Queued messages dropped because fresher content superseded them.
    pub superseded_msgs: u64,
    /// Generic NACK messages received from legs.
    pub nacks_received: u64,
    /// NACKed sequences answered locally (cache, suppression copy, or
    /// catch-up packet).
    pub nacks_absorbed_seqs: u64,
    /// Subset of absorbed sequences served from the suppression-window
    /// copy without touching the cache.
    pub nacks_suppressed_seqs: u64,
    /// Upstream Generic NACK messages sent because of leg cache misses.
    pub nacks_escalated: u64,
    /// Sequences carried by those escalated NACKs.
    pub seqs_escalated: u64,
    /// Upstream NACKs from the relay's own reorder-gap detection.
    pub upstream_gap_nacks: u64,
    /// PLIs received from legs.
    pub plis_received: u64,
    /// PLIs actually sent upstream (join, resync, escalation).
    pub plis_upstream: u64,
    /// Leg PLIs answered without an upstream PLI (coalesced or served from
    /// the mirror).
    pub plis_coalesced: u64,
    /// NACKed sequences the leg never sent, ignored.
    pub nacks_unsent_seqs: u64,
    /// Catch-up bursts synthesized for late joiners.
    pub catchups_served: u64,
    /// Wire bytes in those bursts.
    pub catchup_bytes: u64,
}

impl RelayStats {
    /// Total upstream recovery messages (gap NACKs + escalated NACKs).
    /// Zero under purely downstream loss — the property E18 asserts.
    pub fn upstream_nacks(&self) -> u64 {
        self.upstream_gap_nacks + self.nacks_escalated
    }
}

/// One reassembled remoting unit (all RTP packets of one message) or a
/// verbatim upstream RTCP datagram, queued per leg behind one `Rc` so the
/// fan-out never copies payload bytes.
enum Unit {
    /// RTP packets carrying exactly one remoting message.
    Media(Vec<RtpPacket>),
    /// An upstream RTCP compound (sender reports) forwarded byte-for-byte —
    /// every leg sends the buffer it arrived in — queued in-line so
    /// downstream sees the same interleaving as direct delivery.
    Rtcp(Bytes),
    /// A locally re-encoded rendition of one region update for legs whose
    /// active tier is lossier than the upstream stream, one message per
    /// tile. Each leg packetizes it at flush time into its own sequence
    /// space.
    Synth(Vec<RemotingMessage>),
}

struct Leg {
    /// The leg's stream over its transport — simulated UDP, an RFC
    /// 4571-framed TCP stream (the tier controller reads its send-buffer
    /// backlog as the §7 congestion signal, so TCP legs degrade tiers
    /// instead of stalling, and sends are all-or-nothing), or a raw queue
    /// the caller ships itself (the demo binary). It remembers what each of
    /// the last [`LEG_RECORD`] sequences carried: a forwarded packet's
    /// upstream sequence (repaired from the shared cache, escalated on a
    /// miss), or a packet minted here (catch-up burst, tier re-encode).
    out: Downstream,
    /// Running wire digest of every datagram sent on this leg plus the
    /// capture sink, both updated inside the wire's send. E20's parity
    /// gate compares a lossless leg's digest against the no-layers
    /// baseline.
    tap: Tap,
    queue: FreshQueue<Rc<Unit>>,
    rate: RateController,
    last_catchup_us: Option<u64>,
    /// A departed viewer (churn): the leg stops participating in fan-out
    /// and feedback but keeps its slot so other legs' indices stay stable.
    closed: bool,
    /// Layered-quality state; `None` when the relay runs without layers.
    tier: Option<LegTier>,
}

/// Per-leg layered-quality state: an adaptive AIMD estimator fed by the
/// leg's own RTCP (RRs, NACKs) or TCP backlog, and the dwell-gated tier
/// selector it drives. Lives beside — never instead of — the leg's fixed
/// pacer: while the active tier is lossless the leg flushes on the fixed
/// budget and forwards verbatim, so the wire is bit-identical to a relay
/// without layers.
struct LegTier {
    rate: RateController,
    selector: TierSelector,
    verbatim_msgs: u64,
    synth_msgs: u64,
    synth_bytes: u64,
}

/// What one completed remoting unit means for the per-leg queues.
#[derive(Clone, Copy)]
enum UnitClass {
    /// A region update: supersedable under `(window, epoch)`.
    Region { window: u16, rect: Rect },
    /// Everything else: ordering barrier, never superseded.
    Barrier,
}

/// The relay node: one upstream subscription, N downstream legs.
pub struct RelayNode {
    cfg: RelayConfig,
    id: u16,
    /// The upstream subscription: one ordinary remoting receiver, signing
    /// its feedback `0x5245_0000 | id` / `relay-{id}@adshare`.
    rx: Ingress,
    cache: RetransmitHistory,
    /// Packets of the message under reassembly, in order.
    unit_pkts: Vec<RtpPacket>,
    /// RTP identity of the upstream stream as of its latest packet.
    media: StreamId,
    /// The shared windows as the upstream stream describes them; catch-up
    /// bursts and tier re-encodes are read out of it.
    mirror: Mirror,
    /// The last pointer message, its icon resolved, for catch-up replay.
    pointer: Option<MousePointerInfo>,
    /// Bumped on every WindowManagerInfo and MoveRectangle; scopes
    /// supersede keys so a queue never drops a region update across one.
    epoch: u64,
    unit_counter: u64,
    // Downstream.
    legs: Vec<Leg>,
    // Layered quality.
    /// Mirror re-encoder, present when `cfg.layers` is set. Tiles
    /// are cached per `(content_hash, dims, tier)` so a static region
    /// costs one encode per tier regardless of leg count.
    tier_encoder: Option<TierEncoder>,
    /// Tier currently requested from (and assumed served by) upstream.
    upstream_tier: QualityTier,
    /// Pending upstream downgrade and when it was first wanted (dwell).
    upstream_desired_since: Option<(QualityTier, u64)>,
    tier_requests_sent: u64,
    /// When the last PLI went upstream, for coalescing.
    last_upstream_pli_us: Option<u64>,
    sent_join_pli: bool,
    // Suppression state.
    recent_retx: HashMap<u16, (u64, RtpPacket)>,
    recent_escalated: HashMap<u16, u64>,
    // Observability.
    obs: Option<Obs>,
    /// Everything but the two upstream feedback counts, which
    /// [`RelayNode::stats`] reads off `rx`.
    stats: RelayStats,
    /// Consent-gated wire capture: upstream ingress is recorded as `Rx`
    /// (actor [`ACTOR_RELAY`]), leg egress as `Tx` (per-leg actor).
    capture: Option<CaptureHandle>,
}

impl RelayNode {
    /// A fresh relay. `id` distinguishes cascaded relays in CNAMEs, SSRCs
    /// and metric prefixes.
    pub fn new(cfg: RelayConfig, id: u16) -> Self {
        let cache = RetransmitHistory::new(cfg.cache_max_packets, CACHE_MAX_BYTES);
        let tier_encoder = cfg.layers.as_ref().map(|_| {
            TierEncoder::new(
                EncodeConfig {
                    workers: 1,
                    ..EncodeConfig::default()
                },
                default_pt::PNG,
                default_pt::DCT,
            )
        });
        let seed = u64::from(id);
        RelayNode {
            cfg,
            id,
            rx: Ingress::new(
                0x5245_0000 | u32::from(id),
                format!("relay-{id}@adshare"),
                true,
                seed,
            ),
            cache,
            unit_pkts: Vec::new(),
            media: StreamId::default(),
            // A relay has no secret to key tile names with; its id keeps
            // runs repeatable, and a sender that forges a collision spoils
            // only what its own subtree is served.
            mirror: Mirror::new(seed),
            pointer: None,
            epoch: 0,
            unit_counter: 0,
            legs: Vec::new(),
            tier_encoder,
            upstream_tier: QualityTier::Lossless,
            upstream_desired_since: None,
            tier_requests_sent: 0,
            last_upstream_pli_us: None,
            sent_join_pli: false,
            recent_retx: HashMap::new(),
            recent_escalated: HashMap::new(),
            obs: None,
            stats: RelayStats::default(),
            capture: None,
        }
    }

    /// Attach an armed capture sink; the relay tap points write through it
    /// with the caller-supplied `now_us` virtual clock.
    pub fn attach_capture(&mut self, capture: CaptureHandle) {
        for leg in &mut self.legs {
            leg.tap.attach_capture(capture.clone());
        }
        self.capture = Some(capture);
    }

    /// Attach observability: flight-recorder events plus `relay.{id}.*`
    /// cache metrics and a leg-count gauge.
    pub fn attach_obs(&mut self, obs: Obs) {
        self.cache
            .register_metrics(&obs.registry, &format!("relay.{}.retx_cache", self.id));
        obs.registry
            .gauge(&format!("relay.{}.legs", self.id))
            .set(self.active_leg_count() as i64);
        self.rx.attach_obs(obs.clone(), ACTOR_RELAY);
        self.obs = Some(obs);
        for leg_idx in 0..self.legs.len() {
            self.register_leg_tier_metrics(leg_idx);
        }
    }

    fn rec(&self, now_us: u64, actor: u16, kind: EventKind, a: u64, b: u64) {
        if let Some(obs) = &self.obs {
            obs.event(now_us, actor, kind, a, b);
        }
    }

    fn leg_actor(leg: usize) -> u16 {
        ACTOR_LEG_BASE | leg as u16
    }

    /// The relay's RTCP SSRC.
    pub fn ssrc(&self) -> u32 {
        self.rx.ssrc()
    }

    /// Whether the mirror has seen a WindowManagerInfo.
    pub fn synced(&self) -> bool {
        self.mirror.synced()
    }

    /// Number of downstream legs.
    pub fn leg_count(&self) -> usize {
        self.legs.len()
    }

    /// Aggregate counters.
    pub fn stats(&self) -> RelayStats {
        let feedback = self.rx.stats();
        RelayStats {
            upstream_gap_nacks: feedback.nacks_sent,
            plis_upstream: feedback.plis_sent,
            ..self.stats
        }
    }

    /// Retransmit-cache (hits, misses).
    pub fn cache_stats(&self) -> (u64, u64) {
        self.cache.stats()
    }

    /// Queue the join PLI, exactly as a participant's `request_refresh`.
    pub fn subscribe(&mut self, now_us: u64) {
        self.push_upstream_pli(now_us);
        self.sent_join_pli = true;
    }

    fn push_upstream_pli(&mut self, now_us: u64) {
        self.rx.request_refresh(us_to_ticks(now_us));
        self.last_upstream_pli_us = Some(now_us);
    }

    /// Add a downstream leg over a simulated UDP link. Returns the leg id.
    pub fn add_leg_udp(&mut self, link: LinkConfig, seed: u64, rate_bps: Option<u64>) -> usize {
        self.add_leg(Wire::udp(link, seed), rate_bps)
    }

    /// Add a raw-queue leg: forwarded datagrams pile up for the caller to
    /// ship (the demo binary's real sockets). Returns the leg id.
    pub fn add_leg_raw(&mut self, rate_bps: Option<u64>) -> usize {
        self.add_leg(Wire::raw(), rate_bps)
    }

    /// Add an RFC 4571-framed TCP leg over a simulated reliable stream.
    /// The same tier controller drives it, fed by send-buffer backlog
    /// instead of RTCP loss. Returns the leg id.
    pub fn add_leg_tcp(&mut self, tcp: TcpConfig, rate_bps: Option<u64>) -> usize {
        self.add_leg(Wire::tcp(tcp), rate_bps)
    }

    fn add_leg(&mut self, wire: Wire, rate_bps: Option<u64>) -> usize {
        let tier = self.cfg.layers.as_ref().map(|l| LegTier {
            // The adaptive controller only *observes* (it meters the leg's
            // affordable rate and picks a tier); the fixed `rate` below
            // stays the flush budget while the tier is lossless, keeping
            // the verbatim path byte-identical to a relay without layers.
            rate: RateController::new_adaptive(l.rate, rate_bps, MTU),
            selector: TierSelector::default(),
            verbatim_msgs: 0,
            synth_msgs: 0,
            synth_bytes: 0,
        });
        let mut tap = Tap::default();
        if let Some(capture) = &self.capture {
            tap.attach_capture(capture.clone());
        }
        let actor = Self::leg_actor(self.legs.len());
        self.legs.push(Leg {
            out: Downstream::new(wire, actor, None, Some((LEG_RECORD, usize::MAX)), true),
            tap,
            queue: FreshQueue::new(),
            rate: RateController::new_fixed(rate_bps, MTU),
            last_catchup_us: None,
            closed: false,
            tier,
        });
        self.update_leg_gauge();
        let leg_idx = self.legs.len() - 1;
        if self.obs.is_some() {
            self.register_leg_tier_metrics(leg_idx);
        }
        leg_idx
    }

    /// Export the leg's tier-controller gauges as `relay.{id}.leg.{n}.*`;
    /// the `.tier` gauge feeds the health engine's tier rule.
    fn register_leg_tier_metrics(&mut self, leg_idx: usize) {
        let Some(obs) = &self.obs else {
            return;
        };
        if let Some(t) = self.legs[leg_idx].tier.as_mut() {
            t.rate
                .register_metrics(&obs.registry, &format!("relay.{}.leg.{}", self.id, leg_idx));
        }
    }

    fn update_leg_gauge(&self) {
        if let Some(obs) = &self.obs {
            obs.registry
                .gauge(&format!("relay.{}.legs", self.id))
                .set(self.active_leg_count() as i64);
        }
    }

    /// Close a leg when its viewer leaves: drop its queue, repair state and
    /// seq maps, and stop including it in fan-out and feedback. The slot
    /// stays so other legs keep their indices; closing twice is a no-op.
    pub fn close_leg(&mut self, leg: usize) {
        let Some(l) = self.legs.get_mut(leg) else {
            return;
        };
        if l.closed {
            return;
        }
        l.closed = true;
        l.queue = FreshQueue::new();
        l.out.close();
        self.update_leg_gauge();
    }

    /// Whether a leg has been closed.
    pub fn leg_closed(&self, leg: usize) -> bool {
        self.legs.get(leg).is_some_and(|l| l.closed)
    }

    /// Number of open (not closed) legs.
    pub fn active_leg_count(&self) -> usize {
        self.legs.iter().filter(|l| !l.closed).count()
    }

    /// The UDP channel behind a leg, when it has one (tests use this to
    /// inject deterministic loss and read link stats).
    pub fn leg_link_mut(&mut self, leg: usize) -> Option<&mut UdpChannel> {
        self.legs.get_mut(leg)?.out.wire.udp_link_mut()
    }

    /// Immutable view of a leg's UDP channel.
    pub fn leg_link(&self, leg: usize) -> Option<&UdpChannel> {
        self.legs.get(leg)?.out.wire.udp_link()
    }

    /// The TCP link behind a leg, when it has one.
    pub fn leg_tcp_mut(&mut self, leg: usize) -> Option<&mut TcpLink> {
        self.legs.get_mut(leg)?.out.wire.tcp_link_mut()
    }

    /// Running wire digest (`Tap::digest`) of every datagram shipped on a
    /// leg. A lossless leg's digest matches a no-layers relay's bit-exactly.
    pub fn leg_wire_digest(&self, leg: usize) -> u64 {
        self.legs
            .get(leg)
            .map_or(Tap::default().digest(), |l| l.tap.digest())
    }

    /// The leg's active quality tier (`None` when layers are disabled).
    pub fn leg_tier(&self, leg: usize) -> Option<QualityTier> {
        self.legs
            .get(leg)?
            .tier
            .as_ref()
            .map(|t| t.selector.active())
    }

    /// Tier currently requested from upstream.
    pub fn upstream_tier(&self) -> QualityTier {
        self.upstream_tier
    }

    /// [`RelayNode::ingest_upstream_bytes`] for a borrowed datagram (real
    /// sockets, tests): the same ingest after one copy.
    pub fn ingest_upstream(&mut self, datagram: &[u8], now_us: u64) {
        self.ingest_upstream_bytes(Bytes::copy_from_slice(datagram), now_us);
    }

    /// Ingest one upstream datagram (RTP or rtcp-muxed RTCP). The relay
    /// keeps handles on `datagram` — the payload of every cached and queued
    /// packet is a slice of it, a forwarded RTCP compound is it — and never
    /// copies it.
    pub fn ingest_upstream_bytes(&mut self, datagram: Bytes, now_us: u64) {
        if let Some(cap) = &self.capture {
            let kind = if is_rtcp(&datagram) {
                CapStreamKind::Rtcp
            } else {
                CapStreamKind::Rtp
            };
            cap.record(
                CapDirection::Rx,
                kind,
                CapTransport::Udp,
                ACTOR_RELAY,
                now_us,
                &datagram,
            );
        }
        if is_rtcp(&datagram) {
            // Sender reports anchor downstream playout clocks; forward the
            // compound byte-for-byte, in stream order through the queues.
            let bytes = datagram.len() as u64;
            let unit = Rc::new(Unit::Rtcp(datagram));
            self.unit_counter += 1;
            let key = (1u64 << 63) | self.unit_counter;
            for leg in self.legs.iter_mut().filter(|l| !l.closed) {
                leg.queue
                    .push(key, Rect::new(0, 0, 0, 0), now_us, bytes, unit.clone());
            }
            return;
        }
        let Ok(pkt) = RtpPacket::decode_bytes(datagram) else {
            return;
        };
        self.media = StreamId {
            pt: pkt.header.payload_type,
            ts: pkt.header.timestamp,
            ssrc: pkt.header.ssrc,
        };
        self.rx.ingest(pkt, us_to_ticks(now_us));
        self.fan_out_ready(now_us);
    }

    /// Cache, collect and queue everything the upstream receiver can
    /// release in order.
    fn fan_out_ready(&mut self, now_us: u64) {
        while let Some((pkt, fed)) = self.rx.pop() {
            // Record at pop time: pop order is sequence-monotonic, which
            // the history's binary search requires (arrival order is not).
            self.cache.record(pkt.clone());
            self.unit_pkts.push(pkt);
            match fed {
                Ok(Some(msg)) => {
                    let pkts = std::mem::take(&mut self.unit_pkts);
                    self.complete_unit(msg, pkts, now_us);
                }
                Ok(None) => {}
                Err(_) => self.unit_pkts.clear(),
            }
        }
    }

    /// Mirror one remoting message and classify it for the supersede
    /// queues: a region the mirror drew is supersedable, everything else —
    /// an update it could not decode or place included — is a barrier.
    fn mirror_and_classify(&mut self, msg: &RemotingMessage) -> UnitClass {
        if let Applied::Region { window, rect, .. } = self.mirror.apply(msg) {
            return UnitClass::Region { window, rect };
        }
        match msg {
            // A move reads content written by earlier region updates, and a
            // WMI may resize under them: nothing queued before either may
            // be superseded away after it.
            RemotingMessage::WindowManagerInfo(_) | RemotingMessage::MoveRectangle(_) => {
                self.epoch += 1
            }
            RemotingMessage::MousePointerInfo(mp) => {
                // Keep the last pointer message (resolving "keep previous
                // icon" against the stored one) for catch-up replay.
                let replay = match (&mp.image, &self.pointer) {
                    (None, Some(prev)) => MousePointerInfo {
                        image: prev.image.clone(),
                        payload_type: prev.payload_type,
                        ..mp.clone()
                    },
                    _ => mp.clone(),
                };
                self.pointer = Some(replay);
            }
            RemotingMessage::RegionUpdate(_) => {}
        }
        UnitClass::Barrier
    }

    fn complete_unit(&mut self, msg: RemotingMessage, pkts: Vec<RtpPacket>, now_us: u64) {
        let class = self.mirror_and_classify(&msg);
        let bytes: u64 = pkts.iter().map(|p| p.wire_len() as u64).sum();
        let unit = Rc::new(Unit::Media(pkts));
        self.unit_counter += 1;
        let barrier_key = (1u64 << 63) | self.unit_counter;
        // Re-encode once per tier any open lossy leg needs — never per leg;
        // legs at the same tier share one Rc'd synth unit, and the tile
        // cache means a repeated region costs zero further encodes.
        let mut synth: Vec<(QualityTier, Rc<Unit>, u64)> = Vec::new();
        if let (UnitClass::Region { window, rect }, true) = (class, self.tier_encoder.is_some()) {
            let mut tiers: Vec<QualityTier> = self
                .legs
                .iter()
                .filter(|l| !l.closed)
                .filter_map(|l| l.tier.as_ref().map(|t| t.selector.active()))
                .filter(|t| t.is_lossy() && *t > self.upstream_tier)
                .collect();
            tiers.sort();
            tiers.dedup();
            for tier in tiers {
                if let Some((u, b)) = self.synth_unit(window, rect, tier) {
                    synth.push((tier, u, b));
                }
            }
        }
        let upstream_tier = self.upstream_tier;
        for leg in self.legs.iter_mut().filter(|l| !l.closed) {
            match class {
                UnitClass::Region { window, rect } => {
                    // Epoch-scoped key: supersede only reaches back to the
                    // last barrier, never across a WMI/Move.
                    let key = (u64::from(window) << 40) | (self.epoch & 0xFF_FFFF_FFFF);
                    let dropped = leg.queue.supersede(key, rect, now_us);
                    if dropped > 0 {
                        self.stats.superseded_msgs += dropped as u64;
                        leg.rate.note_superseded(dropped);
                    }
                    let chosen = leg
                        .tier
                        .as_ref()
                        .map(|t| t.selector.active())
                        .filter(|t| t.is_lossy() && *t > upstream_tier)
                        .and_then(|t| synth.iter().find(|(st, _, _)| *st == t))
                        .map(|(_, u, b)| (u.clone(), *b));
                    match chosen {
                        Some((u, b)) => leg.queue.push(key, rect, now_us, b, u),
                        None => leg.queue.push(key, rect, now_us, bytes, unit.clone()),
                    }
                }
                UnitClass::Barrier => {
                    leg.queue.push(
                        barrier_key,
                        Rect::new(0, 0, 0, 0),
                        now_us,
                        bytes,
                        unit.clone(),
                    );
                }
            }
        }
    }

    /// Build the lossier rendition of one region from the mirrored window:
    /// tile-cached re-encode, one `RegionUpdate` per tile, fragmented to
    /// the relay MTU. Returns `None` when the window vanished or nothing
    /// intersects it (the caller then forwards verbatim).
    fn synth_unit(
        &mut self,
        window: u16,
        rect: Rect,
        tier: QualityTier,
    ) -> Option<(Rc<Unit>, u64)> {
        let enc = self.tier_encoder.as_mut()?;
        let win = self.mirror.window(window)?;
        let origin = win.ah_rect();
        let local = rect
            .intersect(&origin)?
            .translated(-i64::from(origin.left), -i64::from(origin.top));
        let mut msgs = Vec::new();
        let mut bytes = 0u64;
        for (pt, trect, payload) in enc.encode_region(win.content(), local, tier) {
            let msg = RemotingMessage::RegionUpdate(RegionUpdate {
                window_id: WindowId(window),
                payload_type: pt,
                left: origin.left + trect.left,
                top: origin.top + trect.top,
                payload,
            });
            let fits = for_each_fragment(&msg, MTU, |_, head, chunk| {
                bytes += (head.len() + chunk.len()) as u64 + 12;
            });
            if fits.is_ok() {
                msgs.push(msg);
            }
        }
        if msgs.is_empty() {
            return None;
        }
        Some((Rc::new(Unit::Synth(msgs)), bytes))
    }

    /// Periodic work: the upstream receiver's give-up rule, leg flushes,
    /// its RTCP cadence, suppression-window pruning.
    pub fn step(&mut self, now_us: u64) {
        if self.rx.watch_gap() {
            // The unit spanning the hole is unrecoverable; forward what
            // lies behind it and ask upstream for a refresh.
            self.unit_pkts.clear();
            self.fan_out_ready(now_us);
            self.maybe_upstream_pli(now_us, usize::MAX);
        }

        if let Some(enc) = self.tier_encoder.as_mut() {
            enc.begin_frame();
        }
        for leg in 0..self.legs.len() {
            self.tick_leg_tier(leg, now_us);
            self.flush_leg(leg, now_us);
        }
        self.tick_upstream_tier(now_us);
        // A participant's cadence: re-PLI every second while unsynced (here:
        // once subscribed), re-NACK stale holes, RR+SDES every ~2 s.
        let waiting = self.sent_join_pli && !self.mirror.synced();
        let plis = self.rx.stats().plis_sent;
        self.rx.tick(us_to_ticks(now_us), !waiting);
        if self.rx.stats().plis_sent != plis {
            self.last_upstream_pli_us = Some(now_us);
        }

        self.recent_retx
            .retain(|_, (at, _)| now_us.saturating_sub(*at) <= REPEAT_WINDOW_US);
        self.recent_escalated
            .retain(|_, at| now_us.saturating_sub(*at) <= REPEAT_WINDOW_US);
    }

    /// Advance one leg's tier controller: refresh the AIMD estimate (TCP
    /// legs also fold in send-buffer backlog) and commit dwell-gated
    /// switches to the tier it affords (every tier is published). An
    /// upgrade back to lossless triggers a catch-up burst — the
    /// lossless-repair step that converges the leg to pixel-identical state
    /// after a lossy spell.
    fn tick_leg_tier(&mut self, leg_idx: usize, now_us: u64) {
        if self.cfg.layers.is_none() {
            return;
        }
        let leg = &mut self.legs[leg_idx];
        if leg.closed {
            return;
        }
        let Some(t) = leg.tier.as_mut() else {
            return;
        };
        if let Some((backlog, capacity)) = leg.out.wire.stream_backlog(now_us) {
            t.rate.on_backlog(backlog, capacity, now_us);
        }
        t.rate.flush_budget(now_us);
        let Some(sw) = t.selector.observe(t.rate.tier(), now_us) else {
            return;
        };
        let (from, to) = (sw.from, sw.to);
        self.rec(
            now_us,
            Self::leg_actor(leg_idx),
            EventKind::TierSwitch,
            to.as_gauge() as u64,
            from.as_gauge() as u64,
        );
        if to == QualityTier::Lossless && self.mirror.synced() && self.cfg.catchup_enabled {
            self.serve_catchup(leg_idx, now_us);
        }
    }

    /// Aggregate the least-lossy tier any open leg needs and, when
    /// `subscribe_upstream` is on, ask upstream to publish exactly that:
    /// upgrades (a leg recovered) go out immediately, downgrades dwell so
    /// one flappy leg does not degrade the whole subtree's source.
    fn tick_upstream_tier(&mut self, now_us: u64) {
        let Some(layers) = self.cfg.layers.as_ref() else {
            return;
        };
        if !layers.subscribe_upstream || !self.mirror.synced() {
            return;
        }
        let desired = self
            .legs
            .iter()
            .filter(|l| !l.closed)
            .filter_map(|l| l.tier.as_ref().map(|t| t.selector.active()))
            .min()
            .unwrap_or(QualityTier::Lossless);
        if desired == self.upstream_tier {
            self.upstream_desired_since = None;
            return;
        }
        if desired < self.upstream_tier {
            self.send_tier_request(desired, now_us);
            return;
        }
        match self.upstream_desired_since {
            Some((d, since)) if d == desired => {
                if now_us.saturating_sub(since) >= MIN_DWELL_US {
                    self.send_tier_request(desired, now_us);
                }
            }
            _ => self.upstream_desired_since = Some((desired, now_us)),
        }
    }

    fn send_tier_request(&mut self, tier: QualityTier, now_us: u64) {
        self.upstream_tier = tier;
        self.upstream_desired_since = None;
        self.tier_requests_sent += 1;
        let ssrc = self.rx.ssrc();
        self.rx.queue_rtcp(TierRequest { ssrc, tier }.to_rtcp());
        self.rec(
            now_us,
            ACTOR_RELAY,
            EventKind::TierRequest,
            tier.as_gauge() as u64,
            1,
        );
    }

    fn flush_leg(&mut self, leg_idx: usize, now_us: u64) {
        let media = self.media;
        let leg = &mut self.legs[leg_idx];
        if leg.closed {
            return;
        }
        // While the active tier is lossless the fixed pacer is the budget
        // (verbatim, baseline-identical wire). A lossy tier hands the
        // flush budget to the adaptive controller, so the leg gets pacing
        // and freshest-frame supersede matched to what it can afford.
        let budget = match leg.tier.as_mut() {
            Some(t) if t.selector.active().is_lossy() => t.rate.flush_budget(now_us),
            _ => leg.rate.flush_budget(now_us),
        };
        let units = leg.queue.pop_budget(budget);
        leg.rate.note_queue(leg.queue.len(), leg.queue.bytes());
        if let Some(t) = leg.tier.as_mut() {
            t.rate.note_queue(leg.queue.len(), leg.queue.bytes());
        }
        for q in units {
            let mut burst = Burst::default();
            let (last_up, synth) = match &*q.payload {
                Unit::Rtcp(bytes) => {
                    leg.rate.consume(bytes.len() as u64);
                    leg.out
                        .send(&mut leg.tap, CapStreamKind::Rtcp, now_us, bytes);
                    continue;
                }
                Unit::Media(pkts) => {
                    leg.out.forward(&mut leg.tap, now_us, pkts, &mut burst);
                    (pkts.last().map_or(0, |p| p.header.sequence), false)
                }
                Unit::Synth(msgs) => {
                    for msg in msgs {
                        let _ = (leg.out).send_message(
                            &mut leg.tap,
                            now_us,
                            msg,
                            MTU,
                            media,
                            &mut burst,
                        );
                    }
                    (burst.last_seq, true)
                }
            };
            leg.rate.consume(burst.bytes);
            if let Some(t) = leg.tier.as_mut() {
                t.rate.consume(burst.bytes);
                if synth {
                    t.synth_msgs += 1;
                    t.synth_bytes += burst.bytes;
                } else {
                    t.verbatim_msgs += 1;
                }
            }
            self.stats.forwarded_msgs += 1;
            self.stats.forwarded_packets += burst.packets;
            self.stats.forwarded_bytes += burst.bytes;
            if let Some(obs) = &self.obs {
                let pkts_and_bytes = (burst.packets << 32) | (burst.bytes & 0xFFFF_FFFF);
                let forwarded = u64::from(last_up);
                obs.event(
                    now_us,
                    leg.out.actor(),
                    EventKind::RelayForward,
                    forwarded,
                    pkts_and_bytes,
                );
                // Also record a generic RtpTx so existing health rules
                // (loss denominator) see relay egress.
                let leg_seq = u64::from(burst.last_seq);
                obs.event(
                    now_us,
                    leg.out.actor(),
                    EventKind::RtpTx,
                    leg_seq,
                    pkts_and_bytes,
                );
            }
        }
    }

    /// Drain the datagrams delivered to one datagram leg (UDP:
    /// link-delayed; raw: everything forwarded), each the buffer the leg
    /// sent. Empty on a TCP leg — see [`RelayNode::poll_leg_stream`].
    pub fn poll_leg_bytes(&mut self, leg: usize, now_us: u64) -> Vec<Bytes> {
        self.legs[leg].out.wire.poll(0, now_us)
    }

    /// The next in-order chunk of a TCP leg's RFC 4571-framed stream (empty
    /// when nothing arrived, and on a datagram leg).
    pub fn poll_leg_stream(&mut self, leg: usize, now_us: u64) -> Vec<u8> {
        self.legs[leg].out.wire.poll_stream(now_us)
    }

    /// Either of the above as plain vectors, for a caller that does not
    /// care which kind of leg it polls: the datagrams copied out one by
    /// one, or the stream chunk as a single element.
    pub fn poll_leg(&mut self, leg: usize, now_us: u64) -> Vec<Vec<u8>> {
        if self.legs[leg].out.wire.is_stream() {
            let chunk = self.poll_leg_stream(leg, now_us);
            return if chunk.is_empty() {
                Vec::new()
            } else {
                vec![chunk]
            };
        }
        let datagrams = self.poll_leg_bytes(leg, now_us);
        datagrams.iter().map(Bytes::to_vec).collect()
    }

    /// Feed RTCP from a downstream leg (NACK/PLI; reports are informational).
    pub fn handle_leg_rtcp(&mut self, leg: usize, bytes: &[u8], now_us: u64) {
        if self.legs.get(leg).map_or(true, |l| l.closed) {
            // Straggler feedback from a departed viewer must not trigger
            // repairs or upstream escalation.
            return;
        }
        let Ok(packets) = decode_compound(bytes) else {
            return;
        };
        for pkt in packets {
            match pkt {
                RtcpPacket::Nack(nack) => {
                    let seqs = nack.lost_seqs();
                    self.handle_leg_nack(leg, &seqs, now_us);
                }
                RtcpPacket::Pli(_) => self.handle_leg_pli(leg, now_us),
                RtcpPacket::ReceiverReport(rr) => {
                    // The leg's loss reports drive its tier estimator, the
                    // same §7 signal the AH's own controller consumes.
                    if let Some(t) = self.legs[leg].tier.as_mut() {
                        if let Some(block) = rr.reports.first() {
                            t.rate.on_report(block.fraction_lost, now_us);
                        }
                    }
                }
                _ => {}
            }
        }
    }

    fn handle_leg_nack(&mut self, leg_idx: usize, lost: &[u16], now_us: u64) {
        self.stats.nacks_received += 1;
        if let Some(t) = self.legs[leg_idx].tier.as_mut() {
            t.rate.on_nack(lost.len(), now_us);
        }
        let actor = Self::leg_actor(leg_idx);
        self.rec(
            now_us,
            actor,
            EventKind::NackReceived,
            lost.len() as u64,
            lost.first().copied().map_or(0, u64::from),
        );
        let mut absorbed = 0u64;
        let mut first_absorbed = None;
        let mut escalate: Vec<u16> = Vec::new();
        let mut needs_catchup = false;
        for &leg_seq in lost {
            let leg = &mut self.legs[leg_idx];
            let up_seq = match leg.out.answer(&mut leg.tap, leg_seq, now_us) {
                // Minted here (catch-up, tier re-encode): the leg resent it.
                Verdict::Resend(_) => {
                    absorbed += 1;
                    first_absorbed.get_or_insert(leg_seq);
                    continue;
                }
                Verdict::Upstream(up_seq) => up_seq,
                // Too old to repair packet-by-packet.
                Verdict::Forgotten => {
                    needs_catchup = true;
                    continue;
                }
                // Never sent on this leg: nothing to repair. (A leg is
                // never a group wire, so nothing is `Repeated`.)
                Verdict::NeverSent | Verdict::Repeated => {
                    self.stats.nacks_unsent_seqs += 1;
                    continue;
                }
            };
            // Suppression window: another leg just NACKed this sequence —
            // serve the retained copy without a second cache lookup.
            let copy = (self.recent_retx.get(&up_seq))
                .filter(|(at, _)| now_us.saturating_sub(*at) <= REPEAT_WINDOW_US);
            if let Some((_, pkt)) = copy {
                leg.out.resend_as(&mut leg.tap, now_us, pkt, leg_seq);
                self.stats.nacks_suppressed_seqs += 1;
            } else if let Some(pkt) = self.cache.lookup(up_seq) {
                let len = pkt.wire_len() as u64;
                self.recent_retx.insert(up_seq, (now_us, pkt.clone()));
                leg.out.resend_as(&mut leg.tap, now_us, pkt, leg_seq);
                self.rec(
                    now_us,
                    actor,
                    EventKind::RelayCacheHit,
                    u64::from(up_seq),
                    len,
                );
            } else {
                self.rec(
                    now_us,
                    actor,
                    EventKind::RelayCacheMiss,
                    u64::from(up_seq),
                    0,
                );
                escalate.push(up_seq);
                continue;
            }
            absorbed += 1;
            first_absorbed.get_or_insert(leg_seq);
        }
        if absorbed > 0 {
            self.stats.nacks_absorbed_seqs += absorbed;
            self.rec(
                now_us,
                actor,
                EventKind::RelayNackAbsorbed,
                absorbed,
                first_absorbed.map_or(0, u64::from),
            );
        }
        escalate.retain(|s| !self.recent_escalated.contains_key(s));
        if !escalate.is_empty() {
            for &s in &escalate {
                self.recent_escalated.insert(s, now_us);
            }
            self.stats.nacks_escalated += 1;
            self.stats.seqs_escalated += escalate.len() as u64;
            self.rec(
                now_us,
                actor,
                EventKind::RelayNackEscalated,
                escalate.len() as u64,
                u64::from(escalate[0]),
            );
            self.rx.queue_rtcp(RtcpPacket::Nack(GenericNack::from_seqs(
                self.rx.ssrc(),
                self.media.ssrc,
                &escalate,
            )));
        }
        if needs_catchup {
            self.catch_up(leg_idx, now_us);
        }
    }

    fn handle_leg_pli(&mut self, leg_idx: usize, now_us: u64) {
        self.stats.plis_received += 1;
        self.rec(
            now_us,
            Self::leg_actor(leg_idx),
            EventKind::PliReceived,
            self.stats.plis_received,
            0,
        );
        self.catch_up(leg_idx, now_us);
    }

    /// Bring a leg that lost its state back: a catch-up burst from the
    /// mirror (at most one per PLI interval) once synced, else a coalesced
    /// upstream PLI.
    fn catch_up(&mut self, leg_idx: usize, now_us: u64) {
        if self.mirror.synced() && self.cfg.catchup_enabled {
            let due = self.legs[leg_idx]
                .last_catchup_us
                .map_or(true, |at| now_us.saturating_sub(at) >= PLI_MIN_INTERVAL_US);
            if due {
                self.serve_catchup(leg_idx, now_us);
            }
            self.stats.plis_coalesced += 1;
            self.rec(
                now_us,
                ACTOR_RELAY,
                EventKind::RelayPliCoalesced,
                0,
                leg_idx as u64,
            );
        } else {
            self.maybe_upstream_pli(now_us, leg_idx);
        }
    }

    /// Send an upstream PLI unless one went out within the refresh
    /// interval; record whether it was coalesced.
    fn maybe_upstream_pli(&mut self, now_us: u64, leg_idx: usize) {
        let due = self
            .last_upstream_pli_us
            .map_or(true, |at| now_us.saturating_sub(at) >= PLI_MIN_INTERVAL_US);
        if due {
            self.push_upstream_pli(now_us);
            self.rec(
                now_us,
                ACTOR_RELAY,
                EventKind::RelayPliCoalesced,
                1,
                leg_idx as u64,
            );
        } else {
            self.stats.plis_coalesced += 1;
            self.rec(
                now_us,
                ACTOR_RELAY,
                EventKind::RelayPliCoalesced,
                0,
                leg_idx as u64,
            );
        }
    }

    /// Synthesize a full catch-up burst for one leg from the mirror:
    /// WindowManagerInfo, one full-window RegionUpdate per window in
    /// z-order, and the last pointer message. The upstream is not involved.
    fn serve_catchup(&mut self, leg_idx: usize, now_us: u64) {
        let mut msgs: Vec<RemotingMessage> = Vec::with_capacity(self.mirror.z_order().len() + 2);
        msgs.push(RemotingMessage::WindowManagerInfo(WindowManagerInfo {
            windows: self
                .mirror
                .stacked()
                .map(|(id, w)| WindowRecord {
                    window_id: WindowId(id),
                    group_id: w.group(),
                    left: w.ah_rect().left,
                    top: w.ah_rect().top,
                    width: w.ah_rect().width,
                    height: w.ah_rect().height,
                })
                .collect(),
        }));
        let png = AnyCodec::new(CodecKind::Png);
        for (id, w) in self.mirror.stacked() {
            msgs.push(RemotingMessage::RegionUpdate(RegionUpdate {
                window_id: WindowId(id),
                payload_type: default_pt::PNG,
                left: w.ah_rect().left,
                top: w.ah_rect().top,
                payload: png.encode(w.content()).into(),
            }));
        }
        if let Some(mp) = &self.pointer {
            msgs.push(RemotingMessage::MousePointerInfo(mp.clone()));
        }

        let media = self.media;
        let leg = &mut self.legs[leg_idx];
        // Everything still queued is already reflected in the snapshot;
        // delivering it after the burst would double-apply moves.
        leg.queue = FreshQueue::new();
        // A fresh burst obsoletes any previous one.
        leg.out.forget_kept();
        // The burst IS the refresh: bypass the pacer.
        let mut burst = Burst::default();
        for msg in &msgs {
            let _ = (leg.out).send_message(&mut leg.tap, now_us, msg, MTU, media, &mut burst);
        }
        leg.last_catchup_us = Some(now_us);
        self.stats.catchups_served += 1;
        self.stats.catchup_bytes += burst.bytes;
        self.rec(
            now_us,
            Self::leg_actor(leg_idx),
            EventKind::RelayCatchupServed,
            burst.packets,
            burst.bytes,
        );
    }

    /// Take outbound upstream RTCP compound bytes.
    pub fn take_upstream_rtcp(&mut self) -> Option<Vec<u8>> {
        self.rx.take_rtcp()
    }

    /// Layered-quality snapshot (`adshare-relay-tier-stats/v1`); legs is
    /// empty when layers are disabled.
    pub fn tier_stats(&mut self, now_us: u64) -> TierStats {
        TierStats {
            relay_id: self.id as usize,
            upstream_tier: self.upstream_tier.as_gauge() as u8,
            tier_requests: self.tier_requests_sent,
            legs: self
                .legs
                .iter_mut()
                .enumerate()
                .filter_map(|(i, leg)| {
                    leg.tier.as_mut().map(|t| LegTierStats {
                        leg: i,
                        tier: t.selector.active().as_gauge() as u8,
                        switches: t.selector.switches(),
                        downgrades: t.selector.downgrades(),
                        verbatim_msgs: t.verbatim_msgs,
                        synth_msgs: t.synth_msgs,
                        synth_bytes: t.synth_bytes,
                        est_rate_bps: t.rate.rate_bps(now_us).unwrap_or(0),
                    })
                })
                .collect(),
        }
    }

    /// Relay stats as a `adshare-relay-stats/v1` JSON document.
    pub fn stats_json(&self) -> String {
        let s = &self.stats();
        let (hits, misses) = self.cache.stats();
        adshare_obs::json::object(|o| {
            o.str("schema", RELAY_STATS_SCHEMA)
                .u64("legs", self.legs.len() as u64)
                .bool("synced", self.mirror.synced())
                .object("forwarded", |o| {
                    o.u64("msgs", s.forwarded_msgs)
                        .u64("packets", s.forwarded_packets)
                        .u64("bytes", s.forwarded_bytes)
                        .u64("superseded", s.superseded_msgs);
                })
                .object("cache", |o| {
                    o.u64("hits", hits)
                        .u64("misses", misses)
                        .u64("packets", self.cache.len() as u64)
                        .u64("bytes", self.cache.bytes() as u64);
                })
                .object("nack", |o| {
                    o.u64("received", s.nacks_received)
                        .u64("absorbed_seqs", s.nacks_absorbed_seqs)
                        .u64("suppressed_seqs", s.nacks_suppressed_seqs)
                        .u64("escalated_msgs", s.nacks_escalated)
                        .u64("escalated_seqs", s.seqs_escalated)
                        .u64("upstream_gap_nacks", s.upstream_gap_nacks);
                })
                .object("pli", |o| {
                    o.u64("received", s.plis_received)
                        .u64("upstream", s.plis_upstream)
                        .u64("coalesced", s.plis_coalesced);
                })
                .object("catchup", |o| {
                    o.u64("served", s.catchups_served)
                        .u64("bytes", s.catchup_bytes);
                });
        })
    }
}

/// The seam the simulated world steps a relay through (DESIGN §5.3).
impl Relay for RelayNode {
    fn attach_capture(&mut self, capture: CaptureHandle) {
        RelayNode::attach_capture(self, capture);
    }

    fn serve(&mut self, from_parent: Delivery, now_us: u64) {
        // A relay subscribes over UDP: its parent delivers datagrams.
        if let Delivery::Datagrams(datagrams) = from_parent {
            for dg in datagrams {
                self.ingest_upstream_bytes(dg, now_us);
            }
        }
        self.step(now_us);
    }

    fn take_rtcp_into(&mut self, out: &mut Vec<u8>) -> bool {
        self.rx.take_rtcp_into(out)
    }

    fn deliver(&mut self, leg: usize, now_us: u64) -> Delivery {
        if self.legs[leg].out.wire.is_stream() {
            Delivery::Stream(self.poll_leg_stream(leg, now_us))
        } else {
            Delivery::Datagrams(self.poll_leg_bytes(leg, now_us))
        }
    }

    fn handle_leg_rtcp(&mut self, leg: usize, bytes: &[u8], now_us: u64) {
        RelayNode::handle_leg_rtcp(self, leg, bytes, now_us);
    }

    fn close_leg(&mut self, leg: usize) {
        RelayNode::close_leg(self, leg);
    }

    fn next_event_us(&self) -> Option<u64> {
        self.legs
            .iter()
            .filter_map(|l| l.out.wire.next_event_us())
            .min()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use adshare_codec::image::Image;
    use adshare_remoting::packetizer::{RemotingDepacketizer, RemotingPacketizer};
    use adshare_rtp::rtcp::{encode_compound, PictureLossIndication, ReceiverReport};
    use adshare_rtp::session::RtpSender;
    use adshare_rtp::RtpHeader;
    use adshare_session::{Layout, Participant};
    use bytes::Bytes;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn window_msgs(fill: [u8; 4]) -> Vec<RemotingMessage> {
        let img = Image::filled(64, 48, fill).unwrap();
        let png = AnyCodec::new(CodecKind::Png);
        vec![
            RemotingMessage::WindowManagerInfo(WindowManagerInfo {
                windows: vec![WindowRecord {
                    window_id: WindowId(1),
                    group_id: 0,
                    left: 10,
                    top: 20,
                    width: 64,
                    height: 48,
                }],
            }),
            RemotingMessage::RegionUpdate(RegionUpdate {
                window_id: WindowId(1),
                payload_type: default_pt::PNG,
                left: 10,
                top: 20,
                payload: Bytes::from(png.encode(&img)),
            }),
        ]
    }

    fn feed_msgs(relay: &mut RelayNode, pktzr: &mut RemotingPacketizer, msgs: &[RemotingMessage]) {
        for msg in msgs {
            for pkt in pktzr.packetize(msg, 0).unwrap() {
                relay.ingest_upstream(&pkt.encode(), 0);
            }
        }
    }

    fn packetizer() -> RemotingPacketizer {
        let mut rng = StdRng::seed_from_u64(7);
        RemotingPacketizer::new(RtpSender::new(0xAAAA, 99, &mut rng), 1200)
    }

    #[test]
    fn lossless_leg_forwards_byte_identical_rtp() {
        let mut relay = RelayNode::new(RelayConfig::default(), 0);
        let leg = relay.add_leg_raw(None);
        let mut pktzr = packetizer();
        let mut sent: Vec<Vec<u8>> = Vec::new();
        for msg in window_msgs([10, 20, 30, 255]) {
            for pkt in pktzr.packetize(&msg, 0).unwrap() {
                let bytes = pkt.encode();
                relay.ingest_upstream(&bytes, 0);
                sent.push(bytes);
            }
        }
        relay.step(0);
        let forwarded = relay.poll_leg(leg, 0);
        assert_eq!(
            forwarded, sent,
            "identity seq rewrite must be bytewise lossless"
        );
        assert!(relay.synced());
    }

    #[test]
    fn rtcp_forwarded_in_stream_order() {
        let mut relay = RelayNode::new(RelayConfig::default(), 0);
        let leg = relay.add_leg_raw(None);
        let mut pktzr = packetizer();
        let msgs = window_msgs([1, 2, 3, 255]);
        let mut sent = Vec::new();
        for pkt in pktzr.packetize(&msgs[0], 0).unwrap() {
            let b = pkt.encode();
            relay.ingest_upstream(&b, 0);
            sent.push(b);
        }
        // A sender report lands between the two messages.
        let sr = encode_compound(&[RtcpPacket::ReceiverReport(ReceiverReport {
            ssrc: 1,
            reports: vec![],
        })]);
        relay.ingest_upstream(&sr, 0);
        sent.push(sr);
        for pkt in pktzr.packetize(&msgs[1], 0).unwrap() {
            let b = pkt.encode();
            relay.ingest_upstream(&b, 0);
            sent.push(b);
        }
        relay.step(0);
        assert_eq!(relay.poll_leg(leg, 0), sent, "RTCP keeps its interleaving");
    }

    #[test]
    fn nack_absorbed_from_cache_and_suppressed_for_second_leg() {
        let mut relay = RelayNode::new(RelayConfig::default(), 0);
        let leg_a = relay.add_leg_raw(None);
        let leg_b = relay.add_leg_raw(None);
        let mut pktzr = packetizer();
        feed_msgs(&mut relay, &mut pktzr, &window_msgs([9, 9, 9, 255]));
        relay.step(0);
        let out_a = relay.poll_leg(leg_a, 0);
        relay.poll_leg(leg_b, 0);
        assert!(out_a.len() >= 2);
        // Both legs lost the same (identity-rewritten) sequence.
        let lost = RtpPacket::decode(&out_a[1]).unwrap().header.sequence;
        let nack = encode_compound(&[RtcpPacket::Nack(GenericNack::from_seqs(1, 2, &[lost]))]);
        relay.handle_leg_rtcp(leg_a, &nack, 1_000);
        relay.handle_leg_rtcp(leg_b, &nack, 2_000);
        assert_eq!(relay.cache_stats(), (1, 0), "one lookup serves both legs");
        let s = relay.stats();
        assert_eq!(s.nacks_absorbed_seqs, 2);
        assert_eq!(s.nacks_suppressed_seqs, 1);
        assert_eq!(s.upstream_nacks(), 0);
        let repaired_a = relay.poll_leg(leg_a, 2_000);
        assert_eq!(repaired_a.len(), 1);
        assert_eq!(
            repaired_a[0], out_a[1],
            "retransmission is the original packet"
        );
        assert_eq!(relay.poll_leg(leg_b, 2_000).len(), 1);
    }

    #[test]
    fn cache_miss_escalates_upstream_once() {
        let mut relay = RelayNode::new(
            RelayConfig {
                cache_max_packets: 1,
                ..RelayConfig::default()
            },
            0,
        );
        let leg = relay.add_leg_raw(None);
        let mut pktzr = packetizer();
        feed_msgs(&mut relay, &mut pktzr, &window_msgs([4, 4, 4, 255]));
        relay.step(0);
        let out = relay.poll_leg(leg, 0);
        let evicted = RtpPacket::decode(&out[0]).unwrap().header.sequence;
        let nack = encode_compound(&[RtcpPacket::Nack(GenericNack::from_seqs(1, 2, &[evicted]))]);
        relay.handle_leg_rtcp(leg, &nack, 1_000);
        relay.handle_leg_rtcp(leg, &nack, 2_000); // deduped within the window
        let s = relay.stats();
        assert_eq!(s.nacks_escalated, 1, "second escalation suppressed");
        assert_eq!(s.seqs_escalated, 1);
        let upstream = relay.take_upstream_rtcp().expect("escalated NACK pending");
        let pkts = decode_compound(&upstream).unwrap();
        assert!(pkts
            .iter()
            .any(|p| matches!(p, RtcpPacket::Nack(n) if n.lost_seqs() == vec![evicted])));
    }

    #[test]
    fn late_joiner_catches_up_from_shadow_without_upstream_pli() {
        let mut relay = RelayNode::new(RelayConfig::default(), 0);
        relay.subscribe(0);
        relay.take_upstream_rtcp(); // drain the join PLI
        let mut pktzr = packetizer();
        feed_msgs(&mut relay, &mut pktzr, &window_msgs([50, 60, 70, 255]));
        relay.step(0);
        let plis_before = relay.stats().plis_upstream;

        let leg = relay.add_leg_raw(None);
        let pli = encode_compound(&[RtcpPacket::Pli(PictureLossIndication {
            sender_ssrc: 1,
            media_ssrc: 2,
        })]);
        relay.handle_leg_rtcp(leg, &pli, 10_000);
        assert_eq!(relay.stats().plis_upstream, plis_before, "served locally");
        assert_eq!(relay.stats().catchups_served, 1);

        let mut joiner = Participant::new(7, Layout::Original, true, 3);
        for dg in relay.poll_leg(leg, 10_000) {
            joiner.handle_datagram(&dg, 0);
        }
        assert!(joiner.synced());
        let content = joiner.window_content(1).expect("window replicated");
        assert_eq!(content.width(), 64);
        let expected = Image::filled(64, 48, [50, 60, 70, 255]).unwrap();
        assert_eq!(content, &expected, "pixel-identical from the shadow");
    }

    #[test]
    fn second_pli_within_interval_is_coalesced_upstream() {
        let mut relay = RelayNode::new(
            RelayConfig {
                catchup_enabled: false,
                ..RelayConfig::default()
            },
            0,
        );
        let leg = relay.add_leg_raw(None);
        relay.subscribe(0);
        let pli = encode_compound(&[RtcpPacket::Pli(PictureLossIndication {
            sender_ssrc: 1,
            media_ssrc: 2,
        })]);
        relay.handle_leg_rtcp(leg, &pli, 1_000);
        relay.handle_leg_rtcp(leg, &pli, 2_000);
        let s = relay.stats();
        assert_eq!(s.plis_received, 2);
        assert_eq!(s.plis_upstream, 1, "join PLI covers the interval");
        assert_eq!(s.plis_coalesced, 2);
    }

    #[test]
    fn supersede_never_crosses_a_move_barrier() {
        let mut relay = RelayNode::new(RelayConfig::default(), 0);
        // Throttled leg so units stay queued across several messages.
        let leg = relay.add_leg_raw(Some(8_000));
        let mut pktzr = packetizer();
        let png = AnyCodec::new(CodecKind::Png);
        let region = |fill: u8| {
            RemotingMessage::RegionUpdate(RegionUpdate {
                window_id: WindowId(1),
                payload_type: default_pt::PNG,
                left: 10,
                top: 20,
                payload: Bytes::from(
                    png.encode(&Image::filled(64, 48, [fill, 1, 1, 255]).unwrap()),
                ),
            })
        };
        let mut msgs = window_msgs([1, 1, 1, 255]);
        msgs.push(RemotingMessage::MoveRectangle(
            adshare_remoting::MoveRectangle {
                window_id: WindowId(1),
                src_left: 10,
                src_top: 20,
                width: 8,
                height: 8,
                dst_left: 30,
                dst_top: 30,
            },
        ));
        msgs.push(region(2));
        msgs.push(region(3));
        // Spread arrivals over time: supersede only drops strictly older
        // entries.
        for (i, msg) in msgs.iter().enumerate() {
            let now = i as u64 * 1_000;
            for pkt in pktzr.packetize(msg, 0).unwrap() {
                relay.ingest_upstream(&pkt.encode(), now);
            }
        }
        // region(3) supersedes region(2) (same window, same epoch) but must
        // not reach back past the MoveRectangle to the original update.
        assert_eq!(relay.stats().superseded_msgs, 1);
        // WMI + original region + move + region(3) remain queued.
        assert_eq!(relay.legs[leg].queue.len(), 4);
        assert_eq!(relay.legs[leg].queue.superseded(), 1);
    }

    #[test]
    fn seq_reuse_after_wrap_does_not_replay_stale_catchup() {
        // Regression: catch-up packets are kept per leg seq outside the
        // shared cache. When the 16-bit leg sequence space wraps around to
        // a number an old burst once used, a NACK for that seq used to be
        // answered with the stale synthesized packet instead of the live
        // stream's — replaying old pixels over fresh ones.
        let mut relay = RelayNode::new(RelayConfig::default(), 0);
        relay.subscribe(0);
        let mut pktzr = packetizer();
        feed_msgs(&mut relay, &mut pktzr, &window_msgs([10, 20, 30, 255]));
        relay.step(0);
        let leg = relay.add_leg_raw(None);
        let pli = encode_compound(&[RtcpPacket::Pli(PictureLossIndication {
            sender_ssrc: 1,
            media_ssrc: 2,
        })]);
        relay.handle_leg_rtcp(leg, &pli, 1_000);
        assert_eq!(relay.stats().catchups_served, 1);
        let reused = relay.poll_leg(leg, 1_000)[0][2..4].to_vec();
        let reused = u16::from_be_bytes([reused[0], reused[1]]);

        // Wrap the leg's sequence space: forward filler until the live
        // stream's next packet lands on a seq the catch-up burst occupied.
        let filler = RtpPacket::new(RtpHeader::new(99, 0, 0, 1), vec![0u8; 4]);
        let l = &mut relay.legs[leg];
        while l.out.last_sent() != Some(reused.wrapping_sub(1)) {
            let filler = std::slice::from_ref(&filler);
            l.out
                .forward(&mut l.tap, 1_500, filler, &mut Burst::default());
            l.out.wire.poll(0, 1_500);
        }
        let png = AnyCodec::new(CodecKind::Png);
        let fresh_img = Image::filled(64, 48, [200, 10, 10, 255]).unwrap();
        feed_msgs(
            &mut relay,
            &mut pktzr,
            &[RemotingMessage::RegionUpdate(RegionUpdate {
                window_id: WindowId(1),
                payload_type: default_pt::PNG,
                left: 10,
                top: 20,
                payload: Bytes::from(png.encode(&fresh_img)),
            })],
        );
        relay.step(2_000);
        let flushed = relay.poll_leg(leg, 2_000);
        let fresh_wire = flushed
            .iter()
            .find(|dg| RtpPacket::decode(dg).ok().map(|p| p.header.sequence) == Some(reused))
            .expect("live stream reuses the seq")
            .clone();

        let nack = encode_compound(&[RtcpPacket::Nack(GenericNack::from_seqs(1, 2, &[reused]))]);
        relay.handle_leg_rtcp(leg, &nack, 3_000);
        let repaired = relay.poll_leg(leg, 3_000);
        assert_eq!(repaired.len(), 1);
        assert_eq!(
            repaired[0], fresh_wire,
            "NACK must be answered with the live packet, not the stale catch-up"
        );
    }

    #[test]
    fn nack_for_unsent_seq_buys_nothing_and_a_forgotten_one_is_no_pli() {
        let mut relay = RelayNode::new(RelayConfig::default(), 0);
        relay.subscribe(0);
        let mut pktzr = packetizer();
        feed_msgs(&mut relay, &mut pktzr, &window_msgs([10, 20, 30, 255]));
        relay.step(0);
        let leg = relay.add_leg_raw(None);
        let pli = encode_compound(&[RtcpPacket::Pli(PictureLossIndication {
            sender_ssrc: 1,
            media_ssrc: 2,
        })]);
        let nack =
            |seq: u16| encode_compound(&[RtcpPacket::Nack(GenericNack::from_seqs(1, 2, &[seq]))]);
        relay.handle_leg_rtcp(leg, &pli, 1_000);
        let first = RtpPacket::decode(&relay.poll_leg(leg, 1_000)[0]).unwrap();
        assert_eq!(relay.stats().catchups_served, 1);

        // Sequences this leg never sent, each past the PLI interval.
        for i in 0..4u16 {
            let now = 600_000 * (u64::from(i) + 1);
            relay.handle_leg_rtcp(leg, &nack(0x7000 + i), now);
            assert!(relay.poll_leg(leg, now).is_empty(), "nothing to repair");
        }
        let s = relay.stats();
        assert_eq!((s.catchups_served, s.plis_received), (1, 1));
        assert_eq!(s.nacks_unsent_seqs, 4);

        // A second burst obsoletes the first: a NACK for the first is
        // repaired by a catch-up, which is not a PLI the leg sent.
        relay.handle_leg_rtcp(leg, &pli, 3_000_000);
        relay.poll_leg(leg, 3_000_000);
        relay.handle_leg_rtcp(leg, &nack(first.header.sequence), 3_600_000);
        assert!(!relay.poll_leg(leg, 3_600_000).is_empty());
        let s = relay.stats();
        assert_eq!((s.catchups_served, s.plis_received), (3, 2));
    }

    #[test]
    fn closed_leg_stops_fanout_and_ignores_feedback() {
        let mut relay = RelayNode::new(RelayConfig::default(), 0);
        let keep = relay.add_leg_raw(None);
        let gone = relay.add_leg_raw(None);
        let mut pktzr = packetizer();
        feed_msgs(&mut relay, &mut pktzr, &window_msgs([3, 3, 3, 255]));
        relay.step(0);
        let before = relay.poll_leg(gone, 0);
        assert!(!before.is_empty(), "open leg received the fan-out");
        let lost = RtpPacket::decode(&before[0]).unwrap().header.sequence;

        relay.close_leg(gone);
        assert!(relay.leg_closed(gone));
        assert_eq!(relay.active_leg_count(), 1);
        relay.close_leg(gone); // idempotent

        // New traffic reaches only the surviving leg.
        feed_msgs(&mut relay, &mut pktzr, &window_msgs([4, 4, 4, 255]));
        relay.step(1_000);
        assert!(relay.poll_leg(gone, 1_000).is_empty());
        assert!(!relay.poll_leg(keep, 1_000).is_empty());

        // Straggler feedback from the departed viewer is inert: no repair,
        // no escalation, no catch-up.
        let stats_before = relay.stats();
        let nack = encode_compound(&[RtcpPacket::Nack(GenericNack::from_seqs(1, 2, &[lost]))]);
        relay.handle_leg_rtcp(gone, &nack, 2_000);
        let pli = encode_compound(&[RtcpPacket::Pli(PictureLossIndication {
            sender_ssrc: 1,
            media_ssrc: 2,
        })]);
        relay.handle_leg_rtcp(gone, &pli, 2_000);
        let stats_after = relay.stats();
        assert_eq!(stats_after.nacks_received, stats_before.nacks_received);
        assert_eq!(stats_after.plis_received, stats_before.plis_received);
        assert_eq!(stats_after.catchups_served, stats_before.catchups_served);
        assert!(relay.poll_leg(gone, 3_000).is_empty());
    }

    // ---- layered quality ----

    use adshare_layers::LayersConfig;
    use adshare_rate::RateConfig;

    /// Layers config whose estimator starts below the lossless threshold:
    /// the first tier tick commits a downgrade to Balanced.
    fn low_rate_layers() -> LayersConfig {
        let base = LayersConfig::default();
        LayersConfig {
            rate: RateConfig {
                initial_bps: 600_000,
                ..base.rate
            },
            ..base
        }
    }

    fn layered_cfg(layers: LayersConfig) -> RelayConfig {
        RelayConfig {
            layers: Some(layers),
            ..RelayConfig::default()
        }
    }

    #[test]
    fn lossless_layered_leg_digest_matches_no_layers_baseline() {
        let mut baseline = RelayNode::new(RelayConfig::default(), 0);
        // Default layers estimator starts at 8 Mb/s: the leg stays
        // lossless, so the wire must be bit-identical to layers-off.
        let mut layered = RelayNode::new(layered_cfg(LayersConfig::default()), 0);
        let bl = baseline.add_leg_raw(None);
        let ll = layered.add_leg_raw(None);
        for step in 0u64..4 {
            let mut pktzr_a = packetizer();
            let mut pktzr_b = packetizer();
            let msgs = window_msgs([step as u8, 20, 30, 255]);
            feed_msgs(&mut baseline, &mut pktzr_a, &msgs);
            feed_msgs(&mut layered, &mut pktzr_b, &msgs);
            let now = step * 10_000;
            baseline.step(now);
            layered.step(now);
        }
        assert_eq!(layered.leg_tier(ll), Some(QualityTier::Lossless));
        assert_eq!(
            baseline.leg_wire_digest(bl),
            layered.leg_wire_digest(ll),
            "lossless layered leg must be byte-identical to baseline"
        );
        let b = baseline.poll_leg(bl, 40_000);
        let l = layered.poll_leg(ll, 40_000);
        assert_eq!(b, l);
    }

    #[test]
    fn starved_leg_downgrades_and_receives_synth_rendition() {
        let mut relay = RelayNode::new(layered_cfg(low_rate_layers()), 0);
        let leg = relay.add_leg_raw(None);
        let mut pktzr = packetizer();
        feed_msgs(&mut relay, &mut pktzr, &window_msgs([10, 20, 30, 255]));
        relay.step(0);
        assert_eq!(relay.leg_tier(leg), Some(QualityTier::Balanced));
        // A fresh region after the downgrade must arrive re-encoded.
        let img = Image::filled(64, 48, [200, 40, 90, 255]).unwrap();
        let png = AnyCodec::new(CodecKind::Png);
        feed_msgs(
            &mut relay,
            &mut pktzr,
            &[RemotingMessage::RegionUpdate(RegionUpdate {
                window_id: WindowId(1),
                payload_type: default_pt::PNG,
                left: 10,
                top: 20,
                payload: Bytes::from(png.encode(&img)),
            })],
        );
        let mut depkt = RemotingDepacketizer::new();
        let mut got_dct = false;
        for step in 1u64..200 {
            let now = step * 10_000;
            relay.step(now);
            for dg in relay.poll_leg(leg, now) {
                let Ok(pkt) = RtpPacket::decode(&dg) else {
                    continue;
                };
                if let Ok(Some(RemotingMessage::RegionUpdate(ru))) = depkt.feed(&pkt) {
                    if ru.payload_type == default_pt::DCT {
                        got_dct = true;
                    }
                }
            }
        }
        assert!(got_dct, "starved leg should receive a DCT re-encode");
        let stats = relay.tier_stats(2_000_000);
        assert_eq!(stats.legs.len(), 1);
        assert!(stats.legs[0].synth_msgs >= 1);
        assert!(stats.legs[0].downgrades >= 1);
    }

    #[test]
    fn subtree_degradation_requests_lower_upstream_tier() {
        let mut layers = low_rate_layers();
        layers.subscribe_upstream = true;
        let mut relay = RelayNode::new(layered_cfg(layers), 0);
        relay.add_leg_raw(None);
        let mut pktzr = packetizer();
        feed_msgs(&mut relay, &mut pktzr, &window_msgs([1, 2, 3, 255]));
        let mut requested = None;
        for step in 0u64..120 {
            let now = step * 10_000;
            relay.step(now);
            if let Some(bytes) = relay.take_upstream_rtcp() {
                for pkt in decode_compound(&bytes).unwrap() {
                    if let Some(req) = TierRequest::from_rtcp(&pkt) {
                        requested = Some(req.tier);
                    }
                }
            }
        }
        assert_eq!(requested, Some(QualityTier::Balanced));
        assert_eq!(relay.upstream_tier(), QualityTier::Balanced);
        assert!(relay.tier_stats(0).tier_requests >= 1);
    }

    #[test]
    fn recovery_upgrades_to_lossless_and_serves_catchup() {
        let mut relay = RelayNode::new(layered_cfg(low_rate_layers()), 0);
        let leg = relay.add_leg_raw(None);
        let mut pktzr = packetizer();
        feed_msgs(&mut relay, &mut pktzr, &window_msgs([9, 9, 9, 255]));
        relay.step(0);
        assert_eq!(relay.leg_tier(leg), Some(QualityTier::Balanced));
        let before = relay.stats().catchups_served;
        // Loss-free time accrues additive increase; eventually the
        // estimate re-crosses the lossless threshold (with hysteresis)
        // and the upgrade converges the leg with a catch-up burst.
        let mut now = 0;
        for step in 1u64..1200 {
            now = step * 10_000;
            relay.step(now);
            relay.poll_leg(leg, now);
        }
        assert_eq!(relay.leg_tier(leg), Some(QualityTier::Lossless));
        assert!(
            relay.stats().catchups_served > before,
            "upgrade to lossless must serve a repair burst"
        );
        let stats = relay.tier_stats(now);
        assert!(stats.legs[0].switches >= 2);
    }

    #[test]
    fn tcp_leg_forwards_framed_stream() {
        let mut relay = RelayNode::new(RelayConfig::default(), 0);
        let leg = relay.add_leg_tcp(
            adshare_netsim::tcp::TcpConfig {
                rate_bps: 10_000_000,
                delay_us: 1_000,
                send_buf: 256 * 1024,
            },
            None,
        );
        let mut pktzr = packetizer();
        feed_msgs(&mut relay, &mut pktzr, &window_msgs([5, 6, 7, 255]));
        relay.step(0);
        let mut stream = Vec::new();
        for step in 1u64..200 {
            for chunk in relay.poll_leg(leg, step * 10_000) {
                stream.extend_from_slice(&chunk);
            }
        }
        assert!(!stream.is_empty());
        let mut deframer = adshare_rtp::framing::Deframer::new(65_535);
        deframer.push(&stream);
        let mut frames = 0;
        while let Ok(Some(frame)) = deframer.pop() {
            assert!(RtpPacket::decode(&frame).is_ok() || is_rtcp(&frame));
            frames += 1;
        }
        assert!(frames >= 2, "expected framed RTP on the TCP leg");
    }

    #[test]
    fn nack_for_synth_seq_is_repaired_locally() {
        let mut relay = RelayNode::new(layered_cfg(low_rate_layers()), 0);
        let leg = relay.add_leg_raw(None);
        let mut pktzr = packetizer();
        feed_msgs(&mut relay, &mut pktzr, &window_msgs([10, 20, 30, 255]));
        relay.step(0);
        let img = Image::filled(64, 48, [1, 2, 3, 255]).unwrap();
        let png = AnyCodec::new(CodecKind::Png);
        feed_msgs(
            &mut relay,
            &mut pktzr,
            &[RemotingMessage::RegionUpdate(RegionUpdate {
                window_id: WindowId(1),
                payload_type: default_pt::PNG,
                left: 10,
                top: 20,
                payload: Bytes::from(png.encode(&img)),
            })],
        );
        let mut synth_seqs = Vec::new();
        for step in 1u64..200 {
            let now = step * 10_000;
            relay.step(now);
            for dg in relay.poll_leg(leg, now) {
                if let Ok(pkt) = RtpPacket::decode(&dg) {
                    synth_seqs.push(pkt.header.sequence);
                }
            }
        }
        let seq = *synth_seqs.last().expect("leg saw packets");
        let before = relay.stats();
        let nack = encode_compound(&[RtcpPacket::Nack(GenericNack::from_seqs(
            0x1111,
            0x2222,
            &[seq],
        ))]);
        relay.handle_leg_rtcp(leg, &nack, 2_100_000);
        let after = relay.stats();
        assert!(after.nacks_absorbed_seqs > before.nacks_absorbed_seqs);
        assert_eq!(after.nacks_escalated, before.nacks_escalated);
        assert!(!relay.poll_leg(leg, 2_100_000).is_empty());
    }
}
