//! The Application Host: capture → damage → encode → packetize → pace.

use std::collections::HashMap;

use adshare_bfcp::{BfcpMessage, FloorChair, HidStatus};
use adshare_capture::{
    CaptureHandle, Direction as CapDirection, StreamKind as CapStreamKind,
    Transport as CapTransport,
};
use adshare_codec::codec::{AnyCodec, EncodeOptions};
use adshare_codec::{Codec, CodecKind, CodecRegistry, Image, Rect};
use adshare_encode::{EncodePipeline, TileJob};
use adshare_layers::TierRequest;
use adshare_netsim::multicast::MulticastGroup;
use adshare_netsim::tcp::{TcpConfig, TcpLink};
use adshare_netsim::time::us_to_ticks;
use adshare_netsim::udp::{LinkConfig, UdpChannel};
use adshare_obs::{
    Counter, EventKind, FrameTrace, Histogram, Obs, Registry, ACTOR_AH, RATE_CAUSE_BACKLOG,
    RATE_CAUSE_LOSS_REPORT, RATE_CAUSE_NACK_BURST,
};
use adshare_rate::{FreshQueue, QualityTier, RateController};
use adshare_remoting::fragment::fragment;
use adshare_remoting::hip::HipMessage;
use adshare_remoting::keycodes;
use adshare_remoting::message::{
    MousePointerInfo, MoveRectangle, RegionUpdate, RemotingMessage, WindowManagerInfo,
    WindowRecord as WireWindowRecord,
};
use adshare_remoting::WindowId as WireWindowId;
use adshare_rtp::framing::frame_into;
use adshare_rtp::history::RetransmitHistory;
use adshare_rtp::packet::RtpPacket;
use adshare_rtp::rtcp::{decode_compound, RtcpPacket};
use adshare_rtp::session::RtpSender;
use adshare_screen::damage::DamageTracker;
use adshare_screen::desktop::{Desktop, ScrollHint};
use adshare_screen::wm::WindowId;
use bytes::Bytes;
use rand::rngs::StdRng;
use rand::SeedableRng;

use crate::config::{AhConfig, PointerPolicy};

/// Identifies an attached participant at the AH.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct ParticipantHandle(pub usize);

/// AH-side cumulative statistics.
#[derive(Debug, Clone, Copy, Default)]
pub struct AhStats {
    /// WindowManagerInfo messages sent (counting per participant).
    pub wmi_msgs: u64,
    /// RegionUpdate messages sent.
    pub region_msgs: u64,
    /// MoveRectangle messages sent.
    pub move_msgs: u64,
    /// MousePointerInfo messages sent.
    pub pointer_msgs: u64,
    /// Distinct region encodes performed (cache misses).
    pub encodes: u64,
    /// Encoded payload bytes produced (before packetization).
    pub encoded_bytes: u64,
    /// RTP packets emitted.
    pub rtp_packets: u64,
    /// Bytes offered to transports.
    pub bytes_sent: u64,
    /// NACK-triggered retransmissions.
    pub retransmits: u64,
    /// Multicast retransmissions suppressed by the dedup window (another
    /// member already triggered the same repair).
    pub retransmits_suppressed: u64,
    /// PLI-triggered full refreshes.
    pub full_refreshes: u64,
    /// RR-driven tail-loss repairs (receiver behind the send tail with no
    /// later packet to reveal the gap; repaired from history).
    pub tail_repairs: u64,
    /// RTCP sender reports emitted.
    pub sr_sent: u64,
    /// HIP events accepted and injected.
    pub hip_injected: u64,
    /// HIP events rejected by the §4.1 legitimacy gate or floor control.
    pub hip_rejected: u64,
}

/// Live handles behind [`AhStats`]. Shared atomics so the same counts can be
/// adopted into an [`adshare_obs::Registry`] under `ah.*` while the POD
/// accessor keeps working.
#[derive(Debug, Clone, Default)]
struct AhCounters {
    wmi_msgs: Counter,
    region_msgs: Counter,
    move_msgs: Counter,
    pointer_msgs: Counter,
    encodes: Counter,
    encoded_bytes: Counter,
    rtp_packets: Counter,
    bytes_sent: Counter,
    retransmits: Counter,
    retransmits_suppressed: Counter,
    full_refreshes: Counter,
    tail_repairs: Counter,
    sr_sent: Counter,
    hip_injected: Counter,
    hip_rejected: Counter,
    /// Wall-clock µs per region encode (cache misses only).
    encode_us: Histogram,
    /// Wall-clock µs per message fragmentation pass.
    fragment_us: Histogram,
}

impl AhCounters {
    fn stats(&self) -> AhStats {
        AhStats {
            wmi_msgs: self.wmi_msgs.get(),
            region_msgs: self.region_msgs.get(),
            move_msgs: self.move_msgs.get(),
            pointer_msgs: self.pointer_msgs.get(),
            encodes: self.encodes.get(),
            encoded_bytes: self.encoded_bytes.get(),
            rtp_packets: self.rtp_packets.get(),
            bytes_sent: self.bytes_sent.get(),
            retransmits: self.retransmits.get(),
            retransmits_suppressed: self.retransmits_suppressed.get(),
            full_refreshes: self.full_refreshes.get(),
            tail_repairs: self.tail_repairs.get(),
            sr_sent: self.sr_sent.get(),
            hip_injected: self.hip_injected.get(),
            hip_rejected: self.hip_rejected.get(),
        }
    }

    /// Adopt every handle into `registry` under `ah.*`. The NACK repair
    /// counter is exported as `ah.retransmissions` (the canonical metric
    /// name); [`AhStats::retransmits`] remains the POD field name.
    fn register(&self, registry: &Registry) {
        registry.adopt_counter("ah.wmi_msgs", &self.wmi_msgs);
        registry.adopt_counter("ah.region_msgs", &self.region_msgs);
        registry.adopt_counter("ah.move_msgs", &self.move_msgs);
        registry.adopt_counter("ah.pointer_msgs", &self.pointer_msgs);
        registry.adopt_counter("ah.encodes", &self.encodes);
        registry.adopt_counter("ah.encoded_bytes", &self.encoded_bytes);
        registry.adopt_counter("ah.rtp_packets", &self.rtp_packets);
        registry.adopt_counter("ah.tx_bytes", &self.bytes_sent);
        registry.adopt_counter("ah.retransmissions", &self.retransmits);
        registry.adopt_counter(
            "ah.retransmissions_suppressed",
            &self.retransmits_suppressed,
        );
        registry.adopt_counter("ah.full_refreshes", &self.full_refreshes);
        registry.adopt_counter("ah.tail_repairs", &self.tail_repairs);
        registry.adopt_counter("ah.sr_sent", &self.sr_sent);
        registry.adopt_counter("ah.hip_injected", &self.hip_injected);
        registry.adopt_counter("ah.hip_rejected", &self.hip_rejected);
        registry.adopt_histogram("ah.encode_us", &self.encode_us);
        registry.adopt_histogram("ah.fragment_us", &self.fragment_us);
    }
}

/// Per-participant pending output (what changed but has not been sent).
#[derive(Debug, Default)]
struct Pending {
    wmi: bool,
    scrolls: Vec<ScrollHint>,
    damage: HashMap<WindowId, DamageTracker>,
    pointer_moved: bool,
    pointer_icon: bool,
}

impl Pending {
    fn add_damage(
        &mut self,
        strategy: adshare_screen::damage::MergeStrategy,
        win: WindowId,
        rect: Rect,
        now_us: u64,
    ) {
        self.damage
            .entry(win)
            .or_insert_with(|| DamageTracker::new(strategy))
            .add_at(rect, now_us);
    }

    fn is_empty(&self) -> bool {
        !self.wmi
            && self.scrolls.is_empty()
            && self.damage.values().all(|d| d.is_empty())
            && !self.pointer_moved
            && !self.pointer_icon
    }
}

#[derive(Debug)]
#[allow(clippy::large_enum_variant)] // one Transport per participant; not worth boxing
enum Transport {
    Udp {
        channel: UdpChannel,
    },
    Tcp {
        link: TcpLink,
        outq: Vec<u8>,
    },
    /// Member of multicast session `session` (§4.3 allows several
    /// simultaneous sessions with different transmission rates).
    Multicast {
        session: usize,
    },
}

/// Encoded region updates (and control messages riding FIFO with them)
/// awaiting pacer tokens, in adaptive-rate mode.
type SendQueue = FreshQueue<(RemotingMessage, Option<FrameTrace>)>;

/// One message drained from pending state, carrying the metadata the
/// adaptive send queue needs for §7 supersede-on-coverage and byte-paced
/// pops. Legacy paths just unwrap `msg`/`trace`.
#[derive(Debug)]
struct Drained {
    msg: RemotingMessage,
    trace: Option<FrameTrace>,
    /// For RegionUpdates: source window and window-local rect, so newer
    /// damage can supersede this update while it waits for pacer tokens.
    region: Option<(WindowId, Rect)>,
    /// Encoded payload size; 0 for control messages, which ride the queue
    /// only to preserve FIFO ordering and are never dropped or deferred.
    payload_bytes: u64,
}

impl Drained {
    fn control(msg: RemotingMessage) -> Self {
        Drained {
            msg,
            trace: None,
            region: None,
            payload_bytes: 0,
        }
    }
}

/// How many encoded-but-unsent bytes the adaptive path keeps warm ahead of
/// the pacer before it stops encoding fresh damage. Bounds both encode work
/// thrown away by superseding and the staleness of queued pixels.
const QUEUE_HEADROOM_BYTES: u64 = 64 * 1024;

/// The adaptive-rate send state shared by unicast and multicast flushes.
#[derive(Debug)]
struct RateState {
    rate: RateController,
    /// Paced send queue with §7 supersede-on-coverage (adaptive only;
    /// stays empty in fixed mode).
    queue: SendQueue,
    /// Regions sent at a lossy tier, owed a lossless repair before the
    /// participant can converge pixel-identical.
    degraded: HashMap<WindowId, DamageTracker>,
    /// Lossless-repair mode: forces the lossless tier until the backlog of
    /// degraded regions has fully drained.
    repairing: bool,
    /// When damage was last drained into encodes (for tier coalescing).
    last_encode_us: u64,
    /// Last rate estimate reported to the flight recorder (AIMD growth
    /// detection; 0 = not yet observed).
    last_rate_bps: u64,
    /// Tier pinned by a downstream `TierRequest` (a relay asking for the
    /// lossiest tier its whole subtree still affords). `None` = publish
    /// lossless as usual; the AH's own congestion estimate can still pick
    /// an even lossier tier, so the effective tier is `max(own, pin)`.
    tier_pin: Option<QualityTier>,
}

impl RateState {
    fn new(rate: RateController) -> Self {
        RateState {
            rate,
            queue: FreshQueue::new(),
            degraded: HashMap::new(),
            repairing: false,
            last_encode_us: 0,
            last_rate_bps: 0,
            tier_pin: None,
        }
    }
}

#[derive(Debug)]
struct PState {
    user_id: u16,
    transport: Transport,
    sender: RtpSender,
    history: Option<RetransmitHistory>,
    pending: Pending,
    /// Pacing, congestion control, and adaptive quality for this path.
    rs: RateState,
    /// Latest RTCP receiver-report block from this participant: the AH's
    /// view of its reception quality (loss fraction, jitter).
    last_report: Option<adshare_rtp::rtcp::ReportBlock>,
    /// When the last RTCP sender report was emitted (µs).
    last_sr_us: u64,
}

#[derive(Debug)]
struct McastState {
    group: MulticastGroup,
    sender: RtpSender,
    history: Option<RetransmitHistory>,
    pending: Pending,
    /// Pacing, congestion control, and adaptive quality for the session.
    /// Every member's RTCP feedback feeds this one controller, so the
    /// session reacts to its worst path.
    rs: RateState,
    /// Time of the last flush attempt (gates SR emission for idle groups).
    last_flush_us: u64,
    /// Member index per handle.
    members: HashMap<usize, usize>,
    /// Recently retransmitted seqs → time, to deduplicate the storm of
    /// identical NACKs a shared loss produces across the group.
    recent_retx: HashMap<u16, u64>,
    /// When the last sender report was emitted (µs).
    last_sr_us: u64,
}

/// The application host (Figure 1's server side).
#[derive(Debug)]
pub struct AppHost {
    desktop: Desktop,
    cfg: AhConfig,
    registry: CodecRegistry,
    rng: StdRng,
    chair: FloorChair,
    /// Whether HIP injection requires holding the BFCP floor.
    require_floor: bool,
    participants: Vec<Option<PState>>,
    mcast: Vec<McastState>,
    injected: Vec<(u16, HipMessage)>,
    counters: AhCounters,
    /// Tile-encode pipeline: damage tiling, the cross-frame
    /// content-addressed encode cache (shared by every participant and
    /// transport), and the worker pool for parallel cache-miss encoding.
    encode: EncodePipeline,
    /// Observability bundle when attached; counters flow regardless, the
    /// bundle adds registry export and frame tracing.
    obs: Option<Obs>,
    last_pointer_rect: Option<Rect>,
    /// Windows known to be shared as of the previous step; a window
    /// entering this set needs a full-content transmission.
    known_shared: std::collections::HashSet<WindowId>,
    /// Encode-cache evictions already reported to the flight recorder.
    last_evictions: u64,
    /// Order-sensitive FNV-1a over every RTP/RTCP packet this AH produced
    /// (pre-framing). Two runs with identical wire output — the guarantee
    /// the multi-tenant host's parity tests pin down — have equal digests.
    wire_digest: u64,
    /// Consent-gated wire-capture sink, when armed. Every egress tap sits
    /// immediately after the matching `wire_digest` fold, so capture record
    /// order equals fold order and a replay can reproduce the digest.
    capture: Option<CaptureHandle>,
}

/// Capture-tap one egress packet (no-op when no capture is armed). Free
/// function so call sites inside disjoint-field borrows of `AppHost` can
/// use it.
fn cap_tx(
    capture: &Option<CaptureHandle>,
    kind: CapStreamKind,
    transport: CapTransport,
    actor: u16,
    now_us: u64,
    bytes: &[u8],
) {
    if let Some(cap) = capture {
        cap.record(CapDirection::Tx, kind, transport, actor, now_us, bytes);
    }
}

/// FNV-1a offset basis (the wire digest's initial value).
const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;

/// Fold `bytes` into an order-sensitive FNV-1a digest.
fn fnv1a_fold(mut digest: u64, bytes: &[u8]) -> u64 {
    for &b in bytes {
        digest ^= b as u64;
        digest = digest.wrapping_mul(0x0000_0100_0000_01B3);
    }
    digest
}

impl AppHost {
    /// Create an AH sharing `desktop` (builds its own single-session
    /// encode pipeline from `cfg.encode`).
    pub fn new(desktop: Desktop, cfg: AhConfig, seed: u64) -> Self {
        let encode = EncodePipeline::new(cfg.encode);
        Self::new_with_pipeline(desktop, cfg, seed, encode)
    }

    /// Create an AH with an externally built encode pipeline. This is the
    /// multi-tenant injection point: a host passes a pipeline wired to the
    /// process-wide shared encode cache (under this session's tenant
    /// namespace) and the global bounded worker pool, instead of the
    /// per-session cache and thread budget [`AppHost::new`] builds.
    pub fn new_with_pipeline(
        mut desktop: Desktop,
        cfg: AhConfig,
        seed: u64,
        encode: EncodePipeline,
    ) -> Self {
        desktop.set_damage_strategy(cfg.damage_strategy);
        let known_shared = desktop.wm().shared_records().map(|r| r.id).collect();
        AppHost {
            known_shared,
            desktop,
            chair: FloorChair::new(1, 0, cfg.floor_grant_us),
            encode,
            cfg,
            registry: CodecRegistry::default(),
            rng: StdRng::seed_from_u64(seed),
            require_floor: false,
            participants: Vec::new(),
            mcast: Vec::new(),
            injected: Vec::new(),
            counters: AhCounters::default(),
            obs: None,
            last_pointer_rect: None,
            last_evictions: 0,
            wire_digest: FNV_OFFSET,
            capture: None,
        }
    }

    /// Order-sensitive digest of every packet produced so far — equal
    /// digests mean byte-identical wire output in identical order.
    pub fn wire_digest(&self) -> u64 {
        self.wire_digest
    }

    /// Attach an armed capture sink: from now on every egress RTP/RTCP
    /// packet is recorded next to its `wire_digest` fold, in fold order.
    pub fn attach_capture(&mut self, capture: CaptureHandle) {
        self.capture = Some(capture);
    }

    /// The armed capture sink, if any.
    pub fn capture(&self) -> Option<&CaptureHandle> {
        self.capture.as_ref()
    }

    /// Record a flight-recorder event under the AH actor, if observed.
    fn rec_event(&self, now_us: u64, kind: EventKind, a: u64, b: u64) {
        if let Some(obs) = &self.obs {
            obs.event(now_us, ACTOR_AH, kind, a, b);
        }
    }

    /// Record an event attributed to a specific participant (its handle
    /// index as the actor), so health rules can name the offender.
    fn rec_event_for(&self, now_us: u64, actor: u16, kind: EventKind, a: u64, b: u64) {
        if let Some(obs) = &self.obs {
            obs.event(now_us, actor, kind, a, b);
        }
    }

    /// Record floor grant/revoke events from a batch of chair responses.
    fn rec_floor(&self, msgs: &[BfcpMessage], now_us: u64) {
        for m in msgs {
            if let BfcpMessage::FloorRequestStatus {
                user_id, status, ..
            } = m
            {
                match status {
                    adshare_bfcp::RequestStatus::Granted => {
                        self.rec_event(now_us, EventKind::FloorGrant, *user_id as u64, 0)
                    }
                    adshare_bfcp::RequestStatus::Revoked => {
                        self.rec_event(now_us, EventKind::FloorRevoke, *user_id as u64, 0)
                    }
                    _ => {}
                }
            }
        }
    }

    /// Refresh a path's rate estimate and report AIMD growth as a
    /// [`EventKind::RateUp`] event (decreases are cause-tagged at the
    /// congestion-signal sites instead).
    fn note_rate_change(obs: Option<&Obs>, rs: &mut RateState, now_us: u64) {
        let Some(obs) = obs else { return };
        let Some(rate) = rs.rate.rate_bps(now_us) else {
            return;
        };
        if rs.last_rate_bps > 0 && rate > rs.last_rate_bps {
            obs.event(now_us, ACTOR_AH, EventKind::RateUp, rate, rs.last_rate_bps);
        }
        rs.last_rate_bps = rate;
    }

    /// The shared desktop (drive workloads through this).
    pub fn desktop_mut(&mut self) -> &mut Desktop {
        &mut self.desktop
    }

    /// The shared desktop, read-only.
    pub fn desktop(&self) -> &Desktop {
        &self.desktop
    }

    /// The AH configuration.
    pub fn config(&self) -> &AhConfig {
        &self.cfg
    }

    /// The codec registry (payload types ↔ codecs).
    pub fn registry(&self) -> &CodecRegistry {
        &self.registry
    }

    /// The tile-encode pipeline (cache occupancy, worker count).
    pub fn encode_pipeline(&self) -> &EncodePipeline {
        &self.encode
    }

    /// Enable or disable BFCP floor enforcement for HIP events.
    pub fn set_require_floor(&mut self, on: bool) {
        self.require_floor = on;
    }

    /// The BFCP floor chair.
    pub fn chair_mut(&mut self) -> &mut FloorChair {
        &mut self.chair
    }

    /// Cumulative statistics (compatibility snapshot of the live counters).
    pub fn stats(&self) -> AhStats {
        self.counters.stats()
    }

    /// Attach an observability bundle: adopt the AH counters under `ah.*`,
    /// register every existing transport's counters, and start registering
    /// frame traces at packetize time so participants can complete them.
    /// Transports attached later register themselves automatically.
    pub fn attach_obs(&mut self, obs: Obs) {
        self.counters.register(&obs.registry);
        self.encode.register_metrics(&obs.registry, "ah.encode");
        for (idx, slot) in self.participants.iter().enumerate() {
            if let Some(p) = slot {
                Self::register_participant(&obs.registry, idx, p);
            }
        }
        for (i, m) in self.mcast.iter().enumerate() {
            Self::register_mcast(&obs.registry, i, m);
        }
        self.obs = Some(obs);
    }

    /// The attached observability bundle, if any.
    pub fn obs(&self) -> Option<&Obs> {
        self.obs.as_ref()
    }

    fn register_participant(registry: &Registry, idx: usize, p: &PState) {
        match &p.transport {
            Transport::Udp { channel, .. } => {
                channel.register_metrics(registry, &format!("ah.participant.{idx}.udp"));
            }
            Transport::Tcp { link, .. } => {
                link.register_metrics(registry, &format!("ah.participant.{idx}.tcp"));
            }
            // Multicast members are registered with their group.
            Transport::Multicast { .. } => return,
        }
        p.rs.rate
            .register_metrics(registry, &format!("ah.participant.{idx}.rate"));
        if let Some(h) = &p.history {
            h.register_metrics(registry, &format!("ah.participant.{idx}.retx_history"));
        }
    }

    fn register_mcast(registry: &Registry, session: usize, m: &McastState) {
        m.group
            .register_metrics(registry, &format!("ah.mcast.{session}"));
        m.rs.rate
            .register_metrics(registry, &format!("ah.mcast.{session}.rate"));
        if let Some(h) = &m.history {
            h.register_metrics(registry, &format!("ah.mcast.{session}.retx_history"));
        }
    }

    /// Attach a unicast UDP participant; the participant must send a PLI to
    /// receive initial state (§4.3: "participants using UDP send an
    /// RTCP-based feedback message, Picture Loss Indication (PLI), after
    /// joining the session").
    pub fn attach_udp(
        &mut self,
        user_id: u16,
        link: LinkConfig,
        seed: u64,
        rate_bps: Option<u64>,
    ) -> ParticipantHandle {
        let sender = RtpSender::new(
            0x41480000 | user_id as u32,
            self.cfg.remoting_pt,
            &mut self.rng,
        );
        let history = self
            .cfg
            .retransmissions
            .then(|| RetransmitHistory::new(self.cfg.history.0, self.cfg.history.1));
        let state = PState {
            user_id,
            transport: Transport::Udp {
                channel: UdpChannel::new(link, seed),
            },
            sender,
            history,
            pending: Pending::default(),
            rs: RateState::new(Self::make_controller(&self.cfg, rate_bps)),
            last_report: None,
            last_sr_us: 0,
        };
        self.participants.push(Some(state));
        let handle = ParticipantHandle(self.participants.len() - 1);
        if let Some(obs) = &self.obs {
            let p = self.participants[handle.0].as_ref().expect("just pushed");
            Self::register_participant(&obs.registry, handle.0, p);
        }
        handle
    }

    /// The congestion controller for a new path: adaptive when the config
    /// enables it (the static `rate_bps` then caps the estimate), else the
    /// legacy fixed-rate pacer.
    fn make_controller(cfg: &AhConfig, rate_bps: Option<u64>) -> RateController {
        match cfg.adaptive_rate {
            Some(rc) => RateController::new_adaptive(rc, rate_bps, cfg.mtu),
            None => RateController::new_fixed(rate_bps, cfg.mtu),
        }
    }

    /// Attach a TCP participant. Initial state is sent immediately (§4.4:
    /// "right after the TCP connection establishment").
    pub fn attach_tcp(&mut self, user_id: u16, link: TcpConfig) -> ParticipantHandle {
        let sender = RtpSender::new(
            0x41480000 | user_id as u32,
            self.cfg.remoting_pt,
            &mut self.rng,
        );
        let mut state = PState {
            user_id,
            transport: Transport::Tcp {
                link: TcpLink::new(link),
                outq: Vec::new(),
            },
            sender,
            history: None,
            pending: Pending::default(),
            // TCP is never byte-paced here (the link backpressures); the
            // controller still adapts quality from the backlog signal.
            rs: RateState::new(Self::make_controller(&self.cfg, None)),
            last_report: None,
            last_sr_us: 0,
        };
        Self::schedule_full_refresh(&self.desktop, &self.cfg, &mut state.pending, 0);
        self.participants.push(Some(state));
        let handle = ParticipantHandle(self.participants.len() - 1);
        if let Some(obs) = &self.obs {
            let p = self.participants[handle.0].as_ref().expect("just pushed");
            Self::register_participant(&obs.registry, handle.0, p);
        }
        handle
    }

    /// Create a multicast session with its own pacing rate; returns its
    /// index. §4.3: "Several simultaneous multicast sessions with different
    /// transmission rates can be created at the AH."
    pub fn create_multicast_session(&mut self, rate_bps: Option<u64>) -> usize {
        let sender = RtpSender::new(
            0x4d430001 + self.mcast.len() as u32,
            self.cfg.remoting_pt,
            &mut self.rng,
        );
        let history = self
            .cfg
            .retransmissions
            .then(|| RetransmitHistory::new(self.cfg.history.0, self.cfg.history.1));
        self.mcast.push(McastState {
            group: MulticastGroup::new(),
            sender,
            history,
            pending: Pending::default(),
            rs: RateState::new(Self::make_controller(&self.cfg, rate_bps)),
            last_flush_us: 0,
            members: HashMap::new(),
            recent_retx: HashMap::new(),
            last_sr_us: 0,
        });
        let session = self.mcast.len() - 1;
        if let Some(obs) = &self.obs {
            Self::register_mcast(&obs.registry, session, &self.mcast[session]);
        }
        session
    }

    /// Ensure a default multicast session (index 0) exists.
    pub fn enable_multicast(&mut self, rate_bps: Option<u64>) {
        if self.mcast.is_empty() {
            self.create_multicast_session(rate_bps);
        }
    }

    /// Join a participant to the default multicast session.
    pub fn attach_multicast(
        &mut self,
        user_id: u16,
        link: LinkConfig,
        seed: u64,
    ) -> ParticipantHandle {
        self.enable_multicast(None);
        self.attach_multicast_session(0, user_id, link, seed)
            .expect("default session exists")
    }

    /// Join a participant to a specific multicast session.
    pub fn attach_multicast_session(
        &mut self,
        session: usize,
        user_id: u16,
        link: LinkConfig,
        seed: u64,
    ) -> Option<ParticipantHandle> {
        if session >= self.mcast.len() {
            return None;
        }
        let state = PState {
            user_id,
            transport: Transport::Multicast { session },
            sender: RtpSender::new(0, 0, &mut self.rng), // unused for mcast
            history: None,
            pending: Pending::default(),
            // Pacing happens at the session, not the member.
            rs: RateState::new(RateController::new_fixed(None, self.cfg.mtu)),
            last_report: None,
            last_sr_us: 0,
        };
        self.participants.push(Some(state));
        let handle = ParticipantHandle(self.participants.len() - 1);
        let mcast = &mut self.mcast[session];
        let member = mcast.group.join(link, seed);
        mcast.members.insert(handle.0, member);
        if let Some(obs) = &self.obs {
            // Re-registration is idempotent for existing members and picks
            // up the newly joined one.
            Self::register_mcast(&obs.registry, session, mcast);
        }
        Some(handle)
    }

    /// Detach a participant (session end).
    pub fn detach(&mut self, handle: ParticipantHandle) {
        if let Some(slot) = self.participants.get_mut(handle.0) {
            *slot = None;
        }
    }

    /// Schedule time-varying downlink conditions for a UDP participant
    /// (bandwidth steps, loss changes) — see [`adshare_netsim::LinkStep`].
    /// No-op for TCP and multicast members.
    pub fn set_link_schedule(
        &mut self,
        handle: ParticipantHandle,
        steps: Vec<adshare_netsim::LinkStep>,
    ) {
        if let Some(Some(p)) = self.participants.get_mut(handle.0) {
            if let Transport::Udp { channel } = &mut p.transport {
                channel.set_schedule(steps);
            }
        }
    }

    /// Multiplicative rate decreases this participant's congestion
    /// controller has applied so far (0 for fixed-rate paths; a multicast
    /// member reports its session's shared controller).
    pub fn rate_decreases(&self, handle: ParticipantHandle) -> u64 {
        let Some(p) = self.participants.get(handle.0).and_then(|p| p.as_ref()) else {
            return 0;
        };
        match p.transport {
            Transport::Multicast { session } => {
                self.mcast.get(session).map_or(0, |m| m.rs.rate.decreases())
            }
            _ => p.rs.rate.decreases(),
        }
    }

    /// The AH egress byte count for one participant's transport.
    pub fn participant_bytes_sent(&self, handle: ParticipantHandle) -> u64 {
        match self.participants.get(handle.0).and_then(|p| p.as_ref()) {
            Some(p) => match &p.transport {
                Transport::Udp { channel, .. } => channel.stats().bytes_sent,
                Transport::Tcp { link, .. } => link.stats().bytes_accepted,
                Transport::Multicast { session } => self
                    .mcast
                    .get(*session)
                    .map(|m| m.group.egress().1)
                    .unwrap_or(0),
            },
            None => 0,
        }
    }

    /// Capture desktop changes and flush to all participants.
    pub fn step(&mut self, now_us: u64) {
        // 1. Capture once. Application-sharing semantics (§2): only changes
        // belonging to shared windows leave the AH.
        let wm_dirty = self.desktop.take_wm_dirty();
        let is_shared =
            |id: WindowId, d: &Desktop| d.wm().get(id).map(|r| r.shared).unwrap_or(false);
        let scrolls: Vec<ScrollHint> = self
            .desktop
            .take_scroll_hints()
            .into_iter()
            .filter(|h| is_shared(h.window, &self.desktop))
            .collect();
        let mut damage: Vec<adshare_screen::desktop::Damage> = self
            .desktop
            .take_damage()
            .into_iter()
            .filter(|d| is_shared(d.window, &self.desktop))
            .collect();
        // A window whose sharing was just switched on must be transmitted
        // in full — its content never reached participants before.
        let shared_now: std::collections::HashSet<WindowId> =
            self.desktop.wm().shared_records().map(|r| r.id).collect();
        for &id in shared_now.difference(&self.known_shared) {
            if let Some(rec) = self.desktop.wm().get(id) {
                damage.push(adshare_screen::desktop::Damage {
                    window: id,
                    rect: Rect::new(0, 0, rec.rect.width, rec.rect.height),
                });
            }
        }
        self.known_shared = shared_now;
        let (ptr_moved, ptr_icon) = self.desktop.pointer_mut().take_changes();
        let pointer_rect = self.desktop.pointer().rect();

        // In-stream pointer: pointer movement damages the windows under the
        // old and new pointer rectangles.
        let mut pointer_damage: Vec<(WindowId, Rect)> = Vec::new();
        if self.cfg.pointer == PointerPolicy::InStream && (ptr_moved || ptr_icon) {
            let mut rects = vec![pointer_rect];
            if let Some(old) = self.last_pointer_rect {
                rects.push(old);
            }
            for rec in self.desktop.wm().shared_records() {
                for r in &rects {
                    if let Some(overlap) = rec.rect.intersect(r) {
                        // Translate into window-local coordinates.
                        pointer_damage.push((
                            rec.id,
                            Rect::new(
                                overlap.left - rec.rect.left,
                                overlap.top - rec.rect.top,
                                overlap.width,
                                overlap.height,
                            ),
                        ));
                    }
                }
            }
        }
        self.last_pointer_rect = Some(pointer_rect);

        // 2. Merge into every participant's pending state.
        let strategy = self.cfg.damage_strategy;
        let merge = |pending: &mut Pending| {
            pending.wmi |= wm_dirty;
            for hint in &scrolls {
                // Unflushed damage from earlier steps predates this scroll:
                // it must ride along with the moved content, or the replayed
                // MoveRectangle will smear stale pixels past the repaint.
                if let Some(tracker) = pending.damage.get_mut(&hint.window) {
                    tracker.translate_for_scroll(
                        hint.src,
                        hint.dst_left as i64 - hint.src.left as i64,
                        hint.dst_top as i64 - hint.src.top as i64,
                    );
                }
                pending.scrolls.push(*hint);
            }
            for d in &damage {
                pending.add_damage(strategy, d.window, d.rect, now_us);
            }
            for (w, r) in &pointer_damage {
                pending.add_damage(strategy, *w, *r, now_us);
            }
            pending.pointer_moved |= ptr_moved;
            pending.pointer_icon |= ptr_icon;
        };
        for slot in self.participants.iter_mut().flatten() {
            if !matches!(slot.transport, Transport::Multicast { .. }) {
                merge(&mut slot.pending);
            }
        }
        for m in &mut self.mcast {
            if !m.members.is_empty() {
                merge(&mut m.pending);
            }
        }

        // 3. Flush per participant. The encode pipeline's content-addressed
        // cache is shared across all of them (and across frames): identical
        // pixels encode once no matter which participant or transport asks,
        // and the quality tier is part of the cache key so participants at
        // different tiers never share an encode.
        self.encode.begin_step();
        for idx in 0..self.participants.len() {
            self.flush_unicast(idx, now_us);
        }
        self.flush_multicast(now_us);
        let evictions = self.encode.cache_evictions();
        if evictions > self.last_evictions {
            self.rec_event(
                now_us,
                EventKind::CacheEvict,
                evictions - self.last_evictions,
                0,
            );
            self.last_evictions = evictions;
        }
        self.emit_sender_reports(now_us);
    }

    /// Periodic RTCP sender reports (RFC 3550 §6.4.1), multiplexed onto the
    /// media path per RFC 5761. They give participants the wall-clock ↔
    /// RTP-timestamp mapping used to measure capture→display latency.
    fn emit_sender_reports(&mut self, now_us: u64) {
        const SR_INTERVAL_US: u64 = 1_000_000;
        let ticks = us_to_ticks(now_us) as u32;
        for slot in self.participants.iter_mut().flatten() {
            if now_us.saturating_sub(slot.last_sr_us) < SR_INTERVAL_US {
                continue;
            }
            let (packets, octets) = slot.sender.sent_counts();
            if packets == 0 {
                continue;
            }
            slot.last_sr_us = now_us;
            let sr = adshare_rtp::rtcp::SenderReport {
                ssrc: slot.sender.ssrc(),
                // NTP field carries the virtual clock in µs — the mapping is
                // what matters, not the epoch.
                ntp: now_us,
                rtp_ts: slot.sender.timestamp_for(ticks),
                packet_count: packets as u32,
                octet_count: octets as u32,
                reports: vec![],
            };
            // RFC 3550 §6.1: every RTCP compound includes an SDES CNAME.
            let sdes =
                adshare_rtp::rtcp::SourceDescription::cname(slot.sender.ssrc(), "ah@adshare");
            let bytes = adshare_rtp::rtcp::encode_compound(&[
                adshare_rtp::rtcp::RtcpPacket::SenderReport(sr),
                adshare_rtp::rtcp::RtcpPacket::Sdes(sdes),
            ]);
            self.counters.sr_sent.inc();
            self.wire_digest = fnv1a_fold(self.wire_digest, &bytes);
            let cap_transport = match &slot.transport {
                Transport::Udp { .. } => CapTransport::Udp,
                Transport::Tcp { .. } => CapTransport::Tcp,
                Transport::Multicast { .. } => CapTransport::Multicast,
            };
            cap_tx(
                &self.capture,
                CapStreamKind::Rtcp,
                cap_transport,
                ACTOR_AH,
                now_us,
                &bytes,
            );
            match &mut slot.transport {
                Transport::Udp { channel, .. } => channel.send(now_us, &bytes),
                Transport::Tcp { link, outq } => {
                    let mut framed = Vec::with_capacity(bytes.len() + 2);
                    let _ = frame_into(&mut framed, &bytes);
                    if outq.is_empty() {
                        let n = link.send(now_us, &framed);
                        if n < framed.len() {
                            outq.extend_from_slice(&framed[n..]);
                        }
                    } else {
                        outq.extend_from_slice(&framed);
                    }
                }
                Transport::Multicast { .. } => {}
            }
        }
        // One SR per multicast session, into the group.
        for m in &mut self.mcast {
            if m.members.is_empty() || now_us.saturating_sub(m.last_flush_us) > SR_INTERVAL_US * 10
            {
                continue;
            }
            if now_us.saturating_sub(m.last_sr_us) < SR_INTERVAL_US {
                continue;
            }
            let (packets, octets) = m.sender.sent_counts();
            if packets == 0 {
                continue;
            }
            m.last_sr_us = now_us;
            let sr = adshare_rtp::rtcp::SenderReport {
                ssrc: m.sender.ssrc(),
                ntp: now_us,
                rtp_ts: m.sender.timestamp_for(ticks),
                packet_count: packets as u32,
                octet_count: octets as u32,
                reports: vec![],
            };
            let sdes = adshare_rtp::rtcp::SourceDescription::cname(m.sender.ssrc(), "ah@adshare");
            let bytes = adshare_rtp::rtcp::encode_compound(&[
                adshare_rtp::rtcp::RtcpPacket::SenderReport(sr),
                adshare_rtp::rtcp::RtcpPacket::Sdes(sdes),
            ]);
            self.counters.sr_sent.inc();
            self.wire_digest = fnv1a_fold(self.wire_digest, &bytes);
            cap_tx(
                &self.capture,
                CapStreamKind::Rtcp,
                CapTransport::Multicast,
                ACTOR_AH,
                now_us,
                &bytes,
            );
            m.group.send(now_us, &bytes);
        }
    }

    /// Datagrams arriving at a UDP participant by `now_us`.
    pub fn poll_udp(&mut self, handle: ParticipantHandle, now_us: u64) -> Vec<Vec<u8>> {
        match self.participants.get_mut(handle.0).and_then(|p| p.as_mut()) {
            Some(PState {
                transport: Transport::Udp { channel, .. },
                ..
            }) => channel.poll(now_us),
            Some(PState {
                transport: Transport::Multicast { session },
                ..
            }) => {
                let session = *session;
                let Some(m) = self.mcast.get_mut(session) else {
                    return Vec::new();
                };
                let Some(&member) = m.members.get(&handle.0) else {
                    return Vec::new();
                };
                m.group.poll(member, now_us)
            }
            _ => Vec::new(),
        }
    }

    /// Stream bytes arriving at a TCP participant by `now_us`.
    pub fn poll_tcp(&mut self, handle: ParticipantHandle, now_us: u64) -> Vec<u8> {
        match self.participants.get_mut(handle.0).and_then(|p| p.as_mut()) {
            Some(PState {
                transport: Transport::Tcp { link, .. },
                ..
            }) => link.recv(now_us),
            _ => Vec::new(),
        }
    }

    /// Handle RTCP feedback (PLI / NACK) from a participant (§5.3).
    pub fn handle_rtcp(&mut self, handle: ParticipantHandle, bytes: &[u8], now_us: u64) {
        let Ok(packets) = decode_compound(bytes) else {
            return;
        };
        for pkt in packets {
            match pkt {
                RtcpPacket::Pli(_) => {
                    let served = self.full_refresh_for(handle, now_us);
                    self.rec_event_for(
                        now_us,
                        handle.0 as u16,
                        EventKind::PliReceived,
                        served as u64,
                        handle.0 as u64,
                    );
                }
                RtcpPacket::Nack(nack) => {
                    let lost = nack.lost_seqs();
                    self.rec_event_for(
                        now_us,
                        handle.0 as u16,
                        EventKind::NackReceived,
                        lost.len() as u64,
                        lost.first().copied().unwrap_or(0) as u64,
                    );
                    // A NACK is also a congestion signal for the path's
                    // estimator (a burst decreases, a trickle holds off).
                    let mut decreased_to = None;
                    if let Some(rs) = self.rate_state_mut(handle) {
                        let before = rs.rate.decreases();
                        rs.rate.on_nack(lost.len(), now_us);
                        if rs.rate.decreases() > before {
                            decreased_to = Some(rs.rate.rate_bps(now_us).unwrap_or(0));
                        }
                    }
                    if let Some(rate) = decreased_to {
                        self.rec_event(now_us, EventKind::RateDown, rate, RATE_CAUSE_NACK_BURST);
                    }
                    self.retransmit(handle, &lost, now_us);
                }
                RtcpPacket::ReceiverReport(rr) => {
                    if let Some(block) = rr.reports.into_iter().next() {
                        self.handle_receiver_report(handle, block, now_us);
                    }
                }
                RtcpPacket::Unknown { ref raw, .. } => {
                    // A relay's tier subscription (RTCP APP "ADTR"): pin
                    // this participant's published tier so the whole
                    // subtree stops paying for quality it cannot deliver.
                    if let Some(req) = TierRequest::decode(raw) {
                        let pin = (req.tier != QualityTier::Lossless).then_some(req.tier);
                        if let Some(rs) = self.rate_state_mut(handle) {
                            rs.tier_pin = pin;
                        }
                        self.rec_event_for(
                            now_us,
                            handle.0 as u16,
                            EventKind::TierRequest,
                            req.tier.as_gauge() as u64,
                            0,
                        );
                    }
                }
                _ => {}
            }
        }
    }

    /// The congestion-control state governing a participant's sends: its
    /// own for unicast, the session's for a multicast member.
    fn rate_state_mut(&mut self, handle: ParticipantHandle) -> Option<&mut RateState> {
        let session = match self.participants.get(handle.0).and_then(|p| p.as_ref()) {
            Some(PState {
                transport: Transport::Multicast { session },
                ..
            }) => Some(*session),
            Some(_) => None,
            None => return None,
        };
        match session {
            Some(s) => self.mcast.get_mut(s).map(|m| &mut m.rs),
            None => self
                .participants
                .get_mut(handle.0)
                .and_then(|p| p.as_mut())
                .map(|p| &mut p.rs),
        }
    }

    /// Schedule a full refresh toward `handle`'s path, subject to the
    /// adaptive controller's PLI throttle (a denied requester re-asks via
    /// its resync timer; fixed-rate mode never throttles). Returns whether
    /// the refresh was actually scheduled.
    fn full_refresh_for(&mut self, handle: ParticipantHandle, now_us: u64) -> bool {
        let allowed = match self.rate_state_mut(handle) {
            Some(rs) => rs.rate.allow_refresh(now_us),
            None => return false,
        };
        if !allowed {
            return false;
        }
        self.counters.full_refreshes.inc();
        let mcast_session = match self.participants.get(handle.0).and_then(|p| p.as_ref()) {
            Some(PState {
                transport: Transport::Multicast { session },
                ..
            }) => Some(*session),
            _ => None,
        };
        if let Some(session) = mcast_session {
            if let Some(m) = self.mcast.get_mut(session) {
                Self::schedule_full_refresh(&self.desktop, &self.cfg, &mut m.pending, now_us);
            }
        } else if let Some(p) = self.participants.get_mut(handle.0).and_then(|p| p.as_mut()) {
            Self::schedule_full_refresh(&self.desktop, &self.cfg, &mut p.pending, now_us);
        }
        true
    }

    /// Process a reception report: stash it as the AH's quality view of the
    /// path, and repair *tail loss*. NACKs only fire when a later packet
    /// reveals a gap, so packets lost at the end of a burst (nothing behind
    /// them) would otherwise desynchronize a participant forever. The RR's
    /// extended-highest-sequence tells the AH how far behind the receiver
    /// is; a short deficit is answered from retransmit history, a hopeless
    /// one with a full refresh.
    fn handle_receiver_report(
        &mut self,
        handle: ParticipantHandle,
        block: adshare_rtp::rtcp::ReportBlock,
        now_us: u64,
    ) {
        let reported = block.highest_seq as u16;
        let fraction_lost = block.fraction_lost;
        let mut session_idx = None;
        let mut is_tcp = false;
        {
            let Some(p) = self.participants.get_mut(handle.0).and_then(|p| p.as_mut()) else {
                return;
            };
            match p.transport {
                Transport::Multicast { session } => session_idx = Some(session),
                Transport::Tcp { .. } => is_tcp = true,
                Transport::Udp { .. } => {}
            }
            p.last_report = Some(block);
        }
        // TCP is reliable and in-order: a lagging RR just means queued bytes
        // (the estimator watches the send-buffer backlog instead).
        if is_tcp {
            return;
        }
        // The receiver's loss fraction is the primary congestion signal.
        let mut decreased_to = None;
        if let Some(rs) = self.rate_state_mut(handle) {
            let before = rs.rate.decreases();
            rs.rate.on_report(fraction_lost, now_us);
            if rs.rate.decreases() > before {
                decreased_to = Some(rs.rate.rate_bps(now_us).unwrap_or(0));
            }
        }
        if let Some(rate) = decreased_to {
            self.rec_event(now_us, EventKind::RateDown, rate, RATE_CAUSE_LOSS_REPORT);
        }
        let sender = match session_idx {
            Some(s) => self.mcast.get(s).map(|m| &m.sender),
            None => self
                .participants
                .get(handle.0)
                .and_then(|p| p.as_ref())
                .map(|p| &p.sender),
        };
        let Some(sender) = sender else { return };
        if sender.sent_counts().0 == 0 {
            return;
        }
        let last_sent = sender.peek_seq().wrapping_sub(1);
        let gap = last_sent.wrapping_sub(reported);
        /// Largest tail deficit worth repairing packet-by-packet; beyond
        /// this (or past the history window) a refresh is cheaper.
        const TAIL_REPAIR_MAX: u16 = 64;
        if gap == 0 || gap >= 0x8000 {
            // Up to date, or the report is ahead of our bookkeeping
            // (sequence wrap mid-flight); nothing to repair.
        } else if gap <= TAIL_REPAIR_MAX {
            let seqs: Vec<u16> = (1..=gap).map(|i| reported.wrapping_add(i)).collect();
            self.counters.tail_repairs.inc();
            self.retransmit(handle, &seqs, now_us);
        } else {
            self.full_refresh_for(handle, now_us);
        }
    }

    fn retransmit(&mut self, handle: ParticipantHandle, seqs: &[u16], now_us: u64) {
        if !self.cfg.retransmissions {
            return;
        }
        let Some(p) = self.participants.get_mut(handle.0).and_then(|p| p.as_mut()) else {
            return;
        };
        match &mut p.transport {
            Transport::Udp { channel, .. } => {
                if let Some(history) = &mut p.history {
                    for &seq in seqs {
                        if let Some(pkt) = history.lookup(seq) {
                            let encoded = pkt.encode();
                            self.wire_digest = fnv1a_fold(self.wire_digest, &encoded);
                            cap_tx(
                                &self.capture,
                                CapStreamKind::Rtp,
                                CapTransport::Udp,
                                handle.0 as u16,
                                now_us,
                                &encoded,
                            );
                            channel.send(now_us, &encoded);
                            self.counters.retransmits.inc();
                            self.counters.bytes_sent.add(encoded.len() as u64);
                            if let Some(obs) = &self.obs {
                                obs.event(
                                    now_us,
                                    handle.0 as u16,
                                    EventKind::RetxServed,
                                    seq as u64,
                                    encoded.len() as u64,
                                );
                            }
                        } else if let Some(obs) = &self.obs {
                            obs.event(
                                now_us,
                                handle.0 as u16,
                                EventKind::RetxExpired,
                                seq as u64,
                                0,
                            );
                        }
                    }
                }
            }
            Transport::Multicast { session } => {
                if let Some(m) = self.mcast.get_mut(*session) {
                    // A repair already multicast within the window reaches
                    // every member; answering the same NACK again only
                    // amplifies the storm.
                    const RETX_DEDUP_WINDOW_US: u64 = 100_000;
                    m.recent_retx
                        .retain(|_, &mut at| now_us.saturating_sub(at) < RETX_DEDUP_WINDOW_US);
                    if let Some(history) = &mut m.history {
                        for &seq in seqs {
                            if m.recent_retx.contains_key(&seq) {
                                self.counters.retransmits_suppressed.inc();
                                if let Some(obs) = &self.obs {
                                    obs.event(
                                        now_us,
                                        ACTOR_AH,
                                        EventKind::RetxSuppressed,
                                        seq as u64,
                                        0,
                                    );
                                }
                                continue;
                            }
                            if let Some(pkt) = history.lookup(seq) {
                                let encoded = pkt.encode();
                                self.wire_digest = fnv1a_fold(self.wire_digest, &encoded);
                                cap_tx(
                                    &self.capture,
                                    CapStreamKind::Rtp,
                                    CapTransport::Multicast,
                                    ACTOR_AH,
                                    now_us,
                                    &encoded,
                                );
                                m.group.send(now_us, &encoded);
                                m.recent_retx.insert(seq, now_us);
                                self.counters.retransmits.inc();
                                self.counters.bytes_sent.add(encoded.len() as u64);
                                if let Some(obs) = &self.obs {
                                    obs.event(
                                        now_us,
                                        ACTOR_AH,
                                        EventKind::RetxServed,
                                        seq as u64,
                                        encoded.len() as u64,
                                    );
                                }
                            } else if let Some(obs) = &self.obs {
                                obs.event(now_us, ACTOR_AH, EventKind::RetxExpired, seq as u64, 0);
                            }
                        }
                    }
                }
            }
            Transport::Tcp { .. } => {} // TCP is reliable; NACK not used
        }
    }

    /// Handle one HIP RTP packet from a participant (§6), enforcing the
    /// §4.1 legitimacy gate and (optionally) BFCP floor ownership.
    pub fn handle_hip(&mut self, handle: ParticipantHandle, rtp_datagram: &[u8]) {
        let Some(p) = self.participants.get(handle.0).and_then(|p| p.as_ref()) else {
            return;
        };
        let user_id = p.user_id;
        let Ok(pkt) = RtpPacket::decode(rtp_datagram) else {
            self.counters.hip_rejected.inc();
            return;
        };
        let Ok(msg) = adshare_remoting::packetizer::depacketize_hip(&pkt) else {
            self.counters.hip_rejected.inc();
            return;
        };
        // Floor gate.
        if self.require_floor {
            let allowed = match &msg {
                HipMessage::KeyPressed { .. }
                | HipMessage::KeyReleased { .. }
                | HipMessage::KeyTyped { .. } => self.chair.keyboard_allowed(user_id),
                _ => self.chair.mouse_allowed(user_id),
            };
            if !allowed {
                self.counters.hip_rejected.inc();
                return;
            }
        }
        // §4.1: "The AH MUST only accept legitimate HIP events by checking
        // whether the requested coordinates are inside the shared windows."
        let target = WindowId(msg.window_id().0);
        let Some(rec) = self.desktop.wm().get(target).filter(|r| r.shared) else {
            self.counters.hip_rejected.inc();
            return;
        };
        if let Some((x, y)) = msg.coordinates() {
            if !rec.rect.contains(x, y) {
                self.counters.hip_rejected.inc();
                return;
            }
        }
        // Accepted: inject. Mouse movement drives the desktop pointer, as
        // the regenerated OS event would.
        if let HipMessage::MouseMoved { left, top, .. } = &msg {
            self.desktop.pointer_mut().move_to(*left, *top);
        }
        if let HipMessage::KeyPressed { key_code, .. } = &msg {
            // Exercise the keycode table for diagnostics parity.
            let _ = keycodes::vk_name(*key_code);
        }
        self.counters.hip_injected.inc();
        self.injected.push((user_id, msg));
    }

    /// Handle a BFCP message from a participant; returns responses routed
    /// by user id.
    pub fn handle_bfcp(&mut self, bytes: &[u8], now_us: u64) -> Vec<(u16, Vec<u8>)> {
        let Ok(msg) = BfcpMessage::decode(bytes) else {
            return Vec::new();
        };
        let out = self.chair.handle(&msg, now_us);
        self.rec_floor(&out, now_us);
        out.into_iter()
            .map(|m| (bfcp_target(&m), m.encode()))
            .collect()
    }

    /// Advance floor-control timers.
    pub fn tick_floor(&mut self, now_us: u64) -> Vec<(u16, Vec<u8>)> {
        let out = self.chair.tick(now_us);
        self.rec_floor(&out, now_us);
        out.into_iter()
            .map(|m| (bfcp_target(&m), m.encode()))
            .collect()
    }

    /// Update the HID status (e.g. shared app lost focus, Appendix A).
    pub fn set_hid_status(&mut self, status: HidStatus) -> Vec<(u16, Vec<u8>)> {
        self.chair
            .set_hid_status(status)
            .into_iter()
            .map(|m| (bfcp_target(&m), m.encode()))
            .collect()
    }

    /// Earliest pending transport delivery across every participant, in µs
    /// — lets an orchestrator advance the clock straight to the next
    /// interesting instant instead of polling on a fixed tick.
    pub fn next_event_us(&self) -> Option<u64> {
        let mut min: Option<u64> = None;
        let mut fold = |e: Option<u64>| {
            min = match (min, e) {
                (Some(a), Some(b)) => Some(a.min(b)),
                (a, b) => a.or(b),
            };
        };
        for slot in self.participants.iter().flatten() {
            match &slot.transport {
                Transport::Udp { channel, .. } => fold(channel.next_delivery_us()),
                Transport::Tcp { link, .. } => fold(link.next_event_us()),
                Transport::Multicast { .. } => {}
            }
        }
        for m in &self.mcast {
            fold(m.group.next_delivery_us());
        }
        min
    }

    /// Whether any path still holds unflushed work — pending damage, a
    /// non-empty pacer queue, owed lossless repairs, or TCP bytes queued
    /// behind a full send buffer. A host can skip stepping a session whose
    /// workload is idle and whose paths report nothing pending.
    pub fn has_pending(&self) -> bool {
        let rs_busy =
            |rs: &RateState| rs.repairing || !rs.queue.is_empty() || !rs.degraded.is_empty();
        for slot in self.participants.iter().flatten() {
            if matches!(slot.transport, Transport::Multicast { .. }) {
                continue;
            }
            if !slot.pending.is_empty() || rs_busy(&slot.rs) {
                return true;
            }
            if let Transport::Tcp { outq, .. } = &slot.transport {
                if !outq.is_empty() {
                    return true;
                }
            }
        }
        self.mcast
            .iter()
            .any(|m| !m.members.is_empty() && (!m.pending.is_empty() || rs_busy(&m.rs)))
    }

    /// Take the HIP events accepted so far: (user, event).
    pub fn take_injected(&mut self) -> Vec<(u16, HipMessage)> {
        std::mem::take(&mut self.injected)
    }

    /// The latest RTCP receiver report from a participant — the AH's view
    /// of that path's loss fraction and jitter (RFC 3550 §6.4).
    pub fn reception_report(
        &self,
        handle: ParticipantHandle,
    ) -> Option<&adshare_rtp::rtcp::ReportBlock> {
        self.participants
            .get(handle.0)
            .and_then(|p| p.as_ref())
            .and_then(|p| p.last_report.as_ref())
    }

    fn schedule_full_refresh(
        desktop: &Desktop,
        cfg: &AhConfig,
        pending: &mut Pending,
        now_us: u64,
    ) {
        pending.wmi = true;
        pending.pointer_moved = true;
        pending.pointer_icon = true;
        for rec in desktop.wm().shared_records() {
            pending.add_damage(
                cfg.damage_strategy,
                rec.id,
                Rect::new(0, 0, rec.rect.width, rec.rect.height),
                now_us,
            );
        }
    }

    /// Build a WindowManagerInfo message reflecting current WM state
    /// (exposed for tests and the real-socket examples).
    pub fn build_wmi(&self) -> RemotingMessage {
        Self::build_wmi_static(&self.desktop)
    }

    /// Composite the pointer into `crop` (a window-local `tile` of window
    /// record rect `rec_rect`) where the pointer overlaps it. Runs before
    /// hashing, so pointer pixels are part of the tile's cache identity.
    fn composite_pointer(desktop: &Desktop, rec_rect: Rect, tile: Rect, crop: &mut Image) {
        let ptr = desktop.pointer();
        let ptr_rect = ptr.rect();
        let region_desktop = Rect::new(
            rec_rect.left + tile.left,
            rec_rect.top + tile.top,
            tile.width,
            tile.height,
        );
        if !ptr_rect.intersects(&region_desktop) {
            return;
        }
        let icon = ptr.icon();
        for dy in 0..icon.height() {
            for dx in 0..icon.width() {
                let px = icon.pixel(dx, dy).expect("in bounds");
                if px[3] == 0 {
                    continue;
                }
                let dx_abs = ptr_rect.left + dx;
                let dy_abs = ptr_rect.top + dy;
                if region_desktop.contains(dx_abs, dy_abs) {
                    crop.set_pixel(
                        dx_abs - region_desktop.left,
                        dy_abs - region_desktop.top,
                        px,
                    );
                }
            }
        }
    }

    /// Encode one damaged region of a window through the tile pipeline.
    /// The region is split along the pipeline's fixed grid; tiles already
    /// in the content-addressed cache are served without encoding, the
    /// rest encode on the worker pool. Returns `(payload_type, tile_rect,
    /// payload, encode_us)` per tile in deterministic row-major order
    /// (`encode_us` is 0 on a cache hit). At a lossy `tier` every tile is
    /// sent as coarse DCT regardless of the configured codec (the decoder
    /// needs no side channel; the payload type says DCT), and the tier is
    /// part of the cache key so a lossy encode never poisons a lossless
    /// lookup.
    #[allow(clippy::too_many_arguments)]
    fn encode_region_tiles(
        desktop: &Desktop,
        cfg: &AhConfig,
        registry: &CodecRegistry,
        counters: &AhCounters,
        pipeline: &mut EncodePipeline,
        obs: Option<&Obs>,
        now_us: u64,
        win: WindowId,
        rect: Rect,
        tier: QualityTier,
    ) -> Vec<(u8, Rect, Bytes, u64)> {
        let Some(rec) = desktop.wm().get(win).filter(|r| r.shared).copied() else {
            return Vec::new();
        };
        let Some(content) = desktop.window_content(win) else {
            return Vec::new();
        };
        let Some(rect) = rect.intersect(&content.bounds()) else {
            return Vec::new();
        };
        let mut jobs = Vec::new();
        for tile in pipeline.tile(rect) {
            let Ok(mut crop) = content.crop(tile) else {
                continue;
            };
            if cfg.pointer == PointerPolicy::InStream {
                Self::composite_pointer(desktop, rec.rect, tile, &mut crop);
            }
            jobs.push(TileJob {
                rect: tile,
                image: crop,
            });
        }
        // A congestion-driven lossy tier overrides codec choice entirely;
        // otherwise §4.2: pick the codec "according to their
        // characteristics" when adaptive mode is on, else the configured
        // codec. The closure is a pure function of the pixels, so it is
        // safe to run on the pool and its output safe to cache by content.
        let encode = |img: &Image| -> (u8, Vec<u8>) {
            if let Some(quality) = tier.dct_quality() {
                let pt = registry.pt_for(CodecKind::Dct).expect("DCT registered");
                let codec = AnyCodec::with_options(
                    CodecKind::Dct,
                    EncodeOptions {
                        quality,
                        ..EncodeOptions::default()
                    },
                );
                (pt, codec.encode(img))
            } else {
                let pt = if cfg.adaptive_codec {
                    match adshare_codec::classify(img).class {
                        adshare_codec::ContentClass::Photographic => {
                            registry.pt_for(CodecKind::Dct).expect("DCT registered")
                        }
                        adshare_codec::ContentClass::Synthetic => registry
                            .pt_for(cfg.codec)
                            .expect("configured codec registered"),
                    }
                } else {
                    registry
                        .pt_for(cfg.codec)
                        .expect("configured codec registered")
                };
                (pt, registry.get(pt).expect("registered").encode(img))
            }
        };
        let tiles = pipeline.encode_batch(tier.as_gauge() as u8, jobs, encode);
        let total = tiles.len() as u64;
        let mut hits = 0u64;
        // Per-codec encode CPU split: (cpu_us, encodes, bytes) per payload
        // type actually used this batch, folded into `codec.<name>.*` after
        // the loop so registry lookups happen once per codec, not per tile.
        let mut per_codec: Vec<(u8, u64, u64, u64, Vec<u64>)> = Vec::new();
        let out: Vec<(u8, Rect, Bytes, u64)> = tiles
            .into_iter()
            .map(|t| {
                if t.cache_hit {
                    hits += 1;
                } else {
                    counters.encodes.inc();
                    counters.encoded_bytes.add(t.payload.len() as u64);
                    counters.encode_us.record(t.encode_us);
                    if obs.is_some() {
                        let slot = match per_codec.iter_mut().find(|e| e.0 == t.payload_type) {
                            Some(s) => s,
                            None => {
                                per_codec.push((t.payload_type, 0, 0, 0, Vec::new()));
                                per_codec.last_mut().expect("just pushed")
                            }
                        };
                        slot.1 += t.encode_us;
                        slot.2 += 1;
                        slot.3 += t.payload.len() as u64;
                        slot.4.push(t.encode_us);
                    }
                }
                (t.payload_type, t.rect, t.payload, t.encode_us)
            })
            .collect();
        if let Some(obs) = obs {
            for (pt, cpu_us, encodes, bytes, samples) in per_codec {
                let name = registry
                    .get(pt)
                    .map(|c| c.kind().encoding_name())
                    .unwrap_or("unknown");
                obs.registry
                    .counter(&format!("codec.{name}.cpu_us_total"))
                    .add(cpu_us);
                obs.registry
                    .counter(&format!("codec.{name}.encodes"))
                    .add(encodes);
                obs.registry
                    .counter(&format!("codec.{name}.bytes"))
                    .add(bytes);
                let hist = obs.registry.histogram(&format!("codec.{name}.encode_us"));
                for us in samples {
                    hist.record(us);
                }
            }
            if hits > 0 {
                obs.event(now_us, ACTOR_AH, EventKind::CacheHit, hits, total);
            }
            if hits < total {
                obs.event(now_us, ACTOR_AH, EventKind::CacheMiss, total - hits, total);
            }
        }
        out
    }

    /// Build the ordered message list for a pending state, consuming it.
    /// `budget_bytes` bounds how many encoded-payload bytes of RegionUpdates
    /// are drained this flush (None = unlimited); undrained damage stays.
    /// At a lossy `tier`, every drained region is also remembered in
    /// `degraded` so a lossless repair can follow once bandwidth allows.
    ///
    /// Each RegionUpdate is paired with a partially-filled [`FrameTrace`]
    /// (damage age, encode cost, payload size); the flush path completes it
    /// with fragmentation and send timing before registering it.
    #[allow(clippy::too_many_arguments)]
    fn drain_pending(
        desktop: &Desktop,
        cfg: &AhConfig,
        registry: &CodecRegistry,
        counters: &AhCounters,
        pipeline: &mut EncodePipeline,
        obs: Option<&Obs>,
        pending: &mut Pending,
        budget_bytes: Option<u64>,
        now_us: u64,
        tier: QualityTier,
        mut degraded: Option<&mut HashMap<WindowId, DamageTracker>>,
    ) -> Vec<Drained> {
        let mut out: Vec<Drained> = Vec::new();
        if pending.wmi {
            pending.wmi = false;
            out.push(Drained::control(Self::build_wmi_static(desktop)));
            counters.wmi_msgs.inc();
        }
        for hint in std::mem::take(&mut pending.scrolls) {
            if !cfg.use_move_rectangle {
                // Ablation: convert the scroll into plain damage of the
                // whole scrolled area.
                let dst = Rect::new(hint.dst_left, hint.dst_top, hint.src.width, hint.src.height);
                pending.add_damage(
                    cfg.damage_strategy,
                    hint.window,
                    hint.src.union(&dst),
                    now_us,
                );
                continue;
            }
            let Some(rec) = desktop.wm().get(hint.window).filter(|r| r.shared) else {
                continue;
            };
            out.push(Drained::control(RemotingMessage::MoveRectangle(
                MoveRectangle {
                    window_id: WireWindowId(hint.window.0),
                    src_left: rec.rect.left + hint.src.left,
                    src_top: rec.rect.top + hint.src.top,
                    width: hint.src.width,
                    height: hint.src.height,
                    dst_left: rec.rect.left + hint.dst_left,
                    dst_top: rec.rect.top + hint.dst_top,
                },
            )));
            counters.move_msgs.inc();
        }
        if cfg.pointer == PointerPolicy::Explicit && (pending.pointer_moved || pending.pointer_icon)
        {
            let ptr = desktop.pointer();
            let (x, y) = ptr.position();
            let image = if pending.pointer_icon {
                let raw_pt = registry.pt_for(CodecKind::Raw).expect("raw registered");
                let codec = registry.get(raw_pt).expect("registered");
                Some((raw_pt, Bytes::from(codec.encode(ptr.icon()))))
            } else {
                None
            };
            let window_id = desktop
                .wm()
                .window_at(x, y)
                .filter(|r| r.shared)
                .map(|r| WireWindowId(r.id.0))
                .unwrap_or(WireWindowId(0));
            let (pt, image_bytes) = match image {
                Some((pt, b)) => (pt, Some(b)),
                None => (
                    registry.pt_for(CodecKind::Raw).expect("raw registered"),
                    None,
                ),
            };
            out.push(Drained::control(RemotingMessage::MousePointerInfo(
                MousePointerInfo {
                    window_id,
                    payload_type: pt,
                    left: x,
                    top: y,
                    image: image_bytes,
                },
            )));
            counters.pointer_msgs.inc();
            pending.pointer_moved = false;
            pending.pointer_icon = false;
        }
        // Damage → RegionUpdates, freshest content, budget-bounded.
        let mut spent: u64 = 0;
        // In window order: `HashMap` order differs from one map to the next,
        // and the order of the updates is part of the wire digest.
        let mut windows: Vec<WindowId> = pending.damage.keys().copied().collect();
        windows.sort_unstable();
        for win in windows {
            // Window gone or no longer shared? Drop its damage.
            if !desktop.wm().get(win).map(|r| r.shared).unwrap_or(false) {
                pending.damage.remove(&win);
                continue;
            }
            let tracker = pending.damage.get_mut(&win).expect("keyed");
            let damage_at_us = tracker.oldest_pending_us().unwrap_or(now_us);
            let rects = tracker.take();
            let mut unspent = Vec::new();
            for rect in rects {
                if budget_bytes.is_some_and(|b| spent >= b) {
                    unspent.push(rect);
                    continue;
                }
                // One pipeline batch per damage rect: a full-window refresh
                // becomes dozens of tiles encoding in parallel, and each
                // tile is a stable content-addressed cache unit.
                for (pt, tile, payload, encode_us) in Self::encode_region_tiles(
                    desktop, cfg, registry, counters, pipeline, obs, now_us, win, rect, tier,
                ) {
                    spent += payload.len() as u64;
                    if tier.is_lossy() {
                        // A lossy encode leaves the participant with
                        // approximate pixels; remember the region so a
                        // lossless repair pass can follow once bandwidth
                        // allows (pixel-identical convergence).
                        if let Some(d) = degraded.as_deref_mut() {
                            d.entry(win)
                                .or_insert_with(|| DamageTracker::new(cfg.damage_strategy))
                                .add_at(tile, now_us);
                        }
                    }
                    let trace = FrameTrace {
                        window_id: win.0,
                        damage_at_us,
                        encode_wall_us: encode_us,
                        bytes: payload.len() as u64,
                        ..FrameTrace::default()
                    };
                    let rec = desktop.wm().get(win).expect("checked above");
                    let payload_bytes = payload.len() as u64;
                    out.push(Drained {
                        msg: RemotingMessage::RegionUpdate(RegionUpdate {
                            window_id: WireWindowId(win.0),
                            payload_type: pt,
                            left: rec.rect.left + tile.left,
                            top: rec.rect.top + tile.top,
                            payload,
                        }),
                        trace: Some(trace),
                        region: Some((win, tile)),
                        payload_bytes,
                    });
                    counters.region_msgs.inc();
                }
            }
            // Budget-deferred rects keep their original observation time so
            // the damage stage reflects the full queueing delay.
            for rect in unspent {
                tracker.add_at(rect, damage_at_us);
            }
        }
        out
    }

    /// Adaptive-mode drain (UDP unicast and multicast): pick the encode
    /// tier, re-inject owed lossless repairs, encode under the
    /// coalesce/headroom gate, and route everything through the
    /// supersede-on-coverage send queue. Returns the messages the pacer
    /// releases this flush, in FIFO order.
    #[allow(clippy::too_many_arguments)]
    fn drain_adaptive(
        desktop: &Desktop,
        cfg: &AhConfig,
        registry: &CodecRegistry,
        counters: &AhCounters,
        pipeline: &mut EncodePipeline,
        obs: Option<&Obs>,
        pending: &mut Pending,
        rs: &mut RateState,
        budget: Option<u64>,
        now_us: u64,
    ) -> Vec<(RemotingMessage, Option<FrameTrace>)> {
        // Tier: forced lossless while a repair pass is draining, else the
        // lossier of the bandwidth estimate and a downstream tier pin.
        let mut tier = if rs.repairing {
            QualityTier::Lossless
        } else {
            rs.rate
                .tier()
                .max(rs.tier_pin.unwrap_or(QualityTier::Lossless))
        };
        // Owed repairs re-enter as damage once the estimate is back at the
        // lossless tier, or when there is nothing fresher to send. The
        // repair pins the tier lossless until it drains, so repaired
        // pixels are never immediately re-degraded.
        let idle = pending.is_empty() && rs.queue.is_empty();
        if !rs.degraded.is_empty() && (tier == QualityTier::Lossless || idle) {
            for (win, mut tracker) in std::mem::take(&mut rs.degraded) {
                for rect in tracker.take() {
                    pending.add_damage(cfg.damage_strategy, win, rect, now_us);
                }
            }
            rs.repairing = true;
            tier = QualityTier::Lossless;
        }
        // Encode gate: stop producing fresh encodes while the queue already
        // holds a pacer-window's worth (supersede keeps it fresh), or while
        // inside the tier's damage-coalescing interval. Control messages
        // still drain — a zero budget only defers rect encodes.
        let queued = rs.queue.bytes();
        let coalescing = now_us.saturating_sub(rs.last_encode_us) < rs.rate.coalesce_us();
        let encode_budget = if queued >= QUEUE_HEADROOM_BYTES || coalescing {
            Some(0)
        } else {
            budget.map(|b| b.saturating_add(QUEUE_HEADROOM_BYTES - queued))
        };
        let drained = Self::drain_pending(
            desktop,
            cfg,
            registry,
            counters,
            pipeline,
            obs,
            pending,
            encode_budget,
            now_us,
            tier,
            Some(&mut rs.degraded),
        );
        if drained.iter().any(|d| d.region.is_some()) {
            rs.last_encode_us = now_us;
        }
        for d in drained {
            match d.region {
                Some((win, rect)) => {
                    // §7 generalised to UDP: fresher damage covering a
                    // queued-but-unsent update makes it stale; drop it and
                    // let the fresh encode (pushed at `now_us`, so never
                    // self-superseded) take its place.
                    let dropped = rs.queue.supersede(win.0 as u64, rect, now_us);
                    rs.rate.note_superseded(dropped);
                    if dropped > 0 {
                        if let Some(obs) = obs {
                            obs.event(
                                now_us,
                                ACTOR_AH,
                                EventKind::PacerSupersede,
                                dropped as u64,
                                0,
                            );
                        }
                    }
                    rs.queue.push(
                        win.0 as u64,
                        rect,
                        now_us,
                        d.payload_bytes,
                        (d.msg, d.trace),
                    );
                }
                // Control messages: a window id no real window uses, an
                // empty rect and zero bytes — never superseded, virtually
                // free to pop, but strictly FIFO with the region updates
                // around them (MoveRectangle ordering matters).
                None => rs
                    .queue
                    .push(u64::MAX, Rect::new(0, 0, 0, 0), now_us, 0, (d.msg, d.trace)),
            }
        }
        let released = rs.queue.pop_budget(budget);
        // Repair complete once every owed region was re-encoded and sent.
        if rs.repairing && pending.is_empty() && rs.queue.is_empty() && rs.degraded.is_empty() {
            rs.repairing = false;
        }
        rs.rate.note_queue(rs.queue.len(), rs.queue.bytes());
        released.into_iter().map(|q| q.payload).collect()
    }

    fn build_wmi_static(desktop: &Desktop) -> RemotingMessage {
        let windows = desktop
            .wm()
            .shared_records()
            .map(|r| WireWindowRecord {
                window_id: WireWindowId(r.id.0),
                group_id: r.group,
                left: r.rect.left,
                top: r.rect.top,
                width: r.rect.width,
                height: r.rect.height,
            })
            .collect();
        RemotingMessage::WindowManagerInfo(WindowManagerInfo { windows })
    }

    fn flush_unicast(&mut self, idx: usize, now_us: u64) {
        let Some(Some(p)) = self.participants.get_mut(idx) else {
            return;
        };
        let ticks = us_to_ticks(now_us) as u32;
        match &mut p.transport {
            Transport::Tcp { link, outq } => {
                // Push queued bytes first.
                if !outq.is_empty() {
                    let n = link.send(now_us, outq);
                    outq.drain(..n);
                }
                let backlog = link.backlog(now_us) + outq.len();
                if p.rs.rate.is_adaptive() {
                    // §7's select() signal doubles as TCP's congestion
                    // signal: the controller adapts quality from the
                    // send-buffer occupancy. TCP is never byte-paced here
                    // — the buffer itself does the pacing.
                    let before = p.rs.rate.decreases();
                    p.rs.rate
                        .on_backlog(backlog, link.config().send_buf, now_us);
                    let _ = p.rs.rate.flush_budget(now_us); // refresh gauges
                    if p.rs.rate.decreases() > before {
                        if let Some(obs) = &self.obs {
                            obs.event(
                                now_us,
                                ACTOR_AH,
                                EventKind::RateDown,
                                p.rs.rate.rate_bps(now_us).unwrap_or(0),
                                RATE_CAUSE_BACKLOG,
                            );
                        }
                    }
                    Self::note_rate_change(self.obs.as_ref(), &mut p.rs, now_us);
                }
                let mut tier = if p.rs.repairing {
                    QualityTier::Lossless
                } else {
                    p.rs.rate
                        .tier()
                        .max(p.rs.tier_pin.unwrap_or(QualityTier::Lossless))
                };
                // Owed lossless repairs re-enter once the buffer is clean.
                if !p.rs.degraded.is_empty()
                    && backlog == 0
                    && (tier == QualityTier::Lossless || p.pending.is_empty())
                {
                    for (win, mut tracker) in std::mem::take(&mut p.rs.degraded) {
                        for rect in tracker.take() {
                            p.pending
                                .add_damage(self.cfg.damage_strategy, win, rect, now_us);
                        }
                    }
                    p.rs.repairing = true;
                    tier = QualityTier::Lossless;
                }
                if p.pending.is_empty() {
                    return;
                }
                if self.cfg.tcp_freshness_policy && backlog > 0 {
                    // §7: backlog present — hold pending state, send the
                    // freshest version once the buffer drains.
                    if let Some(obs) = &self.obs {
                        obs.event(
                            now_us,
                            idx as u16,
                            EventKind::BacklogSkip,
                            backlog as u64,
                            0,
                        );
                    }
                    return;
                }
                let msgs = Self::drain_pending(
                    &self.desktop,
                    &self.cfg,
                    &self.registry,
                    &self.counters,
                    &mut self.encode,
                    self.obs.as_ref(),
                    &mut p.pending,
                    None,
                    now_us,
                    tier,
                    Some(&mut p.rs.degraded),
                );
                if p.rs.repairing && tier == QualityTier::Lossless {
                    // Unbudgeted drain: the whole repair just went out.
                    p.rs.repairing = false;
                }
                // TCP frames can carry large payloads; use a large RTP
                // payload budget to minimise per-packet overhead but stay
                // under the RFC 4571 16-bit frame limit.
                for (msg, seed) in msgs.into_iter().map(|d| (d.msg, d.trace)) {
                    let frag_start = std::time::Instant::now();
                    let Ok(frags) = fragment(&msg, 60_000) else {
                        continue;
                    };
                    let fragment_us = frag_start.elapsed().as_micros() as u64;
                    self.counters.fragment_us.record(fragment_us);
                    let nfrags = frags.len() as u32;
                    let mut marker_seq = None;
                    let mut msg_bytes = 0u64;
                    for f in frags {
                        let marker = f.marker;
                        let pkt = p.sender.next_packet(ticks, marker, f.payload);
                        if marker {
                            marker_seq = Some(pkt.header.sequence);
                        }
                        self.counters.rtp_packets.inc();
                        let encoded = pkt.encode();
                        self.wire_digest = fnv1a_fold(self.wire_digest, &encoded);
                        cap_tx(
                            &self.capture,
                            CapStreamKind::Rtp,
                            CapTransport::Tcp,
                            idx as u16,
                            now_us,
                            &encoded,
                        );
                        let mut framed = Vec::with_capacity(encoded.len() + 2);
                        let _ = frame_into(&mut framed, &encoded);
                        self.counters.bytes_sent.add(framed.len() as u64);
                        msg_bytes += framed.len() as u64;
                        // Stream bytes must stay ordered: once anything is
                        // queued, everything after it queues behind it.
                        if outq.is_empty() {
                            let n = link.send(now_us, &framed);
                            if n < framed.len() {
                                outq.extend_from_slice(&framed[n..]);
                            }
                        } else {
                            outq.extend_from_slice(&framed);
                        }
                    }
                    if let Some(obs) = &self.obs {
                        obs.event(
                            now_us,
                            idx as u16,
                            EventKind::RtpTx,
                            marker_seq.unwrap_or(0) as u64,
                            ((nfrags as u64) << 32) | (msg_bytes & 0xFFFF_FFFF),
                        );
                    }
                    if let (Some(obs), Some(mut trace), Some(seq)) = (&self.obs, seed, marker_seq) {
                        trace.sent_at_us = now_us;
                        trace.fragment_wall_us = fragment_us;
                        trace.fragments = nfrags;
                        obs.traces.register(p.sender.ssrc(), seq, trace);
                    }
                }
            }
            Transport::Udp { channel, .. } => {
                let adaptive = p.rs.rate.is_adaptive();
                let rs_idle = p.rs.degraded.is_empty() && (!adaptive || p.rs.queue.is_empty());
                if p.pending.is_empty() && rs_idle {
                    if adaptive {
                        // Nothing to send, but the lazy additive increase
                        // still accrues: refresh the rate/tier gauges so an
                        // idle recovered leg reads lossless, not its last
                        // congested snapshot.
                        let _ = p.rs.rate.flush_budget(now_us);
                    }
                    return;
                }
                // Token bucket for §4.3 AH-side pacing (fixed link rate or
                // the live congestion estimate).
                let budget = p.rs.rate.flush_budget(now_us);
                Self::note_rate_change(self.obs.as_ref(), &mut p.rs, now_us);
                let msgs: Vec<(RemotingMessage, Option<FrameTrace>)> = if adaptive {
                    Self::drain_adaptive(
                        &self.desktop,
                        &self.cfg,
                        &self.registry,
                        &self.counters,
                        &mut self.encode,
                        self.obs.as_ref(),
                        &mut p.pending,
                        &mut p.rs,
                        budget,
                        now_us,
                    )
                } else {
                    // A fixed-rate leg has no congestion estimate, but a
                    // downstream TierRequest can still pin it lossy; owed
                    // repairs re-enter as soon as the pin lifts.
                    let tier = if p.rs.repairing || p.rs.tier_pin.is_none() {
                        QualityTier::Lossless
                    } else {
                        p.rs.tier_pin.unwrap_or(QualityTier::Lossless)
                    };
                    if tier == QualityTier::Lossless && !p.rs.degraded.is_empty() {
                        for (win, mut tracker) in std::mem::take(&mut p.rs.degraded) {
                            for rect in tracker.take() {
                                p.pending
                                    .add_damage(self.cfg.damage_strategy, win, rect, now_us);
                            }
                        }
                        p.rs.repairing = true;
                    }
                    let drained = Self::drain_pending(
                        &self.desktop,
                        &self.cfg,
                        &self.registry,
                        &self.counters,
                        &mut self.encode,
                        self.obs.as_ref(),
                        &mut p.pending,
                        budget,
                        now_us,
                        tier,
                        Some(&mut p.rs.degraded),
                    );
                    if p.rs.repairing && p.pending.is_empty() && p.rs.degraded.is_empty() {
                        p.rs.repairing = false;
                    }
                    drained.into_iter().map(|d| (d.msg, d.trace)).collect()
                };
                let mut sent_bytes = 0u64;
                for (msg, seed) in msgs {
                    let frag_start = std::time::Instant::now();
                    let Ok(frags) = fragment(&msg, self.cfg.mtu) else {
                        continue;
                    };
                    let fragment_us = frag_start.elapsed().as_micros() as u64;
                    self.counters.fragment_us.record(fragment_us);
                    let nfrags = frags.len() as u32;
                    let mut marker_seq = None;
                    let mut msg_bytes = 0u64;
                    for f in frags {
                        let marker = f.marker;
                        let pkt = p.sender.next_packet(ticks, marker, f.payload);
                        if marker {
                            marker_seq = Some(pkt.header.sequence);
                        }
                        self.counters.rtp_packets.inc();
                        let encoded = pkt.encode();
                        self.wire_digest = fnv1a_fold(self.wire_digest, &encoded);
                        cap_tx(
                            &self.capture,
                            CapStreamKind::Rtp,
                            CapTransport::Udp,
                            idx as u16,
                            now_us,
                            &encoded,
                        );
                        sent_bytes += encoded.len() as u64;
                        msg_bytes += encoded.len() as u64;
                        self.counters.bytes_sent.add(encoded.len() as u64);
                        channel.send(now_us, &encoded);
                        if let Some(history) = &mut p.history {
                            history.record(pkt);
                        }
                    }
                    if let Some(obs) = &self.obs {
                        obs.event(
                            now_us,
                            idx as u16,
                            EventKind::RtpTx,
                            marker_seq.unwrap_or(0) as u64,
                            ((nfrags as u64) << 32) | (msg_bytes & 0xFFFF_FFFF),
                        );
                    }
                    if let (Some(obs), Some(mut trace), Some(seq)) = (&self.obs, seed, marker_seq) {
                        trace.sent_at_us = now_us;
                        trace.fragment_wall_us = fragment_us;
                        trace.fragments = nfrags;
                        obs.traces.register(p.sender.ssrc(), seq, trace);
                    }
                }
                p.rs.rate.consume(sent_bytes);
            }
            Transport::Multicast { .. } => {}
        }
    }

    fn flush_multicast(&mut self, now_us: u64) {
        for session in 0..self.mcast.len() {
            self.flush_multicast_session(session, now_us);
        }
    }

    fn flush_multicast_session(&mut self, session: usize, now_us: u64) {
        let Some(m) = self.mcast.get_mut(session) else {
            return;
        };
        let adaptive = m.rs.rate.is_adaptive();
        let rs_idle = !adaptive || (m.rs.queue.is_empty() && m.rs.degraded.is_empty());
        if m.members.is_empty() || (m.pending.is_empty() && rs_idle) {
            return;
        }
        let ticks = us_to_ticks(now_us) as u32;
        let budget = m.rs.rate.flush_budget(now_us);
        Self::note_rate_change(self.obs.as_ref(), &mut m.rs, now_us);
        m.last_flush_us = now_us;
        let msgs: Vec<(RemotingMessage, Option<FrameTrace>)> = if adaptive {
            Self::drain_adaptive(
                &self.desktop,
                &self.cfg,
                &self.registry,
                &self.counters,
                &mut self.encode,
                self.obs.as_ref(),
                &mut m.pending,
                &mut m.rs,
                budget,
                now_us,
            )
        } else {
            Self::drain_pending(
                &self.desktop,
                &self.cfg,
                &self.registry,
                &self.counters,
                &mut self.encode,
                self.obs.as_ref(),
                &mut m.pending,
                budget,
                now_us,
                QualityTier::Lossless,
                None,
            )
            .into_iter()
            .map(|d| (d.msg, d.trace))
            .collect()
        };
        let mut sent_bytes = 0u64;
        for (msg, seed) in msgs {
            let frag_start = std::time::Instant::now();
            let Ok(frags) = fragment(&msg, self.cfg.mtu) else {
                continue;
            };
            let fragment_us = frag_start.elapsed().as_micros() as u64;
            self.counters.fragment_us.record(fragment_us);
            let nfrags = frags.len() as u32;
            let mut marker_seq = None;
            let mut msg_bytes = 0u64;
            for f in frags {
                let marker = f.marker;
                let pkt = m.sender.next_packet(ticks, marker, f.payload);
                if marker {
                    marker_seq = Some(pkt.header.sequence);
                }
                self.counters.rtp_packets.inc();
                let encoded = pkt.encode();
                self.wire_digest = fnv1a_fold(self.wire_digest, &encoded);
                cap_tx(
                    &self.capture,
                    CapStreamKind::Rtp,
                    CapTransport::Multicast,
                    ACTOR_AH,
                    now_us,
                    &encoded,
                );
                sent_bytes += encoded.len() as u64;
                msg_bytes += encoded.len() as u64;
                self.counters.bytes_sent.add(encoded.len() as u64);
                m.group.send(now_us, &encoded);
                if let Some(history) = &mut m.history {
                    history.record(pkt);
                }
            }
            if let Some(obs) = &self.obs {
                obs.event(
                    now_us,
                    ACTOR_AH,
                    EventKind::RtpTx,
                    marker_seq.unwrap_or(0) as u64,
                    ((nfrags as u64) << 32) | (msg_bytes & 0xFFFF_FFFF),
                );
            }
            if let (Some(obs), Some(mut trace), Some(seq)) = (&self.obs, seed, marker_seq) {
                trace.sent_at_us = now_us;
                trace.fragment_wall_us = fragment_us;
                trace.fragments = nfrags;
                obs.traces.register(m.sender.ssrc(), seq, trace);
            }
        }
        m.rs.rate.consume(sent_bytes);
    }
}

/// The user a chair response is addressed to.
fn bfcp_target(msg: &BfcpMessage) -> u16 {
    match msg {
        BfcpMessage::FloorRequest { user_id, .. }
        | BfcpMessage::FloorRelease { user_id, .. }
        | BfcpMessage::FloorRequestStatus { user_id, .. } => *user_id,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use adshare_remoting::registry::MouseButton;

    fn ah_with_window() -> (AppHost, WindowId) {
        let mut desktop = Desktop::new(640, 480);
        let win = desktop.create_window(1, Rect::new(100, 80, 200, 150), [200, 200, 200, 255]);
        let ah = AppHost::new(desktop, AhConfig::default(), 7);
        (ah, win)
    }

    #[test]
    fn build_wmi_reflects_wm_state() {
        let (ah, win) = ah_with_window();
        let RemotingMessage::WindowManagerInfo(wmi) = ah.build_wmi() else {
            panic!()
        };
        assert_eq!(wmi.windows.len(), 1);
        assert_eq!(wmi.windows[0].window_id.0, win.0);
        assert_eq!(wmi.windows[0].left, 100);
        assert_eq!(wmi.windows[0].width, 200);
    }

    #[test]
    fn hip_gate_rejects_outside_coordinates() {
        let (mut ah, win) = ah_with_window();
        let h = ah.attach_udp(1, LinkConfig::default(), 1, None);
        let mut rng = StdRng::seed_from_u64(1);
        let mut hip = adshare_remoting::packetizer::HipPacketizer::new(
            RtpSender::new(9, 100, &mut rng),
            1400,
        );
        let inside = HipMessage::MousePressed {
            window_id: WireWindowId(win.0),
            button: MouseButton::Left,
            left: 150,
            top: 100,
        };
        let outside = HipMessage::MousePressed {
            window_id: WireWindowId(win.0),
            button: MouseButton::Left,
            left: 10,
            top: 10,
        };
        let badwin = HipMessage::MouseMoved {
            window_id: WireWindowId(999),
            left: 150,
            top: 100,
        };
        for (msg, ok) in [(&inside, true), (&outside, false), (&badwin, false)] {
            let pkts = hip.packetize(msg, 0).unwrap();
            ah.handle_hip(h, &pkts[0].encode());
            let _ = ok;
        }
        assert_eq!(ah.stats().hip_injected, 1);
        assert_eq!(ah.stats().hip_rejected, 2);
        let injected = ah.take_injected();
        assert_eq!(injected.len(), 1);
        assert_eq!(injected[0].0, 1);
    }

    #[test]
    fn floor_gate_blocks_without_floor() {
        let (mut ah, win) = ah_with_window();
        ah.set_require_floor(true);
        let h = ah.attach_udp(5, LinkConfig::default(), 1, None);
        let mut rng = StdRng::seed_from_u64(2);
        let mut hip = adshare_remoting::packetizer::HipPacketizer::new(
            RtpSender::new(9, 100, &mut rng),
            1400,
        );
        let msg = HipMessage::MouseMoved {
            window_id: WireWindowId(win.0),
            left: 150,
            top: 100,
        };
        let pkts = hip.packetize(&msg, 0).unwrap();
        ah.handle_hip(h, &pkts[0].encode());
        assert_eq!(ah.stats().hip_rejected, 1);

        // Grant the floor via BFCP and retry.
        let req = BfcpMessage::FloorRequest {
            conference_id: 1,
            transaction_id: 1,
            user_id: 5,
            floor_id: 0,
        };
        let responses = ah.handle_bfcp(&req.encode(), 0);
        assert_eq!(responses.len(), 1);
        assert_eq!(responses[0].0, 5);
        let pkts = hip.packetize(&msg, 10).unwrap();
        ah.handle_hip(h, &pkts[0].encode());
        assert_eq!(ah.stats().hip_injected, 1);
    }

    #[test]
    fn mouse_move_drives_pointer() {
        let (mut ah, win) = ah_with_window();
        let h = ah.attach_udp(1, LinkConfig::default(), 1, None);
        let mut rng = StdRng::seed_from_u64(3);
        let mut hip = adshare_remoting::packetizer::HipPacketizer::new(
            RtpSender::new(9, 100, &mut rng),
            1400,
        );
        let msg = HipMessage::MouseMoved {
            window_id: WireWindowId(win.0),
            left: 180,
            top: 120,
        };
        let pkts = hip.packetize(&msg, 0).unwrap();
        ah.handle_hip(h, &pkts[0].encode());
        assert_eq!(ah.desktop().pointer().position(), (180, 120));
    }

    #[test]
    fn tcp_attach_gets_initial_state_immediately() {
        let (mut ah, _) = ah_with_window();
        let h = ah.attach_tcp(1, TcpConfig::default());
        ah.step(1_000);
        // Bytes start flowing without any PLI.
        let bytes = ah.poll_tcp(h, 2_000_000);
        assert!(!bytes.is_empty());
        assert!(ah.stats().wmi_msgs >= 1);
        assert!(ah.stats().region_msgs >= 1);
    }

    #[test]
    fn udp_attach_needs_pli_for_state() {
        let (mut ah, _) = ah_with_window();
        // Consume the initial desktop damage before the participant joins:
        // a late joiner must not rely on it.
        ah.step(0);
        let h = ah.attach_udp(1, LinkConfig::default(), 1, None);
        ah.step(1_000);
        assert!(ah.poll_udp(h, 10_000_000).is_empty(), "nothing until PLI");
        // PLI triggers WMI + full refresh.
        let pli = RtcpPacket::Pli(adshare_rtp::rtcp::PictureLossIndication {
            sender_ssrc: 1,
            media_ssrc: 2,
        });
        ah.handle_rtcp(h, &pli.encode(), 2_000);
        ah.step(3_000);
        let datagrams = ah.poll_udp(h, 10_000_000);
        assert!(!datagrams.is_empty());
        assert_eq!(ah.stats().full_refreshes, 1);
    }

    #[test]
    fn nack_retransmits_from_history() {
        let (mut ah, win) = ah_with_window();
        let h = ah.attach_udp(1, LinkConfig::default(), 1, None);
        let pli = RtcpPacket::Pli(adshare_rtp::rtcp::PictureLossIndication {
            sender_ssrc: 1,
            media_ssrc: 2,
        });
        ah.handle_rtcp(h, &pli.encode(), 0);
        ah.step(1_000);
        let datagrams = ah.poll_udp(h, 10_000_000);
        assert!(!datagrams.is_empty());
        // Ask for the first packet's sequence again.
        let first = RtpPacket::decode(&datagrams[0]).unwrap();
        let nack = RtcpPacket::Nack(adshare_rtp::rtcp::GenericNack::from_seqs(
            1,
            2,
            &[first.header.sequence],
        ));
        ah.handle_rtcp(h, &nack.encode(), 20_000_000);
        let retrans = ah.poll_udp(h, 30_000_000);
        assert_eq!(retrans.len(), 1);
        let again = RtpPacket::decode(&retrans[0]).unwrap();
        assert_eq!(again.header.sequence, first.header.sequence);
        assert_eq!(ah.stats().retransmits, 1);
        let _ = win;
    }

    #[test]
    fn detach_stops_flow() {
        let (mut ah, _) = ah_with_window();
        let h = ah.attach_tcp(1, TcpConfig::default());
        ah.detach(h);
        ah.step(1_000);
        assert!(ah.poll_tcp(h, 10_000_000).is_empty());
    }

    /// Decode a batch of datagrams into remoting payload types seen.
    fn payload_types(
        depkt: &mut adshare_remoting::packetizer::RemotingDepacketizer,
        datagrams: &[Vec<u8>],
    ) -> Vec<u8> {
        let mut pts = Vec::new();
        for dg in datagrams {
            let Ok(pkt) = RtpPacket::decode(dg) else {
                continue;
            };
            if let Ok(Some(RemotingMessage::RegionUpdate(ru))) = depkt.feed(&pkt) {
                pts.push(ru.payload_type);
            }
        }
        pts
    }

    #[test]
    fn tier_request_pins_fixed_leg_lossy_then_repairs_on_release() {
        let (mut ah, win) = ah_with_window();
        let h = ah.attach_udp(1, LinkConfig::default(), 1, None);
        let pli = RtcpPacket::Pli(adshare_rtp::rtcp::PictureLossIndication {
            sender_ssrc: 1,
            media_ssrc: 2,
        });
        ah.handle_rtcp(h, &pli.encode(), 0);
        ah.step(1_000);
        let mut depkt = adshare_remoting::packetizer::RemotingDepacketizer::new();
        let initial = ah.poll_udp(h, 10_000_000);
        let pts = payload_types(&mut depkt, &initial);
        assert!(!pts.is_empty());
        assert!(pts
            .iter()
            .all(|&pt| pt != adshare_codec::codec::default_pt::DCT));

        // A downstream relay subscribes Balanced: fresh damage goes lossy.
        let req = TierRequest {
            ssrc: 0x5245_0000,
            tier: QualityTier::Balanced,
        };
        ah.handle_rtcp(h, &req.encode(), 10_050_000);
        ah.desktop_mut()
            .fill(win, Rect::new(120, 100, 64, 48), [10, 200, 40, 255]);
        ah.step(10_100_000);
        let lossy = ah.poll_udp(h, 20_000_000);
        let pts = payload_types(&mut depkt, &lossy);
        assert!(
            pts.contains(&adshare_codec::codec::default_pt::DCT),
            "pinned leg must publish the lossy tier, got {pts:?}"
        );

        // Releasing the pin owes the leg a lossless repair of the same
        // region so it converges pixel-identical.
        let release = TierRequest {
            ssrc: 0x5245_0000,
            tier: QualityTier::Lossless,
        };
        ah.handle_rtcp(h, &release.encode(), 20_050_000);
        ah.step(20_100_000);
        let repaired = ah.poll_udp(h, 30_000_000);
        let pts = payload_types(&mut depkt, &repaired);
        assert!(
            !pts.is_empty()
                && pts
                    .iter()
                    .all(|&pt| pt != adshare_codec::codec::default_pt::DCT),
            "repair pass must be lossless, got {pts:?}"
        );
    }
}
