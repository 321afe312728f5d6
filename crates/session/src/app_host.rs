//! The Application Host: capture → damage → encode → packetize → pace.
//!
//! This file is the public API, the per-step capture/merge/flush driver and
//! the RTCP/HIP/BFCP handling. Turning pending state into remoting messages
//! lives in `app_host/drain.rs`, putting messages on a transport in
//! `app_host/leg.rs` (over the crate-wide [`crate::egress::Wire`] boundary).

mod drain;
mod leg;

use adshare_bfcp::{BfcpMessage, FloorChair, HidStatus};
use adshare_capture::CaptureHandle;
use adshare_codec::{CodecRegistry, Rect};
use adshare_encode::EncodePipeline;
use adshare_netsim::tcp::TcpConfig;
use adshare_netsim::udp::LinkConfig;
use adshare_obs::{EventKind, Obs, ACTOR_AH};
use adshare_rate::RateController;
use adshare_remoting::hip::HipMessage;
use adshare_remoting::keycodes;
use adshare_remoting::message::RemotingMessage;
use adshare_rtp::packet::RtpPacket;
use adshare_rtp::rtcp::{decode_compound, ReportBlock};
use adshare_rtp::session::RtpSender;
use adshare_screen::desktop::{Desktop, ScrollHint};
use adshare_screen::wm::WindowId;
use bytes::Bytes;
use rand::rngs::StdRng;
use rand::SeedableRng;

use crate::config::{AhConfig, PointerPolicy};
use crate::egress::{Tap, Wire};
use drain::{CodecMetricsByPt, Pending};
use leg::Leg;

/// Identifies an attached participant at the AH.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct ParticipantHandle(pub usize);

adshare_obs::metric_set! {
    /// Live handles behind [`AhStats`]: shared atomics, so the same counts
    /// are exported under `ah.*` once an [`Obs`] is attached while the POD
    /// accessor keeps working.
    struct AhCounters {
        /// Wall-clock µs per region encode (cache misses only).
        encode_us: histogram "encode_us",
        /// Wall-clock µs per message fragmentation pass.
        fragment_us: histogram "fragment_us",
    }
    /// AH-side cumulative statistics.
    pub struct AhStats {
        /// WindowManagerInfo messages sent (counting per participant).
        wmi_msgs: counter "wmi_msgs",
        /// RegionUpdate messages sent.
        region_msgs: counter "region_msgs",
        /// MoveRectangle messages sent.
        move_msgs: counter "move_msgs",
        /// MousePointerInfo messages sent.
        pointer_msgs: counter "pointer_msgs",
        /// Distinct region encodes performed (cache misses).
        encodes: counter "encodes",
        /// Encoded payload bytes produced (before packetization).
        encoded_bytes: counter "encoded_bytes",
        /// RTP packets emitted.
        rtp_packets: counter "rtp_packets",
        /// Bytes offered to transports.
        bytes_sent: counter "tx_bytes",
        /// NACK-triggered retransmissions (`ah.retransmissions` is the
        /// canonical metric name).
        retransmits: counter "retransmissions",
        /// Multicast retransmissions suppressed by the dedup window (another
        /// member already triggered the same repair).
        retransmits_suppressed: counter "retransmissions_suppressed",
        /// PLI-triggered full refreshes.
        full_refreshes: counter "full_refreshes",
        /// RR-driven tail-loss repairs (receiver behind the send tail with no
        /// later packet to reveal the gap; repaired from history).
        tail_repairs: counter "tail_repairs",
        /// RegionUpdates sent as a reference to a tile the viewer reported
        /// holding, instead of its pixels.
        refs_sent: counter "refs_sent",
        /// References a viewer could not resolve (its miss reports), each
        /// answered with a full refresh.
        ref_misses: counter "ref_misses",
        /// RTCP sender reports emitted.
        sr_sent: counter "sr_sent",
        /// HIP events accepted and injected.
        hip_injected: counter "hip_injected",
        /// HIP events rejected by the §4.1 legitimacy gate or floor control.
        hip_rejected: counter "hip_rejected",
    }
}

/// One attached participant: who it is and which leg carries its stream.
#[derive(Debug)]
struct Member {
    user_id: u16,
    /// Slot of the leg in [`AppHost::legs`]: its own for unicast, its
    /// session's for a multicast member.
    leg: usize,
    /// Receiver index on that leg's wire (the group member; 0 for unicast).
    receiver: usize,
    /// Latest RTCP receiver-report block from this participant: the AH's
    /// view of its reception quality (loss fraction, jitter).
    last_report: Option<ReportBlock>,
}

/// What a leg reads or updates besides itself: the rest of the AH,
/// borrowed field by field so a leg can be borrowed alongside.
struct Cx<'a> {
    desktop: &'a Desktop,
    cfg: &'a AhConfig,
    registry: &'a CodecRegistry,
    counters: &'a AhCounters,
    encode: &'a mut EncodePipeline,
    codec_metrics: &'a mut CodecMetricsByPt,
    obs: Option<&'a Obs>,
    tap: &'a mut Tap,
}

impl Cx<'_> {
    /// Record a flight-recorder event, if observed.
    fn event(&self, now_us: u64, actor: u16, kind: EventKind, a: u64, b: u64) {
        if let Some(obs) = self.obs {
            obs.event(now_us, actor, kind, a, b);
        }
    }
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
    /// Attached participants by handle; `None` once detached.
    participants: Vec<Option<Member>>,
    /// Every egress path, in creation order: one leg per unicast
    /// participant (freed on detach) and one per multicast session.
    legs: Vec<Option<Leg>>,
    /// Multicast session index → slot of its leg in `legs` (§4.3 allows
    /// several simultaneous sessions with different transmission rates).
    mcast: Vec<usize>,
    injected: Vec<(u16, HipMessage)>,
    counters: AhCounters,
    /// Tile-encode pipeline: damage tiling, the cross-frame
    /// content-addressed encode cache (shared by every participant and
    /// transport), and the worker pool for parallel cache-miss encoding.
    encode: EncodePipeline,
    /// `codec.{name}.*` handles, resolved once per payload type.
    codec_metrics: CodecMetricsByPt,
    /// Observability bundle when attached; counters flow regardless, the
    /// bundle adds registry export and frame tracing.
    obs: Option<Obs>,
    last_pointer_rect: Option<Rect>,
    /// Windows known to be shared as of the previous step; a window
    /// entering this set needs a full-content transmission.
    known_shared: std::collections::HashSet<WindowId>,
    /// Encode-cache evictions already reported to the flight recorder.
    last_evictions: u64,
    /// Order-sensitive digest over every RTP/RTCP packet this AH produced
    /// (pre-framing) and the consent-gated capture sink, when armed. Both
    /// are updated inside [`Wire::send`], so capture record order equals
    /// fold order and a replay can reproduce the digest. Two runs with
    /// identical wire output — the guarantee the multi-tenant host's
    /// parity tests pin down — have equal digests.
    tap: Tap,
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
            codec_metrics: CodecMetricsByPt::default(),
            cfg,
            registry: CodecRegistry::default(),
            rng: StdRng::seed_from_u64(seed),
            require_floor: false,
            participants: Vec::new(),
            legs: Vec::new(),
            mcast: Vec::new(),
            injected: Vec::new(),
            counters: AhCounters::default(),
            obs: None,
            last_pointer_rect: None,
            last_evictions: 0,
            tap: Tap::default(),
        }
    }

    /// Order-sensitive digest of every packet produced so far — equal
    /// digests mean byte-identical wire output in identical order.
    pub fn wire_digest(&self) -> u64 {
        self.tap.digest()
    }

    /// Attach an armed capture sink: from now on every egress RTP/RTCP
    /// packet is recorded next to its `wire_digest` fold, in fold order.
    pub fn attach_capture(&mut self, capture: CaptureHandle) {
        self.tap.attach_capture(capture);
    }

    /// The armed capture sink, if any.
    pub fn capture(&self) -> Option<&CaptureHandle> {
        self.tap.capture()
    }

    /// Record a flight-recorder event under the AH actor, if observed.
    fn rec_event(&self, now_us: u64, kind: EventKind, a: u64, b: u64) {
        if let Some(obs) = &self.obs {
            obs.event(now_us, ACTOR_AH, kind, a, b);
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
    /// register every existing leg's transport, controller and history,
    /// and start registering frame traces at packetize time so participants
    /// can complete them. Legs attached later register themselves.
    pub fn attach_obs(&mut self, obs: Obs) {
        self.counters.register(&obs.registry, "ah");
        self.encode.register_metrics(&obs.registry, "ah.encode");
        for leg in self.legs.iter().flatten() {
            leg.register_metrics(&obs.registry);
        }
        self.obs = Some(obs);
    }

    /// The attached observability bundle, if any.
    pub fn obs(&self) -> Option<&Obs> {
        self.obs.as_ref()
    }

    /// The AH's fields a leg works against, split from the legs themselves
    /// so both can be borrowed at once.
    fn parts(&mut self) -> (Cx<'_>, &mut [Option<Leg>]) {
        let cx = Cx {
            desktop: &self.desktop,
            cfg: &self.cfg,
            registry: &self.registry,
            counters: &self.counters,
            encode: &mut self.encode,
            codec_metrics: &mut self.codec_metrics,
            obs: self.obs.as_ref(),
            tap: &mut self.tap,
        };
        (cx, &mut self.legs)
    }

    /// Where `handle`'s stream goes: `(leg slot, receiver index)`.
    fn route(&self, handle: ParticipantHandle) -> Option<(usize, usize)> {
        let member = self.participants.get(handle.0)?.as_ref()?;
        Some((member.leg, member.receiver))
    }

    /// The leg governing `handle`'s sends: its own for unicast, the
    /// session's for a multicast member.
    fn leg(&self, handle: ParticipantHandle) -> Option<&Leg> {
        self.legs[self.route(handle)?.0].as_ref()
    }

    /// Create the leg for a new path — a unicast participant's (it takes
    /// the next handle index as its actor) or a multicast session's — and
    /// register its metrics if observed. Returns its slot.
    fn add_leg(&mut self, wire: Wire, ssrc: u32, rate_bps: Option<u64>) -> usize {
        let sender = RtpSender::new(ssrc, self.cfg.remoting_pt, &mut self.rng);
        // Adaptive when the config enables it (the static `rate_bps` then
        // caps the estimate), else the fixed-rate pacer.
        let rate = match self.cfg.adaptive_rate {
            Some(rc) => RateController::new_adaptive(rc, rate_bps, self.cfg.mtu),
            None => RateController::new_fixed(rate_bps, self.cfg.mtu),
        };
        let (actor, prefix) = if wire.is_group() {
            (ACTOR_AH, format!("ah.mcast.{}", self.mcast.len()))
        } else {
            let idx = self.participants.len();
            (idx as u16, format!("ah.participant.{idx}"))
        };
        let leg = Leg::new(wire, sender, rate, &self.cfg, actor, prefix);
        if let Some(obs) = &self.obs {
            leg.register_metrics(&obs.registry);
        }
        self.legs.push(Some(leg));
        self.legs.len() - 1
    }

    fn add_member(&mut self, user_id: u16, leg: usize, receiver: usize) -> ParticipantHandle {
        self.participants.push(Some(Member {
            user_id,
            leg,
            receiver,
            last_report: None,
        }));
        ParticipantHandle(self.participants.len() - 1)
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
        let ssrc = 0x41480000 | user_id as u32;
        let leg = self.add_leg(Wire::udp(link, seed), ssrc, rate_bps);
        self.add_member(user_id, leg, 0)
    }

    /// Attach a participant over a raw queue: its datagrams pile up for the
    /// caller to ship over a real socket ([`AppHost::poll_udp_bytes`]).
    /// Like a UDP participant it sends a PLI to receive initial state.
    pub fn attach_raw(&mut self, user_id: u16) -> ParticipantHandle {
        let ssrc = 0x41480000 | user_id as u32;
        let leg = self.add_leg(Wire::raw(), ssrc, None);
        self.add_member(user_id, leg, 0)
    }

    /// Attach a TCP participant. Initial state is sent immediately (§4.4:
    /// "right after the TCP connection establishment").
    pub fn attach_tcp(&mut self, user_id: u16, link: TcpConfig) -> ParticipantHandle {
        let ssrc = 0x41480000 | user_id as u32;
        // TCP is never byte-paced here (the link backpressures); the
        // controller still adapts quality from the backlog signal.
        let slot = self.add_leg(Wire::tcp(link), ssrc, None);
        let leg = self.legs[slot].as_mut().expect("just added");
        Self::schedule_full_refresh(&self.desktop, &self.cfg, &mut leg.pending, 0);
        self.add_member(user_id, slot, 0)
    }

    /// Create a multicast session with its own pacing rate; returns its
    /// index. §4.3: "Several simultaneous multicast sessions with different
    /// transmission rates can be created at the AH."
    pub fn create_multicast_session(&mut self, rate_bps: Option<u64>) -> usize {
        let ssrc = 0x4d430001 + self.mcast.len() as u32;
        let slot = self.add_leg(Wire::multicast(), ssrc, rate_bps);
        self.mcast.push(slot);
        self.mcast.len() - 1
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
        let slot = *self.mcast.get(session)?;
        let leg = self.legs[slot].as_mut().expect("sessions are never freed");
        let receiver = (leg.link.out.wire)
            .join(link, seed)
            .expect("session legs are groups");
        if let Some(obs) = &self.obs {
            // Re-registration is idempotent for existing members and picks
            // up the newly joined one.
            leg.register_metrics(&obs.registry);
        }
        Some(self.add_member(user_id, slot, receiver))
    }

    /// Detach a participant (session end). A unicast leg goes with it; a
    /// multicast session keeps sending to its group.
    pub fn detach(&mut self, handle: ParticipantHandle) {
        let Some(member) = self.participants.get_mut(handle.0).and_then(Option::take) else {
            return;
        };
        if self.legs[member.leg].as_ref().is_some_and(|l| !l.shared()) {
            self.legs[member.leg] = None;
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
        let Some((slot, _)) = self.route(handle) else {
            return;
        };
        if let Some(channel) = self.legs[slot]
            .as_mut()
            .and_then(|l| l.link.out.wire.udp_link_mut())
        {
            channel.set_schedule(steps);
        }
    }

    /// Multiplicative rate decreases this participant's congestion
    /// controller has applied so far (0 for fixed-rate paths; a multicast
    /// member reports its session's shared controller).
    pub fn rate_decreases(&self, handle: ParticipantHandle) -> u64 {
        self.leg(handle).map_or(0, |l| l.rs.rate.decreases())
    }

    /// The AH egress byte count for one participant's transport.
    pub fn participant_bytes_sent(&self, handle: ParticipantHandle) -> u64 {
        self.leg(handle).map_or(0, |l| l.link.out.wire.bytes_sent())
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
        for leg in self.legs.iter_mut().flatten() {
            if leg.link.out.wire.has_receivers() {
                merge(&mut leg.pending);
            }
        }

        // 3. Flush per leg. The encode pipeline's content-addressed cache
        // is shared across all of them (and across frames): identical
        // pixels encode once no matter which participant or transport asks,
        // and the quality tier is part of the cache key so participants at
        // different tiers never share an encode.
        self.encode.begin_step();
        self.each_leg(|leg, cx| leg.flush(cx, now_us));
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
        self.each_leg(|leg, cx| leg.emit_sender_report(cx, now_us));
    }

    /// Visit every leg in wire order: unicast participants in handle
    /// order, then multicast sessions in index order. `step` flushes and
    /// then reports in this order, and the wire digest pins it.
    fn each_leg(&mut self, mut visit: impl FnMut(&mut Leg, &mut Cx<'_>)) {
        let (mut cx, legs) = self.parts();
        for shared in [false, true] {
            for leg in legs.iter_mut().flatten().filter(|l| l.shared() == shared) {
                visit(leg, &mut cx);
            }
        }
    }

    /// Datagrams arriving at a UDP participant by `now_us`, each the very
    /// buffer its packet was serialised into (the link queued a handle).
    pub fn poll_udp_bytes(&mut self, handle: ParticipantHandle, now_us: u64) -> Vec<Bytes> {
        let Some((slot, receiver)) = self.route(handle) else {
            return Vec::new();
        };
        match &mut self.legs[slot] {
            Some(leg) => leg.link.out.wire.poll(receiver, now_us),
            None => Vec::new(),
        }
    }

    /// [`AppHost::poll_udp_bytes`] with every datagram copied out into a
    /// `Vec` of its own — the older spelling, for callers that want to own
    /// plain vectors.
    pub fn poll_udp(&mut self, handle: ParticipantHandle, now_us: u64) -> Vec<Vec<u8>> {
        let datagrams = self.poll_udp_bytes(handle, now_us);
        datagrams.iter().map(Bytes::to_vec).collect()
    }

    /// Stream bytes arriving at a TCP participant by `now_us`.
    pub fn poll_tcp(&mut self, handle: ParticipantHandle, now_us: u64) -> Vec<u8> {
        let Some((slot, _)) = self.route(handle) else {
            return Vec::new();
        };
        match &mut self.legs[slot] {
            Some(leg) => leg.link.out.wire.poll_stream(now_us),
            None => Vec::new(),
        }
    }

    /// Handle RTCP feedback (PLI / NACK / RR / APP) from a participant
    /// (§5.3), one packet at a time, through its leg.
    pub fn handle_rtcp(&mut self, handle: ParticipantHandle, bytes: &[u8], now_us: u64) {
        let Ok(packets) = decode_compound(bytes) else {
            return;
        };
        let Some((slot, _)) = self.route(handle) else {
            return;
        };
        let (mut cx, legs) = self.parts();
        let Some(leg) = legs[slot].as_mut() else {
            return;
        };
        let mut report = None;
        for pkt in &packets {
            report = leg.on_rtcp(&mut cx, pkt, handle.0, now_us).or(report);
        }
        if let (Some(block), Some(Some(member))) = (report, self.participants.get_mut(handle.0)) {
            member.last_report = Some(block);
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
        self.legs
            .iter()
            .flatten()
            .filter_map(|l| l.link.out.wire.next_event_us())
            .min()
    }

    /// Whether any path still holds unflushed work — pending damage, a
    /// non-empty pacer queue, owed lossless repairs, or TCP bytes queued
    /// behind a full send buffer. A host can skip stepping a session whose
    /// workload is idle and whose paths report nothing pending.
    pub fn has_pending(&self) -> bool {
        self.legs.iter().flatten().any(Leg::has_pending)
    }

    /// Take the HIP events accepted so far: (user, event).
    pub fn take_injected(&mut self) -> Vec<(u16, HipMessage)> {
        std::mem::take(&mut self.injected)
    }

    /// The latest RTCP receiver report from a participant — the AH's view
    /// of that path's loss fraction and jitter (RFC 3550 §6.4).
    pub fn reception_report(&self, handle: ParticipantHandle) -> Option<&ReportBlock> {
        self.participants
            .get(handle.0)
            .and_then(|p| p.as_ref())
            .and_then(|p| p.last_report.as_ref())
    }

    /// Build a WindowManagerInfo message reflecting current WM state
    /// (exposed for tests and the real-socket examples).
    pub fn build_wmi(&self) -> RemotingMessage {
        Self::build_wmi_static(&self.desktop)
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
    use adshare_layers::TierRequest;
    use adshare_rate::QualityTier;
    use adshare_remoting::registry::MouseButton;
    use adshare_remoting::WindowId as WireWindowId;
    use adshare_rtp::rtcp::RtcpPacket;

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
        // One tier rule for every fixed-rate leg: a unicast participant's
        // and a multicast session's (pinned by one of its members).
        tier_request_round_trip(|ah| ah.attach_udp(1, LinkConfig::default(), 1, None));
        tier_request_round_trip(|ah| ah.attach_multicast(1, LinkConfig::default(), 1));
    }

    fn tier_request_round_trip(attach: impl FnOnce(&mut AppHost) -> ParticipantHandle) {
        let (mut ah, win) = ah_with_window();
        let h = attach(&mut ah);
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
