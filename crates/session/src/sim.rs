//! Deterministic session orchestrator: binds one [`AppHost`] and N
//! [`Participant`]s over simulated links and steps the whole world on a
//! virtual clock. Every experiment and integration test drives this.

use adshare_capture::{
    CaptureConfig, CaptureError, CaptureHandle, CaptureMode, Direction as CapDirection,
    ManifestSummary, StreamKind as CapStreamKind, Transport as CapTransport,
};
use adshare_netsim::tcp::TcpConfig;
use adshare_netsim::time::{us_to_ticks, VirtualClock};
use adshare_netsim::udp::{LinkConfig, UdpChannel};
use adshare_obs::{EventKind, Obs, ACTOR_AH};
use adshare_remoting::hip::HipMessage;
use adshare_screen::desktop::Desktop;

use crate::app_host::{AppHost, ParticipantHandle};
use crate::config::{AhConfig, Layout, TransportKind};
use crate::ingress::is_rtcp;
use crate::participant::Participant;

/// Arm a consent-gated capture on `ah`'s egress at `now_us`, shared by
/// [`SimSession`] and the relay simulation. `now_us` comes from the
/// caller's clock, so capture records and flight-recorder events share one
/// virtual-time origin and a merged timeline never shows negative spans.
/// Fails with [`CaptureError::ConsentRequired`] unless `consent` is set.
pub fn arm_capture(
    ah: &mut AppHost,
    obs: &Obs,
    now_us: u64,
    consent: bool,
    mode: CaptureMode,
    session_id: u64,
) -> Result<CaptureHandle, CaptureError> {
    let cap = CaptureHandle::arm(CaptureConfig {
        consent,
        mode,
        session_id,
        start_us: now_us,
    })?;
    cap.attach_obs(obs.clone());
    ah.attach_capture(cap.clone());
    let (ring, window) = match mode {
        CaptureMode::Ring { window_us } => (1, window_us),
        CaptureMode::Full => (0, 0),
    };
    obs.event(now_us, ACTOR_AH, EventKind::CaptureArmed, ring, window);
    Ok(cap)
}

/// Hook an armed ring capture into the health engine: when a CRITICAL
/// black-box dump fires, the ring (with the flight-recorder snapshot
/// embedded) is written into `dir` next to the dump and its path is
/// reported in the black-box JSON as `capture_path`.
pub fn dump_capture_on_critical(obs: &Obs, cap: CaptureHandle, dir: std::path::PathBuf) {
    let recorder = obs.recorder.clone();
    obs.health
        .lock()
        .expect("health engine poisoned")
        .set_capture_hook(Box::new(move |at_us| {
            cap.finalize(&recorder.snapshot());
            let path = dir.join(format!("capture-critical-{at_us}.bin"));
            cap.write_to(&path)
                .ok()
                .map(|()| path.display().to_string())
        }));
}

struct SimParticipant {
    handle: ParticipantHandle,
    participant: Participant,
    kind: TransportKind,
    /// Upstream path for RTCP feedback and HIP events: RTCP datagrams are
    /// prefixed 'R', HIP datagrams 'H', BFCP 'B' (the real system uses
    /// distinct ports; the tag models exactly that demultiplexing).
    upstream: UdpChannel,
    /// False once the viewer has left (churn); the slot stays so other
    /// participants keep their indices.
    active: bool,
}

/// A complete simulated sharing session.
pub struct SimSession {
    /// The application host.
    pub ah: AppHost,
    /// The virtual clock.
    pub clock: VirtualClock,
    participants: Vec<SimParticipant>,
    /// Shared observability bundle: the AH and every participant export
    /// into its registry and thread frame traces through it.
    obs: Obs,
    /// Armed capture sink, cloned into the AH. The session-level taps
    /// (ingress, upstream demux, gap recovery) write through this handle
    /// with the same virtual clock the flight recorder stamps.
    capture: Option<CaptureHandle>,
}

impl SimSession {
    /// Create a session around a desktop.
    pub fn new(desktop: Desktop, cfg: AhConfig, seed: u64) -> Self {
        let encode = adshare_encode::EncodePipeline::new(cfg.encode);
        Self::new_with_pipeline(desktop, cfg, seed, encode)
    }

    /// Create a session whose AH uses an externally built encode pipeline
    /// — the multi-tenant host's injection point for the process-wide
    /// shared cache and bounded worker pool.
    pub fn new_with_pipeline(
        desktop: Desktop,
        cfg: AhConfig,
        seed: u64,
        encode: adshare_encode::EncodePipeline,
    ) -> Self {
        let obs = Obs::new();
        let mut ah = AppHost::new_with_pipeline(desktop, cfg, seed, encode);
        ah.attach_obs(obs.clone());
        SimSession {
            ah,
            clock: VirtualClock::new(),
            participants: Vec::new(),
            obs,
            capture: None,
        }
    }

    /// Arm a consent-gated capture covering the AH egress and every
    /// session-level delivery point (see [`arm_capture`]).
    pub fn arm_capture(
        &mut self,
        consent: bool,
        mode: CaptureMode,
        session_id: u64,
    ) -> Result<CaptureHandle, CaptureError> {
        let now = self.clock.now_us();
        let cap = arm_capture(&mut self.ah, &self.obs, now, consent, mode, session_id)?;
        self.capture = Some(cap.clone());
        Ok(cap)
    }

    /// The armed capture handle, if any.
    pub fn capture(&self) -> Option<&CaptureHandle> {
        self.capture.as_ref()
    }

    /// Freeze the capture, embedding the flight-recorder ring so
    /// historical Perfetto export works from the capture file alone.
    /// Idempotent; `None` when no capture is armed.
    pub fn finalize_capture(&mut self) -> Option<&CaptureHandle> {
        let cap = self.capture.as_ref()?;
        if !cap.finalized() {
            cap.finalize(&self.obs.recorder.snapshot());
            let stats = cap.stats();
            self.obs.event(
                self.clock.now_us(),
                ACTOR_AH,
                EventKind::CaptureFlushed,
                stats.records,
                stats.payload_bytes,
            );
        }
        self.capture.as_ref()
    }

    /// Manifest of the armed capture: stream census, explicit truncation
    /// accounting, the capture's wire digest, and a decoded-surface digest
    /// per active participant — the replay acceptance record.
    pub fn capture_manifest(&self) -> Option<ManifestSummary> {
        let cap = self.capture.as_ref()?;
        let digests = self
            .participants
            .iter()
            .enumerate()
            .filter(|(_, sp)| sp.active)
            .map(|(idx, sp)| {
                (
                    idx as u16,
                    crate::replay::participant_surface_digest(&sp.participant),
                )
            })
            .collect();
        Some(ManifestSummary::from_handle(cap, digests))
    }

    /// Auto-arm a bounded ring capture and hook it into the health engine:
    /// when a CRITICAL black-box dump fires, the ring (with the
    /// flight-recorder snapshot embedded) is written next to the dump and
    /// its path is reported in the black-box JSON as `capture_path`.
    /// `consent` is still required — auto-arming does not bypass the gate.
    pub fn enable_auto_capture(
        &mut self,
        consent: bool,
        window_us: u64,
        dir: std::path::PathBuf,
        session_id: u64,
    ) -> Result<(), CaptureError> {
        let cap = self.arm_capture(consent, CaptureMode::Ring { window_us }, session_id)?;
        dump_capture_on_critical(&self.obs, cap, dir);
        Ok(())
    }

    /// The session-wide observability bundle (registry + frame traces).
    pub fn obs(&self) -> &Obs {
        &self.obs
    }

    /// Bootstrap a session from SDP offer/answer (§10): build the AH's
    /// offer, negotiate against the participant's transport preference and
    /// codec support, and configure the session with the agreed parameters.
    /// Returns the session plus the negotiation outcome (ports, payload
    /// types, codec list) for the caller's signalling layer.
    pub fn from_negotiation(
        desktop: Desktop,
        offer: &adshare_sdp::OfferParams,
        prefer: adshare_sdp::answer::Transport,
        supported: &[adshare_codec::CodecKind],
        seed: u64,
    ) -> Result<(Self, adshare_sdp::NegotiatedSession), adshare_sdp::Error> {
        let sdp = adshare_sdp::build_ah_offer(offer);
        let negotiated = adshare_sdp::build_answer(&sdp, prefer, supported)?;
        let cfg = AhConfig {
            remoting_pt: negotiated.remoting_pt,
            retransmissions: negotiated.retransmissions,
            codec: negotiated
                .codecs
                .first()
                .map(|(_, k)| *k)
                .unwrap_or(adshare_codec::CodecKind::Png),
            ..AhConfig::default()
        };
        Ok((SimSession::new(desktop, cfg, seed), negotiated))
    }

    /// Add a UDP participant. Per §4.3 it immediately queues a PLI to fetch
    /// initial state.
    pub fn add_udp_participant(
        &mut self,
        layout: Layout,
        down: LinkConfig,
        up: LinkConfig,
        rate_bps: Option<u64>,
        seed: u64,
    ) -> usize {
        let user_id = self.participants.len() as u16 + 1;
        let handle = self.ah.attach_udp(user_id, down, seed, rate_bps);
        let nack = self.ah.config().retransmissions;
        let mut participant = Participant::new(user_id, layout, nack, seed ^ 0x9e37);
        let idx = self.participants.len();
        participant.attach_obs(&self.obs, idx);
        participant.request_refresh();
        let upstream = UdpChannel::new(up, seed ^ 0x1234);
        upstream.register_metrics(&self.obs.registry, &format!("participant.{idx}.upstream"));
        self.participants.push(SimParticipant {
            handle,
            participant,
            kind: TransportKind::Udp,
            upstream,
            active: true,
        });
        idx
    }

    /// Add a TCP participant (initial state flows immediately, §4.4).
    pub fn add_tcp_participant(
        &mut self,
        layout: Layout,
        link: TcpConfig,
        up: LinkConfig,
        seed: u64,
    ) -> usize {
        let user_id = self.participants.len() as u16 + 1;
        let handle = self.ah.attach_tcp(user_id, link);
        let mut participant = Participant::new(user_id, layout, false, seed ^ 0x9e37);
        let idx = self.participants.len();
        participant.attach_obs(&self.obs, idx);
        let upstream = UdpChannel::new(up, seed ^ 0x1234);
        upstream.register_metrics(&self.obs.registry, &format!("participant.{idx}.upstream"));
        self.participants.push(SimParticipant {
            handle,
            participant,
            kind: TransportKind::Tcp,
            upstream,
            active: true,
        });
        idx
    }

    /// Create an additional multicast session with its own pacing rate
    /// (§4.3); returns its session index for
    /// [`SimSession::add_multicast_participant_in`].
    pub fn create_multicast_session(&mut self, rate_bps: Option<u64>) -> usize {
        self.ah.create_multicast_session(rate_bps)
    }

    /// Add a member to the default multicast session.
    pub fn add_multicast_participant(
        &mut self,
        layout: Layout,
        down: LinkConfig,
        up: LinkConfig,
        seed: u64,
    ) -> usize {
        self.ah.enable_multicast(None);
        self.add_multicast_participant_in(0, layout, down, up, seed)
    }

    /// Add a member to a specific multicast session.
    pub fn add_multicast_participant_in(
        &mut self,
        session: usize,
        layout: Layout,
        down: LinkConfig,
        up: LinkConfig,
        seed: u64,
    ) -> usize {
        let user_id = self.participants.len() as u16 + 1;
        let handle = self
            .ah
            .attach_multicast_session(session, user_id, down, seed)
            .expect("multicast session exists");
        let nack = self.ah.config().retransmissions;
        let mut participant = Participant::new(user_id, layout, nack, seed ^ 0x9e37);
        let idx = self.participants.len();
        participant.attach_obs(&self.obs, idx);
        // §5.3.2 NACK-storm avoidance: group members jitter their NACKs by
        // up to ~50 ms so one member's repair serves the others.
        participant.set_nack_backoff(4_500);
        participant.request_refresh();
        let upstream = UdpChannel::new(up, seed ^ 0x1234);
        upstream.register_metrics(&self.obs.registry, &format!("participant.{idx}.upstream"));
        self.participants.push(SimParticipant {
            handle,
            participant,
            kind: TransportKind::Multicast,
            upstream,
            active: true,
        });
        idx
    }

    /// Schedule time-varying downlink conditions for a UDP participant's
    /// downstream channel (bandwidth steps, loss changes) — the substrate
    /// for rate-adaptation experiments.
    pub fn set_link_schedule(&mut self, idx: usize, steps: Vec<adshare_netsim::LinkStep>) {
        let handle = self.participants[idx].handle;
        self.ah.set_link_schedule(handle, steps);
    }

    /// Number of participants.
    pub fn participant_count(&self) -> usize {
        self.participants.len()
    }

    /// Access a participant.
    pub fn participant(&self, idx: usize) -> &Participant {
        &self.participants[idx].participant
    }

    /// Access a participant mutably.
    pub fn participant_mut(&mut self, idx: usize) -> &mut Participant {
        &mut self.participants[idx].participant
    }

    /// The AH-side handle of a participant.
    pub fn handle(&self, idx: usize) -> ParticipantHandle {
        self.participants[idx].handle
    }

    /// Advance the world by `dt_us`: AH captures and flushes, links
    /// deliver, participants apply and feed back.
    pub fn step(&mut self, dt_us: u64) {
        self.clock.advance_us(dt_us);
        let now = self.clock.now_us();
        let ticks = us_to_ticks(now);

        self.ah.step(now);

        let mut bfcp_responses: Vec<(u16, Vec<u8>)> = Vec::new();
        let capture = self.capture.clone();
        for (idx, sp) in self.participants.iter_mut().enumerate() {
            if !sp.active {
                continue;
            }
            // Downstream.
            match sp.kind {
                TransportKind::Udp | TransportKind::Multicast => {
                    let transport = if sp.kind == TransportKind::Multicast {
                        CapTransport::Multicast
                    } else {
                        CapTransport::Udp
                    };
                    for dg in self.ah.poll_udp_bytes(sp.handle, now) {
                        if let Some(cap) = &capture {
                            cap.record(
                                CapDirection::Rx,
                                if is_rtcp(&dg) {
                                    CapStreamKind::Rtcp
                                } else {
                                    CapStreamKind::Rtp
                                },
                                transport,
                                idx as u16,
                                now,
                                &dg,
                            );
                        }
                        sp.participant.handle_datagram_bytes(dg, ticks);
                    }
                }
                TransportKind::Tcp => {
                    let bytes = self.ah.poll_tcp(sp.handle, now);
                    if !bytes.is_empty() {
                        if let Some(cap) = &capture {
                            cap.record(
                                CapDirection::Rx,
                                CapStreamKind::Rtp,
                                CapTransport::Tcp,
                                idx as u16,
                                now,
                                &bytes,
                            );
                        }
                        sp.participant.handle_stream(&bytes, ticks);
                    }
                }
            }
            if sp.participant.watch_gap(ticks) {
                if let Some(cap) = &capture {
                    // Control marker: replay must skip the same hole.
                    cap.record_gap_recover(idx as u16, now);
                }
            }

            // Housekeeping (resync retry for unsynced joiners).
            sp.participant.tick(ticks);

            // Upstream RTCP.
            if let Some(bytes) = sp.participant.take_rtcp() {
                let mut tagged = Vec::with_capacity(bytes.len() + 1);
                tagged.push(b'R');
                tagged.extend_from_slice(&bytes);
                sp.upstream.send(now, &tagged);
            }
            // Deliver upstream traffic to the AH.
            let cap_up = |kind: CapStreamKind, payload: &[u8]| {
                if let Some(cap) = &capture {
                    cap.record(
                        CapDirection::Up,
                        kind,
                        CapTransport::Udp,
                        idx as u16,
                        now,
                        payload,
                    );
                }
            };
            for dg in sp.upstream.poll(now) {
                match dg.split_first() {
                    Some((b'R', rest)) => {
                        cap_up(CapStreamKind::Rtcp, rest);
                        self.ah.handle_rtcp(sp.handle, rest, now);
                    }
                    Some((b'H', rest)) => {
                        cap_up(CapStreamKind::Hip, rest);
                        self.ah.handle_hip(sp.handle, rest);
                    }
                    Some((b'B', rest)) => {
                        cap_up(CapStreamKind::Bfcp, rest);
                        // BFCP runs on its own reliable connection; its
                        // responses are routed after the delivery loop.
                        bfcp_responses.extend(self.ah.handle_bfcp(rest, now));
                    }
                    _ => {}
                }
            }
        }
        self.route_bfcp(bfcp_responses);
        // Floor timers.
        let notices = self.ah.tick_floor(now);
        self.route_bfcp(notices);
    }

    /// A participant sends a HIP event (travels the upstream link).
    pub fn send_hip(&mut self, idx: usize, msg: &HipMessage) {
        let now = self.clock.now_us();
        let ticks = us_to_ticks(now);
        let datagrams = self.participants[idx].participant.send_hip(msg, ticks);
        for dg in datagrams {
            let mut tagged = Vec::with_capacity(dg.len() + 1);
            tagged.push(b'H');
            tagged.extend_from_slice(&dg);
            self.participants[idx].upstream.send(now, &tagged);
        }
    }

    /// A participant requests the BFCP floor (exchange is immediate: BFCP
    /// runs on its own reliable connection).
    pub fn request_floor(&mut self, idx: usize) {
        let now = self.clock.now_us();
        let Some(msg) = self.participants[idx]
            .participant
            .floor_mut()
            .request_floor()
        else {
            return;
        };
        let responses = self.ah.handle_bfcp(&msg.encode(), now);
        self.route_bfcp(responses);
    }

    /// A participant releases the BFCP floor.
    pub fn release_floor(&mut self, idx: usize) {
        let now = self.clock.now_us();
        let Some(msg) = self.participants[idx]
            .participant
            .floor_mut()
            .release_floor()
        else {
            return;
        };
        let responses = self.ah.handle_bfcp(&msg.encode(), now);
        self.route_bfcp(responses);
    }

    /// Like [`SimSession::request_floor`], but the request travels the
    /// participant's (lossy, duplicating, reordering) upstream link instead
    /// of the idealized reliable exchange — the storm scenarios use this to
    /// subject the chair to the retransmissions and duplicates a real
    /// unreliable-transport BFCP deployment produces.
    pub fn request_floor_linked(&mut self, idx: usize) {
        let now = self.clock.now_us();
        let Some(msg) = self.participants[idx]
            .participant
            .floor_mut()
            .request_floor()
        else {
            return;
        };
        Self::send_bfcp_linked(&mut self.participants[idx], now, &msg);
    }

    /// Linked-transport variant of [`SimSession::release_floor`].
    pub fn release_floor_linked(&mut self, idx: usize) {
        let now = self.clock.now_us();
        let Some(msg) = self.participants[idx]
            .participant
            .floor_mut()
            .release_floor()
        else {
            return;
        };
        Self::send_bfcp_linked(&mut self.participants[idx], now, &msg);
    }

    fn send_bfcp_linked(sp: &mut SimParticipant, now: u64, msg: &adshare_bfcp::BfcpMessage) {
        let bytes = msg.encode();
        let mut tagged = Vec::with_capacity(bytes.len() + 1);
        tagged.push(b'B');
        tagged.extend_from_slice(&bytes);
        sp.upstream.send(now, &tagged);
    }

    fn route_bfcp(&mut self, responses: Vec<(u16, Vec<u8>)>) {
        for (user, bytes) in responses {
            if let Ok(msg) = adshare_bfcp::BfcpMessage::decode(&bytes) {
                for sp in &mut self.participants {
                    if sp.active && sp.participant.user_id() == user {
                        sp.participant.floor_mut().handle(&msg);
                    }
                }
            }
        }
    }

    /// Whether a participant is still in the session (not removed).
    pub fn is_active(&self, idx: usize) -> bool {
        self.participants.get(idx).is_some_and(|sp| sp.active)
    }

    /// Remove a participant (viewer churn): release any floor it holds or
    /// queues, detach it at the AH so the pacer stops feeding its link, and
    /// deactivate its slot. Indices of other participants are unaffected;
    /// removing twice is a no-op.
    pub fn remove_participant(&mut self, idx: usize) {
        if !self.is_active(idx) {
            return;
        }
        self.release_floor(idx);
        let sp = &mut self.participants[idx];
        sp.active = false;
        let handle = sp.handle;
        self.ah.detach(handle);
    }

    /// Change the chair's HID status (§4.2: the shared application gained
    /// or lost input focus) and deliver the re-grant notice to the holder.
    pub fn set_hid_status(&mut self, status: adshare_bfcp::HidStatus) {
        let notices = self.ah.set_hid_status(status);
        self.route_bfcp(notices);
    }

    /// Chair/client floor agreement: exactly the chair's holder (if any)
    /// believes it is granted, and nobody else does. The floor-storm
    /// scenario asserts this after every contention burst.
    pub fn floor_consistent(&mut self) -> bool {
        let holder = self.ah.chair_mut().holder();
        self.participants.iter().filter(|sp| sp.active).all(|sp| {
            let granted = matches!(
                sp.participant.floor().state(),
                adshare_bfcp::FloorState::Granted(_)
            );
            granted == (holder == Some(sp.participant.user_id()))
        })
    }

    /// Whether a participant's view of every window matches the AH pixel
    /// for pixel (used as the convergence criterion in experiments).
    pub fn converged(&self, idx: usize) -> bool {
        let viewer = &self.participants[idx].participant;
        viewer.converged_with(self.ah.desktop())
    }

    /// Mean per-pixel absolute error between a participant's windows and
    /// the AH's (0.0 = identical; tolerates lossy codecs).
    pub fn divergence(&self, idx: usize) -> f64 {
        let viewer = &self.participants[idx].participant;
        viewer.divergence_from(self.ah.desktop())
    }

    /// Advance straight to the next interesting instant: the earlier of the
    /// next capture tick (`capture_interval_us` from now) and the next
    /// pending network delivery. Returns how far the clock moved. This is
    /// the event-driven alternative to fixed-dt [`SimSession::step`]: idle
    /// stretches cost one step instead of thousands.
    pub fn step_to_next_event(&mut self, capture_interval_us: u64) -> u64 {
        let now = self.clock.now_us();
        let mut target = now + capture_interval_us.max(1);
        if let Some(e) = self.ah.next_event_us() {
            target = target.min(e.max(now + 1));
        }
        for sp in &self.participants {
            if let Some(e) = sp.upstream.next_delivery_us() {
                target = target.min(e.max(now + 1));
            }
        }
        let dt = target - now;
        self.step(dt);
        dt
    }

    /// Event-driven variant of [`SimSession::run_until`]: advances via
    /// [`SimSession::step_to_next_event`] until `pred` holds or `max_us`
    /// elapses. Returns (elapsed µs, steps taken) when the predicate held.
    pub fn run_until_event_driven(
        &mut self,
        capture_interval_us: u64,
        max_us: u64,
        mut pred: impl FnMut(&SimSession) -> bool,
    ) -> Option<(u64, u64)> {
        let start = self.clock.now_us();
        let mut steps = 0u64;
        while self.clock.now_us() - start < max_us {
            self.step_to_next_event(capture_interval_us);
            steps += 1;
            if pred(self) {
                return Some((self.clock.now_us() - start, steps));
            }
        }
        None
    }

    /// Earliest pending instant across the whole world — the AH's
    /// downstream transports plus every participant's upstream channel.
    /// `None` means nothing is in flight: only a capture tick (new damage)
    /// can make this session interesting again.
    pub fn next_due_us(&self) -> Option<u64> {
        let mut min = self.ah.next_event_us();
        for sp in &self.participants {
            if let Some(e) = sp.upstream.next_delivery_us() {
                min = Some(min.map_or(e, |m: u64| m.min(e)));
            }
        }
        min
    }

    /// Order-sensitive digest of every packet the AH produced (see
    /// [`AppHost::wire_digest`]) — the parity criterion for hosted runs.
    pub fn wire_digest(&self) -> u64 {
        self.ah.wire_digest()
    }

    /// Run until `pred` holds or `max_us` elapses; returns elapsed µs if the
    /// predicate held.
    pub fn run_until(
        &mut self,
        tick_us: u64,
        max_us: u64,
        mut pred: impl FnMut(&SimSession) -> bool,
    ) -> Option<u64> {
        let start = self.clock.now_us();
        while self.clock.now_us() - start < max_us {
            self.step(tick_us);
            if pred(self) {
                return Some(self.clock.now_us() - start);
            }
        }
        None
    }
}
