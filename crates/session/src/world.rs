//! One simulated world (DESIGN §5.3): an [`AppHost`], a tree of relays and
//! the viewers hanging off either, on one virtual clock. The topology is
//! data — every relay and viewer has a [`Parent`] and one uplink back to
//! it — and [`World::step`] runs the one delivery routine, the one set of
//! capture taps and the one feedback routine over it. [`crate::SimSession`]
//! and `adshare_relay`'s `RelaySim` are builders over it; relays plug in
//! through [`Relay`], since this crate cannot name the relay type.

use adshare_capture::{
    CaptureConfig, CaptureError, CaptureHandle, CaptureMode, Direction as CapDirection,
    ManifestSummary, StreamKind as CapStreamKind, Transport as CapTransport,
};
use adshare_netsim::time::{us_to_ticks, VirtualClock};
use adshare_netsim::udp::{LinkConfig, UdpChannel};
use adshare_obs::{EventKind, Obs, ACTOR_AH};
use adshare_remoting::hip::HipMessage;
use bytes::Bytes;

use crate::app_host::{AppHost, ParticipantHandle};
use crate::config::{Layout, TransportKind};
use crate::ingress::is_rtcp;
use crate::participant::Participant;

/// Uplink port tags. Every node's uplink leads each datagram with the port
/// it would travel to in the real system, which uses distinct ports.
const RTCP: u8 = b'R';
const HIP: u8 = b'H';
const BFCP: u8 = b'B';

/// Where a relay or a viewer receives from and sends its feedback to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Parent {
    /// The application host, which serves the node under this handle.
    Ah(ParticipantHandle),
    /// Downstream leg `.1` of relay `.0`.
    Leg(usize, usize),
}

/// What a parent delivered to a node by now.
#[derive(Debug)]
pub enum Delivery {
    /// Datagrams, each the buffer its sender serialised.
    Datagrams(Vec<Bytes>),
    /// The next in-order chunk of an RFC 4571-framed stream.
    Stream(Vec<u8>),
}

/// A relay as the world steps it (`adshare_relay::RelayNode`).
pub trait Relay {
    /// Record through `capture` from now on: ingress and every leg.
    fn attach_capture(&mut self, capture: CaptureHandle);
    /// Ingest what the parent delivered, then step.
    fn serve(&mut self, from_parent: Delivery, now_us: u64);
    /// Append the RTCP compound owed upstream to `out`; whether there is one.
    fn take_rtcp_into(&mut self, out: &mut Vec<u8>) -> bool;
    /// What downstream leg `leg` delivered by `now_us`.
    fn deliver(&mut self, leg: usize, now_us: u64) -> Delivery;
    /// RTCP feedback that came up leg `leg`.
    fn handle_leg_rtcp(&mut self, leg: usize, bytes: &[u8], now_us: u64);
    /// Stop serving leg `leg`.
    fn close_leg(&mut self, leg: usize);
    /// Earliest pending delivery on any leg.
    fn next_event_us(&self) -> Option<u64>;
}

/// The relay type of a world without relays ([`crate::SimSession`]).
#[derive(Debug)]
pub enum NoRelay {}

impl Relay for NoRelay {
    fn attach_capture(&mut self, _: CaptureHandle) {
        match *self {}
    }
    fn serve(&mut self, _: Delivery, _: u64) {
        match *self {}
    }
    fn take_rtcp_into(&mut self, _: &mut Vec<u8>) -> bool {
        match *self {}
    }
    fn deliver(&mut self, _: usize, _: u64) -> Delivery {
        match *self {}
    }
    fn handle_leg_rtcp(&mut self, _: usize, _: &[u8], _: u64) {
        match *self {}
    }
    fn close_leg(&mut self, _: usize) {
        match *self {}
    }
    fn next_event_us(&self) -> Option<u64> {
        match *self {}
    }
}

/// A relay or a viewer, where it hangs, and its way back up.
struct Node<T> {
    inner: T,
    parent: Parent,
    /// How the parent serves it (relays subscribe over UDP).
    kind: TransportKind,
    /// RTCP, HIP and BFCP to the parent, each behind its port tag.
    uplink: UdpChannel,
    /// False once a viewer has left; the slot stays so indices are stable.
    active: bool,
}

/// The AH, relays and viewers of one simulated session.
pub struct World<R> {
    /// The application host.
    pub ah: AppHost,
    /// The virtual clock.
    pub clock: VirtualClock,
    relays: Vec<Node<R>>,
    viewers: Vec<Node<Participant>>,
    /// Shared observability bundle: every node exports into its registry
    /// and threads frame traces through it.
    obs: Obs,
    /// Armed capture sink, cloned into the AH and every relay. The viewer
    /// taps write through it on the clock the flight recorder stamps.
    capture: Option<CaptureHandle>,
    /// A tagged uplink datagram is assembled here, so the link's copy is
    /// the only one.
    scratch: Vec<u8>,
}

impl<R: Relay> World<R> {
    /// A world around `ah`, which exports into the world's [`Obs`].
    pub fn with_host(mut ah: AppHost) -> Self {
        let obs = Obs::new();
        ah.attach_obs(obs.clone());
        World {
            ah,
            clock: VirtualClock::new(),
            relays: Vec::new(),
            viewers: Vec::new(),
            obs,
            capture: None,
            scratch: Vec::with_capacity(1500),
        }
    }

    /// The session-wide observability bundle (registry + frame traces).
    pub fn obs(&self) -> &Obs {
        &self.obs
    }

    /// Hang `relay` under `parent` (a relay parent has a lower index) with
    /// an uplink over `up`. Returns the relay index.
    pub fn add_relay_node(&mut self, relay: R, parent: Parent, up: LinkConfig, seed: u64) -> usize {
        let idx = self.relays.len();
        let mut node = self.node(relay, parent, TransportKind::Udp, up, seed ^ 0x7E57);
        node.uplink
            .register_metrics(&self.obs.registry, &format!("relay.{idx}.upstream"));
        if let Some(cap) = &self.capture {
            node.inner.attach_capture(cap.clone());
        }
        self.relays.push(node);
        idx
    }

    /// The user id the next viewer gets (its index + 1), for a builder
    /// that attaches it at the AH before adding it here.
    pub fn next_user_id(&self) -> u16 {
        self.viewers.len() as u16 + 1
    }

    /// Hang a viewer under `parent`, which already serves it over `kind`,
    /// with an uplink over `up`. Returns the viewer index. Whether it NACKs
    /// and whether it asks for initial state with a join PLI (§4.3) follow
    /// from (parent, kind) here and nowhere else: a relay always repairs;
    /// the AH as negotiated, except over TCP, which is reliable and sends
    /// initial state unasked (§4.4).
    pub fn add_viewer(
        &mut self,
        parent: Parent,
        kind: TransportKind,
        layout: Layout,
        up: LinkConfig,
        seed: u64,
    ) -> usize {
        let idx = self.viewers.len();
        let (nack, join_pli) = match (parent, kind) {
            (Parent::Leg(..), _) => (true, true),
            (Parent::Ah(_), TransportKind::Tcp) => (false, false),
            (Parent::Ah(_), _) => (self.ah.config().retransmissions, true),
        };
        let mut participant = Participant::new(idx as u16 + 1, layout, nack, seed ^ 0x9e37);
        participant.attach_obs(&self.obs, idx);
        if kind == TransportKind::Multicast {
            // §5.3.2 NACK-storm avoidance: group members jitter their NACKs
            // by up to ~50 ms so one member's repair serves the others.
            participant.set_nack_backoff(4_500);
        }
        if join_pli {
            participant.request_refresh();
        }
        let node = self.node(participant, parent, kind, up, seed ^ 0x1234);
        let name = format!("participant.{idx}.upstream");
        node.uplink.register_metrics(&self.obs.registry, &name);
        self.viewers.push(node);
        idx
    }

    fn node<T>(
        &self,
        inner: T,
        parent: Parent,
        kind: TransportKind,
        up: LinkConfig,
        seed: u64,
    ) -> Node<T> {
        let uplink = UdpChannel::new(up, seed);
        Node {
            inner,
            parent,
            kind,
            uplink,
            active: true,
        }
    }

    /// Remove a viewer (churn): release any floor it holds or queues, have
    /// its parent stop serving it (the AH detaches it, a relay closes its
    /// leg) and stop stepping it. The slot stays, so later indices keep
    /// naming the same viewers; removing twice is a no-op.
    pub fn remove_participant(&mut self, idx: usize) {
        if !self.is_active(idx) {
            return;
        }
        self.release_floor(idx);
        let v = &mut self.viewers[idx];
        v.active = false;
        match v.parent {
            Parent::Ah(handle) => self.ah.detach(handle),
            Parent::Leg(relay, leg) => self.relays[relay].inner.close_leg(leg),
        }
    }

    /// Access a relay.
    pub fn relay(&self, idx: usize) -> &R {
        &self.relays[idx].inner
    }

    /// Access a relay mutably (tests use this to inject leg loss).
    pub fn relay_mut(&mut self, idx: usize) -> &mut R {
        &mut self.relays[idx].inner
    }

    /// Where each relay subscribes, by relay index.
    pub fn relay_parents(&self) -> impl Iterator<Item = Parent> + '_ {
        self.relays.iter().map(|r| r.parent)
    }

    /// Where viewer `idx` receives from.
    pub fn parent(&self, idx: usize) -> Parent {
        self.viewers[idx].parent
    }

    /// Number of viewers, including those that left.
    pub fn participant_count(&self) -> usize {
        self.viewers.len()
    }

    /// Access a viewer.
    pub fn participant(&self, idx: usize) -> &Participant {
        &self.viewers[idx].inner
    }

    /// Access a viewer mutably.
    pub fn participant_mut(&mut self, idx: usize) -> &mut Participant {
        &mut self.viewers[idx].inner
    }

    /// Whether a viewer is still in the session (not removed).
    pub fn is_active(&self, idx: usize) -> bool {
        self.viewers.get(idx).is_some_and(|v| v.active)
    }

    /// Arm a consent-gated capture covering the AH's egress, every relay
    /// hop and every viewer's delivery, gap markers and uplink. Records are
    /// stamped by the world clock, as flight-recorder events are, so a
    /// merged timeline never shows negative spans. Fails with
    /// [`CaptureError::ConsentRequired`] unless `consent` is set.
    pub fn arm_capture(
        &mut self,
        consent: bool,
        mode: CaptureMode,
        session_id: u64,
    ) -> Result<CaptureHandle, CaptureError> {
        let now = self.clock.now_us();
        let cap = CaptureHandle::arm(CaptureConfig {
            consent,
            mode,
            session_id,
            start_us: now,
        })?;
        cap.attach_obs(self.obs.clone());
        self.ah.attach_capture(cap.clone());
        let (ring, window) = match mode {
            CaptureMode::Ring { window_us } => (1, window_us),
            CaptureMode::Full => (0, 0),
        };
        self.obs
            .event(now, ACTOR_AH, EventKind::CaptureArmed, ring, window);
        for hop in &mut self.relays {
            hop.inner.attach_capture(cap.clone());
        }
        self.capture = Some(cap.clone());
        Ok(cap)
    }

    /// The armed capture handle, if any.
    pub fn capture(&self) -> Option<&CaptureHandle> {
        self.capture.as_ref()
    }

    /// Auto-arm a bounded ring capture and hook it into the health engine:
    /// when a CRITICAL black-box dump fires, the ring (with the
    /// flight-recorder snapshot embedded) is written into `dir` next to the
    /// dump and its path is reported in the black-box JSON as
    /// `capture_path`. `consent` is still required — auto-arming does not
    /// bypass the gate.
    pub fn enable_auto_capture(
        &mut self,
        consent: bool,
        window_us: u64,
        dir: std::path::PathBuf,
        session_id: u64,
    ) -> Result<(), CaptureError> {
        let cap = self.arm_capture(consent, CaptureMode::Ring { window_us }, session_id)?;
        let recorder = self.obs.recorder.clone();
        self.obs
            .health
            .lock()
            .expect("health engine poisoned")
            .set_capture_hook(Box::new(move |at_us| {
                cap.finalize(&recorder.snapshot());
                let path = dir.join(format!("capture-critical-{at_us}.bin"));
                cap.write_to(&path)
                    .ok()
                    .map(|()| path.display().to_string())
            }));
        Ok(())
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
    /// per active viewer — the replay acceptance record.
    pub fn capture_manifest(&self) -> Option<ManifestSummary> {
        let cap = self.capture.as_ref()?;
        let digests = (0..self.viewers.len())
            .filter(|&idx| self.is_active(idx))
            .map(|idx| {
                let surface = crate::replay::participant_surface_digest(self.participant(idx));
                (idx as u16, surface)
            })
            .collect();
        Some(ManifestSummary::from_handle(cap, digests))
    }

    /// Advance the world by `dt_us`: the AH captures and flushes; each
    /// relay takes what its parent delivered, steps and feeds back; each
    /// viewer applies what arrived, watches for a stuck gap, runs its
    /// housekeeping and feeds back. Parents come before children, so a
    /// cascade adds no step latency.
    pub fn step(&mut self, dt_us: u64) {
        self.clock.advance_us(dt_us);
        let now = self.clock.now_us();
        let ticks = us_to_ticks(now);
        self.ah.step(now);

        let mut bfcp = Vec::new();
        let World {
            ah,
            relays,
            viewers,
            capture,
            scratch,
            ..
        } = self;
        for i in 0..relays.len() {
            let (above, rest) = relays.split_at_mut(i);
            let hop = &mut rest[0];
            let mut up = Above { ah, relays: above };
            hop.inner.serve(up.deliver(hop.parent, hop.kind, now), now);
            let tap = Tap(None, 0, now);
            up.feedback(hop, R::take_rtcp_into, scratch, tap, now, &mut bfcp);
        }
        for (idx, v) in viewers.iter_mut().enumerate().filter(|(_, v)| v.active) {
            let mut up = Above { ah, relays };
            let tap = Tap(capture.as_ref(), idx as u16, now);
            let transport = match v.kind {
                TransportKind::Udp => CapTransport::Udp,
                TransportKind::Tcp => CapTransport::Tcp,
                TransportKind::Multicast => CapTransport::Multicast,
            };
            match up.deliver(v.parent, v.kind, now) {
                Delivery::Datagrams(datagrams) => {
                    for dg in datagrams {
                        tap.rx(transport, &dg);
                        v.inner.handle_datagram_bytes(dg, ticks);
                    }
                }
                Delivery::Stream(chunk) if !chunk.is_empty() => {
                    tap.rx(transport, &chunk);
                    v.inner.handle_stream(&chunk, ticks);
                }
                Delivery::Stream(_) => {}
            }
            if v.inner.watch_gap(ticks) {
                tap.gap_recover();
            }
            // Housekeeping (resync retry for unsynced joiners).
            v.inner.tick(ticks);
            up.feedback(v, Participant::take_rtcp_into, scratch, tap, now, &mut bfcp);
        }
        self.route_bfcp(bfcp);
        let notices = self.ah.tick_floor(now);
        self.route_bfcp(notices);
    }

    /// Viewer `idx` sends a HIP event up its uplink. Only the AH acts on
    /// input; a relay parent drops it.
    pub fn send_hip(&mut self, idx: usize, msg: &HipMessage) {
        let now = self.clock.now_us();
        let v = &mut self.viewers[idx];
        for dg in v.inner.send_hip(msg, us_to_ticks(now)) {
            send_tagged(&mut v.uplink, &mut self.scratch, HIP, &dg, now);
        }
    }

    /// A participant requests the BFCP floor (exchange is immediate: BFCP
    /// runs on its own reliable connection).
    pub fn request_floor(&mut self, idx: usize) {
        self.floor_exchange(idx, true, false);
    }

    /// A participant releases the BFCP floor.
    pub fn release_floor(&mut self, idx: usize) {
        self.floor_exchange(idx, false, false);
    }

    /// Like [`World::request_floor`], but the request travels the
    /// participant's (lossy, duplicating, reordering) upstream link instead
    /// of the idealized reliable exchange — the storm scenarios use this to
    /// subject the chair to the retransmissions and duplicates a real
    /// unreliable-transport BFCP deployment produces.
    pub fn request_floor_linked(&mut self, idx: usize) {
        self.floor_exchange(idx, true, true);
    }

    /// Linked-transport variant of [`World::release_floor`].
    pub fn release_floor_linked(&mut self, idx: usize) {
        self.floor_exchange(idx, false, true);
    }

    fn floor_exchange(&mut self, idx: usize, request: bool, linked: bool) {
        let client = self.participant_mut(idx).floor_mut();
        let msg = if request {
            client.request_floor()
        } else {
            client.release_floor()
        };
        match msg {
            Some(msg) if linked => self.send_bfcp(idx, &msg),
            Some(msg) => {
                let responses = self.ah.handle_bfcp(&msg.encode(), self.clock.now_us());
                self.route_bfcp(responses);
            }
            None => {}
        }
    }

    /// Change the chair's HID status (§4.2: the shared application gained
    /// or lost input focus) and deliver the re-grant notice to the holder.
    pub fn set_hid_status(&mut self, status: adshare_bfcp::HidStatus) {
        let notices = self.ah.set_hid_status(status);
        self.route_bfcp(notices);
    }

    /// Viewer `idx` sends a BFCP message up its uplink (lossy, duplicating,
    /// reordering) instead of the idealized reliable exchange.
    fn send_bfcp(&mut self, idx: usize, msg: &adshare_bfcp::BfcpMessage) {
        let now = self.clock.now_us();
        let v = &mut self.viewers[idx];
        send_tagged(&mut v.uplink, &mut self.scratch, BFCP, &msg.encode(), now);
    }

    /// Hand the chair's responses to the active viewers they address.
    fn route_bfcp(&mut self, responses: Vec<(u16, Vec<u8>)>) {
        for (user, bytes) in responses {
            if let Ok(msg) = adshare_bfcp::BfcpMessage::decode(&bytes) {
                for v in self.viewers.iter_mut().filter(|v| v.active) {
                    if v.inner.user_id() == user {
                        v.inner.floor_mut().handle(&msg);
                    }
                }
            }
        }
    }

    /// Chair/client floor agreement: exactly the chair's holder (if any)
    /// believes it is granted, and nobody else does. The floor-storm
    /// scenario asserts this after every contention burst.
    pub fn floor_consistent(&mut self) -> bool {
        let holder = self.ah.chair_mut().holder();
        self.viewers.iter().filter(|v| v.active).all(|v| {
            let granted = matches!(
                v.inner.floor().state(),
                adshare_bfcp::FloorState::Granted(_)
            );
            granted == (holder == Some(v.inner.user_id()))
        })
    }

    /// Whether a viewer's view of every window matches the AH pixel for
    /// pixel (the convergence criterion of the experiments).
    pub fn converged(&self, idx: usize) -> bool {
        self.participant(idx).converged_with(self.ah.desktop())
    }

    /// Mean per-pixel absolute error between a viewer's windows and the
    /// AH's (0.0 = identical; tolerates lossy codecs).
    pub fn divergence(&self, idx: usize) -> f64 {
        self.participant(idx).divergence_from(self.ah.desktop())
    }

    /// Order-sensitive digest of every packet the AH produced (see
    /// [`AppHost::wire_digest`]) — the parity criterion for hosted runs.
    pub fn wire_digest(&self) -> u64 {
        self.ah.wire_digest()
    }

    /// Earliest pending instant across the whole world: the AH's and every
    /// relay's downstream transports and every uplink. `None` means nothing
    /// is in flight: only a capture tick (new damage) can make this world
    /// interesting again.
    pub fn next_due_us(&self) -> Option<u64> {
        let relays = self.relays.iter().map(|r| r.inner.next_event_us());
        let uplinks = self.relays.iter().map(|r| r.uplink.next_delivery_us());
        let viewers = self.viewers.iter().map(|v| v.uplink.next_delivery_us());
        let ah = std::iter::once(self.ah.next_event_us());
        ah.chain(relays)
            .chain(uplinks)
            .chain(viewers)
            .flatten()
            .min()
    }

    /// Advance straight to the next interesting instant: the earlier of the
    /// next capture tick (`capture_interval_us` from now) and the next
    /// pending network delivery. Returns how far the clock moved. This is
    /// the event-driven alternative to fixed-dt [`World::step`]: idle
    /// stretches cost one step instead of thousands.
    pub fn step_to_next_event(&mut self, capture_interval_us: u64) -> u64 {
        let now = self.clock.now_us();
        let tick = now + capture_interval_us.max(1);
        let target = self
            .next_due_us()
            .map_or(tick, |e| tick.min(e.max(now + 1)));
        self.step(target - now);
        target - now
    }

    /// Event-driven variant of [`World::run_until`]: advances via
    /// [`World::step_to_next_event`] until `pred` holds or `max_us`
    /// elapses. Returns (elapsed µs, steps taken) when the predicate held.
    pub fn run_until_event_driven(
        &mut self,
        capture_interval_us: u64,
        max_us: u64,
        mut pred: impl FnMut(&Self) -> bool,
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

    /// Run until `pred` holds or `max_us` elapses; returns elapsed µs if the
    /// predicate held.
    pub fn run_until(
        &mut self,
        tick_us: u64,
        max_us: u64,
        mut pred: impl FnMut(&Self) -> bool,
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

/// What sits above the node being stepped: the AH and the relays stepped
/// before it.
struct Above<'a, R> {
    ah: &'a mut AppHost,
    relays: &'a mut [Node<R>],
}

impl<R: Relay> Above<'_, R> {
    /// The one delivery routine: what `parent` delivered by `now_us` to a
    /// node it serves over `kind`.
    fn deliver(&mut self, parent: Parent, kind: TransportKind, now_us: u64) -> Delivery {
        match parent {
            Parent::Ah(h) if kind == TransportKind::Tcp => {
                Delivery::Stream(self.ah.poll_tcp(h, now_us))
            }
            Parent::Ah(h) => Delivery::Datagrams(self.ah.poll_udp_bytes(h, now_us)),
            Parent::Leg(relay, leg) => self.relays[relay].inner.deliver(leg, now_us),
        }
    }

    /// The one feedback routine: send the RTCP `take_rtcp` finds owed up
    /// `node`'s uplink, then hand its parent whatever the uplink delivers
    /// by `now_us`, recorded as `Up` traffic through `tap`. Chair responses
    /// to BFCP are collected in `bfcp`, to be routed after the delivery
    /// loop.
    fn feedback<T>(
        &mut self,
        node: &mut Node<T>,
        take_rtcp: impl FnOnce(&mut T, &mut Vec<u8>) -> bool,
        scratch: &mut Vec<u8>,
        tap: Tap,
        now_us: u64,
        bfcp: &mut Vec<(u16, Vec<u8>)>,
    ) {
        // The compound is written straight behind its port tag, so the
        // link's copy is the only one.
        scratch.clear();
        scratch.push(RTCP);
        if take_rtcp(&mut node.inner, scratch) {
            node.uplink.send(now_us, scratch);
        }
        for dg in node.uplink.poll(now_us) {
            let Some((&tag, rest)) = dg.split_first() else {
                continue;
            };
            let kind = match tag {
                RTCP => CapStreamKind::Rtcp,
                HIP => CapStreamKind::Hip,
                BFCP => CapStreamKind::Bfcp,
                _ => continue,
            };
            tap.record(CapDirection::Up, kind, CapTransport::Udp, rest);
            match (node.parent, tag) {
                (Parent::Ah(h), RTCP) => self.ah.handle_rtcp(h, rest, now_us),
                (Parent::Ah(h), HIP) => self.ah.handle_hip(h, rest),
                // BFCP runs on its own reliable connection to the chair.
                (Parent::Ah(_), _) => bfcp.extend(self.ah.handle_bfcp(rest, now_us)),
                (Parent::Leg(relay, leg), RTCP) => {
                    self.relays[relay].inner.handle_leg_rtcp(leg, rest, now_us)
                }
                // A relay forwards neither input nor floor control yet.
                (Parent::Leg(..), _) => {}
            }
        }
    }
}

/// The capture taps of one viewer in one step: the armed sink (if any),
/// the viewer's index as actor, and the instant. A relay records its own
/// ingress, so it steps with a tap whose sink is `None`.
#[derive(Clone, Copy)]
struct Tap<'a>(Option<&'a CaptureHandle>, u16, u64);

impl Tap<'_> {
    fn record(self, dir: CapDirection, kind: CapStreamKind, transport: CapTransport, bytes: &[u8]) {
        if let Some(cap) = self.0 {
            cap.record(dir, kind, transport, self.1, self.2, bytes);
        }
    }

    /// What the viewer received: a datagram (RTP or muxed RTCP) or a chunk
    /// of the TCP stream.
    fn rx(self, transport: CapTransport, bytes: &[u8]) {
        if self.0.is_none() {
            return;
        }
        let rtcp = transport != CapTransport::Tcp && is_rtcp(bytes);
        let kind = if rtcp {
            CapStreamKind::Rtcp
        } else {
            CapStreamKind::Rtp
        };
        self.record(CapDirection::Rx, kind, transport, bytes);
    }

    /// Control marker: replay must skip the same hole the viewer skipped.
    fn gap_recover(self) {
        if let Some(cap) = self.0 {
            cap.record_gap_recover(self.1, self.2);
        }
    }
}

/// Offer `payload` to `link` behind its port tag, assembled in `scratch`.
fn send_tagged(link: &mut UdpChannel, scratch: &mut Vec<u8>, tag: u8, payload: &[u8], now_us: u64) {
    scratch.clear();
    scratch.push(tag);
    scratch.extend_from_slice(payload);
    link.send(now_us, scratch);
}
