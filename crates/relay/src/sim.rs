//! Deterministic relay-topology orchestrator: one [`AppHost`], a tree of
//! [`RelayNode`]s (AH→relay→…→relay) and N participants hanging off relay
//! legs, all stepped on one virtual clock. The relay-tier experiments and
//! e2e tests drive this the way [`adshare_session::SimSession`] drives the
//! direct topology.

use adshare_capture::{CaptureError, CaptureHandle, CaptureMode};
use adshare_layers::TierStats;
use adshare_netsim::tcp::TcpConfig;
use adshare_netsim::time::{us_to_ticks, VirtualClock};
use adshare_netsim::udp::{LinkConfig, UdpChannel};
use adshare_obs::Obs;
use adshare_screen::desktop::Desktop;
use adshare_sdp::{build_ah_offer, build_relay_offer, OfferParams, SessionDescription};
use adshare_session::sim::{arm_capture, dump_capture_on_critical};
use adshare_session::{AhConfig, AppHost, Layout, Participant, ParticipantHandle};

use crate::{RelayConfig, RelayNode};

/// Where a relay subscribes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Upstream {
    /// Directly to the application host.
    Ah,
    /// To another relay (by its index), forming a cascade.
    Relay(usize),
}

struct RelayStage {
    node: RelayNode,
    /// AH-side handle when subscribed to the AH.
    handle: Option<ParticipantHandle>,
    /// `(relay index, leg index)` when subscribed to another relay.
    parent: Option<(usize, usize)>,
    /// Upstream RTCP path.
    upstream: UdpChannel,
    /// The SDP this relay re-offers downstream.
    offer: SessionDescription,
}

struct SimLeg {
    participant: Participant,
    relay: usize,
    leg: usize,
    upstream: UdpChannel,
    /// `false` once the viewer has left. The slot stays so participant
    /// indices remain stable under churn, mirroring relay leg indices.
    active: bool,
    /// RFC 4571-framed TCP leg: relay output is a byte stream, not
    /// datagrams, so the viewer deframes via `handle_stream`.
    tcp: bool,
}

/// A complete simulated relay-tier session.
pub struct RelaySim {
    /// The application host.
    pub ah: AppHost,
    /// The virtual clock.
    pub clock: VirtualClock,
    relays: Vec<RelayStage>,
    participants: Vec<SimLeg>,
    obs: Obs,
    ah_offer: SessionDescription,
    capture: Option<CaptureHandle>,
}

impl RelaySim {
    /// Create a session around a desktop. `offer` seeds the SDP chain the
    /// relays re-offer downstream.
    pub fn new(desktop: Desktop, cfg: AhConfig, offer: &OfferParams, seed: u64) -> Self {
        let obs = Obs::new();
        let mut ah = AppHost::new(desktop, cfg, seed);
        ah.attach_obs(obs.clone());
        RelaySim {
            ah,
            clock: VirtualClock::new(),
            relays: Vec::new(),
            participants: Vec::new(),
            obs,
            ah_offer: build_ah_offer(offer),
            capture: None,
        }
    }

    /// The session-wide observability bundle.
    pub fn obs(&self) -> &Obs {
        &self.obs
    }

    /// Arm a consent-gated capture spanning the AH egress *and* every
    /// relay hop: one handle records the whole tree so a replay can
    /// reconstruct any subtree's wire view. `start_us` is stamped from the
    /// sim clock so capture records and flight-recorder events share one
    /// virtual-time origin. Fails with [`CaptureError::ConsentRequired`]
    /// unless `consent` is set.
    pub fn arm_capture(
        &mut self,
        consent: bool,
        mode: CaptureMode,
        session_id: u64,
    ) -> Result<CaptureHandle, CaptureError> {
        let now = self.clock.now_us();
        let cap = arm_capture(&mut self.ah, &self.obs, now, consent, mode, session_id)?;
        for stage in &mut self.relays {
            stage.node.attach_capture(cap.clone());
        }
        self.capture = Some(cap.clone());
        Ok(cap)
    }

    /// The armed capture handle, if any.
    pub fn capture(&self) -> Option<&CaptureHandle> {
        self.capture.as_ref()
    }

    /// Auto-arm a bounded ring capture and hook it into the health engine
    /// the way [`adshare_session::SimSession::enable_auto_capture`] does:
    /// when a CRITICAL black-box dump fires — a relay leg starving, an
    /// estimator pinned at its floor — the ring (with the flight-recorder
    /// snapshot embedded) is written next to the dump and referenced in
    /// the black-box JSON as `capture_path`, so a relay incident is
    /// replayable without anyone having planned for it. `consent` is still
    /// required — auto-arming does not bypass the gate.
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

    /// Add a relay subscribed at `upstream` (a cascaded relay must name a
    /// lower-indexed parent). Returns the relay index.
    pub fn add_relay(
        &mut self,
        upstream: Upstream,
        cfg: RelayConfig,
        down: LinkConfig,
        up: LinkConfig,
        seed: u64,
    ) -> usize {
        let idx = self.relays.len();
        let mut node = RelayNode::new(cfg, idx as u16);
        node.attach_obs(self.obs.clone());
        if let Some(cap) = &self.capture {
            node.attach_capture(cap.clone());
        }
        let now = self.clock.now_us();
        let (handle, parent, parent_offer) = match upstream {
            Upstream::Ah => {
                // The AH sees the relay as one more unicast UDP receiver.
                let user_id = 0x5200 + idx as u16;
                let handle = self.ah.attach_udp(user_id, down, seed, None);
                (Some(handle), None, self.ah_offer.clone())
            }
            Upstream::Relay(parent) => {
                assert!(parent < idx, "cascade parents must be added first");
                let leg = self.relays[parent].node.add_leg_udp(down, seed, None);
                self.register_leg_metrics(parent, leg);
                (None, Some((parent, leg)), self.relays[parent].offer.clone())
            }
        };
        node.subscribe(now);
        let upstream_ch = UdpChannel::new(up, seed ^ 0x7E57);
        upstream_ch.register_metrics(&self.obs.registry, &format!("relay.{idx}.upstream"));
        let offer = build_relay_offer(&parent_offer, &format!("10.82.0.{}", idx + 1));
        self.relays.push(RelayStage {
            node,
            handle,
            parent,
            upstream: upstream_ch,
            offer,
        });
        idx
    }

    fn register_leg_metrics(&self, relay: usize, leg: usize) {
        if let Some(link) = self.relays.get(relay).and_then(|r| r.node.leg_link(leg)) {
            link.register_metrics(&self.obs.registry, &format!("relay.{relay}.leg.{leg}.down"));
        }
    }

    /// Add a participant on a leg of `relay`. Returns the participant index.
    pub fn add_participant(
        &mut self,
        relay: usize,
        layout: Layout,
        down: LinkConfig,
        up: LinkConfig,
        seed: u64,
    ) -> usize {
        self.add_participant_rate(relay, layout, down, up, seed, None)
    }

    /// Add a participant whose relay leg is pacing-capped at `rate_bps` —
    /// the heterogeneous-bandwidth knob: a layered relay's tier controller
    /// meters this cap and drops the leg to the tier it affords.
    pub fn add_participant_rate(
        &mut self,
        relay: usize,
        layout: Layout,
        down: LinkConfig,
        up: LinkConfig,
        seed: u64,
        rate_bps: Option<u64>,
    ) -> usize {
        let leg = self.relays[relay].node.add_leg_udp(down, seed, rate_bps);
        self.register_leg_metrics(relay, leg);
        self.push_participant(relay, leg, layout, up, seed, false)
    }

    /// Add a participant on an RFC 4571-framed TCP leg. The relay frames
    /// its fan-out into the stream and the same tier controller watches
    /// the send-buffer backlog, so a congested TCP subtree downgrades
    /// instead of stalling behind an ever-growing buffer.
    pub fn add_participant_tcp(
        &mut self,
        relay: usize,
        layout: Layout,
        tcp: TcpConfig,
        up: LinkConfig,
        seed: u64,
        rate_bps: Option<u64>,
    ) -> usize {
        let leg = self.relays[relay].node.add_leg_tcp(tcp, rate_bps);
        self.push_participant(relay, leg, layout, up, seed, true)
    }

    fn push_participant(
        &mut self,
        relay: usize,
        leg: usize,
        layout: Layout,
        up: LinkConfig,
        seed: u64,
        tcp: bool,
    ) -> usize {
        let idx = self.participants.len();
        let user_id = idx as u16 + 1;
        let mut participant = Participant::new(user_id, layout, true, seed ^ 0x9e37);
        participant.attach_obs(&self.obs, idx);
        participant.request_refresh();
        let upstream = UdpChannel::new(up, seed ^ 0x1234);
        upstream.register_metrics(&self.obs.registry, &format!("participant.{idx}.upstream"));
        self.participants.push(SimLeg {
            participant,
            relay,
            leg,
            upstream,
            active: true,
            tcp,
        });
        idx
    }

    /// Remove a participant: its relay leg is closed (no further fan-out,
    /// feedback ignored) and the viewer stops being stepped. The index
    /// stays valid so scenario schedules can keep naming later joiners.
    pub fn remove_participant(&mut self, idx: usize) {
        let Some(sp) = self.participants.get_mut(idx) else {
            return;
        };
        if !sp.active {
            return;
        }
        sp.active = false;
        self.relays[sp.relay].node.close_leg(sp.leg);
    }

    /// Whether a participant is still in the session.
    pub fn is_active(&self, idx: usize) -> bool {
        self.participants.get(idx).is_some_and(|sp| sp.active)
    }

    /// Number of participants.
    pub fn participant_count(&self) -> usize {
        self.participants.len()
    }

    /// Access a participant.
    pub fn participant(&self, idx: usize) -> &Participant {
        &self.participants[idx].participant
    }

    /// Access a relay node.
    pub fn relay(&self, idx: usize) -> &RelayNode {
        &self.relays[idx].node
    }

    /// Access a relay node mutably (tests use this to inject leg loss).
    pub fn relay_mut(&mut self, idx: usize) -> &mut RelayNode {
        &mut self.relays[idx].node
    }

    /// The `(relay, leg)` a participant hangs off.
    pub fn participant_leg(&self, idx: usize) -> (usize, usize) {
        (self.participants[idx].relay, self.participants[idx].leg)
    }

    /// The SDP a relay re-offers downstream (`adshare-relay-hops` counts
    /// its distance from the AH).
    pub fn relay_offer(&self, idx: usize) -> &SessionDescription {
        &self.relays[idx].offer
    }

    /// Per-leg tier snapshot of a relay at the current sim time.
    pub fn tier_stats(&mut self, relay: usize) -> TierStats {
        let now = self.clock.now_us();
        self.relays[relay].node.tier_stats(now)
    }

    /// Wire bytes the AH has sent to relay subscribers — the AH's total
    /// egress in a pure relay topology, regardless of participant count.
    pub fn ah_egress_bytes(&self) -> u64 {
        self.relays
            .iter()
            .filter_map(|r| r.handle)
            .map(|h| self.ah.participant_bytes_sent(h))
            .sum()
    }

    /// Advance the world by `dt_us`: AH captures and flushes, relays ingest
    /// and fan out (parents before children, so a cascade adds no extra
    /// step latency), participants apply and feed back.
    pub fn step(&mut self, dt_us: u64) {
        self.clock.advance_us(dt_us);
        let now = self.clock.now_us();
        let ticks = us_to_ticks(now);

        self.ah.step(now);

        for i in 0..self.relays.len() {
            // Ingest from the parent hop.
            let datagrams = match self.relays[i].parent {
                None => {
                    let handle = self.relays[i].handle.expect("AH-attached relay");
                    self.ah.poll_udp_bytes(handle, now)
                }
                Some((parent, leg)) => self.relays[parent].node.poll_leg_bytes(leg, now),
            };
            for dg in datagrams {
                self.relays[i].node.ingest_upstream_bytes(dg, now);
            }
            self.relays[i].node.step(now);
            // Upstream RTCP (NACK escalations, coalesced PLIs, reports).
            if let Some(bytes) = self.relays[i].node.take_upstream_rtcp() {
                self.relays[i].upstream.send(now, &bytes);
            }
            let delivered = self.relays[i].upstream.poll(now);
            for bytes in delivered {
                match self.relays[i].parent {
                    None => {
                        let handle = self.relays[i].handle.expect("AH-attached relay");
                        self.ah.handle_rtcp(handle, &bytes, now);
                    }
                    Some((parent, leg)) => {
                        self.relays[parent].node.handle_leg_rtcp(leg, &bytes, now);
                    }
                }
            }
        }

        for sp in &mut self.participants {
            if !sp.active {
                continue;
            }
            let stage = &mut self.relays[sp.relay];
            if sp.tcp {
                let chunk = stage.node.poll_leg_stream(sp.leg, now);
                if !chunk.is_empty() {
                    sp.participant.handle_stream(&chunk, ticks);
                }
            } else {
                for dg in stage.node.poll_leg_bytes(sp.leg, now) {
                    sp.participant.handle_datagram_bytes(dg, ticks);
                }
            }
            sp.participant.watch_gap(ticks);
            sp.participant.tick(ticks);
            if let Some(bytes) = sp.participant.take_rtcp() {
                sp.upstream.send(now, &bytes);
            }
            for bytes in sp.upstream.poll(now) {
                stage.node.handle_leg_rtcp(sp.leg, &bytes, now);
            }
        }
    }

    /// Step repeatedly until `pred` holds or `max_steps` elapse; returns
    /// whether the predicate held.
    pub fn run_until(
        &mut self,
        dt_us: u64,
        max_steps: usize,
        mut pred: impl FnMut(&RelaySim) -> bool,
    ) -> bool {
        for _ in 0..max_steps {
            self.step(dt_us);
            if pred(self) {
                return true;
            }
        }
        false
    }

    /// Whether a participant's view matches the AH pixel for pixel.
    pub fn converged(&self, idx: usize) -> bool {
        let viewer = &self.participants[idx].participant;
        viewer.converged_with(self.ah.desktop())
    }

    /// Mean per-pixel absolute error between a participant's windows and
    /// the AH's (0.0 = identical).
    pub fn divergence(&self, idx: usize) -> f64 {
        let viewer = &self.participants[idx].participant;
        viewer.divergence_from(self.ah.desktop())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use adshare_codec::image::{Image, Rect};
    use adshare_layers::LayersConfig;
    use adshare_obs::{json, DumpSink, HealthConfig};
    use adshare_rate::QualityTier;

    fn desktop_with_window() -> Desktop {
        let mut desktop = Desktop::new(640, 480);
        let id = desktop.create_window(0, Rect::new(40, 40, 160, 120), [30, 90, 150, 255]);
        let stamp = Image::filled(32, 32, [220, 40, 40, 255]).unwrap();
        desktop.draw(id, 8, 8, &stamp);
        desktop
    }

    fn lossless() -> LinkConfig {
        LinkConfig {
            loss: 0.0,
            ..LinkConfig::default()
        }
    }

    #[test]
    fn fanout_converges_two_participants() {
        let mut sim = RelaySim::new(
            desktop_with_window(),
            AhConfig::default(),
            &OfferParams::default(),
            1,
        );
        let relay = sim.add_relay(
            Upstream::Ah,
            RelayConfig::default(),
            lossless(),
            lossless(),
            2,
        );
        let a = sim.add_participant(relay, Layout::Original, lossless(), lossless(), 3);
        let b = sim.add_participant(relay, Layout::Original, lossless(), lossless(), 4);
        let ok = sim.run_until(5_000, 2_000, |s| s.converged(a) && s.converged(b));
        assert!(
            ok,
            "divergence: {} / {}",
            sim.divergence(a),
            sim.divergence(b)
        );
        assert!(sim.relay(relay).synced());
        assert!(sim.relay(relay).stats().forwarded_packets > 0);
    }

    #[test]
    fn cascade_converges_and_counts_hops() {
        let mut sim = RelaySim::new(
            desktop_with_window(),
            AhConfig::default(),
            &OfferParams::default(),
            5,
        );
        let first = sim.add_relay(
            Upstream::Ah,
            RelayConfig::default(),
            lossless(),
            lossless(),
            6,
        );
        let second = sim.add_relay(
            Upstream::Relay(first),
            RelayConfig::default(),
            lossless(),
            lossless(),
            7,
        );
        let p = sim.add_participant(second, Layout::Original, lossless(), lossless(), 8);
        assert_eq!(sim.relay_offer(first).relay_hops(), 1);
        assert_eq!(sim.relay_offer(second).relay_hops(), 2);
        let ok = sim.run_until(5_000, 3_000, |s| s.converged(p));
        assert!(ok, "divergence: {}", sim.divergence(p));
        // The AH served exactly one leg; the cascade multiplied it.
        assert!(sim.relay(second).stats().forwarded_packets > 0);
    }

    #[test]
    fn tcp_participant_converges_over_framed_stream() {
        let mut sim = RelaySim::new(
            desktop_with_window(),
            AhConfig::default(),
            &OfferParams::default(),
            21,
        );
        let relay = sim.add_relay(
            Upstream::Ah,
            RelayConfig::default(),
            lossless(),
            lossless(),
            22,
        );
        let p = sim.add_participant_tcp(
            relay,
            Layout::Original,
            TcpConfig::default(),
            lossless(),
            23,
            None,
        );
        let ok = sim.run_until(5_000, 3_000, |s| s.converged(p));
        assert!(ok, "divergence: {}", sim.divergence(p));
    }

    #[test]
    fn layered_tree_slow_leg_degrades_without_starving() {
        let mut sim = RelaySim::new(
            desktop_with_window(),
            AhConfig::default(),
            &OfferParams::default(),
            31,
        );
        let cfg = RelayConfig {
            layers: Some(LayersConfig::default()),
            ..RelayConfig::default()
        };
        let relay = sim.add_relay(Upstream::Ah, cfg, lossless(), lossless(), 32);
        let fast = sim.add_participant(relay, Layout::Original, lossless(), lossless(), 33);
        // 1.2 Mb/s sits below `lossless_above` (1.5 Mb/s): the tier
        // controller must drop this leg to Balanced instead of letting it
        // starve behind the pacer.
        let slow = sim.add_participant_rate(
            relay,
            Layout::Original,
            lossless(),
            lossless(),
            34,
            Some(1_200_000),
        );
        // Keep painting so both legs see steady damage traffic.
        for round in 0..40u32 {
            let id = sim.ah.desktop().wm().shared_records().next().unwrap().id;
            sim.ah.desktop_mut().fill(
                id,
                Rect::new(round % 100, 8, 16, 16),
                [round as u8, 80, 200, 255],
            );
            for _ in 0..25 {
                sim.step(5_000);
            }
        }
        let ok = sim.run_until(5_000, 2_000, |s| s.converged(fast));
        assert!(ok, "fast divergence: {}", sim.divergence(fast));
        let (_, fast_leg) = sim.participant_leg(fast);
        let (_, slow_leg) = sim.participant_leg(slow);
        assert_eq!(
            sim.relay(relay).leg_tier(fast_leg),
            Some(QualityTier::Lossless),
            "uncapped leg stays lossless"
        );
        assert_eq!(
            sim.relay(relay).leg_tier(slow_leg),
            Some(QualityTier::Balanced),
            "capped leg rides the tier it affords"
        );
        let stats = sim.tier_stats(relay);
        let slow_stats = &stats.legs[slow_leg];
        assert!(
            slow_stats.synth_msgs > 0,
            "slow leg must receive synthesized renditions: {slow_stats:?}"
        );
        // The degraded subtree keeps rendering: lossy, but never starved.
        let div = sim.divergence(slow);
        assert!(
            div.is_finite() && div < 40.0,
            "slow leg should track the desktop approximately, got {div}"
        );
        assert!(sim.participant(slow).stats().regions_applied > 0);
    }

    /// Forcing a relay CRITICAL with auto-capture enabled must write the
    /// ring next to the black box and reference it as `capture_path` —
    /// the same contract `SimSession::enable_auto_capture` gives direct
    /// sessions.
    #[test]
    fn relay_critical_dump_references_ring_capture() {
        let dir = std::env::temp_dir().join("adshare-relay-autocap");
        std::fs::create_dir_all(&dir).expect("create artifact dir");
        let mut sim = RelaySim::new(
            desktop_with_window(),
            AhConfig::default(),
            &OfferParams::default(),
            41,
        );
        {
            let mut engine = sim.obs().health.lock().unwrap();
            // Pull the loss CRITICAL threshold below what a 5% link produces.
            engine.set_config(HealthConfig {
                loss: (0.005, 0.01),
                ..HealthConfig::default()
            });
            engine.set_sink(DumpSink::Dir(dir.clone()));
        }
        sim.enable_auto_capture(true, 2_000_000, dir.clone(), 41)
            .expect("consent supplied");
        let relay = sim.add_relay(
            Upstream::Ah,
            RelayConfig::default(),
            lossless(),
            lossless(),
            42,
        );
        let lossy = LinkConfig {
            loss: 0.05,
            delay_us: 20_000,
            ..LinkConfig::default()
        };
        let p = sim.add_participant(relay, Layout::Original, lossy, lossless(), 43);
        sim.run_until(5_000, 3_000, |s| s.converged(p));
        for round in 0..60u32 {
            let id = sim.ah.desktop().wm().shared_records().next().unwrap().id;
            sim.ah.desktop_mut().fill(
                id,
                Rect::new(round % 100, 8, 16, 16),
                [9, round as u8, 120, 255],
            );
            for _ in 0..10 {
                sim.step(5_000);
            }
            sim.obs().health_check(sim.clock.now_us());
        }
        let engine = sim.obs().health.lock().unwrap();
        assert!(engine.dumps() >= 1, "tightened SLO under 5% loss must dump");
        let dump = engine.last_dump().expect("dump retained");
        let doc = json::parse(dump).expect("black box is JSON");
        let capture_path = doc
            .get("capture_path")
            .and_then(|v| v.as_str())
            .expect("relay black box must reference the auto-armed capture")
            .to_string();
        assert!(
            std::path::Path::new(&capture_path).exists(),
            "referenced ring capture missing: {capture_path}"
        );
    }

    #[test]
    fn downstream_loss_is_absorbed_by_the_relay() {
        let mut sim = RelaySim::new(
            desktop_with_window(),
            AhConfig::default(),
            &OfferParams::default(),
            9,
        );
        let relay = sim.add_relay(
            Upstream::Ah,
            RelayConfig::default(),
            lossless(),
            lossless(),
            10,
        );
        let lossy = LinkConfig {
            loss: 0.05,
            ..LinkConfig::default()
        };
        let p = sim.add_participant(relay, Layout::Original, lossy, lossless(), 11);
        // Keep painting so there is steady traffic to lose.
        for round in 0..40u32 {
            let id = sim.ah.desktop().wm().shared_records().next().unwrap().id;
            sim.ah.desktop_mut().fill(
                id,
                Rect::new(round % 100, 8, 16, 16),
                [round as u8, 200, 10, 255],
            );
            for _ in 0..25 {
                sim.step(5_000);
            }
        }
        let ok = sim.run_until(5_000, 2_000, |s| s.converged(p));
        assert!(ok, "divergence: {}", sim.divergence(p));
        let stats = sim.relay(relay).stats();
        assert!(
            stats.nacks_absorbed_seqs > 0,
            "relay should repair downstream loss locally: {stats:?}"
        );
        assert_eq!(
            stats.upstream_nacks(),
            0,
            "downstream loss must not leak upstream: {stats:?}"
        );
    }
}
