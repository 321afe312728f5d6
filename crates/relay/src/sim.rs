//! Deterministic relay-topology orchestrator: one [`AppHost`], a tree of
//! [`RelayNode`]s (AH→relay→…→relay) and N participants hanging off relay
//! legs — the [`World`] of `adshare-session` with relays in it, stepped,
//! tapped and captured exactly as a direct session is. What only a relay
//! tree decides lives here: the SDP re-offer chain, attaching relays and
//! legs, and the per-relay accessors.

use std::ops::{Deref, DerefMut};

use adshare_layers::TierStats;
use adshare_netsim::tcp::TcpConfig;
use adshare_netsim::udp::LinkConfig;
use adshare_screen::desktop::Desktop;
use adshare_sdp::{build_ah_offer, build_relay_offer, OfferParams, SessionDescription};
use adshare_session::world::{Parent, World};
use adshare_session::{AhConfig, AppHost, Layout, TransportKind};

use crate::{RelayConfig, RelayNode};

/// Where a relay subscribes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Upstream {
    /// Directly to the application host.
    Ah,
    /// To another relay (by its index), forming a cascade.
    Relay(usize),
}

/// A complete simulated relay-tier session. Everything a world does —
/// stepping, capture, convergence — it does through [`Deref`] to its
/// [`World`].
pub struct RelaySim {
    world: World<RelayNode>,
    ah_offer: SessionDescription,
    /// The SDP each relay re-offers downstream, by relay index.
    offers: Vec<SessionDescription>,
}

impl Deref for RelaySim {
    type Target = World<RelayNode>;

    fn deref(&self) -> &World<RelayNode> {
        &self.world
    }
}

impl DerefMut for RelaySim {
    fn deref_mut(&mut self) -> &mut World<RelayNode> {
        &mut self.world
    }
}

impl RelaySim {
    /// Create a session around a desktop. `offer` seeds the SDP chain the
    /// relays re-offer downstream.
    pub fn new(desktop: Desktop, cfg: AhConfig, offer: &OfferParams, seed: u64) -> Self {
        RelaySim {
            world: World::with_host(AppHost::new(desktop, cfg, seed)),
            ah_offer: build_ah_offer(offer),
            offers: Vec::new(),
        }
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
        let idx = self.relay_parents().count();
        let mut node = RelayNode::new(cfg, idx as u16);
        node.attach_obs(self.obs().clone());
        let (parent, parent_offer) = match upstream {
            Upstream::Ah => {
                // The AH sees the relay as one more unicast UDP receiver.
                let handle = self.ah.attach_udp(0x5200 + idx as u16, down, seed, None);
                (Parent::Ah(handle), &self.ah_offer)
            }
            Upstream::Relay(parent) => {
                assert!(parent < idx, "cascade parents must be added first");
                let leg = self.relay_mut(parent).add_leg_udp(down, seed, None);
                self.register_leg_metrics(parent, leg);
                (Parent::Leg(parent, leg), &self.offers[parent])
            }
        };
        let offer = build_relay_offer(parent_offer, &format!("10.82.0.{}", idx + 1));
        self.offers.push(offer);
        node.subscribe(self.clock.now_us());
        self.world.add_relay_node(node, parent, up, seed)
    }

    fn register_leg_metrics(&self, relay: usize, leg: usize) {
        if let Some(link) = self.relay(relay).leg_link(leg) {
            link.register_metrics(
                &self.obs().registry,
                &format!("relay.{relay}.leg.{leg}.down"),
            );
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
        let leg = self.relay_mut(relay).add_leg_udp(down, seed, rate_bps);
        self.register_leg_metrics(relay, leg);
        self.add_viewer(
            Parent::Leg(relay, leg),
            TransportKind::Udp,
            layout,
            up,
            seed,
        )
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
        let leg = self.relay_mut(relay).add_leg_tcp(tcp, rate_bps);
        self.add_viewer(
            Parent::Leg(relay, leg),
            TransportKind::Tcp,
            layout,
            up,
            seed,
        )
    }

    /// The `(relay, leg)` a participant hangs off.
    pub fn participant_leg(&self, idx: usize) -> (usize, usize) {
        match self.parent(idx) {
            Parent::Leg(relay, leg) => (relay, leg),
            Parent::Ah(_) => unreachable!("relay-tree viewers hang off relay legs"),
        }
    }

    /// The SDP a relay re-offers downstream (`adshare-relay-hops` counts
    /// its distance from the AH).
    pub fn relay_offer(&self, idx: usize) -> &SessionDescription {
        &self.offers[idx]
    }

    /// Per-leg tier snapshot of a relay at the current sim time.
    pub fn tier_stats(&mut self, relay: usize) -> TierStats {
        let now = self.clock.now_us();
        self.relay_mut(relay).tier_stats(now)
    }

    /// Wire bytes the AH has sent to relay subscribers — the AH's total
    /// egress in a pure relay topology, regardless of participant count.
    pub fn ah_egress_bytes(&self) -> u64 {
        self.relay_parents()
            .filter_map(|parent| match parent {
                Parent::Ah(handle) => Some(self.ah.participant_bytes_sent(handle)),
                Parent::Leg(..) => None,
            })
            .sum()
    }

    /// Step repeatedly until `pred` holds or `max_steps` elapse; returns
    /// whether the predicate held.
    pub fn run_until(
        &mut self,
        dt_us: u64,
        max_steps: usize,
        mut pred: impl FnMut(&RelaySim) -> bool,
    ) -> bool {
        (0..max_steps).any(|_| {
            self.step(dt_us);
            pred(self)
        })
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
