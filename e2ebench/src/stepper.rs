//! The benchmark's own world steppers for the traced run.
//!
//! They make the same public calls in the same order as
//! `SimSession::step` and `RelaySim::step` — `AppHost::step`,
//! `poll_udp`/`poll_tcp`, `Participant::handle_datagram`/`handle_stream`/
//! `tick`/`take_rtcp`, `AppHost::handle_rtcp`, `RelayNode::ingest_upstream`/
//! `step`/`poll_leg`/`handle_leg_rtcp`/`take_upstream_rtcp` — each wrapped in
//! a span, and keep every datagram a viewer received for the leaf replay.
//! The traced run fails unless its wire digest equals the untraced run's,
//! so a stepper that drifts from the product's is caught, not trusted.

use adshare::netsim::time::{us_to_ticks, VirtualClock};
use adshare::netsim::udp::UdpChannel;
use adshare::obs::Obs;
use adshare::prelude::*;
use adshare::session::ParticipantHandle;

use crate::trace::Tracer;
use crate::workloads::{
    relay_config, relay_seed, session_seed, viewer_seed, DirectViewer, RelayViewer,
};

/// Consecutive stuck steps before a viewer abandons a reorder gap (the
/// value both product orchestrators use).
const GAP_TIMEOUT_TICKS: u32 = 40;

/// What one viewer leg received and sent, kept for the leaf replay.
#[derive(Debug, Default)]
pub struct LegLog {
    /// Whether `rx` holds RFC 4571 stream chunks instead of datagrams.
    pub tcp: bool,
    /// Downstream datagrams (or stream chunks), in arrival order.
    pub rx: Vec<Vec<u8>>,
    /// Upstream RTCP compounds the viewer emitted.
    pub rtcp: Vec<Vec<u8>>,
}

/// A viewer with the state both orchestrators keep per participant.
struct Viewer {
    participant: Participant,
    upstream: UdpChannel,
    stuck_ticks: u32,
    last_held: usize,
    log: LegLog,
}

impl Viewer {
    fn new(idx: usize, nack: bool, up: LinkConfig, seed: u64, tcp: bool, obs: &Obs) -> Viewer {
        let mut participant =
            Participant::new(idx as u16 + 1, Layout::Original, nack, seed ^ 0x9e37);
        participant.attach_obs(obs, idx);
        Viewer {
            participant,
            upstream: UdpChannel::new(up, seed ^ 0x1234),
            stuck_ticks: 0,
            last_held: 0,
            log: LegLog {
                tcp,
                ..LegLog::default()
            },
        }
    }

    /// Feed a downstream batch, then run the gap timeout, housekeeping and
    /// RTCP emission exactly as the orchestrators do. Returns the RTCP
    /// compound to send upstream, if any, and whether a gap was abandoned.
    fn receive(
        &mut self,
        batch: Vec<Vec<u8>>,
        ticks: u64,
        tr: &mut Tracer,
    ) -> (Option<Vec<u8>>, bool) {
        if !batch.is_empty() {
            let p = &mut self.participant;
            tr.span("session.participant_rx", || {
                for dg in &batch {
                    if self.log.tcp {
                        p.handle_stream(dg, ticks);
                    } else {
                        p.handle_datagram(dg, ticks);
                    }
                }
            });
            self.log.rx.extend(batch);
        }
        let span = tr.begin("session.participant_tick");
        let mut gap = false;
        let held = self.participant.reorder_held();
        if held > 0 && held == self.last_held {
            self.stuck_ticks += 1;
            if self.stuck_ticks >= GAP_TIMEOUT_TICKS {
                self.participant.recover_from_gap();
                self.stuck_ticks = 0;
                gap = true;
            }
        } else {
            self.stuck_ticks = 0;
        }
        self.last_held = self.participant.reorder_held();
        self.participant.tick(ticks);
        let rtcp = self.participant.take_rtcp();
        tr.end(span);
        if let Some(bytes) = &rtcp {
            self.log.rtcp.push(bytes.clone());
        }
        (rtcp, gap)
    }
}

/// AH plus directly attached viewers: the traced twin of `SimSession`.
pub struct Direct {
    /// The application host.
    pub ah: AppHost,
    clock: VirtualClock,
    obs: Obs,
    viewers: Vec<(ParticipantHandle, Viewer)>,
    /// Reorder gaps abandoned to a PLI refresh.
    pub gap_recoveries: u64,
}

impl Direct {
    /// Build from a plan exactly as `SimSession::new` +
    /// `add_udp_participant`/`add_tcp_participant` would.
    pub fn new(desktop: Desktop, seed: u64, cfg: AhConfig, viewers: &[DirectViewer]) -> Direct {
        let obs = Obs::new();
        let mut ah = AppHost::new(desktop, cfg, session_seed(seed, 0));
        ah.attach_obs(obs.clone());
        let nack = ah.config().retransmissions;
        let mut out = Vec::new();
        for (idx, v) in viewers.iter().enumerate() {
            let seed = viewer_seed(seed, idx);
            let user_id = idx as u16 + 1;
            out.push(match *v {
                DirectViewer::Udp { down, up } => {
                    let handle = ah.attach_udp(user_id, down, seed, None);
                    let mut viewer = Viewer::new(idx, nack, up, seed, false, &obs);
                    viewer.participant.request_refresh();
                    (handle, viewer)
                }
                DirectViewer::Tcp { link, up } => {
                    let handle = ah.attach_tcp(user_id, link);
                    (handle, Viewer::new(idx, false, up, seed, true, &obs))
                }
            });
        }
        Direct {
            ah,
            clock: VirtualClock::new(),
            obs,
            viewers: out,
            gap_recoveries: 0,
        }
    }

    /// Advance the world by `dt_us`, as `SimSession::step` does.
    pub fn step(&mut self, dt_us: u64, tr: &mut Tracer) {
        self.clock.advance_us(dt_us);
        let now = self.clock.now_us();
        let ticks = us_to_ticks(now);
        let ah = &mut self.ah;
        tr.span("session.ah_step", || ah.step(now));
        for (handle, v) in &mut self.viewers {
            let handle = *handle;
            let batch = tr.span("session.ah_poll", || {
                if v.log.tcp {
                    let bytes = ah.poll_tcp(handle, now);
                    if bytes.is_empty() {
                        Vec::new()
                    } else {
                        vec![bytes]
                    }
                } else {
                    ah.poll_udp(handle, now)
                }
            });
            let (rtcp, gap) = v.receive(batch, ticks, tr);
            self.gap_recoveries += gap as u64;
            tr.span("session.ah_rtcp", || {
                if let Some(bytes) = rtcp {
                    // The orchestrator tags upstream traffic by kind ('R' =
                    // RTCP) where the real system uses distinct ports.
                    let mut tagged = Vec::with_capacity(bytes.len() + 1);
                    tagged.push(b'R');
                    tagged.extend_from_slice(&bytes);
                    v.upstream.send(now, &tagged);
                }
                for dg in v.upstream.poll(now) {
                    if let Some((b'R', rest)) = dg.split_first() {
                        ah.handle_rtcp(handle, rest, now);
                    }
                }
            });
        }
        // No floor is ever requested, but the timer call is part of the
        // orchestrator's step.
        ah.tick_floor(now);
    }

    /// The session's observability bundle.
    pub fn obs(&self) -> &Obs {
        &self.obs
    }

    /// A viewer's participant.
    pub fn participant(&self, idx: usize) -> &Participant {
        &self.viewers[idx].1.participant
    }

    /// Virtual now, µs.
    pub fn now_us(&self) -> u64 {
        self.clock.now_us()
    }

    /// Take every viewer's log (leaving empty ones behind).
    pub fn take_logs(&mut self) -> Vec<LegLog> {
        self.viewers
            .iter_mut()
            .map(|(_, v)| std::mem::take(&mut v.log))
            .collect()
    }
}

struct Stage {
    node: RelayNode,
    /// AH-side handle when subscribed to the AH.
    handle: Option<ParticipantHandle>,
    /// `(relay, leg)` when subscribed to another relay.
    parent: Option<(usize, usize)>,
    upstream: UdpChannel,
}

/// AH, relay tree and viewers: the traced twin of `RelaySim`.
pub struct Relay {
    /// The application host.
    pub ah: AppHost,
    clock: VirtualClock,
    obs: Obs,
    relays: Vec<Stage>,
    viewers: Vec<(usize, usize, Viewer)>,
    /// Reorder gaps abandoned to a PLI refresh.
    pub gap_recoveries: u64,
}

impl Relay {
    /// Build from a plan exactly as `RelaySim::new` + `add_relay` +
    /// `add_participant_rate` would.
    pub fn new(
        desktop: Desktop,
        seed: u64,
        cfg: AhConfig,
        hop: LinkConfig,
        relays: &[Upstream],
        viewers: &[RelayViewer],
    ) -> Relay {
        let obs = Obs::new();
        let mut ah = AppHost::new(desktop, cfg, session_seed(seed, 0));
        ah.attach_obs(obs.clone());
        let mut stages: Vec<Stage> = Vec::new();
        for (idx, upstream) in relays.iter().enumerate() {
            let seed = relay_seed(seed, idx);
            let mut node = RelayNode::new(relay_config(), idx as u16);
            node.attach_obs(obs.clone());
            let (handle, parent) = match *upstream {
                Upstream::Ah => {
                    let handle = ah.attach_udp(0x5200 + idx as u16, hop, seed, None);
                    (Some(handle), None)
                }
                Upstream::Relay(p) => {
                    let leg = stages[p].node.add_leg_udp(hop, seed, None);
                    (None, Some((p, leg)))
                }
            };
            node.subscribe(0);
            stages.push(Stage {
                node,
                handle,
                parent,
                upstream: UdpChannel::new(hop, seed ^ 0x7E57),
            });
        }
        let mut out = Vec::new();
        for (idx, v) in viewers.iter().enumerate() {
            let seed = viewer_seed(seed, idx);
            let leg = stages[v.relay]
                .node
                .add_leg_udp(v.link, seed, Some(v.cap_bps));
            let mut viewer = Viewer::new(idx, true, v.link, seed, false, &obs);
            viewer.participant.request_refresh();
            out.push((v.relay, leg, viewer));
        }
        Relay {
            ah,
            clock: VirtualClock::new(),
            obs,
            relays: stages,
            viewers: out,
            gap_recoveries: 0,
        }
    }

    /// Advance the world by `dt_us`, as `RelaySim::step` does.
    pub fn step(&mut self, dt_us: u64, tr: &mut Tracer) {
        self.clock.advance_us(dt_us);
        let now = self.clock.now_us();
        let ticks = us_to_ticks(now);
        let ah = &mut self.ah;
        tr.span("session.ah_step", || ah.step(now));
        for i in 0..self.relays.len() {
            let datagrams = match self.relays[i].parent {
                None => {
                    let handle = self.relays[i].handle.expect("AH-attached relay");
                    tr.span("session.ah_poll", || ah.poll_udp(handle, now))
                }
                Some((parent, leg)) => {
                    let node = &mut self.relays[parent].node;
                    tr.span("relay.poll_leg", || node.poll_leg(leg, now))
                }
            };
            let node = &mut self.relays[i].node;
            tr.span("relay.ingest", || {
                for dg in &datagrams {
                    node.ingest_upstream(dg, now);
                }
            });
            tr.span("relay.step", || node.step(now));
            let span = tr.begin("relay.leg_rtcp");
            if let Some(bytes) = self.relays[i].node.take_upstream_rtcp() {
                self.relays[i].upstream.send(now, &bytes);
            }
            for bytes in self.relays[i].upstream.poll(now) {
                match self.relays[i].parent {
                    None => {
                        let handle = self.relays[i].handle.expect("AH-attached relay");
                        ah.handle_rtcp(handle, &bytes, now);
                    }
                    Some((parent, leg)) => {
                        self.relays[parent].node.handle_leg_rtcp(leg, &bytes, now);
                    }
                }
            }
            tr.end(span);
        }
        for (relay, leg, v) in &mut self.viewers {
            let node = &mut self.relays[*relay].node;
            let batch = tr.span("relay.poll_leg", || node.poll_leg(*leg, now));
            let (rtcp, gap) = v.receive(batch, ticks, tr);
            self.gap_recoveries += gap as u64;
            tr.span("relay.leg_rtcp", || {
                if let Some(bytes) = rtcp {
                    v.upstream.send(now, &bytes);
                }
                for bytes in v.upstream.poll(now) {
                    node.handle_leg_rtcp(*leg, &bytes, now);
                }
            });
        }
    }

    /// The session's observability bundle.
    pub fn obs(&self) -> &Obs {
        &self.obs
    }

    /// A viewer's participant.
    pub fn participant(&self, idx: usize) -> &Participant {
        &self.viewers[idx].2.participant
    }

    /// A relay node.
    pub fn relay(&self, idx: usize) -> &RelayNode {
        &self.relays[idx].node
    }

    /// A relay node, mutably (`tier_stats` needs it).
    pub fn relay_mut(&mut self, idx: usize) -> &mut RelayNode {
        &mut self.relays[idx].node
    }

    /// Number of relays.
    pub fn relay_count(&self) -> usize {
        self.relays.len()
    }

    /// Virtual now, µs.
    pub fn now_us(&self) -> u64 {
        self.clock.now_us()
    }

    /// Take every viewer's log (leaving empty ones behind).
    pub fn take_logs(&mut self) -> Vec<LegLog> {
        self.viewers
            .iter_mut()
            .map(|(_, _, v)| std::mem::take(&mut v.log))
            .collect()
    }
}
