//! Deterministic session orchestrator: one [`AppHost`] and N
//! [`Participant`](crate::Participant)s on direct links, stepped on a
//! virtual clock — the [`World`] without relays. Every experiment and
//! integration test drives this. What only a direct session decides lives
//! here: unicast, TCP and multicast attachment and SDP bootstrap.

use adshare_netsim::tcp::TcpConfig;
use adshare_netsim::udp::LinkConfig;
use adshare_screen::desktop::Desktop;

use crate::app_host::{AppHost, ParticipantHandle};
use crate::config::{AhConfig, Layout, TransportKind};
use crate::world::{NoRelay, Parent, World};

/// A complete simulated sharing session: the world with direct viewers only.
pub type SimSession = World<NoRelay>;

// A host moves sessions between worker threads.
const _: fn() = || {
    fn send<T: Send>() {}
    send::<SimSession>();
};

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
        World::with_host(AppHost::new_with_pipeline(desktop, cfg, seed, encode))
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
        let handle = self
            .ah
            .attach_udp(self.next_user_id(), down, seed, rate_bps);
        self.add_viewer(Parent::Ah(handle), TransportKind::Udp, layout, up, seed)
    }

    /// Add a TCP participant (initial state flows immediately, §4.4).
    pub fn add_tcp_participant(
        &mut self,
        layout: Layout,
        link: TcpConfig,
        up: LinkConfig,
        seed: u64,
    ) -> usize {
        let handle = self.ah.attach_tcp(self.next_user_id(), link);
        self.add_viewer(Parent::Ah(handle), TransportKind::Tcp, layout, up, seed)
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
        let handle = self
            .ah
            .attach_multicast_session(session, self.next_user_id(), down, seed)
            .expect("multicast session exists");
        self.add_viewer(
            Parent::Ah(handle),
            TransportKind::Multicast,
            layout,
            up,
            seed,
        )
    }

    /// Schedule time-varying downlink conditions for a UDP participant's
    /// downstream channel (bandwidth steps, loss changes) — the substrate
    /// for rate-adaptation experiments.
    pub fn set_link_schedule(&mut self, idx: usize, steps: Vec<adshare_netsim::LinkStep>) {
        let handle = self.handle(idx);
        self.ah.set_link_schedule(handle, steps);
    }

    /// The AH-side handle of a participant.
    pub fn handle(&self, idx: usize) -> ParticipantHandle {
        match self.parent(idx) {
            Parent::Ah(handle) => handle,
            Parent::Leg(..) => unreachable!("a direct session has no relays"),
        }
    }
}
