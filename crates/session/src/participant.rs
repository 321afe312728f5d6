//! The participant: the shared receive half and window mirror, plus what
//! only a viewer has — decode latency, local layout and rendering, HIP
//! transmission and floor control.

use std::collections::HashMap;

use adshare_bfcp::FloorClient;
use adshare_codec::{Codec, Image, Rect};
use adshare_obs::{EventKind, Obs};
use adshare_remoting::hip::HipMessage;
use adshare_remoting::message::{MousePointerInfo, RemotingMessage};
use adshare_remoting::packetizer::HipPacketizer;
use adshare_remoting::reference::{Held, Miss, NameReport, REFERENCE_PT};
use adshare_remoting::WindowId as WireWindowId;
use adshare_rtp::framing::Deframer;
use adshare_rtp::packet::RtpPacket;
use adshare_rtp::rtcp::RtcpPacket;
use adshare_rtp::session::RtpSender;
use adshare_screen::Desktop;
use bytes::Bytes;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::config::Layout;
use crate::ingress::{is_rtcp, Ingress};
use crate::mirror::{Applied, Drawn, Mirror, PWindow};
pub use crate::mirror::{PARKED_CEILING_BYTES, WINDOW_BYTES_CEILING};

/// Participant statistics.
#[derive(Debug, Clone, Copy, Default)]
pub struct ParticipantStats {
    /// Remoting messages applied, by rough class.
    pub wmi_applied: u64,
    /// RegionUpdates applied.
    pub regions_applied: u64,
    /// MoveRectangles applied.
    pub moves_applied: u64,
    /// MousePointerInfos applied.
    pub pointers_applied: u64,
    /// Updates whose payload failed to decode.
    pub decode_errors: u64,
    /// PLIs sent.
    pub plis_sent: u64,
    /// NACKs sent.
    pub nacks_sent: u64,
    /// Sequence numbers requested via NACK.
    pub seqs_nacked: u64,
    /// RegionUpdates applied by putting parked pixels back, not decoding.
    pub tiles_reused: u64,
    /// RegionUpdates applied by noticing the window already showed them.
    pub tiles_already_shown: u64,
    /// Times the pixels a decoded update replaced were parked.
    pub tiles_parked: u64,
    /// Bytes of parked pixels held right now (at most
    /// [`PARKED_CEILING_BYTES`]).
    pub parked_bytes: u64,
    /// Parked tiles evicted to stay under the ceiling.
    pub parked_evictions: u64,
    /// WindowManagerInfo records refused for a size no window can have,
    /// alone or together with the rest of their message
    /// ([`WINDOW_BYTES_CEILING`]).
    pub windows_refused: u64,
    /// RegionUpdates refused before decoding because the tile their
    /// payload or reference declares cannot fit their window.
    pub tiles_refused: u64,
    /// RegionUpdates that named a tile held here instead of carrying it.
    pub refs_resolved: u64,
    /// References to a tile not held here, each answered with a miss
    /// report (and by the sender with a refresh).
    pub refs_missed: u64,
    /// Reports of the names held here sent to the sender.
    pub name_reports: u64,
}

/// Earliest a set of names that gained worthwhile ones is reported again
/// after the last report (20 ms at 90 kHz); otherwise the set goes with
/// each receiver report.
const REPORT_MIN_TICKS: u64 = 1_800;

/// Least payload bytes newly held names must stand for before they are
/// reported early, in a datagram of their own: a few packets' worth (and
/// more than a full report's 4 KiB), which a photographic tile is and a
/// typed word is not.
const EARLY_REPORT_GAIN_BYTES: usize = 4_096;

/// What a viewer has told its sender about the tiles it holds.
#[derive(Debug, Default)]
struct Reported {
    /// The names as last reported, sorted.
    names: Vec<Held>,
    /// The names now with their payloads' lengths: working space, kept
    /// between ticks.
    now: Vec<(Held, u32)>,
    /// Whether any report went out (before one, an empty set is news to
    /// nobody).
    any: bool,
    /// When the last one went out (90 kHz).
    at_ticks: u64,
    /// A miss or a PLI was sent: the sender forgot every name, so report
    /// again as soon as the rate allows even if nothing changed.
    due: bool,
    /// PLIs sent as of the last look.
    plis: u64,
    /// [`Mirror::gained`] as of the last look: while it stands still the
    /// set cannot have gained a name, and is not listed again.
    gained: u64,
}

/// The participant (Figure 1's client side).
#[derive(Debug)]
pub struct Participant {
    user_id: u16,
    layout: Layout,
    /// Reorder, reassembly and the feedback owed to the sender.
    rx: Ingress,
    /// The shared windows as the stream describes them.
    mirror: Mirror,
    /// Local positions assigned by the layout policy.
    local_pos: HashMap<u16, (u32, u32)>,
    deframer: Deframer,
    hip: HipPacketizer,
    floor: FloorClient,
    /// Pointer position + icon (explicit model).
    pointer: Option<((u32, u32), Option<Image>)>,
    /// Latest sender-report mapping from the AH: (sender clock µs, RTP ts).
    /// RFC 3550's wallclock↔timestamp anchor; lets the viewer compute true
    /// capture→display latency.
    sr_anchor: Option<(u64, u32)>,
    /// Capture→display latencies of applied updates, µs (bounded buffer).
    latencies_us: Vec<u64>,
    /// Timestamp of the RTP packet currently being reassembled/applied.
    current_pkt_ts: u32,
    /// What [`Participant::apply`] did; the feedback and parked-tile
    /// counters are read from `rx` and `mirror`.
    stats: ParticipantStats,
    /// Exported under `participant.{index}.*` once an [`Obs`] is attached.
    metrics: Metrics,
    /// Observability bundle when attached; completes frame traces the AH
    /// registered at packetize time.
    obs: Option<Obs>,
    /// Flight-recorder actor id (the participant index from `attach_obs`).
    obs_actor: u16,
    /// Reassembly copy counters already reported to the recorder.
    last_copy_stats: (u64, u64),
    /// Dropped-partial count already reported to the recorder.
    last_dropped: u64,
    /// The names reported to the sender, so it can send them by name.
    reported: Reported,
}

adshare_obs::metric_set! {
    /// What a participant exports about its own reception.
    struct Metrics {
        /// RTP media packets ingested (datagram or stream).
        rx_packets: counter "rtp_rx_packets",
        /// End-to-end latency of each delivered frame, µs.
        frame_latency: histogram "frame_latency_us",
        /// Cumulative loss reported in the latest RR.
        rtcp_cum_lost: gauge "rtcp_cum_lost",
        /// Highest sequence number reported in the latest RR.
        rtcp_highest_seq: gauge "rtcp_highest_seq",
    }
}

impl Participant {
    /// Create a participant. `nack_enabled` mirrors the SDP
    /// `retransmissions` parameter.
    pub fn new(user_id: u16, layout: Layout, nack_enabled: bool, seed: u64) -> Self {
        let mut rng = StdRng::seed_from_u64(seed);
        let ssrc = 0x50000000 | user_id as u32;
        Participant {
            user_id,
            layout,
            rx: Ingress::new(
                ssrc,
                format!("participant-{user_id}@adshare"),
                nack_enabled,
                seed,
            ),
            hip: HipPacketizer::new(RtpSender::new(ssrc ^ 0xffff, 100, &mut rng), 1400),
            // Drawn after the HIP sender's values, which stay what they were.
            mirror: Mirror::resolving(rng.gen()),
            local_pos: HashMap::new(),
            deframer: Deframer::default(),
            floor: FloorClient::new(1, user_id, 0),
            pointer: None,
            sr_anchor: None,
            latencies_us: Vec::new(),
            current_pkt_ts: 0,
            stats: ParticipantStats::default(),
            metrics: Metrics::default(),
            obs: None,
            obs_actor: 0,
            last_copy_stats: (0, 0),
            last_dropped: 0,
            reported: Reported::default(),
        }
    }

    /// Attach an observability bundle: export this participant's receive
    /// counters and RR mirrors under `participant.{index}.*`, record
    /// end-to-end latency into `participant.{index}.frame_latency_us`, and
    /// complete the frame traces the AH registers at packetize time.
    pub fn attach_obs(&mut self, obs: &Obs, index: usize) {
        self.metrics
            .register(&obs.registry, &format!("participant.{index}"));
        self.obs_actor = index as u16;
        self.rx.attach_obs(obs.clone(), self.obs_actor);
        self.obs = Some(obs.clone());
    }

    /// Record a flight-recorder event at `now_ticks`.
    fn rec(&self, now_ticks: u64, kind: EventKind, a: u64, b: u64) {
        if let Some(obs) = &self.obs {
            obs.event(now_ticks * 100 / 9, self.obs_actor, kind, a, b);
        }
    }

    /// Report newly abandoned partial reassemblies to the recorder.
    fn note_fragment_drops(&mut self, now_ticks: u64) {
        let d = self.rx.depacketizer().dropped_partials();
        if d > self.last_dropped {
            self.rec(now_ticks, EventKind::FragmentDrop, d - self.last_dropped, 0);
            self.last_dropped = d;
        }
    }

    /// This participant's user id.
    pub fn user_id(&self) -> u16 {
        self.user_id
    }

    /// Statistics so far.
    pub fn stats(&self) -> ParticipantStats {
        let feedback = self.rx.stats();
        let (parked_bytes, parked_evictions) = self.mirror.parked();
        ParticipantStats {
            plis_sent: feedback.plis_sent,
            nacks_sent: feedback.nacks_sent,
            seqs_nacked: feedback.seqs_nacked,
            parked_bytes: parked_bytes as u64,
            parked_evictions,
            windows_refused: self.mirror.windows_refused(),
            tiles_refused: self.mirror.tiles_refused(),
            ..self.stats
        }
    }

    /// Whether initial state (a WindowManagerInfo) has arrived.
    pub fn synced(&self) -> bool {
        self.mirror.synced()
    }

    /// The BFCP floor client.
    pub fn floor_mut(&mut self) -> &mut FloorClient {
        &mut self.floor
    }

    /// The BFCP floor client, read-only.
    pub fn floor(&self) -> &FloorClient {
        &self.floor
    }

    /// Queue a PLI (join, or unrecoverable loss) for the next RTCP flush.
    pub fn request_refresh(&mut self) {
        self.rx.request_refresh(self.rx.last_ticks());
    }

    /// Periodic housekeeping ([`Ingress::tick`]): resync PLI while no
    /// WindowManagerInfo has arrived, due and stale NACKs, receiver report
    /// — and the report of the names this viewer holds.
    pub fn tick(&mut self, now_ticks: u64) {
        let block = self.rx.tick(now_ticks, self.mirror.synced());
        if let Some(block) = &block {
            let gauges = &self.metrics;
            gauges.rtcp_cum_lost.set(block.cumulative_lost as i64);
            gauges.rtcp_highest_seq.set(block.highest_seq as i64);
        }
        self.report_names(now_ticks, block.is_some());
    }

    /// Queue a report of every name the mirror resolves (DESIGN §5.2 "Tile
    /// references"): with each receiver report once there is something to
    /// say, and early — at most every [`REPORT_MIN_TICKS`] — when a miss or
    /// a PLI made the sender forget the set, or when it gained names whose
    /// payloads reach [`EARLY_REPORT_GAIN_BYTES`] (small tiles that come
    /// and go, typed text, wait for the receiver report). A viewer that
    /// never held a name never sends one.
    fn report_names(&mut self, now_ticks: u64, with_rr: bool) {
        let r = &mut self.reported;
        let plis = self.rx.stats().plis_sent;
        r.due |= std::mem::replace(&mut r.plis, plis) != plis;
        let gained = self.mirror.gained();
        if !(with_rr || r.due || gained != r.gained) {
            return;
        }
        self.mirror.names_into(&mut r.now);
        let known = |(held, _): &&(Held, u32)| r.names.binary_search(held).is_ok();
        let new_bytes: usize = r
            .now
            .iter()
            .filter(|e| !known(e))
            .map(|e| e.1 as usize)
            .sum();
        let worth = new_bytes >= EARLY_REPORT_GAIN_BYTES;
        let rate = now_ticks.saturating_sub(r.at_ticks) >= REPORT_MIN_TICKS;
        // Looked: the next look waits for a name gained, unless the rate
        // is holding back a report worth sending.
        if rate || !worth {
            r.gained = gained;
        }
        let early = (r.due || worth) && rate;
        if (!r.any && r.now.is_empty()) || !(with_rr || early) {
            return;
        }
        let (ssrc, media) = (self.rx.ssrc(), self.rx.media_ssrc());
        r.names.clear();
        r.names.extend(r.now.iter().map(|e| e.0));
        let (seed, moves) = (self.mirror.seed(), self.mirror.moves());
        let report = NameReport::packet(ssrc, media, seed, moves, &r.names);
        self.rx.queue_rtcp(report);
        self.mirror.pin(r.names.iter().copied());
        (r.any, r.at_ticks, r.due) = (true, now_ticks, false);
        self.stats.name_reports += 1;
    }

    /// Configure NACK-storm backoff (§5.3.2), see
    /// [`Ingress::set_nack_backoff`].
    pub fn set_nack_backoff(&mut self, max_ticks: u64) {
        self.rx.set_nack_backoff(max_ticks);
    }

    /// NACKs suppressed by the backoff (repair arrived before the timer).
    pub fn nacks_suppressed(&self) -> u64 {
        self.rx.nacks_suppressed()
    }

    /// Process an RTCP packet from the AH: a sender report anchors the
    /// playout clock and is echoed in the next receiver report.
    fn handle_downstream_rtcp(&mut self, datagram: &[u8], now_ticks: u64) {
        let Ok(packets) = adshare_rtp::rtcp::decode_compound(datagram) else {
            return;
        };
        for pkt in packets {
            if let RtcpPacket::SenderReport(sr) = pkt {
                self.sr_anchor = Some((sr.ntp, sr.rtp_ts));
                self.rx.on_sender_report(sr.ntp, now_ticks);
            }
        }
    }

    /// RFC 5761 demultiplexing of one datagram or deframed stream packet: a
    /// sender report is taken here, a media packet is counted and returned.
    fn demux(&mut self, bytes: Bytes, now_ticks: u64) -> Option<RtpPacket> {
        if is_rtcp(&bytes) {
            self.handle_downstream_rtcp(&bytes, now_ticks);
            return None;
        }
        let pkt = RtpPacket::decode_bytes(bytes).ok()?;
        self.metrics.rx_packets.inc();
        let (seq, len) = (pkt.header.sequence, pkt.payload.len());
        self.rec(now_ticks, EventKind::RtpRx, seq as u64, len as u64);
        Some(pkt)
    }

    /// Ingest one UDP datagram carrying a remoting RTP packet (or, per
    /// RFC 5761 rtcp-mux, an RTCP sender report). The payload is sliced out
    /// of `datagram`, not copied: reorder buffer, reassembler and decoder
    /// all read the buffer the link delivered.
    pub fn handle_datagram_bytes(&mut self, datagram: Bytes, now_ticks: u64) {
        if let Some(pkt) = self.demux(datagram, now_ticks) {
            self.rx.ingest(pkt, now_ticks);
            self.deliver_ready(now_ticks);
        }
    }

    /// [`Participant::handle_datagram_bytes`] for a borrowed datagram (real
    /// sockets, replayed captures, tests): the same ingest after one copy.
    pub fn handle_datagram(&mut self, datagram: &[u8], now_ticks: u64) {
        self.handle_datagram_bytes(Bytes::copy_from_slice(datagram), now_ticks);
    }

    /// Ingest TCP stream bytes (RFC 4571 framed remoting RTP, with RTCP
    /// sender reports multiplexed per RFC 5761). A packet that lies whole in
    /// `bytes` is copied once, into the buffer it is then parsed in and
    /// sliced from; only a packet cut off by the end of `bytes` is staged.
    pub fn handle_stream(&mut self, bytes: &[u8], now_ticks: u64) {
        let mut deframer = std::mem::take(&mut self.deframer);
        // An oversized frame wedges the stream, as it always has: nothing
        // after it is delivered.
        let _ = deframer.feed(bytes, |frame| {
            let Some(pkt) = self.demux(frame, now_ticks) else {
                return;
            };
            self.current_pkt_ts = pkt.header.timestamp;
            // TCP is ordered and reliable: no reorder buffer.
            if let Ok(Some(msg)) = self.rx.ingest_ordered(&pkt, now_ticks) {
                self.apply_reassembled(msg, pkt.header.ssrc, pkt.header.sequence, now_ticks);
            }
        });
        self.deframer = deframer;
        self.note_fragment_drops(now_ticks);
    }

    /// Record capture→display latency for the update that just completed,
    /// using the latest sender-report anchor.
    fn record_latency(&mut self, now_ticks: u64) {
        let Some((sr_us, sr_ts)) = self.sr_anchor else {
            return;
        };
        // Wrapping RTP-timestamp distance from the anchor (90 kHz).
        let dt_ticks = self.current_pkt_ts.wrapping_sub(sr_ts) as i32 as i64;
        let capture_us = sr_us as i64 + dt_ticks * 100 / 9;
        let now_us = (now_ticks * 100 / 9) as i64;
        let lat = (now_us - capture_us).max(0) as u64;
        if self.latencies_us.len() < 100_000 {
            self.latencies_us.push(lat);
        }
    }

    /// Capture→display latency percentiles of applied updates, in
    /// microseconds: (p50, p95, max). `None` until an SR anchor and at
    /// least one update have arrived.
    pub fn latency_summary_us(&self) -> Option<(u64, u64, u64)> {
        if self.latencies_us.is_empty() {
            return None;
        }
        let mut v = self.latencies_us.clone();
        v.sort_unstable();
        let p = |q: f64| v[((v.len() - 1) as f64 * q) as usize];
        Some((p(0.50), p(0.95), *v.last().expect("non-empty")))
    }

    /// Give up on a reorder gap (retransmission timed out): skip it,
    /// drop any partial message, and ask for a full refresh.
    pub fn recover_from_gap(&mut self) {
        if self.rx.give_up_gap() {
            self.after_gap(self.rx.last_ticks());
        }
    }

    /// Account one simulation step of the give-up rule
    /// ([`Ingress::watch_gap`]); whether a hole was given up on, so a
    /// capturing caller can tape the marker a replay needs.
    pub fn watch_gap(&mut self, now_ticks: u64) -> bool {
        let gave_up = self.rx.watch_gap();
        if gave_up {
            self.after_gap(now_ticks);
        }
        gave_up
    }

    /// The messages behind a skipped hole are delivered as of now — they
    /// are the stalest of the session — and the screen is refreshed.
    fn after_gap(&mut self, now_ticks: u64) {
        self.note_fragment_drops(now_ticks);
        self.deliver_ready(now_ticks);
        self.request_refresh();
    }

    /// Number of packets parked in the reorder buffer (for timeout logic).
    pub fn reorder_held(&self) -> usize {
        self.rx.held()
    }

    /// Whether this view of every shared window matches `desktop` pixel for
    /// pixel — the convergence criterion of the simulations.
    pub fn converged_with(&self, desktop: &Desktop) -> bool {
        if !self.synced() {
            return false;
        }
        let records: Vec<_> = desktop.wm().shared_records().collect();
        records.len() == self.z_order().len()
            && records.iter().all(|rec| {
                let local = self.window_content(rec.id.0);
                local.is_some() && local == desktop.window_content(rec.id)
            })
    }

    /// Mean per-pixel absolute error between this view's windows and
    /// `desktop`'s (0.0 = identical; tolerates lossy codecs). Infinite when
    /// a shared window is missing or has another size here.
    pub fn divergence_from(&self, desktop: &Desktop) -> f64 {
        let mut errors = Vec::new();
        for rec in desktop.wm().shared_records() {
            match (
                self.window_content(rec.id.0),
                desktop.window_content(rec.id),
            ) {
                (Some(local), Some(remote))
                    if local.width() == remote.width() && local.height() == remote.height() =>
                {
                    errors.push(local.mean_abs_error(remote));
                }
                _ => return f64::INFINITY,
            }
        }
        errors.iter().sum::<f64>() / errors.len().max(1) as f64
    }

    /// Announce departure (RFC 3550 §6.6): queue a BYE for the next RTCP
    /// flush. The session layer sends it when the participant leaves.
    pub fn leave(&mut self) {
        self.rx.queue_rtcp(RtcpPacket::Bye(adshare_rtp::rtcp::Bye {
            sources: vec![self.rx.ssrc()],
            reason: Some("leaving session".to_owned()),
        }));
    }

    /// Take outbound RTCP compound bytes (empty when nothing to send).
    pub fn take_rtcp(&mut self) -> Option<Vec<u8>> {
        self.rx.take_rtcp()
    }

    /// [`Participant::take_rtcp`], appended to the caller's buffer `out`;
    /// whether there was any.
    pub fn take_rtcp_into(&mut self, out: &mut Vec<u8>) -> bool {
        self.rx.take_rtcp_into(out)
    }

    /// Build HIP RTP datagrams for a user event at `now_ticks`.
    pub fn send_hip(&mut self, msg: &HipMessage, now_ticks: u64) -> Vec<Vec<u8>> {
        match self.hip.packetize(msg, now_ticks as u32) {
            Ok(pkts) => pkts.iter().map(|p| p.encode()).collect(),
            Err(_) => Vec::new(),
        }
    }

    /// Apply every message the reorder buffer can release in order.
    fn deliver_ready(&mut self, now_ticks: u64) {
        while let Some((pkt, fed)) = self.rx.pop() {
            self.current_pkt_ts = pkt.header.timestamp;
            match fed {
                Ok(Some(msg)) => {
                    self.apply_reassembled(msg, pkt.header.ssrc, pkt.header.sequence, now_ticks)
                }
                Ok(None) => {}
                Err(_) => self.note_fragment_drops(now_ticks),
            }
        }
    }

    /// Apply one reassembled message, recording latency and — when an
    /// observability bundle is attached — completing the frame trace keyed
    /// by the final fragment's `(ssrc, seq)`.
    fn apply_reassembled(&mut self, msg: RemotingMessage, ssrc: u32, seq: u16, now_ticks: u64) {
        self.record_latency(now_ticks);
        self.rec(now_ticks, EventKind::Reassembled, seq as u64, 0);
        let (allocs, copied) = self.rx.depacketizer().copy_stats();
        if (allocs, copied) != self.last_copy_stats {
            self.rec(
                now_ticks,
                EventKind::ReassemblyCopy,
                allocs - self.last_copy_stats.0,
                copied - self.last_copy_stats.1,
            );
            self.last_copy_stats = (allocs, copied);
        }
        let traced = self.obs.is_some() && matches!(msg, RemotingMessage::RegionUpdate(_));
        if !traced {
            self.apply(msg);
            return;
        }
        let decode_start = std::time::Instant::now();
        self.apply(msg);
        let decode_us = decode_start.elapsed().as_micros() as u64;
        let now_us = now_ticks * 100 / 9; // 90 kHz ticks → µs
        if let Some(obs) = &self.obs {
            if let Some(stages) = obs.complete_frame(ssrc, seq, now_us, decode_us) {
                self.metrics.frame_latency.record(stages.total_us);
                // Virtual-time staleness only (damage → delivered): the
                // health engine's windowed staleness rule consumes this,
                // and excluding wall-clock encode/decode keeps verdicts
                // deterministic under a seeded simulation.
                self.rec(
                    now_ticks,
                    EventKind::FrameDelivered,
                    stages.damage_us + stages.transport_us,
                    seq as u64,
                );
            }
        }
    }

    /// Apply one remoting message to local state.
    pub fn apply(&mut self, msg: RemotingMessage) {
        let reference = matches!(&msg, RemotingMessage::RegionUpdate(ru)
            if ru.payload_type == REFERENCE_PT);
        match self.mirror.apply(&msg) {
            Applied::Windows => {
                self.stats.wmi_applied += 1;
                self.rx.set_message_cap(self.mirror.message_cap());
                let mirror = &self.mirror;
                self.local_pos.retain(|id, _| mirror.window(*id).is_some());
                self.assign_layout();
            }
            Applied::Region { how, .. } => {
                self.stats.regions_applied += 1;
                self.stats.refs_resolved += reference as u64;
                match how {
                    Drawn::AlreadyShown => self.stats.tiles_already_shown += 1,
                    Drawn::Reused => self.stats.tiles_reused += 1,
                    Drawn::Decoded { parked } => self.stats.tiles_parked += parked as u64,
                }
            }
            Applied::Moved => self.stats.moves_applied += 1,
            Applied::Undecodable => self.stats.decode_errors += 1,
            Applied::UnknownWindow | Applied::Refused | Applied::TooLarge => {}
            Applied::Missed { name } => {
                // Answered like a PLI: the sender refreshes this viewer and
                // forgets what it was told, so tell it again.
                self.stats.refs_missed += 1;
                self.reported.due = true;
                let (ssrc, media_ssrc) = (self.rx.ssrc(), self.rx.media_ssrc());
                let miss = Miss {
                    ssrc,
                    media_ssrc,
                    name,
                };
                self.rx.queue_rtcp(miss.to_rtcp());
            }
            Applied::Pointer => {
                if let RemotingMessage::MousePointerInfo(mp) = &msg {
                    self.move_pointer(mp);
                }
            }
        }
    }

    /// Take a pointer position, and its icon when one comes with it ("the
    /// participant MUST move the existing pointer image" otherwise).
    fn move_pointer(&mut self, mp: &MousePointerInfo) {
        let icon = match &mp.image {
            Some(bytes) => {
                let codec = self.mirror.codecs().get(mp.payload_type);
                match codec.map(|c| c.decode(bytes)) {
                    Some(Ok(img)) => Some(img),
                    _ => {
                        self.stats.decode_errors += 1;
                        None
                    }
                }
            }
            None => self.pointer.take().and_then(|(_, icon)| icon),
        };
        self.pointer = Some(((mp.left, mp.top), icon));
        self.stats.pointers_applied += 1;
    }

    /// Assign local window positions per the layout policy (Figures 3–5).
    fn assign_layout(&mut self) {
        match self.layout {
            Layout::Original => {
                for (id, w) in self.mirror.stacked() {
                    self.local_pos.insert(id, (w.ah_rect.left, w.ah_rect.top));
                }
            }
            Layout::Shifted { dx, dy } => {
                for (id, w) in self.mirror.stacked() {
                    let x = (w.ah_rect.left as i64 - dx).max(0) as u32;
                    let y = (w.ah_rect.top as i64 - dy).max(0) as u32;
                    self.local_pos.insert(id, (x, y));
                }
            }
            Layout::Packed { width, height } => {
                // Simple shelf packing in z-order; keeps every window fully
                // on screen where possible (participant 3, Figure 5).
                let mut x = 0u32;
                let mut y = 0u32;
                let mut shelf = 0u32;
                for (id, w) in self.mirror.stacked() {
                    let ww = w.ah_rect.width.min(width);
                    let wh = w.ah_rect.height.min(height);
                    if x + ww > width {
                        x = 0;
                        y = (y + shelf).min(height.saturating_sub(1));
                        shelf = 0;
                    }
                    self.local_pos.insert(id, (x, y));
                    x = (x + ww).min(width);
                    shelf = shelf.max(wh);
                }
            }
            Layout::GroupedPacked { width, height } => {
                // Pack group bounding boxes shelf-wise; within a group every
                // window keeps its offset from the group's bounding box, so
                // related windows (toolbars, dialogs) stay arranged (§4.1:
                // grouping MAY be used while relocating windows).
                let mut groups: Vec<(u8, Rect, Vec<u16>)> = Vec::new();
                for (id, w) in self.mirror.stacked() {
                    // GroupID 0 = "no grouping": each such window is its own
                    // unit (§5.2.1).
                    let slot = if w.group != 0 {
                        groups.iter_mut().find(|(g, _, _)| *g == w.group)
                    } else {
                        None
                    };
                    match slot {
                        Some((_, bbox, ids)) => {
                            *bbox = bbox.union(&w.ah_rect);
                            ids.push(id);
                        }
                        None => groups.push((w.group, w.ah_rect, vec![id])),
                    }
                }
                let mut x = 0u32;
                let mut y = 0u32;
                let mut shelf = 0u32;
                for (_, bbox, ids) in groups {
                    let gw = bbox.width.min(width);
                    let gh = bbox.height.min(height);
                    if x + gw > width {
                        x = 0;
                        y = (y + shelf).min(height.saturating_sub(1));
                        shelf = 0;
                    }
                    for id in ids {
                        let Some(w) = self.mirror.window(id) else {
                            continue;
                        };
                        let ox = w.ah_rect.left - bbox.left;
                        let oy = w.ah_rect.top - bbox.top;
                        self.local_pos
                            .insert(id, ((x + ox).min(width), (y + oy).min(height)));
                    }
                    x = (x + gw).min(width);
                    shelf = shelf.max(gh);
                }
            }
        }
    }

    /// Locally raise a window to the top of this participant's stacking
    /// order without informing the AH (§4.1: "A participant MAY allow
    /// changing the z-order (i.e., stacking order) of windows locally,
    /// without changing the z-order in the AH"). The next WindowManagerInfo
    /// resets to AH order (the draft keeps the AH authoritative).
    pub fn raise_local(&mut self, id: u16) -> bool {
        self.mirror.raise(id)
    }

    /// The local position of a window.
    pub fn window_local_pos(&self, id: u16) -> Option<(u32, u32)> {
        self.local_pos.get(&id).copied()
    }

    /// The AH geometry of a window (from the latest WMI).
    pub fn window_ah_rect(&self, id: u16) -> Option<Rect> {
        self.mirror.window(id).map(PWindow::ah_rect)
    }

    /// A window's content buffer.
    pub fn window_content(&self, id: u16) -> Option<&Image> {
        self.mirror.window(id).map(PWindow::content)
    }

    /// Window ids in z-order (bottom first).
    pub fn z_order(&self) -> &[u16] {
        self.mirror.z_order()
    }

    /// Current pointer position and icon, if the AH uses the explicit
    /// pointer model.
    pub fn pointer(&self) -> Option<(u32, u32)> {
        self.pointer.as_ref().map(|(pos, _)| *pos)
    }

    /// Render the participant's screen: windows at their local positions in
    /// z-order, optional pointer.
    pub fn render(&self, width: u32, height: u32) -> Image {
        let mut frame =
            Image::filled(width, height, [0, 40, 80, 255]).expect("render dims bounded");
        for id in self.mirror.z_order() {
            let (Some(w), Some(&(x, y))) = (self.mirror.window(*id), self.local_pos.get(id)) else {
                continue;
            };
            frame.blit(w.content(), x, y);
        }
        if let Some(((px, py), Some(icon))) = &self.pointer {
            // Translate pointer from AH coordinates into local coordinates
            // using the window under it (Original layout keeps it exact).
            let (lx, ly) = self.translate_point(*px, *py).unwrap_or((*px, *py));
            for dy in 0..icon.height() {
                for dx in 0..icon.width() {
                    let p = icon.pixel(dx, dy).expect("in bounds");
                    if p[3] != 0 {
                        frame.set_pixel(lx + dx, ly + dy, p);
                    }
                }
            }
        }
        frame
    }

    /// Render at native size, then scale the frame to fit a small screen
    /// (§4.2: "participant-side scaling can be used to optimize
    /// transmission of data to participants with a small screen" — here the
    /// scaling happens at the viewer, trading sharpness for fit without
    /// touching the protocol).
    pub fn render_scaled(
        &self,
        native_w: u32,
        native_h: u32,
        out_w: u32,
        out_h: u32,
    ) -> adshare_codec::Result<Image> {
        self.render(native_w, native_h).scale_to(out_w, out_h)
    }

    /// Translate an absolute AH point into local coordinates via the
    /// topmost window containing it.
    pub fn translate_point(&self, x: u32, y: u32) -> Option<(u32, u32)> {
        for id in self.mirror.z_order().iter().rev() {
            let (Some(w), Some(&(lx, ly))) = (self.mirror.window(*id), self.local_pos.get(id))
            else {
                continue;
            };
            if w.ah_rect.contains(x, y) {
                return Some((lx + (x - w.ah_rect.left), ly + (y - w.ah_rect.top)));
            }
        }
        None
    }

    /// Translate a local point back into absolute AH coordinates (for HIP
    /// events from a participant using a non-original layout).
    pub fn untranslate_point(&self, lx: u32, ly: u32) -> Option<(WireWindowId, u32, u32)> {
        for id in self.mirror.z_order().iter().rev() {
            let (Some(w), Some(&(wx, wy))) = (self.mirror.window(*id), self.local_pos.get(id))
            else {
                continue;
            };
            let local_rect = Rect::new(wx, wy, w.ah_rect.width, w.ah_rect.height);
            if local_rect.contains(lx, ly) {
                return Some((
                    WireWindowId(*id),
                    w.ah_rect.left + (lx - wx),
                    w.ah_rect.top + (ly - wy),
                ));
            }
        }
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use adshare_remoting::message::{WindowManagerInfo, WindowRecord};
    use bytes::Bytes;

    fn wmi(records: &[(u16, u8, Rect)]) -> RemotingMessage {
        RemotingMessage::WindowManagerInfo(WindowManagerInfo {
            windows: records
                .iter()
                .map(|(id, g, r)| WindowRecord {
                    window_id: WireWindowId(*id),
                    group_id: *g,
                    left: r.left,
                    top: r.top,
                    width: r.width,
                    height: r.height,
                })
                .collect(),
        })
    }

    /// The Figure 2 scenario: windows A(1), C(2), B(3).
    fn figure2() -> RemotingMessage {
        wmi(&[
            (1, 1, Rect::new(220, 150, 350, 450)),
            (2, 2, Rect::new(850, 320, 160, 150)),
            (3, 1, Rect::new(450, 400, 350, 300)),
        ])
    }

    #[test]
    fn wmi_creates_windows_in_z_order() {
        let mut p = Participant::new(1, Layout::Original, true, 1);
        p.apply(figure2());
        assert!(p.synced());
        assert_eq!(p.z_order(), &[1, 2, 3]);
        assert_eq!(p.window_ah_rect(1), Some(Rect::new(220, 150, 350, 450)));
    }

    #[test]
    fn missing_window_closed_on_next_wmi() {
        let mut p = Participant::new(1, Layout::Original, true, 1);
        p.apply(figure2());
        p.apply(wmi(&[(1, 1, Rect::new(220, 150, 350, 450))]));
        assert_eq!(p.z_order(), &[1]);
        assert!(p.window_content(2).is_none());
        assert!(p.window_content(3).is_none());
    }

    #[test]
    fn figure3_original_layout() {
        let mut p = Participant::new(1, Layout::Original, true, 1);
        p.apply(figure2());
        assert_eq!(p.window_local_pos(1), Some((220, 150)));
        assert_eq!(p.window_local_pos(2), Some((850, 320)));
        assert_eq!(p.window_local_pos(3), Some((450, 400)));
    }

    #[test]
    fn figure4_shifted_layout() {
        // Participant 2 shifts all windows 220 left and 150 up.
        let mut p = Participant::new(2, Layout::Shifted { dx: 220, dy: 150 }, true, 1);
        p.apply(figure2());
        assert_eq!(p.window_local_pos(1), Some((0, 0)));
        assert_eq!(p.window_local_pos(2), Some((630, 170)));
        assert_eq!(p.window_local_pos(3), Some((230, 250)));
        // Relations between windows are preserved.
        let (x1, y1) = p.window_local_pos(1).unwrap();
        let (x3, y3) = p.window_local_pos(3).unwrap();
        assert_eq!((x3 - x1, y3 - y1), (230, 250));
    }

    #[test]
    fn figure5_packed_layout_fits_small_screen() {
        let mut p = Participant::new(
            3,
            Layout::Packed {
                width: 640,
                height: 480,
            },
            true,
            1,
        );
        p.apply(figure2());
        for id in [1u16, 2, 3] {
            let (x, y) = p.window_local_pos(id).unwrap();
            assert!(x < 640 && y < 480, "window {id} at ({x},{y})");
        }
        // Z-order preserved ("all participants preserve the z-order").
        assert_eq!(p.z_order(), &[1, 2, 3]);
    }

    #[test]
    fn region_update_lands_in_window_local_coords() {
        let mut p = Participant::new(1, Layout::Original, true, 1);
        p.apply(figure2());
        let img = Image::filled(10, 10, [255, 0, 0, 255]).unwrap();
        let payload = {
            use adshare_codec::codec::{AnyCodec, Codec};
            AnyCodec::new(adshare_codec::CodecKind::Png).encode(&img)
        };
        p.apply(RemotingMessage::RegionUpdate(
            adshare_remoting::message::RegionUpdate {
                window_id: WireWindowId(1),
                payload_type: adshare_codec::codec::default_pt::PNG,
                left: 230, // absolute; window 1 is at 220,150
                top: 160,
                payload: Bytes::from(payload),
            },
        ));
        let content = p.window_content(1).unwrap();
        assert_eq!(content.pixel(10, 10), Some([255, 0, 0, 255]));
        assert_eq!(content.pixel(9, 10), Some([0, 0, 0, 255]));
        assert_eq!(p.stats().regions_applied, 1);
    }

    /// A PNG `RegionUpdate` for window 1 whose pixel (x, y) is (x, y, tag).
    fn gradient_update(tag: u8, w: u32, h: u32, left: u32, top: u32) -> RemotingMessage {
        use adshare_codec::codec::{AnyCodec, Codec};
        let mut img = Image::new(w, h).unwrap();
        for y in 0..h {
            for x in 0..w {
                img.set_pixel(x, y, [x as u8, y as u8, tag, 255]);
            }
        }
        RemotingMessage::RegionUpdate(adshare_remoting::message::RegionUpdate {
            window_id: WireWindowId(1),
            payload_type: adshare_codec::codec::default_pt::PNG,
            left,
            top,
            payload: Bytes::from(AnyCodec::new(adshare_codec::CodecKind::Png).encode(&img)),
        })
    }

    #[test]
    fn region_update_starting_outside_the_window_is_clipped_not_shifted() {
        let mut p = Participant::new(1, Layout::Original, true, 1);
        p.apply(wmi(&[(1, 0, Rect::new(100, 100, 20, 20))]));
        // Starts 4 left of and 3 above the window: the first 4 columns and
        // 3 rows fall outside, the rest lands where it belongs.
        p.apply(gradient_update(7, 10, 10, 96, 97));
        let content = p.window_content(1).unwrap();
        assert_eq!(content.pixel(0, 0), Some([4, 3, 7, 255]));
        assert_eq!(content.pixel(5, 6), Some([9, 9, 7, 255]));
        assert_eq!(content.pixel(6, 0), Some([0, 0, 0, 255]), "6 columns fit");
        assert_eq!(content.pixel(0, 7), Some([0, 0, 0, 255]), "7 rows fit");
        assert_eq!(p.stats().regions_applied, 1);
        // Wholly left of / above / beyond the window: nothing is drawn.
        let before = content.clone();
        for (left, top) in [(80, 100), (100, 80), (120, 100), (100, 120), (0, 0)] {
            p.apply(gradient_update(8, 10, 10, left, top));
        }
        assert_eq!(p.window_content(1), Some(&before));
        assert_eq!(p.stats().regions_applied, 6);
        assert_eq!(p.stats().decode_errors, 0);
    }

    #[test]
    fn move_rectangle_reaching_outside_the_window_moves_only_what_is_inside() {
        let mut p = Participant::new(1, Layout::Original, true, 1);
        p.apply(wmi(&[(1, 0, Rect::new(100, 100, 20, 20))]));
        p.apply(gradient_update(1, 20, 20, 100, 100));
        let painted = p.window_content(1).unwrap().clone();
        let mv = |src: (u32, u32), dst: (u32, u32), width, height| {
            RemotingMessage::MoveRectangle(adshare_remoting::message::MoveRectangle {
                window_id: WireWindowId(1),
                src_left: src.0,
                src_top: src.1,
                width,
                height,
                dst_left: dst.0,
                dst_top: dst.1,
            })
        };
        // Source starts 5 left of the window: block columns 0..5 have no
        // source, so destination columns 0..5 keep their pixels and block
        // column 5 (window x = 0) lands at destination x = 2 + 5.
        p.apply(mv((95, 100), (102, 110), 10, 4));
        let content = p.window_content(1).unwrap();
        assert_eq!(content.pixel(6, 110 - 100), painted.pixel(6, 10));
        assert_eq!(content.pixel(7, 10), Some([0, 0, 1, 255]));
        assert_eq!(content.pixel(11, 13), Some([4, 3, 1, 255]));
        assert_eq!(content.pixel(12, 10), painted.pixel(12, 10));
        // Destination starts 3 above the window: block rows 0..3 are
        // cropped, row 3 lands on the window's first row.
        p.apply(gradient_update(1, 20, 20, 100, 100));
        p.apply(mv((104, 108), (110, 97), 5, 6));
        let content = p.window_content(1).unwrap();
        assert_eq!(content.pixel(10, 0), Some([4, 11, 1, 255]));
        assert_eq!(content.pixel(14, 2), Some([8, 13, 1, 255]));
        assert_eq!(content.pixel(10, 3), painted.pixel(10, 3));
        // Entirely outside on either end, or empty: nothing moves. A block
        // larger than the window is cropped to what fits. All are counted.
        let before = content.clone();
        p.apply(mv((0, 0), (100, 100), 10, 10));
        p.apply(mv((100, 100), (300, 300), 10, 10));
        p.apply(mv((100, 100), (105, 105), 0, 0));
        p.apply(mv((100, 100), (105, 105), u32::MAX, u32::MAX));
        let content = p.window_content(1).unwrap();
        assert_eq!(content.pixel(5, 5), before.pixel(0, 0));
        assert_eq!(content.pixel(19, 19), before.pixel(14, 14));
        assert_eq!(p.stats().moves_applied, 6);
    }

    #[test]
    fn ping_pong_is_decoded_twice_then_swapped() {
        let mut p = Participant::new(1, Layout::Original, true, 1);
        p.apply(wmi(&[(1, 0, Rect::new(100, 100, 40, 30))]));
        let oracle = |tag: u8| {
            let mut q = Participant::new(2, Layout::Original, true, 2);
            q.apply(wmi(&[(1, 0, Rect::new(100, 100, 40, 30))]));
            q.apply(gradient_update(tag, 16, 12, 110, 105));
            q.window_content(1).unwrap().clone()
        };
        let (shows_a, shows_b) = (oracle(1), oracle(2));
        for round in 0..6 {
            p.apply(gradient_update(1, 16, 12, 110, 105));
            assert_eq!(p.window_content(1), Some(&shows_a), "round {round}");
            p.apply(gradient_update(2, 16, 12, 110, 105));
            assert_eq!(p.window_content(1), Some(&shows_b), "round {round}");
        }
        let stats = p.stats();
        assert_eq!(stats.regions_applied, 12);
        assert_eq!(stats.tiles_parked, 1, "A's pixels, under B's second sight");
        assert_eq!(stats.tiles_reused, 8, "every sight from the third on");
        assert_eq!(stats.parked_bytes, 16 * 12 * 4, "one phase, the hidden one");
        // The same phase twice in a row: nothing to do.
        p.apply(gradient_update(2, 16, 12, 110, 105));
        assert_eq!(p.stats().tiles_already_shown, 1);
        // Drawing over part of the tile forgets what it showed: the next B
        // is decoded again rather than believed to be there.
        p.apply(gradient_update(3, 4, 4, 112, 107));
        p.apply(gradient_update(2, 16, 12, 110, 105));
        assert_eq!(p.window_content(1), Some(&shows_b));
        assert_eq!(p.stats().tiles_already_shown, 1);
        assert_eq!(p.stats().tiles_reused, 8);
    }

    #[test]
    fn resize_forgets_what_the_window_showed() {
        let mut p = Participant::new(1, Layout::Original, true, 1);
        p.apply(wmi(&[(1, 0, Rect::new(100, 100, 40, 30))]));
        // Second sight at this place: the window now records what it shows.
        for tag in [1, 2, 1] {
            p.apply(gradient_update(tag, 16, 12, 116, 100));
        }
        p.apply(gradient_update(1, 16, 12, 116, 100));
        assert_eq!(p.stats().tiles_already_shown, 1);
        // Shrink through the tile, grow back: its right half is black now,
        // and the same update must draw it again rather than be believed
        // to be there.
        p.apply(wmi(&[(1, 0, Rect::new(100, 100, 24, 30))]));
        p.apply(wmi(&[(1, 0, Rect::new(100, 100, 40, 30))]));
        assert_eq!(
            p.window_content(1).unwrap().pixel(24, 0),
            Some([0, 0, 0, 255])
        );
        p.apply(gradient_update(1, 16, 12, 116, 100));
        assert_eq!(
            p.window_content(1).unwrap().pixel(24, 0),
            Some([8, 0, 1, 255])
        );
        assert_eq!(p.stats().tiles_already_shown, 1);
        // Closing and reopening under the same id starts from black too.
        p.apply(wmi(&[]));
        p.apply(wmi(&[(1, 0, Rect::new(100, 100, 40, 30))]));
        p.apply(gradient_update(1, 16, 12, 116, 100));
        assert_eq!(
            p.window_content(1).unwrap().pixel(16, 0),
            Some([0, 0, 1, 255])
        );
    }

    #[test]
    fn move_rectangle_scrolls_content() {
        let mut p = Participant::new(1, Layout::Original, true, 1);
        p.apply(wmi(&[(1, 0, Rect::new(100, 100, 50, 50))]));
        // Paint a marker at local (0, 10) via absolute coords.
        let img = Image::filled(50, 10, [9, 9, 9, 255]).unwrap();
        let payload = {
            use adshare_codec::codec::{AnyCodec, Codec};
            AnyCodec::new(adshare_codec::CodecKind::Png).encode(&img)
        };
        p.apply(RemotingMessage::RegionUpdate(
            adshare_remoting::message::RegionUpdate {
                window_id: WireWindowId(1),
                payload_type: adshare_codec::codec::default_pt::PNG,
                left: 100,
                top: 110,
                payload: Bytes::from(payload),
            },
        ));
        // Move it up by 10 (absolute coordinates).
        p.apply(RemotingMessage::MoveRectangle(
            adshare_remoting::message::MoveRectangle {
                window_id: WireWindowId(1),
                src_left: 100,
                src_top: 110,
                width: 50,
                height: 10,
                dst_left: 100,
                dst_top: 100,
            },
        ));
        let content = p.window_content(1).unwrap();
        assert_eq!(content.pixel(0, 0), Some([9, 9, 9, 255]));
    }

    #[test]
    fn resize_keeps_existing_image() {
        let mut p = Participant::new(1, Layout::Original, true, 1);
        p.apply(wmi(&[(1, 0, Rect::new(0, 0, 20, 20))]));
        let img = Image::filled(20, 20, [5, 5, 5, 255]).unwrap();
        let payload = {
            use adshare_codec::codec::{AnyCodec, Codec};
            AnyCodec::new(adshare_codec::CodecKind::Png).encode(&img)
        };
        p.apply(RemotingMessage::RegionUpdate(
            adshare_remoting::message::RegionUpdate {
                window_id: WireWindowId(1),
                payload_type: adshare_codec::codec::default_pt::PNG,
                left: 0,
                top: 0,
                payload: Bytes::from(payload),
            },
        ));
        // Resize larger: existing pixels must remain.
        p.apply(wmi(&[(1, 0, Rect::new(0, 0, 40, 40))]));
        let content = p.window_content(1).unwrap();
        assert_eq!(content.width(), 40);
        assert_eq!(content.pixel(10, 10), Some([5, 5, 5, 255]));
        // Relocation alone must not touch content.
        p.apply(wmi(&[(1, 0, Rect::new(300, 300, 40, 40))]));
        assert_eq!(
            p.window_content(1).unwrap().pixel(10, 10),
            Some([5, 5, 5, 255])
        );
        assert_eq!(p.window_local_pos(1), Some((300, 300)));
    }

    #[test]
    fn pointer_info_coords_only_keeps_icon() {
        let mut p = Participant::new(1, Layout::Original, true, 1);
        p.apply(figure2());
        let icon = Image::filled(4, 4, [1, 2, 3, 255]).unwrap();
        let encoded = {
            use adshare_codec::codec::{AnyCodec, Codec};
            AnyCodec::new(adshare_codec::CodecKind::Raw).encode(&icon)
        };
        p.apply(RemotingMessage::MousePointerInfo(
            adshare_remoting::message::MousePointerInfo {
                window_id: WireWindowId(1),
                payload_type: adshare_codec::codec::default_pt::RAW,
                left: 300,
                top: 200,
                image: Some(Bytes::from(encoded)),
            },
        ));
        assert_eq!(p.pointer(), Some((300, 200)));
        // Coords-only update: "the participant MUST move the existing
        // pointer image to the given coordinates".
        p.apply(RemotingMessage::MousePointerInfo(
            adshare_remoting::message::MousePointerInfo {
                window_id: WireWindowId(1),
                payload_type: adshare_codec::codec::default_pt::RAW,
                left: 310,
                top: 210,
                image: None,
            },
        ));
        assert_eq!(p.pointer(), Some((310, 210)));
        // Icon visible in the render.
        let frame = p.render(1280, 1024);
        assert_eq!(frame.pixel(310, 210), Some([1, 2, 3, 255]));
    }

    #[test]
    fn translate_and_untranslate_round_trip() {
        let mut p = Participant::new(2, Layout::Shifted { dx: 220, dy: 150 }, true, 1);
        p.apply(figure2());
        // A point inside window 3 (at 450,400 AH; locally at 230,250).
        let (lx, ly) = p.translate_point(500, 450).unwrap();
        assert_eq!((lx, ly), (280, 300));
        let (win, ax, ay) = p.untranslate_point(lx, ly).unwrap();
        assert_eq!(win.0, 3);
        assert_eq!((ax, ay), (500, 450));
    }

    #[test]
    fn unknown_window_update_ignored() {
        let mut p = Participant::new(1, Layout::Original, true, 1);
        p.apply(figure2());
        p.apply(RemotingMessage::RegionUpdate(
            adshare_remoting::message::RegionUpdate {
                window_id: WireWindowId(99),
                payload_type: adshare_codec::codec::default_pt::PNG,
                left: 0,
                top: 0,
                payload: Bytes::from_static(b"junk"),
            },
        ));
        assert_eq!(p.stats().regions_applied, 0);
    }

    #[test]
    fn corrupt_payload_counted_not_fatal() {
        let mut p = Participant::new(1, Layout::Original, true, 1);
        p.apply(figure2());
        p.apply(RemotingMessage::RegionUpdate(
            adshare_remoting::message::RegionUpdate {
                window_id: WireWindowId(1),
                payload_type: adshare_codec::codec::default_pt::PNG,
                left: 220,
                top: 150,
                payload: Bytes::from_static(b"definitely not a png"),
            },
        ));
        assert_eq!(p.stats().decode_errors, 1);
    }

    #[test]
    fn grouped_packed_layout_keeps_group_geometry() {
        // Figure 2's windows: A (group 1), C (group 2), B (group 1).
        // In GroupedPacked, A and B keep their relative AH offsets.
        let mut p = Participant::new(
            4,
            Layout::GroupedPacked {
                width: 800,
                height: 800,
            },
            true,
            1,
        );
        p.apply(figure2());
        let (ax, ay) = p.window_local_pos(1).unwrap(); // A
        let (bx, by) = p.window_local_pos(3).unwrap(); // B
                                                       // AH offsets: B - A = (450-220, 400-150) = (230, 250).
        assert_eq!(
            (bx - ax, by - ay),
            (230, 250),
            "intra-group geometry preserved"
        );
        // C (group 2) packs independently and fits the screen.
        let (cx, cy) = p.window_local_pos(2).unwrap();
        assert!(cx < 800 && cy < 800);
        // Group-1 bbox is 580 wide; C cannot share the first shelf at x<800
        // unless it fits: 580+160=740 ≤ 800, so it does — same shelf.
        assert_eq!(cy, 0);
    }

    #[test]
    fn local_z_order_override() {
        let mut p = Participant::new(5, Layout::Original, true, 1);
        p.apply(figure2());
        assert_eq!(p.z_order(), &[1, 2, 3]);
        assert!(p.raise_local(1));
        assert_eq!(p.z_order(), &[2, 3, 1], "window 1 raised locally");
        assert!(!p.raise_local(99), "unknown window");
        // A fresh WMI re-asserts AH order.
        p.apply(figure2());
        assert_eq!(p.z_order(), &[1, 2, 3]);
    }

    #[test]
    fn render_scaled_fits_small_screens() {
        let mut p = Participant::new(3, Layout::Original, true, 1);
        p.apply(figure2());
        let frame = p.render_scaled(1280, 1024, 320, 256).unwrap();
        assert_eq!((frame.width(), frame.height()), (320, 256));
        // Window A (grey-ish) occupies AH (220,150)-(570,600); its centre
        // maps to roughly a quarter scale. The scaled pixel must come from
        // the window's fill, not the background.
        let px = frame.pixel(90, 80).unwrap();
        assert_eq!(px[3], 255);
        assert_ne!(px, [0, 40, 80, 255], "scaled window content visible");
    }

    #[test]
    fn update_released_by_a_gap_skip_is_as_late_as_it_is() {
        use adshare_remoting::packetizer::RemotingPacketizer;
        use adshare_rtp::rtcp::{encode_compound, SenderReport};
        let mut rng = StdRng::seed_from_u64(7);
        let mut sender = RemotingPacketizer::new(RtpSender::new(0xAAAA, 99, &mut rng), 1200);
        // Three one-packet messages captured at sender time 0; the second
        // is lost and never repaired.
        let msgs = [
            wmi(&[(1, 0, Rect::new(100, 100, 20, 20))]),
            gradient_update(1, 4, 4, 100, 100),
            gradient_update(2, 4, 4, 104, 100),
        ];
        let pkts: Vec<RtpPacket> = msgs
            .iter()
            .flat_map(|m| sender.packetize(m, 0).unwrap())
            .collect();
        assert_eq!(pkts.len(), 3);
        let mut p = Participant::new(1, Layout::Original, true, 1);
        let anchor = RtcpPacket::SenderReport(SenderReport {
            ssrc: 0xAAAA,
            ntp: 0,
            rtp_ts: pkts[0].header.timestamp,
            packet_count: 0,
            octet_count: 0,
            reports: vec![],
        });
        p.handle_datagram(&encode_compound(&[anchor]), 0);
        p.handle_datagram(&pkts[0].encode(), 900);
        p.handle_datagram(&pkts[2].encode(), 900);
        assert_eq!(p.reorder_held(), 1);
        // A second later (no receiver report has gone out yet) the hole is
        // given up on: the update behind it is a second old, not fresh.
        p.tick(90_000);
        p.recover_from_gap();
        assert_eq!(p.stats().regions_applied, 1);
        let (_, _, worst) = p.latency_summary_us().unwrap();
        assert!(worst >= 1_000_000, "released update stamped {worst} µs");
    }

    #[test]
    fn pli_and_nack_flow_through_rtcp_queue() {
        let mut p = Participant::new(1, Layout::Original, true, 1);
        assert!(p.take_rtcp().is_none());
        p.request_refresh();
        let bytes = p.take_rtcp().unwrap();
        let parsed = adshare_rtp::rtcp::decode_compound(&bytes).unwrap();
        assert!(matches!(parsed[0], RtcpPacket::Pli(_)));
        assert!(p.take_rtcp().is_none(), "queue drained");
        assert_eq!(p.stats().plis_sent, 1);
    }
}
