//! The participant: reorder → reassemble → decode → render, plus HIP
//! transmission and loss recovery.

use std::collections::HashMap;

use adshare_bfcp::FloorClient;
use adshare_codec::{Codec, CodecRegistry, Image, Rect};
use adshare_obs::{EventKind, Obs};
use adshare_remoting::hip::HipMessage;
use adshare_remoting::message::RemotingMessage;
use adshare_remoting::packetizer::{HipPacketizer, RemotingDepacketizer};
use adshare_remoting::WindowId as WireWindowId;
use adshare_rtp::framing::Deframer;
use adshare_rtp::packet::RtpPacket;
use adshare_rtp::reorder::ReorderBuffer;
use adshare_rtp::rtcp::{encode_compound, GenericNack, PictureLossIndication, RtcpPacket};
use adshare_rtp::session::{RtpReceiver, RtpSender};
use adshare_screen::Desktop;
use bytes::Bytes;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::config::Layout;

mod tiles;
mod window;

use tiles::TileStore;
pub use tiles::PARKED_CEILING_BYTES;
use window::{Drawn, PWindow};

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
}

/// The participant (Figure 1's client side).
#[derive(Debug)]
pub struct Participant {
    user_id: u16,
    ssrc: u32,
    layout: Layout,
    windows: HashMap<u16, PWindow>,
    /// z-order, bottom first, from the latest WMI.
    z_order: Vec<u16>,
    /// Local positions assigned by the layout policy.
    local_pos: HashMap<u16, (u32, u32)>,
    reorder: ReorderBuffer,
    depacketizer: RemotingDepacketizer,
    deframer: Deframer,
    receiver: RtpReceiver,
    registry: CodecRegistry,
    /// Pixels the windows stopped showing, by the name of their payload.
    tiles: TileStore,
    hip: HipPacketizer,
    floor: FloorClient,
    /// Pointer position + icon (explicit model).
    pointer: Option<((u32, u32), Option<Image>)>,
    /// Whether retransmissions were negotiated (send NACKs).
    nack_enabled: bool,
    /// 90 kHz time of the last PLI, for the resync retry timer.
    last_pli_ticks: u64,
    /// NACK-storm avoidance (§5.3.2: multicast participants "MAY take
    /// necessary precautions to prevent NACK storms such as waiting random
    /// amount of time"): maximum random backoff in ticks (0 = immediate).
    nack_backoff_ticks: u64,
    /// Deterministic jitter source for the backoff.
    backoff_rng: StdRng,
    /// NACKs waiting out their backoff: (fire-at ticks, seqs still missing).
    pending_nacks: Vec<(u64, Vec<u16>)>,
    /// NACKs suppressed because the repair arrived first.
    nacks_suppressed: u64,
    /// Retry state per NACKed-but-undelivered sequence: (last NACK ticks,
    /// attempts). A lost retransmission would otherwise wedge delivery —
    /// `take_missing` reports each gap once, and the coarse gap timeout
    /// only fires when the stream goes quiet.
    nack_retry: HashMap<u16, (u64, u8)>,
    /// Last RR emission time (ticks); 0 = never.
    last_rr_ticks: u64,
    /// Latest sender-report mapping from the AH: (sender clock µs, RTP ts).
    /// RFC 3550's wallclock↔timestamp anchor; lets the viewer compute true
    /// capture→display latency.
    sr_anchor: Option<(u64, u32)>,
    /// Capture→display latencies of applied updates, µs (bounded buffer).
    latencies_us: Vec<u64>,
    /// Timestamp of the RTP packet currently being reassembled/applied.
    current_pkt_ts: u32,
    /// Outbound RTCP queued for the next tick.
    rtcp_out: Vec<RtcpPacket>,
    /// Whether we have ever received a WMI (sync achieved).
    synced: bool,
    stats: ParticipantStats,
    media_ssrc: u32,
    /// Exported under `participant.{index}.*` once an [`Obs`] is attached.
    metrics: Metrics,
    /// Observability bundle when attached; completes frame traces the AH
    /// registered at packetize time.
    obs: Option<Obs>,
    /// Flight-recorder actor id (the participant index from `attach_obs`).
    obs_actor: u16,
    /// Last tick observed, so events from callers without a clock
    /// (e.g. `request_refresh`) still carry a plausible timestamp.
    last_ticks: u64,
    /// Reassembly copy counters already reported to the recorder.
    last_copy_stats: (u64, u64),
    /// Dropped-partial count already reported to the recorder.
    last_dropped: u64,
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
            ssrc,
            layout,
            windows: HashMap::new(),
            z_order: Vec::new(),
            local_pos: HashMap::new(),
            reorder: ReorderBuffer::new(256),
            depacketizer: RemotingDepacketizer::new(),
            deframer: Deframer::default(),
            receiver: RtpReceiver::new(),
            registry: CodecRegistry::default(),
            hip: HipPacketizer::new(RtpSender::new(ssrc ^ 0xffff, 100, &mut rng), 1400),
            // Drawn after the HIP sender's values, which stay what they were.
            tiles: TileStore::new(rng.gen()),
            floor: FloorClient::new(1, user_id, 0),
            pointer: None,
            nack_enabled,
            last_pli_ticks: 0,
            nack_backoff_ticks: 0,
            backoff_rng: StdRng::seed_from_u64(seed ^ 0x6e61636b),
            pending_nacks: Vec::new(),
            nacks_suppressed: 0,
            nack_retry: HashMap::new(),
            last_rr_ticks: 0,
            sr_anchor: None,
            latencies_us: Vec::new(),
            current_pkt_ts: 0,
            rtcp_out: Vec::new(),
            synced: false,
            stats: ParticipantStats::default(),
            media_ssrc: 0,
            metrics: Metrics::default(),
            obs: None,
            obs_actor: 0,
            last_ticks: 0,
            last_copy_stats: (0, 0),
            last_dropped: 0,
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
        self.obs = Some(obs.clone());
    }

    /// Record a flight-recorder event stamped with the last observed tick.
    fn rec(&self, kind: EventKind, a: u64, b: u64) {
        if let Some(obs) = &self.obs {
            obs.event(self.last_ticks * 100 / 9, self.obs_actor, kind, a, b);
        }
    }

    /// Report newly abandoned partial reassemblies to the recorder.
    fn note_fragment_drops(&mut self) {
        let d = self.depacketizer.dropped_partials();
        if d > self.last_dropped {
            self.rec(EventKind::FragmentDrop, d - self.last_dropped, 0);
            self.last_dropped = d;
        }
    }

    /// This participant's user id.
    pub fn user_id(&self) -> u16 {
        self.user_id
    }

    /// Statistics so far.
    pub fn stats(&self) -> ParticipantStats {
        ParticipantStats {
            parked_bytes: self.tiles.bytes() as u64,
            parked_evictions: self.tiles.evictions(),
            ..self.stats
        }
    }

    /// Whether initial state (a WindowManagerInfo) has arrived.
    pub fn synced(&self) -> bool {
        self.synced
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
        self.rtcp_out.push(RtcpPacket::Pli(PictureLossIndication {
            sender_ssrc: self.ssrc,
            media_ssrc: self.media_ssrc,
        }));
        self.stats.plis_sent += 1;
        self.rec(EventKind::PliSent, self.stats.plis_sent, 0);
    }

    /// Periodic housekeeping. A joiner whose initial WindowManagerInfo was
    /// lost (or arrived hopelessly out of order) would otherwise wait
    /// forever; §5.3.1 lets it simply ask again, so an unsynced participant
    /// re-sends its PLI every second. Also fires backed-off NACKs whose
    /// timer expired and emits the periodic RTCP receiver report.
    pub fn tick(&mut self, now_ticks: u64) {
        self.last_ticks = now_ticks;
        const RESYNC_INTERVAL_TICKS: u64 = 90_000; // 1 s at 90 kHz
        if !self.synced && now_ticks.saturating_sub(self.last_pli_ticks) >= RESYNC_INTERVAL_TICKS {
            self.request_refresh();
            self.last_pli_ticks = now_ticks;
        }
        // Fire due NACKs.
        if !self.pending_nacks.is_empty() {
            let due: Vec<Vec<u16>> = {
                let mut due = Vec::new();
                self.pending_nacks.retain(|(at, seqs)| {
                    if *at <= now_ticks {
                        due.push(seqs.clone());
                        false
                    } else {
                        true
                    }
                });
                due
            };
            for seqs in due {
                self.emit_nack(&seqs);
            }
        }
        self.retry_stale_nacks(now_ticks);
        // Periodic receiver report (RFC 3550 §6.4.2) once media flows.
        const RR_INTERVAL_TICKS: u64 = 90_000 * 2; // ~2 s
        if self.receiver.received() > 0
            && now_ticks.saturating_sub(self.last_rr_ticks) >= RR_INTERVAL_TICKS
        {
            let block = self.receiver.report_block(self.media_ssrc);
            let mirror = &self.metrics;
            mirror.rtcp_cum_lost.set(block.cumulative_lost as i64);
            mirror.rtcp_highest_seq.set(block.highest_seq as i64);
            self.rtcp_out.push(RtcpPacket::ReceiverReport(
                adshare_rtp::rtcp::ReceiverReport {
                    ssrc: self.ssrc,
                    reports: vec![block],
                },
            ));
            // RFC 3550 §6.1: compounds carry an SDES CNAME.
            self.rtcp_out.push(RtcpPacket::Sdes(
                adshare_rtp::rtcp::SourceDescription::cname(
                    self.ssrc,
                    &format!("participant-{}@adshare", self.user_id),
                ),
            ));
            self.last_rr_ticks = now_ticks;
        }
    }

    /// Configure NACK-storm backoff (§5.3.2): NACKs wait a uniform random
    /// 0..=`max_ticks` delay and are suppressed if the repair (triggered by
    /// another group member's NACK) arrives first. Zero disables the delay.
    pub fn set_nack_backoff(&mut self, max_ticks: u64) {
        self.nack_backoff_ticks = max_ticks;
    }

    /// NACKs suppressed by the backoff (repair arrived before the timer).
    pub fn nacks_suppressed(&self) -> u64 {
        self.nacks_suppressed
    }

    /// RFC 5761 demultiplexing: RTCP packet types 200–206 occupy the byte
    /// where RTP carries marker+PT; the dynamic PTs this protocol uses
    /// (96–127) can never collide.
    fn is_rtcp(datagram: &[u8]) -> bool {
        datagram.len() >= 2 && (200..=206).contains(&datagram[1])
    }

    /// Process an RTCP packet from the AH (sender reports).
    fn handle_downstream_rtcp(&mut self, datagram: &[u8]) {
        let Ok(packets) = adshare_rtp::rtcp::decode_compound(datagram) else {
            return;
        };
        for pkt in packets {
            if let RtcpPacket::SenderReport(sr) = pkt {
                self.sr_anchor = Some((sr.ntp, sr.rtp_ts));
            }
        }
    }

    /// Ingest one UDP datagram carrying a remoting RTP packet (or, per
    /// RFC 5761 rtcp-mux, an RTCP sender report). The payload is sliced out
    /// of `datagram`, not copied: reorder buffer, reassembler and decoder
    /// all read the buffer the link delivered.
    pub fn handle_datagram_bytes(&mut self, datagram: Bytes, now_ticks: u64) {
        if Self::is_rtcp(&datagram) {
            self.handle_downstream_rtcp(&datagram);
            return;
        }
        let Ok(pkt) = RtpPacket::decode_bytes(datagram) else {
            return;
        };
        self.last_ticks = now_ticks;
        self.media_ssrc = pkt.header.ssrc;
        let seq = pkt.header.sequence;
        self.metrics.rx_packets.inc();
        self.rec(EventKind::RtpRx, seq as u64, pkt.payload.len() as u64);
        self.receiver.on_packet(&pkt, now_ticks);
        self.reorder.ingest(pkt);
        self.drain_ready(now_ticks);
        // An arrival repairs any pending backoff NACK that covers it.
        if self.nack_backoff_ticks > 0 {
            for (_, seqs) in &mut self.pending_nacks {
                let before = seqs.len();
                seqs.retain(|&s| s != seq);
                self.nacks_suppressed += (before - seqs.len()) as u64;
            }
            self.pending_nacks.retain(|(_, seqs)| !seqs.is_empty());
        }
        // Gaps → NACK (immediately, or after a random backoff).
        let missing = self.reorder.take_missing();
        if !missing.is_empty() && self.nack_enabled {
            if self.nack_backoff_ticks == 0 {
                self.emit_nack(&missing);
            } else {
                let delay = self.backoff_rng.gen_range(0..=self.nack_backoff_ticks);
                self.pending_nacks.push((now_ticks + delay, missing));
            }
        }
    }

    /// [`Participant::handle_datagram_bytes`] for a borrowed datagram (real
    /// sockets, replayed captures, tests): the same ingest after one copy.
    pub fn handle_datagram(&mut self, datagram: &[u8], now_ticks: u64) {
        self.handle_datagram_bytes(Bytes::copy_from_slice(datagram), now_ticks);
    }

    /// NACK retry cadence: a repair that has not arrived this long after
    /// the request is presumed lost and re-requested (≈250 ms at 90 kHz —
    /// comfortably above any simulated RTT, far below the gap timeout).
    const NACK_RETRY_TICKS: u64 = 22_500;
    /// Retry budget per sequence; past it the gap is left to the overflow /
    /// gap-timeout recovery path so an unservable NACK can't loop forever.
    const NACK_RETRY_LIMIT: u8 = 4;

    /// Re-NACK gaps whose repair never arrived. `take_missing` reports
    /// each gap exactly once, so without this a single lost retransmission
    /// stalls in-order delivery until the stream goes quiet enough for the
    /// session-layer gap timeout — seconds of staleness under a steady
    /// workload (the churn scenario caught exactly that).
    fn retry_stale_nacks(&mut self, now_ticks: u64) {
        if !self.nack_enabled || self.nack_retry.is_empty() {
            return;
        }
        let blocking = self.reorder.missing_now(64);
        // Delivered (or skipped-past) sequences no longer need retry state.
        self.nack_retry.retain(|seq, _| blocking.contains(seq));
        let mut again: Vec<u16> = Vec::new();
        for seq in blocking {
            if let Some((last, attempts)) = self.nack_retry.get_mut(&seq) {
                if *attempts < Self::NACK_RETRY_LIMIT
                    && now_ticks.saturating_sub(*last) >= Self::NACK_RETRY_TICKS
                {
                    *last = now_ticks;
                    *attempts += 1;
                    again.push(seq);
                }
            }
        }
        if !again.is_empty() {
            self.emit_nack(&again);
        }
    }

    fn emit_nack(&mut self, missing: &[u16]) {
        self.stats.nacks_sent += 1;
        self.stats.seqs_nacked += missing.len() as u64;
        for &seq in missing {
            self.nack_retry.entry(seq).or_insert((self.last_ticks, 0));
        }
        self.rec(
            EventKind::NackSent,
            missing.len() as u64,
            missing.first().copied().unwrap_or(0) as u64,
        );
        self.rtcp_out.push(RtcpPacket::Nack(GenericNack::from_seqs(
            self.ssrc,
            self.media_ssrc,
            missing,
        )));
    }

    /// Ingest TCP stream bytes (RFC 4571 framed remoting RTP, with RTCP
    /// sender reports multiplexed per RFC 5761). A packet that lies whole in
    /// `bytes` is copied once, into the buffer it is then parsed in and
    /// sliced from; only a packet cut off by the end of `bytes` is staged.
    pub fn handle_stream(&mut self, bytes: &[u8], now_ticks: u64) {
        let mut deframer = std::mem::take(&mut self.deframer);
        // An oversized frame wedges the stream, as it always has: nothing
        // after it is delivered.
        let _ = deframer.feed(bytes, |frame| self.handle_stream_packet(frame, now_ticks));
        self.deframer = deframer;
        self.note_fragment_drops();
    }

    /// One deframed packet of the TCP stream.
    fn handle_stream_packet(&mut self, frame: Bytes, now_ticks: u64) {
        if Self::is_rtcp(&frame) {
            self.handle_downstream_rtcp(&frame);
            return;
        }
        let Ok(pkt) = RtpPacket::decode_bytes(frame) else {
            return;
        };
        self.last_ticks = now_ticks;
        self.media_ssrc = pkt.header.ssrc;
        self.metrics.rx_packets.inc();
        self.rec(
            EventKind::RtpRx,
            pkt.header.sequence as u64,
            pkt.payload.len() as u64,
        );
        self.receiver.on_packet(&pkt, now_ticks);
        self.current_pkt_ts = pkt.header.timestamp;
        let (ssrc, seq) = (pkt.header.ssrc, pkt.header.sequence);
        // TCP is ordered and reliable: bypass the reorder buffer.
        if let Ok(Some(msg)) = self.depacketizer.feed(&pkt) {
            self.apply_reassembled(msg, ssrc, seq, now_ticks);
        }
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
        if self.reorder.skip_gap() {
            self.depacketizer.reset();
            self.note_fragment_drops();
            self.drain_ready(self.last_rr_ticks);
            self.request_refresh();
        }
    }

    /// Number of packets parked in the reorder buffer (for timeout logic).
    pub fn reorder_held(&self) -> usize {
        self.reorder.held_len()
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
        self.rtcp_out.push(RtcpPacket::Bye(adshare_rtp::rtcp::Bye {
            sources: vec![self.ssrc],
            reason: Some("leaving session".to_owned()),
        }));
    }

    /// Take outbound RTCP compound bytes (empty when nothing to send).
    pub fn take_rtcp(&mut self) -> Option<Vec<u8>> {
        if self.rtcp_out.is_empty() {
            return None;
        }
        let packets = std::mem::take(&mut self.rtcp_out);
        Some(encode_compound(&packets))
    }

    /// Build HIP RTP datagrams for a user event at `now_ticks`.
    pub fn send_hip(&mut self, msg: &HipMessage, now_ticks: u64) -> Vec<Vec<u8>> {
        match self.hip.packetize(msg, now_ticks as u32) {
            Ok(pkts) => pkts.iter().map(|p| p.encode()).collect(),
            Err(_) => Vec::new(),
        }
    }

    fn drain_ready(&mut self, now_ticks: u64) {
        while let Some(pkt) = self.reorder.pop_ready() {
            self.current_pkt_ts = pkt.header.timestamp;
            let (ssrc, seq) = (pkt.header.ssrc, pkt.header.sequence);
            match self.depacketizer.feed(&pkt) {
                Ok(Some(msg)) => self.apply_reassembled(msg, ssrc, seq, now_ticks),
                Ok(None) => {}
                Err(_) => {
                    self.depacketizer.reset();
                    self.note_fragment_drops();
                }
            }
        }
    }

    /// Apply one reassembled message, recording latency and — when an
    /// observability bundle is attached — completing the frame trace keyed
    /// by the final fragment's `(ssrc, seq)`.
    fn apply_reassembled(&mut self, msg: RemotingMessage, ssrc: u32, seq: u16, now_ticks: u64) {
        self.record_latency(now_ticks);
        self.rec(EventKind::Reassembled, seq as u64, 0);
        let (allocs, copied) = self.depacketizer.copy_stats();
        if (allocs, copied) != self.last_copy_stats {
            self.rec(
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
                    EventKind::FrameDelivered,
                    stages.damage_us + stages.transport_us,
                    seq as u64,
                );
            }
        }
    }

    /// Apply one remoting message to local state.
    pub fn apply(&mut self, msg: RemotingMessage) {
        match msg {
            RemotingMessage::WindowManagerInfo(wmi) => {
                self.stats.wmi_applied += 1;
                self.synced = true;
                let ids: Vec<u16> = wmi.windows.iter().map(|w| w.window_id.0).collect();
                // "MUST close this window after receiving a
                // WindowManagerInfo message which does not contain this
                // WindowID."
                self.windows.retain(|id, _| ids.contains(id));
                self.local_pos.retain(|id, _| ids.contains(id));
                self.z_order = ids;
                for w in &wmi.windows {
                    let rect = Rect::new(w.left, w.top, w.width.max(1), w.height.max(1));
                    match self.windows.get_mut(&w.window_id.0) {
                        Some(existing) => existing.set_geometry(rect, w.group_id),
                        None => {
                            // "The participant MUST create a window for each
                            // new WindowID."
                            self.windows
                                .insert(w.window_id.0, PWindow::new(rect, w.group_id));
                        }
                    }
                }
                self.assign_layout();
            }
            RemotingMessage::RegionUpdate(ru) => {
                let Some(win) = self.windows.get_mut(&ru.window_id.0) else {
                    return;
                };
                let Some(codec) = self.registry.get(ru.payload_type) else {
                    self.stats.decode_errors += 1;
                    return;
                };
                let key = self.tiles.key(ru.payload_type, &ru.payload);
                let drawn = win.region_update(&mut self.tiles, key, (ru.left, ru.top), || {
                    codec.decode(&ru.payload)
                });
                match drawn {
                    Ok(how) => {
                        self.stats.regions_applied += 1;
                        match how {
                            Drawn::AlreadyShown => self.stats.tiles_already_shown += 1,
                            Drawn::Reused => self.stats.tiles_reused += 1,
                            Drawn::Decoded { parked } => self.stats.tiles_parked += parked as u64,
                        }
                    }
                    Err(_) => self.stats.decode_errors += 1,
                }
            }
            RemotingMessage::MoveRectangle(mv) => {
                let Some(win) = self.windows.get_mut(&mv.window_id.0) else {
                    return;
                };
                win.move_rectangle(
                    (mv.src_left, mv.src_top),
                    (mv.dst_left, mv.dst_top),
                    mv.width,
                    mv.height,
                );
                self.stats.moves_applied += 1;
            }
            RemotingMessage::MousePointerInfo(mp) => {
                let icon = match &mp.image {
                    Some(bytes) => {
                        match self.registry.get(mp.payload_type).map(|c| c.decode(bytes)) {
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
        }
    }

    /// Assign local window positions per the layout policy (Figures 3–5).
    fn assign_layout(&mut self) {
        match self.layout {
            Layout::Original => {
                for (&id, w) in &self.windows {
                    self.local_pos.insert(id, (w.ah_rect.left, w.ah_rect.top));
                }
            }
            Layout::Shifted { dx, dy } => {
                for (&id, w) in &self.windows {
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
                for id in &self.z_order {
                    let Some(w) = self.windows.get(id) else {
                        continue;
                    };
                    let ww = w.ah_rect.width.min(width);
                    let wh = w.ah_rect.height.min(height);
                    if x + ww > width {
                        x = 0;
                        y = (y + shelf).min(height.saturating_sub(1));
                        shelf = 0;
                    }
                    self.local_pos.insert(*id, (x, y));
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
                for id in &self.z_order {
                    let Some(w) = self.windows.get(id) else {
                        continue;
                    };
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
                            ids.push(*id);
                        }
                        None => groups.push((w.group, w.ah_rect, vec![*id])),
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
                        let Some(w) = self.windows.get(&id) else {
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
        let Some(pos) = self.z_order.iter().position(|&w| w == id) else {
            return false;
        };
        let moved = self.z_order.remove(pos);
        self.z_order.push(moved);
        true
    }

    /// The local position of a window.
    pub fn window_local_pos(&self, id: u16) -> Option<(u32, u32)> {
        self.local_pos.get(&id).copied()
    }

    /// The AH geometry of a window (from the latest WMI).
    pub fn window_ah_rect(&self, id: u16) -> Option<Rect> {
        self.windows.get(&id).map(|w| w.ah_rect)
    }

    /// A window's content buffer.
    pub fn window_content(&self, id: u16) -> Option<&Image> {
        self.windows.get(&id).map(PWindow::content)
    }

    /// Window ids in z-order (bottom first).
    pub fn z_order(&self) -> &[u16] {
        &self.z_order
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
        for id in &self.z_order {
            let (Some(w), Some(&(x, y))) = (self.windows.get(id), self.local_pos.get(id)) else {
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
        for id in self.z_order.iter().rev() {
            let (Some(w), Some(&(lx, ly))) = (self.windows.get(id), self.local_pos.get(id)) else {
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
        for id in self.z_order.iter().rev() {
            let (Some(w), Some(&(wx, wy))) = (self.windows.get(id), self.local_pos.get(id)) else {
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

/// How many consecutive stuck steps before a viewer gives up on a reorder
/// gap and falls back to PLI.
const GAP_TIMEOUT_TICKS: u32 = 40;

/// The simulations' gap timeout: a packet lost and never retransmitted
/// would park a viewer's reorder buffer forever, so after
/// `GAP_TIMEOUT_TICKS` steps stuck on the same hole the viewer skips it
/// and asks for a refresh.
#[derive(Debug, Default)]
pub struct GapWatch {
    stuck_ticks: u32,
    last_held: usize,
}

impl GapWatch {
    /// Account one simulation step of `participant`. Returns whether it
    /// gave up on a hole this step ([`Participant::recover_from_gap`] has
    /// run), so a capturing caller can tape the marker a replay needs.
    pub fn step(&mut self, participant: &mut Participant) -> bool {
        let held = participant.reorder_held();
        let stuck = held > 0 && held == self.last_held;
        self.stuck_ticks = if stuck { self.stuck_ticks + 1 } else { 0 };
        let timed_out = self.stuck_ticks >= GAP_TIMEOUT_TICKS;
        if timed_out {
            participant.recover_from_gap();
            self.stuck_ticks = 0;
        }
        self.last_held = participant.reorder_held();
        timed_out
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
