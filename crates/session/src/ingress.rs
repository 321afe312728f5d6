//! The remoting receive half (DESIGN §5.2): reorder → reassemble, and the
//! feedback a receiver owes its sender — Generic NACK with retry, the
//! give-up rule for a hole nobody repairs, PLI resync, RR + SDES (each
//! report block echoing the last sender report, RFC 3550 §6.4.1). A
//! [`crate::Participant`] and a relay's upstream side are each one
//! [`Ingress`]; what a delivered message is *for* is the caller's business.

use std::collections::HashMap;

use adshare_obs::{EventKind, Obs};
use adshare_remoting::message::RemotingMessage;
use adshare_remoting::packetizer::RemotingDepacketizer;
use adshare_rtp::packet::RtpPacket;
use adshare_rtp::reorder::{Ingest, ReorderBuffer};
use adshare_rtp::rtcp::{
    GenericNack, PictureLossIndication, ReceiverReport, ReportBlock, RtcpPacket, SourceDescription,
};
use adshare_rtp::session::RtpReceiver;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// RFC 5761 demultiplexing: RTCP packet types 200–206 occupy the byte where
/// RTP carries marker+PT; the dynamic PTs this protocol uses (96–127) can
/// never collide.
pub fn is_rtcp(datagram: &[u8]) -> bool {
    datagram.len() >= 2 && (200..=206).contains(&datagram[1])
}

/// An unsynced receiver asks for a refresh again this often (1 s at 90 kHz).
const RESYNC_INTERVAL_TICKS: u64 = 90_000;
/// Receiver-report cadence once media flows (RFC 3550 §6.4.2; ~2 s).
const RR_INTERVAL_TICKS: u64 = 90_000 * 2;
/// NACK retry cadence: a repair that has not arrived this long after the
/// request is presumed lost and re-requested (≈250 ms at 90 kHz —
/// comfortably above any simulated RTT, far below the gap timeout).
const NACK_RETRY_TICKS: u64 = 22_500;
/// Retry budget per sequence; past it the gap is left to the overflow /
/// gap-timeout recovery path so an unservable NACK can't loop forever.
const NACK_RETRY_LIMIT: u8 = 4;
/// How many consecutive [`Ingress::watch_gap`] steps stuck on the same hole
/// before the receiver gives up on it and falls back to PLI.
const GAP_TIMEOUT_STEPS: u32 = 40;

/// Feedback sent so far.
#[derive(Debug, Clone, Copy, Default)]
pub struct IngressStats {
    /// PLIs sent.
    pub plis_sent: u64,
    /// NACKs sent (first requests and retries).
    pub nacks_sent: u64,
    /// Sequence numbers requested via NACK.
    pub seqs_nacked: u64,
    /// Holes the reorder buffer skipped because it overflowed.
    pub reorder_jumps: u64,
}

/// What the reassembler made of one in-order packet.
pub type Reassembled = adshare_remoting::Result<Option<RemotingMessage>>;

/// One remoting receiver.
#[derive(Debug)]
pub struct Ingress {
    ssrc: u32,
    cname: String,
    /// Whether retransmissions were negotiated (send NACKs).
    nack_enabled: bool,
    reorder: ReorderBuffer,
    depacketizer: RemotingDepacketizer,
    receiver: RtpReceiver,
    /// SSRC of the latest media packet, named in all feedback.
    media_ssrc: u32,
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
    /// 90 kHz time of the last resync PLI.
    last_pli_ticks: u64,
    /// Last RR emission time (ticks); 0 = never.
    last_rr_ticks: u64,
    /// Last tick observed, so feedback from callers without a clock still
    /// carries a plausible timestamp.
    last_ticks: u64,
    /// Give-up rule: consecutive steps the reorder buffer held the same
    /// number of packets, and that number.
    stuck_steps: u32,
    last_held: usize,
    /// A give-up's release is not drained yet; `last_held` is what is held
    /// once it is.
    measure_held: bool,
    rtcp_out: Vec<RtcpPacket>,
    stats: IngressStats,
    /// Flight recorder and this receiver's actor id, once attached.
    obs: Option<(Obs, u16)>,
}

impl Ingress {
    /// A receiver that signs its feedback `ssrc` / `cname`, NACKs only when
    /// `nack_enabled` (the SDP `retransmissions` parameter), and draws its
    /// NACK backoff jitter from `seed`.
    pub fn new(ssrc: u32, cname: String, nack_enabled: bool, seed: u64) -> Self {
        let mut depacketizer = RemotingDepacketizer::new();
        depacketizer.set_cap(crate::mirror::message_cap(0));
        Ingress {
            ssrc,
            cname,
            nack_enabled,
            reorder: ReorderBuffer::new(256),
            depacketizer,
            receiver: RtpReceiver::new(),
            media_ssrc: 0,
            nack_backoff_ticks: 0,
            backoff_rng: StdRng::seed_from_u64(seed ^ 0x6e61636b),
            pending_nacks: Vec::new(),
            nacks_suppressed: 0,
            nack_retry: HashMap::new(),
            last_pli_ticks: 0,
            last_rr_ticks: 0,
            last_ticks: 0,
            stuck_steps: 0,
            last_held: 0,
            measure_held: false,
            rtcp_out: Vec::new(),
            stats: IngressStats::default(),
            obs: None,
        }
    }

    /// Record `NackSent` / `PliSent` under `actor` from now on.
    pub fn attach_obs(&mut self, obs: Obs, actor: u16) {
        self.obs = Some((obs, actor));
    }

    fn rec(&self, kind: EventKind, a: u64, b: u64) {
        if let Some((obs, actor)) = &self.obs {
            obs.event(self.last_ticks * 100 / 9, *actor, kind, a, b);
        }
    }

    /// The SSRC this receiver signs its feedback with.
    pub fn ssrc(&self) -> u32 {
        self.ssrc
    }

    /// SSRC of the latest media packet, the one all feedback names.
    pub fn media_ssrc(&self) -> u32 {
        self.media_ssrc
    }

    /// Feedback sent so far.
    pub fn stats(&self) -> IngressStats {
        self.stats
    }

    /// The last tick any packet, tick or refresh request carried.
    pub fn last_ticks(&self) -> u64 {
        self.last_ticks
    }

    /// The reassembler, for callers that meter its copies and drops.
    pub fn depacketizer(&self) -> &RemotingDepacketizer {
        &self.depacketizer
    }

    /// Number of packets parked in the reorder buffer.
    pub fn held(&self) -> usize {
        self.reorder.held_len()
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

    /// Drop any fragment train longer than `bytes`: the receiver's
    /// `Mirror::message_cap`, updated whenever its windows change.
    pub fn set_message_cap(&mut self, bytes: usize) {
        self.depacketizer.set_cap(bytes);
    }

    /// Take one media packet off a datagram path: count it, park it in the
    /// reorder buffer and NACK the gaps it reveals (immediately, or after
    /// a random backoff). Drain what it released with [`Ingress::pop`].
    ///
    /// A packet that overflows the reorder buffer makes it skip the hole
    /// it is stuck behind, which is handled like a give-up: the message the
    /// hole cut in two is dropped, the jump is counted and a refresh is
    /// asked for. Returns whether that happened.
    pub fn ingest(&mut self, pkt: RtpPacket, now_ticks: u64) -> bool {
        let seq = pkt.header.sequence;
        self.observe(&pkt, now_ticks);
        let jumped = self.reorder.ingest(pkt) == Ingest::Jumped;
        if jumped {
            self.depacketizer.reset();
            self.stats.reorder_jumps += 1;
            self.request_refresh(now_ticks);
        }
        // An arrival repairs any pending backoff NACK that covers it.
        if self.nack_backoff_ticks > 0 {
            for (_, seqs) in &mut self.pending_nacks {
                let before = seqs.len();
                seqs.retain(|&s| s != seq);
                self.nacks_suppressed += (before - seqs.len()) as u64;
            }
            self.pending_nacks.retain(|(_, seqs)| !seqs.is_empty());
        }
        let missing = self.reorder.take_missing();
        if !missing.is_empty() && self.nack_enabled {
            if self.nack_backoff_ticks == 0 {
                self.emit_nack(&missing);
            } else {
                let delay = self.backoff_rng.gen_range(0..=self.nack_backoff_ticks);
                self.pending_nacks.push((now_ticks + delay, missing));
            }
        }
        jumped
    }

    /// The next packet in sequence order, if the reorder buffer has it, and
    /// what the reassembler made of it: a completed message, nothing yet,
    /// or an error — the message under way is then dropped.
    pub fn pop(&mut self) -> Option<(RtpPacket, Reassembled)> {
        let Some(pkt) = self.reorder.pop_ready() else {
            if std::mem::take(&mut self.measure_held) {
                self.last_held = self.reorder.held_len();
            }
            return None;
        };
        let fed = self.depacketizer.feed(&pkt);
        if fed.is_err() {
            self.depacketizer.reset();
        }
        Some((pkt, fed))
    }

    /// Take one media packet off an ordered, reliable stream (RFC 4571):
    /// no reorder buffer, no NACK, and a malformed packet costs only itself.
    pub fn ingest_ordered(&mut self, pkt: &RtpPacket, now_ticks: u64) -> Reassembled {
        self.observe(pkt, now_ticks);
        self.depacketizer.feed(pkt)
    }

    /// Take a sender report that arrived at `now_ticks`: every receiver
    /// report from now on carries its compact NTP timestamp as LSR and the
    /// time since `now_ticks` as DLSR, so the sender can tell what this
    /// receiver could have seen when it wrote the report.
    pub fn on_sender_report(&mut self, ntp: u64, now_ticks: u64) {
        self.receiver.on_sender_report(ntp, now_ticks);
    }

    fn observe(&mut self, pkt: &RtpPacket, now_ticks: u64) {
        self.last_ticks = now_ticks;
        self.media_ssrc = pkt.header.ssrc;
        self.receiver.on_packet(pkt, now_ticks);
    }

    /// Periodic housekeeping. A joiner whose initial WindowManagerInfo was
    /// lost (or arrived hopelessly out of order) would otherwise wait
    /// forever; §5.3.1 lets it simply ask again, so while not `synced` the
    /// PLI is re-sent every second. Also fires backed-off NACKs whose timer
    /// expired, re-NACKs stale gaps and emits the periodic receiver report
    /// with its SDES CNAME (RFC 3550 §6.1), whose block is returned.
    pub fn tick(&mut self, now_ticks: u64, synced: bool) -> Option<ReportBlock> {
        self.last_ticks = now_ticks;
        if !synced && now_ticks.saturating_sub(self.last_pli_ticks) >= RESYNC_INTERVAL_TICKS {
            self.request_refresh(now_ticks);
            self.last_pli_ticks = now_ticks;
        }
        if !self.pending_nacks.is_empty() {
            let mut due = Vec::new();
            self.pending_nacks.retain(|(at, seqs)| {
                if *at <= now_ticks {
                    due.push(seqs.clone());
                    false
                } else {
                    true
                }
            });
            for seqs in due {
                self.emit_nack(&seqs);
            }
        }
        self.retry_stale_nacks(now_ticks);
        if self.receiver.received() == 0
            || now_ticks.saturating_sub(self.last_rr_ticks) < RR_INTERVAL_TICKS
        {
            return None;
        }
        let block = self.receiver.report_block(self.media_ssrc, now_ticks);
        self.rtcp_out
            .push(RtcpPacket::ReceiverReport(ReceiverReport {
                ssrc: self.ssrc,
                reports: vec![block.clone()],
            }));
        let cname = SourceDescription::cname(self.ssrc, &self.cname);
        self.rtcp_out.push(RtcpPacket::Sdes(cname));
        self.last_rr_ticks = now_ticks;
        Some(block)
    }

    /// Re-NACK gaps whose repair never arrived. `take_missing` reports
    /// each gap exactly once, so without this a single lost retransmission
    /// stalls in-order delivery until the stream goes quiet enough for the
    /// gap timeout — seconds of staleness under a steady workload (the
    /// churn scenario caught exactly that, then loss on a relay hop).
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
                if *attempts < NACK_RETRY_LIMIT
                    && now_ticks.saturating_sub(*last) >= NACK_RETRY_TICKS
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

    /// Queue a PLI (join, or unrecoverable loss) for the next RTCP flush.
    pub fn request_refresh(&mut self, now_ticks: u64) {
        self.last_ticks = now_ticks;
        self.rtcp_out.push(RtcpPacket::Pli(PictureLossIndication {
            sender_ssrc: self.ssrc,
            media_ssrc: self.media_ssrc,
        }));
        self.stats.plis_sent += 1;
        self.rec(EventKind::PliSent, self.stats.plis_sent, 0);
    }

    /// Give up on the hole the reorder buffer is stuck behind: skip it and
    /// drop the message it cut in two. Whether there was one — the caller
    /// then drains what that released with [`Ingress::pop`], at the current
    /// tick, and asks for a refresh.
    pub fn give_up_gap(&mut self) -> bool {
        let skipped = self.reorder.skip_gap();
        if skipped {
            self.depacketizer.reset();
        }
        skipped
    }

    /// Account one step of the give-up rule: a packet lost and never
    /// retransmitted would park the reorder buffer forever, so after
    /// `GAP_TIMEOUT_STEPS` (40) steps holding the same number of packets
    /// [`Ingress::give_up_gap`] runs. Whether it did, and skipped a hole.
    pub fn watch_gap(&mut self) -> bool {
        let held = self.reorder.held_len();
        let stuck = held > 0 && held == self.last_held;
        self.stuck_steps = if stuck { self.stuck_steps + 1 } else { 0 };
        self.last_held = held;
        if self.stuck_steps < GAP_TIMEOUT_STEPS {
            return false;
        }
        self.stuck_steps = 0;
        self.measure_held = self.give_up_gap();
        self.measure_held
    }

    /// Queue an RTCP packet of the caller's own (BYE, an escalated NACK, an
    /// APP request) behind what is already waiting.
    pub fn queue_rtcp(&mut self, pkt: RtcpPacket) {
        self.rtcp_out.push(pkt);
    }

    /// Take outbound RTCP compound bytes (`None` when nothing to send).
    pub fn take_rtcp(&mut self) -> Option<Vec<u8>> {
        let mut out = Vec::new();
        self.take_rtcp_into(&mut out).then_some(out)
    }

    /// [`Ingress::take_rtcp`], appended to `out` (a caller's reused buffer,
    /// already holding whatever leads the datagram). Whether there was any.
    pub fn take_rtcp_into(&mut self, out: &mut Vec<u8>) -> bool {
        for p in &self.rtcp_out {
            out.extend_from_slice(&p.encode());
        }
        let owed = !self.rtcp_out.is_empty();
        self.rtcp_out.clear();
        owed
    }
}
