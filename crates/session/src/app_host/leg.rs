//! The AH's one egress leg: the AH's policy around one [`Downstream`] —
//! pace remoting messages (§4.3), answer Generic NACKs and receiver-report
//! tail loss from what the stream kept (§5.3), report them (RTCP SR) — over
//! whichever [`Wire`] the path uses. A unicast participant owns its leg;
//! the members of a multicast session share theirs.
//!
//! What the receivers report back is read by the leg's [`Feedback`] half,
//! the one every relay leg holds too; the leg applies its verdicts.
//!
//! The only transport-specific part of a flush is where the byte budget
//! comes from: a datagram path asks its token bucket, a stream reads its
//! send-buffer backlog (which is also its congestion signal and, per §7,
//! its reason to hold stale state back).

use adshare_capture::StreamKind;
use adshare_netsim::time::us_to_ticks;
use adshare_obs::{EventKind, FrameTrace, Obs, Registry, ACTOR_AH};
use adshare_rate::RateController;
use adshare_remoting::message::RemotingMessage;
use adshare_remoting::reference::Names;
use adshare_rtp::rtcp::{
    encode_compound, ReportBlock, RtcpPacket, SenderReport, SourceDescription,
};
use adshare_rtp::session::RtpSender;
use bytes::Bytes;

use super::drain::{Drained, Pending, RateState};
use super::{AppHost, Cx};
use crate::config::AhConfig;
use crate::egress::{Burst, Congestion, Downstream, Feedback, StreamId, Tail, Verdict, Wire};

const SR_INTERVAL_US: u64 = 1_000_000;

/// RTP payload budget per packet on a stream: TCP frames can carry large
/// payloads, so minimise per-packet overhead but stay under the RFC 4571
/// 16-bit frame limit.
const STREAM_MTU: usize = 60_000;

#[derive(Debug)]
pub(super) struct Leg {
    /// The stream on the path's wire: sequence space, repair record, NACK
    /// lookup, packetizer. Its actor is the participant's handle index, or
    /// [`ACTOR_AH`] for a group.
    pub(super) out: Downstream,
    /// SSRC, payload type and timestamp offset; the stream numbers.
    sender: RtpSender,
    pub(super) pending: Pending,
    /// Pacing, congestion control and adaptive quality for this path. On a
    /// shared leg every member's RTCP feeds this one controller, so the
    /// session reacts to its worst path.
    pub(super) rs: RateState,
    /// The SRs this leg sent, its round trip and its rate signal.
    feedback: Feedback,
    /// When the leg last got past its idle check (µs).
    last_flush_us: u64,
    /// RTP payload budget per packet.
    mtu: usize,
    /// Registry prefix (`ah.participant.{i}` / `ah.mcast.{s}`).
    prefix: String,
    /// The messages one flush drained, kept between flushes so a steady
    /// flow costs one allocation per packet — its datagram — and none for
    /// bookkeeping.
    drained: Vec<Drained>,
}

/// Refresh a path's rate estimate and report AIMD growth as a
/// [`EventKind::RateUp`] event (decreases are cause-tagged at the
/// congestion-signal sites instead).
fn note_rate_change(obs: Option<&Obs>, rs: &mut RateState, now_us: u64) {
    let Some(obs) = obs else { return };
    let Some(rate) = rs.rate.rate_bps(now_us) else {
        return;
    };
    if rs.last_rate_bps > 0 && rate > rs.last_rate_bps {
        obs.event(now_us, ACTOR_AH, EventKind::RateUp, rate, rs.last_rate_bps);
    }
    rs.last_rate_bps = rate;
}

impl Leg {
    pub(super) fn new(
        wire: Wire,
        sender: RtpSender,
        rate: RateController,
        cfg: &AhConfig,
        actor: u16,
        prefix: String,
    ) -> Self {
        // A stream is reliable: nothing to retransmit.
        let keep = (cfg.retransmissions && !wire.is_stream()).then_some(cfg.history);
        Leg {
            mtu: if wire.is_stream() {
                STREAM_MTU
            } else {
                cfg.mtu
            },
            out: Downstream::new(wire, actor, Some(sender.peek_seq()), keep, false),
            sender,
            pending: Pending::default(),
            rs: RateState::new(rate),
            feedback: Feedback::new(ACTOR_AH),
            last_flush_us: 0,
            prefix,
            drained: Vec::new(),
        }
    }

    /// Export the transport, controller and history under the leg's prefix
    /// (idempotent; re-run after a group gains a member).
    pub(super) fn register_metrics(&self, registry: &Registry) {
        let prefix = &self.prefix;
        self.out.wire.register_metrics(registry, prefix);
        self.rs
            .rate
            .register_metrics(registry, &format!("{prefix}.rate"));
        self.out
            .register_metrics(registry, &format!("{prefix}.retx_history"));
        self.feedback.register_metrics(registry, prefix);
    }

    /// A multicast session's leg: several receivers' feedback lands on it,
    /// so repairs are deduplicated, an idle group stops sending reports,
    /// and the bucket accrues only while the group flushes.
    pub(super) fn shared(&self) -> bool {
        self.out.wire.is_group()
    }

    /// Whether the leg still holds unflushed work — pending damage, a
    /// non-empty pacer queue, owed lossless repairs, or stream bytes queued
    /// behind a full send buffer.
    pub(super) fn has_pending(&self) -> bool {
        self.out.wire.has_receivers()
            && (!self.pending.is_empty() || self.rs.busy() || self.out.wire.has_unsent())
    }

    /// Start a flush — where the byte budget comes from is its only
    /// transport-specific part. Returns `(budget, stream backlog)`, the
    /// backlog `None` on a datagram path; `None` when the path is idle.
    fn budget(&mut self, cx: &Cx<'_>, now_us: u64) -> Option<(Option<u64>, Option<usize>)> {
        let adaptive = self.rs.rate.is_adaptive();
        if let Some((backlog, capacity)) = self.out.wire.stream_backlog(now_us) {
            if adaptive {
                // §7's select() signal doubles as TCP's congestion signal:
                // the controller adapts quality from the send-buffer
                // occupancy. A stream is never byte-paced — the buffer
                // itself does the pacing.
                let signal = Congestion::Backlog(backlog, capacity);
                (self.feedback).congestion(&mut self.rs.rate, cx.obs, signal, now_us);
                let _ = self.rs.rate.flush_budget(now_us); // refresh gauges
                note_rate_change(cx.obs, &mut self.rs, now_us);
            }
            return Some((None, Some(backlog)));
        }
        let rs_idle = self.rs.degraded.is_empty() && (!adaptive || self.rs.queue.is_empty());
        if self.pending.is_empty() && rs_idle {
            if adaptive && !self.shared() {
                // Nothing to send, but the lazy additive increase still
                // accrues: refresh the rate/tier gauges so an idle
                // recovered leg reads lossless, not its last congested
                // snapshot.
                let _ = self.rs.rate.flush_budget(now_us);
            }
            return None;
        }
        // Token bucket for §4.3 AH-side pacing (fixed link rate or the live
        // congestion estimate).
        let budget = self.rs.rate.flush_budget(now_us);
        note_rate_change(cx.obs, &mut self.rs, now_us);
        Some((budget, None))
    }

    /// Drain what the path affords this step and send it.
    pub(super) fn flush(&mut self, cx: &mut Cx<'_>, now_us: u64) {
        if !self.out.wire.has_receivers() {
            return;
        }
        let Some((budget, stream)) = self.budget(cx, now_us) else {
            return;
        };
        self.last_flush_us = now_us;
        let adaptive = self.rs.rate.is_adaptive();
        let backlog = stream.unwrap_or(0);
        let tier = self.rs.pick_tier(
            &mut self.pending,
            cx.cfg.damage_strategy,
            adaptive || stream.is_some(),
            backlog == 0,
            now_us,
        );
        if stream.is_some() {
            if self.pending.is_empty() {
                return;
            }
            if cx.cfg.tcp_freshness_policy && backlog > 0 {
                // §7: backlog present — hold pending state, send the
                // freshest version once the buffer drains.
                let (actor, backlog) = (self.out.actor(), backlog as u64);
                cx.event(now_us, actor, EventKind::BacklogSkip, backlog, 0);
                return;
            }
        }
        let mut drained = std::mem::take(&mut self.drained);
        let mut sent = 0u64;
        if adaptive && stream.is_none() {
            let released = AppHost::drain_adaptive(
                cx,
                &mut self.pending,
                &mut self.rs,
                budget,
                now_us,
                tier,
                self.feedback.names(),
                &mut drained,
            );
            for queued in released {
                let (msg, trace) = queued.payload;
                sent += self.send_message(cx, &msg, trace, now_us);
            }
        } else {
            let degraded = Some(&mut self.rs.degraded);
            AppHost::drain_pending(
                cx,
                &mut self.pending,
                budget,
                now_us,
                tier,
                degraded,
                self.feedback.names(),
                &mut drained,
            );
            // A stream drains unbudgeted, so its whole repair just went
            // out; a paced leg is done once nothing owed is left pending.
            if self.rs.repairing
                && self.rs.degraded.is_empty()
                && (stream.is_some() || self.pending.is_empty())
            {
                self.rs.repairing = false;
            }
            for d in drained.drain(..) {
                sent += self.send_message(cx, &d.msg, d.trace, now_us);
            }
        }
        self.drained = drained;
        if stream.is_none() {
            self.rs.rate.consume(sent);
        }
    }

    /// Packetize one message onto this leg's stream and send it; returns
    /// the bytes put on the transport.
    fn send_message(
        &mut self,
        cx: &mut Cx<'_>,
        msg: &RemotingMessage,
        seed: Option<FrameTrace>,
        now_us: u64,
    ) -> u64 {
        let ticks = us_to_ticks(now_us) as u32;
        let id = StreamId {
            pt: self.sender.payload_type(),
            ts: self.sender.timestamp_for(ticks),
            ssrc: self.sender.ssrc(),
        };
        let frag_start = std::time::Instant::now();
        let mut burst = Burst::default();
        if (self.out)
            .send_message(cx.tap, now_us, msg, self.mtu, id, &mut burst)
            .is_err()
        {
            return 0;
        }
        let fragment_us = frag_start.elapsed().as_micros() as u64;
        cx.counters.fragment_us.record(fragment_us);
        cx.counters.rtp_packets.add(burst.packets);
        cx.counters.bytes_sent.add(burst.bytes);
        let nfrags = burst.packets as u32;
        let seq = u64::from(burst.marker_seq.unwrap_or(0));
        let sent = (u64::from(nfrags) << 32) | (burst.bytes & 0xFFFF_FFFF);
        cx.event(now_us, self.out.actor(), EventKind::RtpTx, seq, sent);
        if let (Some(obs), Some(mut trace), Some(seq)) = (cx.obs, seed, burst.marker_seq) {
            trace.sent_at_us = now_us;
            trace.fragment_wall_us = fragment_us;
            trace.fragments = nfrags;
            obs.traces.register(self.sender.ssrc(), seq, trace);
        }
        burst.bytes
    }

    /// Have the stream answer NACKed (or tail-lost) sequences, and account
    /// for each answer.
    fn repair(&mut self, cx: &mut Cx<'_>, seqs: impl Iterator<Item = u16>, now_us: u64) {
        if !self.out.keeps() {
            return;
        }
        let actor = self.out.actor();
        for seq in seqs {
            match self.out.answer(cx.tap, seq, now_us) {
                Verdict::Resend(datagram) => {
                    let len = datagram.len() as u64;
                    cx.counters.retransmits.inc();
                    cx.counters.bytes_sent.add(len);
                    cx.event(now_us, actor, EventKind::RetxServed, seq as u64, len);
                }
                Verdict::Repeated => {
                    cx.counters.retransmits_suppressed.inc();
                    cx.event(now_us, actor, EventKind::RetxSuppressed, seq as u64, 0);
                }
                _ => cx.event(now_us, actor, EventKind::RetxExpired, seq as u64, 0),
            }
        }
    }

    /// Periodic RTCP sender report (RFC 3550 §6.4.1), multiplexed onto the
    /// media path per RFC 5761. It gives participants the wall-clock ↔
    /// RTP-timestamp mapping used to measure capture→display latency.
    pub(super) fn emit_sender_report(&mut self, cx: &mut Cx<'_>, now_us: u64) {
        let group_idle =
            self.shared() && now_us.saturating_sub(self.last_flush_us) > SR_INTERVAL_US * 10;
        if !self.out.wire.has_receivers() || group_idle {
            return;
        }
        if now_us.saturating_sub(self.feedback.last_sr_us()) < SR_INTERVAL_US {
            return;
        }
        let (packets, octets) = self.out.sent_counts();
        if packets == 0 {
            return;
        }
        self.feedback.note_sr(now_us, now_us);
        let ssrc = self.sender.ssrc();
        let sr = SenderReport {
            ssrc,
            // NTP field carries the virtual clock in µs — the mapping is
            // what matters, not the epoch.
            ntp: now_us,
            rtp_ts: self.sender.timestamp_for(us_to_ticks(now_us) as u32),
            packet_count: packets as u32,
            octet_count: octets as u32,
            reports: vec![],
        };
        // RFC 3550 §6.1: every RTCP compound includes an SDES CNAME.
        let bytes = Bytes::from(encode_compound(&[
            RtcpPacket::SenderReport(sr),
            RtcpPacket::Sdes(SourceDescription::cname(ssrc, "ah@adshare")),
        ]));
        cx.counters.sr_sent.inc();
        self.out
            .wire
            .send(cx.tap, StreamKind::Rtcp, ACTOR_AH, now_us, &bytes);
    }

    /// What a viewer says about the tiles it holds: a report fills the
    /// leg's ledger, a miss (a reference it could not resolve) is answered
    /// like a PLI. A group's members are never sent a reference, so their
    /// reports are not read.
    pub(super) fn on_names(&mut self, cx: &Cx<'_>, names: Names<'_>, now_us: u64) {
        let ssrc = self.sender.ssrc();
        match names {
            _ if self.shared() => {}
            Names::Report(report) => self.feedback.names().on_report(&report, ssrc),
            Names::Miss(miss) if miss.media_ssrc == ssrc => {
                cx.counters.ref_misses.inc();
                self.on_pli(cx, now_us);
            }
            Names::Miss(_) => {}
        }
    }

    /// A PLI: refresh the whole screen, and send nothing by name until the
    /// viewer reports again. Returns whether the refresh was scheduled.
    pub(super) fn on_pli(&mut self, cx: &Cx<'_>, now_us: u64) -> bool {
        self.feedback.names().clear();
        self.full_refresh(cx, now_us)
    }

    /// Schedule a full refresh, subject to the adaptive controller's PLI
    /// throttle (a denied requester re-asks via its resync timer;
    /// fixed-rate mode never throttles). Returns whether it was scheduled.
    pub(super) fn full_refresh(&mut self, cx: &Cx<'_>, now_us: u64) -> bool {
        if !self.rs.rate.allow_refresh(now_us) {
            return false;
        }
        cx.counters.full_refreshes.inc();
        AppHost::schedule_full_refresh(cx.desktop, cx.cfg, &mut self.pending, now_us);
        true
    }

    /// A Generic NACK: a congestion signal for the path's estimator (a
    /// burst decreases, a trickle holds off), then the repair itself.
    pub(super) fn on_nack(&mut self, cx: &mut Cx<'_>, lost: &[u16], now_us: u64) {
        let signal = Congestion::Nack(lost.len());
        (self.feedback).congestion(&mut self.rs.rate, cx.obs, signal, now_us);
        self.repair(cx, lost.iter().copied(), now_us);
    }

    /// A reception report: the feedback half measures the round trip,
    /// feeds the loss fraction to the estimator and judges the tail; a
    /// short deficit is answered from retransmit history, a hopeless one
    /// with a full refresh.
    pub(super) fn on_receiver_report(&mut self, cx: &mut Cx<'_>, block: &ReportBlock, now_us: u64) {
        let rate = Some(&mut self.rs.rate);
        match (self.feedback).on_report(&self.out, rate, cx.obs, block, now_us) {
            Tail::Intact => {}
            Tail::Refresh => {
                self.full_refresh(cx, now_us);
            }
            tail => {
                cx.counters.tail_repairs.inc();
                self.repair(cx, tail.seqs(), now_us);
            }
        }
    }
}
