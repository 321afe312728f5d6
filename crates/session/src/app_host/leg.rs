//! The AH's egress leg: the AH's policy around the one [`egress::Leg`]
//! every AH and relay leg holds — pace remoting messages (§4.3), refresh,
//! report the stream (RTCP SR) — over whichever wire the path uses. A
//! unicast participant owns its leg; the members of a multicast session
//! share theirs.
//!
//! NACKs and receiver-report tails are answered by the one leg (§5.3); a
//! PLI, a hopeless tail, a tile report and a tier request are the AH's.
//! The only transport-specific part of a flush is where the byte budget
//! comes from: a datagram path asks its token bucket, a stream reads its
//! send-buffer backlog (which is also its congestion signal and, per §7,
//! its reason to hold stale state back).

use adshare_capture::StreamKind;
use adshare_layers::TierRequest;
use adshare_netsim::time::us_to_ticks;
use adshare_obs::{EventKind, FrameTrace, Obs, Registry, ACTOR_AH};
use adshare_rate::{QualityTier, RateController};
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
use crate::egress::{self, Burst, StreamId, Wire};

const SR_INTERVAL_US: u64 = 1_000_000;

/// RTP payload budget per packet on a stream: TCP frames can carry large
/// payloads, so minimise per-packet overhead but stay under the RFC 4571
/// 16-bit frame limit.
const STREAM_MTU: usize = 60_000;

#[derive(Debug)]
pub(super) struct Leg {
    /// The stream on the path's wire and its feedback half. The stream's
    /// actor is the participant's handle index, or [`ACTOR_AH`] for a
    /// group.
    pub(super) link: egress::Leg,
    /// SSRC, payload type and timestamp offset; the stream numbers.
    sender: RtpSender,
    pub(super) pending: Pending,
    /// Pacing, congestion control and adaptive quality for this path. On a
    /// shared leg every member's RTCP feeds this one controller, so the
    /// session reacts to its worst path.
    pub(super) rs: RateState,
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
        let keep = cfg.retransmissions.then_some(cfg.history);
        Leg {
            mtu: if wire.is_stream() {
                STREAM_MTU
            } else {
                cfg.mtu
            },
            link: egress::Leg::new(wire, (actor, ACTOR_AH), Some(sender.peek_seq()), keep),
            sender,
            pending: Pending::default(),
            rs: RateState::new(rate),
            last_flush_us: 0,
            prefix,
            drained: Vec::new(),
        }
    }

    /// Export the transport, controller and history under the leg's prefix
    /// (idempotent; re-run after a group gains a member).
    pub(super) fn register_metrics(&self, registry: &Registry) {
        let (prefix, out) = (&self.prefix, &self.link.out);
        out.wire.register_metrics(registry, prefix);
        self.rs
            .rate
            .register_metrics(registry, &format!("{prefix}.rate"));
        out.register_metrics(registry, &format!("{prefix}.retx_history"));
        self.link.feedback.register_metrics(registry, prefix);
    }

    /// A multicast session's leg: several receivers' feedback lands on it,
    /// so repairs are deduplicated, an idle group stops sending reports,
    /// and the bucket accrues only while the group flushes.
    pub(super) fn shared(&self) -> bool {
        self.link.out.wire.is_group()
    }

    /// Whether the leg still holds unflushed work — pending damage, a
    /// non-empty pacer queue, owed lossless repairs, or stream bytes queued
    /// behind a full send buffer.
    pub(super) fn has_pending(&self) -> bool {
        let wire = &self.link.out.wire;
        wire.has_receivers() && (!self.pending.is_empty() || self.rs.busy() || wire.unsent() > 0)
    }

    /// Start a flush — where the byte budget comes from is its only
    /// transport-specific part. Returns `(budget, stream backlog)`, the
    /// backlog `None` on a datagram path; `None` when the path is idle.
    fn budget(&mut self, cx: &Cx<'_>, now_us: u64) -> Option<(Option<u64>, Option<usize>)> {
        let adaptive = self.rs.rate.is_adaptive();
        if let Some(backlog) = self.link.backlog(&mut self.rs.rate, cx.obs, now_us) {
            if adaptive {
                // The controller adapts quality from the send-buffer
                // occupancy. A stream is never byte-paced — the buffer
                // itself does the pacing.
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
        if !self.link.out.wire.has_receivers() {
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
            if cx.cfg.tcp_freshness_policy && self.link.hold(backlog, cx.obs, now_us) {
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
                self.link.feedback.names(),
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
                self.link.feedback.names(),
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
        if (self.link.out)
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
        cx.event(now_us, self.link.out.actor(), EventKind::RtpTx, seq, sent);
        if let (Some(obs), Some(mut trace), Some(seq)) = (cx.obs, seed, burst.marker_seq) {
            trace.sent_at_us = now_us;
            trace.fragment_wall_us = fragment_us;
            trace.fragments = nfrags;
            obs.traces.register(self.sender.ssrc(), seq, trace);
        }
        burst.bytes
    }

    /// Periodic RTCP sender report (RFC 3550 §6.4.1), multiplexed onto the
    /// media path per RFC 5761. It gives participants the wall-clock ↔
    /// RTP-timestamp mapping used to measure capture→display latency.
    pub(super) fn emit_sender_report(&mut self, cx: &mut Cx<'_>, now_us: u64) {
        let group_idle =
            self.shared() && now_us.saturating_sub(self.last_flush_us) > SR_INTERVAL_US * 10;
        let (out, feedback) = (&mut self.link.out, &mut self.link.feedback);
        if !out.wire.has_receivers() || group_idle {
            return;
        }
        if now_us.saturating_sub(feedback.last_sr_us()) < SR_INTERVAL_US {
            return;
        }
        let (packets, octets) = out.sent_counts();
        if packets == 0 {
            return;
        }
        feedback.note_sr(now_us, now_us);
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
        (out.wire).send(cx.tap, StreamKind::Rtcp, ACTOR_AH, now_us, &bytes);
    }

    /// What a viewer says about the tiles it holds: a report fills the
    /// leg's ledger, a miss (a reference it could not resolve) is answered
    /// like a PLI. A group's members are never sent a reference, so their
    /// reports are not read.
    fn on_names(&mut self, cx: &Cx<'_>, names: Names<'_>, now_us: u64) {
        let ssrc = self.sender.ssrc();
        match names {
            _ if self.shared() => {}
            Names::Report(report) => self.link.feedback.names().on_report(&report, ssrc),
            Names::Miss(miss) if miss.media_ssrc == ssrc => {
                cx.counters.ref_misses.inc();
                self.on_pli(cx, now_us);
            }
            Names::Miss(_) => {}
        }
    }

    /// A PLI: refresh the whole screen, and send nothing by name until the
    /// viewer reports again. Returns whether the refresh was scheduled.
    fn on_pli(&mut self, cx: &Cx<'_>, now_us: u64) -> bool {
        self.link.feedback.names().clear();
        self.full_refresh(cx, now_us)
    }

    /// Schedule a full refresh, subject to the adaptive controller's PLI
    /// throttle (a denied requester re-asks via its resync timer;
    /// fixed-rate mode never throttles). Returns whether it was scheduled.
    fn full_refresh(&mut self, cx: &Cx<'_>, now_us: u64) -> bool {
        if !self.rs.rate.allow_refresh(now_us) {
            return false;
        }
        cx.counters.full_refreshes.inc();
        AppHost::schedule_full_refresh(cx.desktop, cx.cfg, &mut self.pending, now_us);
        true
    }

    /// Read one RTCP packet from participant `handle`: the one leg answers
    /// NACKs and report tails from what the stream kept; a PLI, a hopeless
    /// tail, a tile report and a relay's tier request are the AH's. Returns
    /// a receiver report's block.
    pub(super) fn on_rtcp(
        &mut self,
        cx: &mut Cx<'_>,
        pkt: &RtcpPacket,
        handle: usize,
        now_us: u64,
    ) -> Option<ReportBlock> {
        let (actor, rate) = (handle as u16, Some(&mut self.rs.rate));
        let nothing = |_: &mut _, _: &mut _, _, _| {};
        let owed = (self.link).on_rtcp(cx.tap, pkt, rate, cx.obs, actor, now_us, nothing);
        cx.counters.retransmits.add(owed.resent.0);
        cx.counters.bytes_sent.add(owed.resent.1);
        cx.counters.retransmits_suppressed.add(owed.repeated);
        cx.counters.tail_repairs.add(u64::from(owed.tail));
        if owed.refresh {
            self.full_refresh(cx, now_us);
        }
        if owed.pli {
            let served = self.on_pli(cx, now_us) as u64;
            cx.event(now_us, actor, EventKind::PliReceived, served, handle as u64);
        }
        let RtcpPacket::Unknown { raw, .. } = pkt else {
            return owed.report;
        };
        // A viewer's report of the tiles it holds, or of a reference it
        // could not resolve (RTCP APP "ADTN").
        if let Some(names) = Names::parse(raw) {
            self.on_names(cx, names, now_us);
        }
        // A relay's tier subscription (RTCP APP "ADTR"): pin this path's
        // published tier so the whole subtree stops paying for quality it
        // cannot deliver.
        if let Some(req) = TierRequest::decode(raw) {
            self.rs.tier_pin = (req.tier != QualityTier::Lossless).then_some(req.tier);
            let tier = req.tier.as_gauge() as u64;
            cx.event(now_us, actor, EventKind::TierRequest, tier, 0);
        }
        None
    }
}
