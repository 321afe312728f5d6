//! The AH's one egress leg: the AH's policy around one [`Downstream`] —
//! pace remoting messages (§4.3), answer Generic NACKs and receiver-report
//! tail loss from what the stream kept (§5.3), report them (RTCP SR) — over
//! whichever [`Wire`] the path uses. A unicast participant owns its leg;
//! the members of a multicast session share theirs.
//!
//! The leg keeps one clock with each receiver: a receiver report echoes the
//! last sender report it got (LSR) and how long it held it (DLSR), so the
//! SR's send time plus DLSR is when the receiver wrote the report, on the
//! AH's clock and less one downlink delay. That instant bounds what the
//! report can know about (tail repair) and, against the report's arrival,
//! measures the round trip (`rtt_us`).
//!
//! The only transport-specific part of a flush is where the byte budget
//! comes from: a datagram path asks its token bucket, a stream reads its
//! send-buffer backlog (which is also its congestion signal and, per §7,
//! its reason to hold stale state back).

use adshare_capture::StreamKind;
use adshare_netsim::time::us_to_ticks;
use adshare_obs::{
    EventKind, FrameTrace, Obs, Registry, ACTOR_AH, RATE_CAUSE_BACKLOG, RATE_CAUSE_LOSS_REPORT,
    RATE_CAUSE_NACK_BURST,
};
use adshare_rate::RateController;
use adshare_remoting::message::RemotingMessage;
use adshare_rtp::rtcp::{
    compact_ntp, encode_compound, ReportBlock, RtcpPacket, SenderReport, SourceDescription,
    DLSR_UNITS_PER_S,
};
use adshare_rtp::session::RtpSender;
use bytes::Bytes;

use super::drain::{Drained, Pending, RateState};
use super::{AppHost, Cx};
use crate::config::AhConfig;
use crate::egress::{Burst, Downstream, StreamId, Verdict, Wire};

/// Largest RR tail deficit worth repairing packet-by-packet; beyond this
/// (or past the history window) a refresh is cheaper.
const TAIL_REPAIR_MAX: u16 = 64;

const SR_INTERVAL_US: u64 = 1_000_000;

/// Sender reports a leg remembers for matching receivers' LSR: a report
/// echoes the SR it last got, at most one SR interval plus a round trip
/// before it arrives.
const SR_MEMORY: usize = 4;

adshare_obs::metric_set! {
    /// The leg's clock with its receivers.
    struct Clock {
        /// Round-trip time the latest receiver report with an LSR measured
        /// (arrival − SR send time − DLSR), µs.
        rtt_us: gauge "rtt_us",
    }
}

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
    /// The latest RTCP sender reports as `(compact NTP, send µs)`, newest
    /// first (`(0, 0)` where none was sent).
    srs: [(u32, u64); SR_MEMORY],
    clock: Clock,
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
            srs: [(0, 0); SR_MEMORY],
            clock: Clock::default(),
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
        self.clock.register(registry, prefix);
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

    /// Feed the path's estimator one congestion signal; a multiplicative
    /// decrease it causes is reported as a cause-tagged `RateDown`.
    fn feed_rate(
        &mut self,
        cx: &Cx<'_>,
        now_us: u64,
        cause: u64,
        signal: impl FnOnce(&mut RateController),
    ) {
        let before = self.rs.rate.decreases();
        signal(&mut self.rs.rate);
        if self.rs.rate.decreases() > before {
            let rate = self.rs.rate.rate_bps(now_us).unwrap_or(0);
            cx.event(now_us, ACTOR_AH, EventKind::RateDown, rate, cause);
        }
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
                self.feed_rate(cx, now_us, RATE_CAUSE_BACKLOG, |rate| {
                    rate.on_backlog(backlog, capacity, now_us)
                });
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
                cx.event(
                    now_us,
                    self.out.actor(),
                    EventKind::BacklogSkip,
                    backlog as u64,
                    0,
                );
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
        cx.event(
            now_us,
            self.out.actor(),
            EventKind::RtpTx,
            burst.marker_seq.unwrap_or(0) as u64,
            ((nfrags as u64) << 32) | (burst.bytes & 0xFFFF_FFFF),
        );
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
        if now_us.saturating_sub(self.srs[0].1) < SR_INTERVAL_US {
            return;
        }
        let (packets, octets) = self.out.sent_counts();
        if packets == 0 {
            return;
        }
        self.srs.rotate_right(1);
        self.srs[0] = (compact_ntp(now_us), now_us);
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
        self.feed_rate(cx, now_us, RATE_CAUSE_NACK_BURST, |rate| {
            rate.on_nack(lost.len(), now_us)
        });
        self.repair(cx, lost.iter().copied(), now_us);
    }

    /// When the receiver behind `block` wrote it, on this leg's clock and
    /// less one downlink delay: the send time of the SR it echoes plus the
    /// delay it held that SR. `None` when it echoes none (LSR 0) or one this
    /// leg no longer remembers.
    fn written_at(&self, block: &ReportBlock) -> Option<u64> {
        // An empty slot reads LSR 0, which echoes nothing.
        if block.last_sr == 0 {
            return None;
        }
        let (_, sent_us) = self.srs.iter().find(|&&(lsr, _)| lsr == block.last_sr)?;
        let held_us = u64::from(block.delay_since_last_sr) * 1_000_000 / DLSR_UNITS_PER_S;
        Some(sent_us + held_us)
    }

    /// A reception report: it measures the round trip, the loss fraction
    /// feeds the estimator, and the extended-highest-sequence repairs *tail
    /// loss*. NACKs only fire when a later packet reveals a gap, so packets
    /// lost at the end of a burst (nothing behind them) would otherwise
    /// desynchronize a participant forever. Only what was sent by the time
    /// the receiver wrote the report ([`Leg::written_at`]) can be missing
    /// from it; anything later may still be in flight. A short deficit is
    /// answered from retransmit history, a hopeless one with a full
    /// refresh. A report that echoes no known SR repairs nothing: NACKs,
    /// the resync PLI and the next report cover it.
    pub(super) fn on_receiver_report(&mut self, cx: &mut Cx<'_>, block: &ReportBlock, now_us: u64) {
        let written = self.written_at(block);
        if let Some(at) = written {
            self.clock.rtt_us.set(now_us.saturating_sub(at) as i64);
        }
        // A stream is reliable and in-order: a lagging RR just means queued
        // bytes (the estimator watches the send-buffer backlog instead).
        if self.out.wire.is_stream() {
            return;
        }
        self.feed_rate(cx, now_us, RATE_CAUSE_LOSS_REPORT, |rate| {
            rate.on_report(block.fraction_lost, now_us)
        });
        let Some(seen) = written.and_then(|at| self.out.last_sent_before(at)) else {
            return;
        };
        let reported = block.highest_seq as u16;
        let gap = seen.wrapping_sub(reported);
        if gap == 0 || gap >= 0x8000 {
            // Up to date, or the report is ahead of our bookkeeping
            // (sequence wrap mid-flight); nothing to repair.
        } else if gap <= TAIL_REPAIR_MAX {
            cx.counters.tail_repairs.inc();
            let seqs = (1..=gap).map(|i| reported.wrapping_add(i));
            self.repair(cx, seqs, now_us);
        } else {
            self.full_refresh(cx, now_us);
        }
    }
}
