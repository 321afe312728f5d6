//! The feedback half of a leg (DESIGN §5.1 "One clock per leg"): what AH
//! and relay legs alike learn from their receivers' RTCP. An RR echoes the
//! last SR its writer got (LSR) and how long it held it (DLSR), so that
//! SR's send time *on this leg* plus DLSR is when the RR was written, on
//! the sender's clock and less one downlink delay. That instant bounds
//! what the RR can know about (the tail) and, against the RR's arrival,
//! measures the round trip. A relay leg times the AH's SRs as it forwards
//! them, so no byte on the wire changes.

use adshare_obs::{
    EventKind, Obs, Registry, RATE_CAUSE_BACKLOG, RATE_CAUSE_LOSS_REPORT, RATE_CAUSE_NACK_BURST,
};
use adshare_rate::RateController;
use adshare_rtp::rtcp::{compact_ntp, ReportBlock, DLSR_UNITS_PER_S};

use super::{Downstream, Ledger};

/// Largest RR tail deficit worth repairing packet-by-packet; beyond this
/// (or past the history window) a refresh is cheaper.
const TAIL_REPAIR_MAX: u16 = 64;

/// SRs a leg remembers for matching LSRs: an RR echoes the SR its writer
/// last got, at most one SR interval plus a round trip before it arrives.
const SR_MEMORY: usize = 4;

adshare_obs::metric_set! {
    /// The leg's clock with its receivers.
    struct Clock {
        /// Round-trip time the latest RR with a known LSR measured
        /// (arrival − SR send time − DLSR), µs.
        rtt_us: gauge "rtt_us",
    }
}

/// One congestion signal for a leg's rate controller.
#[derive(Debug, Clone, Copy)]
pub enum Congestion {
    /// A Generic NACK naming this many sequences.
    Nack(usize),
    /// An RR's loss fraction (lost/256).
    Report(u8),
    /// A stream's send-buffer `(backlog, capacity)` in bytes (§7).
    Backlog(usize, usize),
}

/// What an RR asks of its leg ([`Feedback::on_report`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Tail {
    /// Nothing the RR could have seen is missing.
    Intact,
    /// Resend `(after, n)`: the `n` sequences after the RR's highest.
    Resend(u16, u16),
    /// More is missing than is worth resending: refresh instead.
    Refresh,
}

impl Tail {
    /// The sequences a [`Tail::Resend`] names (none otherwise).
    pub fn seqs(self) -> impl Iterator<Item = u16> {
        let (after, n) = match self {
            Tail::Resend(after, n) => (after, n),
            _ => (0, 0),
        };
        (1..=n).map(move |i| after.wrapping_add(i))
    }
}

/// A leg's SRs, its measured round trip, and the one place its feedback
/// becomes a rate signal.
#[derive(Debug)]
pub struct Feedback {
    /// Actor of the leg's `RateDown` events.
    actor: u16,
    /// The latest SRs sent on the leg as `(compact NTP, send µs)`, newest
    /// first (`(0, 0)` where none was sent).
    srs: [(u32, u64); SR_MEMORY],
    clock: Clock,
    /// The tiles the viewer said it holds (only a unicast AH leg reads
    /// reports into it: a relay leg's viewers and a group's members are
    /// never sent a reference).
    names: Ledger,
}

impl Feedback {
    /// The feedback half of a leg whose rate events name `actor`.
    pub fn new(actor: u16) -> Self {
        let (srs, clock) = ([(0, 0); SR_MEMORY], Clock::default());
        let names = Ledger::default();
        Feedback {
            actor,
            srs,
            clock,
            names,
        }
    }

    /// The names the viewer reported (`Ledger::on_report`): what the leg
    /// may send by name, and what a PLI or a miss clears.
    pub fn names(&mut self) -> &mut Ledger {
        &mut self.names
    }

    /// Adopt the `{prefix}.rtt_us` gauge.
    pub fn register_metrics(&self, registry: &Registry, prefix: &str) {
        self.clock.register(registry, prefix);
    }

    /// Note that the leg sent, at `now_us`, an SR whose NTP field is `ntp`.
    pub fn note_sr(&mut self, ntp: u64, now_us: u64) {
        self.srs.rotate_right(1);
        self.srs[0] = (compact_ntp(ntp), now_us);
    }

    /// When the leg last sent an SR (0 before the first).
    pub fn last_sr_us(&self) -> u64 {
        self.srs[0].1
    }

    /// Feed `rate` one signal; a multiplicative decrease it causes is
    /// recorded as a `RateDown` event tagged with the signal's cause.
    pub fn congestion(
        &self,
        rate: &mut RateController,
        obs: Option<&Obs>,
        signal: Congestion,
        now_us: u64,
    ) {
        let before = rate.decreases();
        match signal {
            Congestion::Nack(lost) => rate.on_nack(lost, now_us),
            Congestion::Report(fraction) => rate.on_report(fraction, now_us),
            Congestion::Backlog(backlog, capacity) => rate.on_backlog(backlog, capacity, now_us),
        }
        if rate.decreases() == before {
            return;
        }
        let cause = match signal {
            Congestion::Nack(_) => RATE_CAUSE_NACK_BURST,
            Congestion::Report(_) => RATE_CAUSE_LOSS_REPORT,
            Congestion::Backlog(..) => RATE_CAUSE_BACKLOG,
        };
        let bps = rate.rate_bps(now_us).unwrap_or(0);
        if let Some(obs) = obs {
            obs.event(now_us, self.actor, EventKind::RateDown, bps, cause);
        }
    }

    /// Read one RR block from the receiver behind `out`: it measures the
    /// round trip and, on a datagram leg, feeds its loss fraction to `rate`
    /// and judges the tail — packets lost at the end of a burst, which no
    /// later packet reveals to a NACK. An RR that echoes no SR the leg
    /// remembers judges nothing. On a stream (reliable, in order) a lagging
    /// RR means queued bytes; its rate signal is the backlog.
    pub fn on_report(
        &mut self,
        out: &Downstream,
        rate: Option<&mut RateController>,
        obs: Option<&Obs>,
        block: &ReportBlock,
        now_us: u64,
    ) -> Tail {
        let written = self.written_at(block);
        if let Some(at) = written {
            self.clock.rtt_us.set(now_us.saturating_sub(at) as i64);
        }
        if out.wire.is_stream() {
            return Tail::Intact;
        }
        if let Some(rate) = rate {
            self.congestion(rate, obs, Congestion::Report(block.fraction_lost), now_us);
        }
        let Some(seen) = written.and_then(|at| out.last_sent_before(at)) else {
            return Tail::Intact;
        };
        let after = block.highest_seq as u16;
        match seen.wrapping_sub(after) {
            // Up to date, or ahead of the record (a wrap mid-flight).
            0 | 0x8000.. => Tail::Intact,
            n @ 1..=TAIL_REPAIR_MAX => Tail::Resend(after, n),
            _ => Tail::Refresh,
        }
    }

    /// When the receiver wrote `block`, on this leg's clock and less one
    /// downlink delay: `None` when it echoes no SR (LSR 0, which an empty
    /// slot also reads) or one the leg no longer remembers.
    fn written_at(&self, block: &ReportBlock) -> Option<u64> {
        if block.last_sr == 0 {
            return None;
        }
        let (_, sent_us) = self.srs.iter().find(|&&(lsr, _)| lsr == block.last_sr)?;
        Some(sent_us + u64::from(block.delay_since_last_sr) * 1_000_000 / DLSR_UNITS_PER_S)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::egress::{Burst, StreamId, Tap, Wire};
    use adshare_netsim::tcp::TcpConfig;
    use adshare_netsim::udp::LinkConfig;
    use adshare_obs::{ACTOR_AH, ACTOR_LEG_BASE};
    use adshare_rate::RateConfig;
    use adshare_remoting::message::{RegionUpdate, RemotingMessage};
    use adshare_remoting::WindowId;
    use bytes::Bytes;

    const NTP: u64 = 0x0000_0012_3456_789a;

    /// A leg that sent one one-packet message a millisecond for 100 ms:
    /// sequence `99 + t` at `t` ms.
    fn sent_on(wire: Wire) -> Downstream {
        let mut out = Downstream::new(wire, 7, Some(100), None);
        let msg = RemotingMessage::RegionUpdate(RegionUpdate {
            window_id: WindowId(1),
            payload_type: 96,
            left: 0,
            top: 0,
            payload: Bytes::from_static(b"pixels"),
        });
        let (mut tap, id) = (Tap::default(), StreamId::default());
        for ms in 1..=100 {
            let burst = &mut Burst::default();
            (out.send_message(&mut tap, ms * 1_000, &msg, 1_200, id, burst)).unwrap();
        }
        out
    }

    /// A report on everything up to `highest`, written 31 250 µs after it
    /// got the SR it echoes as `last_sr`.
    fn block(highest: u16, last_sr: u32) -> ReportBlock {
        ReportBlock {
            ssrc: 0,
            fraction_lost: 0,
            cumulative_lost: 0,
            highest_seq: u32::from(highest),
            jitter: 0,
            last_sr,
            delay_since_last_sr: 2_048,
        }
    }

    fn rtt(registry: &Registry) -> Option<i64> {
        registry.snapshot().gauge("leg.rtt_us")
    }

    #[test]
    fn a_report_judges_only_what_was_sent_before_it_was_written() {
        let out = sent_on(Wire::udp(LinkConfig::default(), 1));
        let mut half = Feedback::new(ACTOR_AH);
        let registry = Registry::new();
        half.register_metrics(&registry, "leg");
        half.note_sr(NTP, 20_000);
        let lsr = compact_ntp(NTP);
        // Written at 20 + 31.25 ms, when sequence 150 (51 ms) was the last
        // one sent; it arrives at 100 ms.
        let mut judge =
            |highest, lsr| half.on_report(&out, None, None, &block(highest, lsr), 100_000);
        let tail = judge(140, lsr);
        assert_eq!(tail, Tail::Resend(140, 10));
        assert!(tail.seqs().eq(141..=150));
        assert_eq!(rtt(&registry), Some(100_000 - 51_250));
        assert_eq!(judge(150, lsr), Tail::Intact, "up to date");
        assert_eq!(judge(151, lsr), Tail::Intact, "ahead of the record");
        assert_eq!(judge(150 - 64, lsr), Tail::Resend(86, 64));
        assert_eq!(judge(150 - 65, lsr), Tail::Refresh);
        assert_eq!(judge(100, lsr + 1), Tail::Intact, "an SR it never sent");
        assert_eq!(judge(100, 0), Tail::Intact, "no SR echoed");
        assert!(Tail::Refresh.seqs().next().is_none());
    }

    #[test]
    fn a_stream_measures_its_round_trip_and_judges_no_tail() {
        let tcp = TcpConfig {
            rate_bps: 1_000_000_000,
            delay_us: 1_000,
            send_buf: 1 << 20,
        };
        let out = sent_on(Wire::tcp(tcp));
        let mut half = Feedback::new(ACTOR_AH);
        let registry = Registry::new();
        half.register_metrics(&registry, "leg");
        half.note_sr(NTP, 20_000);
        let mut rate = RateController::new_adaptive(RateConfig::default(), None, 1_200);
        let mut report = block(100, compact_ntp(NTP));
        report.fraction_lost = 255;
        let tail = half.on_report(&out, Some(&mut rate), None, &report, 100_000);
        assert_eq!(tail, Tail::Intact);
        assert_eq!(rtt(&registry), Some(48_750));
        assert_eq!(rate.decreases(), 0, "the backlog is a stream's signal");
    }

    #[test]
    fn a_decrease_is_a_rate_down_event_tagged_with_its_cause() {
        let obs = Obs::new();
        let half = Feedback::new(ACTOR_LEG_BASE | 3);
        let mut fixed = RateController::new_fixed(Some(1_000_000), 1_200);
        half.congestion(&mut fixed, Some(&obs), Congestion::Nack(64), 1_000);
        assert!(
            obs.recorder.snapshot().is_empty(),
            "a fixed rate never moves"
        );
        let mut rate = RateController::new_adaptive(RateConfig::default(), None, 1_200);
        half.congestion(&mut rate, Some(&obs), Congestion::Nack(2), 1_000);
        assert!(obs.recorder.snapshot().is_empty(), "a trickle holds off");
        half.congestion(
            &mut rate,
            Some(&obs),
            Congestion::Backlog(900, 1_000),
            2_000,
        );
        let events = obs.recorder.snapshot();
        assert_eq!(events.len(), 1);
        let e = &events[0];
        assert_eq!((e.actor, e.kind), (ACTOR_LEG_BASE | 3, EventKind::RateDown));
        assert_eq!(
            (e.a, e.b),
            (rate.rate_bps(2_000).unwrap(), RATE_CAUSE_BACKLOG)
        );
    }
}
