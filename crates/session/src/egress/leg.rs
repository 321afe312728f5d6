//! The one leg (DESIGN §5.1): what every AH leg and every relay leg holds
//! around its [`Downstream`] — the [`Feedback`] half its receivers' RTCP
//! is read with, where a flush's budget comes from, and the one RTCP
//! dispatch and repair tally. A NACK or a receiver-report tail is answered
//! here from what the stream kept; what only the owner can do — fetch a
//! forwarded packet, refresh — is handed back as [`Owed`].

use adshare_obs::{EventKind, Obs};
use adshare_rate::RateController;
use adshare_rtp::rtcp::{ReportBlock, RtcpPacket};

use super::{Congestion, Downstream, Feedback, Tail, Tap, Verdict, Wire};

/// One leg: a stream on one wire and its feedback half.
#[derive(Debug)]
pub struct Leg {
    /// The stream: sequence space, repair record, NACK lookup, packetizer.
    pub out: Downstream,
    /// The SRs the leg sent, its round trip and its rate signal.
    pub feedback: Feedback,
}

/// What one RTCP packet left for the leg's owner ([`Leg::on_rtcp`]), and
/// the tally of what the leg answered itself.
#[derive(Debug, Default)]
pub struct Owed {
    /// A PLI arrived: refresh.
    pub pli: bool,
    /// A receiver report's tail was longer than is worth resending:
    /// refresh.
    pub refresh: bool,
    /// A NACK named a sequence the record no longer holds.
    pub forgotten: bool,
    /// A Generic NACK arrived.
    pub nack: bool,
    /// A receiver report's tail was resent.
    pub tail: bool,
    /// `(packets, bytes)` of kept packets resent.
    pub resent: (u64, u64),
    /// Sequences another receiver's NACK had repaired within the repeat
    /// window (a group leg).
    pub repeated: u64,
    /// Sequences never sent on the leg.
    pub unsent: u64,
    /// The receiver report's block, when one arrived.
    pub report: Option<ReportBlock>,
}

impl Leg {
    /// A leg on `wire` sending as `actor` (its rate events as
    /// `rate_actor`), numbering from `first_seq` and remembering up to
    /// `keep = (packets, bytes)` — nothing on a stream, which is reliable.
    pub fn new(
        wire: Wire,
        (actor, rate_actor): (u16, u16),
        first_seq: Option<u16>,
        keep: Option<(usize, usize)>,
    ) -> Self {
        let keep = keep.filter(|_| !wire.is_stream());
        Leg {
            out: Downstream::new(wire, actor, first_seq, keep),
            feedback: Feedback::new(rate_actor),
        }
    }

    /// Start a flush on a stream: push what waits behind the send buffer
    /// and read the backlog, which is fed to `rate` as its congestion
    /// signal when it adapts (§7). `None` on a datagram leg, whose budget
    /// is `rate`'s token bucket instead.
    pub fn backlog(
        &mut self,
        rate: &mut RateController,
        obs: Option<&Obs>,
        now_us: u64,
    ) -> Option<usize> {
        let (backlog, capacity) = self.out.wire.stream_backlog(now_us)?;
        if rate.is_adaptive() {
            let signal = Congestion::Backlog(backlog, capacity);
            self.feedback.congestion(rate, obs, signal, now_us);
        }
        Some(backlog)
    }

    /// §7's hold: while a stream is backlogged, stale state stays with the
    /// sender, so that only its freshest version is sent once the buffer
    /// drains. Whether to hold (recorded as `BacklogSkip`).
    pub fn hold(&self, backlog: usize, obs: Option<&Obs>, now_us: u64) -> bool {
        if let Some(obs) = obs.filter(|_| backlog > 0) {
            let (actor, backlog) = (self.out.actor(), backlog as u64);
            obs.event(now_us, actor, EventKind::BacklogSkip, backlog, 0);
        }
        backlog > 0
    }

    /// Read one RTCP packet from a receiver behind this leg (`actor` names
    /// it in `NackReceived`). A NACK is a congestion signal for `rate` and
    /// is answered from the record; a receiver report measures the round
    /// trip, feeds `rate` and has its tail resent, or asks for a refresh
    /// when that is hopeless. A forwarded packet is the owner's to
    /// `fetch(out, tap, leg seq, upstream seq)`, in the NACK's order.
    #[allow(clippy::too_many_arguments)]
    pub fn on_rtcp(
        &mut self,
        tap: &mut Tap,
        pkt: &RtcpPacket,
        rate: Option<&mut RateController>,
        obs: Option<&Obs>,
        actor: u16,
        now_us: u64,
        fetch: impl FnMut(&mut Downstream, &mut Tap, u16, u16),
    ) -> Owed {
        let mut owed = Owed::default();
        match pkt {
            RtcpPacket::Pli(_) => owed.pli = true,
            RtcpPacket::Nack(nack) => {
                let lost = nack.lost_seqs();
                let first = lost.first().map_or(0, |&s| u64::from(s));
                let n = lost.len() as u64;
                if let Some(obs) = obs {
                    obs.event(now_us, actor, EventKind::NackReceived, n, first);
                }
                if let Some(rate) = rate {
                    let signal = Congestion::Nack(lost.len());
                    self.feedback.congestion(rate, obs, signal, now_us);
                }
                owed.nack = true;
                self.repair(tap, lost.into_iter(), obs, now_us, &mut owed, fetch);
            }
            RtcpPacket::ReceiverReport(rr) => {
                let Some(block) = rr.reports.first() else {
                    return owed;
                };
                match (self.feedback).on_report(&self.out, rate, obs, block, now_us) {
                    Tail::Intact => {}
                    Tail::Refresh => owed.refresh = true,
                    tail => {
                        owed.tail = true;
                        self.repair(tap, tail.seqs(), obs, now_us, &mut owed, fetch);
                    }
                }
                owed.report = Some(block.clone());
            }
            _ => {}
        }
        owed
    }

    /// Answer lost sequences from the record and tally each answer.
    fn repair(
        &mut self,
        tap: &mut Tap,
        seqs: impl Iterator<Item = u16>,
        obs: Option<&Obs>,
        now_us: u64,
        owed: &mut Owed,
        mut fetch: impl FnMut(&mut Downstream, &mut Tap, u16, u16),
    ) {
        if !self.out.keeps() {
            return;
        }
        let actor = self.out.actor();
        let event = |kind, seq: u16, len| {
            if let Some(obs) = obs {
                obs.event(now_us, actor, kind, u64::from(seq), len);
            }
        };
        for seq in seqs {
            match self.out.answer(tap, seq, now_us) {
                Verdict::Resend(datagram) => {
                    let len = datagram.len() as u64;
                    owed.resent = (owed.resent.0 + 1, owed.resent.1 + len);
                    event(EventKind::RetxServed, seq, len);
                }
                Verdict::Upstream(up) => fetch(&mut self.out, tap, seq, up),
                Verdict::Repeated => {
                    owed.repeated += 1;
                    event(EventKind::RetxSuppressed, seq, 0);
                }
                verdict => {
                    owed.forgotten |= verdict == Verdict::Forgotten;
                    owed.unsent += u64::from(verdict == Verdict::NeverSent);
                    event(EventKind::RetxExpired, seq, 0);
                }
            }
        }
    }
}
