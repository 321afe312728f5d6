//! Per-SSRC sender and receiver bookkeeping.
//!
//! The draft mandates (§5.1.1, §6.1.1) that "the initial value of the
//! timestamp MUST be random (unpredictable)"; RFC 3550 says the same of the
//! initial sequence number. [`RtpSender`] implements both, plus monotone
//! sequence/timestamp assignment. [`RtpReceiver`] accumulates the statistics
//! that feed RTCP receiver reports, and remembers the last sender report so
//! each report block can echo it (RFC 3550 §6.4.1: LSR and DLSR, from which
//! the sender computes the round-trip time).

use rand::Rng;

use crate::header::RtpHeader;
use crate::packet::RtpPacket;
use crate::rtcp::{compact_ntp, ReportBlock, DLSR_UNITS_PER_S};
use crate::seq::{ExtendedSeq, JitterEstimator};

/// Sender-side state for one outgoing RTP stream.
#[derive(Debug)]
pub struct RtpSender {
    ssrc: u32,
    payload_type: u8,
    next_seq: u16,
    /// Random offset added to media timestamps.
    ts_offset: u32,
    packets_sent: u64,
    octets_sent: u64,
}

impl RtpSender {
    /// Create a sender with random initial sequence number and timestamp
    /// offset drawn from `rng` (deterministic in tests and simulations).
    pub fn new(ssrc: u32, payload_type: u8, rng: &mut impl Rng) -> Self {
        RtpSender {
            ssrc,
            payload_type: payload_type & 0x7f,
            next_seq: rng.gen(),
            ts_offset: rng.gen(),
            packets_sent: 0,
            octets_sent: 0,
        }
    }

    /// The stream's SSRC.
    pub fn ssrc(&self) -> u32 {
        self.ssrc
    }

    /// The payload type stamped on outgoing packets.
    pub fn payload_type(&self) -> u8 {
        self.payload_type
    }

    /// Sequence number the next packet will carry.
    pub fn peek_seq(&self) -> u16 {
        self.next_seq
    }

    /// Map a media-clock instant (90 kHz ticks since stream start) to the
    /// on-wire timestamp domain.
    pub fn timestamp_for(&self, media_ticks: u32) -> u32 {
        media_ticks.wrapping_add(self.ts_offset)
    }

    /// Stamp the next header in the stream and advance the sequence.
    fn next_header(&mut self, media_ticks: u32, marker: bool) -> RtpHeader {
        let mut header = RtpHeader::new(
            self.payload_type,
            self.next_seq,
            self.timestamp_for(media_ticks),
            self.ssrc,
        );
        header.marker = marker;
        self.next_seq = self.next_seq.wrapping_add(1);
        header
    }

    fn count(&mut self, pkt: RtpPacket) -> RtpPacket {
        self.packets_sent += 1;
        self.octets_sent += pkt.payload.len() as u64;
        pkt
    }

    /// Build the next packet in the stream.
    ///
    /// `media_ticks` is the capture instant in 90 kHz ticks; `marker` follows
    /// the draft's rules (§5.1.1: last packet of a RegionUpdate).
    pub fn next_packet(
        &mut self,
        media_ticks: u32,
        marker: bool,
        payload: impl Into<bytes::Bytes>,
    ) -> RtpPacket {
        let header = self.next_header(media_ticks, marker);
        self.count(RtpPacket::new(header, payload))
    }

    /// Build the next packet in the stream as one datagram: same header,
    /// sequence and counts as [`RtpSender::next_packet`], with the payload
    /// gathered from `parts` straight into the buffer that goes on the wire
    /// (see [`RtpPacket::assemble`]; `scratch` is reused working space).
    pub fn next_datagram(
        &mut self,
        media_ticks: u32,
        marker: bool,
        parts: &[&[u8]],
        scratch: &mut Vec<u8>,
    ) -> RtpPacket {
        let header = self.next_header(media_ticks, marker);
        self.count(RtpPacket::assemble(header, parts, scratch))
    }

    /// (packets, payload octets) sent so far — feeds RTCP sender reports.
    pub fn sent_counts(&self) -> (u64, u64) {
        (self.packets_sent, self.octets_sent)
    }
}

/// Receiver-side statistics for one incoming RTP stream.
#[derive(Debug, Default)]
pub struct RtpReceiver {
    ext: ExtendedSeq,
    jitter: JitterEstimator,
    received: u64,
    /// Extended seq of the first packet.
    base_ext: Option<u64>,
    /// Receive count at the previous report (for fraction_lost).
    prev_expected: u64,
    prev_received: u64,
    /// The last sender report: its compact NTP timestamp and local arrival
    /// time (90 kHz ticks).
    last_sr: Option<(u32, u64)>,
}

impl RtpReceiver {
    /// Fresh statistics.
    pub fn new() -> Self {
        Self::default()
    }

    /// Record an arriving packet. `arrival_ticks` is the local arrival time
    /// in the 90 kHz domain.
    pub fn on_packet(&mut self, pkt: &RtpPacket, arrival_ticks: u64) {
        let ext = self.ext.update(pkt.header.sequence);
        if self.base_ext.is_none() {
            self.base_ext = Some(ext);
        }
        self.received += 1;
        self.jitter.on_packet(arrival_ticks, pkt.header.timestamp);
    }

    /// Packets received so far.
    pub fn received(&self) -> u64 {
        self.received
    }

    /// Packets expected so far (based on sequence span).
    pub fn expected(&self) -> u64 {
        match self.base_ext {
            Some(base) => self.ext.highest() - base + 1,
            None => 0,
        }
    }

    /// Cumulative lost (expected − received, floored at 0: duplicates can
    /// make received exceed expected).
    pub fn cumulative_lost(&self) -> u64 {
        self.expected().saturating_sub(self.received)
    }

    /// Record a sender report carrying NTP timestamp `ntp`, arrived at
    /// `arrival_ticks` (local 90 kHz time): later report blocks echo it.
    pub fn on_sender_report(&mut self, ntp: u64, arrival_ticks: u64) {
        self.last_sr = Some((compact_ntp(ntp), arrival_ticks));
    }

    /// Current jitter estimate in timestamp ticks.
    pub fn jitter(&self) -> u32 {
        self.jitter.jitter()
    }

    /// Produce an RTCP report block for this stream at `now_ticks` (local
    /// 90 kHz time) and roll the interval counters (fraction_lost covers
    /// the window since the previous call). LSR and DLSR name the last
    /// sender report and how long ago it arrived; both are 0 before one has.
    pub fn report_block(&mut self, media_ssrc: u32, now_ticks: u64) -> ReportBlock {
        let expected = self.expected();
        let exp_int = expected.saturating_sub(self.prev_expected);
        let rcv_int = self.received.saturating_sub(self.prev_received);
        let lost_int = exp_int.saturating_sub(rcv_int);
        let fraction = lost_int
            .checked_mul(256)
            .and_then(|n| n.checked_div(exp_int))
            .unwrap_or(0)
            .min(255) as u8;
        self.prev_expected = expected;
        self.prev_received = self.received;
        let (last_sr, delay_since_last_sr) = self.last_sr.map_or((0, 0), |(lsr, at)| {
            let held = u128::from(now_ticks.saturating_sub(at));
            let units = held * u128::from(DLSR_UNITS_PER_S) / u128::from(crate::CLOCK_RATE);
            (lsr, u32::try_from(units).unwrap_or(u32::MAX))
        });
        ReportBlock {
            ssrc: media_ssrc,
            fraction_lost: fraction,
            cumulative_lost: self.cumulative_lost().min(0x00ff_ffff_u64) as u32,
            highest_seq: (self.ext.highest() & 0xffff_ffff) as u32,
            jitter: self.jitter(),
            last_sr,
            delay_since_last_sr,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn sender_increments_seq_and_counts() {
        let mut rng = StdRng::seed_from_u64(1);
        let mut s = RtpSender::new(7, 99, &mut rng);
        let first = s.peek_seq();
        let p1 = s.next_packet(0, false, vec![0u8; 10]);
        let p2 = s.next_packet(3000, true, vec![0u8; 20]);
        assert_eq!(p1.header.sequence, first);
        assert_eq!(p2.header.sequence, first.wrapping_add(1));
        assert!(p2.header.marker);
        assert_eq!(s.sent_counts(), (2, 30));
        assert_eq!(p2.header.timestamp.wrapping_sub(p1.header.timestamp), 3000);
    }

    #[test]
    fn sender_initial_values_depend_on_rng_seed() {
        let a = RtpSender::new(1, 99, &mut StdRng::seed_from_u64(1)).peek_seq();
        let b = RtpSender::new(1, 99, &mut StdRng::seed_from_u64(2)).peek_seq();
        // Overwhelmingly likely to differ; the property we need is that the
        // initial value is drawn from the RNG, not constant.
        assert_ne!(a, b);
    }

    #[test]
    fn receiver_counts_loss() {
        let mut rng = StdRng::seed_from_u64(3);
        let mut s = RtpSender::new(7, 99, &mut rng);
        let mut r = RtpReceiver::new();
        for i in 0..10u32 {
            let pkt = s.next_packet(i * 3000, false, vec![0u8; 4]);
            if i % 3 != 0 {
                // drop every third packet
                r.on_packet(&pkt, (i * 3000) as u64);
            }
        }
        // Received: i = 1,2,4,5,7,8. The span runs from the first to the
        // highest received packet, so expected = 8 and two are lost inside.
        assert_eq!(r.expected(), 8);
        assert_eq!(r.received(), 6);
        assert_eq!(r.cumulative_lost(), 2);
        let rb = r.report_block(7, 0);
        assert!(rb.fraction_lost > 0);
        // Second report over an empty interval reports zero fraction.
        let rb2 = r.report_block(7, 0);
        assert_eq!(rb2.fraction_lost, 0);
    }

    #[test]
    fn receiver_zero_loss() {
        let mut rng = StdRng::seed_from_u64(4);
        let mut s = RtpSender::new(7, 99, &mut rng);
        let mut r = RtpReceiver::new();
        for i in 0..50u32 {
            let pkt = s.next_packet(i * 3000, false, vec![]);
            r.on_packet(&pkt, (i * 3000) as u64);
        }
        assert_eq!(r.cumulative_lost(), 0);
        assert_eq!(r.report_block(7, 0).fraction_lost, 0);
    }

    #[test]
    fn report_echoes_the_last_sender_report() {
        let mut r = RtpReceiver::new();
        let before = r.report_block(7, 90_000);
        assert_eq!((before.last_sr, before.delay_since_last_sr), (0, 0));
        let ntp = 0x0123_4567_89ab_cdef;
        r.on_sender_report(ntp, 90_000);
        // Held 1.5 s (135 000 ticks at 90 kHz) = 98 304 / 65 536 s.
        let rb = r.report_block(7, 225_000);
        assert_eq!(rb.last_sr, 0x4567_89ab);
        assert_eq!(rb.delay_since_last_sr, 98_304);
        // A newer SR replaces the old one.
        r.on_sender_report(ntp + (1 << 16), 300_000);
        let rb = r.report_block(7, 300_000);
        assert_eq!((rb.last_sr, rb.delay_since_last_sr), (0x4567_89ac, 0));
    }
}
