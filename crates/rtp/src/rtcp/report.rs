//! RTCP Sender and Receiver Reports (RFC 3550 §6.4).

use super::{read_u32, write_header, PT_RR, PT_SR};
use crate::{Error, Result};

/// A reception report block (RFC 3550 §6.4.1), 24 bytes on the wire.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ReportBlock {
    /// SSRC of the source this block reports on.
    pub ssrc: u32,
    /// Fraction of packets lost since the previous report (fixed point /256).
    pub fraction_lost: u8,
    /// Cumulative number of packets lost (24-bit signed, clamped here).
    pub cumulative_lost: u32,
    /// Extended highest sequence number received.
    pub highest_seq: u32,
    /// Interarrival jitter in timestamp units.
    pub jitter: u32,
    /// Last SR timestamp (middle 32 bits of NTP, [`compact_ntp`]); 0
    /// until an SR has arrived.
    pub last_sr: u32,
    /// Delay since last SR, in 1/65536 seconds ([`DLSR_UNITS_PER_S`]); 0
    /// until an SR has arrived.
    pub delay_since_last_sr: u32,
}

/// Units of a report block's delay since last SR per second (RFC 3550
/// §6.4.1).
pub const DLSR_UNITS_PER_S: u64 = 65_536;

/// The middle 32 bits of a 64-bit NTP timestamp: what a report block's
/// `last_sr` echoes of the SR it refers to (RFC 3550 §6.4.1).
pub fn compact_ntp(ntp: u64) -> u32 {
    (ntp >> 16) as u32
}

impl ReportBlock {
    const LEN: usize = 24;

    fn encode_into(&self, out: &mut Vec<u8>) {
        out.extend_from_slice(&self.ssrc.to_be_bytes());
        let lost = self.cumulative_lost.min(0x00ff_ffff);
        out.push(self.fraction_lost);
        out.extend_from_slice(&lost.to_be_bytes()[1..]);
        out.extend_from_slice(&self.highest_seq.to_be_bytes());
        out.extend_from_slice(&self.jitter.to_be_bytes());
        out.extend_from_slice(&self.last_sr.to_be_bytes());
        out.extend_from_slice(&self.delay_since_last_sr.to_be_bytes());
    }

    fn decode(buf: &[u8]) -> Result<Self> {
        if buf.len() < Self::LEN {
            return Err(Error::Truncated {
                what: "report block",
                need: Self::LEN,
                have: buf.len(),
            });
        }
        Ok(ReportBlock {
            ssrc: read_u32(buf, 0, "report block ssrc")?,
            fraction_lost: buf[4],
            cumulative_lost: u32::from_be_bytes([0, buf[5], buf[6], buf[7]]),
            highest_seq: read_u32(buf, 8, "report block seq")?,
            jitter: read_u32(buf, 12, "report block jitter")?,
            last_sr: read_u32(buf, 16, "report block lsr")?,
            delay_since_last_sr: read_u32(buf, 20, "report block dlsr")?,
        })
    }
}

/// An RTCP Sender Report (PT = 200).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SenderReport {
    /// SSRC of this sender.
    pub ssrc: u32,
    /// NTP timestamp (seconds since 1900 in the high word, fraction low).
    pub ntp: u64,
    /// RTP timestamp corresponding to the NTP instant.
    pub rtp_ts: u32,
    /// Total packets sent.
    pub packet_count: u32,
    /// Total payload octets sent.
    pub octet_count: u32,
    /// Reception report blocks (at most 31).
    pub reports: Vec<ReportBlock>,
}

impl SenderReport {
    /// Serialize.
    pub fn encode(&self) -> Vec<u8> {
        let body_len = 24 + ReportBlock::LEN * self.reports.len().min(31);
        let mut out = Vec::with_capacity(4 + body_len);
        write_header(&mut out, self.reports.len().min(31) as u8, PT_SR, body_len);
        out.extend_from_slice(&self.ssrc.to_be_bytes());
        out.extend_from_slice(&self.ntp.to_be_bytes());
        out.extend_from_slice(&self.rtp_ts.to_be_bytes());
        out.extend_from_slice(&self.packet_count.to_be_bytes());
        out.extend_from_slice(&self.octet_count.to_be_bytes());
        for r in self.reports.iter().take(31) {
            r.encode_into(&mut out);
        }
        out
    }

    pub(crate) fn decode_body(count: u8, body: &[u8]) -> Result<Self> {
        if body.len() < 24 {
            return Err(Error::Truncated {
                what: "sender report",
                need: 24,
                have: body.len(),
            });
        }
        let ssrc = read_u32(body, 0, "SR ssrc")?;
        let ntp_hi = read_u32(body, 4, "SR ntp")? as u64;
        let ntp_lo = read_u32(body, 8, "SR ntp")? as u64;
        let rtp_ts = read_u32(body, 12, "SR rtp ts")?;
        let packet_count = read_u32(body, 16, "SR packets")?;
        let octet_count = read_u32(body, 20, "SR octets")?;
        let mut reports = Vec::with_capacity(count as usize);
        let mut off = 24;
        for _ in 0..count {
            reports.push(ReportBlock::decode(&body[off.min(body.len())..])?);
            off += ReportBlock::LEN;
        }
        Ok(SenderReport {
            ssrc,
            ntp: (ntp_hi << 32) | ntp_lo,
            rtp_ts,
            packet_count,
            octet_count,
            reports,
        })
    }
}

/// An RTCP Receiver Report (PT = 201).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ReceiverReport {
    /// SSRC of the reporting receiver.
    pub ssrc: u32,
    /// Reception report blocks (at most 31).
    pub reports: Vec<ReportBlock>,
}

impl ReceiverReport {
    /// Serialize.
    pub fn encode(&self) -> Vec<u8> {
        let body_len = 4 + ReportBlock::LEN * self.reports.len().min(31);
        let mut out = Vec::with_capacity(4 + body_len);
        write_header(&mut out, self.reports.len().min(31) as u8, PT_RR, body_len);
        out.extend_from_slice(&self.ssrc.to_be_bytes());
        for r in self.reports.iter().take(31) {
            r.encode_into(&mut out);
        }
        out
    }

    pub(crate) fn decode_body(count: u8, body: &[u8]) -> Result<Self> {
        let ssrc = read_u32(body, 0, "RR ssrc")?;
        let mut reports = Vec::with_capacity(count as usize);
        let mut off = 4;
        for _ in 0..count {
            reports.push(ReportBlock::decode(&body[off.min(body.len())..])?);
            off += ReportBlock::LEN;
        }
        Ok(ReceiverReport { ssrc, reports })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn block(ssrc: u32) -> ReportBlock {
        ReportBlock {
            ssrc,
            fraction_lost: 12,
            cumulative_lost: 345,
            highest_seq: 0x0001_ffff,
            jitter: 90,
            last_sr: 0xaabbccdd,
            delay_since_last_sr: 6553,
        }
    }

    #[test]
    fn sr_round_trip() {
        let sr = SenderReport {
            ssrc: 1,
            ntp: 0x0123_4567_89ab_cdef,
            rtp_ts: 90_000,
            packet_count: 100,
            octet_count: 123_456,
            reports: vec![block(2), block(3)],
        };
        let wire = sr.encode();
        let (pkt, used) = super::super::RtcpPacket::decode(&wire).unwrap();
        assert_eq!(used, wire.len());
        assert_eq!(pkt, super::super::RtcpPacket::SenderReport(sr));
    }

    #[test]
    fn rr_round_trip_empty() {
        let rr = ReceiverReport {
            ssrc: 55,
            reports: vec![],
        };
        let wire = rr.encode();
        assert_eq!(wire.len(), 8);
        let (pkt, _) = super::super::RtcpPacket::decode(&wire).unwrap();
        assert_eq!(pkt, super::super::RtcpPacket::ReceiverReport(rr));
    }

    #[test]
    fn cumulative_lost_clamped_to_24_bits() {
        let mut b = block(1);
        b.cumulative_lost = u32::MAX;
        let rr = ReceiverReport {
            ssrc: 1,
            reports: vec![b],
        };
        let wire = rr.encode();
        let (pkt, _) = super::super::RtcpPacket::decode(&wire).unwrap();
        if let super::super::RtcpPacket::ReceiverReport(r) = pkt {
            assert_eq!(r.reports[0].cumulative_lost, 0x00ff_ffff);
        } else {
            panic!("wrong type");
        }
    }
}
