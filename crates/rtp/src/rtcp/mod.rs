//! RTCP packets (RFC 3550 §6) and the RFC 4585 feedback messages the draft
//! uses: Picture Loss Indication (§5.3.1) and Generic NACK (§5.3.2).
//!
//! Every RTCP packet starts with the common header:
//!
//! ```text
//!  0                   1                   2                   3
//!  0 1 2 3 4 5 6 7 8 9 0 1 2 3 4 5 6 7 8 9 0 1 2 3 4 5 6 7 8 9 0 1
//! +-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+
//! |V=2|P|  RC/FMT |      PT       |             length            |
//! +-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+
//! ```
//!
//! where `length` counts 32-bit words minus one.

pub mod app;
pub mod bye;
pub mod feedback;
pub mod report;
pub mod sdes;

pub use app::App;
pub use bye::Bye;
pub use feedback::{GenericNack, NackEntry, PictureLossIndication};
pub use report::{compact_ntp, ReceiverReport, ReportBlock, SenderReport, DLSR_UNITS_PER_S};
pub use sdes::{SdesChunk, SdesItem, SourceDescription};

use crate::{Error, Result};

/// RTCP packet type: Sender Report.
pub const PT_SR: u8 = 200;
/// RTCP packet type: Receiver Report.
pub const PT_RR: u8 = 201;
/// RTCP packet type: Source Description.
pub const PT_SDES: u8 = 202;
/// RTCP packet type: Goodbye.
pub const PT_BYE: u8 = 203;
/// RTCP packet type: Application-defined.
pub const PT_APP: u8 = 204;
/// RTCP packet type: Transport-layer feedback (RFC 4585).
pub const PT_RTPFB: u8 = 205;
/// RTCP packet type: Payload-specific feedback (RFC 4585).
pub const PT_PSFB: u8 = 206;

/// FMT value for Generic NACK within RTPFB (RFC 4585 §6.2.1).
pub const FMT_GENERIC_NACK: u8 = 1;
/// FMT value for PLI within PSFB (RFC 4585 §6.3.1).
pub const FMT_PLI: u8 = 1;

/// Any RTCP packet this stack understands.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RtcpPacket {
    /// Sender report.
    SenderReport(SenderReport),
    /// Receiver report.
    ReceiverReport(ReceiverReport),
    /// Source description.
    Sdes(SourceDescription),
    /// Goodbye.
    Bye(Bye),
    /// Picture Loss Indication — the draft's full-refresh request.
    Pli(PictureLossIndication),
    /// Generic NACK — the draft's retransmission request.
    Nack(GenericNack),
    /// A structurally valid packet of a type we do not interpret.
    Unknown {
        /// RTCP packet type.
        pt: u8,
        /// Raw packet bytes including the common header.
        raw: Vec<u8>,
    },
}

impl RtcpPacket {
    /// Serialize this packet (one RTCP packet, not a compound).
    pub fn encode(&self) -> Vec<u8> {
        match self {
            RtcpPacket::SenderReport(p) => p.encode(),
            RtcpPacket::ReceiverReport(p) => p.encode(),
            RtcpPacket::Sdes(p) => p.encode(),
            RtcpPacket::Bye(p) => p.encode(),
            RtcpPacket::Pli(p) => p.encode(),
            RtcpPacket::Nack(p) => p.encode(),
            RtcpPacket::Unknown { raw, .. } => raw.clone(),
        }
    }

    /// Parse a single RTCP packet from the front of `buf`; returns the packet
    /// and the bytes consumed.
    pub fn decode(buf: &[u8]) -> Result<(Self, usize)> {
        let (pt, count, body, total) = split_packet(buf)?;
        let pkt = match pt {
            PT_SR => RtcpPacket::SenderReport(SenderReport::decode_body(count, body)?),
            PT_RR => RtcpPacket::ReceiverReport(ReceiverReport::decode_body(count, body)?),
            PT_SDES => RtcpPacket::Sdes(SourceDescription::decode_body(count, body)?),
            PT_BYE => RtcpPacket::Bye(Bye::decode_body(count, body)?),
            PT_PSFB if count == FMT_PLI => {
                RtcpPacket::Pli(PictureLossIndication::decode_body(body)?)
            }
            PT_RTPFB if count == FMT_GENERIC_NACK => {
                RtcpPacket::Nack(GenericNack::decode_body(body)?)
            }
            PT_RTPFB | PT_PSFB => {
                return Err(Error::UnknownFeedbackFormat { pt, fmt: count });
            }
            _ => RtcpPacket::Unknown {
                pt,
                raw: buf[..total].to_vec(),
            },
        };
        Ok((pkt, total))
    }
}

/// Parse a compound RTCP datagram into its constituent packets.
pub fn decode_compound(buf: &[u8]) -> Result<Vec<RtcpPacket>> {
    let mut out = Vec::new();
    let mut off = 0;
    while off < buf.len() {
        let (pkt, used) = RtcpPacket::decode(&buf[off..])?;
        out.push(pkt);
        off += used;
    }
    Ok(out)
}

/// The NTP timestamp of the sender report leading `compound` (RFC 3550
/// §6.1: a compound starts with an SR or RR), read in place; `None` when
/// it leads with anything else or is malformed there.
pub fn leading_sr_ntp(compound: &[u8]) -> Option<u64> {
    let (pt, _, body, _) = split_packet(compound).ok()?;
    if pt != PT_SR || body.len() < 24 {
        return None;
    }
    let hi = read_u32(body, 4, "SR ntp").ok()?;
    let lo = read_u32(body, 8, "SR ntp").ok()?;
    Some((u64::from(hi) << 32) | u64::from(lo))
}

/// Serialize several RTCP packets into one compound datagram.
pub fn encode_compound(packets: &[RtcpPacket]) -> Vec<u8> {
    let mut out = Vec::new();
    for p in packets {
        out.extend_from_slice(&p.encode());
    }
    out
}

/// Write the 4-byte common header for a body of `body_len` bytes (which must
/// be a multiple of 4).
pub(crate) fn write_header(out: &mut Vec<u8>, count: u8, pt: u8, body_len: usize) {
    debug_assert!(
        body_len.is_multiple_of(4),
        "RTCP body must be 32-bit aligned"
    );
    out.push((2 << 6) | (count & 0x1f));
    out.push(pt);
    let words = (body_len / 4) as u16;
    out.extend_from_slice(&words.to_be_bytes());
}

/// Split one RTCP packet off the front of `buf`.
/// Returns (pt, count/fmt, body excluding padding, total bytes consumed).
fn split_packet(buf: &[u8]) -> Result<(u8, u8, &[u8], usize)> {
    if buf.len() < 4 {
        return Err(Error::Truncated {
            what: "RTCP header",
            need: 4,
            have: buf.len(),
        });
    }
    let version = buf[0] >> 6;
    if version != 2 {
        return Err(Error::BadVersion(version));
    }
    let has_padding = buf[0] & 0x20 != 0;
    let count = buf[0] & 0x1f;
    let pt = buf[1];
    let words = u16::from_be_bytes([buf[2], buf[3]]) as usize;
    let total = 4 + words * 4;
    if buf.len() < total {
        return Err(Error::Truncated {
            what: "RTCP packet",
            need: total,
            have: buf.len(),
        });
    }
    let mut body_end = total;
    if has_padding {
        let pad = buf[total - 1] as usize;
        if pad == 0 || pad > words * 4 {
            return Err(Error::BadPadding);
        }
        body_end = total - pad;
    }
    Ok((pt, count, &buf[4..body_end], total))
}

pub(crate) fn read_u32(buf: &[u8], off: usize, what: &'static str) -> Result<u32> {
    if buf.len() < off + 4 {
        return Err(Error::Truncated {
            what,
            need: off + 4,
            have: buf.len(),
        });
    }
    Ok(u32::from_be_bytes([
        buf[off],
        buf[off + 1],
        buf[off + 2],
        buf[off + 3],
    ]))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn leading_sr_ntp_reads_only_a_leading_sender_report() {
        let sr = RtcpPacket::SenderReport(SenderReport {
            ssrc: 7,
            ntp: 0x0123_4567_89ab_cdef,
            rtp_ts: 1,
            packet_count: 2,
            octet_count: 3,
            reports: vec![],
        });
        let sdes = RtcpPacket::Sdes(SourceDescription::cname(7, "ah"));
        let compound = encode_compound(&[sr.clone(), sdes.clone()]);
        assert_eq!(leading_sr_ntp(&compound), Some(0x0123_4567_89ab_cdef));
        assert_eq!(leading_sr_ntp(&encode_compound(&[sdes, sr])), None);
        assert_eq!(leading_sr_ntp(&compound[..20]), None, "truncated");
        assert_eq!(leading_sr_ntp(&[]), None);
    }

    #[test]
    fn compound_round_trip() {
        let packets = vec![
            RtcpPacket::ReceiverReport(ReceiverReport {
                ssrc: 7,
                reports: vec![],
            }),
            RtcpPacket::Pli(PictureLossIndication {
                sender_ssrc: 7,
                media_ssrc: 9,
            }),
            RtcpPacket::Nack(GenericNack::from_seqs(7, 9, &[100, 101, 117])),
            RtcpPacket::Bye(Bye {
                sources: vec![7],
                reason: Some("done".into()),
            }),
        ];
        let wire = encode_compound(&packets);
        let back = decode_compound(&wire).unwrap();
        assert_eq!(back, packets);
    }

    #[test]
    fn unknown_type_preserved() {
        let mut raw = Vec::new();
        write_header(&mut raw, 0, PT_APP, 8);
        raw.extend_from_slice(&[0u8; 8]);
        let (pkt, used) = RtcpPacket::decode(&raw).unwrap();
        assert_eq!(used, raw.len());
        match &pkt {
            RtcpPacket::Unknown { pt, raw: r } => {
                assert_eq!(*pt, PT_APP);
                assert_eq!(*r, raw);
            }
            other => panic!("expected Unknown, got {other:?}"),
        }
        assert_eq!(pkt.encode(), raw);
    }

    #[test]
    fn unknown_feedback_fmt_rejected() {
        let mut raw = Vec::new();
        write_header(&mut raw, 5, PT_PSFB, 8);
        raw.extend_from_slice(&[0u8; 8]);
        assert_eq!(
            RtcpPacket::decode(&raw).unwrap_err(),
            Error::UnknownFeedbackFormat {
                pt: PT_PSFB,
                fmt: 5
            }
        );
    }

    #[test]
    fn decode_never_panics_on_noise() {
        let mut state = 0xabcdef01u32;
        for len in 0..96 {
            let mut buf = vec![0u8; len];
            for b in &mut buf {
                state = state.wrapping_mul(1664525).wrapping_add(1013904223);
                *b = (state >> 24) as u8;
            }
            let _ = decode_compound(&buf);
        }
    }
}
