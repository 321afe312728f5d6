//! Application-defined RTCP packets (RFC 3550 §6.7):
//!
//! ```text
//!  0                   1                   2                   3
//!  0 1 2 3 4 5 6 7 8 9 0 1 2 3 4 5 6 7 8 9 0 1 2 3 4 5 6 7 8 9 0 1
//! +-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+
//! |V=2|P| subtype |   PT=APP=204  |             length            |
//! +-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+
//! |                           SSRC/CSRC                           |
//! +-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+
//! |                          name (ASCII)                         |
//! +-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+
//! |                   application-dependent data                ...
//! ```
//!
//! [`super::RtcpPacket::decode`] keeps an APP packet as
//! [`super::RtcpPacket::Unknown`], which re-serialises it byte for byte, so
//! an application's signal rides every RTCP path unchanged; [`App::parse`]
//! reads it back in place.

use super::{split_packet, write_header, RtcpPacket, PT_APP};

/// One APP packet, borrowed from the bytes it was read from.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct App<'a> {
    /// The 5-bit subtype in the count field.
    pub subtype: u8,
    /// SSRC of the packet's originator.
    pub ssrc: u32,
    /// Four-character name the application chose.
    pub name: [u8; 4],
    /// Application-dependent data, padding removed.
    pub data: &'a [u8],
}

impl<'a> App<'a> {
    /// Read one whole APP packet (common header included); `None` for any
    /// other packet type or a malformed one.
    pub fn parse(raw: &'a [u8]) -> Option<App<'a>> {
        let (pt, subtype, body, _) = split_packet(raw).ok()?;
        if pt != PT_APP || body.len() < 8 {
            return None;
        }
        Some(App {
            subtype,
            ssrc: u32::from_be_bytes(body[..4].try_into().ok()?),
            name: body[4..8].try_into().ok()?,
            data: &body[8..],
        })
    }

    /// The packet on the wire. `data` must be a whole number of 32-bit
    /// words and the packet at most 65 536 words, as RFC 3550 requires.
    pub fn encode(&self) -> Vec<u8> {
        let body = 8 + self.data.len();
        let mut out = Vec::with_capacity(4 + body);
        write_header(&mut out, self.subtype, PT_APP, body);
        out.extend_from_slice(&self.ssrc.to_be_bytes());
        out.extend_from_slice(&self.name);
        out.extend_from_slice(self.data);
        out
    }

    /// The packet as one entry of a compound.
    pub fn to_rtcp(&self) -> RtcpPacket {
        RtcpPacket::Unknown {
            pt: PT_APP,
            raw: self.encode(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rtcp::{decode_compound, encode_compound};

    #[test]
    fn round_trips_through_a_compound_and_refuses_other_packets() {
        let data = [1u8, 2, 3, 4, 5, 6, 7, 8];
        let app = App {
            subtype: 3,
            ssrc: 0xdead_beef,
            name: *b"TEST",
            data: &data,
        };
        let wire = encode_compound(&[app.to_rtcp()]);
        assert_eq!(wire.len(), 20);
        let back = decode_compound(&wire).unwrap();
        let RtcpPacket::Unknown { raw, .. } = &back[0] else {
            panic!("APP kept verbatim");
        };
        assert_eq!(App::parse(raw), Some(app));
        let pli = crate::rtcp::PictureLossIndication {
            sender_ssrc: 1,
            media_ssrc: 2,
        };
        assert_eq!(App::parse(&pli.encode()), None);
        assert_eq!(App::parse(&wire[..12]), None, "truncated");
        let mut short = wire.clone();
        short[3] = 1; // two words: header and SSRC, no name
        assert_eq!(App::parse(&short[..8]), None);
    }
}
