//! The common remoting/HIP header (draft §5.1.2, Figure 7).
//!
//! ```text
//!  0                   1                   2                   3
//!  0 1 2 3 4 5 6 7 8 9 0 1 2 3 4 5 6 7 8 9 0 1 2 3 4 5 6 7 8 9 0 1
//! +-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+
//! |  Msg Type     |    Parameter  |          WindowID             |
//! +-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+
//! ```
//!
//! For `RegionUpdate` and `MousePointerInfo` the parameter octet splits into
//! the FirstPacket bit and a 7-bit payload type (Figure 10).

use crate::{Error, Result};

/// A window identifier on the wire: unsigned, range 0–65535 (§5.1.2).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct WindowId(pub u16);

/// Size of the common header in bytes.
pub const COMMON_HEADER_LEN: usize = 4;

/// The decoded common remoting/HIP header.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CommonHeader {
    /// Message type (Tables 1 and 3).
    pub msg_type: u8,
    /// Parameter octet; meaning depends on the message type:
    /// F-bit + payload type for RegionUpdate/MousePointerInfo, mouse button
    /// for MousePressed/Released, ignored otherwise.
    pub parameter: u8,
    /// Target window. "All remoting messages carry the windowID to identify
    /// the target of message" (§4.5.1); for HIP it is "the window that had
    /// keyboard or mouse focus" (§6.1.2).
    pub window_id: WindowId,
}

impl CommonHeader {
    /// Build a header.
    pub fn new(msg_type: u8, parameter: u8, window_id: WindowId) -> Self {
        CommonHeader {
            msg_type,
            parameter,
            window_id,
        }
    }

    /// Build a RegionUpdate-style header with FirstPacket bit and payload
    /// type packed into the parameter octet (Figure 10).
    pub fn with_fragment_param(
        msg_type: u8,
        first_packet: bool,
        pt: u8,
        window_id: WindowId,
    ) -> Self {
        CommonHeader {
            msg_type,
            parameter: (u8::from(first_packet) << 7) | (pt & 0x7f),
            window_id,
        }
    }

    /// The FirstPacket bit (only meaningful for RegionUpdate /
    /// MousePointerInfo).
    pub fn first_packet(&self) -> bool {
        self.parameter & 0x80 != 0
    }

    /// The 7-bit payload type (only meaningful for RegionUpdate /
    /// MousePointerInfo).
    pub fn payload_type(&self) -> u8 {
        self.parameter & 0x7f
    }

    /// The header's four octets on the wire.
    pub fn to_bytes(&self) -> [u8; COMMON_HEADER_LEN] {
        let id = self.window_id.0.to_be_bytes();
        [self.msg_type, self.parameter, id[0], id[1]]
    }

    /// Append to a buffer.
    pub fn encode_into(&self, out: &mut Vec<u8>) {
        out.extend_from_slice(&self.to_bytes());
    }

    /// Parse from the front of `buf`; returns the header and remaining bytes.
    pub fn decode(buf: &[u8]) -> Result<(Self, &[u8])> {
        if buf.len() < COMMON_HEADER_LEN {
            return Err(Error::Truncated {
                what: "common remoting/HIP header",
                need: COMMON_HEADER_LEN,
                have: buf.len(),
            });
        }
        Ok((
            CommonHeader {
                msg_type: buf[0],
                parameter: buf[1],
                window_id: WindowId(u16::from_be_bytes([buf[2], buf[3]])),
            },
            &buf[COMMON_HEADER_LEN..],
        ))
    }
}

/// Read a big-endian u32 field.
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
    fn round_trip() {
        let h = CommonHeader::new(2, 0x85, WindowId(0x1234));
        let mut buf = Vec::new();
        h.encode_into(&mut buf);
        assert_eq!(buf, vec![2, 0x85, 0x12, 0x34]);
        let (back, rest) = CommonHeader::decode(&buf).unwrap();
        assert_eq!(back, h);
        assert!(rest.is_empty());
    }

    #[test]
    fn fragment_param_packing() {
        let h = CommonHeader::with_fragment_param(2, true, 101, WindowId(1));
        assert!(h.first_packet());
        assert_eq!(h.payload_type(), 101);
        assert_eq!(h.parameter, 0x80 | 101);
        let h2 = CommonHeader::with_fragment_param(2, false, 101, WindowId(1));
        assert!(!h2.first_packet());
        assert_eq!(h2.payload_type(), 101);
    }

    #[test]
    fn pt_masked_to_7_bits() {
        let h = CommonHeader::with_fragment_param(2, false, 0xff, WindowId(0));
        assert_eq!(h.payload_type(), 0x7f);
        assert!(!h.first_packet(), "PT must not leak into the F bit");
    }

    #[test]
    fn truncated() {
        assert!(CommonHeader::decode(&[1, 2, 3]).is_err());
        assert!(CommonHeader::decode(&[]).is_err());
    }
}
