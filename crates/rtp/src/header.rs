//! RTP fixed header (RFC 3550 §5.1).
//!
//! ```text
//!  0                   1                   2                   3
//!  0 1 2 3 4 5 6 7 8 9 0 1 2 3 4 5 6 7 8 9 0 1 2 3 4 5 6 7 8 9 0 1
//! +-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+
//! |V=2|P|X|  CC   |M|     PT      |       sequence number         |
//! +-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+
//! |                           timestamp                           |
//! +-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+
//! |           synchronization source (SSRC) identifier            |
//! +=+=+=+=+=+=+=+=+=+=+=+=+=+=+=+=+=+=+=+=+=+=+=+=+=+=+=+=+=+=+=+=+
//! |            contributing source (CSRC) identifiers             |
//! |                             ....                              |
//! +-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+
//! ```

use crate::{Error, Result};

/// Size of the fixed RTP header with no CSRC entries.
pub const MIN_HEADER_LEN: usize = 12;

/// The only RTP version this crate produces or accepts.
pub const RTP_VERSION: u8 = 2;

/// An RTP header extension (RFC 3550 §5.3.1): a 16-bit profile-defined
/// identifier plus a 32-bit-word-aligned body.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HeaderExtension {
    /// Profile-defined identifier.
    pub profile: u16,
    /// Extension body; must be a multiple of 4 bytes when serialized (it is
    /// padded with zeros if not).
    pub data: Vec<u8>,
}

/// The parts of an RTP header this profile never sends and a receiver
/// rarely sees: contributing sources and a header extension.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct HeaderExtras {
    /// Contributing sources (at most 15 are serialised).
    pub csrc: Vec<u32>,
    /// Optional header extension.
    pub extension: Option<HeaderExtension>,
}

/// A decoded RTP fixed header.
///
/// Two headers are equal when they serialise alike: an `extras` that holds
/// no CSRC and no extension equals none at all.
#[derive(Debug, Clone)]
pub struct RtpHeader {
    /// Marker bit. The draft uses this on the remoting stream to flag the
    /// last packet of a (possibly multi-packet) `RegionUpdate` (§5.1.1); HIP
    /// senders MUST set it to zero (§6.1.1).
    pub marker: bool,
    /// Payload type (7 bits). Remoting and HIP use distinct dynamic PTs
    /// negotiated in SDP (§10.3 uses 99 and 100).
    pub payload_type: u8,
    /// Sequence number; increments by one per packet, wraps mod 2^16.
    pub sequence: u16,
    /// 90 kHz media timestamp (§5.1.1/§6.1.1).
    pub timestamp: u32,
    /// Synchronisation source identifier.
    pub ssrc: u32,
    /// CSRCs and header extension, boxed so that a header without them
    /// (every one this crate's senders write) stays small and costs no
    /// allocation. Read through [`csrc`](Self::csrc) and
    /// [`extension`](Self::extension), write through
    /// [`extras_mut`](Self::extras_mut).
    pub extras: Option<Box<HeaderExtras>>,
}

impl PartialEq for RtpHeader {
    fn eq(&self, other: &Self) -> bool {
        self.marker == other.marker
            && self.payload_type == other.payload_type
            && self.sequence == other.sequence
            && self.timestamp == other.timestamp
            && self.ssrc == other.ssrc
            && self.csrc() == other.csrc()
            && self.extension() == other.extension()
    }
}
impl Eq for RtpHeader {}

impl RtpHeader {
    /// Create a header with no CSRCs and no extension.
    pub fn new(payload_type: u8, sequence: u16, timestamp: u32, ssrc: u32) -> Self {
        RtpHeader {
            marker: false,
            payload_type: payload_type & 0x7f,
            sequence,
            timestamp,
            ssrc,
            extras: None,
        }
    }

    /// Contributing sources.
    pub fn csrc(&self) -> &[u32] {
        self.extras.as_deref().map_or(&[], |x| &x.csrc)
    }

    /// The header extension, if any.
    pub fn extension(&self) -> Option<&HeaderExtension> {
        self.extras.as_deref()?.extension.as_ref()
    }

    /// CSRCs and extension for writing (allocated on first use).
    pub fn extras_mut(&mut self) -> &mut HeaderExtras {
        self.extras.get_or_insert_with(Default::default)
    }

    /// Serialized length in bytes.
    pub fn wire_len(&self) -> usize {
        let mut len = MIN_HEADER_LEN + 4 * self.csrc().len().min(15);
        if let Some(ext) = self.extension() {
            len += 4 + pad4(ext.data.len());
        }
        len
    }

    /// Append the serialized header to `out`.
    pub fn encode_into(&self, out: &mut Vec<u8>) {
        let cc = self.csrc().len().min(15) as u8;
        let b0 = (RTP_VERSION << 6) | (u8::from(self.extension().is_some()) << 4) | cc;
        let b1 = (u8::from(self.marker) << 7) | (self.payload_type & 0x7f);
        out.push(b0);
        out.push(b1);
        out.extend_from_slice(&self.sequence.to_be_bytes());
        out.extend_from_slice(&self.timestamp.to_be_bytes());
        out.extend_from_slice(&self.ssrc.to_be_bytes());
        for c in self.csrc().iter().take(15) {
            out.extend_from_slice(&c.to_be_bytes());
        }
        if let Some(ext) = self.extension() {
            let padded = pad4(ext.data.len());
            out.extend_from_slice(&ext.profile.to_be_bytes());
            out.extend_from_slice(&((padded / 4) as u16).to_be_bytes());
            out.extend_from_slice(&ext.data);
            out.resize(out.len() + (padded - ext.data.len()), 0);
        }
    }

    /// Serialize to a fresh buffer.
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(self.wire_len());
        self.encode_into(&mut out);
        out
    }

    /// Parse a header from the front of `buf`.
    ///
    /// Returns the header, the number of header bytes consumed, and the
    /// number of padding bytes at the *end* of the packet (from the P bit;
    /// the caller must strip these from the payload).
    pub fn decode(buf: &[u8]) -> Result<(Self, usize, usize)> {
        if buf.len() < MIN_HEADER_LEN {
            return Err(Error::Truncated {
                what: "RTP header",
                need: MIN_HEADER_LEN,
                have: buf.len(),
            });
        }
        let version = buf[0] >> 6;
        if version != RTP_VERSION {
            return Err(Error::BadVersion(version));
        }
        let has_padding = buf[0] & 0x20 != 0;
        let has_extension = buf[0] & 0x10 != 0;
        let cc = (buf[0] & 0x0f) as usize;
        let marker = buf[1] & 0x80 != 0;
        let payload_type = buf[1] & 0x7f;
        let sequence = u16::from_be_bytes([buf[2], buf[3]]);
        let timestamp = u32::from_be_bytes([buf[4], buf[5], buf[6], buf[7]]);
        let ssrc = u32::from_be_bytes([buf[8], buf[9], buf[10], buf[11]]);

        let mut off = MIN_HEADER_LEN;
        let need = off + 4 * cc;
        if buf.len() < need {
            return Err(Error::Truncated {
                what: "RTP CSRC list",
                need,
                have: buf.len(),
            });
        }
        let csrc: Vec<u32> = buf[off..need]
            .chunks_exact(4)
            .map(|c| u32::from_be_bytes([c[0], c[1], c[2], c[3]]))
            .collect();
        off = need;

        let extension = if has_extension {
            if buf.len() < off + 4 {
                return Err(Error::Truncated {
                    what: "RTP extension header",
                    need: off + 4,
                    have: buf.len(),
                });
            }
            let profile = u16::from_be_bytes([buf[off], buf[off + 1]]);
            let words = u16::from_be_bytes([buf[off + 2], buf[off + 3]]) as usize;
            let data_len = words * 4;
            if buf.len() < off + 4 + data_len {
                return Err(Error::Truncated {
                    what: "RTP extension body",
                    need: off + 4 + data_len,
                    have: buf.len(),
                });
            }
            let data = buf[off + 4..off + 4 + data_len].to_vec();
            off += 4 + data_len;
            Some(HeaderExtension { profile, data })
        } else {
            None
        };

        let padding = if has_padding {
            // The final octet of the packet counts the padding octets,
            // including itself (RFC 3550 §5.1).
            let last = *buf.last().ok_or(Error::BadPadding)?;
            let pad = last as usize;
            if pad == 0 || off + pad > buf.len() {
                return Err(Error::BadPadding);
            }
            pad
        } else {
            0
        };

        let extras = (!csrc.is_empty() || extension.is_some())
            .then(|| Box::new(HeaderExtras { csrc, extension }));
        Ok((
            RtpHeader {
                marker,
                payload_type,
                sequence,
                timestamp,
                ssrc,
                extras,
            },
            off,
            padding,
        ))
    }
}

fn pad4(n: usize) -> usize {
    (n + 3) & !3
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> RtpHeader {
        let mut h = RtpHeader::new(99, 0x1234, 0xdeadbeef, 0xcafebabe);
        h.marker = true;
        h
    }

    #[test]
    fn round_trip_minimal() {
        let h = sample();
        let bytes = h.encode();
        assert_eq!(bytes.len(), MIN_HEADER_LEN);
        let (back, consumed, pad) = RtpHeader::decode(&bytes).unwrap();
        assert_eq!(back, h);
        assert_eq!(consumed, MIN_HEADER_LEN);
        assert_eq!(pad, 0);
    }

    #[test]
    fn first_byte_layout() {
        let bytes = sample().encode();
        assert_eq!(bytes[0] >> 6, 2, "version");
        assert_eq!(bytes[0] & 0x3f, 0, "no P/X/CC");
        assert_eq!(bytes[1], 0x80 | 99, "marker + PT");
    }

    #[test]
    fn round_trip_with_csrc_and_extension() {
        let mut h = sample();
        *h.extras_mut() = HeaderExtras {
            csrc: vec![1, 2, 3],
            extension: Some(HeaderExtension {
                profile: 0xbede,
                data: vec![9, 9, 9],
            }),
        };
        let bytes = h.encode();
        let (back, consumed, _) = RtpHeader::decode(&bytes).unwrap();
        assert_eq!(consumed, bytes.len());
        assert_eq!(back.csrc(), [1, 2, 3]);
        let ext = back.extension().unwrap();
        assert_eq!(ext.profile, 0xbede);
        // Body is zero-padded to a 4-byte boundary on the wire.
        assert_eq!(ext.data, vec![9, 9, 9, 0]);
    }

    #[test]
    fn rejects_bad_version() {
        let mut bytes = sample().encode();
        bytes[0] = (1 << 6) | (bytes[0] & 0x3f);
        assert_eq!(RtpHeader::decode(&bytes), Err(Error::BadVersion(1)));
    }

    #[test]
    fn rejects_truncation_everywhere() {
        let mut h = sample();
        *h.extras_mut() = HeaderExtras {
            csrc: vec![7; 15],
            extension: Some(HeaderExtension {
                profile: 1,
                data: vec![0; 8],
            }),
        };
        let bytes = h.encode();
        for cut in 0..bytes.len() {
            assert!(
                RtpHeader::decode(&bytes[..cut]).is_err(),
                "cut at {cut} must fail"
            );
        }
        assert!(RtpHeader::decode(&bytes).is_ok());
    }

    #[test]
    fn padding_count_is_reported() {
        let h = sample();
        let mut bytes = h.encode();
        bytes[0] |= 0x20; // set P bit
        bytes.extend_from_slice(&[0, 0, 0, 4]); // 4 padding octets
        let (_, consumed, pad) = RtpHeader::decode(&bytes).unwrap();
        assert_eq!(consumed, MIN_HEADER_LEN);
        assert_eq!(pad, 4);
    }

    #[test]
    fn invalid_padding_rejected() {
        let h = sample();
        let mut bytes = h.encode();
        bytes[0] |= 0x20;
        bytes.push(0); // pad count of zero is invalid
        assert_eq!(RtpHeader::decode(&bytes), Err(Error::BadPadding));
        let mut bytes2 = h.encode();
        bytes2[0] |= 0x20;
        bytes2.push(200); // pad count larger than packet
        assert_eq!(RtpHeader::decode(&bytes2), Err(Error::BadPadding));
    }

    #[test]
    fn csrc_capped_at_15() {
        let mut h = sample();
        h.extras_mut().csrc = vec![0xabcd; 20];
        let bytes = h.encode();
        assert_eq!(bytes.len(), h.wire_len());
        let (back, _, _) = RtpHeader::decode(&bytes).unwrap();
        assert_eq!(back.csrc().len(), 15);
    }

    #[test]
    fn empty_extras_equal_none() {
        let mut h = sample();
        h.extras_mut();
        assert_eq!(h, sample());
        assert_eq!(h.encode(), sample().encode());
        let (back, _, _) = RtpHeader::decode(&h.encode()).unwrap();
        assert!(
            back.extras.is_none(),
            "a plain header decodes without extras"
        );
    }
}
