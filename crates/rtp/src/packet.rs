//! A complete RTP packet: fixed header plus opaque payload.

use std::ops::Range;

use bytes::Bytes;

use crate::header::RtpHeader;
use crate::{Error, Result};

/// An RTP packet. The payload is reference-counted ([`Bytes`]) so that a
/// single encoded screen update can be fanned out to many participants
/// without copying.
///
/// A packet built by [`RtpPacket::assemble`] also owns its *datagram*: one
/// shared buffer holding the serialised header followed by the payload,
/// with `payload` a slice of it. That buffer is what the transport queues,
/// what a capture reads and what the retransmit history keeps — every
/// holder clones the handle, nobody copies the bytes.
#[derive(Debug, Clone)]
pub struct RtpPacket {
    /// The fixed header.
    pub header: RtpHeader,
    /// The payload following the header (padding already stripped).
    pub payload: Bytes,
    /// The datagram this packet was assembled as. Only handed out by
    /// [`RtpPacket::datagram`], which first checks that the two public
    /// fields above still describe it.
    wire: Option<Bytes>,
}

// The header's CSRC list and extension sit behind one pointer, so a packet
// that has neither is 88 bytes on a 64-bit target (136 with both inline).
#[cfg(target_pointer_width = "64")]
const _: () = assert!(std::mem::size_of::<RtpPacket>() == 88);

/// Two packets are equal when they would serialise to the same bytes;
/// whether either already owns its datagram does not matter.
impl PartialEq for RtpPacket {
    fn eq(&self, other: &Self) -> bool {
        self.header == other.header && self.payload == other.payload
    }
}
impl Eq for RtpPacket {}

impl RtpPacket {
    /// Build a packet from header and payload.
    pub fn new(header: RtpHeader, payload: impl Into<Bytes>) -> Self {
        RtpPacket {
            header,
            payload: payload.into(),
            wire: None,
        }
    }

    /// Serialise `header` followed by `parts` into one shared buffer — the
    /// datagram — and return the packet owning it. `scratch` is working
    /// space (cleared first, capacity kept), so the datagram is the only
    /// heap allocation however many parts the payload is gathered from.
    pub fn assemble(header: RtpHeader, parts: &[&[u8]], scratch: &mut Vec<u8>) -> Self {
        scratch.clear();
        header.encode_into(scratch);
        let header_len = scratch.len();
        for part in parts {
            scratch.extend_from_slice(part);
        }
        let wire = Bytes::copy_from_slice(scratch);
        RtpPacket {
            header,
            payload: wire.slice(header_len..),
            wire: Some(wire),
        }
    }

    /// Total serialized size in bytes.
    pub fn wire_len(&self) -> usize {
        self.header.wire_len() + self.payload.len()
    }

    /// Serialize header + payload into a fresh buffer. Production senders
    /// use [`RtpPacket::datagram`]; this is the reference serialiser the
    /// tests compare it with, and the spelling `e2ebench` times.
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(self.wire_len());
        self.header.encode_into(&mut out);
        out.extend_from_slice(&self.payload);
        out
    }

    /// The packet as one datagram handle: the buffer it was assembled as
    /// when it has one (a clone of the handle, no copy), otherwise a fresh
    /// serialisation through `scratch` (one allocation).
    pub fn datagram(&self, scratch: &mut Vec<u8>) -> Bytes {
        scratch.clear();
        self.header.encode_into(scratch);
        if let Some(wire) = &self.wire {
            // `header` and `payload` are public, so either may have been
            // edited since assembly: the stored buffer is only good while
            // it starts with this header and ends in this very payload.
            let header_len = scratch.len();
            if wire.len() == header_len + self.payload.len()
                && wire[..header_len] == scratch[..]
                && std::ptr::eq(wire[header_len..].as_ptr(), self.payload.as_ptr())
            {
                return wire.clone();
            }
        }
        scratch.extend_from_slice(&self.payload);
        Bytes::copy_from_slice(scratch)
    }

    /// Validate a datagram: its header and where its payload lies (padding
    /// octets indicated by the P bit excluded).
    fn parse(buf: &[u8]) -> Result<(RtpHeader, Range<usize>)> {
        let (header, consumed, padding) = RtpHeader::decode(buf)?;
        let end = buf.len().checked_sub(padding).ok_or(Error::BadPadding)?;
        if end < consumed {
            return Err(Error::BadPadding);
        }
        Ok((header, consumed..end))
    }

    /// Parse a packet from a borrowed datagram, copying its payload out.
    /// Padding octets indicated by the P bit are stripped from the payload.
    /// [`RtpPacket::decode_bytes`] is the same parser for a caller that
    /// owns the datagram.
    pub fn decode(buf: &[u8]) -> Result<Self> {
        let (header, payload) = Self::parse(buf)?;
        Ok(RtpPacket::new(
            header,
            Bytes::copy_from_slice(&buf[payload]),
        ))
    }

    /// Parse a packet from an owned datagram: validates exactly as
    /// [`RtpPacket::decode`] does and slices the payload out of `datagram`
    /// instead of copying it.
    pub fn decode_bytes(datagram: Bytes) -> Result<Self> {
        let (header, payload) = Self::parse(&datagram)?;
        Ok(RtpPacket::new(header, datagram.slice(payload)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trip() {
        let h = RtpHeader::new(99, 7, 1000, 42);
        let p = RtpPacket::new(h.clone(), vec![1u8, 2, 3, 4]);
        let bytes = p.encode();
        let back = RtpPacket::decode(&bytes).unwrap();
        assert_eq!(back.header, h);
        assert_eq!(&back.payload[..], &[1, 2, 3, 4]);
    }

    #[test]
    fn empty_payload_ok() {
        let p = RtpPacket::new(RtpHeader::new(99, 0, 0, 1), Vec::new());
        let back = RtpPacket::decode(&p.encode()).unwrap();
        assert!(back.payload.is_empty());
    }

    #[test]
    fn padding_stripped_from_payload() {
        let h = RtpHeader::new(99, 7, 1000, 42);
        let mut bytes = h.encode();
        bytes[0] |= 0x20; // P bit
        bytes.extend_from_slice(&[10, 20, 30]); // payload
        bytes.extend_from_slice(&[0, 2]); // 2 octets of padding
        let back = RtpPacket::decode(&bytes).unwrap();
        assert_eq!(&back.payload[..], &[10, 20, 30]);
    }

    #[test]
    fn assembled_packet_owns_its_datagram() {
        let mut header = RtpHeader::new(99, 7, 1000, 42);
        header.marker = true;
        let mut scratch = Vec::new();
        let p = RtpPacket::assemble(header.clone(), &[&[1, 2], &[], &[3, 4, 5]], &mut scratch);
        let reference = RtpPacket::new(header, vec![1u8, 2, 3, 4, 5]);
        assert_eq!(p, reference);
        assert_eq!(p.wire_len(), reference.wire_len());
        let datagram = p.datagram(&mut scratch);
        assert_eq!(datagram, reference.encode());
        assert!(
            std::ptr::eq(datagram.as_ptr(), p.datagram(&mut scratch).as_ptr()),
            "the stored buffer is handed out, not a copy"
        );
        assert_eq!(reference.datagram(&mut scratch), reference.encode());
    }

    #[test]
    fn edited_packet_never_hands_out_a_stale_datagram() {
        let mut scratch = Vec::new();
        let p = RtpPacket::assemble(RtpHeader::new(99, 7, 1000, 42), &[&[9; 20]], &mut scratch);
        let mut reseq = p.clone();
        reseq.header.sequence = 8;
        assert_eq!(reseq.datagram(&mut scratch), reseq.encode());
        let mut repaid = p.clone();
        repaid.payload = Bytes::from(vec![9u8; 20]);
        assert_eq!(repaid.datagram(&mut scratch), repaid.encode());
        let mut with_csrc = p.clone();
        with_csrc.header.extras_mut().csrc.push(5);
        assert_eq!(with_csrc.datagram(&mut scratch), with_csrc.encode());
    }

    #[test]
    fn decode_bytes_slices_the_datagram() {
        let h = RtpHeader::new(99, 7, 1000, 42);
        let mut bytes = h.encode();
        bytes[0] |= 0x20; // P bit
        bytes.extend_from_slice(&[10, 20, 30, 0, 2]);
        let datagram = Bytes::from(bytes);
        let owned = RtpPacket::decode_bytes(datagram.clone()).unwrap();
        assert_eq!(owned, RtpPacket::decode(&datagram).unwrap());
        assert_eq!(&owned.payload[..], &[10, 20, 30]);
        assert!(std::ptr::eq(
            owned.payload.as_ptr(),
            datagram[12..].as_ptr()
        ));
    }

    #[test]
    fn decode_never_panics_on_noise() {
        // Cheap deterministic fuzz over short buffers.
        let mut state = 0x12345678u32;
        for len in 0..64 {
            let mut buf = vec![0u8; len];
            for b in &mut buf {
                state = state.wrapping_mul(1664525).wrapping_add(1013904223);
                *b = (state >> 24) as u8;
            }
            let _ = RtpPacket::decode(&buf);
        }
    }
}
