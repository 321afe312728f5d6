//! Binding remoting/HIP messages to RTP packets (draft §5.1.1, §6.1.1).
//!
//! * Remoting stream: the marker bit flags the last packet of a
//!   (possibly multi-packet) RegionUpdate; all fragments of one update share
//!   one RTP timestamp ("If a RegionUpdate message occupies more than one
//!   packet, the timestamp SHALL be the same for all of those packets").
//! * HIP stream: marker always zero; the timestamp is the event time at the
//!   participant.

use adshare_rtp::packet::RtpPacket;
use adshare_rtp::session::RtpSender;

use crate::fragment::{for_each_fragment, Reassembler};
use crate::hip::HipMessage;
use crate::message::RemotingMessage;
use crate::{Error, Result};

/// Serialise one message captured at `media_ticks` (90 kHz) onto `sender`'s
/// stream, handing each packet to `emit` as it is built.
///
/// Every fragment is written exactly once: RTP header, remoting header(s)
/// and the chunk sliced straight out of the message's payload go into one
/// datagram buffer ([`RtpSender::next_datagram`]) — one heap allocation per
/// packet, no fragment list, no per-fragment payload buffer. The datagrams
/// are byte-for-byte those of `fragment()` → `next_packet()` → `encode()`,
/// and like that chain nothing is sent (and `sender` is untouched) when the
/// message does not fit `max_payload`.
pub fn packetize_with(
    sender: &mut RtpSender,
    msg: &RemotingMessage,
    max_payload: usize,
    media_ticks: u32,
    scratch: &mut Vec<u8>,
    mut emit: impl FnMut(RtpPacket),
) -> Result<()> {
    for_each_fragment(msg, max_payload, |marker, head, chunk| {
        emit(sender.next_datagram(media_ticks, marker, &[head, chunk], scratch))
    })
}

/// Packetizes remoting messages onto an RTP stream.
#[derive(Debug)]
pub struct RemotingPacketizer {
    sender: RtpSender,
    /// Maximum RTP payload bytes per packet (transport MTU minus RTP/UDP/IP
    /// overhead, or a large value for TCP).
    max_payload: usize,
    /// Working space for [`packetize_with`].
    scratch: Vec<u8>,
}

impl RemotingPacketizer {
    /// Wrap an RTP sender with a payload budget.
    pub fn new(sender: RtpSender, max_payload: usize) -> Self {
        RemotingPacketizer {
            sender,
            max_payload,
            scratch: Vec::new(),
        }
    }

    /// The underlying sender's SSRC.
    pub fn ssrc(&self) -> u32 {
        self.sender.ssrc()
    }

    /// Current payload budget.
    pub fn max_payload(&self) -> usize {
        self.max_payload
    }

    /// (packets, payload octets) sent.
    pub fn sent_counts(&self) -> (u64, u64) {
        self.sender.sent_counts()
    }

    /// Packetize one message captured at `media_ticks` (90 kHz).
    pub fn packetize(&mut self, msg: &RemotingMessage, media_ticks: u32) -> Result<Vec<RtpPacket>> {
        let mut packets = Vec::new();
        packetize_with(
            &mut self.sender,
            msg,
            self.max_payload,
            media_ticks,
            &mut self.scratch,
            |pkt| packets.push(pkt),
        )?;
        Ok(packets)
    }
}

/// Packetizes HIP messages onto an RTP stream (one packet per event).
#[derive(Debug)]
pub struct HipPacketizer {
    sender: RtpSender,
    max_payload: usize,
}

impl HipPacketizer {
    /// Wrap an RTP sender with a payload budget.
    pub fn new(sender: RtpSender, max_payload: usize) -> Self {
        HipPacketizer {
            sender,
            max_payload,
        }
    }

    /// The underlying sender's SSRC.
    pub fn ssrc(&self) -> u32 {
        self.sender.ssrc()
    }

    /// Packetize one event that occurred at `media_ticks`. Long `KeyTyped`
    /// strings are split per §6.8, yielding several packets.
    pub fn packetize(&mut self, msg: &HipMessage, media_ticks: u32) -> Result<Vec<RtpPacket>> {
        let encoded = msg.encode();
        if encoded.len() <= self.max_payload {
            // Marker MUST be zero on HIP packets (§6.1.1).
            return Ok(vec![self.sender.next_packet(media_ticks, false, encoded)]);
        }
        match msg {
            HipMessage::KeyTyped { window_id, text } => {
                let chunks = HipMessage::key_typed_chunks(*window_id, text, self.max_payload);
                Ok(chunks
                    .iter()
                    .map(|c| self.sender.next_packet(media_ticks, false, c.encode()))
                    .collect())
            }
            _ => Err(Error::MtuTooSmall {
                mtu: self.max_payload,
                min: encoded.len(),
            }),
        }
    }
}

/// Depacketizes a remoting RTP stream back into messages. Feed packets in
/// sequence order.
#[derive(Debug, Default)]
pub struct RemotingDepacketizer {
    reassembler: Reassembler,
}

impl RemotingDepacketizer {
    /// Fresh depacketizer.
    pub fn new() -> Self {
        Self::default()
    }

    /// Feed one RTP packet; returns a complete message when available. The
    /// reassembler borrows the packet's payload (`Bytes` clone is O(1)), so
    /// the common single-fragment path is fully zero-copy.
    pub fn feed(&mut self, pkt: &RtpPacket) -> Result<Option<RemotingMessage>> {
        self.reassembler
            .feed_bytes(pkt.header.marker, pkt.payload.clone())
    }

    /// Drop any fragment train longer than `bytes` ([`Reassembler::set_cap`]).
    pub fn set_cap(&mut self, bytes: usize) {
        self.reassembler.set_cap(bytes)
    }

    /// Abandon any partial reassembly (after unrecoverable loss).
    pub fn reset(&mut self) {
        self.reassembler.reset()
    }

    /// Whether a multi-packet message is in flight.
    pub fn in_progress(&self) -> bool {
        self.reassembler.in_progress()
    }

    /// Partial messages abandoned so far.
    pub fn dropped_partials(&self) -> u64 {
        self.reassembler.dropped_partials()
    }

    /// Reassembly copy accounting: `(heap allocations, bytes copied)`.
    /// Zero on the borrowed single-fragment path; one join per completed
    /// multi-fragment message otherwise.
    pub fn copy_stats(&self) -> (u64, u64) {
        (
            self.reassembler.allocations(),
            self.reassembler.bytes_copied(),
        )
    }
}

/// Depacketize one HIP RTP packet.
pub fn depacketize_hip(pkt: &RtpPacket) -> Result<HipMessage> {
    HipMessage::decode(&pkt.payload)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::header::WindowId;
    use crate::message::RegionUpdate;
    use bytes::Bytes;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn remoting_pair(max_payload: usize) -> (RemotingPacketizer, RemotingDepacketizer) {
        let mut rng = StdRng::seed_from_u64(11);
        let sender = RtpSender::new(0x5353, 99, &mut rng);
        (
            RemotingPacketizer::new(sender, max_payload),
            RemotingDepacketizer::new(),
        )
    }

    #[test]
    fn region_update_timestamps_shared_seq_increments() {
        let (mut p, mut d) = remoting_pair(200);
        let msg = RemotingMessage::RegionUpdate(RegionUpdate {
            window_id: WindowId(1),
            payload_type: 101,
            left: 0,
            top: 0,
            payload: Bytes::from(vec![9u8; 1000]),
        });
        let packets = p.packetize(&msg, 12345).unwrap();
        assert!(packets.len() > 1);
        let ts0 = packets[0].header.timestamp;
        for (i, pkt) in packets.iter().enumerate() {
            assert_eq!(
                pkt.header.timestamp, ts0,
                "same timestamp for all fragments"
            );
            if i > 0 {
                assert_eq!(
                    pkt.header.sequence,
                    packets[i - 1].header.sequence.wrapping_add(1),
                    "sequence increments"
                );
            }
            assert_eq!(pkt.header.marker, i + 1 == packets.len());
        }
        // Round trip.
        let mut got = None;
        for pkt in &packets {
            if let Some(m) = d.feed(pkt).unwrap() {
                got = Some(m);
            }
        }
        assert_eq!(got, Some(msg));
    }

    #[test]
    fn hip_marker_always_zero() {
        let mut rng = StdRng::seed_from_u64(12);
        let sender = RtpSender::new(0x4444, 100, &mut rng);
        let mut p = HipPacketizer::new(sender, 1400);
        let pkts = p
            .packetize(
                &HipMessage::MouseMoved {
                    window_id: WindowId(1),
                    left: 2,
                    top: 3,
                },
                77,
            )
            .unwrap();
        assert_eq!(pkts.len(), 1);
        assert!(!pkts[0].header.marker);
        assert_eq!(depacketize_hip(&pkts[0]).unwrap().window_id(), WindowId(1));
    }

    #[test]
    fn long_key_typed_splits() {
        let mut rng = StdRng::seed_from_u64(13);
        let sender = RtpSender::new(0x4444, 100, &mut rng);
        let mut p = HipPacketizer::new(sender, 64);
        let text = "x".repeat(500);
        let pkts = p
            .packetize(
                &HipMessage::KeyTyped {
                    window_id: WindowId(2),
                    text: text.clone(),
                },
                0,
            )
            .unwrap();
        assert!(pkts.len() > 1);
        let rebuilt: String = pkts
            .iter()
            .map(|pkt| match depacketize_hip(pkt).unwrap() {
                HipMessage::KeyTyped { text, .. } => text,
                _ => unreachable!(),
            })
            .collect();
        assert_eq!(rebuilt, text);
    }

    #[test]
    fn oversize_non_keytyped_is_error() {
        let mut rng = StdRng::seed_from_u64(14);
        let sender = RtpSender::new(0x4444, 100, &mut rng);
        let mut p = HipPacketizer::new(sender, 8); // smaller than any mouse event
        let res = p.packetize(
            &HipMessage::MouseMoved {
                window_id: WindowId(1),
                left: 2,
                top: 3,
            },
            0,
        );
        assert!(matches!(res, Err(Error::MtuTooSmall { .. })));
    }

    #[test]
    fn interleaved_updates_and_moves_round_trip() {
        use crate::message::MoveRectangle;
        let (mut p, mut d) = remoting_pair(1400);
        let msgs = vec![
            RemotingMessage::RegionUpdate(RegionUpdate {
                window_id: WindowId(1),
                payload_type: 101,
                left: 10,
                top: 10,
                payload: Bytes::from(vec![1u8; 5000]),
            }),
            RemotingMessage::MoveRectangle(MoveRectangle {
                window_id: WindowId(1),
                src_left: 0,
                src_top: 14,
                width: 100,
                height: 86,
                dst_left: 0,
                dst_top: 0,
            }),
            RemotingMessage::RegionUpdate(RegionUpdate {
                window_id: WindowId(2),
                payload_type: 101,
                left: 0,
                top: 0,
                payload: Bytes::from(vec![2u8; 100]),
            }),
        ];
        let mut wire = Vec::new();
        for (i, m) in msgs.iter().enumerate() {
            wire.extend(p.packetize(m, i as u32 * 3000).unwrap());
        }
        let mut got = Vec::new();
        for pkt in &wire {
            if let Some(m) = d.feed(pkt).unwrap() {
                got.push(m);
            }
        }
        assert_eq!(got, msgs);
    }
}
