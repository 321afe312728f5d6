//! RegionUpdate fragmentation (draft §5.2.2, Table 2).
//!
//! A `RegionUpdate` (or `MousePointerInfo`) larger than one RTP packet is
//! split across packets. Every packet carries the 4-byte common header; the
//! `left`/`top` fields ride only in the first packet. Two bits signal
//! fragment position:
//!
//! | Marker bit | FirstPacket bit | Fragment type          |
//! |------------|-----------------|------------------------|
//! | 1          | 1               | Not fragmented         |
//! | 0          | 1               | Start fragment         |
//! | 0          | 0               | Continuation fragment  |
//! | 1          | 0               | End fragment           |
//!
//! The marker bit lives in the RTP header (§5.1.1); the FirstPacket bit in
//! the common header's parameter octet (Figure 10).

use bytes::Bytes;

use crate::header::{CommonHeader, WindowId, COMMON_HEADER_LEN};
use crate::message::{MousePointerInfo, RegionUpdate, RemotingMessage};
use crate::registry::{MSG_MOUSE_POINTER_INFO, MSG_REGION_UPDATE};
use crate::{Error, Result};

/// One RTP-packet-sized piece of a remoting message.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FragmentPacket {
    /// Goes into the RTP header's marker bit.
    pub marker: bool,
    /// The RTP payload (common header + optional specific header + chunk).
    pub payload: Vec<u8>,
}

/// Minimum per-packet payload budget the fragmenter accepts: common header,
/// the 8-byte specific header, and at least one content byte.
pub const MIN_FRAGMENT_BUDGET: usize = COMMON_HEADER_LEN + 8 + 1;

/// Split a remoting message into RTP payloads of at most `max_payload`
/// bytes each.
///
/// `WindowManagerInfo` and `MoveRectangle` are never fragmented (the draft
/// defines fragmentation only for content-carrying messages); they must fit
/// `max_payload` or an error is returned.
///
/// This builds a list and a buffer per packet. Senders use
/// [`for_each_fragment`], which builds neither; this function is kept,
/// deliberately sharing no code with it, as the reference the tests compare
/// it with (and as the spelling the relay's tier re-encoder and `e2ebench`
/// call).
pub fn fragment(msg: &RemotingMessage, max_payload: usize) -> Result<Vec<FragmentPacket>> {
    match msg {
        RemotingMessage::RegionUpdate(ru) => Ok(fragment_content(
            MSG_REGION_UPDATE,
            ru.window_id,
            ru.payload_type,
            ru.left,
            ru.top,
            &ru.payload,
            max_payload,
        )?),
        RemotingMessage::MousePointerInfo(mp) => {
            let mut body = Vec::with_capacity(mp.image.as_ref().map_or(0, |i| i.len()));
            if let Some(img) = &mp.image {
                body.extend_from_slice(img);
            }
            Ok(fragment_content(
                MSG_MOUSE_POINTER_INFO,
                mp.window_id,
                mp.payload_type,
                mp.left,
                mp.top,
                &body,
                max_payload,
            )?)
        }
        other => {
            let encoded = other.encode();
            if encoded.len() > max_payload {
                return Err(Error::MtuTooSmall {
                    mtu: max_payload,
                    min: encoded.len(),
                });
            }
            // "Unless defined otherwise, all other message types MUST set
            // this bit to zero" (§5.1.1).
            Ok(vec![FragmentPacket {
                marker: false,
                payload: encoded,
            }])
        }
    }
}

#[allow(clippy::too_many_arguments)]
fn fragment_content(
    msg_type: u8,
    window: WindowId,
    pt: u8,
    left: u32,
    top: u32,
    body: &[u8],
    max_payload: usize,
) -> Result<Vec<FragmentPacket>> {
    if max_payload < MIN_FRAGMENT_BUDGET {
        return Err(Error::MtuTooSmall {
            mtu: max_payload,
            min: MIN_FRAGMENT_BUDGET,
        });
    }
    let first_capacity = max_payload - COMMON_HEADER_LEN - 8;
    let cont_capacity = max_payload - COMMON_HEADER_LEN;

    let mut packets = Vec::new();
    let first_chunk_len = body.len().min(first_capacity);
    let single = first_chunk_len == body.len();

    let mut payload = Vec::with_capacity(COMMON_HEADER_LEN + 8 + first_chunk_len);
    CommonHeader::with_fragment_param(msg_type, true, pt, window).encode_into(&mut payload);
    payload.extend_from_slice(&left.to_be_bytes());
    payload.extend_from_slice(&top.to_be_bytes());
    payload.extend_from_slice(&body[..first_chunk_len]);
    packets.push(FragmentPacket {
        marker: single,
        payload,
    });

    let mut off = first_chunk_len;
    while off < body.len() {
        let take = (body.len() - off).min(cont_capacity);
        let last = off + take == body.len();
        let mut payload = Vec::with_capacity(COMMON_HEADER_LEN + take);
        CommonHeader::with_fragment_param(msg_type, false, pt, window).encode_into(&mut payload);
        payload.extend_from_slice(&body[off..off + take]);
        packets.push(FragmentPacket {
            marker: last,
            payload,
        });
        off += take;
    }
    Ok(packets)
}

/// Visit the RTP payloads [`fragment`] would produce for `msg`, in order,
/// without building any of them: `emit(marker, head, chunk)` is called once
/// per packet with the RTP marker bit, the packet's remoting header(s) —
/// the common header, plus `left`/`top` on the first packet of a
/// content-carrying message, or the whole encoding of a message that is
/// never fragmented — and the slice of the message's own payload that
/// follows them. The packet's payload is `head` then `chunk`.
///
/// Fails exactly where `fragment` fails, before the first `emit`.
pub fn for_each_fragment(
    msg: &RemotingMessage,
    max_payload: usize,
    mut emit: impl FnMut(bool, &[u8], &[u8]),
) -> Result<()> {
    let (msg_type, window, pt, left, top, body): (u8, WindowId, u8, u32, u32, &[u8]) = match msg {
        RemotingMessage::RegionUpdate(ru) => (
            MSG_REGION_UPDATE,
            ru.window_id,
            ru.payload_type,
            ru.left,
            ru.top,
            &ru.payload,
        ),
        RemotingMessage::MousePointerInfo(mp) => (
            MSG_MOUSE_POINTER_INFO,
            mp.window_id,
            mp.payload_type,
            mp.left,
            mp.top,
            mp.image.as_deref().unwrap_or(&[]),
        ),
        other => {
            let encoded = other.encode();
            if encoded.len() > max_payload {
                return Err(Error::MtuTooSmall {
                    mtu: max_payload,
                    min: encoded.len(),
                });
            }
            emit(false, &encoded, &[]);
            return Ok(());
        }
    };
    if max_payload < MIN_FRAGMENT_BUDGET {
        return Err(Error::MtuTooSmall {
            mtu: max_payload,
            min: MIN_FRAGMENT_BUDGET,
        });
    }
    let common =
        |first: bool| CommonHeader::with_fragment_param(msg_type, first, pt, window).to_bytes();
    let (first, mut rest) = body.split_at(body.len().min(max_payload - COMMON_HEADER_LEN - 8));
    let mut head = [0u8; COMMON_HEADER_LEN + 8];
    head[..4].copy_from_slice(&common(true));
    head[4..8].copy_from_slice(&left.to_be_bytes());
    head[8..].copy_from_slice(&top.to_be_bytes());
    emit(rest.is_empty(), &head, first);
    let head = common(false);
    while !rest.is_empty() {
        let (chunk, tail) = rest.split_at(rest.len().min(max_payload - COMMON_HEADER_LEN));
        emit(tail.is_empty(), &head, chunk);
        rest = tail;
    }
    Ok(())
}

/// In-progress reassembly state. Fragment payload slices are *borrowed*
/// (`Bytes` sub-slices sharing the packet allocation) and joined exactly
/// once at completion — the old per-fragment `extend_from_slice` copy is
/// gone (ROADMAP "zero-copy fragmentation").
#[derive(Debug)]
struct Partial {
    msg_type: u8,
    window: WindowId,
    pt: u8,
    left: u32,
    top: u32,
    parts: Vec<Bytes>,
    len: usize,
}

/// Reassembles remoting messages from in-order RTP payloads.
///
/// Feed packets *in sequence order* (run them through
/// `adshare_rtp::reorder::ReorderBuffer` first on UDP). When a gap is
/// unrecoverable, call [`Reassembler::reset`] and request a PLI.
///
/// Copy accounting: [`Reassembler::allocations`] / [`Reassembler::bytes_copied`]
/// count every heap allocation and byte copy reassembly performs. The
/// single-fragment path is zero-copy (the message borrows the packet's
/// `Bytes`); a multi-fragment message costs exactly one allocation and one
/// copy of its body at completion.
#[derive(Debug, Default)]
pub struct Reassembler {
    partial: Option<Partial>,
    /// Longest body a fragment train may grow to ([`Reassembler::set_cap`]).
    cap: Option<usize>,
    dropped_partials: u64,
    unknown_skipped: u64,
    allocations: u64,
    bytes_copied: u64,
}

impl Reassembler {
    /// Fresh reassembler.
    pub fn new() -> Self {
        Self::default()
    }

    /// Feed one RTP payload with its marker bit, borrowing `payload`'s
    /// allocation (`Bytes::slice` is O(1)). Returns a complete message when
    /// one finishes.
    ///
    /// Message types outside the Table 1 registry are skipped without
    /// disturbing any in-progress reassembly — §5.1.2: "Participants MAY
    /// ignore such additional message types", and a forward-compatible
    /// viewer must not let them poison the stream.
    pub fn feed_bytes(&mut self, marker: bool, payload: Bytes) -> Result<Option<RemotingMessage>> {
        let (header, rest) = CommonHeader::decode(&payload)?;
        if !crate::registry::is_remoting_type(header.msg_type) {
            self.unknown_skipped += 1;
            return Ok(None);
        }
        let fragmentable =
            header.msg_type == MSG_REGION_UPDATE || header.msg_type == MSG_MOUSE_POINTER_INFO;
        if !fragmentable {
            // Complete in one packet by definition.
            return RemotingMessage::decode(&payload).map(Some);
        }
        let rest_off = payload.len() - rest.len();

        if header.first_packet() {
            if self.partial.take().is_some() {
                // A new update started while one was incomplete: the old one
                // is unrecoverable (its end fragment was lost).
                self.dropped_partials += 1;
            }
            if rest.len() < 8 {
                return Err(Error::Truncated {
                    what: "RegionUpdate specific header",
                    need: 8,
                    have: rest.len(),
                });
            }
            let left = u32::from_be_bytes([rest[0], rest[1], rest[2], rest[3]]);
            let top = u32::from_be_bytes([rest[4], rest[5], rest[6], rest[7]]);
            let body = payload.slice(rest_off + 8..);
            if marker {
                // Not fragmented: complete immediately, borrowing the slice.
                return Ok(Some(build(
                    header.msg_type,
                    header.window_id,
                    header.payload_type(),
                    left,
                    top,
                    body,
                )));
            }
            self.partial = Some(Partial {
                msg_type: header.msg_type,
                window: header.window_id,
                pt: header.payload_type(),
                left,
                top,
                len: body.len(),
                parts: vec![body],
            });
            Ok(None)
        } else {
            let Some(mut partial) = self.partial.take() else {
                return Err(Error::FragmentState("continuation without start"));
            };
            if partial.msg_type != header.msg_type
                || partial.window != header.window_id
                || partial.pt != header.payload_type()
            {
                self.dropped_partials += 1;
                return Err(Error::FragmentState("continuation does not match start"));
            }
            let chunk = payload.slice(rest_off..);
            partial.len += chunk.len();
            if self.cap.is_some_and(|cap| partial.len > cap) {
                self.dropped_partials += 1;
                return Err(Error::FragmentState("train longer than its cap"));
            }
            partial.parts.push(chunk);
            if marker {
                let Partial {
                    msg_type,
                    window,
                    pt,
                    left,
                    top,
                    parts,
                    ..
                } = partial;
                let body = self.join(&parts);
                return Ok(Some(build(msg_type, window, pt, left, top, body)));
            }
            self.partial = Some(partial);
            Ok(None)
        }
    }

    /// Slice-based entry point for callers without a `Bytes` in hand
    /// (tests, fuzzers). Copies `payload` into a fresh allocation first —
    /// the copy is charged to the counters — then delegates to
    /// [`Reassembler::feed_bytes`].
    pub fn feed(&mut self, marker: bool, payload: &[u8]) -> Result<Option<RemotingMessage>> {
        self.allocations += 1;
        self.bytes_copied += payload.len() as u64;
        self.feed_bytes(marker, Bytes::copy_from_slice(payload))
    }

    /// Join the parts of a fragmented message: exactly one allocation and
    /// one copy of the body, which the counters record.
    fn join(&mut self, parts: &[Bytes]) -> Bytes {
        let total: usize = parts.iter().map(|p| p.len()).sum();
        self.allocations += 1;
        self.bytes_copied += total as u64;
        let mut body = Vec::with_capacity(total);
        for p in parts {
            body.extend_from_slice(p);
        }
        Bytes::from(body)
    }

    /// Drop any fragment train whose body grows past `bytes`, counted in
    /// [`Reassembler::dropped_partials`]: a sender that never sets the
    /// marker bit must not grow the receiver's memory without bound.
    pub fn set_cap(&mut self, bytes: usize) {
        self.cap = Some(bytes);
    }

    /// Abandon any in-progress reassembly (e.g. after an unfillable gap).
    pub fn reset(&mut self) {
        if self.partial.take().is_some() {
            self.dropped_partials += 1;
        }
    }

    /// Whether a message is mid-reassembly.
    pub fn in_progress(&self) -> bool {
        self.partial.is_some()
    }

    /// How many partial messages were abandoned.
    pub fn dropped_partials(&self) -> u64 {
        self.dropped_partials
    }

    /// Unknown message types skipped per §5.1.2 forward compatibility.
    pub fn unknown_skipped(&self) -> u64 {
        self.unknown_skipped
    }

    /// Heap allocations reassembly has performed (joins + slice-entry
    /// copies); the `Bytes`-borrowing fast path performs none.
    pub fn allocations(&self) -> u64 {
        self.allocations
    }

    /// Bytes copied by reassembly (same accounting as
    /// [`Reassembler::allocations`]).
    pub fn bytes_copied(&self) -> u64 {
        self.bytes_copied
    }
}

/// A completed content-carrying message around its reassembled `body`.
fn build(
    msg_type: u8,
    window: WindowId,
    pt: u8,
    left: u32,
    top: u32,
    body: Bytes,
) -> RemotingMessage {
    if msg_type == MSG_REGION_UPDATE {
        RemotingMessage::RegionUpdate(RegionUpdate {
            window_id: window,
            payload_type: pt,
            left,
            top,
            payload: body,
        })
    } else {
        RemotingMessage::MousePointerInfo(MousePointerInfo {
            window_id: window,
            payload_type: pt,
            left,
            top,
            image: if body.is_empty() { None } else { Some(body) },
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn region_update(payload_len: usize) -> RemotingMessage {
        let payload: Vec<u8> = (0..payload_len).map(|i| (i % 251) as u8).collect();
        RemotingMessage::RegionUpdate(RegionUpdate {
            window_id: WindowId(3),
            payload_type: 101,
            left: 640,
            top: 360,
            payload: Bytes::from(payload),
        })
    }

    fn reassemble_all(packets: &[FragmentPacket]) -> Vec<RemotingMessage> {
        let mut r = Reassembler::new();
        let mut out = Vec::new();
        for p in packets {
            if let Some(m) = r.feed(p.marker, &p.payload).unwrap() {
                out.push(m);
            }
        }
        out
    }

    #[test]
    fn single_packet_marker_and_first_bit() {
        let msg = region_update(100);
        let packets = fragment(&msg, 1400).unwrap();
        assert_eq!(packets.len(), 1);
        assert!(packets[0].marker, "Table 2: not fragmented → marker 1");
        let (h, _) = CommonHeader::decode(&packets[0].payload).unwrap();
        assert!(h.first_packet(), "Table 2: not fragmented → FirstPacket 1");
        assert_eq!(reassemble_all(&packets), vec![msg]);
    }

    #[test]
    fn multi_packet_bits_follow_table_2() {
        let msg = region_update(5000);
        let packets = fragment(&msg, 1400).unwrap();
        assert!(packets.len() >= 4);
        for (i, p) in packets.iter().enumerate() {
            let (h, _) = CommonHeader::decode(&p.payload).unwrap();
            let first = i == 0;
            let last = i + 1 == packets.len();
            assert_eq!(h.first_packet(), first, "packet {i} FirstPacket");
            assert_eq!(p.marker, last, "packet {i} marker");
            assert!(p.payload.len() <= 1400);
        }
        assert_eq!(reassemble_all(&packets), vec![msg]);
    }

    #[test]
    fn left_top_only_in_first_packet() {
        let msg = region_update(5000);
        let packets = fragment(&msg, 1400).unwrap();
        // First payload: header + 8 + chunk; continuations: header + chunk.
        assert_eq!(&packets[0].payload[4..8], &640u32.to_be_bytes());
        assert_eq!(&packets[0].payload[8..12], &360u32.to_be_bytes());
        // Continuation content starts right after the common header with the
        // next body byte, not coordinates.
        let first_chunk = 1400 - 12;
        assert_eq!(packets[1].payload[4] as usize, first_chunk % 251);
    }

    #[test]
    fn exact_boundary_sizes() {
        // Payload exactly filling 1, 2 packets, and off-by-one around it.
        let mtu = 100;
        let first_cap = mtu - 12;
        let cont_cap = mtu - 4;
        for extra in [0usize, 1, cont_cap - 1, cont_cap, cont_cap + 1] {
            let msg = region_update(first_cap + extra);
            let packets = fragment(&msg, mtu).unwrap();
            let expected = 1 + extra.div_ceil(cont_cap).max(if extra == 0 { 0 } else { 1 });
            assert_eq!(packets.len(), expected, "extra = {extra}");
            assert_eq!(reassemble_all(&packets), vec![msg], "extra = {extra}");
        }
    }

    #[test]
    fn empty_payload_single_packet() {
        let msg = region_update(0);
        let packets = fragment(&msg, 100).unwrap();
        assert_eq!(packets.len(), 1);
        assert!(packets[0].marker);
        assert_eq!(reassemble_all(&packets), vec![msg]);
    }

    #[test]
    fn mtu_too_small_rejected() {
        let msg = region_update(10);
        assert!(matches!(fragment(&msg, 12), Err(Error::MtuTooSmall { .. })));
        assert!(fragment(&msg, MIN_FRAGMENT_BUDGET).is_ok());
    }

    #[test]
    fn pointer_info_fragments_too() {
        let msg = RemotingMessage::MousePointerInfo(MousePointerInfo {
            window_id: WindowId(1),
            payload_type: 101,
            left: 5,
            top: 6,
            image: Some(Bytes::from(vec![7u8; 3000])),
        });
        let packets = fragment(&msg, 1200).unwrap();
        assert!(packets.len() > 1);
        assert_eq!(reassemble_all(&packets), vec![msg]);
    }

    #[test]
    fn pointer_info_coords_only_stays_coords_only() {
        let msg = RemotingMessage::MousePointerInfo(MousePointerInfo {
            window_id: WindowId(1),
            payload_type: 101,
            left: 5,
            top: 6,
            image: None,
        });
        let packets = fragment(&msg, 1200).unwrap();
        assert_eq!(reassemble_all(&packets), vec![msg]);
    }

    #[test]
    fn wmi_never_fragmented() {
        use crate::message::{WindowManagerInfo, WindowRecord};
        let msg = RemotingMessage::WindowManagerInfo(WindowManagerInfo {
            windows: (0..10)
                .map(|i| WindowRecord {
                    window_id: WindowId(i),
                    group_id: 0,
                    left: 0,
                    top: 0,
                    width: 1,
                    height: 1,
                })
                .collect(),
        });
        // 10 records = 204 bytes: fits 1400, not 100.
        let packets = fragment(&msg, 1400).unwrap();
        assert_eq!(packets.len(), 1);
        assert!(
            !packets[0].marker,
            "non-RegionUpdate messages keep marker 0"
        );
        assert!(matches!(
            fragment(&msg, 100),
            Err(Error::MtuTooSmall { .. })
        ));
    }

    #[test]
    fn lost_end_fragment_drops_partial_on_next_start() {
        let big = region_update(5000);
        let small = region_update(50);
        let mut packets = fragment(&big, 1400).unwrap();
        packets.pop(); // lose the end fragment
        let mut r = Reassembler::new();
        for p in &packets {
            assert_eq!(r.feed(p.marker, &p.payload).unwrap(), None);
        }
        assert!(r.in_progress());
        // Next update arrives; old partial is abandoned, new one completes.
        let next = fragment(&small, 1400).unwrap();
        let got = r.feed(next[0].marker, &next[0].payload).unwrap();
        assert_eq!(got, Some(small));
        assert_eq!(r.dropped_partials(), 1);
    }

    #[test]
    fn continuation_without_start_errors() {
        let msg = region_update(5000);
        let packets = fragment(&msg, 1400).unwrap();
        let mut r = Reassembler::new();
        assert_eq!(
            r.feed(packets[1].marker, &packets[1].payload),
            Err(Error::FragmentState("continuation without start"))
        );
    }

    #[test]
    fn a_train_past_its_cap_is_dropped_and_a_message_at_it_completes() {
        let msg = region_update(5000);
        let packets = fragment(&msg, 1400).unwrap();
        let body = 5000;
        for (cap, whole) in [(body, true), (body - 1, false)] {
            let mut r = Reassembler::new();
            r.set_cap(cap);
            let fed: Vec<_> = (packets.iter())
                .map(|p| r.feed(p.marker, &p.payload))
                .collect();
            let last = fed.last().unwrap();
            if whole {
                assert_eq!(last, &Ok(Some(msg.clone())));
            } else {
                assert!(fed.iter().any(Result::is_err), "cap {cap}");
                assert_eq!(r.dropped_partials(), 1);
            }
            assert!(!r.in_progress());
        }
    }

    #[test]
    fn mismatched_continuation_errors() {
        let a = region_update(5000);
        let mut b = fragment(&region_update(5000), 1400).unwrap();
        // Tamper with b's continuation window id.
        b[1].payload[2] = 0xff;
        let a_packets = fragment(&a, 1400).unwrap();
        let mut r = Reassembler::new();
        r.feed(a_packets[0].marker, &a_packets[0].payload).unwrap();
        assert!(r.feed(b[1].marker, &b[1].payload).is_err());
        assert_eq!(r.dropped_partials(), 1);
        assert!(!r.in_progress());
    }

    #[test]
    fn reset_clears_state() {
        let msg = region_update(5000);
        let packets = fragment(&msg, 1400).unwrap();
        let mut r = Reassembler::new();
        r.feed(packets[0].marker, &packets[0].payload).unwrap();
        assert!(r.in_progress());
        r.reset();
        assert!(!r.in_progress());
        assert_eq!(r.dropped_partials(), 1);
        // Reset when idle does not count.
        r.reset();
        assert_eq!(r.dropped_partials(), 1);
    }

    #[test]
    fn interleaved_unfragmented_messages_pass_through() {
        use crate::message::MoveRectangle;
        let mv = RemotingMessage::MoveRectangle(MoveRectangle {
            window_id: WindowId(1),
            src_left: 0,
            src_top: 14,
            width: 100,
            height: 86,
            dst_left: 0,
            dst_top: 0,
        });
        let mut r = Reassembler::new();
        let pkts = fragment(&mv, 1400).unwrap();
        assert_eq!(r.feed(pkts[0].marker, &pkts[0].payload).unwrap(), Some(mv));
    }

    #[test]
    fn unknown_message_types_skipped_without_disturbing_reassembly() {
        // §5.1.2 forward compatibility: a registered-in-the-future message
        // type (say 9) arriving between fragments of a RegionUpdate must be
        // ignored, and the in-flight reassembly must complete untouched.
        let msg = region_update(5000);
        let packets = fragment(&msg, 1400).unwrap();
        let mut r = Reassembler::new();
        assert_eq!(
            r.feed(packets[0].marker, &packets[0].payload).unwrap(),
            None
        );
        // Interloper: unknown type 9 with some payload.
        let mut alien = vec![9u8, 0, 0, 7];
        alien.extend_from_slice(&[1, 2, 3, 4]);
        assert_eq!(r.feed(false, &alien).unwrap(), None);
        assert_eq!(r.unknown_skipped(), 1);
        assert!(r.in_progress(), "partial must survive the interloper");
        let mut got = None;
        for p in &packets[1..] {
            if let Some(m) = r.feed(p.marker, &p.payload).unwrap() {
                got = Some(m);
            }
        }
        assert_eq!(got, Some(msg));
        assert_eq!(r.dropped_partials(), 0);
    }

    #[test]
    fn single_fragment_feed_bytes_is_zero_copy() {
        let msg = region_update(100);
        let packets = fragment(&msg, 1400).unwrap();
        assert_eq!(packets.len(), 1);
        let mut r = Reassembler::new();
        let got = r
            .feed_bytes(
                packets[0].marker,
                Bytes::copy_from_slice(&packets[0].payload),
            )
            .unwrap();
        assert_eq!(got, Some(msg));
        assert_eq!(r.allocations(), 0, "borrowed slice, no copy");
        assert_eq!(r.bytes_copied(), 0);
    }

    #[test]
    fn multi_fragment_feed_bytes_joins_exactly_once() {
        let msg = region_update(5000);
        let packets = fragment(&msg, 1400).unwrap();
        assert!(packets.len() > 1);
        let mut r = Reassembler::new();
        let mut got = None;
        for p in &packets {
            if let Some(m) = r
                .feed_bytes(p.marker, Bytes::copy_from_slice(&p.payload))
                .unwrap()
            {
                got = Some(m);
            }
        }
        assert_eq!(got, Some(msg));
        assert_eq!(r.allocations(), 1, "one join at completion");
        assert_eq!(r.bytes_copied(), 5000, "only the body bytes, once");
    }

    #[test]
    fn slice_entry_point_charges_its_copies() {
        let msg = region_update(100);
        let packets = fragment(&msg, 1400).unwrap();
        let mut r = Reassembler::new();
        r.feed(packets[0].marker, &packets[0].payload).unwrap();
        assert_eq!(r.allocations(), 1);
        assert_eq!(r.bytes_copied(), packets[0].payload.len() as u64);
    }

    #[test]
    fn reassembler_never_panics_on_noise() {
        let mut r = Reassembler::new();
        let mut state = 0xdddddddd_u32;
        for len in 0..64 {
            let mut buf = vec![0u8; len];
            for b in &mut buf {
                state = state.wrapping_mul(1664525).wrapping_add(1013904223);
                *b = (state >> 24) as u8;
            }
            let _ = r.feed(len % 2 == 0, &buf);
        }
    }
}
