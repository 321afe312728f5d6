//! Cross-crate property tests: arbitrary inputs through complete pipelines.

use adshare::codec::codec::{AnyCodec, Codec};
use adshare::codec::CodecKind;
use adshare::prelude::*;
use adshare::remoting::fragment::{fragment, FragmentPacket, Reassembler};
use adshare::remoting::header::CommonHeader;
use adshare::remoting::message::{
    MousePointerInfo, MoveRectangle, RegionUpdate, RemotingMessage, WindowManagerInfo, WindowRecord,
};
use adshare::remoting::packetizer::{
    depacketize_hip, packetize_with, HipPacketizer, RemotingDepacketizer, RemotingPacketizer,
};
use adshare::remoting::registry::MSG_REGION_UPDATE;
use adshare::rtp::framing::{frame_into, Deframer};
use adshare::rtp::packet::RtpPacket;
use adshare::rtp::session::RtpSender;
use bytes::Bytes;
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

fn arb_image() -> impl Strategy<Value = Image> {
    (1u32..48, 1u32..48, any::<u32>()).prop_map(|(w, h, seed)| {
        let mut img = Image::new(w, h).unwrap();
        let mut state = seed | 1;
        for y in 0..h {
            for x in 0..w {
                state = state.wrapping_mul(1664525).wrapping_add(1013904223);
                img.set_pixel(x, y, state.to_be_bytes());
            }
        }
        img
    })
}

/// Any of the seven HIP messages with arbitrary field values. The shim has
/// no `prop_oneof`, so a small discriminant selects the variant.
fn arb_hip() -> impl Strategy<Value = HipMessage> {
    (
        (0u8..7, any::<u16>(), any::<u8>()),
        (any::<u32>(), any::<u32>(), any::<i32>(), "\\PC{0,80}"),
    )
        .prop_map(|((disc, window, btn), (left, top, distance, text))| {
            let window_id = WireWindowId(window);
            // `from_value` inverts `value` for every octet (1/2/3 name the
            // draft's buttons, anything else is Other), so the full u8 range
            // round-trips.
            let button = MouseButton::from_value(btn);
            match disc {
                0 => HipMessage::MousePressed {
                    window_id,
                    button,
                    left,
                    top,
                },
                1 => HipMessage::MouseReleased {
                    window_id,
                    button,
                    left,
                    top,
                },
                2 => HipMessage::MouseMoved {
                    window_id,
                    left,
                    top,
                },
                3 => HipMessage::MouseWheelMoved {
                    window_id,
                    left,
                    top,
                    distance,
                },
                4 => HipMessage::KeyPressed {
                    window_id,
                    key_code: left,
                },
                5 => HipMessage::KeyReleased {
                    window_id,
                    key_code: top,
                },
                _ => HipMessage::KeyTyped { window_id, text },
            }
        })
}

/// One message of any kind the AH sends: a RegionUpdate or a
/// MousePointerInfo (with and without icon) carrying `body`, a
/// WindowManagerInfo of `body.len() % 90` windows, or a MoveRectangle.
fn remoting_message(kind: u8, window: u16, left: u32, top: u32, body: Vec<u8>) -> RemotingMessage {
    let window_id = WireWindowId(window);
    match kind {
        0 => RemotingMessage::RegionUpdate(RegionUpdate {
            window_id,
            payload_type: 101,
            left,
            top,
            payload: Bytes::from(body),
        }),
        1 => RemotingMessage::MousePointerInfo(MousePointerInfo {
            window_id,
            payload_type: 96,
            left,
            top,
            image: (!body.is_empty()).then(|| Bytes::from(body)),
        }),
        2 => RemotingMessage::MousePointerInfo(MousePointerInfo {
            window_id,
            payload_type: 96,
            left,
            top,
            image: None,
        }),
        3 => RemotingMessage::WindowManagerInfo(WindowManagerInfo {
            windows: (0..body.len() % 90)
                .map(|i| WindowRecord {
                    window_id: WireWindowId(window.wrapping_add(i as u16)),
                    group_id: i as u8,
                    left,
                    top,
                    width: i as u32 + 1,
                    height: 7,
                })
                .collect(),
        }),
        _ => RemotingMessage::MoveRectangle(MoveRectangle {
            window_id,
            src_left: left,
            src_top: top,
            width: 100,
            height: 86,
            dst_left: top,
            dst_top: left,
        }),
    }
}

/// `RtpPacket::decode` and `RtpPacket::decode_bytes` are one parser behind
/// two spellings: on every truncation and every single-byte mutation of a
/// packet with CSRCs, a header extension and padding they agree on the
/// fields or on the error, never panic, and the owning one never slices
/// past its datagram.
#[test]
fn owned_and_borrowed_rtp_parsers_agree_on_hostile_input() {
    use adshare::rtp::header::{HeaderExtension, HeaderExtras, RtpHeader};
    let mut header = RtpHeader::new(99, 0xfffe, 0x1234_5678, 0x4148_0001);
    header.marker = true;
    *header.extras_mut() = HeaderExtras {
        csrc: vec![1, 0xdead_beef, 3],
        extension: Some(HeaderExtension {
            profile: 0xbede,
            data: vec![9, 8, 7, 6, 5],
        }),
    };
    let mut valid = RtpPacket::new(header, vec![0x55u8; 23]).encode();
    valid[0] |= 0x20; // P bit
    valid.extend_from_slice(&[0, 0, 0, 4]); // four octets of padding
    let agree = |buf: &[u8]| {
        let borrowed = RtpPacket::decode(buf);
        let datagram = Bytes::copy_from_slice(buf);
        let owned = RtpPacket::decode_bytes(datagram.clone());
        assert_eq!(owned, borrowed, "parsers disagree on {buf:02x?}");
        if let Ok(pkt) = owned {
            let all = datagram.as_ptr_range();
            let payload = pkt.payload.as_ptr_range();
            assert!(
                all.start <= payload.start && payload.end <= all.end,
                "payload is not a slice of the datagram"
            );
        }
    };
    let reference = RtpPacket::decode(&valid).expect("the unmutated packet parses");
    assert_eq!(reference.header.csrc().len(), 3);
    assert_eq!(reference.payload.len(), 23);
    agree(&valid);
    for len in 0..valid.len() {
        agree(&valid[..len]);
    }
    let mut mutated = valid.clone();
    for at in 0..valid.len() {
        for value in 0..=255u8 {
            mutated[at] = value;
            agree(&mutated);
        }
        mutated[at] = valid[at];
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Every HIP message survives an encode/decode round trip for arbitrary
    /// field values, including full-range button octets, negative wheel
    /// distances, and arbitrary unicode in KeyTyped.
    #[test]
    fn hip_messages_round_trip(msg in arb_hip()) {
        let wire = msg.encode();
        prop_assert_eq!(HipMessage::decode(&wire), Ok(msg));
    }

    /// A receiver reassembles a RegionUpdate correctly from ANY split of the
    /// body a sender might choose — not just the equal-sized chunks our own
    /// fragmenter produces. Fragments are hand-built at arbitrary (possibly
    /// empty) split points with Table 2 bits set per position.
    #[test]
    fn reassembly_handles_arbitrary_split_points(
        payload in proptest::collection::vec(any::<u8>(), 0..4096),
        cuts in proptest::collection::vec(0usize..4096, 0..12),
        window in any::<u16>(),
        // The parameter octet's high bit is FirstPacket (Figure 10), so a
        // fragmented message's payload type is 7-bit — like RTP's own.
        pt in 0u8..128,
        left in any::<u32>(),
        top in any::<u32>(),
    ) {
        // Segment edges: arbitrary interior cut points (duplicates allowed,
        // so zero-length continuation fragments occur) plus both ends.
        let mut edges: Vec<usize> = cuts.iter().map(|&c| c % (payload.len() + 1)).collect();
        edges.push(0);
        edges.push(payload.len());
        edges.sort_unstable();

        let window_id = WireWindowId(window);
        let n_frags = edges.len() - 1;
        let mut packets = Vec::with_capacity(n_frags);
        for (i, pair) in edges.windows(2).enumerate() {
            let first = i == 0;
            let last = i + 1 == n_frags;
            let mut buf = Vec::new();
            CommonHeader::with_fragment_param(MSG_REGION_UPDATE, first, pt, window_id)
                .encode_into(&mut buf);
            if first {
                buf.extend_from_slice(&left.to_be_bytes());
                buf.extend_from_slice(&top.to_be_bytes());
            }
            buf.extend_from_slice(&payload[pair[0]..pair[1]]);
            packets.push(FragmentPacket { marker: last, payload: buf });
        }

        let mut r = Reassembler::new();
        let mut got = None;
        for p in &packets {
            if let Some(m) = r.feed(p.marker, &p.payload).unwrap() {
                prop_assert!(got.is_none(), "at most one completion");
                got = Some(m);
            }
        }
        let expected = RemotingMessage::RegionUpdate(RegionUpdate {
            window_id,
            payload_type: pt,
            left,
            top,
            payload: Bytes::from(payload),
        });
        prop_assert_eq!(got, Some(expected));
        prop_assert!(!r.in_progress());
        prop_assert_eq!(r.dropped_partials(), 0);
    }

    /// Feeding a fragment stream with arbitrary drops and reordering never
    /// panics, never fabricates metadata, and after a `reset()` (the PLI
    /// recovery path) an intact message still reassembles exactly.
    #[test]
    fn reassembler_survives_loss_and_reordering(
        payload_len in 0usize..6000,
        mtu in 13usize..600,
        drops in proptest::collection::vec(any::<bool>(), 1..48),
        swaps in proptest::collection::vec((0usize..64, 0usize..64), 0..24),
    ) {
        let body: Vec<u8> = (0..payload_len).map(|i| (i % 251) as u8).collect();
        let msg = RemotingMessage::RegionUpdate(RegionUpdate {
            window_id: WireWindowId(9),
            payload_type: 101,
            left: 17,
            top: 23,
            payload: Bytes::from(body),
        });
        let packets = fragment(&msg, mtu).unwrap();

        let mut order: Vec<usize> = (0..packets.len()).collect();
        for &(a, b) in &swaps {
            let (a, b) = (a % order.len(), b % order.len());
            order.swap(a, b);
        }
        let mut r = Reassembler::new();
        for (k, &i) in order.iter().enumerate() {
            if drops[k % drops.len()] {
                continue;
            }
            match r.feed(packets[i].marker, &packets[i].payload) {
                // Continuations carry no offsets, so a scrambled stream can
                // complete with a permuted body — but the first-fragment
                // metadata must never be fabricated.
                Ok(Some(RemotingMessage::RegionUpdate(ru))) => {
                    prop_assert_eq!(ru.window_id, WireWindowId(9));
                    prop_assert_eq!(ru.payload_type, 101);
                    prop_assert_eq!((ru.left, ru.top), (17, 23));
                }
                Ok(Some(other)) => prop_assert!(false, "wrong type {:?}", other),
                // Gaps legitimately surface as fragment-state errors; the
                // session layer answers them with reset() + PLI.
                Ok(None) | Err(_) => {}
            }
        }

        // PLI recovery: after a reset, an intact retransmission of the full
        // update reassembles byte-for-byte.
        r.reset();
        prop_assert!(!r.in_progress());
        let mut got = None;
        for p in &packets {
            if let Some(m) = r.feed(p.marker, &p.payload).unwrap() {
                got = Some(m);
            }
        }
        prop_assert_eq!(got, Some(msg));
    }

    /// Lossless codecs recover arbitrary pixels exactly; the lossy codec
    /// stays within a bounded error.
    #[test]
    fn codecs_round_trip_arbitrary_images(img in arb_image()) {
        for kind in [CodecKind::Png, CodecKind::Rle, CodecKind::Raw] {
            let c = AnyCodec::new(kind);
            prop_assert_eq!(c.decode(&c.encode(&img)).unwrap(), img.clone(), "{:?}", kind);
        }
        let dct = AnyCodec::new(CodecKind::Dct);
        let back = dct.decode(&dct.encode(&img)).unwrap();
        prop_assert_eq!(back.width(), img.width());
        prop_assert_eq!(back.height(), img.height());
    }

    /// Any RegionUpdate fragments and reassembles exactly for any workable
    /// MTU, with Table 2 bits consistent.
    #[test]
    fn fragmentation_total(
        payload in proptest::collection::vec(any::<u8>(), 0..8192),
        mtu in 13usize..3000,
        window in any::<u16>(),
        left in any::<u32>(),
        top in any::<u32>(),
    ) {
        let msg = RemotingMessage::RegionUpdate(RegionUpdate {
            window_id: WireWindowId(window),
            payload_type: 101,
            left,
            top,
            payload: Bytes::from(payload),
        });
        let packets = fragment(&msg, mtu).unwrap();
        // Bits per Table 2.
        for (i, p) in packets.iter().enumerate() {
            prop_assert!(p.payload.len() <= mtu);
            prop_assert_eq!(p.marker, i + 1 == packets.len());
        }
        let mut r = Reassembler::new();
        let mut got = None;
        for p in &packets {
            if let Some(m) = r.feed(p.marker, &p.payload).unwrap() {
                got = Some(m);
            }
        }
        prop_assert_eq!(got, Some(msg));
    }

    /// A full message sequence over RTP + RFC 4571 framing, delivered in
    /// arbitrary chunk sizes, reproduces the sequence exactly.
    #[test]
    fn tcp_pipeline_chunking_invariant(
        payload_sizes in proptest::collection::vec(0usize..5000, 1..8),
        chunk in 1usize..500,
    ) {
        let mut rng = StdRng::seed_from_u64(9);
        let mut packetizer = RemotingPacketizer::new(RtpSender::new(1, 99, &mut rng), 1400);
        let msgs: Vec<RemotingMessage> = payload_sizes
            .iter()
            .enumerate()
            .map(|(i, &n)| {
                RemotingMessage::RegionUpdate(RegionUpdate {
                    window_id: WireWindowId(i as u16),
                    payload_type: 101,
                    left: i as u32,
                    top: 0,
                    payload: Bytes::from(vec![(i % 251) as u8; n]),
                })
            })
            .collect();
        let mut wire = Vec::new();
        for (i, m) in msgs.iter().enumerate() {
            for pkt in packetizer.packetize(m, i as u32 * 3000).unwrap() {
                frame_into(&mut wire, &pkt.encode()).unwrap();
            }
        }
        let mut deframer = Deframer::default();
        let mut depkt = RemotingDepacketizer::new();
        let mut got = Vec::new();
        for piece in wire.chunks(chunk) {
            deframer.push(piece);
            while let Some(frame) = deframer.pop().unwrap() {
                let pkt = RtpPacket::decode(&frame).unwrap();
                if let Some(m) = depkt.feed(&pkt).unwrap() {
                    got.push(m);
                }
            }
        }
        prop_assert_eq!(got, msgs);
    }

    /// Any unicode string survives KeyTyped chunking through RTP at any
    /// payload budget.
    #[test]
    fn key_typed_pipeline_unicode(text in "\\PC{0,300}", budget in 24usize..512) {
        let mut rng = StdRng::seed_from_u64(4);
        let mut p = HipPacketizer::new(RtpSender::new(2, 100, &mut rng), budget);
        let msg = HipMessage::KeyTyped { window_id: WireWindowId(5), text: text.clone() };
        let pkts = p.packetize(&msg, 0).unwrap();
        let rebuilt: String = pkts
            .iter()
            .map(|pkt| {
                let wire = pkt.encode();
                let back = RtpPacket::decode(&wire).unwrap();
                match depacketize_hip(&back).unwrap() {
                    HipMessage::KeyTyped { text, .. } => text,
                    other => panic!("wrong type {other:?}"),
                }
            })
            .collect();
        prop_assert_eq!(rebuilt, text);
    }

    /// The reorder buffer delivers any permuted window of a sequence in
    /// order, without duplicates or fabrications.
    #[test]
    fn reorder_buffer_permutation(
        start in any::<u16>(),
        len in 1usize..80,
        swaps in proptest::collection::vec((0usize..80, 0usize..80), 0..60),
    ) {
        use adshare::rtp::header::RtpHeader;
        use adshare::rtp::reorder::ReorderBuffer;
        let mut order: Vec<usize> = (0..len).collect();
        for (a, b) in swaps {
            let (a, b) = (a % len, b % len);
            order.swap(a, b);
        }
        // Bound displacement to the buffer capacity so nothing is dropped.
        let mut buf = ReorderBuffer::new(len + 1);
        // Ensure the first packet ingested is the sequence start (the
        // session layer guarantees this via PLI resync; here we pin it).
        let first_pos = order.iter().position(|&i| i == 0).unwrap();
        order.swap(0, first_pos);
        let mut delivered = Vec::new();
        for &i in &order {
            let seq = start.wrapping_add(i as u16);
            buf.ingest(RtpPacket::new(RtpHeader::new(99, seq, 0, 1), Vec::new()));
            while let Some(p) = buf.pop_ready() {
                delivered.push(p.header.sequence);
            }
        }
        let expected: Vec<u16> = (0..len as u16).map(|i| start.wrapping_add(i)).collect();
        prop_assert_eq!(delivered, expected);
    }

    /// The AH's serialiser against its reference: for any message kind,
    /// payload length, MTU (any datagram budget, or the stream budget) and
    /// sender state, `packetize_with` emits exactly the datagrams of
    /// `fragment()` → `next_packet()` → `encode()` — same bytes, order and
    /// marker bits, same sender state afterwards — or fails with the same
    /// error having touched nothing. Those datagrams, parsed by the owning
    /// parser, reassemble to the message; an unfragmented one without a
    /// single allocation or copy.
    #[test]
    fn one_buffer_serialiser_matches_fragment_then_encode(
        (kind, window, left, top) in (0u8..5, any::<u16>(), any::<u32>(), any::<u32>()),
        body in proptest::collection::vec(any::<u8>(), 0..20_001),
        (stream, datagram_mtu) in (0u8..8, 0usize..1401),
        (sender_seed, ssrc, ticks) in (any::<u64>(), any::<u32>(), any::<u32>()),
    ) {
        // `Leg`'s STREAM_MTU: what a TCP leg fragments at.
        let mtu = if stream == 0 { 60_000 } else { datagram_mtu };
        let body_len = body.len();
        let msg = remoting_message(kind, window, left, top, body);
        let mut reference = RtpSender::new(ssrc, 99, &mut StdRng::seed_from_u64(sender_seed));
        let mut sender = RtpSender::new(ssrc, 99, &mut StdRng::seed_from_u64(sender_seed));
        let first_seq = sender.peek_seq();
        let mut scratch = Vec::new();
        let mut packets = Vec::new();
        let result = packetize_with(&mut sender, &msg, mtu, ticks, &mut scratch, |p| packets.push(p));
        let expected = match fragment(&msg, mtu) {
            Ok(fragments) => fragments,
            Err(e) => {
                prop_assert_eq!(result, Err(e));
                prop_assert!(packets.is_empty());
                prop_assert_eq!(sender.peek_seq(), first_seq);
                prop_assert_eq!(sender.sent_counts(), (0, 0));
                return Ok(());
            }
        };
        prop_assert_eq!(result, Ok(()));
        prop_assert_eq!(packets.len(), expected.len());
        let mut depacketizer = RemotingDepacketizer::new();
        let mut reassembled = None;
        for (pkt, f) in packets.iter().zip(expected) {
            let oracle = reference.next_packet(ticks, f.marker, f.payload);
            prop_assert_eq!(pkt, &oracle);
            let datagram = pkt.datagram(&mut scratch);
            prop_assert_eq!(&datagram[..], &oracle.encode()[..]);
            let parsed = RtpPacket::decode_bytes(datagram).unwrap();
            prop_assert_eq!(&parsed, &oracle);
            if let Some(m) = depacketizer.feed(&parsed).unwrap() {
                reassembled = Some(m);
            }
        }
        prop_assert_eq!(sender.peek_seq(), reference.peek_seq());
        prop_assert_eq!(sender.sent_counts(), reference.sent_counts());
        prop_assert_eq!(reassembled.as_ref(), Some(&msg));
        let joined = if packets.len() > 1 { (1, body_len as u64) } else { (0, 0) };
        prop_assert_eq!(depacketizer.copy_stats(), joined);
    }
}
