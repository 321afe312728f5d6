//! A burst longer than the reorder buffer (256 packets) behind a lost
//! packet makes the buffer skip the hole (DESIGN §5.2). The receive half
//! handles that like a give-up: the message the hole cut in two is dropped
//! rather than glued to a later fragment, and exactly one refresh is asked
//! for. The stream is a real `Downstream`'s; the receiver a real `Ingress`.

use adshare::remoting::message::{RegionUpdate, RemotingMessage};
use adshare::remoting::WindowId;
use adshare::rtp::rtcp::{decode_compound, RtcpPacket};
use adshare::rtp::RtpPacket;
use adshare::session::egress::{Burst, Downstream, StreamId, Tap, Wire};
use adshare::session::ingress::Ingress;
use bytes::Bytes;

const MTU: usize = 1_200;

fn region(fill: u8, len: usize) -> RemotingMessage {
    RemotingMessage::RegionUpdate(RegionUpdate {
        window_id: WindowId(1),
        payload_type: 96,
        left: u32::from(fill),
        top: 0,
        payload: Bytes::from(vec![fill; len]),
    })
}

#[test]
fn an_overflow_jump_drops_the_cut_message_and_asks_for_one_refresh() {
    let mut out = Downstream::new(Wire::raw(), 1, Some(100), None);
    let (mut tap, mut burst) = (Tap::default(), Burst::default());
    let id = StreamId {
        pt: 99,
        ts: 0,
        ssrc: 0xAAAA,
    };
    // A region update in three fragments, then 300 one-packet ones.
    let cut = region(0, 3 * MTU - 100);
    let burst_msgs: Vec<RemotingMessage> = (1..=300).map(|i| region(i as u8, 40)).collect();
    for msg in std::iter::once(&cut).chain(&burst_msgs) {
        out.send_message(&mut tap, 0, msg, MTU, id, &mut burst)
            .expect("fits");
    }
    assert_eq!(burst.packets, 303);

    let mut rx = Ingress::new(7, "viewer".into(), true, 1);
    let mut delivered = Vec::new();
    for (i, datagram) in out.wire.poll(0, 0).into_iter().enumerate() {
        if i == 1 {
            continue; // the cut message's middle fragment, lost for good
        }
        let pkt = RtpPacket::decode_bytes(datagram).expect("rtp");
        let _ = rx.ingest(pkt, i as u64);
        while let Some((_, fed)) = rx.pop() {
            if let Ok(Some(msg)) = fed {
                delivered.push(msg);
            }
        }
    }
    assert_eq!(
        delivered, burst_msgs,
        "every whole message in order, and nothing made of the cut one's pieces"
    );
    let feedback = rx.take_rtcp().expect("feedback queued");
    let plis = decode_compound(&feedback)
        .expect("rtcp")
        .iter()
        .filter(|p| matches!(p, RtcpPacket::Pli(_)))
        .count();
    assert_eq!(plis, 1, "the jump asks for exactly one refresh");
}
