//! Model tests for the one downstream half (`session::egress::Downstream`,
//! DESIGN §5.1). Its record: random sends of kept packets (the AH's
//! messages, a relay's minted ones) and of upstream-referenced ones (a
//! relay's forwards), past a 16-bit sequence wrap, mixed with NACKs for
//! arbitrary sequences and with `forget_kept` / `close`, checked against a
//! reference that never forgets anything — and so is its send-time ring
//! (`last_sent_before`), which must give the reference's answer while it
//! still holds that send and `None` once it has let it go. The feedback
//! half beside it (`session::egress::Feedback`) judges a receiver report's
//! tail as the reference would: from the SRs it remembers, the reference's
//! send times and the report's highest sequence. Its packetizer: checked
//! against `fragment()` → `RtpPacket::new` → `encode()`.

use std::collections::HashMap;

use adshare::remoting::fragment::fragment;
use adshare::remoting::message::{
    MousePointerInfo, MoveRectangle, RegionUpdate, RemotingMessage, WindowManagerInfo, WindowRecord,
};
use adshare::remoting::WindowId;
use adshare::rtp::rtcp::{ReportBlock, DLSR_UNITS_PER_S};
use adshare::rtp::{RtpHeader, RtpPacket};
use adshare::session::egress::{
    Burst, Downstream, Feedback, StreamId, Tail, Tap, Verdict, Wire, SEND_TIMES,
};
use bytes::Bytes;
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// What a sequence carried, as the reference remembers it.
#[derive(Clone)]
enum Sent {
    Kept(Vec<u8>),
    Upstream(u16),
}

/// Every send ever made, in issue order, and where forgetting happened.
#[derive(Default)]
struct Reference {
    sent: Vec<(u16, Sent)>,
    /// Newest issue of each sequence: an index into `sent`.
    newest: HashMap<u16, usize>,
    /// Kept packets issued before this index were let go.
    forgot_kept_before: usize,
    /// Everything issued before this index was let go.
    closed_before: usize,
    /// `(µs, last sequence)` of every send call.
    calls: Vec<(u64, u16)>,
    /// Every SR the leg sent: `(compact NTP, µs)`.
    srs: Vec<(u32, u64)>,
}

impl Reference {
    fn push(&mut self, now_us: u64, seq: u16, what: Sent) {
        self.newest.insert(seq, self.sent.len());
        self.sent.push((seq, what));
        self.calls.push((now_us, seq));
    }

    /// What a ring of the last [`SEND_TIMES`] calls answers for `t_us`: the
    /// last sequence sent at or before it, while the ring still holds that
    /// call.
    fn last_sent_before(&self, t_us: u64) -> Option<u16> {
        let i = self
            .calls
            .partition_point(|&(at, _)| at <= t_us)
            .checked_sub(1)?;
        (self.calls.len() - i <= SEND_TIMES).then_some(self.calls[i].1)
    }

    /// The tail verdict on a report that echoes `lsr` after holding it
    /// `dlsr` units and saw up to `highest`: only an SR among the last four
    /// dates it, and only what was sent by then can be missing.
    fn tail(&self, lsr: u32, dlsr: u32, highest: u16) -> Tail {
        let recent = &self.srs[self.srs.len().saturating_sub(4)..];
        let Some(&(_, sent_us)) = recent
            .iter()
            .rev()
            .find(|&&(ntp, _)| ntp == lsr && lsr != 0)
        else {
            return Tail::Intact;
        };
        let written = sent_us + u64::from(dlsr) * 1_000_000 / DLSR_UNITS_PER_S;
        let Some(seen) = self.last_sent_before(written) else {
            return Tail::Intact;
        };
        match seen.wrapping_sub(highest) {
            n @ 1..=64 => Tail::Resend(highest, n),
            n if n == 0 || n >= 0x8000 => Tail::Intact,
            _ => Tail::Refresh,
        }
    }

    /// The answer a record of the last `bound` sequences must give, or
    /// `None` when `seq` was last issued longer ago than that, where any
    /// refusal will do but no resend.
    fn expect(&self, seq: u16, bound: usize) -> Option<Verdict> {
        let Some(&i) = self.newest.get(&seq) else {
            return Some(Verdict::NeverSent);
        };
        if self.sent.len() - i > bound {
            return None;
        }
        Some(match &self.sent[i].1 {
            _ if i < self.closed_before => Verdict::Forgotten,
            Sent::Kept(_) if i < self.forgot_kept_before => Verdict::Forgotten,
            Sent::Kept(datagram) => Verdict::Resend(Bytes::copy_from_slice(datagram)),
            Sent::Upstream(up) => Verdict::Upstream(*up),
        })
    }
}

fn message(n: u64, rng: &mut StdRng) -> RemotingMessage {
    let mut payload = n.to_be_bytes().to_vec();
    payload.extend((0..rng.gen_range(0..8)).map(|_| rng.gen::<u8>()));
    RemotingMessage::RegionUpdate(RegionUpdate {
        window_id: WindowId(1),
        payload_type: 96,
        left: 0,
        top: 0,
        payload: payload.into(),
    })
}

fn run(seed: u64, bound: usize, first_seq: Option<u16>) {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut out = Downstream::new(Wire::raw(), 7, first_seq, Some((bound, usize::MAX)));
    let mut tap = Tap::default();
    let mut reference = Reference::default();
    let mut half = Feedback::new(7);
    let id = StreamId {
        pt: 99,
        ts: 1,
        ssrc: 2,
    };
    // NACKs answered within the bound, and beyond it; send times found in
    // the ring, and let go.
    let mut probed = [0u64; 2];
    let mut timed = [0u64; 2];
    let mut tails = [0u64; 3];
    for step in 0..90_000u64 {
        if rng.gen_ratio(1, 50) {
            // An SR whose NTP field's middle 32 bits are the step.
            half.note_sr(step << 16, step);
            reference.srs.push((step as u32, step));
        }
        match rng.gen_range(0..1_000) {
            0..=399 => {
                let msg = message(step, &mut rng);
                out.send_message(&mut tap, step, &msg, 1_200, id, &mut Burst::default())
                    .expect("fits");
                let sent = out.wire.poll(0, step);
                assert_eq!(sent.len(), 1);
                let seq = u16::from_be_bytes([sent[0][2], sent[0][3]]);
                reference.push(step, seq, Sent::Kept(sent[0].to_vec()));
            }
            400..=799 => {
                let up: u16 = rng.gen();
                let pkt = RtpPacket::new(RtpHeader::new(99, up, 1, 3), vec![1, 2, 3]);
                out.forward(
                    &mut tap,
                    step,
                    std::slice::from_ref(&pkt),
                    &mut Burst::default(),
                );
                let sent = out.wire.poll(0, step);
                let seq = RtpPacket::decode(&sent[0]).expect("rtp").header.sequence;
                assert_eq!(Some(seq), out.last_sent());
                reference.push(step, seq, Sent::Upstream(up));
            }
            800..=997 => {
                // Half near the tail (inside and just past the bound),
                // half anywhere in the sequence space.
                let seq = match (out.last_sent(), rng.gen::<bool>()) {
                    (Some(last), true) => last.wrapping_sub(rng.gen_range(0..bound as u16 * 2)),
                    _ => rng.gen(),
                };
                // Times near the present (inside and past the ring), and
                // anywhere before it.
                let t = match rng.gen::<bool>() {
                    true => step.saturating_sub(rng.gen_range(0..2 * SEND_TIMES as u64)),
                    false => rng.gen_range(0..=step),
                };
                let want = reference.last_sent_before(t);
                assert_eq!(
                    out.last_sent_before(t),
                    want,
                    "seed {seed} step {step} t {t}"
                );
                timed[usize::from(want.is_none())] += 1;
                // A report that saw up to just behind the last sequence or
                // up to the probed one, and echoes a recent SR (or one long
                // gone, or none) held up to 15 DLSR units (≈ 229 µs: this
                // clock runs a µs a step, so inside and past the ring).
                let lsr = match (rng.gen_range(0..8), reference.srs.len()) {
                    (_, 0) | (0, _) => rng.gen_range(0..2),
                    (k, n) => reference.srs[n.saturating_sub(k)].0,
                };
                let dlsr = rng.gen_range(0..16);
                let highest = match (out.last_sent(), rng.gen::<bool>()) {
                    (Some(last), true) => last.wrapping_sub(rng.gen_range(0..130)),
                    _ => seq,
                };
                let block = ReportBlock {
                    ssrc: 2,
                    fraction_lost: 0,
                    cumulative_lost: 0,
                    highest_seq: u32::from(highest),
                    jitter: 0,
                    last_sr: lsr,
                    delay_since_last_sr: dlsr,
                };
                let tail = half.on_report(&out, None, None, &block, step);
                assert_eq!(
                    tail,
                    reference.tail(lsr, dlsr, highest),
                    "seed {seed} step {step}"
                );
                tails[match tail {
                    Tail::Intact => 0,
                    Tail::Resend(..) => 1,
                    Tail::Refresh => 2,
                }] += 1;
                let got = out.answer(&mut tap, seq, step);
                // A resend is on the wire as the verdict says; nothing else is.
                let resent = out.wire.poll(0, step);
                match &got {
                    Verdict::Resend(datagram) => assert_eq!(resent, std::slice::from_ref(datagram)),
                    _ => assert!(resent.is_empty()),
                }
                match reference.expect(seq, bound) {
                    Some(want) => {
                        assert_eq!(got, want, "seed {seed} step {step} seq {seq}");
                        probed[0] += 1;
                    }
                    None => {
                        assert!(
                            matches!(got, Verdict::Forgotten | Verdict::NeverSent),
                            "seed {seed} step {step}: seq {seq} beyond the bound answered {got:?}"
                        );
                        probed[1] += 1;
                    }
                }
            }
            998 => {
                out.forget_kept();
                reference.forgot_kept_before = reference.sent.len();
            }
            _ => {
                out.close();
                reference.closed_before = reference.sent.len();
            }
        }
    }
    assert!(
        reference.sent.len() > 65_536 + bound,
        "the sequence space wrapped"
    );
    assert!(
        probed[0] > 1_000 && probed[1] > 100,
        "both sides of the bound were probed"
    );
    assert!(
        timed[0] > 1_000 && timed[1] > 1_000,
        "send times inside and past the ring were probed"
    );
    assert!(
        tails.iter().all(|&n| n > 100),
        "every tail verdict was reached: {tails:?}"
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(3))]

    #[test]
    fn record_answers_like_a_reference_that_never_forgets(
        seed in any::<u64>(),
        bound in 0..3usize,
        first_seq in any::<u16>(),
        pinned in any::<bool>(),
    ) {
        run(seed, [64, 1_024, 4_096][bound], pinned.then_some(first_seq));
    }

    /// For any message kind, body and MTU (datagram budgets and the AH's
    /// stream budget), `send_message` puts exactly the datagrams of the
    /// reference serialiser on the wire, in order, numbered from the next
    /// sequence, and keeps each for repair — or fails with the same error
    /// having sent and numbered nothing.
    #[test]
    fn packetizer_sends_fragment_then_encode(
        (kind, left, top) in (0u8..4, any::<u32>(), any::<u32>()),
        body in proptest::collection::vec(any::<u8>(), 0..5_001),
        (stream, datagram_mtu) in (0u8..8, 0usize..1401),
        (first_seq, ts, ssrc) in (any::<u16>(), any::<u32>(), any::<u32>()),
    ) {
        let mtu = if stream == 0 { 60_000 } else { datagram_mtu };
        let window_id = WindowId(3);
        let msg = match kind {
            0 => RemotingMessage::RegionUpdate(RegionUpdate {
                window_id, payload_type: 101, left, top, payload: body.into(),
            }),
            1 => RemotingMessage::MousePointerInfo(MousePointerInfo {
                window_id, payload_type: 96, left, top,
                image: (!body.is_empty()).then(|| body.into()),
            }),
            2 => RemotingMessage::WindowManagerInfo(WindowManagerInfo {
                windows: (0..body.len() % 90)
                    .map(|i| WindowRecord {
                        window_id: WindowId(i as u16), group_id: 0, left, top, width: 9, height: 7,
                    })
                    .collect(),
            }),
            _ => RemotingMessage::MoveRectangle(MoveRectangle {
                window_id, src_left: left, src_top: top, width: 100, height: 86,
                dst_left: top, dst_top: left,
            }),
        };
        let mut out = Downstream::new(Wire::raw(), 7, Some(first_seq), Some((4_096, usize::MAX)));
        let id = StreamId { pt: 99, ts, ssrc };
        let mut burst = Burst::default();
        let result = out.send_message(&mut Tap::default(), 0, &msg, mtu, id, &mut burst);
        let sent = out.wire.poll(0, 0);
        let fragments = match fragment(&msg, mtu) {
            Ok(fragments) => fragments,
            Err(e) => {
                prop_assert_eq!(result, Err(e));
                prop_assert!(sent.is_empty());
                prop_assert_eq!(out.last_sent(), None);
                prop_assert_eq!(out.sent_counts(), (0, 0));
                return Ok(());
            }
        };
        prop_assert_eq!(result, Ok(()));
        prop_assert_eq!(sent.len(), fragments.len());
        prop_assert_eq!(burst.packets, fragments.len() as u64);
        let (mut octets, mut marker_seq) = (0, None);
        for (i, (datagram, f)) in sent.iter().zip(fragments).enumerate() {
            let seq = first_seq.wrapping_add(i as u16);
            let mut header = RtpHeader::new(99, seq, ts, ssrc);
            header.marker = f.marker;
            marker_seq = if f.marker { Some(seq) } else { marker_seq };
            octets += f.payload.len() as u64;
            let oracle = RtpPacket::new(header, f.payload).encode();
            prop_assert_eq!(&datagram[..], &oracle[..]);
            let mut tap = Tap::default();
            prop_assert_eq!(out.answer(&mut tap, seq, 0), Verdict::Resend(datagram.clone()));
        }
        let last = first_seq.wrapping_add(sent.len() as u16 - 1);
        prop_assert_eq!((out.last_sent(), burst.last_seq), (Some(last), last));
        prop_assert_eq!(burst.marker_seq, marker_seq);
        prop_assert_eq!(out.sent_counts(), (sent.len() as u64, octets));
    }
}
